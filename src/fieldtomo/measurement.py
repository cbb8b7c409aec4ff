"""Finite-shot stroboscopic measurement of the probe qubit.

Each grid point (axis, t_k) is an independent preparation: the empirical
mean of ``n_m`` projective +-1 outcomes with ``P(+1) = (1 + m)/2``,
where ``m`` is the (optionally damped) ideal Bloch component.  Each axis
draws its shot counts from one RNG stream seeded as ``(seed, axis_index)``
with the fixed axis map x -> 0, y -> 1, z -> 2, so:

* results for a given axis never depend on which other axes were
  requested (axis independence);
* the stream is consumed in time order, so the first ``k`` points of an
  axis do not depend on ``n_t`` (prefix stability).

Prefix stability is load-bearing, not incidental: ``noise-sweep`` samples
each ``(delta_t, n_m)`` stack once, at its longest ``n_t``, and reads every
shorter record as the first ``n_t`` columns of that stack.  A sampler
that broke the property would make those cells differ from a run at their
own ``n_t``; ``test_sample_records_are_prefix_stable`` pins it bit for bit.

`sample_records` draws many runs of one plan at once, as a leading
record axis: record ``k`` uses seed ``plan.seed + k`` and is exactly the
run `sample_trajectory` gives at that seed, while the ideal mean is
computed once for all of them.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .exceptions import ValidationError
from .fock import DensityMatrix
from .probe import BlochTrajectory, ProbeConfig, ideal_bloch_trajectory, time_grid

__all__ = [
    "MeasurementPlan",
    "decohered_expectation",
    "sample_records",
    "sample_trajectory",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class MeasurementPlan:
    """What to measure: grid, shot budget, axes, damping, seed.

    ``n_m = None`` means the infinite-shot (ideal) limit.
    """

    delta_t: float
    n_t: int
    n_m: Optional[int] = None
    axes: tuple[str, ...] = ("x", "y", "z")
    gamma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.delta_t > 0 and math.isfinite(self.delta_t)):
            raise ValidationError(f"delta_t must be positive, got {self.delta_t!r}")
        if int(self.n_t) != self.n_t or self.n_t < 1:
            raise ValidationError(f"n_t must be a positive integer, got {self.n_t!r}")
        if self.n_m is not None and (int(self.n_m) != self.n_m or self.n_m < 1):
            raise ValidationError(f"n_m must be None or a positive integer, got {self.n_m!r}")
        axes = tuple(self.axes)
        if not axes or any(a not in AXIS_INDEX for a in axes) or len(set(axes)) != len(axes):
            raise ValidationError(f"axes must be a subset of x, y, z; got {self.axes!r}")
        object.__setattr__(self, "axes", axes)
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValidationError(f"gamma must be >= 0, got {self.gamma!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")

    def times(self) -> np.ndarray:
        return time_grid(self.delta_t, int(self.n_t))


def decohered_expectation(ideal: np.ndarray, gamma: float, times: np.ndarray) -> np.ndarray:
    """Exponential envelope exp(-gamma t) applied to an ideal component."""
    if gamma < 0:
        raise ValidationError("gamma must be >= 0")
    if gamma == 0.0:
        return np.asarray(ideal, dtype=float)
    # A huge gamma t overflows to -inf, whose exp is the exact limit 0.
    with np.errstate(over="ignore"):
        envelope = np.exp(-gamma * np.asarray(times, dtype=float))
    return np.asarray(ideal, dtype=float) * envelope


def _sample_axis(mean: np.ndarray, n_m: int, seeds: range, axis: str) -> np.ndarray:
    """Empirical means of n_m two-outcome shots at every grid point, one
    row per seed, each drawn from its own ``(seed, axis_index)`` stream."""
    p = 0.5 * (1.0 + mean)
    # Clip pure float fuzz only; anything materially outside is a real bug.
    if np.min(p) < -1e-12 or np.max(p) > 1 + 1e-12:
        raise ValidationError("Bloch component outside [-1, 1] during sampling")
    p = np.clip(p, 0.0, 1.0)
    # Counts are filled in as exact floats and scaled in place, which keeps
    # one (seeds, n_t) array alive instead of four.
    out = np.empty((len(seeds), p.size))
    for row, seed in zip(out, seeds):
        row[:] = np.random.default_rng((seed, AXIS_INDEX[axis])).binomial(n_m, p)
    out *= 2.0
    out /= n_m
    out -= 1.0
    return out


def sample_records(
    rho: DensityMatrix, cfg: ProbeConfig, plan: MeasurementPlan, n_records: int = 1
) -> dict[str, np.ndarray]:
    """``n_records`` protocol runs for one target state, as ``{axis: (n_records,
    n_t) array}`` for each axis of ``plan``.

    Record ``k`` is the run `sample_trajectory` gives at seed
    ``plan.seed + k``: the ideal mean is computed once, for the plan's axes
    only, and each record draws on it from its own streams.  At
    ``n_m = None`` every record is the damped ideal mean.
    """
    if int(n_records) != n_records or n_records < 1:
        raise ValidationError(f"n_records must be a positive integer, got {n_records!r}")
    times = plan.times()
    ideal = ideal_bloch_trajectory(rho, cfg, times, axes=plan.axes)
    seeds = range(plan.seed, plan.seed + int(n_records))
    comps: dict[str, np.ndarray] = {}
    for axis in plan.axes:
        damped = decohered_expectation(getattr(ideal, axis), plan.gamma, times)
        if plan.n_m is None:
            comps[axis] = np.broadcast_to(damped, (len(seeds), times.size))
        else:
            comps[axis] = _sample_axis(damped, int(plan.n_m), seeds, axis)
    return comps


def sample_trajectory(
    rho: DensityMatrix, cfg: ProbeConfig, plan: MeasurementPlan
) -> BlochTrajectory:
    """Simulate the full protocol run for one target state: the one-record
    view of `sample_records`."""
    comps = sample_records(rho, cfg, plan)
    return BlochTrajectory(plan.times(), **{axis: rows[0] for axis, rows in comps.items()})


def write_trajectory_csv(traj: BlochTrajectory, path: str | Path) -> None:
    """Header ``t,x,y,z``; unmeasured axes are left as empty fields.

    Floats are written ``%.17g`` and lines end ``\\r\\n``, the dialect
    `read_trajectory_csv` (a `csv.reader`) expects.
    """
    comps = [getattr(traj, a) for a in ("x", "y", "z")]
    row = ",".join(["%.17g"] + ["" if c is None else "%.17g" for c in comps]) + "\r\n"
    cols = [traj.times.tolist()] + [c.tolist() for c in comps if c is not None]
    with open(path, "w", newline="") as fh:
        fh.write("t,x,y,z\r\n")
        fh.writelines(map(row.__mod__, zip(*cols)))


def read_trajectory_csv(path: str | Path) -> BlochTrajectory:
    """The trajectory of a ``t,x,y,z`` file; an axis left empty on every row
    stays ``None``.  A row that is not four fields, with ``t`` and each
    measured axis a number, is a `ValidationError` naming file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "x", "y", "z"]:
            raise ValidationError(f"{path}: expected header t,x,y,z, got {header!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError
                rows.append([float(row[0])] + [None if c == "" else float(c) for c in row[1:]])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {reader.line_num}: expected t,x,y,z with t and every "
                    f"measured axis a number, got {row!r}"
                ) from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    times = np.array([r[0] for r in rows])
    comps: dict[str, Optional[np.ndarray]] = {}
    for i, axis in enumerate(("x", "y", "z"), start=1):
        cells = [r[i] for r in rows]
        if all(c is None for c in cells):
            comps[axis] = None
        elif any(c is None for c in cells):
            raise ValidationError(f"{path}: axis {axis} is only partially present")
        else:
            comps[axis] = np.array(cells)
    return BlochTrajectory(times=times, **comps)
