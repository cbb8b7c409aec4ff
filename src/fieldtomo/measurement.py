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
computed once for all of them.  Records carry their step, not their times:
a file is the one way times come in, so `read_trajectory_csv` checks them.
`MeasurementPlan` states its fields' rules once, each refusal keyed by the
field, which is named as its ``[plan]`` INI option.
"""

from __future__ import annotations

import csv
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .exceptions import GridError, ValidationError, _shown
from .fock import DensityMatrix
from .probe import (MAX_N_T, BlochTrajectory, _check_axes, _check_grid, ideal_bloch_trajectory,
                    time_grid)
from .spectral import _write_csv

__all__ = [
    "MeasurementPlan",
    "sample_records",
    "sample_trajectory",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
#: Most shots a point can take: numpy's binomial draws int64 counts.
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class MeasurementPlan:
    """What to measure: grid, shot budget, axes, damping, seed.

    ``n_m = None`` means the infinite-shot (ideal) limit; ``gamma`` is the
    rate of the damping ``exp(-gamma t)``.
    """

    delta_t: float
    n_t: int
    n_m: Optional[int] = None
    axes: tuple[str, ...] = ("x", "y", "z")
    gamma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_grid(self.delta_t, self.n_t)
        n_m = self.n_m  # range first, as in the grid rule: int() of inf or nan raises
        if n_m is not None and not (isinstance(n_m, numbers.Real) and 1 <= n_m <= MAX_SHOTS
                                    and int(n_m) == n_m):
            raise ValidationError(f"n_m must be None or an integer in 1..{MAX_SHOTS}, "
                                  f"got {_shown(n_m)}", key="n_m")
        object.__setattr__(self, "axes", _check_axes(self.axes))
        if not (isinstance(self.gamma, numbers.Real) and 0 <= self.gamma <= sys.float_info.max):
            raise ValidationError(f"gamma must be a finite number >= 0, got {_shown(self.gamma)}",
                                  key="gamma")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValidationError(f"seed must be an integer >= 0, got {_shown(self.seed)}",
                                  key="seed")


def _sample_axis(mean: np.ndarray, n_m: int, seeds: range, axis: str) -> np.ndarray:
    """Empirical means of n_m two-outcome shots at every grid point, one
    row per seed, each drawn from its own ``(seed, axis_index)`` stream."""
    p = 0.5 * (1.0 + mean)
    # Clip pure float fuzz only; anything materially outside, or NaN, is a real bug.
    if not (np.min(p) >= -1e-12 and np.max(p) <= 1 + 1e-12):
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
    rho: DensityMatrix, g: float, plan: MeasurementPlan, n_records: int = 1
) -> dict[str, np.ndarray]:
    """``n_records`` protocol runs for one target state at coupling ``g``, as
    ``{axis: (n_records, n_t) array}`` for each axis of ``plan``.

    Record ``k`` is the run `sample_trajectory` gives at seed
    ``plan.seed + k``: the ideal mean is computed once, for the plan's axes
    only, and each record draws on it from its own streams.  At
    ``n_m = None`` every record is the damped ideal mean.
    """
    n_t = int(plan.n_t)
    if not (isinstance(n_records, numbers.Real) and 1 <= n_records <= MAX_N_T // n_t
            and int(n_records) == n_records):
        raise ValidationError(f"n_records must be an integer in 1..{MAX_N_T // n_t} for "
                              f"addressable records, got {_shown(n_records)}", key="n_records")
    ideal = ideal_bloch_trajectory(rho, g, plan.delta_t, n_t, axes=plan.axes)
    # A huge gamma t overflows to -inf, whose exp is the exact limit 0.
    with np.errstate(over="ignore"):
        envelope = np.exp(-plan.gamma * ideal.times) if plan.gamma else None
    seeds = range(plan.seed, plan.seed + int(n_records))
    comps: dict[str, np.ndarray] = {}
    for axis in plan.axes:
        mean = getattr(ideal, axis) if envelope is None else getattr(ideal, axis) * envelope
        if plan.n_m is None:
            comps[axis] = np.broadcast_to(mean, (len(seeds), n_t))
        else:
            comps[axis] = _sample_axis(mean, int(plan.n_m), seeds, axis)
    return comps


def sample_trajectory(rho: DensityMatrix, g: float, plan: MeasurementPlan) -> BlochTrajectory:
    """Simulate the full protocol run for one target state: the one-record
    view of `sample_records`."""
    comps = sample_records(rho, g, plan)
    return BlochTrajectory(plan.delta_t, **{axis: rows[0] for axis, rows in comps.items()})


def write_trajectory_csv(traj: BlochTrajectory, path: str | Path) -> None:
    """Header ``t,x,y,z``; unmeasured axes are left as empty fields.

    Floats are written ``%.17g`` and lines end ``\\r\\n``, the dialect
    `read_trajectory_csv` (a `csv.reader`) expects.  `spectral._write_csv`
    writes the rows; their time cells depend on the grid alone and are
    formatted once per grid.
    """
    _write_csv(path, "t,x,y,z\r\n", traj.times, [getattr(traj, a) for a in ("x", "y", "z")])


def read_trajectory_csv(path: str | Path) -> BlochTrajectory:
    """The trajectory of a ``t,x,y,z`` file; an axis left empty on every row
    stays ``None``.  A row that is not four fields, with ``t`` and each
    measured axis a number, is a `ValidationError` naming file and line;
    undecodable text is one naming the file, times off their grid a `GridError`."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    reader = csv.reader(lines)
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
    delta_t = _grid_step(np.array([r[0] for r in rows]), path)
    comps: dict[str, Optional[np.ndarray]] = {}
    for i, axis in enumerate(("x", "y", "z"), start=1):
        cells = [r[i] for r in rows]
        if all(c is None for c in cells):
            comps[axis] = None
        elif any(c is None for c in cells):
            raise ValidationError(f"{path}: axis {axis} is only partially present")
        else:
            comps[axis] = np.array(cells)
    return BlochTrajectory(delta_t, **comps)


def _grid_step(times: np.ndarray, path) -> float:
    """The step ``t[1] - t[0]`` (``t[0]`` for one row) of the times a file
    brings in, which must be finite with ``t[0]`` the step and every time
    within ``1e-9 max(delta_t, 1)`` of ``time_grid(delta_t, n)``: else a
    `GridError` naming ``path``.  The writer's times are that grid exactly."""
    delta_t = float(times[1]) - float(times[0]) if times.size > 1 else float(times[0])
    try:
        off = time_grid(delta_t, times.size)  # a NaN or inf t[0] or t[1] gives no step
    except GridError as exc:
        raise GridError(f"{path}: {exc}") from None
    off -= times  # NaN or inf where a later time is; not <= below
    if not (times[0] == delta_t and np.max(np.abs(off, out=off)) <= 1e-9 * max(delta_t, 1.0)):
        raise GridError(f"{path}: times must be finite, t_k = k delta_t with delta_t = "
                        f"t[1] - t[0] = {delta_t!r}")
    return delta_t
