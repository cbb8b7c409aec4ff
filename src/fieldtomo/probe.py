"""Resonant probe-qubit dynamics and ideal Bloch trajectories.

The probe qubit couples to the mode through the resonant interaction
``H_I = g (sigma_+ a + sigma_- a^dag)`` (interaction picture, real g).
Each excitation sector ``{|e, n-1>, |g, n>}`` rotates at the Rabi
frequency ``Omega_n = g sqrt(n)``, which gives closed forms for the
reduced qubit state when the probe starts in ``|g>``:

    rho^q_gg(t) = rho_00 + sum_{n>=1} rho_nn cos^2(Omega_n t)
    rho^q_ge(t) = i sum_{n>=0} rho_{n,n+1} cos(Omega_n t) sin(Omega_{n+1} t)

Bloch components follow the usual map ``x = 2 Re rho_ge``,
``y = -2 Im rho_ge``, ``z = 2 rho_gg - 1``.  Everything downstream
(spectral comb layout, coherence pairing signs) assumes exactly these
expressions.  `bloch_components` is their one copy: `ideal_bloch_trajectory`
simulates with it, and the estimators' residual floors subtract what it
gives for their solved estimates.  Its trig rows, ``cos(2 Omega_n t)``,
``cos(Omega_n t)`` and ``sin(Omega_{n+1} t)``, live in a memo of one
``(g, times)`` grid, so a run that simulates and then fits on that grid
computes each row once; a new ``g`` or grid replaces the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import GridError, ValidationError
from .fock import DensityMatrix

__all__ = [
    "ProbeConfig",
    "BlochTrajectory",
    "time_grid",
    "ideal_bloch_trajectory",
    "bloch_components",
]

#: terms with |rho element| below this are skipped when summing the comb
_ELEMENT_FLOOR = 1e-14
#: Largest n_t whose grid of 8-byte floats numpy can address.
MAX_N_T = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ProbeConfig:
    """Probe coupling ``g``: the dynamics are evaluated on resonance in
    the interaction picture, so it is the only parameter."""

    g: float

    def __post_init__(self):
        if not (self.g > 0 and math.isfinite(self.g)):
            raise ValidationError(f"coupling g must be positive, got {self.g!r}")


def time_grid(delta_t: float, n_t: int) -> np.ndarray:
    """Stroboscopic grid t_k = k delta_t, k = 1 .. n_t (t = 0 excluded)."""
    if not delta_t > 0:
        raise GridError(f"delta_t must be positive, got {delta_t!r}")
    if n_t < 1:
        raise GridError(f"n_t must be >= 1, got {n_t!r}")
    if n_t > MAX_N_T:
        raise GridError(f"n_t must be <= {MAX_N_T} for an addressable grid, got {n_t!r}")
    if not math.isfinite(delta_t * n_t):
        raise GridError(f"the last time n_t delta_t overflows at delta_t = {delta_t!r}")
    return delta_t * np.arange(1, n_t + 1, dtype=float)


def _check_uniform(times: np.ndarray) -> float:
    """Validate a strictly increasing uniform grid; return its spacing."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise GridError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise GridError("times must be finite")
    if t.size == 1:
        return float(t[0]) if t[0] > 0 else 1.0
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise GridError("times must be strictly increasing")
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(dt[0], 1.0):
        raise GridError("times must be uniformly spaced")
    return float(dt[0])


@dataclass(frozen=True)
class BlochTrajectory:
    """Bloch components, exact or finite-shot averages, on a uniform time grid.

    Axes that were never measured stay ``None``.  Every component is
    bounded by 1 in magnitude (an empirical mean of +-1 values cannot
    leave the interval).  The record holds only the data: grid spacing
    and length follow from ``times``, and the probe, shot budget and
    seed that made it stay with the caller.
    """

    times: np.ndarray
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        _check_uniform(t)
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        if self.x is None and self.y is None and self.z is None:
            raise ValidationError("trajectory must carry at least one axis")
        for name in ("x", "y", "z"):
            comp = getattr(self, name)
            if comp is None:
                continue
            comp = np.asarray(comp, dtype=float)
            if comp.shape != t.shape:
                raise ValidationError(f"axis {name} has shape {comp.shape}, times {t.shape}")
            if not np.max(np.abs(comp)) <= 1.0 + 1e-9:  # NaN fails too
                raise ValidationError(f"axis {name} leaves the Bloch ball")
            comp = comp.copy()
            comp.setflags(write=False)
            object.__setattr__(self, name, comp)

    def axes(self) -> tuple[str, ...]:
        return tuple(a for a in ("x", "y", "z") if getattr(self, a) is not None)


def ideal_bloch_trajectory(
    rho: DensityMatrix,
    cfg: ProbeConfig,
    times: np.ndarray,
    axes: tuple[str, ...] = ("x", "y", "z"),
) -> BlochTrajectory:
    """Exact Bloch components in ``axes`` at ``times``, by `bloch_components`;
    the others stay ``None``."""
    t = np.asarray(times, dtype=float)
    _check_uniform(t)
    if not set(axes) <= {"x", "y", "z"}:
        raise ValidationError(f"axes must be a subset of x, y, z; got {axes!r}")
    diag = rho.diagonal()
    sup = rho.superdiagonal()
    # The top level's phase at the last time bounds every phase below, and
    # cos of an overflowed phase is NaN.
    if not math.isfinite(2.0 * cfg.g * math.sqrt(diag.size - 1) * float(t[-1])):
        raise ValidationError(
            f"the phase 2 g sqrt({diag.size - 1}) t overflows at g = {cfg.g!r}, t = {t[-1]!r}"
        )
    comps = bloch_components(
        diag if "z" in axes else None, sup if {"x", "y"} & set(axes) else None, cfg.g, t
    )
    return BlochTrajectory(times=t, **{a: c for a, c in zip("xyz", comps) if a in axes})


def bloch_components(
    populations: Optional[np.ndarray], superdiagonal: Optional[np.ndarray], g: float, times
) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """The forward model: the module's closed forms at ``times`` as ``(x, y,
    z)``, z in its unit-trace form ``p_0 + sum_n p_n cos(2 Omega_n t)``; a
    component whose input is None comes back None.  A ``(..., L)`` population
    stack gives ``(..., N)`` z records and skips a level only where every
    record's element is below `_ELEMENT_FLOOR`: each row is bit for bit its
    one-record result unless its own element alone is below it.

    The trig rows come from the one-grid memo `_trig_rows`, read-only and
    each computed on first use; the outputs are new arrays, bit for bit
    those of computing every row afresh."""
    t = np.asarray(times, dtype=float)
    rows = _trig_rows(g, t)
    x = y = z = None
    if populations is not None:
        p = np.asarray(populations)
        # Summed in place, so integer populations start out as floats.
        z = np.repeat(p[..., :1], t.size, axis=-1).astype(np.result_type(p, t), copy=False)
        for n in range(1, p.shape[-1]):
            if not np.all(np.abs(p[..., n]) < _ELEMENT_FLOOR):
                z += p[..., n, None] * _trig_row(rows, "cos", 2.0 * (g * math.sqrt(n)), t)
    if superdiagonal is not None:
        ge = np.zeros(t.shape, dtype=complex)
        for n, s in enumerate(np.asarray(superdiagonal)):
            if not abs(s) < _ELEMENT_FLOOR:
                term = s * _trig_row(rows, "cos", g * math.sqrt(n), t)
                term *= _trig_row(rows, "sin", g * math.sqrt(n + 1), t)
                ge += term
        ge = 1j * ge
        x, y = 2.0 * ge.real, -2.0 * ge.imag
    return x, y, z


#: `bloch_components`' trig rows on one grid: ``[key, {(fn, factor bits): row}]``,
#: the key being the exact bits of ``g`` and of the times.  One entry: a new key
#: replaces it, so the memo holds the rows of one ``(g, times)`` grid.
_ROWS: list = [None, {}]


def _trig_rows(g: float, t: np.ndarray) -> dict:
    """The memo's rows for ``(g, t)``, emptied first if it holds another grid.
    Bits, not values, are compared: ``g = -0.0`` gives ``sin`` rows of the
    other sign than ``g = 0.0``."""
    key = (np.float64(g).tobytes(), t.shape, t.tobytes())
    if _ROWS[0] != key:
        _ROWS[:] = [key, {}]
    return _ROWS[1]


def _trig_row(rows: dict, fn: str, factor: float, t: np.ndarray) -> np.ndarray:
    """``np.<fn>(factor * t)``, read-only, computed on first use.  Rows are keyed
    by ``fn`` and the exact bits of ``factor``, so equal evaluations share one:
    the z row ``cos(2 Omega_n t)`` of level n is the x/y row ``cos(Omega_{4n} t)``,
    ``2 (g sqrt(n))`` and ``g sqrt(4 n)`` being the same float."""
    key = (fn, np.float64(factor).tobytes())
    row = rows.get(key)
    if row is None:
        row = getattr(np, fn)(factor * t)
        row.setflags(write=False)
        rows[key] = row
    return row
