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
``(g, delta_t, n_t)`` grid, so a run that simulates and then fits on that
grid computes each row once; a new ``g`` or grid replaces the memo.  Every
grid is ``t_k = k delta_t``, k = 1 .. n_t, and `time_grid` alone builds it.
Each input rule is stated once, here, and the other modules call it:
`_check_grid` for grids, `_check_axes` for axes (both keyed by argument),
`_check_coupling` for the simulator's and the comb's ``g > 0``, and
`_check_phase`, in `bloch_components`, for the phase.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import GridError, ValidationError, _shown
from .fock import DensityMatrix

__all__ = [
    "BlochTrajectory",
    "time_grid",
    "ideal_bloch_trajectory",
    "bloch_components",
]

#: terms with |rho element| below this are skipped when summing the comb
_ELEMENT_FLOOR = 1e-14
#: Largest n_t whose grid of 8-byte floats numpy can address.
MAX_N_T = np.iinfo(np.intp).max // 8


def time_grid(delta_t: float, n_t: int) -> np.ndarray:
    """Stroboscopic grid t_k = k delta_t, k = 1 .. n_t (t = 0 excluded)."""
    _check_grid(delta_t, n_t)
    return delta_t * np.arange(1, int(n_t) + 1, dtype=float)


def _check_grid(delta_t: float, n_t: int) -> None:
    """The one grid rule: ``n_t`` an integer in ``1..MAX_N_T`` (``4096.0`` is
    one) and a step ``delta_t``, a number ``> 0``, whose last time ``n_t
    delta_t`` does not overflow and whose Nyquist frequency ``pi / delta_t``
    and ``d_omega = 2 pi / (n_t delta_t)`` are finite; else `GridError`."""
    # Range first: int() of inf or nan raises.
    if not (isinstance(n_t, numbers.Real) and 1 <= n_t <= MAX_N_T and int(n_t) == n_t):
        raise GridError(f"n_t must be an integer in 1..{MAX_N_T} for an addressable grid, "
                        f"got {_shown(n_t)}", key="n_t")
    # A step up to the largest float, so float() cannot overflow; any other is refused below.
    real = isinstance(delta_t, numbers.Real) and 0 < delta_t <= sys.float_info.max
    step = float(delta_t) if real else 0.0
    t_last = step * int(n_t)
    if t_last == math.inf:
        raise GridError(f"the last time n_t delta_t overflows at delta_t = {_shown(delta_t)}",
                        key="delta_t")
    # At n_t = 1, d_omega = 2 pi / delta_t can overflow where pi / delta_t does not.
    if not (t_last > 0 and math.pi / step < math.inf and 2.0 * math.pi / t_last < math.inf):
        raise GridError(f"delta_t must be > 0 with a finite Nyquist frequency pi / delta_t and "
                        f"a finite d_omega, got {_shown(delta_t)}", key="delta_t")


def _check_axes(axes) -> tuple[str, ...]:
    """The one axes rule, for the simulator and the plan: distinct names among
    x, y, z, at least one, returned as a tuple; else `ValidationError`."""
    names = tuple(axes) if hasattr(axes, "__iter__") else ()
    if not names or any(a not in ("x", "y", "z") for a in names) or len(set(names)) != len(names):
        raise ValidationError(f"axes must be distinct names of x, y, z; got {_shown(axes)}",
                              key="axes")
    return names


def _check_coupling(g: float) -> None:
    """The one coupling rule of the simulator and the comb: ``g`` a finite
    number ``> 0``; else `ValidationError`."""
    if not (isinstance(g, numbers.Real) and 0 < g <= sys.float_info.max):
        raise ValidationError(f"coupling g must be a finite number > 0, got {_shown(g)}")


def _check_phase(g: float, top: int, delta_t: float, n_t: int) -> None:
    """The one phase rule, on a grid `_check_grid` passed: ``g`` a finite real
    number whose phase ``2 |g| sqrt(top) t`` at ``t = n_t delta_t``, which bounds
    every phase of levels up to ``top``, is finite (cos of inf is NaN); else
    `ValidationError`.  Any sign of ``g`` is evaluated."""
    if not (isinstance(g, numbers.Real) and abs(g) <= sys.float_info.max):
        raise ValidationError(f"g must be a real number and finite, got {_shown(g)}")
    t_last = float(delta_t) * int(n_t)
    if not math.isfinite(2.0 * abs(float(g)) * math.sqrt(top) * t_last):
        raise ValidationError(f"the phase 2 g sqrt({top}) t overflows at g = {_shown(g)}, "
                              f"t = {t_last}")


@dataclass(frozen=True)
class BlochTrajectory:
    """Bloch components, exact or finite-shot averages, on ``t_k = k delta_t``.

    Axes that were never measured stay ``None``; the others have one
    length, ``n_t``.  Every component is bounded by 1 in magnitude (an
    empirical mean of +-1 values cannot leave the interval).  The record
    holds only the data and its step: ``times`` is built from them, and the
    probe, shot budget and seed that made it stay with the caller.
    """

    delta_t: float
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None

    def __post_init__(self):
        comps = {a: np.asarray(c, dtype=float) for a in ("x", "y", "z")
                 if (c := getattr(self, a)) is not None}
        if not comps:
            raise ValidationError("trajectory must carry at least one axis")
        shape, *others = {c.shape for c in comps.values()}
        if others or len(shape) != 1:
            shapes = {a: c.shape for a, c in comps.items()}
            raise ValidationError(f"axes must be 1-D records of one length, got shapes {shapes}")
        _check_grid(self.delta_t, shape[0])
        for name, comp in comps.items():
            if not np.max(np.abs(comp)) <= 1.0 + 1e-9:  # NaN fails too
                raise ValidationError(f"axis {name} leaves the Bloch ball")
            comp = comp.copy()
            comp.setflags(write=False)
            object.__setattr__(self, name, comp)

    @property
    def times(self) -> np.ndarray:
        """``time_grid(delta_t, n_t)``, built on each access."""
        return time_grid(self.delta_t, getattr(self, self.axes()[0]).size)

    def axes(self) -> tuple[str, ...]:
        return tuple(a for a in ("x", "y", "z") if getattr(self, a) is not None)


def ideal_bloch_trajectory(
    rho: DensityMatrix,
    g: float,
    delta_t: float,
    n_t: int,
    axes: tuple[str, ...] = ("x", "y", "z"),
) -> BlochTrajectory:
    """Exact Bloch components in ``axes`` at coupling ``g`` on ``t_k = k
    delta_t``, k = 1 .. n_t, by `bloch_components`; the others stay ``None``."""
    _check_coupling(g)
    axes = _check_axes(axes)
    comps = bloch_components(rho.diagonal() if "z" in axes else None,
                             rho.superdiagonal() if {"x", "y"} & set(axes) else None,
                             g, delta_t, n_t)
    return BlochTrajectory(delta_t, **{a: c for a, c in zip("xyz", comps) if a in axes})


def bloch_components(
    populations: Optional[np.ndarray], superdiagonal: Optional[np.ndarray], g: float,
    delta_t: float, n_t: int,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """The forward model: the module's closed forms on the grid ``t_k = k
    delta_t``, k = 1 .. n_t, as ``(x, y, z)``, z in its unit-trace form ``p_0 +
    sum_n p_n cos(2 Omega_n t)``; a component whose input is None comes back
    None.  A ``(..., L)`` population stack gives ``(..., N)`` z records, each
    row bit for bit its one-record result: each record skips the levels whose
    own element is below `_ELEMENT_FLOOR`.

    The trig rows come from the one-grid memo `_trig_rows`, read-only and
    each computed on first use; the outputs are new arrays, bit for bit
    those of computing every row afresh."""
    _check_grid(delta_t, n_t)
    n_t = int(n_t)
    p, sup = (None if a is None else np.asarray(a) for a in (populations, superdiagonal))
    top = max(0 if p is None else p.shape[-1] - 1, 0 if sup is None else sup.size)
    _check_phase(g, top, delta_t, n_t)
    rows = _trig_rows(np.float64(g).tobytes(), np.float64(delta_t).tobytes(), n_t)
    x = y = z = None
    if p is not None:
        # Summed in place, so integer populations start out as floats.
        z = np.repeat(p[..., :1], n_t, axis=-1).astype(np.result_type(p, np.float64), copy=False)
        for n in range(1, p.shape[-1]):
            keep = ~(np.abs(p[..., n, None]) < _ELEMENT_FLOOR)  # each record's own skip
            if np.any(keep):
                row = _trig_row(rows, "cos", 2.0 * (g * math.sqrt(n)), delta_t, n_t)
                np.add(z, p[..., n, None] * row, out=z, where=True if keep.all() else keep)
    if sup is not None:
        ge = np.zeros(n_t, dtype=complex)
        for n, s in enumerate(sup):
            if not abs(s) < _ELEMENT_FLOOR:
                term = s * _trig_row(rows, "cos", g * math.sqrt(n), delta_t, n_t)
                term *= _trig_row(rows, "sin", g * math.sqrt(n + 1), delta_t, n_t)
                ge += term
        ge = 1j * ge
        x, y = 2.0 * ge.real, -2.0 * ge.imag
    return x, y, z


@functools.lru_cache(maxsize=1)
def _trig_rows(g_bits: bytes, delta_t_bits: bytes, n_t: int) -> dict:
    """`bloch_components`' trig rows, ``{(fn, factor bits): row}``, filled by
    `_trig_row`, for the exact bits of ``g`` and ``delta_t`` (``g = -0.0``
    gives ``sin`` rows of the other sign than ``g = 0.0``) on ``n_t`` points.
    One entry: a new coupling or grid replaces the memo."""
    return {}


def _trig_row(rows: dict, fn: str, factor: float, delta_t: float, n_t: int) -> np.ndarray:
    """``np.<fn>(factor * t)`` on the grid ``t = time_grid(delta_t, n_t)`` of
    ``rows``, read-only, computed on first use.  Rows are keyed by ``fn`` and
    the exact bits of ``factor``, so equal evaluations share one: the z row
    ``cos(2 Omega_n t)`` of level n is the x/y row ``cos(Omega_{4n} t)``,
    ``2 (g sqrt(n))`` and ``g sqrt(4 n)`` being the same float."""
    key = (fn, np.float64(factor).tobytes())
    row = rows.get(key)
    if row is None:
        row = getattr(np, fn)(factor * time_grid(delta_t, n_t))
        row.setflags(write=False)
        rows[key] = row
    return row
