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
expressions.
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
]

#: terms with |rho element| below this are skipped when summing the comb
_ELEMENT_FLOOR = 1e-14


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
            if np.max(np.abs(comp)) > 1.0 + 1e-9:
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
    """Exact Bloch components of the probe at each interrogation time.

    Vectorized over times; only the components in ``axes`` are computed
    (the others stay ``None``).  Density-matrix elements below 1e-14 in
    magnitude contribute nothing and are skipped.
    """
    t = np.asarray(times, dtype=float)
    _check_uniform(t)
    if not set(axes) <= {"x", "y", "z"}:
        raise ValidationError(f"axes must be a subset of x, y, z; got {axes!r}")
    diag = rho.diagonal()
    sup = rho.superdiagonal()
    omega = cfg.g * np.sqrt(np.arange(diag.size, dtype=float))
    comps: dict[str, np.ndarray] = {}

    if "z" in axes:
        z = np.full(t.shape, diag[0])
        for n in range(1, diag.size):
            if abs(diag[n]) < _ELEMENT_FLOOR:
                continue
            z = z + diag[n] * np.cos(2.0 * omega[n] * t)
        # z here is 2 rho_gg - 1 after using cos^2 = (1 + cos 2x)/2 and trace 1.
        comps["z"] = z

    if "x" in axes or "y" in axes:
        ge = np.zeros(t.shape, dtype=complex)
        for n in range(sup.size):
            if abs(sup[n]) < _ELEMENT_FLOOR:
                continue
            ge = ge + sup[n] * np.cos(omega[n] * t) * np.sin(omega[n + 1] * t)
        ge = 1j * ge
        comps.update(x=2.0 * ge.real, y=-2.0 * ge.imag)
    return BlochTrajectory(times=t, **{a: comps[a] for a in axes})
