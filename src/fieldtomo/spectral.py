"""Discrete spectra of Bloch trajectories and narrow-band peak areas.

Transform convention (fixed; the peak normalization depends on it):

    value_m = (1/N_t) sum_{k=1..N_t} s_k exp(-i omega_m t_k),   t_k = k dt

with signed omega_m = 2 pi m / (N_t dt), stored in ascending order.  A
unit tone ``exp(i omega_0 t)`` then carries area exactly 1 at omega_0.

Because the record starts at t = dt rather than spanning the tone
symmetrically, a tone sitting between bins leaks with a large odd-phase
component: the plain window sum recovers only ``cos(pi delta)`` of the
amplitude (delta = sub-bin offset).  `read_windows`, the single window
reader, therefore re-references every bin to the record midpoint, where
the partial sums are real, and divides by the exact rectangular-window
response.  It reads any number of windows in one array pass; an
isolated tone is recovered to machine precision at any sub-bin offset,
and what remains is cross-peak leakage.  `window_gains` gives that
leakage in closed form, so the reconstruction layer removes it with one
linear solve.  `integrate_peak`, `cosine_pair` and `sine_pair` are thin
views of `read_windows`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .exceptions import GridError, ResolvabilityError, ValidationError

__all__ = [
    "Spectrum",
    "PeakEstimate",
    "CombTone",
    "dft",
    "read_windows",
    "window_gains",
    "integrate_peak",
    "cosine_pair",
    "sine_pair",
    "noise_floor",
    "comb_frequencies",
    "rabi_comb",
    "validate_windows",
    "max_half_width",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

DEFAULT_HALF_WIDTH = 4


@dataclass(frozen=True)
class Spectrum:
    """One-axis spectrum on the signed, ascending frequency grid."""

    freqs: np.ndarray
    values: np.ndarray
    axis: str
    delta_t: float

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if f.ndim != 1 or f.shape != v.shape or f.size < 2:
            raise ValidationError("freqs/values must be matching 1-D arrays")
        if np.any(np.diff(f) <= 0):
            raise ValidationError("freqs must be strictly ascending")
        f, v = f.copy(), v.copy()
        f.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "values", v)

    @property
    def n_t(self) -> int:
        return self.freqs.size

    @property
    def d_omega(self) -> float:
        return 2.0 * math.pi / (self.n_t * self.delta_t)

    def hermitian_defect(self) -> float:
        """max |F(omega) - conj(F(-omega))| over paired bins."""
        n = self.n_t
        pos = self.values[n // 2 + 1 :]
        neg = self.values[1 : n // 2][::-1] if n % 2 == 0 else self.values[: n // 2][::-1]
        defect = float(np.max(np.abs(pos - neg.conj()))) if pos.size else 0.0
        return max(defect, abs(self.values[n // 2].imag))

    def parseval_defect(self, signal: np.ndarray) -> float:
        """|sum |F|^2 - (1/N) sum |s|^2| for the generating signal."""
        lhs = float(np.sum(np.abs(self.values) ** 2))
        rhs = float(np.mean(np.abs(np.asarray(signal)) ** 2))
        return abs(lhs - rhs)


@dataclass(frozen=True)
class PeakEstimate:
    center: float
    half_width: int
    area: complex
    snr: Optional[float] = None
    label: Optional[str] = None
    family: Optional[str] = None


@dataclass(frozen=True)
class CombTone:
    label: str
    family: str  # "z" | "xy_sum" | "xy_diff"
    n: int
    center: float


def dft(signal: np.ndarray, times: np.ndarray, axis: str = "z") -> Spectrum:
    """Spectrum of a trajectory component on the canonical t_k = k dt grid."""
    s = np.asarray(signal, dtype=float)
    t = np.asarray(times, dtype=float)
    if s.ndim != 1 or s.shape != t.shape:
        raise ValidationError("signal and times must be matching 1-D arrays")
    n = s.size
    if n < 2:
        raise GridError("need at least 2 samples")
    dt_steps = np.diff(t)
    dt = float(dt_steps[0])
    if dt <= 0 or np.max(np.abs(dt_steps - dt)) > 1e-9 * max(dt, 1.0):
        raise GridError("times must be uniform and increasing")
    if abs(t[0] - dt) > 1e-9 * dt:
        raise GridError("grid must start at t = delta_t (no t = 0 sample)")
    om = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    # fft sums from the first stored sample; shift phases to t_k = k dt.
    vals = np.fft.fft(s) / n * np.exp(-1j * om * dt)
    return Spectrum(
        freqs=np.fft.fftshift(om),
        values=np.fft.fftshift(vals),
        axis=axis,
        delta_t=dt,
    )


def _dirichlet_sum(u, half_width: int, n: int) -> np.ndarray:
    """Window response ``sum_{|j| <= half_width} D(u - j)`` at bin offsets ``u``, with
    the Dirichlet kernel ``D(v) = sin(pi v) / (n sin(pi v / n))``, ``D(0) = 1``.
    The only copy of the window response."""
    off = np.asarray(u, dtype=float)[..., None] - np.arange(-half_width, half_width + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(
            off == 0.0, 1.0, np.sin(np.pi * off) / (n * np.sin(np.pi * off / n))
        )
    return np.sum(term, axis=-1)


def _window_bins(spec: Spectrum, centers, half_width: int):
    """Bin positions ``x``, rounded bins ``m_c`` and window responses of
    ``centers``; raises if a window runs off the grid or degenerates."""
    if half_width < 0:
        raise ValidationError("half_width must be >= 0")
    n = spec.n_t
    x = np.asarray(centers, dtype=float) / spec.d_omega
    m_c = np.rint(x)
    off_grid = ~((m_c - half_width >= -(n // 2)) & (m_c + half_width < n - n // 2))
    if np.any(off_grid):
        raise GridError(
            f"window at bin {np.asarray(m_c)[off_grid].flat[0]:.0f} +- {half_width} "
            "outside the frequency grid"
        )
    resp = _dirichlet_sum(x - m_c, half_width, n)
    if np.any(np.abs(resp) < 0.1):  # cannot happen for |delta| <= 1/2; guards misuse
        raise ValidationError("degenerate window response")
    return x, m_c, resp


def read_windows(
    spec: Spectrum, centers, half_width: int = DEFAULT_HALF_WIDTH
) -> np.ndarray:
    """Complex amplitudes of the tones nearest each of ``centers`` (signed omega).

    For every center, sums ``2 half_width + 1`` bins around the rounded
    center after rotating each bin to the record midpoint
    ``t = (N+1) dt / 2`` (which cancels the edge-referenced leakage
    phases), then normalizes by the exact window (Dirichlet) response at
    the actual sub-bin offset.  ``centers`` may have any shape; the
    result has the same shape.  Raises `GridError` if any window runs off
    the grid.
    """
    n = spec.n_t
    x, m_c, resp = _window_bins(spec, centers, half_width)
    delta = (x - m_c)[..., None]
    j = np.arange(-half_width, half_width + 1)
    idx = m_c[..., None].astype(np.intp) + (j + n // 2)
    phase = np.exp(1j * np.pi * (j - delta) * (n + 1) / n)
    return np.sum(spec.values[idx] * phase, axis=-1) / resp


def window_gains(
    spec: Spectrum, centers, tones, half_width: int = DEFAULT_HALF_WIDTH
) -> np.ndarray:
    """What `read_windows` returns at ``centers[k]`` for a unit tone
    ``exp(i tones[m] t)``, as a complex ``(len(centers), len(tones))`` matrix.

    Closed form, no DFT: with ``x = center / d_omega``, ``x' = tone /
    d_omega`` and ``m_c = rint(x)``, the gain is
    ``exp(i pi (x' - x) (N+1) / N) sum_j D(x' - m_c - j) / sum_j D(x - m_c - j)``.
    It is 1 for a tone on its own center and the cross-tone leakage
    otherwise, so reads of a comb are a linear map of its amplitudes.
    """
    n = spec.n_t
    x, m_c, resp = _window_bins(spec, np.ravel(centers), half_width)
    x_tone = np.ravel(np.asarray(tones, dtype=float)) / spec.d_omega
    phase = np.exp(1j * np.pi * (x_tone - x[:, None]) * (n + 1) / n)
    return phase * _dirichlet_sum(x_tone - m_c[:, None], half_width, n) / resp[:, None]


def integrate_peak(
    spec: Spectrum,
    center: float,
    half_width: int = DEFAULT_HALF_WIDTH,
    snr: Optional[float] = None,
    label: Optional[str] = None,
    family: Optional[str] = None,
) -> PeakEstimate:
    """`read_windows` at one center, wrapped in a `PeakEstimate`."""
    return PeakEstimate(
        center=center,
        half_width=half_width,
        area=complex(read_windows(spec, center, half_width)),
        snr=snr,
        label=label,
        family=family,
    )


def cosine_pair(
    spec: Spectrum, center, half_width: int = DEFAULT_HALF_WIDTH
) -> float | np.ndarray:
    """Amplitude of ``A cos(omega t)``: Re(area(+omega) + area(-omega)).

    ``center`` is a scalar or an array, read in one `read_windows` call;
    a zero center reads the DC window once.
    """
    c = np.asarray(center, dtype=float)
    a_pos, a_neg = read_windows(spec, np.stack([c, -c]), half_width)
    out = np.where(c == 0.0, a_pos.real, (a_pos + a_neg).real)
    return out if out.ndim else float(out)


def sine_pair(
    spec: Spectrum, center, half_width: int = DEFAULT_HALF_WIDTH
) -> float | np.ndarray:
    """Amplitude A of ``-A sin(omega t)``: Im(area(+omega) - area(-omega)).

    ``center`` is a scalar or an array of positive frequencies.
    """
    c = np.asarray(center, dtype=float)
    if np.any(c <= 0.0):
        raise ValidationError("sine_pair needs a positive center frequency")
    a_pos, a_neg = read_windows(spec, np.stack([c, -c]), half_width)
    out = (a_pos - a_neg).imag
    return out if out.ndim else float(out)


def noise_floor(
    spec: Spectrum, exclude: Sequence[tuple[float, int]] = ()
) -> float:
    """RMS |value| over bins outside every exclusion window.

    ``exclude`` holds ``(center, half_width)`` pairs; windows around
    +center and -center must be listed individually.  At least 25% of
    the bins must survive, otherwise the floor is meaningless.
    """
    n = spec.n_t
    dw = spec.d_omega
    free = np.ones(n, dtype=bool)
    for center, hw in exclude:
        m_c = int(round(center / dw))
        lo = max(0, m_c - hw + n // 2)
        hi = min(n, m_c + hw + 1 + n // 2)
        free[lo:hi] = False
    if np.count_nonzero(free) < 0.25 * n:
        raise ValidationError(
            "exclusion windows cover more than 75% of the spectrum; "
            "noise floor would be dominated by signal"
        )
    return float(np.sqrt(np.mean(np.abs(spec.values[free]) ** 2)))


def comb_frequencies(g: float, n_max: int) -> dict[str, np.ndarray]:
    """Rabi comb tone positions by family: ``z[n-1] = 2 Omega_n``,
    ``sum[n] = Omega_{n+1} + Omega_n`` and ``diff[n] = Omega_{n+1} - Omega_n``
    (``diff[0] = sum[0] = Omega_1``: the n = 0 sidebands coincide)."""
    if not g > 0:
        raise ValidationError("coupling g must be positive")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    root = np.sqrt(np.arange(n_max + 1, dtype=float))
    return {
        "z": 2.0 * g * root[1:],
        "sum": g * (root[1:] + root[:-1]),
        "diff": g * (root[1:] - root[:-1]),
    }


def rabi_comb(g: float, n_max: int) -> list[CombTone]:
    """Expected tone positions for occupation up to ``n_max``.

    Three families: ``z`` at 2 Omega_n (populations), ``xy_sum`` at
    Omega_{n+1} + Omega_n and ``xy_diff`` at Omega_{n+1} - Omega_n
    (coherences rho_{n,n+1}).  The n = 0 coherence appears only once, at
    Omega_1, in the sum family (its two sidebands coincide there).  The
    DC bin is not listed: it belongs exclusively to rho_00.
    """
    freqs = comb_frequencies(g, n_max)
    tones = [
        CombTone(f"rho[{n},{n}]", "z", n, freqs["z"][n - 1]) for n in range(1, n_max + 1)
    ]
    tones += [
        CombTone(f"rho[{n},{n + 1}]", "xy_sum", n, freqs["sum"][n]) for n in range(n_max)
    ]
    tones += [
        CombTone(f"rho[{n},{n + 1}]", "xy_diff", n, freqs["diff"][n])
        for n in range(1, n_max)
    ]
    return tones


def _rounded_bins(centers: Sequence[float], dw: float) -> list[int]:
    return [int(round(c / dw)) for c in centers]


def validate_windows(
    centers: Sequence[tuple[str, float]],
    half_width: int,
    spec: Spectrum,
) -> None:
    """Audit that labeled windows fit the grid and do not collide.

    Windows of ``2 half_width + 1`` bins are disjoint iff their rounded
    centers differ by more than ``2 half_width`` bins (i.e. spacing
    exceeds ``2 half_width d_omega``).  Raises `ResolvabilityError`
    naming every colliding pair, or `GridError` if a window runs off the
    grid (Nyquist).
    """
    dw = spec.d_omega
    bins = _rounded_bins([c for _, c in centers], dw)
    half_n = spec.n_t // 2
    for (label, _), m in zip(centers, bins):
        if m - half_width < -half_n or m + half_width > half_n - 1:
            raise GridError(
                f"window for {label} (bin {m} +- {half_width}) exceeds the "
                f"frequency grid; raise n_t or shrink delta_t"
            )
    close = np.abs(np.subtract.outer(bins, bins)) <= 2 * half_width
    pairs = zip(*np.nonzero(np.triu(close, 1)))
    clashes = {f"{centers[i][0]} / {centers[k][0]}" for i, k in pairs}
    if clashes:
        raise ResolvabilityError(
            "integration windows collide (need spacing > "
            f"{2 * half_width} bins): " + "; ".join(sorted(clashes))
        )


def max_half_width(centers: Sequence[float], spec: Spectrum) -> int:
    """Largest half-width for which all listed windows stay disjoint."""
    bins = _rounded_bins(centers, spec.d_omega)
    if len(bins) < 2:
        return DEFAULT_HALF_WIDTH
    gaps = np.abs(np.subtract.outer(bins, bins))[np.triu_indices(len(bins), 1)]
    return max(0, (int(gaps.min()) - 1) // 2)


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "re", "im"])
        for w, v in zip(spec.freqs, spec.values):
            writer.writerow(
                [format(w, ".17g"), format(v.real, ".17g"), format(v.imag, ".17g")]
            )


def read_spectrum_csv(path: str | Path, axis: str = "z") -> Spectrum:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["omega", "re", "im"]:
            raise ValidationError(f"{path}: expected header omega,re,im")
        rows = [row for row in reader if row]
    freqs = np.array([float(r[0]) for r in rows])
    vals = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    if freqs.size < 2:
        raise ValidationError(f"{path}: too few rows")
    dw = freqs[1] - freqs[0]
    dt = 2.0 * math.pi / (dw * freqs.size)
    return Spectrum(freqs=freqs, values=vals, axis=axis, delta_t=dt)
