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
linear solve.  `integrate_peak` is a thin view of `read_windows`.

`comb_frequencies` is the one Rabi comb: every tone position, by family,
as arrays.  Window geometry has one rule, applied everywhere a window is
placed, read, audited or masked: a centre ``omega`` sits at rounded bin
``m = rint(omega / d_omega)``, stored at index ``m + N // 2``, and the
window ``m +- half_width`` fits the grid when
``-(N // 2) <= m - half_width`` and ``m + half_width <= N - N // 2 - 1``.

Records of one grid can be stacked on leading axes: `dft` transforms
``(..., N)`` signals in one FFT, `Spectrum.values` then has shape
``(..., N)`` over the one 1-D ``freqs``, `read_windows` returns
``(..., *centers.shape)`` and `noise_floor` one floor per record.  Each
record's result is bit for bit what the record gives alone: the two
reductions whose summation order numpy would change on a stack (the
window sum and the free-bin mean) run one record at a time.  The grid
checks, window geometry and `window_gains` depend on the grid alone and
run once for the stack.

Every record is real, so ``F(-omega) = conj F(omega)`` and half of each
spectrum repeats the other half.  `write_spectrum_csv` therefore writes a
file one-sided: the ``N // 2 + 1`` rows of ``omega >= 0``, led by the
unpaired Nyquist row of an even ``N``.  `read_spectrum_csv` rebuilds the
negative bins by conjugation.  In memory a `Spectrum` stays two-sided, as
`dft` computes it: ``np.fft.fft`` of a real record is not
conjugate-symmetric bit for bit, so the stored negative bins are what the
window reads use.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .exceptions import GridError, ResolvabilityError, ValidationError
from .probe import _check_uniform

__all__ = [
    "Spectrum",
    "PeakEstimate",
    "dft",
    "read_windows",
    "window_gains",
    "integrate_peak",
    "noise_floor",
    "comb_frequencies",
    "validate_windows",
    "max_half_width",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

DEFAULT_HALF_WIDTH = 4


@dataclass(frozen=True)
class Spectrum:
    """Spectrum of one Bloch component on the signed, ascending frequency grid.

    ``values`` has shape ``(..., N)``: one record, or a stack of records
    that share ``freqs`` and ``delta_t``."""

    freqs: np.ndarray
    values: np.ndarray
    delta_t: float

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if f.ndim != 1 or v.shape[-1:] != f.shape or f.size < 2 or v.size == 0:
            raise ValidationError("values must be (..., N) over 1-D freqs of N >= 2 bins")
        if not np.all(np.isfinite(f)):
            raise ValidationError("freqs must be finite")
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


@dataclass(frozen=True)
class PeakEstimate:
    center: float
    area: complex
    snr: Optional[float] = None
    label: Optional[str] = None
    family: Optional[str] = None


def dft(signal: np.ndarray, times: np.ndarray) -> Spectrum:
    """Spectrum of a trajectory component on the canonical t_k = k dt grid.

    ``signal`` is one record, shape ``(N,)``, or a stack ``(..., N)`` of
    records on the same ``times``, transformed in one FFT.  The spectrum
    does not record which Bloch axis it came from; callers key spectra by
    axis themselves."""
    s = np.asarray(signal, dtype=float)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or s.shape[-1:] != t.shape:
        raise ValidationError("signal must be (..., N) over 1-D times of N samples")
    n = t.size
    if n < 2:
        raise GridError("need at least 2 samples")
    dt = _check_uniform(t)
    if abs(t[0] - dt) > 1e-9 * dt:
        raise GridError("grid must start at t = delta_t (no t = 0 sample)")
    om = np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(n, d=dt))
    # fft sums from the first stored sample; shift phases to t_k = k dt.
    # In place, so a stack of records holds one spectrum-sized temporary.
    vals = np.fft.fftshift(np.fft.fft(s, axis=-1), axes=-1)
    vals /= n
    vals *= np.exp(-1j * om * dt)
    return Spectrum(freqs=om, values=vals, delta_t=dt)


def _dirichlet_sum(u, half_width: int, n: int) -> np.ndarray:
    """Window response ``sum_{|j| <= half_width} D(u - j)`` at bin offsets ``u``, with
    the Dirichlet kernel ``D(v) = sin(pi v) / (n sin(pi v / n))``, ``D(0) = 1``.
    The only copy of the window response."""
    off = np.asarray(u, dtype=float)[..., None] - np.arange(-half_width, half_width + 1)
    # D(v) = 1 - O(v^2) is 1.0 in float64 for |v| < 5e-9, but the quotient
    # loses digits once pi v / n is subnormal: offsets below 1e-200 count as 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(
            np.abs(off) < 1e-200, 1.0, np.sin(np.pi * off) / (n * np.sin(np.pi * off / n))
        )
    return np.sum(term, axis=-1)


def _grid_windows(spec: Spectrum, centers, half_width):
    """Window geometry of ``centers`` (any shape): bin positions
    ``x = omega / d_omega``, rounded bins ``m = rint(x)``, their indices
    ``m + N // 2`` into ``spec.values`` (as floats), and whether each window
    ``m +- half_width`` fits the grid.  The only copy of the fit rule."""
    n = spec.n_t
    x = np.asarray(centers, dtype=float) / spec.d_omega
    m = np.rint(x)
    idx = m + n // 2
    # -(N // 2) <= m - half_width and m + half_width <= N - N // 2 - 1
    return x, m, idx, (idx >= half_width) & (idx <= n - 1 - half_width)


def _window_bins(spec: Spectrum, centers, half_width: int):
    """Bin positions ``x``, rounded bins ``m_c``, their indices and the window
    responses of ``centers``; raises if a window runs off the grid or
    degenerates."""
    if half_width < 0:
        raise ValidationError("half_width must be >= 0")
    x, m_c, idx, fits = _grid_windows(spec, centers, half_width)
    if not np.all(fits):
        raise GridError(
            f"window at bin {m_c[~fits].flat[0]:.0f} +- {half_width} "
            "outside the frequency grid"
        )
    resp = _dirichlet_sum(x - m_c, half_width, spec.n_t)
    if np.any(np.abs(resp) < 0.1):  # cannot happen for |delta| <= 1/2; guards misuse
        raise ValidationError("degenerate window response")
    return x, m_c, idx, resp


def read_windows(
    spec: Spectrum, centers, half_width: int = DEFAULT_HALF_WIDTH
) -> np.ndarray:
    """Complex amplitudes of the tones nearest each of ``centers`` (signed omega).

    For every center, sums ``2 half_width + 1`` bins around the rounded
    center after rotating each bin to the record midpoint
    ``t = (N+1) dt / 2`` (which cancels the edge-referenced leakage
    phases), then normalizes by the exact window (Dirichlet) response at
    the actual sub-bin offset.  ``centers`` may have any shape; the
    result has shape ``(..., *centers.shape)`` for ``(..., N)`` spectrum
    values.  Raises `GridError` if any window runs off the grid.
    """
    n = spec.n_t
    x, m_c, idx, resp = _window_bins(spec, centers, half_width)
    delta = (x - m_c)[..., None]
    j = np.arange(-half_width, half_width + 1)
    bins = idx[..., None].astype(np.intp) + j
    phase = np.exp(1j * np.pi * (j - delta) * (n + 1) / n)
    # One record at a time: gathered from a stack, the bins would not lie
    # record by record in memory and numpy would sum them in another order.
    sums = np.stack([np.sum(v[bins] * phase, axis=-1) for v in spec.values.reshape(-1, n)])
    return sums.reshape(spec.values.shape[:-1] + bins.shape[:-1]) / resp


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
    x, m_c, _, resp = _window_bins(spec, np.ravel(centers), half_width)
    x_tone = np.ravel(np.asarray(tones, dtype=float)) / spec.d_omega
    phase = np.exp(1j * np.pi * (x_tone - x[:, None]) * (n + 1) / n)
    return phase * _dirichlet_sum(x_tone - m_c[:, None], half_width, n) / resp[:, None]


def integrate_peak(
    spec: Spectrum, center: float, half_width: int = DEFAULT_HALF_WIDTH
) -> PeakEstimate:
    """`read_windows` at one center, wrapped in a `PeakEstimate` with no
    SNR, label or family."""
    return PeakEstimate(center, complex(read_windows(spec, center, half_width)))


def noise_floor(
    spec: Spectrum, exclude: Sequence[tuple[float, int]] = ()
) -> float | np.ndarray:
    """RMS |value| over bins outside every exclusion window.

    ``exclude`` holds ``(center, half_width)`` pairs; windows around
    +center and -center must be listed individually.  At least 25% of
    the bins must survive, otherwise the floor is meaningless.  Returns a
    float for one record and one floor per record, shape ``(...)``, for
    ``(..., N)`` values.
    """
    n = spec.n_t
    free = np.ones(n, dtype=bool)
    _, _, idx, _ = _grid_windows(spec, [c for c, _ in exclude], 0)
    for i, (_, hw) in zip(idx.astype(int).tolist(), exclude):
        free[max(i - hw, 0) : max(i + hw + 1, 0)] = False
    if np.count_nonzero(free) < 0.25 * n:
        raise ValidationError(
            "exclusion windows cover more than 75% of the spectrum; "
            "noise floor would be dominated by signal"
        )
    # One record at a time, for the reason given in `read_windows`.
    floors = [np.sqrt(np.mean(np.abs(v[free]) ** 2)) for v in spec.values.reshape(-1, n)]
    if spec.values.ndim == 1:
        return float(floors[0])
    return np.reshape(floors, spec.values.shape[:-1])


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
    _, bins, _, fits = _grid_windows(spec, [c for _, c in centers], half_width)
    for (label, _), m, ok in zip(centers, bins, fits):
        if not ok:
            raise GridError(
                f"window for {label} (bin {int(m)} +- {half_width}) exceeds the "
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
    _, bins, _, _ = _grid_windows(spec, centers, 0)
    if bins.size < 2:
        return DEFAULT_HALF_WIDTH
    gaps = np.abs(np.subtract.outer(bins, bins))[np.triu_indices(bins.size, 1)]
    return max(0, (int(gaps.min()) - 1) // 2)


def _one_sided_rows(n: int) -> np.ndarray:
    """Indices of the rows a spectrum file keeps of an ``n``-bin grid:
    ``omega >= 0`` (index ``n // 2`` on), led by the unpaired Nyquist bin
    (index 0) when ``n`` is even; ``n // 2 + 1`` rows in ascending order.
    The only copy of the row rule."""
    return np.r_[: 1 - n % 2, n // 2 : n]


def _grid_step(freqs: np.ndarray) -> float:
    """``d_omega`` of a signed ``N``-bin grid, from its outermost bin
    ``-(N // 2) d_omega``: a difference of two neighbouring bins would lose
    up to ``N`` ulps."""
    return -freqs[0] / (freqs.size // 2)


def _is_dft_grid(freqs: np.ndarray) -> bool:
    """Whether ``freqs`` is the signed grid of `dft`: omega exactly 0 at
    index ``N // 2`` and every bin ``m d_omega`` (``d_omega > 0``) to 1e-9
    of ``|m| d_omega``."""
    m = np.arange(freqs.size) - freqs.size // 2
    dw = _grid_step(freqs)
    return bool(dw > 0 and np.all(np.abs(freqs - m * dw) <= 1e-9 * np.abs(m) * dw))


def _unfold(freqs: np.ndarray, values: np.ndarray, n: int):
    """The ``n``-bin two-sided grid and values of a file's rows, the
    `_one_sided_rows` of ``n``: each negative bin is the conjugate of its
    positive partner."""
    rows, neg = _one_sided_rows(n), np.arange(1 - n % 2, n // 2)
    pos = 2 * (n // 2) - neg
    f, v = np.empty(n), np.empty(n, dtype=complex)
    f[rows], v[rows] = freqs, values
    f[neg], v[neg] = -f[pos], v[pos].conj()
    return f, v


@functools.lru_cache(maxsize=1)
def _omega_cells(grid: bytes) -> tuple[str, ...]:
    """The ``%.17g,`` omega cells of a spectrum file on the grid whose
    ``tobytes()`` is ``grid``.  One entry, keyed by the grid's exact bytes:
    the spectra of one run share a grid, so it is formatted once per run."""
    freqs = np.frombuffer(grid)
    return tuple(map("%.17g,".__mod__, freqs[_one_sided_rows(freqs.size)].tolist()))


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    """The one-sided spectrum: header ``omega,re,im``, then the ``n_t // 2
    + 1`` rows of ``omega >= 0``, led by the unpaired Nyquist row
    ``omega = -pi / delta_t`` when ``n_t`` is even, as ``%.17g`` floats with
    ``\\r\\n`` line ends, the dialect `read_spectrum_csv` (a `csv.reader`)
    expects.  The negative bins are left out: a real record has
    ``F(-omega) = conj F(omega)``.  One record per file."""
    if spec.values.ndim != 1:
        raise ValidationError("write_spectrum_csv writes one record, not a stack")
    values = spec.values[_one_sided_rows(spec.freqs.size)]
    cols = (_omega_cells(spec.freqs.tobytes()), values.real.tolist(), values.imag.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("omega,re,im\r\n")
        fh.writelines(map("%s%.17g,%.17g\r\n".__mod__, zip(*cols)))


def read_spectrum_csv(path: str | Path) -> Spectrum:
    """The two-sided `Spectrum` of a one-sided spectrum file, as
    `write_spectrum_csv` writes it.

    The negative bins are the conjugates of their positive partners; the
    ``n_t`` is ``2 rows - 1`` when the first row is omega = 0 and
    ``2 rows - 2`` when it is the Nyquist row.  Raises `GridError` if the
    omega rows are not the one-sided rows of a `dft` grid, and
    `ValidationError` naming the file and line of a row that is not three
    numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["omega", "re", "im"]:
            raise ValidationError(f"{path}: expected header omega,re,im")
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {reader.line_num}: expected three numbers "
                    f"omega,re,im, got {row!r}"
                ) from None
    freqs = np.array([r[0] for r in rows])
    vals = np.array([complex(r[1], r[2]) for r in rows])
    if freqs.size < 2:
        raise ValidationError(f"{path}: too few rows")
    if not np.all(np.isfinite(freqs)):
        raise ValidationError(f"{path}: omega must be finite")
    # One-sided of odd, then of even n_t; at most one of the two is a dft grid.
    for n in (2 * freqs.size - 1, 2 * freqs.size - 2):
        f, v = _unfold(freqs, vals, n)
        if _is_dft_grid(f):
            dt = 2.0 * math.pi / (_grid_step(f) * n)
            return Spectrum(freqs=f, values=v, delta_t=dt)
    raise GridError(f"{path}: omega rows are not the one-sided rows of a dft grid")
