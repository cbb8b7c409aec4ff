"""Discrete spectra of Bloch trajectories and narrow-band peak areas.

Transform convention (fixed; the peak normalization depends on it):

    value_m = (1/N_t) sum_{k=1..N_t} s_k exp(-i omega_m t_k),   t_k = k dt

with signed omega_m = 2 pi m / (N_t dt), stored in ascending order.  A
unit tone ``exp(i omega_0 t)`` then carries area exactly 1 at omega_0.
`dft` takes a record and its step ``dt``, the grid being implied; the
grid's ``omega_m`` and phases ``exp(-i omega_m dt)`` depend on ``(N_t, dt)``
alone, so it builds them once per grid and reuses them, read-only.  Both
`dft` and `Spectrum` refuse a grid by the one rule `probe._check_grid`.

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
as arrays.  Window geometry has one rule, `_grid_windows`: a centre
``omega`` sits at rounded bin ``m = rint(omega / d_omega)``, stored at
index ``m + N // 2``, and the window ``m +- half_width`` fits the grid when
``-(N // 2) <= m - half_width`` and ``m + half_width <= N - N // 2 - 1``;
it alone refuses a ``half_width`` that is not an integer ``>= 0``.  `_place`
and `_free_bins` place windows and find the floors' free bins cold; the
estimator plans of `reconstruct` keep their own.

Records of one grid can be stacked on leading axes: `dft` transforms
``(..., N)`` signals in one FFT, `Spectrum.values` then has shape
``(..., N)`` on the one grid, `read_windows` returns
``(..., *centers.shape)`` and `noise_floor` one floor per record, each
bit for bit the record's own: `read_windows` adds every record's bins one
offset at a time, in one order, and `noise_floor` reduces one C-contiguous
gather of the free bins, whose rows numpy sums as it sums one record.

Every record is real, so ``F(-omega) = conj F(omega)`` and half of each
spectrum repeats the other half.  `write_spectrum_csv` therefore writes a
file one-sided: the ``N // 2 + 1`` rows of ``omega >= 0``, led by the
unpaired Nyquist row of an even ``N``; the negative bins are their
conjugates.  In memory a `Spectrum` stays two-sided, as
`dft` computes it: ``np.fft.fft`` of a real record is not
conjugate-symmetric bit for bit, so the stored negative bins are what the
window reads use.

Both CSV files, this one and `measurement.write_trajectory_csv`'s, go
through one writer, `_write_csv`.  CPython prints 17 digits in big-integer
arithmetic, about a microsecond a float, so the writer builds the text of
`_CHUNK_ROWS` rows at a time in numpy instead: `_fast_slots` scales each
value to its 17 digits in double-double arithmetic and lays the bytes out
in fixed slots, NUL where unused, and one ``bytes.translate`` drops the
NULs.  The cells it cannot vouch for (non-finite, outside its decades,
within 1e-6 of a rounding tie) take Python's ``%``, so the bytes are those
of ``"%.17g" % v`` for every cell.  A row's lead cell (``omega`` or ``t``)
depends on the grid alone, so the lead column's slots are built once per
grid.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .exceptions import GridError, ResolvabilityError, ValidationError, _shown
from .probe import MAX_N_T, _check_coupling, _check_grid

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
]

DEFAULT_HALF_WIDTH = 4

#: Rows `_write_csv` formats at a time: enough to spread the kernel's
#: per-call cost, few enough to keep its temporaries small.
_CHUNK_ROWS = 1024
#: Byte slots of one formatted CSV cell (see `_fast_slots`).
_SLOTS = 29
#: `_fast_slots` formats ``10**-_DECADES <= |v| < 10**_DECADES``: there its
#: scale factors, Veltkamp splits and products stay normal and finite.
_DECADES = 280
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_SLOT_ROWS = np.arange(18, dtype=np.uint8)[:, None]
#: Colliding pairs a `validate_windows` refusal names; it counts the rest.
_NAMED_PAIRS = 10


@dataclass(frozen=True)
class Spectrum:
    """Spectrum of one Bloch component on the signed, ascending frequency grid.

    ``values`` has shape ``(..., N)``: one record, or a stack of records on
    the grid of ``N`` and ``delta_t``; read-only owned values are not copied."""

    values: np.ndarray
    delta_t: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 0 or v.shape[-1] < 2 or v.size == 0:
            raise ValidationError("values must be (..., N) with N >= 2 bins")
        v = v if v.flags.owndata and not v.flags.writeable else v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        _check_grid(self.delta_t, self.n_t)

    @property
    def n_t(self) -> int:
        return self.values.shape[-1]

    @property
    def freqs(self) -> np.ndarray:
        """The grid's ``omega_m``, a view of its memo that cannot be made writable."""
        return _dft_grid(self.n_t, self.delta_t)[0].view()

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


def dft(signal: np.ndarray, delta_t: float) -> Spectrum:
    """Spectrum of a trajectory component on the canonical grid ``t_k = k
    delta_t``, k = 1 .. N.

    ``signal`` is one record, shape ``(N,)``, or a stack ``(..., N)`` of
    records on that grid, transformed in one FFT.  The spectrum does not
    record which Bloch axis it came from; callers key spectra by axis
    themselves."""
    s = np.asarray(signal, dtype=float)
    n = s.shape[-1] if s.ndim else 0
    if n < 2:
        raise GridError("need at least 2 samples")
    _check_grid(delta_t, n)
    dt = float(delta_t)
    # fftshift(f) / n * phase: np.roll's copies, into the array `Spectrum` keeps
    f, k = np.fft.fft(s, axis=-1), n // 2
    vals = np.empty_like(f)
    vals[..., :k], vals[..., k:] = f[..., n - k :], f[..., : n - k]
    vals /= n
    vals *= _dft_grid(n, dt)[1]
    vals.setflags(write=False)  # owned and read-only: the `Spectrum` keeps it
    return Spectrum(vals, dt)


@functools.lru_cache(maxsize=1)
def _dft_grid(n: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The ascending frequencies ``om`` of an ``n``-point grid of step ``dt``
    and the phase factors ``exp(-i om dt)`` that shift `np.fft.fft`, which
    sums from the first stored sample, to ``t_k = k dt``.  One entry, both
    arrays read-only: the spectra of one run share a grid, so they are built
    once per run."""
    om = np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(n, d=dt))
    return _read_only(om, np.exp(-1j * om * dt))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each made read-only: what a memo returns is shared."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _one_record(what: str, *specs: Optional[Spectrum]) -> None:
    """Refuse a stack: ``what`` takes one record in each given spectrum."""
    if any(sp is not None and sp.values.ndim != 1 for sp in specs):
        raise ValidationError(f"{what} takes one record, not a stack")


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


def _grid_windows(n: int, d_omega: float, centers, half_width):
    """Window geometry of ``centers`` (any shape) on an ``n``-bin grid of step
    ``d_omega``: bin positions ``x = omega / d_omega``, rounded bins ``m =
    rint(x)``, their indices ``m + n // 2`` into spectrum values (as floats),
    and whether each window ``m +- half_width`` fits.  The only fit rule, and
    the one half-width rule: an integer ``>= 0``.  A centre beyond every
    float bin has ``x = +-inf`` and fits nowhere."""
    if not (isinstance(half_width, numbers.Integral) and half_width >= 0):
        raise ValidationError(f"half_width must be >= 0 and an integer, got {_shown(half_width)}")
    with np.errstate(over="ignore"):
        x = np.asarray(centers, dtype=float) / d_omega
    m = np.rint(x)
    idx = m + n // 2
    # -(N // 2) <= m - half_width and m + half_width <= N - N // 2 - 1
    return x, m, idx, (idx >= half_width) & (idx <= n - 1 - half_width)


def _place(n: int, d_omega: float, centers, half_width: int):
    """Bin positions ``x``, rounded bins ``m_c``, their indices and the window
    responses (at least ``2 / pi``: a window that fits has ``|x - m_c| <= 1/2``)
    of ``centers`` (any shape) on an ``n``-bin grid of step ``d_omega``,
    read-only; raises if a window runs off the grid or `_grid_windows` refuses
    ``half_width``."""
    x, m_c, idx, fits = _grid_windows(n, d_omega, centers, half_width)
    if not np.all(fits):
        raise GridError(f"window at bin {np.extract(~fits, m_c)[0]:.0f} +- {half_width} "
                        "outside the frequency grid")
    return _read_only(x, m_c, idx, _dirichlet_sum(x - m_c, half_width, n))


def read_windows(
    spec: Spectrum, centers, half_width: int = DEFAULT_HALF_WIDTH
) -> np.ndarray:
    """Complex amplitudes of the tones nearest each of ``centers`` (signed omega).

    For every center, sums ``2 half_width + 1`` bins around the rounded
    center after rotating each bin to the record midpoint
    ``t = (N+1) dt / 2`` (which cancels the edge-referenced leakage
    phases), then normalizes by the exact window (Dirichlet) response at
    the actual sub-bin offset.  The rotation splits into one tap
    ``exp(i pi j (N+1)/N)`` per bin offset ``j`` and one factor per center;
    every record of a stack adds its tapped bins in offset order, so it
    reads bit for bit as it does alone.  ``centers`` may have any shape; the
    result has shape ``(..., *centers.shape)`` for ``(..., N)`` spectrum
    values.  Raises `GridError` if any window runs off the grid.
    """
    return _read_placed(spec, _place(spec.n_t, spec.d_omega, centers, half_width), half_width)


def _read_placed(spec: Spectrum, placed, half_width: int) -> np.ndarray:
    """The read kernel: `read_windows` at the `_place` placement ``placed``."""
    n = spec.n_t
    x, m_c, idx, resp = (np.ravel(a) for a in placed)
    j = np.arange(-half_width, half_width + 1)
    taps = np.exp(1j * np.pi * j * (n + 1) / n)
    records = spec.values.reshape(-1, n)
    # (records, taps, centers) block, added over taps in order.  numpy picks a
    # fused or a plain complex multiply by operand layout, so every shape must
    # take the same loop: the tap product loops over centers or taps (a lone
    # tap is exactly 1), and the rotation multiplies flat arrays.
    block = records[:, j[:, None] + idx.astype(np.intp)] * taps[:, None]
    total = block[:, 0]
    for k in range(1, j.size):
        total = total + block[:, k]
    rotation = np.exp(-1j * np.pi * (x - m_c) * (n + 1) / n) / resp
    total = total.ravel() * np.tile(rotation, len(records))
    return total.reshape(spec.values.shape[:-1] + np.shape(placed[0]))


def window_gains(
    spec: Spectrum, centers, tones, half_width: int = DEFAULT_HALF_WIDTH
) -> np.ndarray:
    """What `read_windows` returns at ``centers[k]`` for a unit tone
    ``exp(i tones[m] t)``, as a complex ``(len(centers), len(tones))`` matrix.

    Closed form, no DFT: with ``x = center / d_omega``, ``x' = tone /
    d_omega`` and ``m_c = rint(x)``, the gain is
    ``exp(i pi (x' - x) (N+1) / N) sum_j D(x' - m_c - j) / sum_j D(x - m_c - j)``.
    It is 1 for a tone on its own center and the cross-tone leakage
    otherwise, so reads of a comb are a linear map of its amplitudes.  A
    gain that is not finite (NaN tone, or its bin or phase overflows) is a `GridError`.
    """
    n = spec.n_t
    x, m_c, _, resp = _place(n, spec.d_omega, np.ravel(centers), half_width)
    with np.errstate(over="ignore", invalid="ignore"):
        x_tone = np.ravel(np.asarray(tones, dtype=float)) / spec.d_omega
        phase = np.exp(1j * np.pi * (x_tone - x[:, None]) * (n + 1) / n)
        gains = phase * _dirichlet_sum(x_tone - m_c[:, None], half_width, n) / resp[:, None]
    if not np.all(np.isfinite(gains)):
        raise GridError("window gains must be finite: a tone is NaN or its bin or phase overflows")
    return gains


def integrate_peak(
    spec: Spectrum, center: float, half_width: int = DEFAULT_HALF_WIDTH
) -> PeakEstimate:
    """`read_windows` at one center, wrapped in a `PeakEstimate` with no
    SNR, label or family."""
    _one_record("integrate_peak", spec)
    return PeakEstimate(center, complex(read_windows(spec, center, half_width)))


def noise_floor(spec: Spectrum, centers, half_width: int) -> float | np.ndarray:
    """RMS |value| over bins outside the ``half_width`` windows around
    ``centers`` (signed omega: list +center and -center; off-grid bins are
    skipped).  At least 25% of the bins must survive, otherwise the floor is
    meaningless.  Returns a float for one record and one floor per record,
    shape ``(...)``, for ``(..., N)`` values.  A NaN or infinite centre is a
    `GridError`, as it is where windows are read.
    """
    if not np.all(np.isfinite(centers)):
        raise GridError("noise-floor centres must be finite")
    free = _free_bins(spec.n_t, spec.d_omega, centers, half_width)
    _check_free(free, spec.n_t)
    return _rms(spec.values.take(free, axis=-1))


def _free_bins(n: int, d_omega: float, centers, half_width: int) -> np.ndarray:
    """Ascending indices of the bins of an ``n``-bin grid of step ``d_omega``
    outside every ``half_width`` window around ``centers`` (any shape),
    read-only; a window is cast to bins only if it touches the grid."""
    free = np.ones(n, dtype=bool)
    _, _, idx, _ = _grid_windows(n, d_omega, np.ravel(centers), half_width)
    touch = idx[(idx >= -half_width) & (idx < n + half_width)]  # NaN and inf touch none
    for i in touch.astype(int).tolist():
        free[max(i - half_width, 0) : i + half_width + 1] = False
    return _read_only(np.flatnonzero(free))[0]


def _check_free(free: np.ndarray, n: int) -> None:
    """Refuse a floor on ``free`` bins fewer than 25% of the grid's ``n``."""
    if free.size < 0.25 * n:
        raise ValidationError("exclusion windows cover more than 75% of the spectrum; "
                              "noise floor would be dominated by signal")


def _rms(values: np.ndarray) -> float | np.ndarray:
    """RMS |value| of each row of C-contiguous ``(..., F)`` values, summed as
    each row alone (``v[:, mask]`` is Fortran-ordered: its sums differ)."""
    floors = np.sqrt(np.mean(np.abs(values) ** 2, axis=-1))
    return float(floors) if values.ndim == 1 else floors


def comb_frequencies(g: float, n_max: int) -> dict[str, np.ndarray]:
    """Rabi comb tone positions by family: ``z[n-1] = 2 Omega_n``,
    ``sum[n] = Omega_{n+1} + Omega_n`` and ``diff[n] = Omega_{n+1} - Omega_n``
    (``diff[0] = sum[0] = Omega_1``: the n = 0 sidebands coincide).  The one
    comb rule: ``g`` by `probe._check_coupling`, ``n_max`` an integer ``>= 1``
    that numpy can address and the top tone ``z[-1]``, the largest, finite."""
    _check_coupling(g)
    if not (isinstance(n_max, numbers.Integral) and 1 <= n_max < MAX_N_T):
        raise ValidationError(f"n_max must be an integer in 1..{MAX_N_T - 1}, got {_shown(n_max)}")
    root = np.sqrt(np.arange(n_max + 1, dtype=float))
    with np.errstate(over="ignore"):
        comb = {
            "z": 2.0 * g * root[1:],
            "sum": g * (root[1:] + root[:-1]),
            "diff": g * (root[1:] - root[:-1]),
        }
    if comb["z"][-1] == np.inf:
        raise ValidationError(f"the comb's top tone 2 g sqrt(n_max) overflows at g = {_shown(g)}")
    return comb


def validate_windows(
    centers: Sequence[tuple[str, float]], half_width: int, spec: Spectrum
) -> None:
    """Audit that labeled windows fit the grid and do not collide.

    Windows of ``2 half_width + 1`` bins are disjoint iff their rounded
    centers differ by more than ``2 half_width`` bins (i.e. spacing
    exceeds ``2 half_width d_omega``).  Raises `ResolvabilityError`
    naming every colliding pair, or, beyond `_NAMED_PAIRS` of them, their
    count and the first `_NAMED_PAIRS` met adding the windows in order;
    `GridError` if a window runs off the grid (Nyquist); `ValidationError`
    for a ``half_width`` that is not an integer ``>= 0``.
    """
    _, bins, _, fits = _grid_windows(spec.n_t, spec.d_omega, [c for _, c in centers], half_width)
    for (label, _), m, ok in zip(centers, bins, fits):
        if not ok:
            raise GridError(f"window for {label} (bin {m:.0f} +- {half_width}) exceeds the "
                            "frequency grid; raise n_t or shrink delta_t")
    # In bin order, windows lo[p] .. hi[p] - 1 lie within 2 half_width of window p.
    order = np.argsort(bins, kind="stable")
    ranked = bins[order]
    lo = np.searchsorted(ranked, ranked - 2 * half_width, side="left")
    hi = np.searchsorted(ranked, ranked + 2 * half_width, side="right")
    total = int(np.sum(np.maximum(hi - lo - 1, 0))) // 2
    if not total:
        return
    # Name the first pairs (i, k), i < k, met adding the windows in order: by k,
    # then i.  Walk the windows that have a collider, in window order.
    named, meets = [], np.flatnonzero(hi - lo > 1)
    meets = meets[np.argsort(order[meets])]
    for p, k in zip(meets.tolist(), order[meets].tolist()):
        named += [(i, k) for i in np.sort(order[lo[p] : hi[p]]).tolist() if i < k]
        if len(named) >= _NAMED_PAIRS:
            break
    clashes = {f"{centers[i][0]} / {centers[k][0]}" for i, k in named[:_NAMED_PAIRS]}
    count = f"; {total} pairs, {len(clashes)} named" if total > _NAMED_PAIRS else ""
    raise ResolvabilityError(
        "integration windows collide (need spacing > "
        f"{2 * half_width} bins{count}): " + "; ".join(sorted(clashes))
    )


def max_half_width(centers: Sequence[float], spec: Spectrum) -> int:
    """Largest half-width for which all listed windows stay disjoint."""
    _, bins, _, _ = _grid_windows(spec.n_t, spec.d_omega, centers, 0)
    if not np.all(np.isfinite(bins)):
        raise GridError("window centres must have finite bins")
    if bins.size < 2:
        return DEFAULT_HALF_WIDTH
    return max(0, (int(np.diff(np.sort(bins, axis=None)).min()) - 1) // 2)


def _one_sided_rows(n: int) -> np.ndarray:
    """Indices of the rows a spectrum file keeps of an ``n``-bin grid:
    ``omega >= 0`` (index ``n // 2`` on), led by the unpaired Nyquist bin
    (index 0) when ``n`` is even; ``n // 2 + 1`` rows in ascending order.
    The only copy of the row rule."""
    return np.r_[: 1 - n % 2, n // 2 : n]


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The tables of `_fast_slots`, built on first use and indexed by
    ``X + _DECADES + 2`` for the decimal exponents ``|X| <= _DECADES + 2``.

    ``10**(16 - X)`` as the double-double ``hi + lo`` (``hi`` the nearest
    float, ``lo`` the nearest float to the rest, both from exact integer
    arithmetic), with ``hi`` split into halves ``hh + hl`` of at most 26
    significant bits; the layout bytes of a cell at ``X``: its prefix slots,
    exponent slots, digits before the point and point slot; and, indexed by
    ``v < 10**4``, the four decimal digits of ``v`` packed in a uint32."""
    his, los = [], []
    layout = np.zeros((2 * _DECADES + 5, 16), np.uint8)
    for i, x in enumerate(range(-_DECADES - 2, _DECADES + 3)):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hi_den - hi_num * den) / (den * hi_den))
        if x < -4 or x >= 17:
            exponent = b"e%+03d" % x
            layout[i, 5 : 5 + len(exponent)] = np.frombuffer(exponent, np.uint8)
            layout[i, 10:12] = 1
        elif x < 0:
            layout[i, : 1 - x] = np.frombuffer(b"0.000"[: 1 - x], np.uint8)
            layout[i, 10:12] = 0, 18
        else:
            layout[i, 10:12] = x + 1
    hi, lo = np.array(his), np.array(los)
    c = hi * _SPLIT
    hh = c - (c - hi)
    v = np.arange(10_000)
    quads = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    return hi, hh, hi - hh, lo, layout, quads.astype(np.uint8).view(np.uint32).ravel()


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s = a * 10**(16 - X)`` as its nearest integer ``D`` (int64) and the
    rest ``f = s - D``, ``|f| <= 1/2``.  The two stand for ``s`` to within
    1e-14 when ``s < 1e17`` and 1e-13 when ``s < 1e18``; below 2**52 the
    truncated product may put ``D`` off by one, but it stays below 1e16."""
    hi, hh, hl, lo = (t.take(X + (_DECADES + 2)) for t in _kernel_tables()[:4])
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    # Dekker's TwoProduct: p + e is a * hi exactly, and p an integer once
    # it is >= 2**52.
    e = al * hl - (((p - ah * hh) - al * hh) - ah * hl)
    rest = e + a * lo
    r = np.rint(rest)
    return p.astype(np.int64) + r.astype(np.int64), rest - r


def _fast_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``"%.17g" % v`` for the cells ``v`` of the 1-D float
    array ``x``, one column of `_SLOTS` byte slots per cell, and the mask of
    the cells formatted; the other columns hold garbage.

    It takes the zeros and the finite cells with ``10**-_DECADES <= |v| <
    10**_DECADES`` that are not within 1e-6, in units of the 17th digit, of
    a rounding tie.  It scales
    ``|v|`` by ``10**(16 - X)`` in double-double arithmetic, with ``X`` the
    decimal exponent that puts the scaled value in ``[1e16, 1e17)``, and
    rounds it to the 17-digit integer ``D`` (``D = 1e17`` becomes ``1e16``
    at ``X + 1``).  A cell then fills, NUL where unused:

    * slot 0: ``-`` for a set sign bit;
    * slots 1-5: ``0.`` and ``-X - 1`` zeros when ``-4 <= X < 0``;
    * slots 6-23: the digits of ``D`` without trailing fraction zeros, with
      the point after the first ``X + 1`` digits (``0 <= X < 17``) or after
      the first digit (exponent form), and only when a digit follows it;
    * slots 24-28: ``e``, the exponent's sign and its digits, the hundreds
      only from 100 on (exponent form, ``X < -4`` or ``X >= 17``).
    """
    n = x.size
    a = np.abs(x)
    zero = a == 0
    fast = zero | ((a >= 10.0**-_DECADES) & (a < 10.0**_DECADES))
    a[zero | ~fast] = 1.0  # formatted as 1, then patched or dropped
    X = np.floor(np.log10(a)).astype(np.int64)
    D, f = _scaled(a, X)
    # log10 may put X one decade off near a power of ten: move it and redo
    # those cells.  A scaled value just under 1e16 moves down, as its 17th
    # digit can differ; one just under or over 1e17 rounds to 1e16 at X + 1
    # either way.
    low = (D < 10**16) | ((D == 10**16) & (f < 0))
    high = D > 10**17
    redo = np.flatnonzero(low | high)
    if redo.size:
        X[redo] += high[redo].astype(np.int64) - low[redo]
        D[redo], f[redo] = _scaled(a[redo], X[redo])
    fast &= (D >= 10**16) & (D <= 10**17) & (np.abs(np.abs(f) - 0.5) > 1e-6)
    up = D == 10**17
    D[up] = 10**16
    X += up

    # Digit i of D in row i + 1, between the zero rows 0 and 18.  Every part
    # is below 1e9, where floor(v * 1e-4) is exact: 1e-4 rounds up.
    dig = np.zeros((19, n), np.uint8)
    top = D // 10**8
    low8 = (D - top * 10**8).astype(float)
    top = top.astype(float)
    top5 = np.floor(top * 1e-4)
    dig[1] = np.floor(top5 * 1e-4)
    mid = np.floor(low8 * 1e-4)
    *_, layout, quads = _kernel_tables()
    for row, part in ((2, top5 - 1e4 * dig[1]), (6, top - 1e4 * top5), (10, mid),
                      (14, low8 - 1e4 * mid)):
        dig[row : row + 4] = quads.take(part.astype(np.intp)).view(np.uint8).reshape(n, 4).T
    lay = layout.take(X + (_DECADES + 2), axis=0)
    before, point = lay[:, 10].copy(), lay[:, 11].copy()  # digits before the point; its slot
    # Keep a digit before the point, or one with a nonzero digit at or after it.
    keep = dig[1:18] != 0
    for i in range(15, -1, -1):
        keep[i] |= keep[i + 1]
    keep |= _SLOT_ROWS[:17] < before
    dig[1, zero] = 0
    digits = dig[1:18]
    digits += ord("0")
    digits *= keep

    out = np.empty((_SLOTS, n), np.uint8)
    out[0] = np.signbit(x)
    out[0] *= ord("-")
    out[1:6] = lay[:, :5].T
    # Slot j of the digits holds digit j before the point, the point (when
    # a digit follows it) at j = `point`, and digit j - 1 after it.
    area = out[6:24]
    np.multiply(dig[1:], _SLOT_ROWS < point, out=area)
    area += dig[:18] * (_SLOT_ROWS > point)
    area += ((_SLOT_ROWS == point) & (dig[1:] != 0)) * np.uint8(ord("."))
    out[24:] = lay[:, 5:10].T
    return out, fast


def _cell_slots(x: np.ndarray) -> np.ndarray:
    """``(x.size, _SLOTS)`` byte slots holding ``"%.17g" % v`` for each cell
    ``v`` of the 1-D float array ``x`` once the NULs are dropped: the kernel's
    for the cells `_fast_slots` takes, left-aligned ``%`` text for the rest
    (non-finite values, ``|v|`` outside its decades, near-ties)."""
    out, fast = _fast_slots(x)
    out = out.T
    for i in np.flatnonzero(~fast).tolist():
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


@functools.lru_cache(maxsize=2)
def _lead_slots(lead: bytes) -> np.ndarray:
    """`_cell_slots` of the CSV lead column (``t`` or ``omega``) whose
    ``tobytes()`` is ``lead``, read-only.  A ``reconstruct`` run writes one
    trajectory file and three spectrum files on one grid; two entries keep
    both columns, where one would make them evict each other on every
    run."""
    column = np.frombuffer(lead)
    chunks = range(0, column.size, _CHUNK_ROWS)
    slots = np.concatenate([_cell_slots(column[i : i + _CHUNK_ROWS]) for i in chunks])
    slots.setflags(write=False)
    return slots


def _write_csv(
    path: str | Path, header: str, lead: np.ndarray, columns: Sequence[Optional[np.ndarray]]
) -> None:
    """Write ``header``, then a row per entry of the float column ``lead``:
    its cell, then a field per entry of ``columns``, a float column of the
    same length or None for an empty field; ``,`` between fields, ``\\r\\n``
    after each row and every cell ``%.17g``.  `_CHUNK_ROWS` rows at a time
    fill a buffer of byte slots, each field's `_SLOTS` and two for its
    separator, whose non-NUL bytes are the text."""
    n = lead.size
    measured = [k for k, column in enumerate(columns, 1) if column is not None]
    values = np.column_stack([columns[k - 1] for k in measured])
    lead_slots = _lead_slots(lead.tobytes())
    buf = np.zeros((min(n, _CHUNK_ROWS), 1 + len(columns), _SLOTS + 2), np.uint8)
    buf[:, :-1, _SLOTS] = ord(",")
    buf[:, -1, _SLOTS:] = np.frombuffer(b"\r\n", np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, n, _CHUNK_ROWS):
            rows = buf[: min(n - start, _CHUNK_ROWS)]
            stop = start + len(rows)
            rows[:, 0, :_SLOTS] = lead_slots[start:stop]
            cells = _cell_slots(values[start:stop].ravel())
            rows[:, measured, :_SLOTS] = cells.reshape(len(rows), len(measured), _SLOTS)
            fh.write(rows.tobytes().translate(None, b"\0"))


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    """The one-sided spectrum: header ``omega,re,im``, then the ``n_t // 2
    + 1`` rows of ``omega >= 0``, led by the unpaired Nyquist row
    ``omega = -pi / delta_t`` when ``n_t`` is even, as ``%.17g`` floats with
    ``\\r\\n`` line ends (the `csv` module's default dialect).  The negative
    bins are left out: a real record has ``F(-omega) = conj F(omega)``.  One
    record per file."""
    _one_record("write_spectrum_csv", spec)
    rows = _one_sided_rows(spec.values.size)
    values = spec.values[rows]
    _write_csv(path, "omega,re,im\r\n", spec.freqs[rows], [values.real, values.imag])
