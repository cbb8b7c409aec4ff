"""Density-matrix diagonal + superdiagonal from Bloch spectra.

Estimator conventions (all verified against closed-form trajectories):

* Populations: ``rho_nn = Re(area(+2 Omega_n) + area(-2 Omega_n))`` on
  the z spectrum, ``rho_00`` from the DC window alone.
* Coherences: with ``S_n = rho_{n, n+1}``, the x / y spectra carry
  ``-Im S_n`` / ``-Re S_n`` sine tones at ``Omega_{n+1} +- Omega_n``, so
  ``Im S_n = Im(area_x(+w) - area_x(-w))`` and likewise ``Re S_n`` from
  y, halved for n = 0 where both sidebands coincide at Omega_1.
* The difference band duplicates the sum band; it is read only where
  its windows stay clear of every other comb window, and the two reads
  are averaged.
* Reported coherence ``coherences[n]`` is the lower element
  ``rho_{n+1, n} = conj(S_n)``; phases chain through the upper one:
  ``phi_{n+1} = phi_n - arg S_n``.

Both estimators read the comb ``spectral.comb_frequencies(g, n_max)``.
`_z_windows` and `_xy_windows` list the windows read on it, with the labels
of `validate_windows` messages and ``peaks.json``; the noise-floor
exclusions are the same windows.  An estimator's plan (its windows, their
validation and placement, the readable difference bands, the leakage
matrices and the floors' free bins) is fixed by the numbers ``(n_t,
delta_t, g, n_max, half_width)``: `_z_plan` and `_xy_plan` build each once
from them and keep the last `_WINDOW_SETS`, read-only.  Their memos are
typed, so a key of another type (``2.0`` for ``2``) is never served a plan
built for a valid one: the comb and half-width rules refuse it as the plan
is built, and a refused plan is not cached.  Each spectrum's windows are
read at the plan's placement by the kernel of `spectral.read_windows`, in
one call, and isolated tones are captured exactly.  The cross-tone leakage
is a small linear map from the unknowns (rho_nn, S_n) to the reads, built
in closed form by `spectral.window_gains` from a model comb that contains
every tone, unread difference-band ones included; one linear solve per
spectrum family removes it.

The z side takes a stack of records: for ``(..., N)`` spectrum values,
`populations_from_z` returns ``(..., n_max + 1)`` estimates from one
gains matrix and one stacked solve, and `residual_floor` and `_z_floor`
one floor per record, each bit for bit its one-record result, so
`reconstruct_from_spectra` and the batched noise sweep share one
estimator.  `reconstruct_from_spectra` reads every window once:
the raw areas of its solves, with the residual floors it measures against
the solved model, are also its ``peaks``.

The floors subtract the simulator's own forward model,
`probe.bloch_components` at the solved raw estimates, so on ideal records
they are rounding, or exactly 0 where the model reproduces the record bit
for bit; a floor of exactly 0 gives a ``None`` SNR.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import EstimationError, GridError, ValidationError, _shown
from .fock import FieldState, fidelity
from .probe import BlochTrajectory, bloch_components
from .spectral import (
    DEFAULT_HALF_WIDTH,
    PeakEstimate,
    Spectrum,
    _free_bins,
    _check_free,
    _grid_windows,
    _one_record,
    _place,
    _read_only,
    _read_placed,
    _rms,
    comb_frequencies,
    dft,
    read_windows,
    validate_windows,
    window_gains,
)

__all__ = [
    "ReconstructionResult",
    "populations_from_z",
    "coherences_from_xy",
    "chain_phases",
    "assemble_pure_state",
    "reconstruct_state",
    "reconstruct_from_spectra",
    "estimate_coupling",
    "peak_report",
    "residual_floor",
]

DEFAULT_N_MAX = 8
DEFAULT_POPULATION_FLOOR = 1e-3
TRACE_TOLERANCE = 0.01
# estimate_coupling: harmonics scored at most, coarse-scan points, coarse
# candidates scored first, candidates per refinement batch, and the bracket
# width it stops at.
_PROBE_HARMONICS = 5
_COARSE_POINTS = 1000
_COARSE_SCORED = 128
_REFINE_POINTS = 64
_G_TOLERANCE = 1e-7
#: Plans `_z_plan` and `_xy_plan` each keep: a fig. 6 sweep builds 6 z plans.
_WINDOW_SETS = 8


@dataclass(frozen=True)
class ReconstructionResult:
    """Everything the protocol can say about the field state.

    ``populations[n]`` estimates rho_nn (clamped at 0; raw values in
    ``diagnostics["raw_populations"]``).  ``coherences[n]`` estimates
    the lower superdiagonal element rho_{n+1, n}; ``None`` when no x/y
    data was supplied.  ``phases`` are amplitude phases chained from the
    first populated level (anchored at 0); entries with
    ``phase_defined[n] = False`` are unconstrained by the data.
    ``partial`` is set when no level reaches the population floor, a
    populated level's phase is undefined, the phase chain breaks, or
    ``|trace_deficit|`` exceeds `TRACE_TOLERANCE`.  ``peaks`` holds the raw
    area of every window read (no leakage removal), z windows first, then
    x and y, each with its SNR against that axis's residual floor.
    """

    populations: np.ndarray
    coherences: Optional[np.ndarray]
    phases: np.ndarray
    phase_defined: np.ndarray
    chain_breaks: list[int]
    trace_deficit: float
    state: Optional[FieldState]
    partial: bool
    warnings: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    fidelity_vs_reference: Optional[float] = None
    peaks: list[PeakEstimate] = field(default_factory=list)


def residual_floor(
    spec: Spectrum, model_signal: np.ndarray, free: np.ndarray
) -> float | np.ndarray:
    """Sampling noise floor: `noise_floor` of the spectrum after subtracting
    the deterministic comb model, at a plan's free bins; one floor per record.

    An off-bin tone leaks a slowly decaying tail across the whole
    spectrum; on a raw spectrum that tail, not the finite-shot noise,
    can dominate the free-bin RMS.  The floor is therefore measured on
    the residual at the free bins, numerically zero for an ideal record.
    """
    _check_free(free, spec.n_t)
    resid = dft(model_signal, spec.delta_t).values.take(free, axis=-1)
    # model - values has the moduli of values - model; it is made in place
    # for one model per record, as the estimators give.
    per_record = resid.shape == spec.values.shape[:-1] + free.shape
    return _rms(np.subtract(resid, spec.values.take(free, axis=-1),
                            out=resid if per_record else None))


class _Window(NamedTuple):
    """One read window of the comb.  ``label`` names the density-matrix
    element it measures, ``family`` its tone family (``z``, ``xy_sum`` or
    ``xy_diff``) and ``name`` the window in `validate_windows` messages."""

    label: str
    family: str
    name: str
    center: float


def _z_windows(freqs: dict[str, np.ndarray]) -> list[_Window]:
    """The z spectrum's windows: DC, then +-2 Omega_n for each n, named
    with a ``+`` or ``-`` tag like the x/y windows."""
    out = [_Window("rho[0,0]", "z", "rho[0,0]", 0.0)]
    for n, c in enumerate(freqs["z"], start=1):
        label = f"rho[{n},{n}]"
        out += [_Window(label, "z", f"{label}+", c), _Window(label, "z", f"{label}-", -c)]
    return out


def _xy_windows(freqs: dict[str, np.ndarray], diff_read: np.ndarray) -> list[_Window]:
    """The x and y spectra's windows: for each n, +-sum[n] and, where
    ``diff_read[n]``, +-diff[n]."""
    out = []
    for n, with_diff in enumerate(diff_read):
        label = f"rho[{n},{n + 1}]"
        bands = [("xy_sum", "", freqs["sum"][n])]
        if with_diff:
            bands.append(("xy_diff", "d", freqs["diff"][n]))
        for family, tag, c in bands:
            out += [
                _Window(label, family, f"{label}{tag}+", c),
                _Window(label, family, f"{label}{tag}-", -c),
            ]
    return out


def populations_from_z(
    spec: Spectrum, g: float, n_max: int, half_width: int = DEFAULT_HALF_WIDTH
) -> np.ndarray:
    """Raw diagonal estimates from the z spectrum (not clamped).

    The ``z`` tones of ``comb_frequencies(g, n_max)`` are read.
    Reads the DC window plus the +-2 Omega_n pairs and solves the leakage
    matrix of those reads: ``L[k, n]`` is read ``k`` of the model
    ``p_0 + sum p_n cos(2 Omega_n t)`` at unit ``p_n``, with
    ``p cos(ct) = (p/2)(e^{ict} + e^{-ict})`` and the DC window read once.
    For ``(..., N)`` spectrum values the result is ``(..., n_max + 1)``: one
    matrix, solved against every record's reads.
    """
    return _solve_z(spec, g, n_max, half_width)[0]


@functools.lru_cache(maxsize=_WINDOW_SETS, typed=True)
def _z_plan(n_t: int, delta_t: float, g: float, n_max: int, half_width: int):
    """The validated `_z_windows` of ``comb_frequencies(g, n_max)`` on the
    grid ``(n_t, delta_t)``, their placement, the leakage matrix and the z
    floor's free bins, read-only.  A refused plan is not cached."""
    grid = Spectrum(np.zeros(n_t, complex), delta_t)  # windows and gains read its grid alone
    windows = tuple(_z_windows(comb_frequencies(g, n_max)))
    validate_windows([(w.name, w.center) for w in windows], half_width, grid)
    tones = np.array([w.center for w in windows])
    fold = np.eye(n_max + 1)[(np.arange(tones.size) + 1) // 2]  # tone k feeds level (k + 1) // 2
    leak = (fold.T @ window_gains(grid, tones, tones, half_width) @ fold).real
    leak[:, 1:] *= 0.5  # p cos(ct) = (p/2)(e^{ict} + e^{-ict}); the DC window reads once
    placed = _place(n_t, grid.d_omega, tones, half_width)
    return windows, placed, *_read_only(leak), _free_bins(n_t, grid.d_omega, tones, half_width)


def _solve_z(
    spec: Spectrum, g: float, n_max: int, half_width: int
) -> tuple[np.ndarray, np.ndarray, tuple[_Window, ...]]:
    """`populations_from_z`, the complex areas it reads, ``(..., 2 n_max
    + 1)``, and their windows: DC, then ``+c_n, -c_n`` for each n."""
    windows, placed, leak, _ = _z_plan(spec.n_t, spec.delta_t, g, n_max, half_width)
    a = _read_placed(spec, placed, half_width)
    # Cosine-pair amplitudes Re(a(+c) + a(-c)); the DC window counts once.
    reads = np.concatenate((a[..., :1].real, (a[..., 1::2] + a[..., 2::2]).real), axis=-1)
    # One right-hand side per solve: LAPACK with many would round differently.
    return np.linalg.solve(leak, reads[..., None])[..., 0], a, windows


def _diff_band_readable(
    freqs: dict[str, np.ndarray], spec: Spectrum, half_width: int
) -> np.ndarray:
    """Which difference-band windows stay clear of every other xy tone.

    Conservative and state-independent: a difference tone is read only
    if its window is disjoint from all sum-band windows, its own mirror
    and all other difference-band windows, whether or not those end up
    readable.  Entry n = 0 is False: it has no separate difference tone.
    """
    _, sums, _, _ = _grid_windows(spec.n_t, spec.d_omega, freqs["sum"], half_width)
    _, diffs, _, fits = _grid_windows(spec.n_t, spec.d_omega, freqs["diff"][1:], half_width)
    with np.errstate(over="ignore", invalid="ignore"):  # a bin beyond any float is unreadable
        gaps = np.abs(diffs[:, None] - np.concatenate((sums, -sums, diffs, -diffs)))
    own = np.arange(diffs.size)
    gaps[own, 2 * sums.size + own] = np.inf  # a window does not clash with itself
    return np.concatenate(([False], fits & np.all(gaps > 2 * half_width, axis=1)))


@functools.lru_cache(maxsize=_WINDOW_SETS, typed=True)
def _xy_plan(n_t: int, delta_t: float, g: float, n_max: int, half_width: int):
    """As `_z_plan`, for the sum and difference tones: the validated
    `_xy_windows`, their placement, the readable difference bands, each
    solve row's level, the leakage matrix, the band average ``avg``, ``avg @
    leak`` and the free bins of every tone, read or not."""
    grid = Spectrum(np.zeros(n_t, complex), delta_t)
    freqs = comb_frequencies(g, n_max)
    readable = _diff_band_readable(freqs, grid, half_width)
    windows = tuple(_xy_windows(freqs, readable))
    validate_windows([(w.name, w.center) for w in windows], half_width, grid)
    centers = np.array([w.center for w in windows])
    # Solve row r is the window pair (2r, 2r + 1), +c and -c, of level owner[r]:
    # each n's sum band, then its difference band where read.
    owner = np.repeat(np.arange(n_max), 1 + readable)

    # A unit S_n drives -sin(sum_n t) - sin(diff_n t) on the axis it feeds,
    # every tone included (the n = 0 pair doubles at Omega_1, and unread
    # difference tones still leak into the read windows);
    # -sin(wt) = (i/2)(e^{iwt} - e^{-iwt}) and a read is Im(a(+c) - a(-c)).
    band = np.concatenate((freqs["sum"], freqs["diff"]))
    tones = np.concatenate((band, -band))
    gains = window_gains(grid, centers, tones, half_width)
    areas = gains @ (0.5j * np.concatenate((np.eye(n_max),) * 2 + (-np.eye(n_max),) * 2))
    leak = (areas[0::2] - areas[1::2]).imag
    # Each readable difference row is averaged with its sum row.
    avg = (owner == np.arange(n_max)[:, None]).astype(float)
    avg /= avg.sum(axis=1, keepdims=True)
    placed = _place(n_t, grid.d_omega, centers, half_width)
    free = _free_bins(n_t, grid.d_omega, tones, half_width)
    return windows, placed, *_read_only(readable, owner, leak, avg, avg @ leak), free


def coherences_from_xy(
    spec_x: Spectrum, spec_y: Spectrum, g: float, n_max: int, half_width: int = DEFAULT_HALF_WIDTH
) -> tuple[np.ndarray, dict]:
    """Superdiagonal (upper convention S_n = rho_{n,n+1}) plus diagnostics.

    The ``sum`` and ``diff`` tones of ``comb_frequencies(g, n_max)`` are read."""
    _one_record("coherences_from_xy", spec_x, spec_y)
    return _solve_xy(spec_x, spec_y, g, n_max, half_width)[:2]


def _solve_xy(
    spec_x: Spectrum, spec_y: Spectrum, g: float, n_max: int, half_width: int
) -> tuple[np.ndarray, dict, tuple[_Window, ...], np.ndarray, np.ndarray, np.ndarray]:
    """`coherences_from_xy`, then the windows it reads, the floors' free bins
    and the complex areas on x and on y, in `_xy_windows` order.  The windows
    and gains are placed on x's grid, so y must share it."""
    grids = [(sp.n_t, sp.delta_t) for sp in (spec_x, spec_y)]
    if grids[0] != grids[1]:
        raise GridError(f"x and y spectra on two grids (n_t, delta_t): {grids[0]} and {grids[1]}")
    plan = _xy_plan(spec_x.n_t, spec_x.delta_t, g, n_max, half_width)
    windows, placed, readable, owner, leak, avg, normal, free = plan
    ax, ay = (_read_placed(sp, placed, half_width) for sp in (spec_x, spec_y))
    # Sine-pair amplitudes Im(a(+c) - a(-c)): Re S_n from y, Im S_n from x,
    # set part by part (no arithmetic on them).
    reads = np.empty(owner.size, dtype=complex)
    reads.real, reads.imag = (ay[0::2] - ay[1::2]).imag, (ax[0::2] - ax[1::2]).imag
    est = np.linalg.solve(normal, avg @ reads)

    # Band residuals once the modelled leakage of every tone is taken out.
    resid = reads - leak @ est
    disagreement = [None] * avg.shape[0]
    for r in np.flatnonzero(owner[1:] == owner[:-1]):
        disagreement[owner[r]] = float(abs(resid[r] - resid[r + 1]))
    diagnostics = {
        "diff_band_read": readable.tolist(),
        "band_disagreement": disagreement,
    }
    return est, diagnostics, windows, free, ax, ay


def _check_floor(population_floor: float) -> float:
    """The one population-floor rule: a finite number ``>= 0``, returned as
    given; else `ValidationError` keyed ``population_floor``."""
    if not (isinstance(population_floor, numbers.Real)
            and 0 <= population_floor <= sys.float_info.max):
        raise ValidationError(f"population_floor must be a finite number >= 0, got "
                              f"{_shown(population_floor)}", key="population_floor")
    return population_floor


def chain_phases(
    populations: np.ndarray,
    coherences: np.ndarray,
    population_floor: float = DEFAULT_POPULATION_FLOOR,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Chain amplitude phases from the superdiagonal (upper convention).

    Returns ``(phases, defined, breaks)``.  Link ``S_n`` chains
    ``phi_{n+1} = phi_n - arg S_n``; the first populated level is anchored
    at phase 0.  A zero link makes a zero phase step: `reconstruct_from_spectra`
    passes links within its noise tolerance as 0, and none without x/y data.
    A phase is ``defined`` only if links between populated levels chain it
    to the anchor.  A break is any unpopulated level with population on
    both sides — a diagnostic, not an error.
    """
    pops = np.asarray(populations, dtype=float)
    populated = pops >= _check_floor(population_floor)
    n_levels = pops.size
    phases = np.zeros(n_levels)
    defined = np.zeros(n_levels, dtype=bool)
    # Values always chain (a level below the floor still carries its best
    # phase guess, weighted by a near-zero amplitude at assembly time);
    # the floor only decides which phases count as data-determined.
    for n in range(min(n_levels - 1, len(coherences))):
        phases[n + 1] = phases[n] - float(np.angle(coherences[n]))
    if not populated.any():
        return phases, defined, []
    anchor = int(np.argmax(populated))
    phases -= phases[anchor]  # gauge: first populated level at phase 0
    defined[anchor] = True
    for n in range(anchor, min(n_levels - 1, len(coherences))):
        defined[n + 1] = defined[n] and populated[n] and populated[n + 1]
    last = int(np.max(np.nonzero(populated)))
    breaks = [n for n in range(anchor + 1, last) if not populated[n]]
    return phases, defined, breaks


def assemble_pure_state(populations: np.ndarray, phases: np.ndarray) -> FieldState:
    """Best pure-state guess: sqrt of clamped populations with chained phases."""
    pops = np.clip(np.asarray(populations, dtype=float), 0.0, None)
    amps = np.sqrt(pops) * np.exp(1j * np.asarray(phases, dtype=float))
    return FieldState(amps).normalize()


def _z_floor(
    spec: Spectrum, populations: np.ndarray, g: float, n_max: int, half_width: int
) -> float | np.ndarray:
    """`residual_floor` of a z spectrum against the z record that
    `bloch_components` gives ``populations`` at coupling ``g`` (``(..., n_max +
    1)`` for ``(..., N)`` spectrum values), at the free bins of the solve's z plan."""
    free = _z_plan(spec.n_t, spec.delta_t, g, n_max, half_width)[-1]
    _, _, model = bloch_components(populations, None, g, spec.delta_t, spec.n_t)
    return residual_floor(spec, model, free)


def _peaks(
    windows: list[_Window], areas: np.ndarray, floor: Optional[float], half_width: int
) -> list[PeakEstimate]:
    """One `PeakEstimate` per window, with SNR ``|area| / (floor sqrt(2 hw + 1))``,
    None without a positive floor or where it is not finite."""
    width = math.sqrt(2 * half_width + 1)

    def snr(area: complex) -> Optional[float]:
        val = abs(area) / (floor * width) if floor else math.inf
        return val if math.isfinite(val) else None

    return [PeakEstimate(w.center, a, snr(a), w.label, w.family)
            for w, a in zip(windows, areas.tolist())]


def _safe_floor(floor, *args) -> Optional[float]:
    """``floor(*args)``, or None when too few bins are free to measure it."""
    try:
        return floor(*args)
    except ValidationError:
        return None


def reconstruct_from_spectra(
    g: float,
    spec_z: Spectrum,
    spec_x: Optional[Spectrum] = None,
    spec_y: Optional[Spectrum] = None,
    n_max: int = DEFAULT_N_MAX,
    half_width: int = DEFAULT_HALF_WIDTH,
    population_floor: float = DEFAULT_POPULATION_FLOOR,
    reference: Optional[FieldState] = None,
) -> ReconstructionResult:
    """Full estimate from precomputed spectra.  ``spec_z`` is mandatory;
    coherences and phases require both ``spec_x`` and ``spec_y``."""
    if (spec_x is None) != (spec_y is None):
        raise ValidationError("x and y spectra must be supplied together")
    _one_record("reconstruct_from_spectra", spec_z, spec_x, spec_y)
    _check_floor(population_floor)
    warnings_out: list[str] = []
    diagnostics: dict = {}

    raw, z_areas, z_windows = _solve_z(spec_z, g, n_max, half_width)
    pops = np.clip(raw, 0.0, None)
    diagnostics["raw_populations"] = raw.tolist()
    if np.any(raw < -1e-6):
        warnings_out.append(
            f"negative population estimates clamped: min raw {float(np.min(raw)):.3e}"
        )
    trace_deficit = float(1.0 - np.sum(pops))
    if abs(trace_deficit) > TRACE_TOLERANCE:
        warnings_out.append(
            f"recovered trace deviates from 1 by {trace_deficit:+.3e}; "
            "suspect cutoff or window trouble"
        )

    xi_z = diagnostics["noise_floor_z"] = _safe_floor(_z_floor, spec_z, raw, g, n_max, half_width)
    peaks = _peaks(z_windows, z_areas, xi_z, half_width)

    coherences = s_upper = None
    links = np.zeros(0, dtype=complex)
    if spec_x is not None and spec_y is not None:
        s_upper, coh_diag, windows, free, *xy_areas = _solve_xy(
            spec_x, spec_y, g, n_max, half_width)
        diagnostics.update(coh_diag)
        models = bloch_components(None, s_upper, g, spec_x.delta_t, spec_x.n_t)
        xi_x, xi_y = (_safe_floor(residual_floor, sp, model, free)
                      for sp, model in zip((spec_x, spec_y), models))
        diagnostics.update(noise_floor_x=xi_x, noise_floor_y=xi_y)
        for areas, xi in zip(xy_areas, (xi_x, xi_y)):
            peaks += _peaks(windows, areas, xi, half_width)
        xi_xy = None if xi_x is None or xi_y is None else math.hypot(xi_x, xi_y)
        # One tolerance for the checks on S itself.  Its 1e-6 floor matters
        # on ideal records, where xi_xy (~1e-16) is no larger than rounding.
        tol = max(5.0 * (xi_xy or 0.0), 1e-6)
        # A band difference is the difference of two independent complex
        # reads, each combining the x and y sine pairs over 2 hw + 1 bins,
        # so its RMS is sigma_d = 2 sqrt(2 hw + 1) xi_xy; |d| > 3 sigma_d
        # is a false alarm with probability e^-9 per band.
        sigma_d = 2.0 * math.sqrt(2 * half_width + 1) * (xi_xy or 0.0)
        band_tol = max(3.0 * sigma_d, 1e-6)
        for n, d in enumerate(coh_diag["band_disagreement"]):
            if d is not None and d > band_tol:
                warnings_out.append(
                    f"sum/difference bands disagree for rho[{n},{n + 1}]: "
                    f"|delta| = {d:.3e} > {band_tol:.3e}"
                )
        for n in range(s_upper.size):
            bound = math.sqrt(max(pops[n] * pops[n + 1], 0.0))
            if abs(s_upper[n]) > bound + tol:
                warnings_out.append(
                    f"|rho[{n},{n + 1}]| = {abs(s_upper[n]):.4f} exceeds "
                    f"sqrt(rho_nn rho_mm) = {bound:.4f}"
                )
        coherences = np.conj(s_upper)  # reported as rho_{n+1, n}
        # A link within the tolerance is empty: its angle is noise, so it
        # makes a zero phase step.
        links = np.where(np.abs(s_upper) <= tol, 0.0, s_upper)

    phases, defined, breaks = chain_phases(pops, links, population_floor)

    state = None
    # Weight beyond n_max (or lost to window trouble) leaves the estimate
    # incomplete even when every modelled phase is defined.
    populated = pops >= population_floor
    partial = (
        bool(breaks)
        or abs(trace_deficit) > TRACE_TOLERANCE
        or not populated.any()
        or bool(np.any(populated & ~defined))
    )
    if s_upper is not None and populated.any():
        state = assemble_pure_state(pops, phases)

    fid = None
    if state is not None and reference is not None:
        fid = fidelity(state, reference)

    return ReconstructionResult(
        populations=pops,
        coherences=coherences,
        phases=phases,
        phase_defined=defined,
        chain_breaks=breaks,
        trace_deficit=trace_deficit,
        state=state,
        partial=partial,
        warnings=warnings_out,
        diagnostics=diagnostics,
        fidelity_vs_reference=fid,
        peaks=peaks,
    )


def reconstruct_state(
    traj: BlochTrajectory,
    g: float,
    n_max: int = DEFAULT_N_MAX,
    half_width: int = DEFAULT_HALF_WIDTH,
    population_floor: float = DEFAULT_POPULATION_FLOOR,
    reference: Optional[FieldState] = None,
) -> ReconstructionResult:
    """Convenience wrapper: trajectory -> spectra -> estimates."""
    if traj.z is None:
        raise ValidationError("reconstruction requires the z axis")
    specs = [None if c is None else dft(c, traj.delta_t) for c in (traj.z, traj.x, traj.y)]
    return reconstruct_from_spectra(g, *specs, n_max=n_max, half_width=half_width,
                                    population_floor=population_floor, reference=reference)


def peak_report(
    g: float,
    n_max: int,
    spec_z: Spectrum,
    spec_x: Optional[Spectrum] = None,
    spec_y: Optional[Spectrum] = None,
    half_width: int = DEFAULT_HALF_WIDTH,
) -> list[PeakEstimate]:
    """The ``peaks`` of `reconstruct_from_spectra`: raw per-window areas (no
    leakage removal) with SNRs against the solved residual floors."""
    return reconstruct_from_spectra(g, spec_z, spec_x, spec_y, n_max, half_width).peaks


def estimate_coupling(
    spec_z: Spectrum,
    search_range: tuple[float, float] = (0.5, 2.0),
) -> tuple[float, float]:
    """Locate g by aligning a candidate population comb with the z spectrum.

    Score at candidate g: sum over the first `_PROBE_HARMONICS` n that stay
    on the grid of ``max(0, 2 Re area(2 g sqrt(n)))``
    weighted by ``1 / sqrt(n)``, read with narrow half-width-1 windows
    (wide windows plateau over a +-half_width band and can even peak a
    few bins off, which would bias the argmax).  The z record is real, so
    ``F(-omega) = conj F(omega)`` and ``2 Re area(+c)`` is the cosine-pair
    amplitude ``Re(area(+c) + area(-c))`` to rounding: only the +c windows
    are read.

    The coarse stage takes the argmax of the scores of `_COARSE_POINTS`
    candidates over ``search_range`` by branch and bound.  A half-width-1
    area is ``rot sum_j tap_j X[m + j] / resp`` with ``|rot| = |tap_j| = 1``
    and a response ``resp >= 2 / pi``, so each pair ``2 Re area`` is at most
    ``pi S[m]``, ``S[m] = sum_{|j| <= 1} |X[m + j]|``, and a candidate's
    score at most ``pi sum_n S[m_n] / sqrt(n)`` (times ``1 + 1e-9`` for
    rounding).  One `read_windows` call scores the `_COARSE_SCORED`
    candidates of highest bound; if any other candidate's bound reaches
    the best of their scores, one more call scores all such candidates.
    Every candidate left unscored then scores below the best, so the
    argmax (first index on ties) is the exhaustive search's, and since
    `read_windows` reads each window bit for bit as in any batch, so is
    its score.  The refine rounds score `_REFINE_POINTS` points across
    the best point's two neighbours in one call each, until that bracket
    is at most `_G_TOLERANCE` wide (three rounds over the default range)
    or stops shrinking (where the float spacing of g exceeds
    `_G_TOLERANCE`).  Returns the best candidate and its score from the
    batch that found it.  If the winning comb holds no bin above 5x a
    robust noise floor (a floor of 0 included), there is no comb to align
    and an `EstimationError` is raised, as it is when the lowest candidate
    tone ``2 lo`` falls in the half-width-1 DC window; a bin of NaN or
    infinite modulus raises `ValidationError`.
    """
    _one_record("estimate_coupling", spec_z)
    abs_vals = np.abs(spec_z.values)
    if not math.isfinite(abs_vals.max()):
        raise ValidationError("the z spectrum has a NaN or infinite bin; cannot score a comb")
    lo, hi = search_range
    if not (0 < lo < hi):
        raise ValidationError(f"bad search range {_shown(search_range)}")
    n = spec_z.n_t
    dw = spec_z.d_omega
    omega_edge = (n // 2 - 2) * dw
    # Keep only harmonics that stay on-grid for every candidate g.  The ratio
    # is bounded before squaring: on a fine grid its square overflows.
    n_use = min(_PROBE_HARMONICS, int(min(omega_edge / (2.0 * hi), _PROBE_HARMONICS) ** 2))
    if n_use < 1:
        raise ValidationError(
            "search range exceeds the frequency grid; lower the range or raise n_t"
        )
    if _grid_windows(n, dw, 2.0 * lo, 1)[1] <= 1:
        raise EstimationError(
            f"the lowest candidate tone 2 g = {2.0 * lo:.4g} falls in the DC window "
            f"(bin width {dw:.4g}); raise the search range or n_t delta_t"
        )
    roots = np.sqrt(np.arange(1, n_use + 1, dtype=float))

    def score(g: np.ndarray) -> np.ndarray:
        pairs = 2.0 * read_windows(spec_z, (2.0 * g)[:, None] * roots, 1).real
        return np.sum(np.where(pairs > 0.0, pairs, 0.0) / roots, axis=1)

    grid = np.linspace(lo, hi, _COARSE_POINTS)
    _, _, idx, _ = _grid_windows(n, dw, (2.0 * grid)[:, None] * roots, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = abs_vals[:-2] + abs_vals[1:-1] + abs_vals[2:]  # S at bin i + 1
        bound = np.sum(spread[idx.astype(np.intp) - 1] / roots, axis=1) * (math.pi * (1 + 1e-9))
    scores = np.full(grid.size, -np.inf)
    todo = np.argpartition(bound, -_COARSE_SCORED)[-_COARSE_SCORED:]
    while todo.size:
        scores[todo] = score(grid[todo])
        todo = np.flatnonzero((bound >= scores.max()) & (scores == -np.inf))
    best = int(np.argmax(scores))
    width = math.inf
    while True:
        a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        if b - a <= _G_TOLERANCE or b - a >= width:
            break
        grid, width = np.linspace(a, b, _REFINE_POINTS), b - a
        scores = score(grid)
        best = int(np.argmax(scores))
    g_hat = float(grid[best])

    robust = float(np.median(abs_vals)) / math.sqrt(math.log(2.0))
    c = 2.0 * g_hat * roots
    # The +-1 bins around each +-c; n_use keeps every such window on the grid.
    _, _, idx, _ = _grid_windows(n, dw, np.concatenate((c, -c)), 1)
    peak_amp = float(np.max(abs_vals[idx.astype(np.intp)[:, None] + [-1, 0, 1]]))
    if peak_amp <= 5.0 * robust:
        raise EstimationError(
            f"no spectral peak above 5x the noise floor near the best comb "
            f"(g = {g_hat:.4f}); cannot estimate the coupling"
        )
    return g_hat, float(scores[best])
