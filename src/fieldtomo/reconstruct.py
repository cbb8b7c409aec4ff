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

Every window is read by `spectral.read_windows`, one call per spectrum
per read, and isolated tones are captured exactly; the residual
cross-tone leakage is removed by a few rounds of synthesize-and-subtract
refinement against a model comb that always contains every tone,
including unread difference-band ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import EstimationError, ValidationError
from .fock import FieldState, embed, fidelity
from .probe import BlochTrajectory
from .spectral import (
    DEFAULT_HALF_WIDTH,
    CombTone,
    PeakEstimate,
    Spectrum,
    comb_frequencies,
    cosine_pair,
    dft,
    noise_floor,
    rabi_comb,
    read_windows,
    sine_pair,
    validate_windows,
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
DEFAULT_REFINE_PASSES = 3
TRACE_TOLERANCE = 0.01


@dataclass(frozen=True)
class ReconstructionResult:
    """Everything the protocol can say about the field state.

    ``populations[n]`` estimates rho_nn (clamped at 0; raw values in
    ``diagnostics["raw_populations"]``).  ``coherences[n]`` estimates
    the lower superdiagonal element rho_{n+1, n}; ``None`` when no x/y
    data was supplied.  ``phases`` are amplitude phases chained from the
    first populated level (anchored at 0); entries with
    ``phase_defined[n] = False`` are unconstrained by the data.
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
    g_estimate: Optional[float] = None


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + i im`` built exactly (no arithmetic on the parts)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _grid_times(spec: Spectrum) -> np.ndarray:
    return spec.delta_t * np.arange(1, spec.n_t + 1, dtype=float)


def _synth_z(estimates: np.ndarray, centers: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Model z(t) = p_0 + sum p_n cos(2 Omega_n t) from current estimates."""
    model = np.full(times.size, float(np.real(estimates[0])))
    for p, c in zip(estimates[1:], centers):
        model = model + float(np.real(p)) * np.cos(c * times)
    return model


def _synth_xy(
    s_est: np.ndarray, freqs: dict[str, np.ndarray], times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Model x(t), y(t) carrying every sideband of the current S_n."""
    x = np.zeros(times.size)
    y = np.zeros(times.size)
    for n in range(len(s_est)):
        envelope = np.sin(freqs["sum"][n] * times) + np.sin(freqs["diff"][n] * times)
        x = x - s_est[n].imag * envelope
        y = y - s_est[n].real * envelope
    return x, y


def residual_floor(
    spec: Spectrum,
    model_signal: np.ndarray,
    exclude: Sequence[tuple[float, int]],
) -> float:
    """Sampling noise floor: RMS of the spectrum after subtracting the
    deterministic comb model.

    An off-bin tone leaks a slowly decaying tail across the whole
    spectrum; on a raw spectrum that tail, not the finite-shot noise,
    can dominate the free-bin RMS.  The floor is therefore measured on
    the residual, which for an ideal record is numerically zero.
    """
    times = _grid_times(spec)
    model = dft(model_signal, times, axis=spec.axis)
    resid = Spectrum(
        freqs=spec.freqs,
        values=spec.values - model.values,
        axis=spec.axis,
        delta_t=spec.delta_t,
    )
    return noise_floor(resid, exclude)


def populations_from_z(
    spec: Spectrum,
    comb: Sequence[CombTone],
    half_width: int = DEFAULT_HALF_WIDTH,
    refine_passes: int = DEFAULT_REFINE_PASSES,
) -> np.ndarray:
    """Raw diagonal estimates from the z spectrum (not clamped).

    Reads the DC window plus the +-2 Omega_n pairs, then runs
    ``refine_passes`` rounds of leakage subtraction: re-read a model
    spectrum synthesized from the current estimates and correct by the
    difference.
    """
    z_tones = sorted((t for t in comb if t.family == "z"), key=lambda t: t.n)
    if not z_tones:
        raise ValidationError("comb contains no z-family tones")
    windows = [("rho[0,0]", 0.0)]
    for tone in z_tones:
        windows.append((tone.label, tone.center))
        windows.append((tone.label, -tone.center))
    validate_windows(windows, half_width, spec)

    centers = np.array([t.center for t in z_tones])
    with_dc = np.concatenate(([0.0], centers))

    def read(sp: Spectrum) -> np.ndarray:
        return cosine_pair(sp, with_dc, half_width)

    est = read(spec)
    times = _grid_times(spec)
    for _ in range(refine_passes):
        model = _synth_z(est, centers, times)
        est = est + (read(spec) - read(dft(model, times, axis=spec.axis)))
    return est


def _diff_band_readable(
    freqs: dict[str, np.ndarray], spec: Spectrum, half_width: int
) -> np.ndarray:
    """Which difference-band windows stay clear of every other xy tone.

    Conservative and state-independent: a difference tone is read only
    if its window is disjoint from all sum-band windows, its own mirror
    and all other difference-band windows, whether or not those end up
    readable.  Entry n = 0 is False: it has no separate difference tone.
    """
    sums = np.rint(freqs["sum"] / spec.d_omega)
    diffs = np.rint(freqs["diff"][1:] / spec.d_omega)
    gaps = np.abs(diffs[:, None] - np.concatenate((sums, -sums, diffs, -diffs)))
    own = np.arange(diffs.size)
    gaps[own, 2 * sums.size + own] = np.inf  # a window does not clash with itself
    half_n = spec.n_t // 2
    ok = (diffs + half_width <= half_n - 1) & (diffs - half_width >= -half_n)
    return np.concatenate(([False], ok & np.all(gaps > 2 * half_width, axis=1)))


def coherences_from_xy(
    spec_x: Spectrum,
    spec_y: Spectrum,
    comb: Sequence[CombTone],
    half_width: int = DEFAULT_HALF_WIDTH,
    refine_passes: int = DEFAULT_REFINE_PASSES,
) -> tuple[np.ndarray, dict]:
    """Superdiagonal (upper convention S_n = rho_{n,n+1}) plus diagnostics."""
    sum_tones = sorted((t for t in comb if t.family == "xy_sum"), key=lambda t: t.n)
    diff_tones = sorted((t for t in comb if t.family == "xy_diff"), key=lambda t: t.n)
    if not sum_tones:
        raise ValidationError("comb contains no xy_sum tones")
    n_max = sum_tones[-1].n + 1
    if len(diff_tones) != n_max - 1:
        raise ValidationError("comb must list xy_diff tones for n = 1..n_max-1")
    # The n = 0 sidebands coincide, so its difference centre is its sum centre.
    freqs = {
        "sum": np.array([t.center for t in sum_tones]),
        "diff": np.array([sum_tones[0].center] + [t.center for t in diff_tones]),
    }
    readable = _diff_band_readable(freqs, spec_x, half_width)
    centers = np.concatenate((freqs["sum"], freqs["diff"][readable]))

    windows = []
    for n, tone in enumerate(sum_tones):
        windows.append((tone.label + "+", tone.center))
        windows.append((tone.label + "-", -tone.center))
        if readable[n]:
            windows.append((tone.label + "d+", freqs["diff"][n]))
            windows.append((tone.label + "d-", -freqs["diff"][n]))
    validate_windows(windows, half_width, spec_x)

    scale = np.ones(n_max)
    scale[0] = 0.5  # both sidebands of S_0 coincide at Omega_1

    def read(sx: Spectrum, sy: Spectrum) -> tuple[np.ndarray, np.ndarray]:
        s = _complex(sine_pair(sy, centers, half_width), sine_pair(sx, centers, half_width))
        s_diff = np.full(n_max, np.nan + 0j)
        s_diff[readable] = s[n_max:]
        return scale * s[:n_max], s_diff

    def combine(s_sum: np.ndarray, s_diff: np.ndarray) -> np.ndarray:
        return np.where(readable, 0.5 * (s_sum + s_diff), s_sum)

    data_sum, data_diff = read(spec_x, spec_y)
    est = combine(data_sum, data_diff)
    times = _grid_times(spec_x)
    for _ in range(refine_passes):
        # Model carries every tone, including unread difference ones:
        # their leakage into the read windows must be subtracted too.
        x_model, y_model = _synth_xy(est, freqs, times)
        m_sum, m_diff = read(
            dft(x_model, times, axis=spec_x.axis), dft(y_model, times, axis=spec_y.axis)
        )
        est = est + combine(data_sum - m_sum, data_diff - m_diff)

    disagreement = [
        float(abs(data_sum[n] - data_diff[n])) if readable[n] else None
        for n in range(n_max)
    ]
    diagnostics = {
        "diff_band_read": readable.tolist(),
        "band_disagreement": disagreement,
    }
    return est, diagnostics


def chain_phases(
    populations: np.ndarray,
    coherences: np.ndarray,
    population_floor: float = DEFAULT_POPULATION_FLOOR,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Chain amplitude phases from the superdiagonal (upper convention).

    Returns ``(phases, defined, breaks)``.  The first populated level is
    anchored at phase 0; each link requires both endpoints populated.
    Levels that cannot be reached stay at 0 with ``defined = False``.
    A break is any unpopulated level with population on both sides —
    a diagnostic, not an error.
    """
    pops = np.asarray(populations, dtype=float)
    populated = pops >= population_floor
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


def _xy_exclusions(
    freqs: dict[str, np.ndarray], half_width: int
) -> list[tuple[float, int]]:
    excl = []
    for c in freqs["sum"]:
        excl += [(c, half_width), (-c, half_width)]
    for c in freqs["diff"][1:]:
        excl += [(c, half_width), (-c, half_width)]
    return excl


def _z_exclusions(
    freqs: dict[str, np.ndarray], half_width: int
) -> list[tuple[float, int]]:
    excl = [(0.0, half_width)]
    for c in freqs["z"]:
        excl += [(c, half_width), (-c, half_width)]
    return excl


def _safe_floor(spec: Spectrum, model_signal, exclude) -> Optional[float]:
    try:
        return residual_floor(spec, model_signal, exclude)
    except ValidationError:
        return None


def _padded_overlap(a: FieldState, b: FieldState) -> float:
    """|<a|b>|^2 with the shorter amplitude vector zero-padded (no renorm)."""
    cut = max(a.cutoff, b.cutoff)
    return fidelity(embed(a, cut), embed(b, cut))


def reconstruct_from_spectra(
    g: float,
    spec_z: Spectrum,
    spec_x: Optional[Spectrum] = None,
    spec_y: Optional[Spectrum] = None,
    n_max: int = DEFAULT_N_MAX,
    half_width: int = DEFAULT_HALF_WIDTH,
    population_floor: float = DEFAULT_POPULATION_FLOOR,
    refine_passes: int = DEFAULT_REFINE_PASSES,
    reference: Optional[FieldState] = None,
) -> ReconstructionResult:
    """Full estimate from precomputed spectra.  ``spec_z`` is mandatory;
    coherences and phases require both ``spec_x`` and ``spec_y``."""
    if (spec_x is None) != (spec_y is None):
        raise ValidationError("x and y spectra must be supplied together")
    comb = rabi_comb(g, n_max)
    freqs = comb_frequencies(g, n_max)
    warnings_out: list[str] = []
    diagnostics: dict = {}

    raw = populations_from_z(spec_z, comb, half_width, refine_passes)
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

    times = _grid_times(spec_z)
    z_centers = freqs["z"]
    xi_z = _safe_floor(
        spec_z, _synth_z(raw, z_centers, times), _z_exclusions(freqs, half_width)
    )
    diagnostics["noise_floor_z"] = xi_z

    coherences = None
    s_upper = None
    if spec_x is not None and spec_y is not None:
        s_upper, coh_diag = coherences_from_xy(
            spec_x, spec_y, comb, half_width, refine_passes
        )
        diagnostics.update(coh_diag)
        x_model, y_model = _synth_xy(s_upper, freqs, times)
        xi_x = _safe_floor(spec_x, x_model, _xy_exclusions(freqs, half_width))
        xi_y = _safe_floor(spec_y, y_model, _xy_exclusions(freqs, half_width))
        diagnostics["noise_floor_x"] = xi_x
        diagnostics["noise_floor_y"] = xi_y
        xi_xy = None if xi_x is None or xi_y is None else math.hypot(xi_x, xi_y)
        for n, d in enumerate(coh_diag["band_disagreement"]):
            if d is not None and xi_xy is not None and d > 5.0 * xi_xy:
                warnings_out.append(
                    f"sum/difference bands disagree for rho[{n},{n + 1}]: "
                    f"|delta| = {d:.3e} > 5 noise"
                )
        # Absolute floor: on ideal records xi_xy is ~1e-16 while the
        # refinement residue still lifts saturated |S_n| by ~1e-8.
        tol = max(5.0 * (xi_xy or 0.0), 1e-6)
        for n in range(s_upper.size):
            bound = math.sqrt(max(pops[n] * pops[n + 1], 0.0))
            if abs(s_upper[n]) > bound + tol:
                warnings_out.append(
                    f"|rho[{n},{n + 1}]| = {abs(s_upper[n]):.4f} exceeds "
                    f"sqrt(rho_nn rho_mm) = {bound:.4f}"
                )
        coherences = np.conj(s_upper)  # reported as rho_{n+1, n}

    if s_upper is not None:
        phases, defined, breaks = chain_phases(pops, s_upper, population_floor)
    else:
        phases, defined, breaks = chain_phases(
            pops, np.zeros(max(pops.size - 1, 0), dtype=complex), population_floor
        )
        defined = defined & (np.arange(pops.size) == np.argmax(pops >= population_floor))

    state = None
    partial = bool(breaks)
    populated = pops >= population_floor
    if np.any(populated & ~defined):
        partial = True
    if s_upper is not None and populated.any():
        state = assemble_pure_state(pops, phases)

    fid = None
    if state is not None and reference is not None:
        fid = _padded_overlap(state, reference)

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
    )


def reconstruct_state(
    traj: BlochTrajectory,
    g: float,
    n_max: int = DEFAULT_N_MAX,
    half_width: int = DEFAULT_HALF_WIDTH,
    population_floor: float = DEFAULT_POPULATION_FLOOR,
    refine_passes: int = DEFAULT_REFINE_PASSES,
    reference: Optional[FieldState] = None,
) -> ReconstructionResult:
    """Convenience wrapper: trajectory -> spectra -> estimates."""
    if traj.z is None:
        raise ValidationError("reconstruction requires the z axis")
    spec_z = dft(traj.z, traj.times, axis="z")
    spec_x = dft(traj.x, traj.times, axis="x") if traj.x is not None else None
    spec_y = dft(traj.y, traj.times, axis="y") if traj.y is not None else None
    return reconstruct_from_spectra(
        g,
        spec_z,
        spec_x,
        spec_y,
        n_max=n_max,
        half_width=half_width,
        population_floor=population_floor,
        refine_passes=refine_passes,
        reference=reference,
    )


def peak_report(
    g: float,
    n_max: int,
    spec_z: Spectrum,
    spec_x: Optional[Spectrum] = None,
    spec_y: Optional[Spectrum] = None,
    half_width: int = DEFAULT_HALF_WIDTH,
) -> list[PeakEstimate]:
    """Raw per-window areas (no leakage refinement) with SNR proxies.

    Each spectrum's windows are read in one `read_windows` call.
    """
    freqs = comb_frequencies(g, n_max)
    times = _grid_times(spec_z)
    width = math.sqrt(2 * half_width + 1)

    def snr_of(area: complex, floor: Optional[float]) -> Optional[float]:
        if floor is None or floor == 0.0:
            return None
        val = abs(area) / (floor * width)
        return val if math.isfinite(val) else None

    def report(windows, areas: np.ndarray, floor) -> list[PeakEstimate]:
        return [
            PeakEstimate(c, half_width, a, snr_of(a, floor), label, fam)
            for (c, label, fam), a in zip(windows, areas.tolist())
        ]

    # Window order: DC, then +-2 Omega_n for each n.
    z_windows = [(0.0, "rho[0,0]", "z")]
    for n in range(1, n_max + 1):
        c = freqs["z"][n - 1]
        z_windows += [(c, f"rho[{n},{n}]", "z"), (-c, f"rho[{n},{n}]", "z")]
    area_z = read_windows(spec_z, [c for c, _, _ in z_windows], half_width)
    # One-pass raw estimates feed the comb model used for SNR floors.
    raw_p = np.concatenate((area_z[:1].real, (area_z[1::2] + area_z[2::2]).real))
    xi = _safe_floor(
        spec_z, _synth_z(raw_p, freqs["z"], times), _z_exclusions(freqs, half_width)
    )
    out = report(z_windows, area_z, xi)

    if spec_x is not None and spec_y is not None:
        readable = _diff_band_readable(freqs, spec_x, half_width)
        excl = _xy_exclusions(freqs, half_width)
        xy_windows = []
        for n in range(n_max):
            label = f"rho[{n},{n + 1}]"
            for fam, c in (("xy_sum", freqs["sum"][n]), ("xy_diff", freqs["diff"][n])):
                if fam == "xy_sum" or readable[n]:
                    xy_windows += [(c, label, fam), (-c, label, fam)]
        xy_centers = [c for c, _, _ in xy_windows]
        is_sum = np.array([fam == "xy_sum" for _, _, fam in xy_windows])
        area_x, area_y = (read_windows(sp, xy_centers, half_width) for sp in (spec_x, spec_y))

        def sines(a: np.ndarray) -> np.ndarray:
            a = a[is_sum]
            return (a[0::2] - a[1::2]).imag

        scale = np.ones(n_max)
        scale[0] = 0.5
        s_raw = scale * _complex(sines(area_y), sines(area_x))
        x_model, y_model = _synth_xy(s_raw, freqs, times)
        for sp, model, areas in ((spec_x, x_model, area_x), (spec_y, y_model, area_y)):
            out += report(xy_windows, areas, _safe_floor(sp, model, excl))
    return out


def _golden_section_max(fn, lo: float, hi: float, tol: float = 1e-7) -> float:
    """Golden-section maximizer on [lo, hi] for a unimodal score."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def estimate_coupling(
    spec_z: Spectrum,
    search_range: tuple[float, float] = (0.5, 2.0),
    n_probe: int = 5,
    n_coarse: int = 1000,
) -> tuple[float, float]:
    """Locate g by aligning a candidate population comb with the z spectrum.

    Score at candidate g: sum over n of ``max(0, Re pair(2 g sqrt(n)))``
    weighted by ``1 / sqrt(n)``, read with narrow half-width-1 windows
    (wide windows plateau over a +-half_width band and can even peak a
    few bins off, which would bias the argmax).  The scorer is vectorised
    over candidates: the coarse 1000-point scan is one batched
    `read_windows` call over the ``(n_coarse, n_use)`` grid of +c
    windows and one over -c, and it brackets the winner for a
    golden-section polish that reuses the same scorer.  If the winning
    comb holds no bin above 5x a robust noise floor, there is no comb to
    align and an `EstimationError` is raised.
    """
    lo, hi = search_range
    if not (0 < lo < hi):
        raise ValidationError(f"bad search range {search_range!r}")
    n = spec_z.n_t
    dw = spec_z.d_omega
    omega_edge = (n // 2 - 2) * dw
    # Keep only harmonics that stay on-grid for every candidate g.
    n_use = min(n_probe, int((omega_edge / (2.0 * hi)) ** 2))
    if n_use < 1:
        raise ValidationError(
            "search range exceeds the frequency grid; lower the range or raise n_t"
        )
    roots = np.sqrt(np.arange(1, n_use + 1, dtype=float))

    def score(g):
        c = (2.0 * np.asarray(g))[..., None] * roots
        pairs = (read_windows(spec_z, c, 1) + read_windows(spec_z, -c, 1)).real
        terms = np.where(pairs > 0.0, pairs, 0.0) / roots
        total = 0.0
        for k in range(n_use):  # left to right; np.sum would pair terms differently
            total = total + terms[..., k]
        return total

    grid = np.linspace(lo, hi, n_coarse)
    scores = score(grid)
    best = int(np.argmax(scores))
    g_hat = _golden_section_max(
        score, grid[max(best - 2, 0)], grid[min(best + 2, n_coarse - 1)]
    )

    abs_vals = np.abs(spec_z.values)
    robust = float(np.median(abs_vals)) / math.sqrt(math.log(2.0))
    c = 2.0 * g_hat * roots
    bins = np.rint(np.concatenate((c, -c)) / dw).astype(np.intp) + n // 2
    peak_amp = float(np.max(abs_vals[np.clip(bins[:, None] + [-1, 0, 1], 0, n - 1)]))
    if robust > 0.0 and peak_amp <= 5.0 * robust:
        raise EstimationError(
            f"no spectral peak above 5x the noise floor near the best comb "
            f"(g = {g_hat:.4f}); cannot estimate the coupling"
        )
    return float(g_hat), float(score(g_hat))
