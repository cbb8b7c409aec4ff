import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldtomo.reconstruct
import oracles
from oracles import cosine_pair, coupling_scores, golden_section_coupling
from fieldtomo.dce import DceConfig
from fieldtomo.exceptions import (
    EstimationError,
    FieldTomoError,
    GridError,
    ResolvabilityError,
    ValidationError,
)
from fieldtomo.fock import (
    DensityMatrix,
    FieldState,
    JointState,
    density_from_pure,
    embed,
    fock_state,
)
from fieldtomo.measurement import MeasurementPlan, sample_records, sample_trajectory
from fieldtomo import probe as probe_mod
from fieldtomo.probe import BlochTrajectory, bloch_components, ideal_bloch_trajectory, time_grid
from fieldtomo.reconstruct import (
    TRACE_TOLERANCE,
    chain_phases,
    coherences_from_xy,
    estimate_coupling,
    peak_report,
    populations_from_z,
    reconstruct_from_spectra,
    reconstruct_state,
)
from fieldtomo import spectral
from fieldtomo.spectral import (
    Spectrum,
    comb_frequencies,
    dft,
    max_half_width,
    noise_floor,
    read_windows,
    validate_windows,
    window_gains,
)
from fieldtomo.states import coherent_state, superposition

DT, N_T = 0.075, 4096
TIMES = time_grid(DT, N_T)


def spectra_for(rho, g):
    traj = ideal_bloch_trajectory(rho, g, DT, N_T)
    return (
        dft(traj.z, DT),
        dft(traj.x, DT),
        dft(traj.y, DT),
    )


def test_ideal_equal_superposition_with_phase(g, state_two):
    rho = density_from_pure(state_two)
    traj = ideal_bloch_trajectory(rho, g, DT, N_T)
    res = reconstruct_state(traj, g=g)
    assert res.populations[1] == pytest.approx(0.5, abs=1e-6)
    assert res.populations[2] == pytest.approx(0.5, abs=1e-6)
    assert res.populations[0] == pytest.approx(0.0, abs=1e-6)
    # reported coherences follow rho[n+1, n]: for (|1> + e^{i pi/4}|2>)/sqrt(2)
    # the superdiagonal entry is rho[1,2] = e^{-i pi/4}/2, so we report its
    # conjugate
    expected = 0.5 * np.exp(1j * np.pi / 4)
    assert res.coherences[1] == pytest.approx(expected, abs=1e-6)
    assert not res.partial
    # phases anchor at the first populated level
    assert res.phase_defined[1] and res.phase_defined[2]
    assert res.phases[1] == pytest.approx(0.0, abs=1e-6)
    assert res.phases[2] == pytest.approx(np.pi / 4, abs=1e-6)
    assert res.trace_deficit == pytest.approx(0.0, abs=1e-6)


def test_fidelity_against_reference(g, state_two):
    rho = density_from_pure(state_two)
    traj = ideal_bloch_trajectory(rho, g, DT, N_T)
    res = reconstruct_state(traj, g=g, reference=state_two)
    assert res.fidelity_vs_reference == pytest.approx(1.0, abs=1e-6)
    assert res.state is not None


def test_global_phase_invariance(g, state_two):
    rotated = superposition(
        [(n, a * np.exp(0.7j)) for n, a in enumerate(state_two.amplitudes) if a != 0],
        state_two.cutoff,
    )
    r1 = reconstruct_state(
        ideal_bloch_trajectory(density_from_pure(state_two), g, DT, N_T), g=g
    )
    r2 = reconstruct_state(
        ideal_bloch_trajectory(density_from_pure(rotated), g, DT, N_T), g=g
    )
    assert np.allclose(r1.populations, r2.populations, atol=1e-12)
    assert np.allclose(r1.coherences, r2.coherences, atol=1e-12)
    assert np.allclose(r1.phases, r2.phases, atol=1e-9)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_fock_state_flat_xy_and_unit_z_area(g, n):
    rho = density_from_pure(fock_state(n, 8))
    traj = ideal_bloch_trajectory(rho, g, DT, N_T)
    assert np.max(np.abs(traj.x)) < 1e-6
    assert np.max(np.abs(traj.y)) < 1e-6
    spec_z = dft(traj.z, DT)
    omega = 2.0 * g * np.sqrt(n)
    # raw combined window area recovers the full population weight
    assert cosine_pair(spec_z, omega, 4) == pytest.approx(1.0, abs=2e-3)


def test_mixed_state_diagonal_and_superdiagonal(g):
    a = superposition([(0, 0.6), (1, 0.8)], 8)
    b = superposition([(1, 0.8j), (2, 0.6)], 8)
    mat = 0.5 * np.outer(a.amplitudes, a.amplitudes.conj())
    mat = mat + 0.5 * np.outer(b.amplitudes, b.amplitudes.conj())
    rho = DensityMatrix(mat)
    traj = ideal_bloch_trajectory(rho, g, DT, N_T)
    res = reconstruct_state(traj, g=g)
    diag = rho.diagonal()
    assert np.max(np.abs(res.populations - diag)) < 2e-3
    reported = np.asarray(res.coherences)[: diag.size - 1]
    assert np.max(np.abs(reported - np.conj(rho.superdiagonal()))) < 2e-3


def test_round_trip_random_states(g):
    rng = np.random.default_rng(2026)
    worst = 1.0
    for _ in range(25):
        n_top = int(rng.integers(2, 7))
        moduli = rng.uniform(0.3, 1.0, size=n_top + 1)
        phases = rng.uniform(-np.pi, np.pi, size=n_top + 1)
        state = superposition(
            [(n, m * np.exp(1j * p)) for n, (m, p) in enumerate(zip(moduli, phases))],
            8,
        )
        traj = ideal_bloch_trajectory(density_from_pure(state), g, DT, N_T)
        res = reconstruct_state(traj, g=g, reference=state)
        worst = min(worst, res.fidelity_vs_reference)
    assert worst >= 1.0 - 1e-4


def test_negative_population_clamp(g):
    rho = density_from_pure(fock_state(1, 8))
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, n_m=30, axes=("z",), seed=0)
    res = reconstruct_state(sample_trajectory(rho, g, plan), g=g)
    assert min(res.diagnostics["raw_populations"]) < 0
    assert np.min(res.populations) >= 0.0
    assert any("clamped" in w for w in res.warnings)


def test_cauchy_schwarz_consistency_warning(g, alpha_state):
    rho = density_from_pure(alpha_state)
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, n_m=100, seed=0)
    res = reconstruct_state(sample_trajectory(rho, g, plan), g=g)
    assert any("exceeds" in w for w in res.warnings)


def test_trace_deficit_reported_for_truncated_read(g):
    rho = density_from_pure(coherent_state(2.0, 20))
    traj = ideal_bloch_trajectory(rho, g, DT, N_T)
    res = reconstruct_state(traj, g=g, n_max=8)
    tail = 1.0 - np.sum(rho.diagonal()[:9])
    assert res.trace_deficit == pytest.approx(tail, abs=1e-3)
    assert any("trace" in w for w in res.warnings)


def test_truncation_above_n_max_is_partial(g):
    # |alpha| = 2.5 puts 18 % of the weight above n_max = 8.
    state = coherent_state(2.5, 30)
    traj = ideal_bloch_trajectory(density_from_pure(state), g, DT, N_T)
    res = reconstruct_state(traj, g=g, n_max=8, reference=state)
    assert res.trace_deficit > TRACE_TOLERANCE
    assert res.partial
    assert res.chain_breaks == [] and res.phase_defined.all()


def test_nothing_above_the_population_floor_is_partial(g, state_two):
    traj = ideal_bloch_trajectory(density_from_pure(state_two), g, DT, N_T)
    res = reconstruct_state(traj, g=g, population_floor=2.0)
    assert res.state is None
    assert not res.phase_defined.any() and res.chain_breaks == []
    assert res.partial


def test_chain_break_detection(g):
    state = superposition([(0, 1.0), (2, 1.0)], 8)
    traj = ideal_bloch_trajectory(density_from_pure(state), g, DT, N_T)
    res = reconstruct_state(traj, g=g)
    assert res.chain_breaks == [1]
    assert res.partial
    assert res.phase_defined[0]
    assert not res.phase_defined[1]
    assert not res.phase_defined[2]
    assert res.phases[0] == pytest.approx(0.0, abs=1e-9)
    assert res.populations[0] == pytest.approx(0.5, abs=1e-6)
    assert res.populations[2] == pytest.approx(0.5, abs=1e-6)


def test_difference_band_read_and_averaged(g, state_two):
    # with only two coherence tones the difference band fits on the grid,
    # so rho[2,1] comes from averaging both bands
    rho = density_from_pure(state_two)
    spec_z, spec_x, spec_y = spectra_for(rho, g)
    res = reconstruct_from_spectra(
        g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2
    )
    assert res.diagnostics["diff_band_read"] == [False, True]
    assert res.diagnostics["band_disagreement"][0] is None
    assert res.diagnostics["band_disagreement"][1] < 5e-3
    expected = 0.5 * np.exp(1j * np.pi / 4)
    assert res.coherences[1] == pytest.approx(expected, abs=1e-4)


def test_ideal_difference_band_agrees_without_warning(g, state_two):
    # Raw sum and difference reads differ by ~1.7e-3 of cross-tone
    # leakage here; once the modelled leakage is out, the bands agree.
    spec_z, spec_x, spec_y = spectra_for(density_from_pure(state_two), g)
    res = reconstruct_from_spectra(
        g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2
    )
    assert res.diagnostics["band_disagreement"][1] < 1e-12
    assert res.warnings == []


def test_tone_in_a_difference_window_still_warns(g, state_two):
    spec_z, spec_x, spec_y = spectra_for(density_from_pure(state_two), g)
    w = comb_frequencies(g, 2)["diff"][1]
    extra = dft(1e-3 * np.sin(w * TIMES), DT)
    spec_x = Spectrum(spec_x.values + extra.values, spec_x.delta_t)
    res = reconstruct_from_spectra(
        g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2
    )
    assert any("bands disagree for rho[1,2]" in msg for msg in res.warnings)


def finite_shot_bands(rho, g, seed, tone=0.0):
    """Whether the rho[1,2] band check warns on a n_m = 1000 record, with
    ``tone sin(w t)`` added to x at the n = 1 difference-band frequency w."""
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, n_m=1000, seed=seed)
    traj = sample_trajectory(rho, g, plan)
    spec_z, spec_x, spec_y = (dft(getattr(traj, a), DT) for a in "zxy")
    w = comb_frequencies(g, 2)["diff"][1]
    extra = dft(tone * np.sin(w * TIMES), DT)
    spec_x = Spectrum(spec_x.values + extra.values, spec_x.delta_t)
    res = reconstruct_from_spectra(g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2)
    assert res.diagnostics["diff_band_read"] == [False, True]
    return any("bands disagree for rho[1,2]" in msg for msg in res.warnings)


def test_band_check_is_calibrated_to_finite_shot_noise(g, state_two):
    """Shot noise alone: the 3 sigma_d threshold flags a band with
    probability e^-9, so at most one of 40 seeds may warn."""
    rho = density_from_pure(state_two)
    assert sum(finite_shot_bands(rho, g, seed) for seed in range(40)) <= 1


def test_band_check_flags_a_tone_above_shot_noise(g, state_two):
    # A 0.03 tone is 5.6-9.5 sigma_d here (xi_xy = 6.6e-4, sigma_d = 6 xi_xy).
    rho = density_from_pure(state_two)
    assert all(finite_shot_bands(rho, g, seed, tone=0.03) for seed in range(10))


@settings(deadline=None, max_examples=40)
@given(
    g=st.floats(min_value=0.6, max_value=1.5),
    lowest=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_ideal_pure_states_reconstruct_without_warnings(g, lowest, data):
    n_max = 8
    top = data.draw(st.integers(min_value=lowest + 1, max_value=n_max), label="top")
    size = top - lowest + 1
    mags = data.draw(st.lists(st.floats(0.2, 1.0), min_size=size, max_size=size))
    args = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=size, max_size=size))
    state = superposition(
        [(lowest + k, m * np.exp(1j * a)) for k, (m, a) in enumerate(zip(mags, args))],
        n_max + 1,
    )
    traj = ideal_bloch_trajectory(density_from_pure(state), g, DT, N_T)
    res = reconstruct_state(traj, g=g, n_max=n_max, reference=state)
    assert res.warnings == []
    assert res.fidelity_vs_reference >= 1.0 - 1e-9


@settings(deadline=None, max_examples=40)
@given(g=st.floats(min_value=0.6, max_value=1.5), data=st.data())
def test_ideal_records_leave_no_residual_floor(g, data):
    """The floors subtract the simulator's own forward model, so on the ideal
    records of a pure state within n_max every axis's floor is rounding."""
    n_max = 8
    levels = data.draw(
        st.lists(st.integers(0, n_max), min_size=1, max_size=n_max + 1, unique=True),
        label="levels",
    )
    mags = data.draw(st.lists(st.floats(0.2, 1.0), min_size=len(levels), max_size=len(levels)))
    args = data.draw(
        st.lists(st.floats(-np.pi, np.pi), min_size=len(levels), max_size=len(levels))
    )
    state = superposition(
        [(n, m * np.exp(1j * a)) for n, m, a in zip(levels, mags, args)], n_max
    )
    traj = ideal_bloch_trajectory(density_from_pure(state), g, DT, N_T)
    res = reconstruct_state(traj, g=g, n_max=n_max)
    for axis in "xyz":
        assert res.diagnostics[f"noise_floor_{axis}"] <= 1e-12, axis


def test_z_only_reconstruction_is_partial(g, state_two):
    rho = density_from_pure(state_two)
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, axes=("z",))
    res = reconstruct_state(sample_trajectory(rho, g, plan), g=g)
    assert res.coherences is None
    assert res.state is None
    assert res.partial
    assert res.populations[1] == pytest.approx(0.5, abs=1e-6)


def test_z_axis_required(g):
    rho = density_from_pure(fock_state(1, 8))
    traj = ideal_bloch_trajectory(rho, g, DT, N_T)
    x_only = BlochTrajectory(DT, x=traj.x, y=None, z=None)
    with pytest.raises(ValidationError, match="z axis"):
        reconstruct_state(x_only, g=g)


def test_x_and_y_must_come_together(g, state_two):
    spec_z, spec_x, _ = spectra_for(density_from_pure(state_two), g)
    with pytest.raises(ValidationError):
        reconstruct_from_spectra(g, spec_z, spec_x=spec_x, spec_y=None)


def test_peak_report_raw_window_areas(g):
    rho = density_from_pure(fock_state(1, 8))
    spec_z, spec_x, spec_y = spectra_for(rho, g)
    report = peak_report(g, 3, spec_z, spec_x, spec_y)
    by_label = {}
    for p in report:
        by_label.setdefault((p.label, p.family), []).append(p)
    pair = by_label[("rho[1,1]", "z")]
    assert len(pair) == 2  # one window per sign
    for p in pair:
        assert abs(p.area) == pytest.approx(0.5, abs=1e-3)
        assert p.snr > 1e3  # ideal data: floor is refinement residual only
    # every coherence tone is reported even though the band is empty here
    assert ("rho[0,1]", "xy_sum") in by_label


def test_estimate_coupling_across_states_and_couplings():
    tol = np.pi / TIMES[-1]
    rho_f = density_from_pure(fock_state(1, 8))
    for g in (0.8, 1.0, 1.3):
        traj = ideal_bloch_trajectory(rho_f, g, DT, N_T)
        g_hat, score = estimate_coupling(dft(traj.z, DT))
        assert abs(g_hat - g) < tol
        assert score > 0
    rho_c = density_from_pure(coherent_state(0.7 * np.exp(1j * np.pi / 3), 12))
    traj = ideal_bloch_trajectory(rho_c, 1.0, DT, N_T)
    g_hat, _ = estimate_coupling(dft(traj.z, DT))
    assert abs(g_hat - 1.0) < tol


def test_estimate_coupling_refuses_pure_noise():
    rng = np.random.default_rng(7)
    spec = dft(rng.normal(0.0, 0.02, TIMES.size), DT)
    with pytest.raises(EstimationError):
        estimate_coupling(spec)


def test_estimate_coupling_on_a_fine_grid_does_not_overflow():
    """At a 1e-300 step every harmonic is on the grid; the harmonic count is
    bounded before it is squared, so noise is refused as on any grid."""
    spec = dft(np.random.default_rng(7).normal(0.0, 0.02, 64), 1e-300)
    with pytest.raises(EstimationError):
        estimate_coupling(spec)


@pytest.mark.parametrize("g", [0.8, 1.0, 1.3])
@pytest.mark.parametrize("kind", ["fock", "coherent"])
def test_estimate_coupling_matches_the_golden_section_oracle(kind, g):
    if kind == "fock":
        state = fock_state(1, 8)
    else:
        state = coherent_state(0.7 * np.exp(1j * np.pi / 3), 12)
    traj = ideal_bloch_trajectory(density_from_pure(state), g, DT, N_T)
    spec = dft(traj.z, DT)
    assert abs(estimate_coupling(spec)[0] - golden_section_coupling(spec)) <= 1e-7


def test_estimate_coupling_on_sampled_records():
    tol = np.pi / TIMES[-1]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.7, 1.4)
        if seed % 2 == 0:
            state = fock_state(1, 8)
        else:
            alpha = rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            state = coherent_state(alpha, 12)
        plan = MeasurementPlan(delta_t=0.075, n_t=TIMES.size, n_m=1000, axes=("z",), seed=seed)
        traj = sample_trajectory(density_from_pure(state), g, plan)
        spec = dft(traj.z, traj.delta_t)
        g_hat, score = estimate_coupling(spec)
        assert abs(g_hat - g) < tol, seed
        # the one-sided batch score is the two-sided score at g_hat
        assert score == pytest.approx(coupling_scores(spec, g_hat, 5), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "delta_t, g, search_range, max_reads",
    [
        (0.075, 1.0, (0.5, 2.0), 4),  # the default range on the paper's grid
        (1e-12, 1.5e11, (1e11, 2e11), 16),  # 1e-7 is below the float spacing of g
    ],
)
def test_estimate_coupling_window_reads(monkeypatch, delta_t, g, search_range, max_reads):
    times = time_grid(delta_t, 4096)
    spec = dft(np.cos(2.0 * g * times), delta_t)  # a Fock |1> z record
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        assert len(calls) <= max_reads  # fails a search that never stops, not hangs
        return read_windows(*args, **kwargs)

    monkeypatch.setattr(fieldtomo.reconstruct, "read_windows", counting)
    g_hat, _ = estimate_coupling(spec, search_range)
    assert abs(g_hat - g) < np.pi / times[-1]



def coupling_outcome(search, spec, search_range):
    """``search(spec, search_range)`` as the bits of ``(g_hat, score)`` with the
    warnings it gave, or as the exception it raised."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g_hat, score = search(spec, search_range)
    except FieldTomoError as err:
        return type(err), str(err)
    return g_hat.hex(), score.hex(), sorted({str(w.message) for w in caught})


@st.composite
def coupling_inputs(draw):
    """A z spectrum and a search range: a finite-shot or ideal record of a
    Fock, coherent or two-level state at a ``g`` often on or near the range's
    edges, on a grid of 64-8192 points, or pure noise, a zero spectrum, or a
    record with one NaN or infinite bin, often on a comb tone."""
    search_range = draw(st.one_of(
        st.just((0.5, 2.0)),
        st.tuples(st.floats(0.2, 1.0), st.floats(1.5, 4.0)).map(lambda r: (r[0], r[0] * r[1])),
    ), label="search_range")
    lo, hi = search_range
    edge = draw(st.one_of(st.sampled_from([0.0, 1e-3, 0.999, 1.0]), st.floats(0.0, 1.0)))
    n_t = draw(st.one_of(st.sampled_from([64, 4096, 8192]), st.integers(64, 8192)), label="n_t")
    # Records of at least 6 / lo keep the lowest candidate tone off the DC window.
    plan = MeasurementPlan(
        delta_t=max(draw(st.floats(0.02, 0.3), label="delta_t"), 6.0 / (lo * n_t)),
        n_t=n_t,
        n_m=draw(st.one_of(st.none(), st.integers(10, 1000)), label="n_m"),
        axes=("z",),
        seed=draw(st.integers(0, 2**16), label="seed"),
    )
    kind = draw(st.sampled_from(["fock", "coherent", "superposition"]), label="kind")
    rng = np.random.default_rng(plan.seed)
    if kind == "fock":
        state = fock_state(int(rng.integers(1, 4)), 8)
    elif kind == "coherent":
        state = coherent_state(rng.uniform(0.3, 1.2) * np.exp(2j * np.pi * rng.uniform()), 16)
    else:
        levels = rng.choice(5, size=2, replace=False)
        state = superposition([(int(k), rng.normal() + 1j * rng.normal()) for k in levels], 8)
    g = lo + edge * (hi - lo)
    record = sample_trajectory(density_from_pure(state), g, plan).z
    damage = draw(st.sampled_from(["none", "noise", "zero", "bin"]), label="damage")
    if damage == "noise":
        record = rng.normal(0.0, 0.02, n_t)
    elif damage == "zero":
        record = np.zeros(n_t)
    spec = dft(record, plan.delta_t)
    if damage == "bin":
        # Anywhere, or on a comb tone 2 g sqrt(k), where the best candidates read it.
        tone = round(2.0 * g * np.sqrt(rng.integers(1, 4)) / spec.d_omega) + n_t // 2
        where = draw(st.sampled_from([int(rng.integers(n_t)), min(tone, n_t - 1)]))
        values = spec.values.copy()
        values[where] = draw(st.sampled_from(
            [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 1.0),
             complex(0.0, np.nan), complex(np.inf, np.nan)]
        ), label="bad bin")
        spec = Spectrum(values, spec.delta_t)
    return spec, search_range


@settings(deadline=None, max_examples=150)
@given(
    inputs=coupling_inputs(),
    scored=st.one_of(st.just(fieldtomo.reconstruct._COARSE_SCORED), st.integers(1, 1000)),
)
def test_estimate_coupling_matches_the_exhaustive_search(inputs, scored):
    """The coarse stage scores only candidates whose bound can reach the best
    score; it returns the exhaustive search's ``(g_hat, score)`` bits and
    warnings, or raises what that raises, with its own number of candidates
    scored first and with any other."""
    spec, search_range = inputs
    with mock.patch.object(fieldtomo.reconstruct, "_COARSE_SCORED", scored):
        got = coupling_outcome(estimate_coupling, spec, search_range)
    assert got == coupling_outcome(oracles.estimate_coupling, spec, search_range)


def paper_z_spectrum(kind: str, n_m) -> Spectrum:
    """The z spectrum of a Fock |1> or coherent record at g = 1.1 on the
    paper's grid."""
    state = fock_state(1, 8) if kind == "fock" else coherent_state(0.7j, 12)
    plan = MeasurementPlan(delta_t=0.075, n_t=TIMES.size, n_m=n_m, axes=("z",), seed=5)
    traj = sample_trajectory(density_from_pure(state), 1.1, plan)
    return dft(traj.z, traj.delta_t)


@pytest.mark.parametrize("n_m", [None, 1000])
@pytest.mark.parametrize("kind", ["fock", "coherent"])
def test_a_coarse_certificate_that_fails_reads_again_and_stays_exact(monkeypatch, kind, n_m):
    """With one candidate scored first, others' bounds reach its score, so the
    coarse stage reads every such candidate in a second call (five reads on
    the paper's grid, not four) and still returns the exhaustive bits."""
    spec = paper_z_spectrum(kind, n_m)
    shapes = []

    def counting(spec, centers, half_width):
        shapes.append(np.shape(centers))
        return read_windows(spec, centers, half_width)

    monkeypatch.setattr(fieldtomo.reconstruct, "_COARSE_SCORED", 1)
    monkeypatch.setattr(fieldtomo.reconstruct, "read_windows", counting)
    assert coupling_outcome(estimate_coupling, spec, (0.5, 2.0)) == coupling_outcome(
        oracles.estimate_coupling, spec, (0.5, 2.0)
    )
    assert shapes[0] == (1, 5) and 1 < shapes[1][0] < 1000 and len(shapes) == 5


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan)])
@pytest.mark.parametrize("scored", [1, fieldtomo.reconstruct._COARSE_SCORED])
def test_a_nan_bin_on_the_comb_is_scored(monkeypatch, scored, bad):
    """A NaN bin on the n = 2 tone is refused with the exhaustive search's
    `ValidationError`, however many candidates are scored first, and before
    any window is read."""
    spec = paper_z_spectrum("coherent", 1000)
    values = spec.values.copy()
    values[round(2.2 * np.sqrt(2.0) / spec.d_omega) + TIMES.size // 2] = bad
    spec = Spectrum(values, spec.delta_t)
    monkeypatch.setattr(fieldtomo.reconstruct, "_COARSE_SCORED", scored)
    expected = coupling_outcome(oracles.estimate_coupling, spec, (0.5, 2.0))
    assert expected[0] is ValidationError and "NaN or infinite bin" in expected[1]
    monkeypatch.setattr(fieldtomo.reconstruct, "read_windows",
                        lambda *args: pytest.fail("read a window"))
    assert coupling_outcome(estimate_coupling, spec, (0.5, 2.0)) == expected


@pytest.mark.parametrize("damage", ["all-nan", "inf-bin", "inf-bin-off-the-comb"])
def test_estimate_coupling_refuses_a_non_finite_spectrum(monkeypatch, damage):
    """An all-NaN spectrum, or one infinite bin, on the n = 2 tone or off the
    comb, raises `ValidationError` before any window is read: a NaN score
    drops out of the argmax, and an all-NaN spectrum used to return
    ``(0.5, 0.0)``.  A single NaN bin is covered above."""
    spec = paper_z_spectrum("coherent", 1000)
    values = spec.values.copy()
    tone = round(2.2 * np.sqrt(2.0) / spec.d_omega) + TIMES.size // 2
    if damage == "all-nan":
        values[:] = np.nan
    else:
        values[7 if damage.endswith("off-the-comb") else tone] = complex(np.inf, 0.0)
    spec = Spectrum(values, spec.delta_t)
    monkeypatch.setattr(fieldtomo.reconstruct, "read_windows",
                        lambda *args: pytest.fail("read a window"))
    with pytest.raises(ValidationError, match="NaN or infinite bin"):
        estimate_coupling(spec)

def stacked_spectra(n_records=2):
    """`dft` spectra, by axis, of an ``(n_records, N)`` stack of finite-shot
    coherent-state records."""
    plan = MeasurementPlan(delta_t=0.075, n_t=TIMES.size, n_m=100, seed=3)
    rho = density_from_pure(coherent_state(0.6, 12))
    records = sample_records(rho, 1.0, plan, n_records)
    return {axis: dft(rec, DT) for axis, rec in records.items()}


def test_estimate_coupling_refuses_a_stack():
    with pytest.raises(ValidationError, match="one record, not a stack"):
        estimate_coupling(stacked_spectra()["z"])


@pytest.mark.parametrize("axes", ["z", "zxy"])
def test_reconstruct_from_spectra_refuses_a_stack(axes):
    stack = stacked_spectra()
    specs = [stack[axis] for axis in axes]
    with pytest.raises(ValidationError, match="one record, not a stack"):
        reconstruct_from_spectra(1.0, *specs)


def test_coherences_from_xy_refuses_a_stack():
    stack = stacked_spectra()
    with pytest.raises(ValidationError, match="one record, not a stack"):
        coherences_from_xy(stack["x"], stack["y"], 1.0, 8)


def paper_state2_spectra(n_t: int, delta_t: float = 0.075):
    """Ideal z, x and y spectra of `paper-state2` at g = 1 on ``n_t`` points."""
    rho = density_from_pure(superposition([(1, 0.7071067811865476), (2, 0.5 + 0.5j)], 8))
    traj = ideal_bloch_trajectory(rho, 1.0, delta_t, n_t)
    return dft(traj.z, delta_t), dft(traj.x, delta_t), dft(traj.y, delta_t)


@pytest.mark.parametrize(
    "n_t, delta_t", [(1024, 0.075), (256, 0.075), (4096, float(np.nextafter(0.075, 1.0)))]
)
def test_x_and_y_spectra_on_two_grids_are_refused(n_t, delta_t):
    """The x/y windows and gains are placed on x's grid, so a y spectrum on
    another grid, shorter or one ulp of delta_t away, is a `GridError`
    naming both grids, from every entry point."""
    spec_z, spec_x, _ = paper_state2_spectra(4096)
    spec_y = paper_state2_spectra(n_t, delta_t)[2]
    assert (spec_y.n_t, spec_y.delta_t) != (spec_x.n_t, spec_x.delta_t)
    calls = [
        lambda: coherences_from_xy(spec_x, spec_y, 1.0, 8, 4),
        lambda: reconstruct_from_spectra(1.0, spec_z, spec_x, spec_y, n_max=8, half_width=4),
        lambda: peak_report(1.0, 8, spec_z, spec_x, spec_y, half_width=4),
    ]
    grids = re.escape(f"{(4096, spec_x.delta_t)} and {(n_t, spec_y.delta_t)}")
    for call in calls:
        with pytest.raises(GridError, match=grids):
            call()


def test_estimator_plans_are_built_once_per_grid_and_cannot_be_written():
    """A reconstruction repeated on one grid and comb builds one z plan and
    one x/y plan, and its z floor finds the z plan of its solve; a plan's
    windows are a tuple, its placement and free bins those of its window
    centres and tones, and its arrays read-only."""
    spec_z, spec_x, spec_y = paper_state2_spectra(4096)
    freqs = comb_frequencies(1.0, 8)
    memos = (fieldtomo.reconstruct._z_plan, fieldtomo.reconstruct._xy_plan)
    for memo in memos:
        memo.cache_clear()
    for _ in range(2):
        reconstruct_from_spectra(1.0, spec_z, spec_x, spec_y, n_max=8, half_width=4)
    assert [(m.cache_info().misses, m.cache_info().hits) for m in memos] == [(1, 3), (1, 1)]
    band = np.concatenate((freqs["sum"], freqs["diff"]))
    # The floors leave out every tone of the model, read or not: DC and +-c
    # on z, +-c of both bands on x and y.
    plans = [(memos[0](4096, spec_z.delta_t, 1.0, 8, 4), np.r_[0.0, freqs["z"], -freqs["z"]]),
             (memos[1](4096, spec_x.delta_t, 1.0, 8, 4), np.r_[band, -band])]
    for (windows, placed, *arrays), tones in plans:
        assert isinstance(windows, tuple) and isinstance(placed, tuple)
        cold = spectral._place(4096, spec_z.d_omega, [w.center for w in windows], 4)
        assert [a.tobytes() for a in placed] == [a.tobytes() for a in cold]
        free = spectral._free_bins(4096, spec_z.d_omega, tones, 4)
        assert arrays[-1].tobytes() == free.tobytes()
        for a in (*placed, *arrays):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0


@pytest.mark.parametrize("estimator", ["z", "xy"])
def test_a_colliding_comb_is_refused_alike_twice_and_never_cached(estimator):
    """A plan whose windows collide raises the same refusal on every call
    and leaves no entry behind."""
    spec_z, spec_x, spec_y = paper_state2_spectra(4096)
    memo = getattr(fieldtomo.reconstruct, f"_{estimator}_plan")
    memo.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(ResolvabilityError) as err:
            if estimator == "z":
                populations_from_z(spec_z, 1.0, 8, 300)
            else:
                coherences_from_xy(spec_x, spec_y, 1.0, 8, 300)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "pairs, 10 named" in messages[0]
    assert memo.cache_info().currsize == 0


FOCK1, G1 = density_from_pure(fock_state(1, 8)), 1.0


def fock1_record() -> BlochTrajectory:
    """The ideal x, y and z record of |1> at g = 1 on the paper grid."""
    return ideal_bloch_trajectory(FOCK1, G1, DT, N_T)


SHORT = dft(np.cos(np.arange(1, 257)), 0.1)
SIMULATORS = {
    "ideal_bloch_trajectory": lambda g: ideal_bloch_trajectory(FOCK1, g, DT, N_T),
    "sample_records": lambda g: sample_records(FOCK1, g, MeasurementPlan(DT, N_T, n_m=10)),
    "bloch_components": lambda g: bloch_components([0.5, 0.5], [0.1], g, DT, N_T),
}
# (call, bad value, valid value): the valid value hashes equal to the bad
# one where one does (2 for 2.0), so a warm memo would serve its entry.
HOSTILE_LIBRARY_INPUTS = {
    **{f"{name}-g-{bad}": (call, bad, 1.0)
       for name, call in SIMULATORS.items()
       for bad in ("1", None, np.nan, np.inf, 0.0, -1.0, 1e308)
       # the forward model is defined for any real g: 0 and -1 are valid there
       if name != "bloch_components" or bad not in (0.0, -1.0)},
    "dft-step-1e-308": (lambda dt: dft(np.zeros(4), dt), 1e-308, 0.1),
    "reconstruct_state-g-inf": (lambda g: reconstruct_state(fock1_record(), g), np.inf, 1.0),
    "reconstruct_state-g-1e306": (lambda g: reconstruct_state(fock1_record(), g), 1e306, 1.0),
    "reconstruct_state-g-1e308": (lambda g: reconstruct_state(fock1_record(), g), 1e308, 1.0),
    "coherences_from_xy-g-1e307": (
        lambda g: coherences_from_xy(*spectra_for(FOCK1, G1)[1:], g, 8, 4), 1e307, 1.0),
    "reconstruct_state-n_max-2.5": (
        lambda n: reconstruct_state(fock1_record(), 1.0, n_max=n), 2.5, 2),
    "reconstruct_state-n_max-8.0": (
        lambda n: reconstruct_state(fock1_record(), 1.0, n_max=n), 8.0, 8),
    "populations_from_z-half_width-2.0": (
        lambda hw: populations_from_z(spectra_for(FOCK1, G1)[0], 1.0, 8, hw), 2.0, 2),
    "coherences_from_xy-half_width-2.0": (
        lambda hw: coherences_from_xy(*spectra_for(FOCK1, G1)[1:], 1.0, 8, hw), 2.0, 2),
    "validate_windows-centre-nan": (
        lambda c: validate_windows([("a", c)], 1, SHORT), np.nan, 0.0),
    "validate_windows-centre-inf": (
        lambda c: validate_windows([("a", c)], 1, SHORT), np.inf, 0.0),
    "noise_floor-centre-nan": (lambda c: noise_floor(SHORT, [c], 1), np.nan, 0.0),
    "noise_floor-half_width-1.5": (lambda hw: noise_floor(SHORT, [0.0], hw), 1.5, 1),
    "max_half_width-centre-inf": (lambda c: max_half_width([0.0, c], SHORT), np.inf, 1.0),
    "read_windows-half_width-1.0": (lambda hw: read_windows(SHORT, [0.0], hw), 1.0, 1),
    "window_gains-half_width-1.0": (
        lambda hw: window_gains(SHORT, [0.0], [0.0], hw), 1.0, 1),
    "dft-step-None": (lambda dt: dft(np.ones(4), dt), None, 0.1),
    "dft-step-str-abc": (lambda dt: dft(np.ones(4), dt), "abc", 0.1),
    "dft-step-str-0.1": (lambda dt: dft(np.ones(4), dt), "0.1", 0.1),
    "Spectrum-step-str-0.1": (lambda dt: Spectrum(np.ones(4), dt), "0.1", 0.1),
    "time_grid-step-None": (lambda dt: time_grid(dt, 4), None, 0.1),
    "BlochTrajectory-step-None": (lambda dt: BlochTrajectory(dt, z=np.zeros(4)), None, 0.1),
    "MeasurementPlan-n_t-str-4": (lambda n: MeasurementPlan(delta_t=0.1, n_t=n), "4", 4),
    **{f"sample_records-n_records-{name}": (
        lambda n: sample_records(FOCK1, G1, MeasurementPlan(DT, 64, n_m=10), n), bad, 1)
       for name, bad in (("str-abc", "abc"), ("None", None), ("1e20", 10**20))},
    **{f"MeasurementPlan-{field}-{name}": (
        lambda v, field=field: MeasurementPlan(DT, 64, **{field: v}), bad, valid)
       for field, name, bad, valid in (
           ("gamma", "str-abc", "abc", 0.0), ("gamma", "None", None, 0.0),
           ("n_m", "str-abc", "abc", 10), ("n_m", "1e400", 10**400, 10),
           ("axes", "None", None, ("z",)))},
    **{f"ideal_bloch_trajectory-axes-{name}": (
        lambda a: ideal_bloch_trajectory(FOCK1, G1, DT, 64, a), bad, ("z",))
       for name, bad in (("None", None), ("x-x", ("x", "x")))},
    **{f"DceConfig-{field}-{name}": (
        lambda v, field=field: DceConfig(**{"g_over_omega": 0.5, "tau": 1.0, field: v}),
        bad, valid)
       for field, name, bad, valid in (
           ("cutoff", "2.5", 2.5, 3), ("cutoff", "str-3", "3", 3),
           ("cutoff", "1e400", 10**400, 3), ("omega", "str-1", "1", 1.0),
           ("tau", "None", None, 1.0), ("g_over_omega", "1e400", 10**400, 0.5))},
    "comb_frequencies-n_max-1e400": (lambda n: comb_frequencies(G1, n), 10**400, 8),
    **{f"window_gains-tone-{bad}": (
        lambda t: window_gains(spectra_for(FOCK1, G1)[0], [0.0], [t], 1), bad, 0.0)
       for bad in (1e308, 1e306, np.nan)},
    # The state generators: the cutoff and Fock-index rules, and each argument.
    **{f"fock_state-{field}-{name}": (
        lambda v, field=field: fock_state(**{"n": 1, "cutoff": 3, field: v}), bad, valid)
       for field, name, bad, valid in (
           ("cutoff", "2.5", 2.5, 3), ("n", "1.5", 1.5, 1), ("n", "str-1", "1", 1),
           ("cutoff", "None", None, 3), ("cutoff", "1e400", 10**400, 3),
           ("n", "1.0", 1.0, 1), ("n", "1e5000", 10**5000, 1))},
    **{f"superposition-terms-{name}": (lambda t: superposition(t, 3), bad, [(1, 1.0)])
       for name, bad in (("amplitude-str-x", [(1, "x")]), ("index-str-a", [("a", 1)]),
                         ("index-1.5", [(1.5, 1.0)]), ("index-1e5000", [(10**5000, 1)]),
                         ("amplitude-1e400", [(1, 10**400)]))},
    **{f"superposition-cutoff-{name}": (
        lambda c: superposition([(1, 1.0)], c), bad, 3)
       for name, bad in (("2.5", 2.5), ("1e400", 10**400))},
    **{f"coherent_state-{field}-{name}": (
        lambda v, field=field: coherent_state(**{"alpha": 0.5, "cutoff": 8, field: v}),
        bad, valid)
       for field, name, bad, valid in (
           ("alpha", "str-abc", "abc", 0.5), ("alpha", "None", None, 0.5),
           ("alpha", "str-0.5", "0.5", 0.5), ("cutoff", "None", None, 8),
           ("cutoff", "1e400", 10**400, 8),
           ("alpha", "parts-1.7e308", complex(1.7e308, 1.7e308), 0.5))},
    **{f"embed-cutoff-{bad}": (lambda c: embed(fock_state(1, 3), c), bad, 5)
       for bad in (3.5, None)},
    "FieldState-str-abc": (FieldState, "abc", [1.0, 0.0]),
    "FieldState-str-1-x": (FieldState, ["1", "x"], [1.0, 0.0]),
    "DensityMatrix-str-abc": (DensityMatrix, "abc", np.diag([1.0, 0.0])),
    "JointState-str-abcd": (JointState, "abcd", [1.0, 0.0, 0.0, 0.0]),
    # An integer too long to print is refused, not lost to its own message.
    "MeasurementPlan-n_m-1e5000": (lambda n: MeasurementPlan(DT, 64, n_m=n), 10**5000, 10),
    "time_grid-n_t-1e5000": (lambda n: time_grid(0.1, n), 10**5000, 4),
    "DceConfig-g_over_omega-1e5000": (lambda g: DceConfig(g, 1.0), 10**5000, 0.5),
    "comb_frequencies-n_max-1e5000": (lambda n: comb_frequencies(G1, n), 10**5000, 8),
    # The population-floor rule.
    **{f"reconstruct_state-population_floor-{name}": (
        lambda f: reconstruct_state(fock1_record(), 1.0, population_floor=f), bad, 1e-3)
       for name, bad in (("nan", np.nan), ("inf", np.inf), ("-1.0", -1.0),
                         ("str-abc", "abc"), ("None", None))},
    "chain_phases-population_floor-nan": (
        lambda f: chain_phases(np.ones(2), np.ones(1), f), np.nan, 1e-3),
}


@pytest.mark.parametrize("call, bad, valid", HOSTILE_LIBRARY_INPUTS.values(),
                         ids=list(HOSTILE_LIBRARY_INPUTS))
def test_hostile_library_inputs_are_typed_refusals_cold_and_warm(call, bad, valid):
    """Each bad input raises a `FieldTomoError` and no warning, with the
    estimator plan and trig row memos empty and again, of the same type, after
    a valid call has filled them: a refusal does not depend on what a memo
    holds."""
    for memo in (fieldtomo.reconstruct._z_plan, fieldtomo.reconstruct._xy_plan,
                 probe_mod._trig_rows):
        memo.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldTomoError) as cold:
            call(bad)
        call(valid)
        with pytest.raises(FieldTomoError) as warm:
            call(bad)
    assert type(warm.value) is type(cold.value)


def test_a_numpy_integer_n_max_builds_the_z_plan_once():
    """The solve and the z floor key the z plan memo by the one ``n_max`` the
    caller gave, so a numpy-integer ``n_max`` builds the plan once per
    reconstruction, as a Python int does."""
    memo = fieldtomo.reconstruct._z_plan
    for n_max in (8, np.int64(8)):
        memo.cache_clear()
        reconstruct_state(fock1_record(), 1.0, n_max=n_max)
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 1), type(n_max)
