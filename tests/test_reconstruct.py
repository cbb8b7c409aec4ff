import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldtomo.reconstruct
from oracles import cosine_pair, coupling_scores, golden_section_coupling
from fieldtomo.exceptions import EstimationError, ValidationError
from fieldtomo.fock import DensityMatrix, density_from_pure, fock_state
from fieldtomo.measurement import MeasurementPlan, sample_trajectory
from fieldtomo.probe import BlochTrajectory, ProbeConfig, ideal_bloch_trajectory, time_grid
from fieldtomo.reconstruct import (
    TRACE_TOLERANCE,
    estimate_coupling,
    peak_report,
    reconstruct_from_spectra,
    reconstruct_state,
)
from fieldtomo.spectral import (
    Spectrum,
    comb_frequencies,
    dft,
    read_spectrum_csv,
    read_windows,
    write_spectrum_csv,
)
from fieldtomo.states import coherent_state, superposition

TIMES = time_grid(0.075, 4096)


def spectra_for(rho, probe):
    traj = ideal_bloch_trajectory(rho, probe, TIMES)
    return (
        dft(traj.z, TIMES),
        dft(traj.x, TIMES),
        dft(traj.y, TIMES),
    )


def test_ideal_equal_superposition_with_phase(probe, state_two):
    rho = density_from_pure(state_two)
    traj = ideal_bloch_trajectory(rho, probe, TIMES)
    res = reconstruct_state(traj, g=probe.g)
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


def test_fidelity_against_reference(probe, state_two):
    rho = density_from_pure(state_two)
    traj = ideal_bloch_trajectory(rho, probe, TIMES)
    res = reconstruct_state(traj, g=probe.g, reference=state_two)
    assert res.fidelity_vs_reference == pytest.approx(1.0, abs=1e-6)
    assert res.state is not None


def test_global_phase_invariance(probe, state_two):
    rotated = superposition(
        [(n, a * np.exp(0.7j)) for n, a in enumerate(state_two.amplitudes) if a != 0],
        state_two.cutoff,
    )
    r1 = reconstruct_state(
        ideal_bloch_trajectory(density_from_pure(state_two), probe, TIMES), g=probe.g
    )
    r2 = reconstruct_state(
        ideal_bloch_trajectory(density_from_pure(rotated), probe, TIMES), g=probe.g
    )
    assert np.allclose(r1.populations, r2.populations, atol=1e-12)
    assert np.allclose(r1.coherences, r2.coherences, atol=1e-12)
    assert np.allclose(r1.phases, r2.phases, atol=1e-9)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_fock_state_flat_xy_and_unit_z_area(probe, n):
    rho = density_from_pure(fock_state(n, 8))
    traj = ideal_bloch_trajectory(rho, probe, TIMES)
    assert np.max(np.abs(traj.x)) < 1e-6
    assert np.max(np.abs(traj.y)) < 1e-6
    spec_z = dft(traj.z, TIMES)
    omega = 2.0 * probe.g * np.sqrt(n)
    # raw combined window area recovers the full population weight
    assert cosine_pair(spec_z, omega, 4) == pytest.approx(1.0, abs=2e-3)


def test_mixed_state_diagonal_and_superdiagonal(probe):
    a = superposition([(0, 0.6), (1, 0.8)], 8)
    b = superposition([(1, 0.8j), (2, 0.6)], 8)
    mat = 0.5 * np.outer(a.amplitudes, a.amplitudes.conj())
    mat = mat + 0.5 * np.outer(b.amplitudes, b.amplitudes.conj())
    rho = DensityMatrix(mat)
    traj = ideal_bloch_trajectory(rho, probe, TIMES)
    res = reconstruct_state(traj, g=probe.g)
    diag = rho.diagonal()
    assert np.max(np.abs(res.populations - diag)) < 2e-3
    reported = np.asarray(res.coherences)[: diag.size - 1]
    assert np.max(np.abs(reported - np.conj(rho.superdiagonal()))) < 2e-3


def test_round_trip_random_states(probe):
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
        traj = ideal_bloch_trajectory(density_from_pure(state), probe, TIMES)
        res = reconstruct_state(traj, g=probe.g, reference=state)
        worst = min(worst, res.fidelity_vs_reference)
    assert worst >= 1.0 - 1e-4


def test_negative_population_clamp(probe):
    rho = density_from_pure(fock_state(1, 8))
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, n_m=30, axes=("z",), seed=0)
    res = reconstruct_state(sample_trajectory(rho, probe, plan), g=probe.g)
    assert min(res.diagnostics["raw_populations"]) < 0
    assert np.min(res.populations) >= 0.0
    assert any("clamped" in w for w in res.warnings)


def test_cauchy_schwarz_consistency_warning(probe, alpha_state):
    rho = density_from_pure(alpha_state)
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, n_m=100, seed=0)
    res = reconstruct_state(sample_trajectory(rho, probe, plan), g=probe.g)
    assert any("exceeds" in w for w in res.warnings)


def test_trace_deficit_reported_for_truncated_read(probe):
    rho = density_from_pure(coherent_state(2.0, 20))
    traj = ideal_bloch_trajectory(rho, probe, TIMES)
    res = reconstruct_state(traj, g=probe.g, n_max=8)
    tail = 1.0 - np.sum(rho.diagonal()[:9])
    assert res.trace_deficit == pytest.approx(tail, abs=1e-3)
    assert any("trace" in w for w in res.warnings)


def test_truncation_above_n_max_is_partial(probe):
    # |alpha| = 2.5 puts 18 % of the weight above n_max = 8.
    state = coherent_state(2.5, 30)
    traj = ideal_bloch_trajectory(density_from_pure(state), probe, TIMES)
    res = reconstruct_state(traj, g=probe.g, n_max=8, reference=state)
    assert res.trace_deficit > TRACE_TOLERANCE
    assert res.partial
    assert res.chain_breaks == [] and res.phase_defined.all()


def test_nothing_above_the_population_floor_is_partial(probe, state_two):
    traj = ideal_bloch_trajectory(density_from_pure(state_two), probe, TIMES)
    res = reconstruct_state(traj, g=probe.g, population_floor=2.0)
    assert res.state is None
    assert not res.phase_defined.any() and res.chain_breaks == []
    assert res.partial


def test_chain_break_detection(probe):
    state = superposition([(0, 1.0), (2, 1.0)], 8)
    traj = ideal_bloch_trajectory(density_from_pure(state), probe, TIMES)
    res = reconstruct_state(traj, g=probe.g)
    assert res.chain_breaks == [1]
    assert res.partial
    assert res.phase_defined[0]
    assert not res.phase_defined[1]
    assert not res.phase_defined[2]
    assert res.phases[0] == pytest.approx(0.0, abs=1e-9)
    assert res.populations[0] == pytest.approx(0.5, abs=1e-6)
    assert res.populations[2] == pytest.approx(0.5, abs=1e-6)


def test_difference_band_read_and_averaged(probe, state_two):
    # with only two coherence tones the difference band fits on the grid,
    # so rho[2,1] comes from averaging both bands
    rho = density_from_pure(state_two)
    spec_z, spec_x, spec_y = spectra_for(rho, probe)
    res = reconstruct_from_spectra(
        probe.g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2
    )
    assert res.diagnostics["diff_band_read"] == [False, True]
    assert res.diagnostics["band_disagreement"][0] is None
    assert res.diagnostics["band_disagreement"][1] < 5e-3
    expected = 0.5 * np.exp(1j * np.pi / 4)
    assert res.coherences[1] == pytest.approx(expected, abs=1e-4)


def test_ideal_difference_band_agrees_without_warning(probe, state_two):
    # Raw sum and difference reads differ by ~1.7e-3 of cross-tone
    # leakage here; once the modelled leakage is out, the bands agree.
    spec_z, spec_x, spec_y = spectra_for(density_from_pure(state_two), probe)
    res = reconstruct_from_spectra(
        probe.g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2
    )
    assert res.diagnostics["band_disagreement"][1] < 1e-12
    assert res.warnings == []


def test_tone_in_a_difference_window_still_warns(probe, state_two):
    spec_z, spec_x, spec_y = spectra_for(density_from_pure(state_two), probe)
    w = comb_frequencies(probe.g, 2)["diff"][1]
    extra = dft(1e-3 * np.sin(w * TIMES), TIMES)
    spec_x = Spectrum(spec_x.freqs, spec_x.values + extra.values, spec_x.delta_t)
    res = reconstruct_from_spectra(
        probe.g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2
    )
    assert any("bands disagree for rho[1,2]" in msg for msg in res.warnings)


def finite_shot_bands(rho, probe, seed, tone=0.0):
    """Whether the rho[1,2] band check warns on a n_m = 1000 record, with
    ``tone sin(w t)`` added to x at the n = 1 difference-band frequency w."""
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, n_m=1000, seed=seed)
    traj = sample_trajectory(rho, probe, plan)
    spec_z, spec_x, spec_y = (dft(getattr(traj, a), TIMES) for a in "zxy")
    w = comb_frequencies(probe.g, 2)["diff"][1]
    extra = dft(tone * np.sin(w * TIMES), TIMES)
    spec_x = Spectrum(spec_x.freqs, spec_x.values + extra.values, spec_x.delta_t)
    res = reconstruct_from_spectra(probe.g, spec_z, spec_x=spec_x, spec_y=spec_y, n_max=2)
    assert res.diagnostics["diff_band_read"] == [False, True]
    return any("bands disagree for rho[1,2]" in msg for msg in res.warnings)


def test_band_check_is_calibrated_to_finite_shot_noise(probe, state_two):
    """Shot noise alone: the 3 sigma_d threshold flags a band with
    probability e^-9, so at most one of 40 seeds may warn."""
    rho = density_from_pure(state_two)
    assert sum(finite_shot_bands(rho, probe, seed) for seed in range(40)) <= 1


def test_band_check_flags_a_tone_above_shot_noise(probe, state_two):
    # A 0.03 tone is 5.6-9.5 sigma_d here (xi_xy = 6.6e-4, sigma_d = 6 xi_xy).
    rho = density_from_pure(state_two)
    assert all(finite_shot_bands(rho, probe, seed, tone=0.03) for seed in range(10))


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
    traj = ideal_bloch_trajectory(density_from_pure(state), ProbeConfig(g=g), TIMES)
    res = reconstruct_state(traj, g=g, n_max=n_max, reference=state)
    assert res.warnings == []
    assert res.fidelity_vs_reference >= 1.0 - 1e-9


def test_z_only_reconstruction_is_partial(probe, state_two):
    rho = density_from_pure(state_two)
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, axes=("z",))
    res = reconstruct_state(sample_trajectory(rho, probe, plan), g=probe.g)
    assert res.coherences is None
    assert res.state is None
    assert res.partial
    assert res.populations[1] == pytest.approx(0.5, abs=1e-6)


def test_z_axis_required(probe):
    rho = density_from_pure(fock_state(1, 8))
    traj = ideal_bloch_trajectory(rho, probe, TIMES)
    x_only = BlochTrajectory(times=TIMES, x=traj.x, y=None, z=None)
    with pytest.raises(ValidationError, match="z axis"):
        reconstruct_state(x_only, g=probe.g)


def test_x_and_y_must_come_together(probe, state_two):
    spec_z, spec_x, _ = spectra_for(density_from_pure(state_two), probe)
    with pytest.raises(ValidationError):
        reconstruct_from_spectra(probe.g, spec_z, spec_x=spec_x, spec_y=None)


def test_peak_report_raw_window_areas(probe):
    rho = density_from_pure(fock_state(1, 8))
    spec_z, spec_x, spec_y = spectra_for(rho, probe)
    report = peak_report(probe.g, 3, spec_z, spec_x, spec_y)
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


def test_estimate_coupling_across_states_and_couplings(probe):
    tol = np.pi / TIMES[-1]
    rho_f = density_from_pure(fock_state(1, 8))
    for g in (0.8, 1.0, 1.3):
        traj = ideal_bloch_trajectory(rho_f, ProbeConfig(g=g), TIMES)
        g_hat, score = estimate_coupling(dft(traj.z, TIMES))
        assert abs(g_hat - g) < tol
        assert score > 0
    rho_c = density_from_pure(coherent_state(0.7 * np.exp(1j * np.pi / 3), 12))
    traj = ideal_bloch_trajectory(rho_c, probe, TIMES)
    g_hat, _ = estimate_coupling(dft(traj.z, TIMES))
    assert abs(g_hat - 1.0) < tol


def test_estimate_coupling_refuses_pure_noise():
    rng = np.random.default_rng(7)
    spec = dft(rng.normal(0.0, 0.02, TIMES.size), TIMES)
    with pytest.raises(EstimationError):
        estimate_coupling(spec)


@pytest.mark.parametrize("g", [0.8, 1.0, 1.3])
@pytest.mark.parametrize("kind", ["fock", "coherent"])
def test_estimate_coupling_matches_the_golden_section_oracle(kind, g):
    if kind == "fock":
        state = fock_state(1, 8)
    else:
        state = coherent_state(0.7 * np.exp(1j * np.pi / 3), 12)
    traj = ideal_bloch_trajectory(density_from_pure(state), ProbeConfig(g=g), TIMES)
    spec = dft(traj.z, TIMES)
    assert abs(estimate_coupling(spec)[0] - golden_section_coupling(spec)) <= 1e-7


def test_estimate_coupling_on_sampled_records(tmp_path):
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
        traj = sample_trajectory(density_from_pure(state), ProbeConfig(g=g), plan)
        spec = dft(traj.z, traj.times)
        g_hat, score = estimate_coupling(spec)
        assert abs(g_hat - g) < tol, seed
        # the one-sided batch score is the two-sided score at g_hat
        assert score == pytest.approx(coupling_scores(spec, g_hat, 5), rel=1e-12, abs=0.0)
        path = tmp_path / "spectrum_z.csv"
        write_spectrum_csv(spec, path)
        assert estimate_coupling(read_spectrum_csv(path))[0] == g_hat, seed


@pytest.mark.parametrize(
    "delta_t, g, search_range, max_reads",
    [
        (0.075, 1.0, (0.5, 2.0), 4),  # the default range on the paper's grid
        (1e-12, 1.5e11, (1e11, 2e11), 16),  # 1e-7 is below the float spacing of g
    ],
)
def test_estimate_coupling_window_reads(monkeypatch, delta_t, g, search_range, max_reads):
    times = time_grid(delta_t, 4096)
    spec = dft(np.cos(2.0 * g * times), times)  # a Fock |1> z record
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        assert len(calls) <= max_reads  # fails a search that never stops, not hangs
        return read_windows(*args, **kwargs)

    monkeypatch.setattr(fieldtomo.reconstruct, "read_windows", counting)
    g_hat, _ = estimate_coupling(spec, search_range)
    assert abs(g_hat - g) < np.pi / times[-1]
