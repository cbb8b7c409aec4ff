from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import cosine_pair, sine_pair
from fieldtomo import spectral
from fieldtomo.exceptions import FieldTomoError, GridError, ResolvabilityError, ValidationError
from fieldtomo.fock import density_from_pure, fock_state
from fieldtomo.measurement import MeasurementPlan, sample_records, sample_trajectory
from fieldtomo.probe import ProbeConfig, time_grid
from fieldtomo.states import coherent_state
from fieldtomo.spectral import (
    Spectrum,
    comb_frequencies,
    dft,
    integrate_peak,
    max_half_width,
    noise_floor,
    read_spectrum_csv,
    read_windows,
    validate_windows,
    window_gains,
    write_spectrum_csv,
)
from fieldtomo.reconstruct import _z_floor, _z_windows, populations_from_z

# Grid that parks 2 Omega_1 = 2 exactly on a bin: total duration 20 pi.
ONBIN_NT = 512
ONBIN_DT = 20.0 * np.pi / ONBIN_NT


def onbin_fock_spectrum(n_m=None, seed=0, probe=None):
    from fieldtomo.probe import ProbeConfig

    probe = probe or ProbeConfig(g=1.0)
    plan = MeasurementPlan(
        delta_t=ONBIN_DT, n_t=ONBIN_NT, n_m=n_m, axes=("z",), seed=seed
    )
    traj = sample_trajectory(density_from_pure(fock_state(1, 8)), probe, plan)
    return dft(traj.z, traj.times)


def test_dft_constant_is_pure_dc():
    t = time_grid(0.1, 64)
    spec = dft(np.ones(64), t)
    dc = spec.values[spec.n_t // 2]
    assert dc == pytest.approx(1.0, abs=1e-14)
    others = np.delete(spec.values, spec.n_t // 2)
    assert np.max(np.abs(others)) < 1e-13


def test_dft_onbin_cosine_two_half_bins():
    spec = onbin_fock_spectrum()  # ideal z = cos(2t) with 2 on-bin
    dw = spec.d_omega
    idx = spec.n_t // 2 + int(round(2.0 / dw))
    assert spec.values[idx] == pytest.approx(0.5, abs=1e-13)
    assert spec.values[spec.n_t - idx] == pytest.approx(0.5, abs=1e-13)
    # everything else is orthogonal to the grid: numerically zero
    mask = np.ones(spec.n_t, dtype=bool)
    mask[[idx, spec.n_t - idx]] = False
    assert np.max(np.abs(spec.values[mask])) < 1e-13


def test_dft_rejects_bad_grids():
    for times in (
        [0.1, 0.2, 0.4, 0.5],
        [0.0, 0.1, 0.2, 0.3],  # contains t = 0
        [np.nan] * 4,
        [0.1, 0.2, np.nan, 0.4],
        [0.1, 0.2, 0.3, np.inf],
        [np.inf] * 4,
        [0.1],  # one sample: no spectrum
        [np.nan],
    ):
        with pytest.raises(GridError):
            dft(np.zeros(len(times)), np.array(times))


def test_parseval_and_hermitian_symmetry():
    rng = np.random.default_rng(0)
    t = time_grid(0.075, 1024)
    for _ in range(5):
        s = rng.uniform(-1.0, 1.0, size=t.size)
        spec = dft(s, t)
        assert oracles.parseval_defect(spec, s) < 1e-10
        assert oracles.hermitian_defect(spec) < 1e-12


def test_integrate_peak_exact_for_onbin_tone():
    t = time_grid(0.075, 512)
    omega = 20 * 2.0 * np.pi / (512 * 0.075)
    spec = dft(0.8 * np.cos(omega * t + 0.3), t)
    est = integrate_peak(spec, omega, 4)
    assert est.area == pytest.approx(0.4 * np.exp(0.3j), abs=1e-13)


def test_integrate_peak_offbin_tone_within_raw_budget():
    # the +/- mirror leaks into a raw single-window read; for well
    # separated tones that residual stays below the 1e-3 budget
    t = time_grid(0.075, 4096)
    for omega, amp, phase in ((1.77, 0.43, 0.9), (2.0 * np.sqrt(2), 0.5, -1.2)):
        s = amp * np.cos(omega * t + phase)
        spec = dft(s, t)
        est = integrate_peak(spec, omega, 4)
        expected = 0.5 * amp * np.exp(1j * phase)
        assert est.area == pytest.approx(expected, abs=1e-3)
        est_neg = integrate_peak(spec, -omega, 4)
        assert est_neg.area == pytest.approx(np.conj(expected), abs=1e-3)


@settings(deadline=None, max_examples=20)
@given(
    omega=st.floats(min_value=1.0, max_value=15.0),
    amp=st.floats(min_value=0.05, max_value=1.0),
    phase=st.floats(min_value=-3.0, max_value=3.0),
)
def test_integrate_peak_subbin_offsets_stay_bounded(omega, amp, phase):
    t = time_grid(0.075, 2048)
    spec = dft(amp * np.cos(omega * t + phase), t)
    est = integrate_peak(spec, omega, 4)
    # worst measured residual over this range is 3.3e-3 for amp = 1
    assert abs(est.area - 0.5 * amp * np.exp(1j * phase)) < 5e-3 * amp


def test_pair_helpers_read_cos_and_sin_amplitudes():
    t = time_grid(0.11, 2048)
    omega = 1.3003
    spec_c = dft(0.62 * np.cos(omega * t), t)
    assert cosine_pair(spec_c, omega, 4) == pytest.approx(0.62, abs=3e-3)
    spec_s = dft(-0.37 * np.sin(omega * t), t)  # convention: -A sin -> A
    assert sine_pair(spec_s, omega, 4) == pytest.approx(0.37, abs=3e-3)
    # a pure cosine has little sine-quadrature content and vice versa
    assert abs(sine_pair(spec_c, omega, 4)) < 3e-3
    assert abs(cosine_pair(spec_s, omega, 4)) < 3e-3


def test_cosine_pair_dc_reads_constant_offset():
    t = time_grid(0.075, 1024)
    spec = dft(0.25 + 0.5 * np.cos(2.0 * t), t)
    assert cosine_pair(spec, 0.0, 4) == pytest.approx(0.25, abs=2e-3)


def test_integrate_peak_off_grid_window():
    t = time_grid(0.1, 64)
    spec = dft(np.cos(t), t)
    nyquist = np.pi / 0.1
    with pytest.raises(GridError):
        integrate_peak(spec, nyquist * 0.99, 4)


def test_raw_combined_area_at_default_grid():
    # off-bin generic case: raw windowed pair still lands within 1e-3
    t = time_grid(0.075, 4096)
    spec = dft(np.cos(2.0 * t), t)
    assert cosine_pair(spec, 2.0, 4) == pytest.approx(1.0, abs=1e-3)


def test_noise_floor_vanishes_without_sampling_noise():
    spec = onbin_fock_spectrum(n_m=None)
    excl = [(0.0, 4), (2.0, 4), (-2.0, 4)]
    assert noise_floor(spec, excl) < 1e-10


def test_noise_floor_requires_free_bins():
    spec = onbin_fock_spectrum()
    with pytest.raises(ValidationError):
        noise_floor(spec, [(0.0, spec.n_t)])


def test_noise_floor_scales_inverse_sqrt_shots():
    excl = [(0.0, 4), (2.0, 4), (-2.0, 4)]
    xi_10 = np.mean(
        [noise_floor(onbin_fock_spectrum(n_m=10, seed=s), excl) for s in range(8)]
    )
    xi_1000 = np.mean(
        [noise_floor(onbin_fock_spectrum(n_m=1000, seed=s), excl) for s in range(8)]
    )
    assert xi_1000 / xi_10 == pytest.approx(0.1, rel=0.3)


def test_empty_window_bounded_by_noise_floor():
    spec = onbin_fock_spectrum(n_m=100, seed=4)
    excl = [(0.0, 4), (2.0, 4), (-2.0, 4)]
    xi = noise_floor(spec, excl)
    bound = 3.0 * xi * np.sqrt(9)
    for center in (0.7, 1.3, 2.9, -1.1, -3.3):
        est = integrate_peak(spec, center, 4)
        # windows sums are normalized by the window response (~1), so
        # compare the raw-sum magnitude scale against the white bound
        assert abs(est.area) < bound


def tone_spectrum(omega0: float, amp: complex, n_t: int = 256, delta_t: float = 0.1):
    """Spectrum of the complex tone amp exp(i omega0 t) in the `dft` convention."""
    t = time_grid(delta_t, n_t)
    om = 2.0 * np.pi * np.fft.fftfreq(n_t, d=delta_t)
    vals = np.fft.fft(amp * np.exp(1j * omega0 * t)) / n_t * np.exp(-1j * om * delta_t)
    return Spectrum(np.fft.fftshift(om), np.fft.fftshift(vals), delta_t)


KERNEL_SPEC = dft(
    np.random.default_rng(3).normal(size=512) + np.cos(1.7 * time_grid(0.1, 512)),
    time_grid(0.1, 512),
)
ON_GRID_BINS = KERNEL_SPEC.n_t // 2 - 7  # |bin| + half_width stays on the grid


@settings(deadline=None, max_examples=50)
@given(
    bins=st.lists(
        st.one_of(
            st.just(0.0), st.floats(min_value=-ON_GRID_BINS, max_value=ON_GRID_BINS)
        ),
        min_size=1,
        max_size=12,
    ),
    half_width=st.integers(min_value=0, max_value=6),
)
def test_read_windows_matches_integrate_peak_exactly(bins, half_width):
    centers = np.array(bins) * KERNEL_SPEC.d_omega
    areas = read_windows(KERNEL_SPEC, centers, half_width)
    assert areas.shape == centers.shape
    for c, a in zip(centers, areas):
        assert a == integrate_peak(KERNEL_SPEC, c, half_width).area  # bit for bit


@settings(deadline=None, max_examples=50)
@given(
    m0=st.integers(min_value=-100, max_value=100),
    offset=st.floats(min_value=-0.5, max_value=0.5),
    phase=st.floats(min_value=-3.0, max_value=3.0),
    position=st.integers(min_value=0, max_value=4),
    half_width=st.integers(min_value=0, max_value=6),
)
@example(m0=0, offset=2.2250738585e-313, phase=0.0, position=0, half_width=0)
def test_read_windows_recovers_isolated_tone_in_a_batch(m0, offset, phase, position, half_width):
    spec = tone_spectrum((m0 + offset) * 2.0 * np.pi / (256 * 0.1), 0.7 * np.exp(1j * phase))
    centers = np.linspace(-110.0, 110.0, 5) * spec.d_omega
    centers[position] = (m0 + offset) * spec.d_omega
    areas = read_windows(spec, centers, half_width)
    assert abs(areas[position] - 0.7 * np.exp(1j * phase)) <= 1e-12


@settings(deadline=None, max_examples=30)
@given(
    n_good=st.integers(min_value=0, max_value=8),
    position=st.integers(min_value=0, max_value=8),
    far_bin=st.integers(min_value=KERNEL_SPEC.n_t // 2 - 3, max_value=4 * KERNEL_SPEC.n_t),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_read_windows_rejects_any_off_grid_window(n_good, position, far_bin, sign):
    centers = list(np.linspace(-ON_GRID_BINS, ON_GRID_BINS, n_good) * KERNEL_SPEC.d_omega)
    centers.insert(min(position, n_good), sign * far_bin * KERNEL_SPEC.d_omega)
    with pytest.raises(GridError):
        read_windows(KERNEL_SPEC, np.array(centers), 4)


def test_read_windows_empty_batch():
    areas = read_windows(KERNEL_SPEC, np.array([]), 4)
    assert areas.shape == (0,) and areas.dtype == complex


def test_read_windows_checks_half_width():
    with pytest.raises(ValidationError):
        read_windows(KERNEL_SPEC, [1.0], -1)


@settings(deadline=None, max_examples=60)
@given(
    n_t=st.sampled_from([128, 1023, 4096]),
    half_width=st.integers(min_value=0, max_value=6),
    center_fracs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=5),
    tone_frac=st.floats(min_value=-1.0, max_value=1.0),
    kind=st.sampled_from(["cos", "sin"]),
)
def test_window_gains_match_read_windows_of_a_real_tone(
    n_t, half_width, center_fracs, tone_frac, kind
):
    times = time_grid(0.075, n_t)
    d_omega = 2.0 * np.pi / (n_t * 0.075)
    edge = (n_t // 2 - half_width - 1) * d_omega  # every window stays on the grid
    centers = np.array(center_fracs) * edge
    w = tone_frac * edge
    spec = dft(np.cos(w * times) if kind == "cos" else np.sin(w * times), times)
    # cos wt = (e^{iwt} + e^{-iwt}) / 2,  sin wt = (e^{iwt} - e^{-iwt}) / 2i
    weights = np.array([0.5, 0.5]) if kind == "cos" else np.array([-0.5j, 0.5j])
    predicted = window_gains(spec, centers, [w, -w], half_width) @ weights
    assert np.max(np.abs(read_windows(spec, centers, half_width) - predicted)) <= 1e-12


def test_window_gains_shape_and_unit_diagonal():
    centers = np.array([-1.3, 0.0, 0.4, 2.9])
    gains = window_gains(KERNEL_SPEC, centers, centers, 3)
    assert gains.shape == (4, 4) and gains.dtype == complex
    assert np.allclose(np.diag(gains), 1.0, atol=1e-13)
    with pytest.raises(GridError):
        window_gains(KERNEL_SPEC, [KERNEL_SPEC.n_t * KERNEL_SPEC.d_omega], [1.0], 3)


@pytest.mark.parametrize("g", [1.0, 1.2, 1.5])
def test_populations_from_z_recovers_an_overlapping_comb(g):
    # Short record, narrow windows: the top z tones sit ~5 bins apart, so
    # every read carries large leakage from its neighbours.
    times = time_grid(0.075, 1024)
    freqs = comb_frequencies(g, 6)
    pops = np.random.default_rng(11).uniform(0.0, 1.0, 7)
    signal = pops[0] + sum(
        pops[n] * np.cos(c * times) for n, c in enumerate(freqs["z"], start=1)
    )
    got = populations_from_z(dft(signal, times), freqs, 2)
    assert np.max(np.abs(got - pops)) <= 1e-12


def test_pair_helpers_accept_arrays():
    omegas = np.array([0.0, 1.3, 2.9])
    got = cosine_pair(KERNEL_SPEC, omegas, 4)
    assert list(got) == [cosine_pair(KERNEL_SPEC, float(w), 4) for w in omegas]
    assert list(sine_pair(KERNEL_SPEC, omegas[1:], 4)) == [
        sine_pair(KERNEL_SPEC, float(w), 4) for w in omegas[1:]
    ]
    with pytest.raises(ValidationError):
        sine_pair(KERNEL_SPEC, omegas, 4)  # zero center


def test_comb_frequencies_families():
    freqs = comb_frequencies(1.0, 3)
    assert freqs["z"] == pytest.approx([2.0, 2.0 * np.sqrt(2), 2.0 * np.sqrt(3)])
    assert freqs["sum"][0] == pytest.approx(1.0)
    assert freqs["diff"][0] == freqs["sum"][0]  # the n = 0 sidebands coincide at Omega_1
    assert freqs["diff"][1] == pytest.approx(np.sqrt(2) - 1.0)


def test_validate_windows_passes_on_default_grid():
    t = time_grid(0.075, 4096)
    spec = dft(np.cos(2.0 * t), t)
    windows = [("dc", 0.0)]
    for n, c in enumerate(comb_frequencies(1.0, 8)["z"], start=1):
        windows += [(f"rho[{n},{n}]", c), (f"rho[{n},{n}]", -c)]
    validate_windows(windows, 4, spec)  # must not raise


def test_validate_windows_reports_collisions():
    t = time_grid(0.075, 128)
    spec = dft(np.cos(2.0 * t), t)
    with pytest.raises(ResolvabilityError, match="dc"):
        validate_windows([("dc", 0.0), ("peak", 2.0)], 4, spec)


def test_validate_windows_flags_nyquist_overflow():
    t = time_grid(0.075, 128)
    spec = dft(np.cos(2.0 * t), t)
    with pytest.raises(GridError):
        validate_windows([("fast", 40.0)], 4, spec)


@st.composite
def placed_windows(draw):
    """A grid of odd or even length and one window placed near or across its edges."""
    n_t = draw(st.integers(3, 40))
    half_width = draw(st.integers(0, 6))
    m = draw(st.integers(-(n_t // 2) - 7, n_t - n_t // 2 + 6))
    return n_t, half_width, m + draw(st.floats(-0.45, 0.45))


@settings(max_examples=300, deadline=None)
@given(placed=placed_windows())
@example(placed=(129, 0, 64.0))  # the top bin of an odd grid
def test_validate_windows_accepts_exactly_what_read_windows_reads(placed):
    n_t, half_width, position = placed
    t = time_grid(0.1, n_t)
    spec = dft(np.cos(t), t)
    center = position * spec.d_omega
    try:
        read_windows(spec, center, half_width)
        readable = True
    except GridError:
        readable = False
    try:
        validate_windows([("w", center)], half_width, spec)
        accepted = True
    except GridError:
        accepted = False
    assert accepted == readable


def test_noise_floor_ignores_windows_off_the_grid():
    spec = onbin_fock_spectrum(n_m=100, seed=4)
    far = spec.n_t * spec.d_omega
    assert noise_floor(spec, [(-far, 4), (far, 4)]) == noise_floor(spec)


def test_max_half_width():
    t = time_grid(0.075, 128)
    spec = dft(np.cos(2.0 * t), t)
    # 2 Omega_1 sits at bin ~3.06: only half-width 1 fits between DC and mirror
    assert max_half_width([0.0, 2.0, -2.0], spec) == 1


def test_spectrum_csv_round_trip(tmp_path):
    spec = onbin_fock_spectrum(n_m=50, seed=1)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    assert path.read_text().splitlines()[0] == "omega,re,im"
    back = read_spectrum_csv(path)
    assert np.allclose(back.freqs, spec.freqs)
    assert np.allclose(back.values, spec.values)
    assert back.delta_t == pytest.approx(spec.delta_t)
    stack = Spectrum(spec.freqs, np.stack([spec.values] * 2), spec.delta_t)
    with pytest.raises(ValidationError):
        write_spectrum_csv(stack, path)  # one record per file


def random_spectrum(n_t: int, seed: int):
    t = time_grid(0.075, n_t)
    return dft(np.random.default_rng(seed).normal(size=n_t), t)


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(2, 64), seed=st.integers(0, 2**32))
@example(n_t=4096, seed=0)
@example(n_t=4095, seed=1)
def test_spectrum_csv_is_one_sided_and_reads_back(tmp_path_factory, n_t, seed):
    spec = random_spectrum(n_t, seed)
    path = tmp_path_factory.mktemp("csv") / "spec.csv"
    write_spectrum_csv(spec, path)
    assert len(path.read_bytes().split(b"\r\n")) == n_t // 2 + 1 + 2  # header, rows, ""
    back = read_spectrum_csv(path)
    assert back.delta_t == pytest.approx(spec.delta_t, rel=1e-15)
    assert np.array_equal(back.freqs, spec.freqs)
    # Bit for bit: every omega >= 0 and, on an even grid, the Nyquist row.
    written = spec.freqs >= 0
    written[0] |= n_t % 2 == 0
    assert np.array_equal(back.values[written], spec.values[written])
    for k in np.flatnonzero(~written):
        partner = np.searchsorted(back.freqs, -back.freqs[k])
        assert back.freqs[partner] == -back.freqs[k]
        assert back.values[k] == back.values[partner].conjugate()
    assert np.max(np.abs(back.values - spec.values)) <= oracles.hermitian_defect(spec)


def test_spectrum_csv_on_alternating_grids_matches_a_cold_write(tmp_path):
    """The omega column is memoised per grid: writes on two grids in turn,
    one a single ulp of delta_t from the other, give each file the bytes of
    a write with the memo cleared and read back their own grid bit for bit."""
    dts = [0.075, np.nextafter(0.075, 1.0)]
    specs = [dft(np.random.default_rng(k).normal(size=64), time_grid(dt, 64))
             for k, dt in enumerate(dts * 2)]
    assert specs[0].freqs.tobytes() != specs[1].freqs.tobytes()
    for k, spec in enumerate(specs):
        warm, cold = tmp_path / f"warm{k}.csv", tmp_path / f"cold{k}.csv"
        write_spectrum_csv(spec, warm)
        spectral._omega_cells.cache_clear()
        write_spectrum_csv(spec, cold)
        assert warm.read_bytes() == cold.read_bytes(), k
        assert read_spectrum_csv(warm).freqs.tobytes() == spec.freqs.tobytes(), k


@pytest.mark.parametrize(
    "omegas, n_t",
    [
        ([-1, 0], 2),     # one-sided, even: Nyquist row first
        ([0, 1], 3),      # one-sided, odd
        ([-2, 0, 1], 4),  # one-sided, even: Nyquist row first
        ([0, 1, 2], 5),   # one-sided, odd
    ],
)
def test_read_spectrum_csv_two_and_three_rows(tmp_path, omegas, n_t):
    values = [complex(k + 1, -k) for k in range(len(omegas))]
    body = "".join(f"{w},{v.real},{v.imag}\r\n" for w, v in zip(omegas, values))
    path = tmp_path / "spec.csv"
    path.write_text("omega,re,im\r\n" + body, newline="")
    back = read_spectrum_csv(path)
    assert back.freqs.tolist() == list(range(-(n_t // 2), n_t - n_t // 2))
    assert back.delta_t == pytest.approx(2 * np.pi / n_t)
    for w, v in zip(omegas, values):
        assert back.values[back.freqs.tolist().index(w)] == v
    for k, w in enumerate(back.freqs.tolist()):
        if w not in omegas:
            assert back.values[k] == values[omegas.index(-w)].conjugate()


@pytest.mark.parametrize(
    "omegas",
    [
        [-2, -1, 0, 5],          # uniform but for its last bin
        [-1.5, -0.5, 0.5, 1.5],  # no omega = 0
        [0.5, 1.5, 2.5],         # one-sided, no omega = 0
        [0, 1, 3],               # one-sided, not uniform
        [-4, 0, 1, 2],           # Nyquist row of another grid
        [-2, -1, 0, 1, 2, 3],    # two-sided, but 0 is not at index N // 2
        [-1, 0, 1],              # two-sided: every bin of an n_t = 3 grid
    ],
)
def test_read_spectrum_csv_rejects_grids_dft_never_makes(tmp_path, omegas):
    path = tmp_path / "spec.csv"
    path.write_text("omega,re,im\r\n" + "".join(f"{w},1,0\r\n" for w in omegas))
    with pytest.raises(GridError):
        read_spectrum_csv(path)


@st.composite
def spectrum_columns(draw):
    """Duck-typed spectrum: any floats in the frequencies and both value parts."""
    n_t = draw(st.integers(2, 64))
    column = st.lists(oracles.EDGE_FLOATS, min_size=n_t, max_size=n_t).map(np.array)
    values = np.empty(n_t, dtype=complex)
    values.real, values.imag = draw(column), draw(column)  # no arithmetic on inf/nan
    return SimpleNamespace(freqs=draw(column), values=values)


def assert_spectrum_csv_bytes(spec) -> None:
    oracles.assert_csv_like_oracle(
        write_spectrum_csv,
        oracles.write_spectrum_csv,
        spec,
        b"omega,re,im",
        spec.freqs.size // 2 + 1,
    )


@settings(max_examples=40, deadline=None)
@given(spec=spectrum_columns())
def test_spectrum_csv_bytes_match_the_csv_writer_oracle(spec):
    assert_spectrum_csv_bytes(spec)


def test_sampled_spectrum_csv_bytes_match_the_oracle():
    for n_m in (None, 1000):
        assert_spectrum_csv_bytes(onbin_fock_spectrum(n_m=n_m, seed=3))


def test_spectrum_validation():
    for freqs in (
        [0.0, 1.0, 0.5],
        [np.nan] * 3,
        [-1.0, np.nan, 1.0],
        [-1.0, 0.0, np.inf],
        [-np.inf, 0.0, 1.0],
    ):
        with pytest.raises(ValidationError):
            Spectrum(
                freqs=np.array(freqs),
                values=np.zeros(3, dtype=complex),
                delta_t=0.1,
            )
    for values in (np.zeros((2, 4)), np.zeros((0, 3)), np.zeros(())):  # not (..., 3)
        with pytest.raises(ValidationError):
            Spectrum(freqs=np.arange(3.0), values=values, delta_t=0.1)


@pytest.mark.parametrize("row", ["-1,0", "-1,abc,0", "-1,0,0,0", ",0,0"])
def test_read_spectrum_csv_names_file_and_line_of_a_bad_row(tmp_path, row):
    path = tmp_path / "spec.csv"
    path.write_text(f"omega,re,im\r\n-2,0,0\r\n{row}\r\n0,1,0\r\n")
    with pytest.raises(ValidationError, match=r"spec\.csv: line 3: ") as info:
        read_spectrum_csv(path)
    assert type(info.value) is ValidationError


def test_read_spectrum_csv_rejects_non_finite_freqs(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("omega,re,im\r\n-1,0,0\r\nnan,0,0\r\n1,0,0\r\n")
    with pytest.raises(ValidationError):
        read_spectrum_csv(path)


@settings(max_examples=40, deadline=None)
@given(
    n_t=st.integers(16, 300),
    shape=st.sampled_from([(1,), (1, 1), (2,), (5,), (1, 3), (3, 1), (2, 3)]),
    n_m=st.integers(1, 1000),
    delta_t=st.floats(0.1, 0.4),
    half_width=st.integers(0, 6),
    n_max=st.integers(1, 3),
    coherent=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(n_t=1024, shape=(20,), n_m=1000, delta_t=0.075, half_width=4, n_max=1,
         coherent=False, seed=12345)
def test_batched_records_equal_one_record_results(
    n_t, shape, n_m, delta_t, half_width, n_max, coherent, seed
):
    """A stack of records gives, bit for bit, each record's own DFT, window
    reads, populations and z residual floor."""
    state = coherent_state(0.7, 12) if coherent else fock_state(1, 8)
    plan = MeasurementPlan(delta_t=delta_t, n_t=n_t, n_m=n_m, axes=("z",), seed=seed)
    records = sample_records(density_from_pure(state), ProbeConfig(g=1.0), plan, np.prod(shape))
    batch = dft(records["z"].reshape(shape + (n_t,)), plan.times())
    freqs = comb_frequencies(1.0, n_max)
    centers = [w.center for w in _z_windows(freqs)]
    hw = min(half_width, max_half_width(centers, batch))

    def layers(spec):
        """Each layer's output, or the type of the error it raises."""
        out = [spec.values, read_windows(spec, centers, hw)]
        try:
            pops = populations_from_z(spec, freqs, hw)
            return out + [pops, _z_floor(spec, pops, freqs, hw)]
        except FieldTomoError as exc:
            return out + [type(exc)]

    got = layers(batch)
    assert got[0].shape == shape + (n_t,) and got[1].shape == shape + (len(centers),)
    for k, index in enumerate(np.ndindex(shape)):
        one = layers(dft(records["z"][k], plan.times()))
        assert len(got) == len(one)
        for batched, alone in zip(got, one):
            if isinstance(alone, type):
                assert batched is alone
            else:
                assert np.array_equal(batched[index], alone)
