import dataclasses
import decimal
import math
import tracemalloc
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
from fieldtomo.measurement import (
    MeasurementPlan,
    sample_records,
    sample_trajectory,
    write_trajectory_csv,
)
from fieldtomo.probe import BlochTrajectory, time_grid
from fieldtomo.states import coherent_state
from fieldtomo.spectral import (
    Spectrum,
    comb_frequencies,
    dft,
    integrate_peak,
    max_half_width,
    noise_floor,
    read_windows,
    validate_windows,
    window_gains,
    write_spectrum_csv,
)
from fieldtomo.reconstruct import _z_floor, _z_windows, populations_from_z, residual_floor

# Grid that parks 2 Omega_1 = 2 exactly on a bin: total duration 20 pi.
ONBIN_NT = 512
ONBIN_DT = 20.0 * np.pi / ONBIN_NT


def onbin_fock_spectrum(n_m=None, seed=0):
    plan = MeasurementPlan(
        delta_t=ONBIN_DT, n_t=ONBIN_NT, n_m=n_m, axes=("z",), seed=seed
    )
    traj = sample_trajectory(density_from_pure(fock_state(1, 8)), 1.0, plan)
    return dft(traj.z, traj.delta_t)


def test_dft_constant_is_pure_dc():
    spec = dft(np.ones(64), 0.1)
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


def test_dft_rejects_bad_grids(monkeypatch):
    """A step that is not > 0 or whose Nyquist frequency or d_omega is not
    finite (at 1e-308 on 4 points only pi / delta_t overflows), and
    a record of one sample, are refused before any FFT and before the grid
    memo makes an entry.  Times off the grid are the trajectory reader's to
    refuse (`test_measurement`)."""
    spectral._dft_grid.cache_clear()
    monkeypatch.setattr(np.fft, "fft", None)  # any transform would raise TypeError
    for delta_t in (0.0, -0.1, np.nan, np.inf, -np.inf, 5e-324, 1e-308):
        with pytest.raises(GridError, match="delta_t must be > 0"):
            dft(np.zeros(4), delta_t)
    with pytest.raises(GridError, match="at least 2 samples"):
        dft(np.zeros(1), 0.1)  # one sample: no spectrum
    assert spectral._dft_grid.cache_info().currsize == 0


def test_dft_on_alternating_grids_matches_a_cold_call():
    """The grid constants are memoised per ``(n, delta_t)``: transforms on
    two grids in turn, one a single ulp of delta_t from the other, give each
    spectrum the bits of a call with the memo cleared, on a miss and a hit."""
    signal = np.random.default_rng(0).normal(size=64)
    steps = (0.075, float(np.nextafter(0.075, 1.0)))
    assert dft(signal, steps[0]).freqs.tobytes() != dft(signal, steps[1]).freqs.tobytes()
    for k, dt in enumerate(steps * 2):
        warm = [dft(signal, dt), dft(signal, dt)]  # the other grid's entry, then this one's
        spectral._dft_grid.cache_clear()
        cold = dft(signal, dt)
        for spec in warm:
            assert spec.freqs.tobytes() == cold.freqs.tobytes(), k
            assert spec.values.tobytes() == cold.values.tobytes(), k
            assert spec.delta_t == cold.delta_t


def test_dft_grid_memo_cannot_be_written_through_a_spectrum():
    """The memoised frequencies and phases are read-only.  A `Spectrum`'s
    frequencies are a view of the memo that cannot be made writable, and it
    holds its own values: writing to those, even once made writable, leaves
    the next transform on the grid unchanged."""
    t = time_grid(0.075, 64)
    signal = np.cos(2.0 * t)
    before = dft(signal, 0.075)
    om, phase = spectral._dft_grid(64, 0.075)
    assert not om.flags.writeable and not phase.flags.writeable
    freqs = before.freqs
    assert freqs.base is om
    with pytest.raises(ValueError):
        freqs[0] = 0.0
    with pytest.raises(ValueError):
        freqs.setflags(write=True)
    arr = before.values
    assert not np.shares_memory(arr, om) and not np.shares_memory(arr, phase)
    with pytest.raises(ValueError):
        arr[0] = 0.0
    arr.setflags(write=True)
    arr[:] = 0.0
    after = dft(signal, 0.075)
    assert after.freqs.tobytes() == om.tobytes()
    spectral._dft_grid.cache_clear()
    cold = dft(signal, 0.075)
    assert after.freqs.tobytes() == cold.freqs.tobytes()
    assert after.values.tobytes() == cold.values.tobytes()


@pytest.mark.parametrize("n_t", [63, 64])
def test_freqs_follow_from_the_grid(n_t):
    """A spectrum's frequencies are ``fftshift(2 pi fftfreq(N, delta_t))``
    bit for bit on odd and even grids (`oracles.dft` builds that grid
    itself and compares), read-only and not a field."""
    t = time_grid(0.075, n_t)
    spec = oracles.dft(np.cos(2.0 * t), t)
    assert spec.freqs.shape == (n_t,) and not spec.freqs.flags.writeable
    assert "freqs" not in vars(spec)


def test_parseval_and_hermitian_symmetry():
    rng = np.random.default_rng(0)
    t = time_grid(0.075, 1024)
    for _ in range(5):
        s = rng.uniform(-1.0, 1.0, size=t.size)
        spec = dft(s, 0.075)
        assert oracles.parseval_defect(spec, s) < 1e-10
        assert oracles.hermitian_defect(spec) < 1e-12


def test_integrate_peak_exact_for_onbin_tone():
    t = time_grid(0.075, 512)
    omega = 20 * 2.0 * np.pi / (512 * 0.075)
    spec = dft(0.8 * np.cos(omega * t + 0.3), 0.075)
    est = integrate_peak(spec, omega, 4)
    assert est.area == pytest.approx(0.4 * np.exp(0.3j), abs=1e-13)


def test_integrate_peak_offbin_tone_within_raw_budget():
    # the +/- mirror leaks into a raw single-window read; for well
    # separated tones that residual stays below the 1e-3 budget
    t = time_grid(0.075, 4096)
    for omega, amp, phase in ((1.77, 0.43, 0.9), (2.0 * np.sqrt(2), 0.5, -1.2)):
        s = amp * np.cos(omega * t + phase)
        spec = dft(s, 0.075)
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
    spec = dft(amp * np.cos(omega * t + phase), 0.075)
    est = integrate_peak(spec, omega, 4)
    # worst measured residual over this range is 3.3e-3 for amp = 1
    assert abs(est.area - 0.5 * amp * np.exp(1j * phase)) < 5e-3 * amp


def test_pair_helpers_read_cos_and_sin_amplitudes():
    t = time_grid(0.11, 2048)
    omega = 1.3003
    spec_c = dft(0.62 * np.cos(omega * t), 0.11)
    assert cosine_pair(spec_c, omega, 4) == pytest.approx(0.62, abs=3e-3)
    spec_s = dft(-0.37 * np.sin(omega * t), 0.11)  # convention: -A sin -> A
    assert sine_pair(spec_s, omega, 4) == pytest.approx(0.37, abs=3e-3)
    # a pure cosine has little sine-quadrature content and vice versa
    assert abs(sine_pair(spec_c, omega, 4)) < 3e-3
    assert abs(cosine_pair(spec_s, omega, 4)) < 3e-3


def test_cosine_pair_dc_reads_constant_offset():
    t = time_grid(0.075, 1024)
    spec = dft(0.25 + 0.5 * np.cos(2.0 * t), 0.075)
    assert cosine_pair(spec, 0.0, 4) == pytest.approx(0.25, abs=2e-3)


def test_integrate_peak_off_grid_window():
    t = time_grid(0.1, 64)
    spec = dft(np.cos(t), 0.1)
    nyquist = np.pi / 0.1
    with pytest.raises(GridError):
        integrate_peak(spec, nyquist * 0.99, 4)


def test_integrate_peak_refuses_a_stack():
    """Two stacked records are a `ValidationError`, as for every one-record
    function, not a `TypeError` from the scalar area."""
    t = time_grid(ONBIN_DT, ONBIN_NT)
    spec = dft(np.stack([np.cos(2.0 * t)] * 2), ONBIN_DT)
    with pytest.raises(ValidationError, match="integrate_peak takes one record, not a stack"):
        integrate_peak(spec, 2.0, 4)


def test_raw_combined_area_at_default_grid():
    # off-bin generic case: raw windowed pair still lands within 1e-3
    t = time_grid(0.075, 4096)
    spec = dft(np.cos(2.0 * t), 0.075)
    assert cosine_pair(spec, 2.0, 4) == pytest.approx(1.0, abs=1e-3)


def test_noise_floor_vanishes_without_sampling_noise():
    spec = onbin_fock_spectrum(n_m=None)
    assert noise_floor(spec, [0.0, 2.0, -2.0], 4) < 1e-10


def test_noise_floor_requires_free_bins():
    spec = onbin_fock_spectrum()
    with pytest.raises(ValidationError):
        noise_floor(spec, [0.0], spec.n_t)
    # A negative half-width is refused as `read_windows` refuses it, not
    # read as windows that leave every bin free.
    for half_width in (-1, -3):
        with pytest.raises(ValidationError, match="half_width must be >= 0"):
            noise_floor(spec, [0.0, 2.0, -2.0], half_width)


def test_noise_floor_scales_inverse_sqrt_shots():
    excl = [0.0, 2.0, -2.0]
    xi_10 = np.mean(
        [noise_floor(onbin_fock_spectrum(n_m=10, seed=s), excl, 4) for s in range(8)]
    )
    xi_1000 = np.mean(
        [noise_floor(onbin_fock_spectrum(n_m=1000, seed=s), excl, 4) for s in range(8)]
    )
    assert xi_1000 / xi_10 == pytest.approx(0.1, rel=0.3)


def test_empty_window_bounded_by_noise_floor():
    spec = onbin_fock_spectrum(n_m=100, seed=4)
    xi = noise_floor(spec, [0.0, 2.0, -2.0], 4)
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
    spec = Spectrum(np.fft.fftshift(vals), delta_t)
    assert spec.freqs.tobytes() == np.fft.fftshift(om).tobytes()
    return spec


KERNEL_SPEC = dft(
    np.random.default_rng(3).normal(size=512) + np.cos(1.7 * time_grid(0.1, 512)),
    0.1,
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



@settings(deadline=None, max_examples=300)
@given(u=st.floats(-0.5, 0.5), n=st.one_of(st.integers(8, 64), st.integers(8, 2**40)))
@example(u=0.5, n=8)
@example(u=-0.5, n=2**40)
def test_half_width_1_response_is_at_least_2_over_pi(u, n):
    """`reconstruct.estimate_coupling` prunes with this floor: a window that
    fits has ``|u| <= 1/2``, and every grid the search accepts has ``N >= 8``
    (the ``2 hi`` tone lies above the ``2 lo`` one, at bin 2 or beyond, and at
    most ``N // 2 - 2``)."""
    assert spectral._dirichlet_sum(u, 1, n) >= 2.0 / math.pi


@settings(deadline=None, max_examples=100)
@given(
    n_t=st.integers(8, 600),
    seed=st.integers(0, 2**16),
    decades=st.floats(0.0, 12.0),
    data=st.data(),
)
def test_half_width_1_area_is_bounded_by_its_bins(n_t, seed, decades, data):
    """The premise of the coupling search's prune: the taps and the rotation
    have modulus 1, so no half-width-1 area exceeds its window's summed
    ``|bins|`` over the window response (to 1e-12 for rounding; the prune
    allows 1e-9), on bins whose magnitudes span ``decades`` decades."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=(2, n_t))
    spec = Spectrum(rng.normal(size=n_t) * scale[0] + 1j * rng.normal(size=n_t) * scale[1],
                    2.0 * np.pi / n_t)
    low, high = 1 - n_t // 2, n_t - 2 - n_t // 2  # rounded bins whose window fits
    bins = np.array(data.draw(st.lists(st.floats(low, high), min_size=1, max_size=20)))
    _, _, idx, resp = spectral._place(spec.n_t, spec.d_omega, bins * spec.d_omega, 1)
    summed = np.abs(spec.values)[idx.astype(np.intp)[:, None] + [-1, 0, 1]].sum(axis=1)
    areas = read_windows(spec, bins * spec.d_omega, 1)
    assert np.all(np.abs(areas) <= summed / resp * (1.0 + 1e-12))

def test_read_windows_empty_batch():
    areas = read_windows(KERNEL_SPEC, np.array([]), 4)
    assert areas.shape == (0,) and areas.dtype == complex


def test_read_windows_checks_half_width():
    with pytest.raises(ValidationError):
        read_windows(KERNEL_SPEC, [1.0], -1)


@settings(deadline=None, max_examples=80)
@given(
    n_t=st.integers(min_value=16, max_value=301),
    records=st.sampled_from([(), (1,), (3,), (2, 3)]),
    centers_shape=st.sampled_from([(), (0,), (1,), (5,), (1, 1), (4, 3)]),
    half_width=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_read_windows_matches_the_per_bin_phase_reference(
    n_t, records, centers_shape, half_width, seed
):
    """One tap per bin offset and one rotation per center read what a
    per-bin phase and a plain sum per record read, to rounding."""
    rng = np.random.default_rng(seed)
    spec = dft(rng.normal(size=records + (n_t,)), 0.1)
    edge = n_t // 2 - half_width - 1  # every window stays on the grid
    centers = rng.uniform(-edge, edge, size=centers_shape) * spec.d_omega
    got = read_windows(spec, centers, half_width)
    want = oracles.read_windows_per_bin(spec, centers, half_width)
    assert got.shape == want.shape == records + centers_shape
    scale = (2 * half_width + 1) * np.max(np.abs(spec.values))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@settings(deadline=None, max_examples=30)
@given(
    n_t=st.integers(min_value=64, max_value=1024),
    n_records=st.integers(min_value=1, max_value=4),
    n_candidates=st.integers(min_value=1, max_value=40),
    n_harmonics=st.integers(min_value=1, max_value=5),
    half_width=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n_t=4096, n_records=2, n_candidates=1000, n_harmonics=5, half_width=1, seed=19)
def test_candidate_grid_reads_of_a_stack_are_each_read_alone(
    n_t, n_records, n_candidates, n_harmonics, half_width, seed
):
    """The coupling search's read shape, a ``(C, H)`` grid of centers,
    on an ``(S,)`` stack: each element is, bit for bit, that center read
    alone on that record."""
    rng = np.random.default_rng(seed)
    signals = rng.normal(size=(n_records, n_t))
    d_omega = 2.0 * np.pi / (n_t * 0.075)
    top = (n_t // 2 - half_width - 1) * d_omega / np.sqrt(n_harmonics)
    g = rng.uniform(0.0, top, size=n_candidates)
    centers = g[:, None] * np.sqrt(np.arange(1, n_harmonics + 1))
    got = read_windows(dft(signals, 0.075), centers, half_width)
    assert got.shape == (n_records, n_candidates, n_harmonics)
    for s in range(n_records):
        alone = dft(signals[s], 0.075)
        for (c, h), center in np.ndenumerate(centers):
            assert got[s, c, h] == read_windows(alone, center, half_width)


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
    spec = dft(np.cos(w * times) if kind == "cos" else np.sin(w * times), 0.075)
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
    got = populations_from_z(dft(signal, 0.075), g, 6, 2)
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
    spec = dft(np.cos(2.0 * t), 0.075)
    windows = [("dc", 0.0)]
    for n, c in enumerate(comb_frequencies(1.0, 8)["z"], start=1):
        windows += [(f"rho[{n},{n}]", c), (f"rho[{n},{n}]", -c)]
    validate_windows(windows, 4, spec)  # must not raise


def test_validate_windows_reports_collisions():
    t = time_grid(0.075, 128)
    spec = dft(np.cos(2.0 * t), 0.075)
    with pytest.raises(ResolvabilityError, match="dc"):
        validate_windows([("dc", 0.0), ("peak", 2.0)], 4, spec)


@settings(max_examples=150, deadline=None)
@given(
    bins=st.lists(st.integers(-60, 60), max_size=30),
    labels=st.lists(st.sampled_from(["a", "b", "c", "dc", "rho[1,1]+"]), min_size=30),
    half_width=st.integers(-1, 6),
)
@example(bins=[1, 1], labels=["a", "b"] * 15, half_width=-1)
def test_validate_windows_names_the_pairs_of_the_all_pairs_oracle(bins, labels, half_width):
    """The refusal is the all-pairs oracle's, bit for bit: every colliding
    pair up to `_NAMED_PAIRS`, else their count and the first pairs met
    adding the windows in order.  Repeated labels and bins included; a
    negative half-width is refused, as `read_windows` refuses it."""
    t = time_grid(0.1, 256)
    spec = dft(np.cos(t), 0.1)
    centers = [(label, b * spec.d_omega) for label, b in zip(labels, bins)]
    if half_width < 0:
        with pytest.raises(ValidationError, match="half_width must be >= 0"):
            validate_windows(centers, half_width, spec)
        return
    want = oracles.collision_message(centers, half_width, spec)
    try:
        validate_windows(centers, half_width, spec)
        got = None
    except ResolvabilityError as err:
        got = str(err)
    assert got == want


def test_a_collision_refusal_counts_millions_of_pairs_and_names_ten():
    """2001 windows on one bin: 2,001,000 colliding pairs, counted, not built."""
    t = time_grid(0.3, 64)
    spec = dft(np.cos(t), 0.3)
    tracemalloc.start()
    try:
        with pytest.raises(ResolvabilityError) as err:
            validate_windows([(f"w{k}", 0.0) for k in range(2001)], 1, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "integration windows collide (need spacing > 2 bins; 2001000 pairs, 10 named): "
        "w0 / w1; w0 / w2; w0 / w3; w0 / w4; w1 / w2; w1 / w3; w1 / w4; w2 / w3; w2 / w4; w3 / w4"
    )
    assert peak < 2**21


def two_pair_layouts():
    """Two 8192-window combs at half-width 1 (the most windows `cli.BYTE_BUDGET`
    admits, ``n_max = 2048``) with their colliding pairs known by construction:
    windows 5 bins apart but for the last, on its neighbour's bin; and two
    interleaved halves where window ``i`` meets only window ``i + 4096``."""
    last = [5 * k for k in range(8191)] + [5 * 8190]
    halves = [5 * k for k in range(4096)] + [5 * k + 1 for k in range(4096)]
    return [(last, [(8190, 8191)]), (halves, [(k, k + 4096) for k in range(4096)])]


@pytest.mark.parametrize("bins, pairs", two_pair_layouts(), ids=["last-pair", "halves"])
def test_a_collision_walk_over_the_largest_comb_names_its_pairs(bins, pairs):
    """Window ``k`` of the walk names its earlier colliders: for the
    interleaved halves the first 10 pairs come after 4096 windows without
    one.  The all-pairs oracle's ``W x W`` matrix is too big here, so the
    message is built from the pairs themselves."""
    n = 2**17
    spec = Spectrum(np.zeros(n, dtype=complex), 2.0 * np.pi / n)  # d_omega = 1
    centers = [(f"w{k}", float(b)) for k, b in enumerate(bins)]
    tracemalloc.start()
    try:
        with pytest.raises(ResolvabilityError) as err:
            validate_windows(centers, 1, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    named = sorted(f"w{i} / w{k}" for i, k in pairs[:10])
    count = f"; {len(pairs)} pairs, 10 named" if len(pairs) > 10 else ""
    assert str(err.value) == (
        f"integration windows collide (need spacing > 2 bins{count}): " + "; ".join(named)
    )
    assert peak < 2**21


def test_validate_windows_flags_nyquist_overflow():
    t = time_grid(0.075, 128)
    spec = dft(np.cos(2.0 * t), 0.075)
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
    spec = dft(np.cos(t), 0.1)
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


@st.composite
def fitting_centers(draw):
    """A grid, a half-width and centres of shape ``()``, ``(k,)`` (``k`` may be
    0) or ``(k, j)`` whose windows all fit it."""
    n_t = draw(st.integers(16, 300))
    half_width = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(), (0,), (1,), (5,), (3, 4), (2, 0)]))
    low, high = half_width - n_t // 2, n_t - 1 - half_width - n_t // 2
    size = math.prod(shape)
    bins = draw(st.lists(st.floats(low - 0.45, high + 0.45), min_size=size, max_size=size))
    dt = draw(st.sampled_from([0.075, 0.1, ONBIN_DT]))
    spec = dft(np.cos(time_grid(dt, n_t)), dt)
    return spec, np.reshape(bins, shape) * spec.d_omega, half_width


@settings(max_examples=150, deadline=None)
@given(drawn=fitting_centers())
def test_plan_placement_and_free_bins_equal_a_cold_placement(drawn):
    """What an estimator plan keeps of its centres, their `_place` placement
    and their `_free_bins`, is bit for bit a cold `_grid_windows` and
    `_dirichlet_sum` and the free bins of the first floor's boolean mask,
    and none of it can be written."""
    spec, centers, half_width = drawn
    x, m_c, idx, _ = spectral._grid_windows(spec.n_t, spec.d_omega, centers, half_width)
    cold = x, m_c, idx, spectral._dirichlet_sum(x - m_c, half_width, spec.n_t)
    placed = spectral._place(spec.n_t, spec.d_omega, centers, half_width)
    for got, want in zip(placed, cold, strict=True):
        assert np.shape(got) == np.shape(want) == np.shape(centers)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    free = spectral._free_bins(spec.n_t, spec.d_omega, centers, half_width)
    mask = oracles.free_mask(spec, centers, half_width)
    assert free.dtype == np.intp and free.tobytes() == np.flatnonzero(mask).tobytes()
    for got in (*placed, free):
        assert not got.flags.writeable
        if isinstance(got, np.ndarray) and got.size:
            with pytest.raises(ValueError):
                got.flat[0] = 0


def test_off_grid_window_raises_the_same_grid_error_when_repeated():
    spec = onbin_fock_spectrum()
    far = [1.0, (spec.n_t // 2 - 1) * spec.d_omega]
    messages = []
    for _ in range(2):
        with pytest.raises(GridError) as err:
            read_windows(spec, far, 4)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "window at bin 255 +- 4 outside the frequency grid"


def test_one_off_reads_leave_the_spectrum_only_its_data():
    """The coupling search reads thousands of window sets once each: after
    an audit and 2,000 such reads the spectrum still holds only its data."""
    spec = onbin_fock_spectrum(n_m=100, seed=3)
    populations_from_z(spec, 1.0, 1, 4)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        read_windows(spec, rng.uniform(-20.0, 20.0, 640), 1)
    assert [f.name for f in dataclasses.fields(Spectrum)] == ["values", "delta_t"]
    assert vars(spec).keys() == {"values", "delta_t"}


def test_noise_floor_ignores_windows_off_the_grid():
    spec = onbin_fock_spectrum(n_m=100, seed=4)
    far = spec.n_t * spec.d_omega
    assert noise_floor(spec, [-far, far], 4) == noise_floor(spec, [], 4)


def test_max_half_width():
    t = time_grid(0.075, 128)
    spec = dft(np.cos(2.0 * t), 0.075)
    # 2 Omega_1 sits at bin ~3.06: only half-width 1 fits between DC and mirror
    assert max_half_width([0.0, 2.0, -2.0], spec) == 1


@pytest.mark.parametrize("delta_t", [0.0, -ONBIN_DT, np.nan, np.inf, 1e-320, 1e-308])
def test_spectrum_refuses_a_bad_delta_t(delta_t):
    """A negative delta_t flips d_omega, so a read at +omega would return the
    conjugate area of the -omega window; NaN, inf and a delta_t so small
    that d_omega or the Nyquist frequency overflows give no grid at all.  The refusal is `dft`'s,
    word for word, with the step in it."""
    spec = onbin_fock_spectrum()
    with pytest.raises(GridError) as built:
        Spectrum(spec.values, delta_t)
    with pytest.raises(GridError) as transformed:
        dft(np.ones(spec.n_t), delta_t)
    assert str(built.value) == str(transformed.value)
    assert repr(float(delta_t)) in str(built.value)


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(min_value=2, max_value=4096),
    hw_share=st.floats(min_value=0.0, max_value=1.0),
    u=st.floats(min_value=-0.5, max_value=0.5),
)
@example(n=2, hw_share=0.0, u=0.5)
@example(n=4096, hw_share=1.0, u=-0.5)
def test_window_response_of_a_fitting_window_stays_above_two_over_pi(n, hw_share, u):
    """A window that fits an n-point grid has ``2 hw + 1 <= n`` and a sub-bin
    offset ``|u| <= 1/2``; its response is then at least ``2 / pi``, so no
    window read divides by a degenerate response."""
    hw = round(hw_share * ((n - 1) // 2))
    assert spectral._dirichlet_sum(u, hw, n) > 0.6


def test_spectrum_csv_round_trip(tmp_path):
    spec = onbin_fock_spectrum(n_m=50, seed=1)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    assert path.read_text().splitlines()[0] == "omega,re,im"
    stack = Spectrum(np.stack([spec.values] * 2), spec.delta_t)
    with pytest.raises(ValidationError):
        write_spectrum_csv(stack, path)  # one record per file


def test_spectrum_csv_on_alternating_grids_matches_a_cold_write(tmp_path):
    """The lead column's byte slots are memoised per grid: writes on two
    grids in turn, one a single ulp of delta_t from the other, give each
    file the bytes of a write with the memo cleared."""
    dts = [0.075, np.nextafter(0.075, 1.0)]
    specs = [dft(np.random.default_rng(k).normal(size=64), dt)
             for k, dt in enumerate(dts * 2)]
    assert specs[0].freqs.tobytes() != specs[1].freqs.tobytes()
    for k, spec in enumerate(specs):
        warm, cold = tmp_path / f"warm{k}.csv", tmp_path / f"cold{k}.csv"
        write_spectrum_csv(spec, warm)
        spectral._lead_slots.cache_clear()
        write_spectrum_csv(spec, cold)
        assert warm.read_bytes() == cold.read_bytes(), k


def random_trajectory(dt, n, axes="xyz", seed=0):
    rng = np.random.default_rng(seed)
    return BlochTrajectory(dt, **{a: rng.uniform(-1, 1, n) for a in axes})


def test_trajectory_and_spectrum_csv_share_the_memo_and_match_a_cold_write(tmp_path):
    """One lead-slot memo serves both writers, keyed by the lead column: an
    x/y/z trajectory, a z-only one on the same grid, one on a grid a single
    ulp of delta_t away and a spectrum, written in turn, each give the bytes
    of a write with the memo cleared."""
    dt, n = 0.075, spectral._CHUNK_ROWS + 76  # more rows than one chunk
    xyz = random_trajectory(dt, n)
    files = [
        (write_trajectory_csv, xyz),
        (write_trajectory_csv, random_trajectory(dt, n, "z", seed=1)),
        (write_trajectory_csv, random_trajectory(np.nextafter(dt, 1.0), n, seed=2)),
        (write_spectrum_csv, dft(xyz.x, xyz.delta_t)),
    ]
    for k, (write, obj) in enumerate(files):
        warm, cold = tmp_path / f"warm{k}.csv", tmp_path / f"cold{k}.csv"
        write(obj, warm)
        spectral._lead_slots.cache_clear()
        write(obj, cold)
        assert warm.read_bytes() == cold.read_bytes(), k


def test_reconstruct_shaped_writes_hit_the_memo_on_a_repeat(tmp_path):
    """A ``reconstruct`` run writes one trajectory file, then three spectrum
    files, on one grid: a second run formats no lead column again."""
    traj = random_trajectory(0.075, 64)
    specs = [dft(getattr(traj, a), traj.delta_t) for a in "xyz"]
    spectral._lead_slots.cache_clear()
    misses = []
    for _ in range(2):
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        for a, spec in zip("xyz", specs):
            write_spectrum_csv(spec, tmp_path / f"spectrum_{a}.csv")
        misses.append(spectral._lead_slots.cache_info().misses)
    assert misses == [2, 2]


def _powers_of_ten(k: int) -> list[float]:
    """``10**k`` as the nearest float, and one ulp either side of it."""
    p = float(f"1e{k}")
    return [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]


#: Cells whose ``%.17g`` text is easy to get wrong, by the kernel's steps:
#: a near and an exact rounding tie, scaled values next to 1e16 or 1e17,
#: powers of ten and their neighbours, dyadic fractions, integers up to
#: 2**53, zeros, subnormals, non-finite cells and the edges of the
#: kernel's decades.
KERNEL_EDGE_FLOATS = st.one_of(
    st.sampled_from(
        [float("0.123456789012345675"), 123456789012345.625, 0.0, -0.0, 5e-324,
         -2.2250738585072014e-308, math.inf, -math.inf, math.nan, 2.0**53, 9999999999999998.0,
         99999999999999984.0, 0.00099999999999999991, 0.0001, 1e-5]
        + _powers_of_ten(-spectral._DECADES) + _powers_of_ten(spectral._DECADES)
    ),
    st.integers(-330, 310).map(_powers_of_ten).flatmap(st.sampled_from),
    st.builds(lambda k, j: k * 2.0**-j, st.integers(-(2**53), 2**53), st.integers(0, 1074)),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(10.0**-spectral._DECADES, 10.0**spectral._DECADES).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(KERNEL_EDGE_FLOATS, min_size=1, max_size=40))
@example(cells=[123456789012345.625, 1e16, 1e-4, 1e17, -0.0])
def test_cell_slots_hold_each_cells_percent_17g_text(cells):
    """Drop the NULs of a cell's byte slots and what is left is the text of
    ``"%.17g" % v``, whichever path formatted it."""
    slots = spectral._cell_slots(np.array(cells))
    assert slots.shape == (len(cells), spectral._SLOTS)
    for row, v in zip(slots, cells):
        assert row[row != 0].tobytes() == b"%.17g" % v, v


def test_fast_slots_leave_only_near_ties_to_percent():
    """Cells inside the kernel's decades take the kernel, with the text of
    ``%.17g``, unless their exact value is within 1e-6 of a unit of a
    rounding tie at 17 digits, as the binary fractions of ~1e15 often are;
    an exact tie, non-finite cells and cells outside the decades take
    ``%``."""
    rng = np.random.default_rng(23)
    size = 20_000
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-279.9, 279.9, size)
    x[::7] = rng.uniform(-1.0, 1.0, x[::7].size)
    x[::11] = 0.0
    slots, fast = spectral._fast_slots(x)
    texts = [row[row != 0].tobytes() for row in slots.T[fast]]
    assert texts == [b"%.17g" % v for v in x[fast].tolist()]
    assert np.count_nonzero(~fast) < 1e-3 * size
    with decimal.localcontext(decimal.Context(prec=1000)):
        for v in x[~fast].tolist():
            exact = decimal.Decimal(abs(v))
            digits = exact.scaleb(16 - exact.adjusted())
            assert abs(digits % 1 - decimal.Decimal("0.5")) < decimal.Decimal("1e-6"), v
    edges = [123456789012345.625, math.inf, math.nan, 1e300, 1e-300, 5e-324]
    assert not spectral._fast_slots(np.array(edges))[1].any()


#: Grid sizes whose one-sided files hold `oracles.BLOCK_EDGE_ROWS` rows,
#: ``n // 2 + 1`` rows from an even and from an odd ``n``.
BLOCK_EDGE_GRIDS = [n for rows in oracles.BLOCK_EDGE_ROWS for n in (2 * rows - 2, 2 * rows - 1)]


@st.composite
def spectrum_columns(draw, n_t=None):
    """Duck-typed spectrum: any floats in the frequencies and both value
    parts, on ``n_t`` bins (2-64 or a file either side of a block edge if
    None)."""
    if n_t is None:
        n_t = draw(st.one_of(st.integers(2, 64), st.sampled_from(BLOCK_EDGE_GRIDS)))
    column = oracles.float_columns(n_t)
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


@pytest.mark.parametrize("n_t", BLOCK_EDGE_GRIDS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_spectrum_csv_bytes_match_the_oracle_across_block_edges(n_t, data):
    """Files of row counts either side of one and of two row blocks, from
    even and odd grids."""
    assert_spectrum_csv_bytes(data.draw(spectrum_columns(n_t)))


def test_sampled_spectrum_csv_bytes_match_the_oracle():
    for n_m in (None, 1000):
        assert_spectrum_csv_bytes(onbin_fock_spectrum(n_m=n_m, seed=3))


def test_spectrum_validation():
    """Values are ``(..., N)`` with ``N >= 2`` and at least one record."""
    for values in (np.zeros((0, 3)), np.zeros(()), np.zeros(1), np.zeros((3, 1))):
        with pytest.raises(ValidationError):
            Spectrum(values=values, delta_t=0.1)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.one_of(st.integers(1, 25).map(lambda k: (k,)), st.just((2, 3))),
    n_t=st.integers(16, 700),
    n_m=st.integers(1, 1000),
    delta_t=st.floats(0.05, 0.4),
    half_width=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
@example(shape=(20,), n_t=1024, n_m=1000, delta_t=0.075, half_width=4, seed=12345)
@example(shape=(20,), n_t=1025, n_m=1000, delta_t=0.075, half_width=4, seed=12345)
@example(shape=(3,), n_t=9001, n_m=100, delta_t=0.075, half_width=4, seed=7)  # > 8192 free
def test_stacked_dft_and_floors_equal_the_per_record_oracle(
    shape, n_t, n_m, delta_t, half_width, seed
):
    """A stack's `dft`, `noise_floor`, `residual_floor` and `_z_floor` are,
    bit for bit, the first per-record code: `fftshift` of each record's FFT,
    and each floor over a boolean mask of the free bins, one record at a
    time (`oracles.dft_values`, `oracles.noise_floor`, `oracles.z_floor`).
    `_z_floor` measures on the free bins of its z plan, so at a half-width
    whose z windows the estimator refuses it raises that refusal."""
    plan = MeasurementPlan(delta_t=delta_t, n_t=n_t, n_m=n_m, axes=("z",), seed=seed)
    rho = density_from_pure(fock_state(1, 8))
    signal = sample_records(rho, 1.0, plan, math.prod(shape))["z"]
    signal = signal.reshape(shape + (n_t,))
    spec = dft(signal, plan.delta_t)
    want = oracles.dft_values(signal, time_grid(plan.delta_t, n_t))
    assert spec.values.tobytes() == want.tobytes()
    freqs = comb_frequencies(1.0, 1)
    centers = [w.center for w in _z_windows(freqs)]
    hw = min(half_width, max_half_width(centers, spec))
    try:
        pops = populations_from_z(spec, 1.0, 1, hw)
    except FieldTomoError:  # a comb the grid cannot resolve: any populations do
        pops = np.full(shape + (2,), 0.5)

    def outcome(floor, *args):
        try:
            return np.asarray(floor(spec, *args)).tobytes()
        except ValidationError:
            return ValidationError

    def refusal(wide):
        """The type and message of `populations_from_z`'s refusal at ``wide``."""
        try:
            populations_from_z(spec, 1.0, 1, wide)
        except FieldTomoError as exc:
            return type(exc), str(exc)
        return None

    for wide in (hw, 3 * hw + 1):
        assert outcome(noise_floor, centers, wide) == outcome(oracles.noise_floor, centers, wide)
        refused = refusal(wide)
        if refused is None:
            assert outcome(_z_floor, pops, 1.0, 1, wide) == outcome(oracles.z_floor, pops, 1.0, wide)
        else:
            with pytest.raises(refused[0]) as err:
                _z_floor(spec, pops, 1.0, 1, wide)
            assert (type(err.value), str(err.value)) == refused
    model = np.full(n_t, 0.5)  # one model for every record
    free = spectral._free_bins(spec.n_t, spec.d_omega, centers, hw)
    assert outcome(residual_floor, model, free) == outcome(
        oracles.residual_floor, model, centers, hw
    )


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
# Record 5 is all +1: its own rho_11 estimate (8e-17) is below the model's
# element floor, while the other records' are not.
@example(n_t=16, shape=(2, 3), n_m=1, delta_t=0.375, half_width=0, n_max=1,
         coherent=True, seed=8)
def test_batched_records_equal_one_record_results(
    n_t, shape, n_m, delta_t, half_width, n_max, coherent, seed
):
    """A stack of records gives, bit for bit, each record's own DFT, window
    reads, populations and z residual floor."""
    state = coherent_state(0.7, 12) if coherent else fock_state(1, 8)
    plan = MeasurementPlan(delta_t=delta_t, n_t=n_t, n_m=n_m, axes=("z",), seed=seed)
    records = sample_records(density_from_pure(state), 1.0, plan, np.prod(shape))
    batch = dft(records["z"].reshape(shape + (n_t,)), plan.delta_t)
    freqs = comb_frequencies(1.0, n_max)
    centers = [w.center for w in _z_windows(freqs)]
    hw = min(half_width, max_half_width(centers, batch))

    def layers(spec):
        """Each layer's output, or the type of the error it raises."""
        out = [spec.values, read_windows(spec, centers, hw)]
        try:
            pops = populations_from_z(spec, 1.0, n_max, hw)
            return out + [pops, _z_floor(spec, pops, 1.0, n_max, hw)]
        except FieldTomoError as exc:
            return out + [type(exc)]

    got = layers(batch)
    assert got[0].shape == shape + (n_t,) and got[1].shape == shape + (len(centers),)
    for k, index in enumerate(np.ndindex(shape)):
        one = layers(dft(records["z"][k], plan.delta_t))
        assert len(got) == len(one)
        for batched, alone in zip(got, one):
            if isinstance(alone, type):
                assert batched is alone
            else:
                assert np.array_equal(batched[index], alone)
