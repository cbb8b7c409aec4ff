import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fieldtomo.exceptions import CutoffError, ValidationError
from fieldtomo.fock import FieldState, embed, fock_state
from fieldtomo.states import (
    _coherent_required_cutoff,
    coherent_state,
    load_amplitudes,
    superposition,
)


def test_superposition_normalizes():
    s = superposition([(0, 3.0), (2, 4.0)], 4)
    assert s.norm() == pytest.approx(1.0)
    assert s.amplitudes[0] == pytest.approx(0.6)
    assert s.amplitudes[2] == pytest.approx(0.8)


def test_superposition_accumulates_repeated_terms():
    s = superposition([(1, 1.0), (1, 1.0)], 3)
    assert oracles.populations(s)[1] == pytest.approx(1.0)


def test_superposition_rejects_term_above_cutoff():
    with pytest.raises(CutoffError):
        superposition([(5, 1.0)], 4)


def test_superposition_rejects_empty():
    with pytest.raises(ValidationError):
        superposition([], 4)
    with pytest.raises(ValidationError):
        superposition([(1, 0.0)], 4)


@pytest.mark.parametrize("amp", [1e200, 1e308, 1e308 + 1e308j])
def test_superposition_of_huge_amplitudes_normalizes(amp):
    """|amplitude|^2 overflows, yet the state is normalized, without a warning."""
    s = superposition([(1, amp), (2, amp)], 8)
    phase = np.exp(1j * np.angle(amp))
    assert np.allclose(s.amplitudes, np.r_[0.0, phase, phase, np.zeros(6)] / math.sqrt(2.0))


def test_amplitude_file_of_huge_amplitudes_normalizes(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("1 1e308 0\n2 0 1e308\n")
    assert np.allclose(load_amplitudes(path).amplitudes, np.r_[0.0, 1.0, 1j] / math.sqrt(2.0))


def test_normalize_keeps_the_bits_of_a_finite_norm():
    amps = np.array([0.3, 1e150, -2e153j, 0.0])
    want = amps / np.linalg.norm(amps)
    assert FieldState(amps).normalize().amplitudes.tobytes() == want.tobytes()


def test_superposition_refuses_an_overflowing_repeated_term():
    with pytest.raises(ValidationError, match="non-finite"):
        superposition([(1, 1e308), (1, 1e308)], 4)


@pytest.mark.parametrize("call, key", [
    pytest.param(lambda: fock_state(-1, 3), "n", id="fock_state-n-negative"),
    pytest.param(lambda: fock_state(4, 3), "n", id="fock_state-n-above"),
    pytest.param(lambda: fock_state(1, 0), "cutoff", id="fock_state-cutoff"),
    pytest.param(lambda: superposition([(-1, 1.0)], 3), "terms", id="superposition-n-negative"),
    pytest.param(lambda: superposition([(4, 1.0)], 3), "terms", id="superposition-n-above"),
    pytest.param(lambda: superposition([(1, 0.0)], 3), "terms", id="superposition-all-zero"),
    pytest.param(lambda: superposition([(1, 1.0)], 0), "cutoff", id="superposition-cutoff"),
    pytest.param(lambda: coherent_state("abc", 8), "alpha", id="coherent_state-alpha"),
    pytest.param(lambda: coherent_state(0.5, 0), "cutoff", id="coherent_state-cutoff"),
    pytest.param(lambda: embed(fock_state(1, 3), 0), "cutoff", id="embed-cutoff"),
])
def test_a_state_refusal_names_its_argument(call, key):
    with pytest.raises(ValidationError) as info:
        call()
    assert info.value.key == key


def test_coherent_state_poisson_populations():
    alpha = 0.7 * np.exp(1j * np.pi / 3)
    s = coherent_state(alpha, 12)
    nbar = abs(alpha) ** 2
    expected = np.array(
        [math.exp(-nbar) * nbar**n / math.factorial(n) for n in range(13)]
    )
    # truncated + renormalized, so compare up to the (tiny) tail weight
    assert np.allclose(oracles.populations(s), expected / expected.sum(), atol=1e-12)
    assert oracles.mean_photon_number(s) == pytest.approx(nbar, abs=1e-6)


def test_coherent_state_phase_progression():
    alpha = 0.7 * np.exp(1j * np.pi / 3)
    s = coherent_state(alpha, 12)
    for n in range(5):
        expected = (n * np.pi / 3) % (2 * np.pi)
        got = np.angle(s.amplitudes[n]) % (2 * np.pi)
        assert got == pytest.approx(expected, abs=1e-12)


def test_coherent_state_insufficient_cutoff_names_requirement():
    with pytest.raises(CutoffError, match="cutoff >="):
        coherent_state(2.0, 4)


@settings(deadline=None, max_examples=25)
@given(
    mod=st.floats(min_value=0.05, max_value=1.2),
    arg=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_coherent_state_mean_photon_number(mod, arg):
    s = coherent_state(mod * np.exp(1j * arg), 25)
    assert oracles.mean_photon_number(s) == pytest.approx(mod**2, abs=1e-6)


def test_coherent_cutoff_matches_the_plain_poisson_sum():
    """Wherever the plain sum from n = 0 is exact (exp(-|alpha|^2) a normal
    float), the bound is the one it gives."""
    for abs_alpha in np.linspace(0.0, 26.6, 2661):
        assert _coherent_required_cutoff(abs_alpha) == oracles.coherent_required_cutoff(
            abs_alpha
        ), abs_alpha


@pytest.mark.parametrize(
    # Checked by the same Poisson sum in 50-digit arithmetic.  The plain
    # float sum gives 762 at 27.29 (its first terms are subnormal or 0).
    "abs_alpha, required",
    [(27.29, 903), (28.0, 946), (30.0, 1073), (38.5, 1703)],
)
def test_coherent_cutoff_past_the_normal_float_range(abs_alpha, required):
    assert _coherent_required_cutoff(abs_alpha) == required
    with pytest.raises(CutoffError, match=f"cutoff >= {required}, got {required - 1}"):
        coherent_state(abs_alpha, required - 1)
    s = coherent_state(abs_alpha * np.exp(0.3j), required)
    # The tail cut off holds less than 1e-8 of the weight.
    assert oracles.mean_photon_number(s) == pytest.approx(abs_alpha**2, rel=1e-7)


@pytest.mark.parametrize(
    "alpha", [complex(math.inf, 0), complex(0, -math.inf), complex(math.nan, 0), 1e200, 38.7]
)
def test_coherent_state_rejects_non_finite_or_underflowing_alpha(alpha):
    """A typed error before any arithmetic: no OverflowError, no warning."""
    with pytest.raises(ValidationError):
        coherent_state(alpha, 5000)


@settings(deadline=None, max_examples=50)
@given(
    mod=st.floats(min_value=0.0, max_value=1.0),
    arg=st.floats(min_value=-math.pi, max_value=math.pi),
    cutoff=st.integers(11, 30),
)
def test_coherent_amplitudes_are_the_plain_recursion(mod, arg, cutoff):
    alpha = mod * np.exp(1j * arg)
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    want = amps / np.linalg.norm(amps)
    assert coherent_state(alpha, cutoff).amplitudes.tobytes() == want.tobytes()


def test_amplitude_file_round_trip(tmp_path):
    s = superposition([(0, 1.0), (3, 1j)], 5)
    path = tmp_path / "state.txt"
    lines = [f"{n} {a.real:.17g} {a.imag:.17g}\n" for n, a in enumerate(s.amplitudes)]
    path.write_text("".join(lines))
    loaded = load_amplitudes(path)
    assert loaded.cutoff == 5
    assert np.allclose(loaded.amplitudes, s.amplitudes)


def test_amplitude_file_comments_and_default_cutoff(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("# a comment\n\n0 1.0 0.0\n2 0.0 1.0  # trailing\n")
    s = load_amplitudes(path)
    assert s.cutoff == 2
    assert s.amplitudes[2] == pytest.approx(1j / np.sqrt(2))


def test_amplitude_file_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1.0 0.0\n1 oops 0.0\n")
    with pytest.raises(ValidationError, match="bad.txt:2"):
        load_amplitudes(path)


def test_amplitude_file_that_does_not_decode_names_the_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1.0 0.0\n\xff 1.0 0.0\n")
    with pytest.raises(ValidationError, match=r"bad\.txt: ") as info:
        load_amplitudes(path)
    assert type(info.value) is ValidationError


def test_amplitude_file_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n")
    with pytest.raises(ValidationError):
        load_amplitudes(path)
