import numpy as np
import pytest

from oracles import qubit_reduced
from fieldtomo.exceptions import CutoffError, ValidationError
from fieldtomo.fock import (
    DensityMatrix,
    FieldState,
    JointState,
    density_from_pure,
    embed,
    fidelity,
    fock_state,
    joint_op,
    lowering_op,
    number_op,
)


def test_fock_state_basics():
    s = fock_state(3, 8)
    assert s.cutoff == 8
    assert s.norm() == pytest.approx(1.0)
    assert s.populations()[3] == pytest.approx(1.0)
    assert s.mean_photon_number() == pytest.approx(3.0)


def test_fock_state_above_cutoff():
    with pytest.raises(CutoffError):
        fock_state(9, 8)


def test_cutoff_must_allow_two_levels():
    with pytest.raises(ValidationError):
        FieldState(np.array([1.0 + 0j]))


def test_amplitudes_read_only():
    s = fock_state(0, 4)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_ladder_raise_then_lower_scales_by_n_plus_one():
    # a a^dag |n> = (n+1) |n> below the cutoff, with a = lowering_op
    a = lowering_op(8)
    for n in range(5):
        out = a @ a.conj().T @ fock_state(n, 8).amplitudes
        assert out[n] == pytest.approx(n + 1)
        mask = np.ones(9, dtype=bool)
        mask[n] = False
        assert np.allclose(out[mask], 0.0)


def test_ladder_not_renormalized():
    a = lowering_op(8)
    s = fock_state(2, 8).amplitudes
    assert np.linalg.norm(a.conj().T @ s) == pytest.approx(np.sqrt(3.0))
    assert np.linalg.norm(a @ s) == pytest.approx(np.sqrt(2.0))


def test_lower_vacuum_gives_zero_vector():
    assert np.allclose(lowering_op(4) @ fock_state(0, 4).amplitudes, 0.0)


def test_density_from_pure_checks_norm():
    with pytest.raises(ValidationError):
        density_from_pure(FieldState(np.array([1.0, 1.0], dtype=complex)))


def test_density_matrix_invariants():
    s = fock_state(1, 4)
    rho = density_from_pure(s)
    assert rho.purity() == pytest.approx(1.0)
    assert np.trace(rho.elements).real == pytest.approx(1.0)
    assert np.allclose(rho.elements, rho.elements.conj().T)


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(3, dtype=complex) / 3
    m[0, 1] = 0.5
    with pytest.raises(ValidationError):
        DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(3, dtype=complex))


def test_fidelity_and_cutoff_mismatch():
    a = fock_state(1, 4)
    b = fock_state(1, 4)
    assert fidelity(a, b) == pytest.approx(1.0)
    assert fidelity(a, fock_state(2, 4)) == pytest.approx(0.0)
    # fidelity zero-pads the lower cutoff; the overlap itself refuses a mismatch
    assert fidelity(a, fock_state(1, 5)) == 1.0
    assert fidelity(fock_state(5, 5), a) == 0.0
    with pytest.raises(ValidationError):
        a.overlap(fock_state(1, 5))


def test_fidelity_global_phase_invariant():
    a = fock_state(2, 5)
    b = FieldState(np.exp(1j * 0.83) * a.amplitudes)
    assert fidelity(a, b) == pytest.approx(1.0)


def test_embed_pads_and_refuses_lossy_truncation():
    s = fock_state(1, 3)
    wide = embed(s, 6)
    assert wide.cutoff == 6
    assert fidelity(wide, fock_state(1, 6)) == pytest.approx(1.0)
    assert embed(wide, 3).cutoff == 3
    with pytest.raises(CutoffError):
        embed(fock_state(5, 6), 3)


def test_joint_index_convention():
    # |q, n> -> 2 n + q: field op must act on the slow index.
    n_op = joint_op(number_op(3), np.eye(2, dtype=complex))
    amps = np.zeros(8, dtype=complex)
    amps[2 * 3 + 1] = 1.0  # |e, 3>
    j = JointState(amps)
    assert np.vdot(j.amplitudes, n_op @ j.amplitudes).real == pytest.approx(3.0)
    rho_q = qubit_reduced(j)
    assert rho_q[1, 1].real == pytest.approx(1.0)


def test_joint_state_requires_normalization():
    with pytest.raises(ValidationError):
        JointState(np.ones(8, dtype=complex))
