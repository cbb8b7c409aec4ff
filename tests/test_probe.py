import numpy as np
import pytest
from scipy.linalg import expm

from oracles import bloch_from_qubit, evolve_joint
from fieldtomo.exceptions import GridError, ValidationError
from fieldtomo.fock import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    DensityMatrix,
    density_from_pure,
    joint_op,
    lowering_op,
)
from fieldtomo.probe import (
    BlochTrajectory,
    ProbeConfig,
    ideal_bloch_trajectory,
    time_grid,
)


def propagator_oracle(rho: DensityMatrix, g: float, t: float) -> np.ndarray:
    """Independent route: full joint unitary + partial trace.

    Builds U = exp(-i t g (sigma_+ a + sigma_- a^dag)) on the joint
    space, evolves rho x |g><g|, and traces out the field.  Shares no
    code with the closed-form Bloch expressions.
    """
    dim = rho.cutoff + 1
    a = lowering_op(rho.cutoff)
    h = g * (joint_op(a, SIGMA_PLUS) + joint_op(a.conj().T, SIGMA_MINUS))
    u = expm(-1j * h * t)
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    joint = np.kron(rho.elements, ground)
    evolved = u @ joint @ u.conj().T
    out = np.zeros((2, 2), dtype=complex)
    for q in range(2):
        for p in range(2):
            out[q, p] = np.sum(evolved[q::2, p::2].diagonal()[:dim])
    return out


def random_density(rng, cutoff: int) -> DensityMatrix:
    d = cutoff + 1
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_probe_config_needs_a_positive_coupling():
    with pytest.raises(ValidationError):
        ProbeConfig(g=0.0)


def test_time_grid_excludes_zero():
    t = time_grid(0.25, 4)
    assert np.allclose(t, [0.25, 0.5, 0.75, 1.0])
    with pytest.raises(GridError):
        time_grid(-0.1, 4)
    with pytest.raises(GridError):
        time_grid(0.1, 0)


def test_initial_condition_points_north(state_one, probe):
    # Before any interaction the probe is untouched: (x, y, z) = (0, 0, 1).
    rho_q = evolve_joint(density_from_pure(state_one), probe, 0.0)
    assert bloch_from_qubit(rho_q) == pytest.approx((0.0, 0.0, 1.0))


def test_evolve_joint_matches_propagator_oracle():
    rng = np.random.default_rng(42)
    cfg = ProbeConfig(g=1.0)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, 6)
        t = rng.uniform(0.0, 30.0)
        direct = evolve_joint(rho, cfg, t)
        oracle = propagator_oracle(rho, cfg.g, t)
        worst = max(worst, float(np.max(np.abs(direct - oracle))))
    assert worst < 1e-10


def test_evolve_joint_output_is_physical():
    rng = np.random.default_rng(3)
    cfg = ProbeConfig(g=0.8)
    for _ in range(20):
        rho_q = evolve_joint(random_density(rng, 5), cfg, rng.uniform(0, 10))
        assert np.trace(rho_q).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho_q - rho_q.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho_q)) > -1e-12


def test_trajectory_consistent_with_pointwise_evolution(state_two, probe):
    times = time_grid(0.11, 64)
    traj = ideal_bloch_trajectory(density_from_pure(state_two), probe, times)
    for k in (0, 17, 63):
        expected = bloch_from_qubit(
            evolve_joint(density_from_pure(state_two), probe, times[k])
        )
        got = (traj.x[k], traj.y[k], traj.z[k])
        assert np.allclose(got, expected, atol=1e-12)


def test_fock_state_z_is_single_tone(probe):
    from fieldtomo.fock import fock_state

    rho = density_from_pure(fock_state(1, 8))
    times = time_grid(0.075, 512)
    traj = ideal_bloch_trajectory(rho, probe, times)
    assert np.allclose(traj.z, np.cos(2.0 * times), atol=1e-12)
    assert np.allclose(traj.x, 0.0, atol=1e-14)
    assert np.allclose(traj.y, 0.0, atol=1e-14)


def test_trajectory_validation():
    times = time_grid(0.1, 8)
    with pytest.raises(ValidationError):
        BlochTrajectory(times=times)  # no axes at all
    with pytest.raises(ValidationError):
        BlochTrajectory(times=times, z=np.full(8, 1.5))  # outside Bloch ball
    with pytest.raises(GridError):
        BlochTrajectory(times=np.array([0.1, 0.2, 0.5]), z=np.zeros(3))
    with pytest.raises(ValidationError):
        BlochTrajectory(times=times, z=np.zeros(4))  # length mismatch
    for bad in ([np.nan] * 3, [0.1, np.nan, 0.3], [0.1, 0.2, np.inf], [np.nan]):
        with pytest.raises(GridError):
            BlochTrajectory(times=np.array(bad), z=np.zeros(len(bad)))
    one = BlochTrajectory(times=np.array([0.5]), z=np.zeros(1))  # one-sample grid
    assert one.times.tolist() == [0.5]


def test_trajectory_metadata_and_axes(probe, state_one):
    times = time_grid(0.2, 16)
    traj = ideal_bloch_trajectory(density_from_pure(state_one), probe, times)
    assert traj.axes() == ("x", "y", "z")
    assert traj.times[0] == pytest.approx(0.2)
    assert traj.times.size == 16
