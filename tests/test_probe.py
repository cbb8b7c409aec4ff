import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from oracles import bloch_from_qubit, evolve_joint
from fieldtomo import probe as probe_mod
from fieldtomo.exceptions import GridError, ValidationError
from fieldtomo.fock import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    DensityMatrix,
    density_from_pure,
    fock_state,
    joint_op,
    lowering_op,
)
from fieldtomo.measurement import MeasurementPlan, sample_trajectory
from fieldtomo.probe import (
    _ELEMENT_FLOOR,
    BlochTrajectory,
    bloch_components,
    ideal_bloch_trajectory,
    time_grid,
)
from fieldtomo.reconstruct import reconstruct_state


def propagator_oracle(rho: DensityMatrix, g: float, t: float) -> np.ndarray:
    """Independent route: full joint unitary + partial trace.

    Builds U = exp(-i t g (sigma_+ a + sigma_- a^dag)) on the joint
    space, evolves rho x |g><g|, and traces out the field.  Shares no
    code with the closed-form Bloch expressions.
    """
    dim = rho.elements.shape[0]
    a = lowering_op(dim - 1)
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


def test_the_simulator_refuses_a_zero_coupling():
    """The simulator takes the comb's coupling rule: ``g = 0`` leaves the
    probe idle and is refused, with the message `comb_frequencies` gives."""
    rho = density_from_pure(fock_state(1, 2))
    with pytest.raises(ValidationError, match="coupling g must be a finite number > 0"):
        ideal_bloch_trajectory(rho, 0.0, 0.075, 64)
    plan = MeasurementPlan(delta_t=0.075, n_t=64)
    with pytest.raises(ValidationError, match="coupling g must be a finite number > 0"):
        sample_trajectory(rho, 0.0, plan)


def test_time_grid_excludes_zero():
    t = time_grid(0.25, 4)
    assert np.allclose(t, [0.25, 0.5, 0.75, 1.0])
    with pytest.raises(GridError):
        time_grid(-0.1, 4)
    with pytest.raises(GridError):
        time_grid(0.1, 0)
    with pytest.raises(GridError):
        time_grid(2e-308, 1)  # pi / delta_t is finite, d_omega = 2 pi / delta_t is not


def test_time_grid_refuses_a_non_integral_n_t():
    """``n_t`` is a count: a fraction is refused, not rounded up by
    ``np.arange``, and integral values of any type are taken, as
    `MeasurementPlan` takes them."""
    for n_t in (2.5, 1.0000001, np.float64(64.5)):
        with pytest.raises(GridError, match="n_t must be an integer"):
            time_grid(0.1, n_t)
    for n_t in (4096, np.int64(4096), 4096.0):
        assert time_grid(0.1, n_t).tobytes() == time_grid(0.1, 4096).tobytes()


def test_time_grid_refuses_an_overflowing_last_time():
    """n_t delta_t is checked before the grid is multiplied out, so no numpy
    overflow warning (an error in this suite) is raised."""
    with pytest.raises(GridError, match="overflows"):
        time_grid(1e308, 4)
    with pytest.raises(GridError, match="overflows"):
        ideal_bloch_trajectory(density_from_pure(fock_state(1, 2)), 1.0, 1e308, 4)
    assert time_grid(1e308, 1)[-1] == 1e308


@pytest.mark.parametrize("seed", range(6))
def test_population_stack_rows_are_their_one_record_models(seed):
    """Each row of a ``(k, L)`` population stack is bit for bit the z model
    of that row alone, an all-empty level included."""
    rng = np.random.default_rng(seed)
    k, levels = int(rng.integers(1, 6)), int(rng.integers(2, 10))
    pops = rng.uniform(-0.1, 1.0, size=(k, levels))
    pops[:, rng.integers(levels)] = 0.0
    g = rng.uniform(0.6, 1.5)
    x, y, z = bloch_components(pops, None, g, 0.075, 300)
    assert x is None and y is None and z.shape == (k, 300)
    for row, p in zip(z, pops):
        assert np.array_equal(row, bloch_components(p, None, g, 0.075, 300)[2])

def test_a_stacked_record_skips_the_levels_its_own_element_leaves_empty():
    """A record of a stack skips a level whose own element is below
    `_ELEMENT_FLOOR`, as it does alone, while the other records add that
    level: a finite-shot record of all +1 solves to ``rho_11 ~ 1e-16``
    beside records that solve to much more.  A ``-0.0`` record stays
    ``-0.0``."""
    pops = np.array([[-0.0, 8e-17, 0.0], [0.7, 0.3, 0.0], [1.0, -1e-15, 1e-16]])
    z = bloch_components(pops, None, 1.0, 0.375, 16)[2]
    for row, p in zip(z, pops):
        assert row.tobytes() == bloch_components(p, None, 1.0, 0.375, 16)[2].tobytes()


def assert_same_bits(got, want) -> None:
    """Each of two component tuples is None in the same places and otherwise
    the same dtype, shape and bytes."""
    for a, b in zip(got, want, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def memo_rows(g: float, delta_t: float, n_t: int) -> dict:
    """The rows the memo holds for the grid ``(g, delta_t, n_t)``, which
    must be its entry: the lookup is a hit."""
    misses = probe_mod._trig_rows.cache_info().misses
    rows = probe_mod._trig_rows(np.float64(g).tobytes(), np.float64(delta_t).tobytes(), n_t)
    assert probe_mod._trig_rows.cache_info().misses == misses
    return rows


def assert_memo_holds_cold_rows(g: float, delta_t: float, n_t: int) -> None:
    """Every row the memo holds is a closed-form row computed afresh at
    ``(g, t)``, ``t = time_grid(delta_t, n_t)``, and the evaluation its key
    names: ``(fn, bits of factor)`` for ``fn(factor * t)``."""
    t = time_grid(delta_t, n_t)
    cold = {oracles.trig_row(kind, n, g, t).tobytes() for kind in "zcs" for n in range(10)}
    for (fn, bits), row in memo_rows(g, delta_t, n_t).items():
        factor = np.frombuffer(bits)[0]
        assert row.tobytes() in cold, (fn, factor)
        assert row.tobytes() == getattr(np, fn)(factor * t).tobytes(), (fn, factor)


#: Density-matrix elements, with levels at and below `_ELEMENT_FLOOR` drawn often.
ELEMENTS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 1e-15, -5e-15, _ELEMENT_FLOOR, -_ELEMENT_FLOOR,
                     float(np.nextafter(_ELEMENT_FLOOR, 0.0))]),
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    levels=st.integers(1, 9),
    stack=st.sampled_from([(), (1,), (3,)]),
    g=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.05, 3.0)),
    delta_t=st.floats(1e-3, 0.3),
    n_t=st.integers(1, 64),
)
def test_bloch_components_match_the_unmemoised_loop(data, levels, stack, g, delta_t, n_t):
    """The memoised forward model gives the cold loop's bits on random
    populations, stacks, superdiagonals and grids, levels below the element
    floor included, on calls that alternate between ``g`` or ``delta_t`` and
    its neighbour one ulp away, and between ``g`` and ``-g`` (``+-0.0`` when
    ``g`` is a zero, whose ``sin`` rows differ in sign only)."""
    pops = np.array(data.draw(st.lists(
        ELEMENTS, min_size=math.prod(stack) * levels, max_size=math.prod(stack) * levels
    ))).reshape(stack + (levels,))
    parts = data.draw(st.lists(ELEMENTS, min_size=2 * levels - 2, max_size=2 * levels - 2))
    sup = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    pops, sup = data.draw(st.sampled_from([(pops, sup), (pops, None), (None, sup)]))
    g_next, dt_next = float(np.nextafter(g, np.inf)), float(np.nextafter(delta_t, 1.0))
    for g_k, dt_k in [(g, delta_t), (g_next, delta_t), (g, delta_t), (g, dt_next),
                      (g, delta_t), (-g, delta_t), (g, delta_t), (g, delta_t)]:
        t = time_grid(dt_k, n_t)
        assert_same_bits(bloch_components(pops, sup, g_k, dt_k, n_t),
                         oracles.bloch_components(pops, sup, g_k, t))
        assert_memo_holds_cold_rows(g_k, dt_k, n_t)


class _TrigLog:
    """`numpy` as `fieldtomo.probe` sees it, logging every cos and sin call
    by its argument's bytes."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x):
        self.calls.append(("cos", x.tobytes()))
        return np.cos(x)

    def sin(self, x):
        self.calls.append(("sin", x.tobytes()))
        return np.sin(x)


def test_reconstruction_computes_each_trig_row_once(monkeypatch, alpha_state, g):
    """A reconstruction of the paper's coherent state simulates its record,
    then subtracts the z and x/y models of its estimates, all on one
    ``(g, delta_t, n_t)`` grid: each trig call fills one memo row and evaluates a
    new argument, so no row is computed twice, not even the z row of level n
    and the x/y cos row of level 4n, which are one evaluation (12 z rows and
    12 + 12 x/y rows, two of them shared); the floors compute none the
    simulator did not (every level of this state is above the element
    floor), and a second run computes none at all."""
    log = _TrigLog()
    monkeypatch.setattr(probe_mod, "np", log)
    probe_mod._trig_rows.cache_clear()
    rho = density_from_pure(alpha_state)
    traj = ideal_bloch_trajectory(rho, g, 0.075, 4096)
    simulated = len(log.calls)
    first = reconstruct_state(traj, g, reference=alpha_state)
    rows = memo_rows(g, 0.075, 4096)
    assert len(log.calls) == simulated == len(rows) == 12 + 2 * 12 - 2
    assert len(set(log.calls)) == len(log.calls)
    again = reconstruct_state(ideal_bloch_trajectory(rho, g, 0.075, 4096), g)
    assert len(log.calls) == simulated
    assert again.diagnostics == first.diagnostics


def test_memo_rows_are_read_only_and_no_component_shares_them():
    """The memoised rows are read-only, every returned component is a new
    array, and writing to one leaves the next call's bits unchanged."""
    probe_mod._trig_rows.cache_clear()
    args = ([[0.5, 0.3, 0.2], [0.0, 1.0, 0.0]], [0.1 + 0.2j, 0.05], 1.0)
    comps = bloch_components(*args, 0.075, 64)
    rows = list(memo_rows(1.0, 0.075, 64).values())
    assert len(rows) == 6 and not any(row.flags.writeable for row in rows)
    for comp in comps:
        assert not any(np.shares_memory(comp, row) for row in rows)
        comp[...] = 7.0
    assert_same_bits(bloch_components(*args, 0.075, 64),
                     oracles.bloch_components(*args, time_grid(0.075, 64)))


def test_memo_holds_one_grid():
    """A new grid, step or ``g`` replaces the memo's entry: it then holds the
    rows of that call alone."""
    probe_mod._trig_rows.cache_clear()
    dt_next = float(np.nextafter(0.075, 1.0))
    for g, dt, n_t in [(1.0, 0.075, 64), (1.0, 0.075, 65), (1.5, 0.075, 65), (1.0, 0.075, 65),
                       (1.0, dt_next, 65), (1.0, 0.075, 64)]:
        bloch_components([0.5, 0.5], [0.3], g, dt, n_t)
        assert probe_mod._trig_rows.cache_info().currsize == 1
        # cos(2 Omega_1 t), cos(Omega_0 t) and sin(Omega_1 t)
        assert set(memo_rows(g, dt, n_t)) == {
            ("cos", np.float64(2.0 * g).tobytes()),
            ("cos", np.float64(0.0).tobytes()),
            ("sin", np.float64(g).tobytes()),
        }
        assert_memo_holds_cold_rows(g, dt, n_t)


def test_initial_condition_points_north(state_one, g):
    # Before any interaction the probe is untouched: (x, y, z) = (0, 0, 1).
    rho_q = evolve_joint(density_from_pure(state_one), g, 0.0)
    assert bloch_from_qubit(rho_q) == pytest.approx((0.0, 0.0, 1.0))


def test_evolve_joint_matches_propagator_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, 6)
        t = rng.uniform(0.0, 30.0)
        direct = evolve_joint(rho, 1.0, t)
        oracle = propagator_oracle(rho, 1.0, t)
        worst = max(worst, float(np.max(np.abs(direct - oracle))))
    assert worst < 1e-10


def test_evolve_joint_output_is_physical():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho_q = evolve_joint(random_density(rng, 5), 0.8, rng.uniform(0, 10))
        assert np.trace(rho_q).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho_q - rho_q.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho_q)) > -1e-12


def test_trajectory_consistent_with_pointwise_evolution(state_two, g):
    times = time_grid(0.11, 64)
    traj = ideal_bloch_trajectory(density_from_pure(state_two), g, 0.11, 64)
    for k in (0, 17, 63):
        expected = bloch_from_qubit(
            evolve_joint(density_from_pure(state_two), g, times[k])
        )
        got = (traj.x[k], traj.y[k], traj.z[k])
        assert np.allclose(got, expected, atol=1e-12)


def test_fock_state_z_is_single_tone(g):
    from fieldtomo.fock import fock_state

    rho = density_from_pure(fock_state(1, 8))
    times = time_grid(0.075, 512)
    traj = ideal_bloch_trajectory(rho, g, 0.075, 512)
    assert np.allclose(traj.z, np.cos(2.0 * times), atol=1e-12)
    assert np.allclose(traj.x, 0.0, atol=1e-14)
    assert np.allclose(traj.y, 0.0, atol=1e-14)


def test_trajectory_validation():
    """A record is its components and its step: the grid ``t_k = k delta_t``
    follows from them, and a bad step is refused.  Times off a grid can only
    come from a file; the reader refuses them (`test_measurement`)."""
    with pytest.raises(ValidationError):
        BlochTrajectory(0.1)  # no axes at all
    with pytest.raises(ValidationError):
        BlochTrajectory(0.1, z=np.full(8, 1.5))  # outside Bloch ball
    with pytest.raises(ValidationError, match="one length"):
        BlochTrajectory(0.1, x=np.zeros(8), z=np.zeros(4))  # length mismatch
    with pytest.raises(ValidationError, match="1-D"):
        BlochTrajectory(0.1, z=np.zeros((2, 4)))
    for bad in (0.0, -0.1, np.nan, np.inf, 1e308):
        with pytest.raises(GridError):
            BlochTrajectory(bad, z=np.zeros(8))
    with pytest.raises(GridError):
        BlochTrajectory(0.1, z=np.zeros(0))
    one = BlochTrajectory(0.5, z=np.zeros(1))  # one-sample grid
    assert (one.delta_t, one.times.tolist()) == (0.5, [0.5])
    assert BlochTrajectory(1, x=np.zeros(3), y=np.zeros(3)).times.tolist() == [1.0, 2.0, 3.0]


def test_trajectory_refuses_a_nan_component():
    for axis in "xyz":
        with pytest.raises(ValidationError, match="Bloch ball"):
            BlochTrajectory(0.1, **{axis: np.array([0.0, np.nan, 0.5])})


def test_ideal_trajectory_refuses_an_overflowing_phase():
    """The top level's phase 2 g sqrt(n) t is checked before any cos: the
    first level's phase is finite here, level 15's is not."""
    rho = density_from_pure(fock_state(1, 15))
    with pytest.raises(ValidationError, match="overflows"):
        ideal_bloch_trajectory(rho, 1.0, 1e305, 256)


def test_trajectory_metadata_and_axes(g, state_one):
    traj = ideal_bloch_trajectory(density_from_pure(state_one), g, 0.2, 16)
    assert traj.axes() == ("x", "y", "z")
    assert traj.times[0] == pytest.approx(0.2)
    assert traj.times.size == 16
