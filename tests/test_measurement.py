import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fieldtomo import measurement
from fieldtomo import probe as probe_mod
from fieldtomo.exceptions import GridError, ValidationError
from fieldtomo.fock import density_from_pure, fock_state
from fieldtomo.measurement import (
    MeasurementPlan,
    read_trajectory_csv,
    sample_records,
    sample_trajectory,
    write_trajectory_csv,
)
from fieldtomo.probe import MAX_N_T, ideal_bloch_trajectory, time_grid


@pytest.fixture(scope="module")
def rho_one():
    return density_from_pure(fock_state(1, 8))


AXIS_SUBSETS = [s for r in (1, 2, 3) for s in itertools.combinations("xyz", r)]


def test_plan_validation():
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.0, n_t=10)
    for n_t in (0, math.inf, math.nan):  # int() of inf or nan raises its own error
        with pytest.raises(ValidationError):
            MeasurementPlan(delta_t=0.1, n_t=n_t)
    for n_m in (0, 2**63, 10**22, 10**400, math.inf, math.nan):  # numpy draws int64 counts
        with pytest.raises(ValidationError):
            MeasurementPlan(delta_t=0.1, n_t=10, n_m=n_m)
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=10, axes=("x", "q"))
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=10, axes=())
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=10, gamma=-0.1)


@pytest.mark.parametrize("field, bad", [
    ("delta_t", 0.0), ("n_t", 2.5), ("n_m", 0), ("axes", ("x", "x")), ("gamma", -0.1),
    ("seed", -1),
])
def test_a_plan_refusal_names_its_field(field, bad):
    """Each rule of the plan is a `ValidationError` keyed by its field, the
    name of its ``[plan]`` INI option, by which the CLI keys it."""
    with pytest.raises(ValidationError) as err:
        MeasurementPlan(**{"delta_t": 0.1, "n_t": 10, field: bad})
    assert err.value.key == field


def test_a_grid_numpy_cannot_address_is_refused_before_any_allocation():
    """An ``n_t`` whose grid of 8-byte floats exceeds numpy's address space
    (``8 n_t > intp max``) is refused, by the plan and by `time_grid`, and
    not read as an empty grid or a raw numpy error; nothing is allocated."""
    assert MeasurementPlan(delta_t=0.1, n_t=MAX_N_T).n_t == MAX_N_T  # not built
    tracemalloc.start()
    try:
        for n_t in (MAX_N_T + 1, 2**60 + 1, 2**63 - 1, 2**63, 2**64 + 5, 10**400):
            with pytest.raises(ValidationError, match="n_t must be an integer in 1.."):
                MeasurementPlan(delta_t=0.1, n_t=n_t)
            with pytest.raises(GridError, match="for an addressable grid"):
                time_grid(0.1, n_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_the_largest_shot_count_samples(rho_one, g):
    """numpy's binomial draws int64 counts: ``2**63 - 1`` shots still sample."""
    plan = MeasurementPlan(delta_t=0.075, n_t=64, n_m=measurement.MAX_SHOTS)
    traj = sample_trajectory(rho_one, g, plan)
    assert all(np.max(np.abs(getattr(traj, a))) <= 1.0 for a in "xyz")


def test_infinite_shots_reproduces_ideal(rho_one, g):
    plan = MeasurementPlan(delta_t=0.075, n_t=128, n_m=None)
    traj = sample_trajectory(rho_one, g, plan)
    ideal = ideal_bloch_trajectory(rho_one, g, plan.delta_t, plan.n_t)
    assert np.allclose(traj.z, ideal.z)
    assert np.allclose(traj.x, ideal.x)


def test_finite_shots_are_empirical_means(rho_one, g):
    plan = MeasurementPlan(delta_t=0.075, n_t=64, n_m=1, axes=("z",), seed=5)
    traj = sample_trajectory(rho_one, g, plan)
    assert set(np.unique(traj.z)).issubset({-1.0, 1.0})
    plan7 = MeasurementPlan(delta_t=0.075, n_t=64, n_m=7, axes=("z",), seed=5)
    z7 = sample_trajectory(rho_one, g, plan7).z
    # empirical means of 7 shots live on the odd-sevenths lattice
    assert np.allclose(np.round((z7 + 1.0) * 3.5), (z7 + 1.0) * 3.5)


def test_same_seed_reproduces_and_seeds_differ(rho_one, g):
    mk = lambda seed: sample_trajectory(
        rho_one, g, MeasurementPlan(delta_t=0.075, n_t=64, n_m=50, seed=seed)
    )
    a, b, c = mk(11), mk(11), mk(12)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.z, c.z)


def test_axis_streams_independent_of_subset(rho_one, g):
    """Removing axes from the plan must not shift the other axes' shots."""
    full = sample_trajectory(
        rho_one, g, MeasurementPlan(delta_t=0.075, n_t=64, n_m=20, seed=3)
    )
    z_only = sample_trajectory(
        rho_one,
        g,
        MeasurementPlan(delta_t=0.075, n_t=64, n_m=20, axes=("z",), seed=3),
    )
    assert np.array_equal(full.z, z_only.z)
    assert z_only.x is None and z_only.y is None


def test_sampler_refuses_a_nan_mean():
    with pytest.raises(ValidationError, match="outside"):
        measurement._sample_axis(np.array([0.0, np.nan, 0.5]), 10, range(2), "z")


def test_plan_rejects_bad_seed():
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ValidationError):
            MeasurementPlan(delta_t=0.1, n_t=10, n_m=5, seed=seed)
    assert MeasurementPlan(delta_t=0.1, n_t=10, seed=np.int64(4)).seed == 4


def test_samples_are_prefix_stable(rho_one, g):
    """The first k points of every axis do not depend on n_t."""
    short, long = (
        sample_trajectory(
            rho_one, g, MeasurementPlan(delta_t=0.075, n_t=n_t, n_m=30, seed=17)
        )
        for n_t in (64, 256)
    )
    for axis in ("x", "y", "z"):
        assert np.array_equal(getattr(short, axis), getattr(long, axis)[:64]), axis


@settings(max_examples=60, deadline=None)
@given(
    n_records=st.integers(1, 5),
    n_m=st.integers(1, 1000),
    gamma=st.sampled_from([0.0, 0.02]),
    axes=st.sampled_from(AXIS_SUBSETS),
    sizes=st.lists(st.integers(1, 300), min_size=2, max_size=2, unique=True).map(sorted),
    seed=st.integers(0, 2**32),
)
def test_sample_records_are_prefix_stable(
    alpha_state, g, n_records, n_m, gamma, axes, sizes, seed
):
    """A stack at n_t = k is, bit for bit, the first k columns of the stack
    at any n_t = K > k: `noise-sweep` reads its shorter cells that way."""
    k, big_k = sizes
    rho = density_from_pure(alpha_state)
    short, long = (
        sample_records(
            rho,
            g,
            MeasurementPlan(delta_t=0.075, n_t=n_t, n_m=n_m, axes=axes, gamma=gamma, seed=seed),
            n_records,
        )
        for n_t in (k, big_k)
    )
    assert set(short) == set(long) == set(axes)
    for axis in axes:
        assert short[axis].shape == (n_records, k)
        assert short[axis].tobytes() == np.ascontiguousarray(long[axis][:, :k]).tobytes(), axis


def test_axis_stream_is_pinned(rho_one, g):
    """Each axis is one binomial draw over the stream (seed, axis_index)."""
    seed, n_m = 23, 40
    plan = MeasurementPlan(delta_t=0.075, n_t=128, n_m=n_m, seed=seed)
    ideal = ideal_bloch_trajectory(rho_one, g, plan.delta_t, plan.n_t)
    traj = sample_trajectory(rho_one, g, plan)
    for axis, index in (("x", 0), ("y", 1), ("z", 2)):
        p = np.clip(0.5 * (1.0 + getattr(ideal, axis)), 0.0, 1.0)
        counts = np.random.default_rng((seed, index)).binomial(n_m, p)
        assert np.array_equal(getattr(traj, axis), 2 * counts / n_m - 1), axis


def test_sampling_is_unbiased(rho_one, g):
    """Grand mean over 200 seeds stays within 4 sigma of the ideal value."""
    n_m, reps = 100, 200
    plan_times = MeasurementPlan(delta_t=0.075, n_t=32, n_m=n_m, axes=("z",))
    ideal = ideal_bloch_trajectory(rho_one, g, plan_times.delta_t, plan_times.n_t).z
    acc = np.zeros_like(ideal)
    for rep in range(reps):
        plan = MeasurementPlan(
            delta_t=0.075, n_t=32, n_m=n_m, axes=("z",), seed=1000 + rep
        )
        acc += sample_trajectory(rho_one, g, plan).z
    mean = acc / reps
    # worst-case sigma of the grand mean is 1/sqrt(n_m reps)
    assert np.max(np.abs(mean - ideal)) < 4.0 / np.sqrt(n_m * reps)


def test_sampling_variance_follows_binomial_law(rho_one, g):
    n_m, reps = 25, 300
    plan_times = MeasurementPlan(delta_t=0.075, n_t=16, n_m=n_m, axes=("z",))
    ideal = ideal_bloch_trajectory(rho_one, g, plan_times.delta_t, plan_times.n_t).z
    samples = np.empty((reps, ideal.size))
    for rep in range(reps):
        plan = MeasurementPlan(
            delta_t=0.075, n_t=16, n_m=n_m, axes=("z",), seed=2000 + rep
        )
        samples[rep] = sample_trajectory(rho_one, g, plan).z
    empirical = samples.var(axis=0).mean()
    predicted = ((1.0 - ideal**2) / n_m).mean()
    assert empirical == pytest.approx(predicted, rel=0.2)


def test_decoherence_damps_token_exponentially(rho_one, g):
    gamma = 0.05
    plan = MeasurementPlan(delta_t=0.075, n_t=64, n_m=None, gamma=gamma)
    traj = sample_trajectory(rho_one, g, plan)
    bare = sample_trajectory(
        rho_one, g, MeasurementPlan(delta_t=0.075, n_t=64, n_m=None)
    )
    assert np.allclose(traj.z, bare.z * np.exp(-gamma * traj.times))


def test_trajectory_csv_round_trip(tmp_path, rho_one, g):
    plan = MeasurementPlan(delta_t=0.075, n_t=32, n_m=40, axes=("x", "z"), seed=9)
    traj = sample_trajectory(rho_one, g, plan)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y,z"
    back = read_trajectory_csv(path)
    assert back.delta_t == traj.delta_t == 0.075
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.x, traj.x)
    assert back.y is None
    assert np.array_equal(back.z, traj.z)




@st.composite
def trajectory_columns(draw, n_t=None, axes=None):
    """Duck-typed trajectory: any floats in every column of ``axes`` (any
    subset if None), on ``n_t`` rows (1-64 or either side of a block edge if
    None)."""
    if n_t is None:
        n_t = draw(st.one_of(st.integers(1, 64), st.sampled_from(oracles.BLOCK_EDGE_ROWS)))
    axes = axes or draw(st.sampled_from(AXIS_SUBSETS))
    comps = {a: draw(oracles.float_columns(n_t)) if a in axes else None for a in "xyz"}
    return SimpleNamespace(times=draw(oracles.float_columns(n_t)), **comps)


def assert_trajectory_csv_bytes(traj) -> None:
    oracles.assert_csv_like_oracle(
        write_trajectory_csv, oracles.write_trajectory_csv, traj, b"t,x,y,z", traj.times.size
    )


@settings(max_examples=40, deadline=None)
@given(traj=trajectory_columns())
def test_trajectory_csv_bytes_match_the_csv_writer_oracle(traj):
    assert_trajectory_csv_bytes(traj)


@pytest.mark.parametrize("n_t", [1] + oracles.BLOCK_EDGE_ROWS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_trajectory_csv_bytes_match_the_oracle_across_block_edges(n_t, data):
    """One row, and row counts either side of one and of two row blocks, for
    a z-only and an x/y/z trajectory."""
    for axes in ("z", "xyz"):
        assert_trajectory_csv_bytes(data.draw(trajectory_columns(n_t, axes)))


def test_sampled_trajectory_csv_bytes_match_the_oracle(rho_one, g):
    axis_sets = (("x", "y", "z"), ("z",), ("x", "z"))
    for axes, n_m in itertools.product(axis_sets, (None, 1000)):
        plan = MeasurementPlan(delta_t=0.075, n_t=128, n_m=n_m, axes=axes, seed=4)
        assert_trajectory_csv_bytes(sample_trajectory(rho_one, g, plan))


@pytest.mark.parametrize(
    "row",
    ["0.1,0", "0.1,a,,", "abc,,,1", "0.1,,,0.5,7"],
)
def test_read_trajectory_csv_names_file_and_line_of_a_bad_row(tmp_path, row):
    path = tmp_path / "traj.csv"
    path.write_text(f"t,x,y,z\r\n0.05,,,0.25\r\n{row}\r\n")
    with pytest.raises(ValidationError, match=r"traj\.csv: line 3: ") as info:
        read_trajectory_csv(path)
    assert type(info.value) is ValidationError


def test_read_trajectory_csv_names_a_file_that_does_not_decode(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_bytes(b"t,x,y,z\r\n0.05,,,0.25\r\n0.1,,,\xff\r\n")
    with pytest.raises(ValidationError, match=r"traj\.csv: ") as info:
        read_trajectory_csv(path)
    assert type(info.value) is ValidationError


@pytest.mark.parametrize(
    "times",
    [
        [0.1, 0.2, 0.4, 0.5],  # a gap
        [0.0, 0.1, 0.2, 0.3],  # starts at t = 0
        [0.1, 0.2, 0.3, 0.4 + 2e-9],  # off the grid by more than 1e-9
        [0.2, 0.1],  # decreasing
        [np.nan] * 4,
        [0.1, 0.2, np.nan, 0.4],
        [0.1, 0.2, 0.3, np.inf],
        [np.inf] * 4,
        [np.nan],  # one sample
        [0.0],
        [-0.5],
    ],
)
def test_read_trajectory_csv_refuses_times_off_the_grid_naming_the_file(tmp_path, times):
    """Times enter only from a file, so the reader alone checks them: they
    must be finite and ``t_k = k delta_t`` with the step ``t[1] - t[0]`` (or
    ``t[0]`` for one row), to within ``1e-9 max(delta_t, 1)``."""
    path = tmp_path / "traj.csv"
    path.write_text("t,x,y,z\r\n" + "".join(f"{t!r},,,0\r\n" for t in times))
    with pytest.raises(GridError, match=r"traj\.csv: "):
        read_trajectory_csv(path)


def test_read_trajectory_csv_puts_near_grid_times_on_their_grid(tmp_path):
    """Times within the tolerance of ``t_k = k delta_t`` read as that grid,
    and one row as a grid of one step."""
    path = tmp_path / "traj.csv"
    path.write_text("t,x,y,z\r\n0.1,,,0\r\n0.2,,,0\r\n0.3000000005,,,0\r\n0.4,,,1\r\n")
    traj = read_trajectory_csv(path)
    assert traj.delta_t == 0.1 and traj.times.tobytes() == time_grid(0.1, 4).tobytes()
    path.write_text("t,x,y,z\r\n0.5,,,0.25\r\n")
    assert read_trajectory_csv(path).times.tolist() == [0.5]


def test_a_long_grid_is_simulated_and_its_times_accepted():
    """On ``n_t = 12_000_000`` points of ``delta_t = 1.39810125`` the spacings
    of `time_grid` differ by more than ``1e-9`` (ulps of ``t ~ 1.7e7``), and a
    spacing check with that fixed tolerance refused the library's own grid.
    The Fock-1 z record is simulated, and the reader's check accepts the
    grid, called on the array rather than on a 12-million-row file.  Cost:
    about 1 s and a traced peak of about 275 MB (96 MB arrays, three at a
    time)."""
    rho = density_from_pure(fock_state(1, 1))
    tracemalloc.start()
    try:
        traj = ideal_bloch_trajectory(rho, 1.0, 1.39810125, 12_000_000, ("z",))
        assert (traj.z.size, traj.axes()) == (12_000_000, ("z",))
        del traj
        probe_mod._trig_rows.cache_clear()
        assert measurement._grid_step(time_grid(1.39810125, 12_000_000), "long.csv") == 1.39810125
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        probe_mod._trig_rows.cache_clear()
    assert peak < 2**29
