import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fieldtomo.exceptions import ValidationError
from fieldtomo.fock import density_from_pure, fock_state
from fieldtomo.measurement import (
    MeasurementPlan,
    decohered_expectation,
    read_trajectory_csv,
    sample_records,
    sample_trajectory,
    write_trajectory_csv,
)
from fieldtomo.probe import ProbeConfig, ideal_bloch_trajectory


@pytest.fixture(scope="module")
def rho_one():
    return density_from_pure(fock_state(1, 8))


AXIS_SUBSETS = [s for r in (1, 2, 3) for s in itertools.combinations("xyz", r)]


def test_plan_validation():
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.0, n_t=10)
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=0)
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=10, n_m=0)
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=10, axes=("x", "q"))
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=10, axes=())
    with pytest.raises(ValidationError):
        MeasurementPlan(delta_t=0.1, n_t=10, gamma=-0.1)


def test_infinite_shots_reproduces_ideal(rho_one, probe):
    plan = MeasurementPlan(delta_t=0.075, n_t=128, n_m=None)
    traj = sample_trajectory(rho_one, probe, plan)
    ideal = ideal_bloch_trajectory(rho_one, probe, plan.times())
    assert np.allclose(traj.z, ideal.z)
    assert np.allclose(traj.x, ideal.x)


def test_finite_shots_are_empirical_means(rho_one, probe):
    plan = MeasurementPlan(delta_t=0.075, n_t=64, n_m=1, axes=("z",), seed=5)
    traj = sample_trajectory(rho_one, probe, plan)
    assert set(np.unique(traj.z)).issubset({-1.0, 1.0})
    plan7 = MeasurementPlan(delta_t=0.075, n_t=64, n_m=7, axes=("z",), seed=5)
    z7 = sample_trajectory(rho_one, probe, plan7).z
    # empirical means of 7 shots live on the odd-sevenths lattice
    assert np.allclose(np.round((z7 + 1.0) * 3.5), (z7 + 1.0) * 3.5)


def test_same_seed_reproduces_and_seeds_differ(rho_one, probe):
    mk = lambda seed: sample_trajectory(
        rho_one, probe, MeasurementPlan(delta_t=0.075, n_t=64, n_m=50, seed=seed)
    )
    a, b, c = mk(11), mk(11), mk(12)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.z, c.z)


def test_axis_streams_independent_of_subset(rho_one, probe):
    """Removing axes from the plan must not shift the other axes' shots."""
    full = sample_trajectory(
        rho_one, probe, MeasurementPlan(delta_t=0.075, n_t=64, n_m=20, seed=3)
    )
    z_only = sample_trajectory(
        rho_one,
        probe,
        MeasurementPlan(delta_t=0.075, n_t=64, n_m=20, axes=("z",), seed=3),
    )
    assert np.array_equal(full.z, z_only.z)
    assert z_only.x is None and z_only.y is None


def test_plan_rejects_bad_seed():
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ValidationError):
            MeasurementPlan(delta_t=0.1, n_t=10, n_m=5, seed=seed)
    assert MeasurementPlan(delta_t=0.1, n_t=10, seed=np.int64(4)).seed == 4


def test_samples_are_prefix_stable(rho_one, probe):
    """The first k points of every axis do not depend on n_t."""
    short, long = (
        sample_trajectory(
            rho_one, probe, MeasurementPlan(delta_t=0.075, n_t=n_t, n_m=30, seed=17)
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
    alpha_state, probe, n_records, n_m, gamma, axes, sizes, seed
):
    """A stack at n_t = k is, bit for bit, the first k columns of the stack
    at any n_t = K > k: `noise-sweep` reads its shorter cells that way."""
    k, big_k = sizes
    rho = density_from_pure(alpha_state)
    short, long = (
        sample_records(
            rho,
            probe,
            MeasurementPlan(delta_t=0.075, n_t=n_t, n_m=n_m, axes=axes, gamma=gamma, seed=seed),
            n_records,
        )
        for n_t in (k, big_k)
    )
    assert set(short) == set(long) == set(axes)
    for axis in axes:
        assert short[axis].shape == (n_records, k)
        assert short[axis].tobytes() == np.ascontiguousarray(long[axis][:, :k]).tobytes(), axis


def test_axis_stream_is_pinned(rho_one, probe):
    """Each axis is one binomial draw over the stream (seed, axis_index)."""
    seed, n_m = 23, 40
    plan = MeasurementPlan(delta_t=0.075, n_t=128, n_m=n_m, seed=seed)
    ideal = ideal_bloch_trajectory(rho_one, probe, plan.times())
    traj = sample_trajectory(rho_one, probe, plan)
    for axis, index in (("x", 0), ("y", 1), ("z", 2)):
        p = np.clip(0.5 * (1.0 + getattr(ideal, axis)), 0.0, 1.0)
        counts = np.random.default_rng((seed, index)).binomial(n_m, p)
        assert np.array_equal(getattr(traj, axis), 2 * counts / n_m - 1), axis


def test_sampling_is_unbiased(rho_one, probe):
    """Grand mean over 200 seeds stays within 4 sigma of the ideal value."""
    n_m, reps = 100, 200
    plan_times = MeasurementPlan(delta_t=0.075, n_t=32, n_m=n_m, axes=("z",))
    ideal = ideal_bloch_trajectory(rho_one, probe, plan_times.times()).z
    acc = np.zeros_like(ideal)
    for rep in range(reps):
        plan = MeasurementPlan(
            delta_t=0.075, n_t=32, n_m=n_m, axes=("z",), seed=1000 + rep
        )
        acc += sample_trajectory(rho_one, probe, plan).z
    mean = acc / reps
    # worst-case sigma of the grand mean is 1/sqrt(n_m reps)
    assert np.max(np.abs(mean - ideal)) < 4.0 / np.sqrt(n_m * reps)


def test_sampling_variance_follows_binomial_law(rho_one, probe):
    n_m, reps = 25, 300
    plan_times = MeasurementPlan(delta_t=0.075, n_t=16, n_m=n_m, axes=("z",))
    ideal = ideal_bloch_trajectory(rho_one, probe, plan_times.times()).z
    samples = np.empty((reps, ideal.size))
    for rep in range(reps):
        plan = MeasurementPlan(
            delta_t=0.075, n_t=16, n_m=n_m, axes=("z",), seed=2000 + rep
        )
        samples[rep] = sample_trajectory(rho_one, probe, plan).z
    empirical = samples.var(axis=0).mean()
    predicted = ((1.0 - ideal**2) / n_m).mean()
    assert empirical == pytest.approx(predicted, rel=0.2)


def test_decoherence_damps_token_exponentially(rho_one, probe):
    gamma = 0.05
    plan = MeasurementPlan(delta_t=0.075, n_t=64, n_m=None, gamma=gamma)
    traj = sample_trajectory(rho_one, probe, plan)
    bare = sample_trajectory(
        rho_one, probe, MeasurementPlan(delta_t=0.075, n_t=64, n_m=None)
    )
    assert np.allclose(traj.z, bare.z * np.exp(-gamma * traj.times))


def test_decohered_expectation_validates():
    with pytest.raises(ValidationError):
        decohered_expectation(np.zeros(3), -1.0, np.arange(1.0, 4.0))


def test_trajectory_csv_round_trip(tmp_path, rho_one, probe):
    plan = MeasurementPlan(delta_t=0.075, n_t=32, n_m=40, axes=("x", "z"), seed=9)
    traj = sample_trajectory(rho_one, probe, plan)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y,z"
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.x, traj.x)
    assert back.y is None
    assert np.array_equal(back.z, traj.z)




@st.composite
def trajectory_columns(draw):
    """Duck-typed trajectory: any floats in every column, any axis subset."""
    n_t = draw(st.integers(2, 64))
    axes = draw(st.sampled_from(AXIS_SUBSETS))
    column = st.lists(oracles.EDGE_FLOATS, min_size=n_t, max_size=n_t).map(np.array)
    comps = {a: draw(column) if a in axes else None for a in "xyz"}
    return SimpleNamespace(times=draw(column), **comps)


def assert_trajectory_csv_bytes(traj) -> None:
    oracles.assert_csv_like_oracle(
        write_trajectory_csv, oracles.write_trajectory_csv, traj, b"t,x,y,z", traj.times.size
    )


@settings(max_examples=40, deadline=None)
@given(traj=trajectory_columns())
def test_trajectory_csv_bytes_match_the_csv_writer_oracle(traj):
    assert_trajectory_csv_bytes(traj)


def test_sampled_trajectory_csv_bytes_match_the_oracle(rho_one, probe):
    axis_sets = (("x", "y", "z"), ("z",), ("x", "z"))
    for axes, n_m in itertools.product(axis_sets, (None, 1000)):
        plan = MeasurementPlan(delta_t=0.075, n_t=128, n_m=n_m, axes=axes, seed=4)
        assert_trajectory_csv_bytes(sample_trajectory(rho_one, probe, plan))


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
