import numpy as np
import pytest

import oracles
from fieldtomo import dce
from fieldtomo.dce import (
    DceConfig,
    condition_on_qubit,
    dce_record,
    evolve_rabi,
    recombine_branches,
    unconditional_mixture,
)
from fieldtomo.exceptions import (
    CutoffError,
    DegenerateBranchError,
    IntegrationError,
    ValidationError,
)
from fieldtomo.fock import FieldState

QUENCH = DceConfig(g_over_omega=0.5, tau=np.pi)


@pytest.fixture(scope="module")
def evolved():
    return evolve_rabi(QUENCH)


@pytest.fixture(scope="module")
def pair(evolved):
    return condition_on_qubit(evolved)


def test_config_validation():
    with pytest.raises(ValidationError):
        DceConfig(g_over_omega=0.0, tau=1.0)
    with pytest.raises(ValidationError):
        DceConfig(g_over_omega=0.5, tau=-1.0)
    with pytest.raises(ValidationError):
        DceConfig(g_over_omega=0.5, tau=1.0, cutoff=1)
    assert QUENCH.g == pytest.approx(0.5)


def test_parity_is_conserved(evolved):
    # |g, 0> starts in the +1 parity sector and the quench keeps it there
    assert abs(oracles.parity_expectation(evolved) - 1.0) < 1e-8
    for tau in (0.3, 1.1, 2.0):
        j = evolve_rabi(DceConfig(g_over_omega=0.5, tau=tau))
        assert abs(oracles.parity_expectation(j) - 1.0) < 1e-8


def test_branches_live_on_opposite_photon_parities(pair):
    pops_g = pair.phi_g.populations()
    pops_e = pair.phi_e.populations()
    assert np.sum(pops_g[1::2]) < 1e-9  # phi_g is even-photon only
    assert np.sum(pops_e[0::2]) < 1e-9  # phi_e is odd-photon only


def test_conditional_weights(pair):
    assert pair.p_g == pytest.approx(0.8608624866045926, abs=1e-12)
    assert pair.p_e == pytest.approx(0.13913751339540445, abs=1e-12)
    assert pair.c_g == pytest.approx(0.9278267546285757, abs=1e-12)
    # gauge: branch weights are real and positive
    assert np.imag(pair.c_g) == 0 and np.imag(pair.c_e) == 0


def test_mean_photon_number(evolved, pair):
    mix = unconditional_mixture(pair)
    diag = mix.diagonal()
    mean_n = float(np.sum(np.arange(diag.size) * diag))
    assert mean_n == pytest.approx(0.3303244581176449, abs=1e-12)


def test_mixture_superdiagonal_vanishes_by_parity(pair):
    mix = unconditional_mixture(pair)
    assert np.max(np.abs(mix.superdiagonal())) < 1e-12


def test_plus_minus_split_is_balanced(evolved):
    # p_+- = 1/2 +- Re rho_ge of the reduced qubit state
    assert abs(oracles.qubit_reduced(evolved)[0, 1].real) <= 1e-9


def test_expm_and_rk4_agree(evolved):
    # Two independent propagators: a dense matrix exponential over the
    # criterion-5 taus and one long quench, and RK4 at 1e-4 drive periods
    # a step.
    for tau in [*np.linspace(np.pi / 8, np.pi, 8), 1000.0]:
        cfg = DceConfig(g_over_omega=0.5, tau=float(tau))
        expm = oracles.expm_rabi(cfg)
        assert np.max(np.abs(evolve_rabi(cfg).amplitudes - expm)) <= 1e-12, tau
    rk4 = oracles.rk4_rabi(QUENCH, dt=1e-4 * 2.0 * np.pi / QUENCH.omega)
    assert np.max(np.abs(evolved.amplitudes - rk4)) < 1e-8


def test_rk4_with_coarse_step_fails_norm_check():
    # RK4 at dt = 0.5 loses norm; the library's guard must refuse that state.
    drifted = oracles.rk4_rabi(QUENCH, dt=0.5)
    with pytest.raises(IntegrationError):
        dce._check_evolved(drifted, QUENCH)


def test_small_cutoff_is_detected():
    with pytest.raises(CutoffError):
        evolve_rabi(DceConfig(g_over_omega=0.5, tau=np.pi, cutoff=3))


def test_recombination_round_trip(pair):
    phi_g, phi_e = recombine_branches(
        pair.phi_plus, pair.phi_minus, pair.c_g, pair.c_e
    )
    assert np.max(np.abs(phi_g.amplitudes - pair.phi_g.amplitudes)) < 1e-9
    assert np.max(np.abs(phi_e.amplitudes - pair.phi_e.amplitudes)) < 1e-9


def test_recombination_degenerate_weight(pair):
    with pytest.raises(DegenerateBranchError):
        recombine_branches(pair.phi_plus, pair.phi_minus, 1e-12, 1.0)


def test_recombination_cutoff_mismatch(pair):
    short = FieldState(pair.phi_g.amplitudes[:4] + 0.5)
    with pytest.raises(ValidationError):
        recombine_branches(pair.phi_g, short, pair.c_g, pair.c_e)


def test_record_is_json_ready(evolved, pair):
    rec = dce_record(QUENCH, evolved, pair)
    assert rec["g_over_omega"] == pytest.approx(0.5)
    assert rec["tau"] == pytest.approx(np.pi)
    assert rec["c_g"]["re"] == pytest.approx(pair.c_g)
    assert rec["mean_photons"] == pytest.approx(0.3303244581176449, abs=1e-12)
    assert rec["leakage"] < 1e-20
    assert len(rec["phi_g"]) == QUENCH.cutoff + 1
    assert {"re", "im"} <= set(rec["phi_g"][0])
    import json

    json.dumps(rec)  # must not raise
