"""End-to-end acceptance checks.

Each test prints a single ``criterion N: PASS/FAIL`` line so the suite
output doubles as a scorecard.  Tolerances are the contract; do not
loosen them to make a run pass.
"""

import json
import time

import numpy as np
import scipy.linalg

from oracles import (
    bloch_from_qubit,
    cosine_pair,
    hermitian_defect,
    parity_expectation,
    parseval_defect,
    sine_pair,
)
from fieldtomo.cli import main
from fieldtomo.dce import (
    DceConfig,
    condition_on_qubit,
    evolve_rabi,
    recombine_branches,
)
from fieldtomo.fock import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    DensityMatrix,
    density_from_pure,
    embed,
    fidelity,
    fock_state,
    joint_op,
    lowering_op,
)
from fieldtomo.measurement import MeasurementPlan, sample_trajectory
from fieldtomo.probe import (
    ProbeConfig,
    ideal_bloch_trajectory,
    time_grid,
)
from fieldtomo.reconstruct import estimate_coupling, reconstruct_state
from fieldtomo.spectral import comb_frequencies, dft
from fieldtomo.states import coherent_state, superposition

PROBE = ProbeConfig(g=1.0)
TIMES = time_grid(0.075, 4096)


def report(capsys, num: int, ok: bool, detail: str) -> bool:
    # bypass capture so the scorecard shows up even when every test passes
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def ideal_result(state, **kwargs):
    traj = ideal_bloch_trajectory(density_from_pure(state), PROBE, TIMES)
    return reconstruct_state(traj, g=PROBE.g, **kwargs)


def test_criterion_1_reference_table(capsys):
    t0 = time.monotonic()
    one = superposition([(1, 1.0), (2, 1.0)], 8)
    two = superposition([(1, 1.0), (2, np.exp(1j * np.pi / 4))], 8)
    r1 = ideal_result(one)
    r2 = ideal_result(two)
    elapsed = time.monotonic() - t0
    checks = {
        "rho_11": (r1.populations[1], 0.5004),
        "rho_22": (r1.populations[2], 0.4997),
        "Re rho_12 (state 1)": (r1.coherences[1].real, 0.4998),
        "Re rho_12 (state 2)": (r2.coherences[1].real, 0.3532),
        "Im rho_12 (state 2)": (r2.coherences[1].imag, 0.3532),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst <= 0.0010 and elapsed < 5.0
    assert report(
        capsys, 1, ok, f"table max deviation {worst:.2e} (tol 1.0e-03), {elapsed:.2f} s"
    )


def test_criterion_2_coherent_state(capsys):
    t0 = time.monotonic()
    alpha = coherent_state(0.7 * np.exp(1j * np.pi / 3), 12)
    res = ideal_result(alpha, reference=alpha)
    elapsed = time.monotonic() - t0
    fid = res.fidelity_vs_reference
    phase_err = max(
        abs(res.phases[n] - n * np.pi / 3) for n in range(4)
    )
    ok = fid >= 0.9999 and phase_err <= 0.01 and elapsed < 5.0
    assert report(
        capsys,
        2,
        ok,
        f"fidelity {fid:.6f} (>= 0.9999), phase error {phase_err:.2e} rad "
        f"(tol 1e-02), {elapsed:.2f} s",
    )


def test_criterion_3_fock_spectra(capsys):
    worst_area = 0.0
    worst_xy = 0.0
    freqs = comb_frequencies(PROBE.g, 8)
    xy_centers = np.concatenate((freqs["sum"], freqs["diff"][1:]))
    for n in range(3):
        rho = density_from_pure(fock_state(n, 8))
        traj = ideal_bloch_trajectory(rho, PROBE, TIMES)
        spec_z = dft(traj.z, TIMES)
        spec_x = dft(traj.x, TIMES)
        spec_y = dft(traj.y, TIMES)
        area = cosine_pair(spec_z, 2.0 * PROBE.g * np.sqrt(n), 4)
        worst_area = max(worst_area, abs(area - 1.0))
        for center in xy_centers:
            for spec in (spec_x, spec_y):
                worst_xy = max(worst_xy, abs(sine_pair(spec, center, 4)))
    ok = worst_area <= 0.002 and worst_xy < 1e-6
    assert report(
        capsys,
        3,
        ok,
        f"combined peak area off by {worst_area:.2e} (tol 2e-03), "
        f"largest x/y area {worst_xy:.1e} (< 1e-06)",
    )


def test_criterion_4_noise_scaling(tmp_path, capsys):
    t0 = time.monotonic()
    left, right = tmp_path / "left", tmp_path / "right"
    assert main(["noise-sweep", "--preset", "paper-fig6-left",
                 "--out-dir", str(left)]) == 0
    assert main(["noise-sweep", "--preset", "paper-fig6-right",
                 "--out-dir", str(right)]) == 0
    elapsed = time.monotonic() - t0
    xi_slopes = json.loads(
        (left / "noise_sweep_slopes.json").read_text()
    )["xi_vs_n_m"]
    snr_slope = json.loads(
        (right / "noise_sweep_slopes.json").read_text()
    )["snr_vs_n_t"]["1000"]
    xi_err = max(abs(s + 0.5) for s in xi_slopes.values())
    ok = (
        len(xi_slopes) == 2
        and xi_err <= 0.05
        and abs(snr_slope - 0.5) <= 0.05
        and elapsed < 120.0
    )
    assert report(
        capsys,
        4,
        ok,
        f"xi slopes {sorted(round(s, 3) for s in xi_slopes.values())} "
        f"(target -0.5 +- 0.05), S/xi slope {snr_slope:.3f} "
        f"(target +0.5 +- 0.05), {elapsed:.1f} s",
    )


def test_criterion_5_dce_pipeline(capsys):
    t0 = time.monotonic()
    worst_parity = 0.0
    for tau in np.linspace(np.pi / 8, np.pi, 8):
        j = evolve_rabi(DceConfig(g_over_omega=0.5, tau=float(tau)))
        worst_parity = max(worst_parity, abs(parity_expectation(j) - 1.0))
    joint = evolve_rabi(DceConfig(g_over_omega=0.5, tau=np.pi))
    pair = condition_on_qubit(joint)
    support_leak = max(
        float(np.sum(pair.phi_g.populations()[1::2])),
        float(np.sum(pair.phi_e.populations()[0::2])),
    )
    # tomography of the +/- branches at infinite shots, then recombine
    recon = []
    for phi in (pair.phi_plus, pair.phi_minus):
        res = reconstruct_state(
            ideal_bloch_trajectory(density_from_pure(phi), PROBE, TIMES),
            g=PROBE.g,
            n_max=8,
            reference=phi,
        )
        recon.append(res)
    target_cutoff = pair.phi_g.cutoff
    phi_g, phi_e = recombine_branches(
        embed(recon[0].state, target_cutoff),
        embed(recon[1].state, target_cutoff),
        pair.c_g,
        pair.c_e,
    )
    fid_g = fidelity(phi_g, pair.phi_g)
    fid_e = fidelity(phi_e, pair.phi_e)
    elapsed = time.monotonic() - t0
    ok = (
        worst_parity <= 1e-8
        and support_leak <= 1e-9
        and min(r.fidelity_vs_reference for r in recon) >= 0.999
        and min(fid_g, fid_e) >= 0.999
        and elapsed < 30.0
    )
    assert report(
        capsys,
        5,
        ok,
        f"parity drift {worst_parity:.1e} (<= 1e-08), support leak "
        f"{support_leak:.1e} (<= 1e-09), recombined fidelities "
        f"{fid_g:.6f}/{fid_e:.6f} (>= 0.999), {elapsed:.1f} s",
    )


def test_criterion_6_property_suites(capsys):
    rng = np.random.default_rng(20260823)
    # round-trip fidelity over 100 random pure states
    worst_fid = 1.0
    for _ in range(100):
        n_top = int(rng.integers(2, 7))
        amps = rng.uniform(0.3, 1.0, n_top + 1) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, n_top + 1)
        )
        state = superposition(list(enumerate(amps)), 8)
        res = ideal_result(state, reference=state)
        worst_fid = min(worst_fid, res.fidelity_vs_reference)

    # oracle equivalence: analytic Bloch values vs matrix-exponential evolution
    worst_bloch = 0.0
    for _ in range(100):
        dim = 7
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = mat @ mat.conj().T
        rho = DensityMatrix(mat / np.trace(mat).real)
        t = float(rng.uniform(0.05, 25.0))
        a = lowering_op(dim - 1)
        h = PROBE.g * (
            joint_op(a, SIGMA_PLUS) + joint_op(a.conj().T, SIGMA_MINUS)
        )
        u = scipy.linalg.expm(-1j * h * t)
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0
        evolved = u @ np.kron(rho.elements, ground) @ u.conj().T
        qubit = np.zeros((2, 2), dtype=complex)
        for q in range(2):
            for p in range(2):
                qubit[q, p] = np.trace(evolved[q::2, p::2])
        oracle = np.array(bloch_from_qubit(qubit))
        traj = ideal_bloch_trajectory(rho, PROBE, np.array([t]))
        analytic = np.array([traj.x[0], traj.y[0], traj.z[0]])
        worst_bloch = max(worst_bloch, float(np.max(np.abs(analytic - oracle))))

    # spectral identities on ideal and sampled data
    worst_parseval = 0.0
    worst_hermitian = 0.0
    state = coherent_state(0.7 * np.exp(1j * np.pi / 3), 12)
    rho_c = density_from_pure(state)
    plan = MeasurementPlan(delta_t=0.075, n_t=4096, n_m=200, seed=3)
    for traj in (
        ideal_bloch_trajectory(rho_c, PROBE, TIMES),
        sample_trajectory(rho_c, PROBE, plan),
    ):
        for axis in ("x", "y", "z"):
            sig = getattr(traj, axis)
            spec = dft(sig, traj.times)
            worst_parseval = max(worst_parseval, parseval_defect(spec, sig))
            worst_hermitian = max(worst_hermitian, hermitian_defect(spec))

    # phase-chain break detection
    gap = superposition([(0, 1.0), (2, 1.0)], 8)
    res_gap = ideal_result(gap)
    break_ok = res_gap.chain_breaks == [1] and res_gap.partial

    ok = (
        worst_fid >= 1.0 - 1e-4
        and worst_bloch <= 1e-10
        and worst_parseval <= 1e-10
        and worst_hermitian <= 1e-12
        and break_ok
    )
    assert report(
        capsys,
        6,
        ok,
        f"round-trip fidelity >= {worst_fid:.6f} (>= 1 - 1e-04), oracle gap "
        f"{worst_bloch:.1e} (<= 1e-10), Parseval {worst_parseval:.1e}, "
        f"Hermitian {worst_hermitian:.1e}, chain break detected: {break_ok}",
    )


def test_criterion_7_coupling_estimation(capsys):
    tol = np.pi / TIMES[-1]
    worst = 0.0
    for g in (0.8, 1.0, 1.3):
        cfg = ProbeConfig(g=g)
        for state in (
            fock_state(1, 8),
            coherent_state(0.7 * np.exp(1j * np.pi / 3), 12),
        ):
            traj = ideal_bloch_trajectory(density_from_pure(state), cfg, TIMES)
            g_hat, _ = estimate_coupling(dft(traj.z, TIMES))
            worst = max(worst, abs(g_hat - g))
    ok = worst < tol
    assert report(
        capsys,
        7, ok, f"worst coupling error {worst:.2e} (< pi/T = {tol:.2e})"
    )
