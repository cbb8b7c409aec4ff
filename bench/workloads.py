"""Seeded op streams for the three benchmark workloads, with per-op checks.

An op is one ``fieldtomo`` CLI invocation: its argument list, an
optional INI overlay passed through ``--config``, the number of
Bloch-component grid points it simulates and analyses, and a check that
reads the op's artifacts and returns the problems it finds.  Tolerances
are those of ``tests/test_acceptance.py``.

Every workload is a closed loop with one client that repeats a fixed
cycle of ops; the parameters inside each cycle are drawn from one
``random.Random(seed)``, so a seed fixes the whole stream.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Grids of the presets the ops use; the point counts below follow them.
PAPER_N_T = 4096
PAPER_DELTA_T = 0.075
FIG6_LEFT_POINTS = (128 + 1024) * 5 * 20   # n_t_list x n_m_list x n_seeds
FIG6_RIGHT_POINTS = (128 + 256 + 512 + 1024) * 1 * 20

# Criterion 1: the paper's reference table.
TABLE_TOLERANCE = 1e-3
STATE1_TABLE = {"rho_11": 0.5004, "rho_22": 0.4997, "Re rho_12": 0.4998}
STATE2_TABLE = {"Re rho_12": 0.3532, "Im rho_12": 0.3532}
COHERENT_MIN_FIDELITY = 0.9999    # criterion 2
DCE_MIN_FIDELITY = 0.999          # criterion 5
SLOPE_TOLERANCE = 0.05            # criterion 4


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    overlay: str
    points: int
    check: Callable[[Path], list[str]]

    def key(self) -> tuple:
        """Identical keys mean identical program inputs."""
        return (self.argv, self.overlay)


def _load(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _near(label: str, got: float, want: float, tol: float) -> Optional[str]:
    if abs(got - want) <= tol:
        return None
    return f"{label} = {got:.6g}, want {want} +- {tol}"


def _check_table(table: dict[str, float]) -> Callable[[Path], list[str]]:
    def check(out_dir: Path) -> list[str]:
        rec = _load(out_dir, "reconstruction.json")
        rho12 = rec["coherences"][1]   # rho[2,1]
        got = {
            "rho_11": rec["populations"][1],
            "rho_22": rec["populations"][2],
            "Re rho_12": rho12["re"],
            "Im rho_12": rho12["im"],
        }
        return [
            p for label, want in table.items()
            if (p := _near(label, got[label], want, TABLE_TOLERANCE))
        ]

    return check


def _check_coherent(out_dir: Path) -> list[str]:
    fid = _load(out_dir, "reconstruction.json")["fidelity_vs_reference"]
    if fid is None or fid < COHERENT_MIN_FIDELITY:
        return [f"coherent fidelity {fid} < {COHERENT_MIN_FIDELITY}"]
    return []


def _check_dce(out_dir: Path) -> list[str]:
    tomo = _load(out_dir, "dce.json")["tomography"]
    rec = tomo["recombined"] or {}
    fids = {
        "phi_plus": tomo.get("fidelity_phi_plus"),
        "phi_minus": tomo.get("fidelity_phi_minus"),
        "recombined phi_g": rec.get("fidelity_phi_g"),
        "recombined phi_e": rec.get("fidelity_phi_e"),
    }
    return [
        f"dce {label} fidelity {fid} < {DCE_MIN_FIDELITY}"
        for label, fid in fids.items()
        if fid is None or fid < DCE_MIN_FIDELITY
    ]


def _check_left(out_dir: Path) -> list[str]:
    slopes = _load(out_dir, "noise_sweep_slopes.json")["xi_vs_n_m"]
    if len(slopes) != 2:
        return [f"expected 2 xi_vs_n_m slopes, got {sorted(slopes)}"]
    return [
        p for n_t, s in sorted(slopes.items())
        if (p := _near(f"xi slope at n_t={n_t}", s, -0.5, SLOPE_TOLERANCE))
    ]


def _check_right(out_dir: Path) -> list[str]:
    slope = _load(out_dir, "noise_sweep_slopes.json")["snr_vs_n_t"].get("1000")
    if slope is None:
        return ["missing snr_vs_n_t slope at n_m=1000"]
    p = _near("S/xi slope", slope, 0.5, SLOPE_TOLERANCE)
    return [p] if p else []


def _check_coupling(g_true: float) -> Callable[[Path], list[str]]:
    tol = math.pi / (PAPER_N_T * PAPER_DELTA_T)   # criterion 7: pi / T

    def check(out_dir: Path) -> list[str]:
        g_hat = _load(out_dir, "g_estimate.json")["g_estimate"]
        if abs(g_hat - g_true) < tol:
            return []
        return [f"g estimate {g_hat!r} vs true {g_true!r}: error >= pi/T = {tol:.4g}"]

    return check


def _coherent_overlay(rng: random.Random, cutoff: Optional[int] = None) -> str:
    r = rng.uniform(0.3, 0.9)
    phase = rng.uniform(-math.pi, math.pi)
    lines = ["[state]", "kind = coherent",
             f"alpha_re = {r * math.cos(phase)!r}", f"alpha_im = {r * math.sin(phase)!r}"]
    if cutoff is not None:
        lines.append(f"cutoff = {cutoff}")
    return "\n".join(lines) + "\n"


def paper_tomo_cycle(rng: random.Random) -> list[Op]:
    """The paper's tomography path at n_m = inf, n_t = 4096, three axes."""
    reconstruct = PAPER_N_T * 3
    tau = rng.uniform(math.pi / 8, math.pi)
    return [
        Op("state1", ("reconstruct", "--preset", "paper-state1"), "",
           reconstruct, _check_table(STATE1_TABLE)),
        Op("state2", ("reconstruct", "--preset", "paper-state2"), "",
           reconstruct, _check_table(STATE2_TABLE)),
        Op("coherent", ("reconstruct", "--preset", "paper-coherent"),
           _coherent_overlay(rng), reconstruct, _check_coherent),
        # both conditional branches are reconstructed from three axes
        Op("dce", ("dce", "--preset", "paper-dce"), f"[dce]\ntau = {tau!r}\n",
           2 * reconstruct, _check_dce),
    ]


def shot_sweep_cycle(rng: random.Random) -> list[Op]:
    """Finite-shot noise sweeps; one left and four right sweeps per cycle.

    A strict left/right alternation would put the median op latency in
    the gap between the two op sizes, where it is set by the slowest
    right op or the fastest left one.  With four rights per left the
    median falls near the middle of the right ops, where host noise
    moves it least.
    """

    def sweep(kind: str, preset: str, points: int, check) -> Op:
        seed = str(rng.randrange(10**9))
        return Op(kind, ("noise-sweep", "--preset", preset, "--seed", seed), "",
                  points, check)

    return [sweep("left", "paper-fig6-left", FIG6_LEFT_POINTS, _check_left)] + [
        sweep("right", "paper-fig6-right", FIG6_RIGHT_POINTS, _check_right)
        for _ in range(4)
    ]


def coupling_scan_cycle(rng: random.Random) -> list[Op]:
    """estimate-g on a z-only finite-shot record (n_m = 1000).

    The state is Fock |1> or a coherent state, never a single Fock state
    with n >= 2: that comb has one tone, at 2 g sqrt(n), which the
    search reads as the n = 1 tone of a coupling g sqrt(n).  The data
    cannot tell the two apart, so such a draw tests identifiability,
    not the estimator: 20 draws with n = 2 or 3 all missed, by
    |g_hat - g| = 0.26-0.79.
    """
    g = rng.uniform(0.7, 1.4)
    if rng.random() < 0.5:
        state = "[state]\nkind = fock\nn = 1\ncutoff = 8\n"
    else:
        state = _coherent_overlay(rng, cutoff=12)
    overlay = state + (
        f"[probe]\ng = {g!r}\n"
        f"[plan]\ndelta_t = {PAPER_DELTA_T!r}\nn_t = {PAPER_N_T}\nn_m = 1000\n"
    )
    seed = str(rng.randrange(10**9))
    return [Op("coupling", ("estimate-g", "--seed", seed), overlay, PAPER_N_T,
               _check_coupling(g))]


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "paper-tomo": paper_tomo_cycle,
    "shot-sweep": shot_sweep_cycle,
    "coupling-scan": coupling_scan_cycle,
}


def cycles(workload: str, seed: int):
    """Endless stream of op cycles for one workload and seed."""
    make = WORKLOADS[workload]
    rng = random.Random(seed)
    while True:
        yield make(rng)
