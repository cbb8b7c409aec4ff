"""Ultrastrong Rabi quench as a source of nonclassical field states.

A qubit resonant with the mode (omega_a = omega) is coupled at t = 0
with the full Rabi interaction in the lab frame,

    H = omega (a^dag a + 1/2) - (omega_a / 2) sigma_z
        + g (a + a^dag)(sigma_+ + sigma_-),

starting from |g, 0>.  The counter-rotating terms populate the mode even
from vacuum.  H commutes with the joint parity (-1)^n sigma_z, and the
initial state has parity +1, so the branch conditioned on |g> lives on
even Fock levels and the |e> branch on odd ones.  Conditioning on the
qubit in the |+-> = (|g> +- |e>)/sqrt(2) basis instead gives two
equal-probability superposition branches

    phi_+- = c_g phi_g +- c_e phi_e           (p_+- = 1/2 exactly),

which the stroboscopic protocol can reconstruct individually; the
parity branches are then recovered as phi_g ~ phi_+ + phi_- and
phi_e ~ phi_+ - phi_-.

H is Hermitian, so one eigendecomposition H = V diag(E) V^H propagates
the quench exactly: psi(tau) = V exp(-i E tau) V^H psi(0).  Two guards
check the result: the norm must stay within rounding of 1, and the top
Fock level must stay empty, or the cutoff is too small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    CutoffError,
    DegenerateBranchError,
    IntegrationError,
    ValidationError,
)
from .fock import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    DensityMatrix,
    FieldState,
    JointState,
    field_branches,
    joint_op,
    lowering_op,
    number_op,
)

__all__ = [
    "DceConfig",
    "ConditionalPair",
    "rabi_hamiltonian",
    "evolve_rabi",
    "condition_on_qubit",
    "recombine_branches",
    "unconditional_mixture",
    "dce_record",
]

DEFAULT_CUTOFF = 31
LEAK_THRESHOLD = 1e-8
NORM_DRIFT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DceConfig:
    """Quench parameters: coupling ``g_over_omega`` in units of the mode
    frequency ``omega``, quench duration ``tau`` and the Fock cutoff of
    the propagated mode."""

    g_over_omega: float
    tau: float
    omega: float = 1.0
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValidationError(f"omega must be positive, got {self.omega!r}")
        if not (self.g_over_omega > 0 and math.isfinite(self.g_over_omega)):
            raise ValidationError(
                f"g_over_omega must be positive, got {self.g_over_omega!r}"
            )
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValidationError(f"tau must be positive, got {self.tau!r}")
        if self.cutoff < 2:
            raise ValidationError("cutoff must be >= 2")

    @property
    def g(self) -> float:
        return self.g_over_omega * self.omega


def rabi_hamiltonian(cfg: DceConfig) -> np.ndarray:
    """Lab-frame Rabi Hamiltonian on the joint 2 (cutoff + 1) space."""
    dim = cfg.cutoff + 1
    eye_f = np.eye(dim, dtype=complex)
    eye_q = np.eye(2, dtype=complex)
    a = lowering_op(cfg.cutoff)
    h = cfg.omega * joint_op(number_op(cfg.cutoff) + 0.5 * eye_f, eye_q)
    h -= 0.5 * cfg.omega * joint_op(eye_f, SIGMA_Z)
    h += cfg.g * joint_op(a + a.conj().T, SIGMA_PLUS + SIGMA_MINUS)
    return h


def _check_evolved(psi: np.ndarray, cfg: DceConfig) -> JointState:
    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > NORM_DRIFT_TOLERANCE:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOLERANCE}")
    psi = psi / np.linalg.norm(psi)
    top = float(np.sum(np.abs(psi[-2:]) ** 2))
    if top > LEAK_THRESHOLD:
        raise CutoffError(
            f"weight {top:.3e} reached the top Fock level; raise cutoff above "
            f"{cfg.cutoff}"
        )
    return JointState(psi)


def evolve_rabi(cfg: DceConfig) -> JointState:
    """Propagate |g, 0> for time tau under the full Rabi Hamiltonian."""
    energies, vecs = np.linalg.eigh(rabi_hamiltonian(cfg))
    # psi(0) = |g, 0> is index 0 (2 n + q ordering): V^H psi(0) is row 0 of V, conjugated.
    psi = vecs @ (np.exp(-1j * energies * cfg.tau) * vecs[0].conj())
    return _check_evolved(psi, cfg)


@dataclass(frozen=True)
class ConditionalPair:
    """Field states conditioned on a qubit measurement, in both bases.

    ``c_g`` and ``c_e`` are the branch amplitudes in the qubit energy
    basis, gauged real and non-negative (branch phases live inside the
    states), and ``phi_g`` / ``phi_e`` the normalized branches.
    ``phi_plus`` / ``phi_minus`` are the normalized branches of a
    measurement in the |+-> basis, ``(c_g phi_g +- c_e phi_e) / sqrt(2)``
    up to normalization; for a state of fixed joint parity, as a quench
    from |g, 0> is, each is reached with probability 1/2.  A branch with
    zero weight is stored as ``None``.
    """

    c_g: float
    c_e: float
    phi_g: Optional[FieldState]
    phi_e: Optional[FieldState]
    phi_plus: Optional[FieldState]
    phi_minus: Optional[FieldState]

    def __post_init__(self):
        if abs(self.c_g**2 + self.c_e**2 - 1.0) > 1e-9:
            raise ValidationError("branch weights do not sum to 1")

    @property
    def p_g(self) -> float:
        return self.c_g**2

    @property
    def p_e(self) -> float:
        return self.c_e**2


_ZERO_BRANCH = 1e-15


def condition_on_qubit(joint: JointState) -> ConditionalPair:
    """Decompose a joint pure state by a projective qubit measurement, in
    the energy basis and in the |+-> basis."""
    branch_g, branch_e = field_branches(joint)
    c_g = float(np.linalg.norm(branch_g))
    c_e = float(np.linalg.norm(branch_e))
    pm = []
    for ket in (branch_g + branch_e, branch_g - branch_e):
        ket = ket / math.sqrt(2.0)
        weight = float(np.linalg.norm(ket) ** 2)  # p_+ or p_-
        pm.append(FieldState(ket / math.sqrt(weight)) if weight > _ZERO_BRANCH**2 else None)
    return ConditionalPair(
        c_g=c_g,
        c_e=c_e,
        phi_g=FieldState(branch_g / c_g) if c_g > _ZERO_BRANCH else None,
        phi_e=FieldState(branch_e / c_e) if c_e > _ZERO_BRANCH else None,
        phi_plus=pm[0],
        phi_minus=pm[1],
    )


def recombine_branches(
    phi_plus: FieldState,
    phi_minus: FieldState,
    c_g: float,
    c_e: float,
) -> tuple[FieldState, FieldState]:
    """Parity branches back from the |+-> conditionals (p_+- = 1/2 case):

        phi_g = (phi_+ + phi_-) / (2 c_g),  phi_e = (phi_+ - phi_-) / (2 c_e).

    Outputs are re-normalized (reconstructed inputs carry estimation
    noise).  Vanishing branch weight makes the division meaningless.
    """
    if abs(c_g) < 1e-8 or abs(c_e) < 1e-8:
        raise DegenerateBranchError(
            f"cannot divide by branch amplitudes c_g = {c_g:.3e}, c_e = {c_e:.3e}"
        )
    plus = phi_plus.amplitudes
    minus = phi_minus.amplitudes
    if plus.size != minus.size:
        raise ValidationError("phi_+ and phi_- cutoffs differ")
    phi_g = FieldState((plus + minus) / (2.0 * c_g)).normalize()
    phi_e = FieldState((plus - minus) / (2.0 * c_e)).normalize()
    return phi_g, phi_e


def unconditional_mixture(pair: ConditionalPair) -> DensityMatrix:
    """p_g |phi_g><phi_g| + p_e |phi_e><phi_e| (no interference terms)."""
    parts = []
    for phi, p in ((pair.phi_g, pair.p_g), (pair.phi_e, pair.p_e)):
        if phi is not None and p > 0.0:
            parts.append(p * np.outer(phi.amplitudes, phi.amplitudes.conj()))
    if not parts:
        raise ValidationError("both branches are empty")
    return DensityMatrix(sum(parts))


def _amp_list(phi: Optional[FieldState]) -> list[dict]:
    if phi is None:
        return []
    return [{"re": a.real, "im": a.imag} for a in phi.amplitudes]


def dce_record(cfg: DceConfig, joint: JointState, pair: ConditionalPair) -> dict:
    """One JSON-ready sweep point."""
    psi = joint.amplitudes.reshape(-1, 2)
    occupations = np.sum(np.abs(psi) ** 2, axis=1)
    mean_photons = float(np.dot(np.arange(occupations.size), occupations))
    leakage = float(occupations[-1])
    return {
        "g_over_omega": cfg.g_over_omega,
        "tau": cfg.tau,
        "c_g": {"re": pair.c_g, "im": 0.0},
        "c_e": {"re": pair.c_e, "im": 0.0},
        "phi_g": _amp_list(pair.phi_g),
        "phi_e": _amp_list(pair.phi_e),
        "mean_photons": mean_photons,
        "leakage": leakage,
    }
