"""Truncated Fock space: state containers, ladder operators, qubit algebra.

Conventions used throughout the package (changing any of these breaks the
reconstruction sign conventions, so they are pinned here once):

* Field states live on ``n = 0 .. cutoff`` (``cutoff + 1`` amplitudes).
* The qubit ground state is ``|g> = (1, 0)`` and is the +1 eigenstate of
  ``sigma_z`` (the free Hamiltonian carries ``-1/2 omega_a sigma_z``, so
  ``|g>`` is the lower level).
* ``sigma_plus = |e><g|`` is the lower-left matrix in this basis.
* Joint kets are ordered ``|q, n> -> index 2 n + q`` with ``q = 0`` for
  ``|g>``; this is exactly ``numpy.kron(field, qubit)`` ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CutoffError, ValidationError

__all__ = [
    "FieldState",
    "DensityMatrix",
    "JointState",
    "fock_state",
    "density_from_pure",
    "fidelity",
    "embed",
    "lowering_op",
    "number_op",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "joint_op",
    "field_branches",
]

# Pauli algebra in the (|g>, |e>) basis fixed above.
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
SIGMA_MINUS = SIGMA_PLUS.conj().T

#: `embed` refuses a truncation that drops more weight than this
_EMBED_LEAK = 1e-12


def _as_complex_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{what} must be a non-empty 1-D amplitude array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite amplitudes")
    return arr


@dataclass(frozen=True)
class FieldState:
    """Pure field state as amplitudes over ``n = 0 .. cutoff``.

    Not necessarily normalized.  Generators (`fock_state`,
    `states.coherent_state`, ...) always hand back unit-norm states.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.amplitudes, "FieldState.amplitudes")
        if arr.size < 2:
            raise ValidationError("cutoff must be >= 1 (need at least n = 0, 1)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "FieldState":
        n = self.norm()
        if n < 1e-300:
            raise ValidationError("cannot normalize a zero state")
        return FieldState(self.amplitudes / n)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def mean_photon_number(self) -> float:
        p = self.populations()
        return float(np.dot(np.arange(p.size), p))

    def overlap(self, other: "FieldState") -> complex:
        if other.cutoff != self.cutoff:
            raise ValidationError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}"
            )
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Field density operator on the truncated space.

    Constructors in this package only ever produce Hermitian, unit-trace,
    positive-diagonal matrices; ``__post_init__`` re-checks the first two
    so that hand-built inputs cannot sneak past.
    """

    elements: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValidationError("DensityMatrix.elements must be square, dim >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("DensityMatrix.elements contains non-finite entries")
        if np.max(np.abs(arr - arr.conj().T)) > 1e-10:
            raise ValidationError("density matrix is not Hermitian")
        tr = np.trace(arr).real
        if abs(tr - 1.0) > 1e-8:
            raise ValidationError(f"density matrix trace {tr!r} is not 1")
        if np.min(arr.diagonal().real) < -1e-12:
            raise ValidationError("density matrix has a negative diagonal entry")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    @property
    def cutoff(self) -> int:
        return self.elements.shape[0] - 1

    def diagonal(self) -> np.ndarray:
        return self.elements.diagonal().real.copy()

    def superdiagonal(self) -> np.ndarray:
        """rho_{n, n+1} for n = 0 .. cutoff - 1."""
        return np.diagonal(self.elements, offset=1).copy()

    def purity(self) -> float:
        return float(np.trace(self.elements @ self.elements).real)

    def mean_photon_number(self) -> float:
        d = self.diagonal()
        return float(np.dot(np.arange(d.size), d))


@dataclass(frozen=True)
class JointState:
    """Pure field x qubit ket, index ``2 n + q`` (q = 0 for  |g>)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.amplitudes, "JointState.amplitudes")
        if arr.size % 2 != 0 or arr.size < 4:
            raise ValidationError("JointState needs 2 (cutoff + 1) amplitudes")
        if abs(np.linalg.norm(arr) - 1.0) > 1e-9:
            raise ValidationError("joint state is not normalized")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size // 2 - 1


def fock_state(n: int, cutoff: int) -> FieldState:
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    if not 0 <= n <= cutoff:
        raise CutoffError(f"|{n}> does not fit below cutoff {cutoff}")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return FieldState(amps)


def density_from_pure(state: FieldState) -> DensityMatrix:
    if abs(state.norm() - 1.0) > 1e-8:
        raise ValidationError(
            f"state norm {state.norm()!r} deviates from 1 by more than 1e-8"
        )
    c = state.amplitudes
    return DensityMatrix(np.outer(c, c.conj()))


def fidelity(a: FieldState, b: FieldState) -> float:
    """|<a|b>|^2 between two pure states, the one on the lower cutoff
    zero-padded (`embed`) to the other's; neither is renormalized."""
    cutoff = max(a.cutoff, b.cutoff)
    return abs(embed(a, cutoff).overlap(embed(b, cutoff))) ** 2


def embed(state: FieldState, cutoff: int) -> FieldState:
    """Same state on a different cutoff (zero-padded or checked-truncated)."""
    c = state.amplitudes
    if cutoff + 1 >= c.size:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[: c.size] = c
        return FieldState(out)
    dropped = float(np.sum(np.abs(c[cutoff + 1 :]) ** 2))
    if dropped > _EMBED_LEAK:
        raise CutoffError(
            f"embedding to cutoff {cutoff} would drop weight {dropped:.3e}"
        )
    return FieldState(c[: cutoff + 1].copy())


def lowering_op(cutoff: int) -> np.ndarray:
    """Matrix of ``a`` on n = 0 .. cutoff."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1).astype(complex)


def number_op(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff + 1, dtype=float)).astype(complex)


def joint_op(field_op: np.ndarray, qubit_op: np.ndarray) -> np.ndarray:
    """Operator on the joint space in the ``2 n + q`` index convention."""
    return np.kron(field_op, qubit_op)


def field_branches(joint: JointState) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized field kets conditioned on qubit |g> and |e>."""
    psi = joint.amplitudes.reshape(-1, 2)
    return psi[:, 0].copy(), psi[:, 1].copy()
