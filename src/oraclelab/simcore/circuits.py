"""Haar-random two-qubit gates, random circuits, and unitary actions.

Adjoint convention, fixed package-wide: running a sampled circuit forward
(applying its gates in sampled order) realizes the operator we call
``U^dag``.  The unitary ``U`` whose rows downstream modules compile into
oracles is therefore the adjoint of the sampled gate sequence: applying
``U`` means applying the sampled gates' adjoints in reverse order.  Only
this convention is used anywhere; it makes "the forward run of the circuit
on a basis state" and "a row of U" the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError, SizeError
from .rng import stream
from .states import (
    PureState,
    TwoQubitGate,
    apply_matrix_to_qubits,
    fwht_normalized,
    unitarity_defect,
)

MAX_QUBITS = 14
# A dense 2^12 x 2^12 complex matrix takes 256 MiB.
MAX_DENSE_QUBITS = 12


def sample_haar_two_qubit(rng: np.random.Generator) -> TwoQubitGate:
    """Draw a Haar-distributed 4x4 unitary.

    Fills a matrix with i.i.d. standard complex Gaussians, QR-factorizes,
    and multiplies each column of Q by the unit phase that makes the
    corresponding diagonal entry of R real-positive.  Without the phase fix
    the QR convention would bias the distribution away from Haar.
    """
    while True:
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        if np.any(np.abs(diag) < 1e-12):  # pragma: no cover - probability zero
            continue
        q = q * (diag / np.abs(diag))
        if unitarity_defect(q) <= 1e-12:
            return TwoQubitGate(q)


@dataclass(frozen=True)
class RandomCircuit:
    """A length-``t`` sequence of Haar gates on uniformly random qubit pairs.

    It is a unitary action: ``apply`` realizes ``U`` and ``apply_adjoint``
    realizes ``U^dag``, the forward run.  Regeneration from
    ``(n_qubits, length, seed)`` is bit-identical.
    """

    n_qubits: int
    length: int
    seed: int
    placements: tuple[tuple[int, int, TwoQubitGate], ...] = field(repr=False)

    def __post_init__(self):
        if len(self.placements) != self.length:
            raise ValueError("placement count does not match length")
        for i, j, _gate in self.placements:
            if i == j or not (0 <= i < self.n_qubits) or not (0 <= j < self.n_qubits):
                raise ValueError(f"invalid placement ({i}, {j})")

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the adjoint gates in reverse order: the action of ``U``."""
        return run_gates(
            vec,
            self.n_qubits,
            ((i, j, gate.entries.conj().T) for i, j, gate in reversed(self.placements)),
        )

    def apply_adjoint(self, vec: np.ndarray) -> np.ndarray:
        """Apply the sampled gates in order: the action of ``U^dag``."""
        return run_gates(
            vec, self.n_qubits, ((i, j, gate.entries) for i, j, gate in self.placements)
        )

    def state_from_basis(self, a: int) -> PureState:
        """The forward-run state ``U^dag |a>``."""
        return PureState(self.n_qubits, self.apply_adjoint(basis_vector(self.n_qubits, a)))


def run_gates(vec: np.ndarray, n_qubits: int, gates) -> np.ndarray:
    """Apply ``(i, j, matrix)`` two-qubit gates in order to a copy of ``vec``.

    The one gate-sequence loop of the package.  ``gates`` may be a lazy
    iterable; each gate is drawn only after the previous one was applied.
    """
    out = np.array(vec, dtype=complex)
    for i, j, matrix in gates:
        out = apply_matrix_to_qubits(out, n_qubits, matrix, (i, j))
    return out


def basis_vector(n_qubits: int, index: int) -> np.ndarray:
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[index] = 1.0
    return vec


def run_random_circuit(n_qubits: int, length: int, seed: int) -> RandomCircuit:
    """Sample a random circuit: ``length`` Haar gates on random distinct pairs."""
    if n_qubits < 2:
        raise InvalidConfigError("random circuits need at least 2 qubits")
    if n_qubits > MAX_QUBITS:
        raise InvalidConfigError(f"n_qubits capped at {MAX_QUBITS}")
    if length < 0:
        raise InvalidConfigError("length must be nonnegative")
    rng = stream(seed)
    placements = []
    for _ in range(length):
        i = int(rng.integers(n_qubits))
        j = int(rng.integers(n_qubits - 1))
        if j >= i:
            j += 1
        placements.append((i, j, sample_haar_two_qubit(rng)))
    return RandomCircuit(n_qubits, length, seed, tuple(placements))


class HadamardAll:
    """The self-adjoint action of a Hadamard on every qubit."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise InvalidConfigError("need at least one qubit")
        if n_qubits > MAX_QUBITS:
            raise SizeError(f"Hadamard actions capped at {MAX_QUBITS} qubits")
        self.n_qubits = n_qubits

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return fwht_normalized(vec)

    def apply_adjoint(self, vec: np.ndarray) -> np.ndarray:
        return fwht_normalized(vec)


class MatrixUnitary:
    """Unitary action backed by an explicit dense matrix."""

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        dim = mat.shape[0]
        n = int(round(np.log2(dim)))
        if mat.shape != (dim, dim) or 2**n != dim:
            raise InvalidConfigError("matrix dimension must be a power of two")
        defect = unitarity_defect(mat)
        if defect > 1e-10:
            raise InvalidConfigError(f"matrix is not unitary: defect {defect:.3e}")
        self.matrix = mat
        self.n_qubits = n

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def apply_adjoint(self, vec: np.ndarray) -> np.ndarray:
        # conj(M^T conj(v)) equals M^dag v without copying the matrix.
        return np.conj(self.matrix.T @ np.conj(vec))


def hadamard_all(n_qubits: int) -> HadamardAll:
    """Unitary action of ``H`` applied to all ``n_qubits`` qubits."""
    return HadamardAll(n_qubits)


def action_matrix(action) -> np.ndarray:
    """Dense matrix of a unitary action (columns ``U|x>``), for small n."""
    dim = 2**action.n_qubits
    return action.apply(np.eye(dim, dtype=complex))


def densify(action) -> MatrixUnitary:
    """The action as an explicit dense matrix; at most ``MAX_DENSE_QUBITS`` qubits."""
    if action.n_qubits > MAX_DENSE_QUBITS:
        raise SizeError(f"dense matrices capped at {MAX_DENSE_QUBITS} qubits")
    return MatrixUnitary(action_matrix(action))


def adjoint_rows(action, a: int) -> np.ndarray:
    """The vector ``U^dag |a>`` as raw amplitudes."""
    return action.apply_adjoint(basis_vector(action.n_qubits, a))
