"""Dense n-qubit state vectors and two-qubit gate application.

Bit convention, fixed package-wide: qubit ``k`` is bit ``k`` of the basis
index, so qubit 0 is the least-significant bit.  A two-qubit gate acting on
qubits ``(i, j)`` is a 4x4 matrix indexed by the local two-bit word
``2*b_i + b_j`` (the bit of qubit ``i`` is the most-significant local bit).
Consequently ``kron(u, v)`` acts as ``u`` on qubit ``i`` and ``v`` on
qubit ``j``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-12


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-entry deviation of ``M^dag M`` from the identity, over a stack of matrices too."""
    m = np.asarray(matrix)
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    diag = np.arange(m.shape[-1])
    gram[..., diag, diag] -= 1  # in place: no identity-sized temporaries beside the product
    return float(np.max(np.abs(gram), initial=0.0))


@dataclass(frozen=True)
class TwoQubitGate:
    """A unitary 4x4 gate in the local ``2*b_i + b_j`` index convention."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"gate must be 4x4, got {m.shape}")
        defect = unitarity_defect(m)
        if defect > UNITARY_TOL:
            raise ValueError(f"gate is not unitary: defect {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got {amps.shape}"
            )
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |norm^2 - 1| = {abs(norm2-1):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def apply_matrix_to_qubits(
    vec: np.ndarray, n_qubits: int, matrix: np.ndarray, qubits: tuple[int, ...]
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix to the listed qubits of a raw vector.

    ``qubits[0]`` is the most-significant bit of the matrix's local index.
    Works on any array whose leading dimension is ``2**n_qubits``; extra
    trailing dimensions are treated as a batch.
    """
    k = len(qubits)
    batch_shape = vec.shape[1:]
    tensor = vec.reshape((2,) * n_qubits + batch_shape)
    # Axis of qubit q in the reshaped tensor (most-significant bit first).
    axes = [n_qubits - 1 - q for q in qubits]
    mat_t = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    moved = np.tensordot(mat_t, tensor, axes=(list(range(k, 2 * k)), axes))
    out = np.moveaxis(moved, list(range(k)), axes)
    return np.ascontiguousarray(out).reshape((2**n_qubits,) + batch_shape)


@functools.cache
def _sylvester(k: int) -> np.ndarray:
    """The unnormalised ``2^k x 2^k`` Walsh-Hadamard matrix ``(-1)^{popcount(y & x)}``."""
    out = np.ones((1, 1))
    if k:
        s = _sylvester(k - 1)
        out = np.block([[s, s], [s, -s]])
    out.setflags(write=False)
    return out


def fwht_normalized(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the first axis, normalized.

    Equals applying the single-qubit Hadamard to every qubit; self-inverse.
    Trailing dimensions are treated as a batch.  With ``dim = 2^(a+b)``,
    ``a = n // 2``, the transform is ``H_{2^a} (x) H_{2^b}``: two real GEMMs
    with the +-1 Sylvester matrices over the float view of a C-ordered copy
    (real and imaginary parts ride along as columns), then one division by
    ``sqrt(dim)``.  Every product is an exact ``+-x``, so integer-valued
    inputs give exact sums.
    """
    out = np.array(vec, dtype=complex, order="C")
    dim = out.shape[0] if out.ndim else 0
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"leading dimension must be a power of two, got shape {out.shape}")
    n = dim.bit_length() - 1
    a, b = n // 2, n - n // 2
    cols = 2 * (out.size // dim)
    x = out.view(np.float64).reshape(1 << a, (1 << b) * cols)
    y = _sylvester(a) @ x
    np.matmul(_sylvester(b), y.reshape(1 << a, 1 << b, cols), out=x.reshape(1 << a, 1 << b, cols))
    # On the complex array: numpy scales a complex by a real through the complex
    # quotient, which rounds differently from dividing the float view.
    out /= np.sqrt(dim)
    return out
