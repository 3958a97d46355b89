"""Reference computations the benchmark checks the lab's outputs against.

Nothing here calls into ``oraclelab``: every value is rebuilt from numpy
primitives or from the closed forms stated in the lab's documentation.
"""

from __future__ import annotations

import math

import numpy as np

TWO_OVER_PI = 2.0 / math.pi
REL_TOL = 1e-9
_MASK64 = (1 << 64) - 1
_ANSWER_TAG = 0xA05BEE


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer, as the lab documents its seed mixing."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def answer_bit(master_seed: int) -> int:
    """Root answer bit of a recursive instance keyed by ``master_seed``."""
    return splitmix64(master_seed ^ _ANSWER_TAG) & 1


def repetitions(delta: float) -> int:
    """Copies per node, ``ceil((4/delta) ln(8/delta))``."""
    return math.ceil((4.0 / delta) * math.log(8.0 / delta))


def query_recurrence(m: int, depth: int) -> int:
    """``Q(k) = 2m Q(k+1) + 2m`` with ``Q(depth) = 0``, evaluated at k = 0."""
    q = 0
    for _ in range(depth):
        q = 2 * m * q + 2 * m
    return q


def haar_collision_stderr(n: int, samples: int) -> float:
    """Standard error of the mean collision probability of ``samples`` Haar states.

    The probabilities of a Haar state in dimension ``d`` are Dirichlet(1, .., 1),
    so ``q = sum p_x^2`` has mean ``2/(d+1)`` and variance
    ``4(d-1) / ((d+1)^2 (d+2)(d+3))``.
    """
    d = 2**n
    variance = 4.0 * (d - 1) / ((d + 1) ** 2 * (d + 2) * (d + 3))
    return math.sqrt(variance / samples)


def qft_rows(n: int, rows) -> np.ndarray:
    """Rows ``U[a, x] = exp(2 pi i a x / 2^n) / 2^(n/2)`` of the cyclic QFT, via numpy.fft."""
    dim = 2**n
    basis = np.zeros((dim, len(rows)), dtype=complex)
    basis[list(rows), np.arange(len(rows))] = 1.0
    # ifft of e_a along axis 0 is exp(2 pi i a x / N) / N over x.
    return (np.fft.ifft(basis, axis=0) * math.sqrt(dim)).T


def walsh_rows(n: int, rows) -> np.ndarray:
    """Rows ``H[a, x] = (-1)^popcount(a & x) / 2^(n/2)`` of the all-qubit Hadamard."""
    x = np.arange(2**n)
    parity = np.bitwise_count(np.asarray(rows)[:, None] & x[None, :]) & 1
    return (1.0 - 2.0 * parity) / math.sqrt(2**n)


def apply_pair(states: np.ndarray, n: int, gate: np.ndarray, i: int, j: int) -> np.ndarray:
    """Apply a 4x4 gate to qubits ``(i, j)`` of a batch of basis-indexed columns.

    Uses explicit basis-index arithmetic: the local index of basis state ``x``
    is ``2*bit_i(x) + bit_j(x)``, and ``out[x] = sum_l gate[loc(x), l] *
    states[x with bits (i, j) set to l]``.
    """
    idx = np.arange(2**n)
    loc = 2 * ((idx >> i) & 1) + ((idx >> j) & 1)
    base = idx & ~((1 << i) | (1 << j))
    out = np.zeros_like(states)
    for l in range(4):
        src = base | ((l >> 1) << i) | ((l & 1) << j)
        out += gate[loc, l][:, None] * states[src]
    return out


def forward_run(n: int, placements, labels) -> np.ndarray:
    """Columns ``U^dag |a>`` for each label: the sampled gates applied in order."""
    states = np.zeros((2**n, len(labels)), dtype=complex)
    states[list(labels), np.arange(len(labels))] = 1.0
    for i, j, gate in placements:
        states = apply_pair(states, n, np.asarray(gate.entries), i, j)
    return states


def close(a, b, scale: float = 1.0) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= REL_TOL * scale)


def sign_shortfalls(f_bits: np.ndarray, rows: np.ndarray) -> int:
    """Rows whose compiled signs keep less than 2/pi of their L1 mass.

    ``theta_k = 1 - 2 f_k``; the property is ``|sum theta_k c_k| >= (2/pi)
    sum |c_k|``, allowed a relative rounding slack of 1e-12.
    """
    theta = 1.0 - 2.0 * np.asarray(f_bits, dtype=float)
    value = np.abs(np.sum(theta * rows, axis=1))
    l1 = np.sum(np.abs(rows), axis=1)
    return int(np.count_nonzero(value < TWO_OVER_PI * l1 * (1.0 - 1e-12)))
