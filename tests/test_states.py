import re
import tracemalloc

import numpy as np
import pytest

from oraclelab.errors import InvalidPlacementError
from oraclelab.simcore import (
    HadamardAll,
    PureState,
    apply_matrix_to_qubits,
    basis_vector,
    fwht_normalized,
    run_gates,
    sample_haar_two_qubit,
    stream,
    unitarity_defect,
)

HADAMARD_1Q = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
IDENTITY_2Q = np.eye(4, dtype=complex)
SWAP_2Q = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def dense_two_qubit_matrix(gate: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Independent reference: expand a 4x4 gate to 2^n x 2^n by index algebra."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bi, bj = (col >> i) & 1, (col >> j) & 1
        rest = col & ~((1 << i) | (1 << j))
        for bi2 in range(2):
            for bj2 in range(2):
                row = rest | (bi2 << i) | (bj2 << j)
                out[row, col] += gate[2 * bi2 + bj2, 2 * bi + bj]
    return out


def test_identity_gate_leaves_state_unchanged():
    state = PureState(3, basis_vector(3, 5))
    out = apply_matrix_to_qubits(state.amplitudes, 3, IDENTITY_2Q, (0, 2))
    np.testing.assert_array_equal(out, state.amplitudes)


def test_swap_gate_on_01():
    # qubit0 = 1, qubit1 = 0 is basis index 1; after SWAP index 2.
    state = PureState(2, basis_vector(2, 1))
    out = apply_matrix_to_qubits(state.amplitudes, 2, SWAP_2Q, (0, 1))
    np.testing.assert_allclose(out, basis_vector(2, 2))


def test_h_tensor_identity_on_00():
    # Hand multiplication: kron(H, I) acts as H on qubit i. On |00> the
    # result is (|00> + |01>)/sqrt(2), i.e. qubit 0 in superposition.
    gate = np.kron(HADAMARD_1Q, np.eye(2))
    out = apply_matrix_to_qubits(basis_vector(2, 0), 2, gate, (0, 1))
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[1] = 1 / np.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_invalid_placements_raise():
    vec = basis_vector(2, 0)
    for pair in ((1, 1), (0, 2)):
        with pytest.raises(InvalidPlacementError):
            run_gates(vec, 2, [pair], [IDENTITY_2Q])


def test_apply_gate_matches_dense_reference():
    rng = stream(101)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        gate = sample_haar_two_qubit(rng)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        out = apply_matrix_to_qubits(amps, n, gate.entries, (i, j))
        ref = dense_two_qubit_matrix(gate.entries, n, i, j) @ amps
        np.testing.assert_allclose(out, ref, atol=1e-12)


def test_norm_preserved_over_many_random_gates():
    rng = stream(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        out = apply_matrix_to_qubits(amps, n, sample_haar_two_qubit(rng).entries, (i, j))
        worst = max(worst, abs(np.linalg.norm(out) - 1.0))
    assert worst <= 1e-13


def test_bit_convention_swap_consistency():
    # G on qubits (i, j) equals SWAP G SWAP on qubits (j, i).
    rng = stream(8)
    for _ in range(20):
        n = 4
        gate = sample_haar_two_qubit(rng)
        flipped = SWAP_2Q @ gate.entries @ SWAP_2Q
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        a = apply_matrix_to_qubits(amps, n, gate.entries, (1, 3))
        b = apply_matrix_to_qubits(amps, n, flipped, (3, 1))
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_fwht_self_inverse_and_sign_pattern():
    rng = stream(9)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    np.testing.assert_allclose(fwht_normalized(fwht_normalized(vec)), vec, atol=1e-12)
    # <a|H^n|x> = 2^{-n/2} (-1)^{a.x}
    n = 4
    for a in (0, 5, 12):
        col = np.zeros(2**n, dtype=complex)
        col[a] = 1.0
        row = fwht_normalized(col)
        expected = np.array(
            [(-1) ** bin(a & x).count("1") for x in range(2**n)], dtype=complex
        ) / 2 ** (n / 2)
        np.testing.assert_allclose(row, expected, atol=1e-12)


def _butterfly_reference(vec: np.ndarray) -> np.ndarray:
    """The stage-by-stage Walsh-Hadamard butterfly, normalized."""
    out = np.array(vec, dtype=complex)
    dim = out.shape[0]
    work = out.reshape(dim, -1)
    h = 1
    while h < dim:
        work = work.reshape(dim // (2 * h), 2, h, -1)
        a = work[:, 0].copy()
        work[:, 0] = a + work[:, 1]
        work[:, 1] = a - work[:, 1]
        work = work.reshape(dim, -1)
        h *= 2
    return (work / np.sqrt(dim)).reshape(out.shape)


def test_fwht_equals_the_butterfly_bitwise_on_exact_inputs():
    rng = stream(31)
    for n in range(1, 11):
        eye = np.eye(2**n, dtype=complex)
        assert np.array_equal(fwht_normalized(eye), _butterfly_reference(eye)), n
    for n in range(2, 15, 2):
        signs = (1.0 - 2.0 * rng.integers(0, 2, 2**n)) / 2 ** (n / 2)
        assert np.array_equal(fwht_normalized(signs), _butterfly_reference(signs)), n


def test_fwht_matches_the_butterfly_on_random_batches():
    rng = stream(32)
    for n in range(1, 10):
        dim = 2**n
        batches = []
        for shape in [(dim,), (dim, 3), (dim, 2, 2)]:
            batches.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        batches.append(np.asfortranarray(batches[1]))
        for vec in batches:
            before = vec.copy()
            out = fwht_normalized(vec)
            assert out.shape == vec.shape
            np.testing.assert_allclose(out, _butterfly_reference(vec), rtol=0, atol=1e-12)
            assert np.array_equal(vec, before)
    vec = rng.standard_normal(2**14) + 1j * rng.standard_normal(2**14)
    np.testing.assert_allclose(fwht_normalized(vec), _butterfly_reference(vec), rtol=0, atol=1e-12)


def test_fwht_and_hadamard_all_reject_wrong_leading_dimensions():
    for shape in [(6,), (6, 2), (0,), ()]:
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            fwht_normalized(np.ones(shape))
    rows = HadamardAll(3).rows(range(8))
    for vec in (np.eye(16)[0], np.ones((4, 2)), np.ones(())):
        with pytest.raises(ValueError):
            rows @ vec


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_unitarity_defect_of_a_large_matrix_holds_no_full_gram_matrix():
    # 2048 x 2048 is four times GRAM_BLOCK_ENTRIES: a full conjugate copy and a full
    # Gram matrix took 128 MiB beside the 64 MiB matrix; two 16 MiB blocks remain.
    # The one defect, in the last column, is found at its own entry of the last block.
    dim = 2048
    perm = np.zeros((dim, dim), dtype=complex)
    perm[stream(3).permutation(dim), np.arange(dim)] = 1.0
    perm[:, -1] *= 1.001
    tracemalloc.start()
    try:
        defect = unitarity_defect(perm)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(defect - (1.001**2 - 1)) < 1e-12
    assert peak < 48 * 2**20
