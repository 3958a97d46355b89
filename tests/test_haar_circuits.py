import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from oraclelab.errors import InvalidConfigError, InvalidPlacementError, LabelError, SizeError
from oraclelab.simcore import circuits
from oraclelab.simcore import (
    MAX_DENSE_QUBITS,
    MAX_QUBITS,
    FourierMatrix,
    HadamardAll,
    MatrixUnitary,
    RandomCircuit,
    TwoQubitGate,
    action_matrix,
    apply_matrix_to_qubits,
    basis_vector,
    builtin_group,
    densify,
    fwht_normalized,
    group_fourier,
    hadamard_all,
    qft_cyclic,
    run_gates,
    run_random_circuit,
    sample_haar_stack,
    sample_haar_two_qubit,
    stream,
    unitarity_defect,
)


def test_haar_gates_are_unitary():
    rng = stream(1)
    for _ in range(50):
        gate = sample_haar_two_qubit(rng)
        assert unitarity_defect(gate.entries) <= 1e-12


def test_haar_first_and_second_moments():
    # Independent Monte Carlo oracle for E|u|^2 = 1/4 and E u = 0.
    rng = stream(2)
    samples = 10_000
    entries = np.empty(samples, dtype=complex)
    for k in range(samples):
        entries[k] = sample_haar_two_qubit(rng).entries[0, 0]
    assert abs(np.mean(np.abs(entries) ** 2) - 0.25) <= 0.01
    assert abs(np.mean(entries.real)) <= 0.02
    assert abs(np.mean(entries.imag)) <= 0.02


def test_haar_fourth_moment():
    # E|u|^4 = 2 / (d (d+1)) = 1/10 at d=4; allow 3 sigma of Monte Carlo error.
    rng = stream(3)
    samples = 10_000
    fourth = np.empty(samples)
    for k in range(samples):
        fourth[k] = np.abs(sample_haar_two_qubit(rng).entries[0, 0]) ** 4
    sigma = np.std(fourth, ddof=1) / np.sqrt(samples)
    assert abs(np.mean(fourth) - 0.1) <= 3 * sigma + 1e-4


def test_run_random_circuit_deterministic():
    a = run_random_circuit(4, 30, seed=11)
    b = run_random_circuit(4, 30, seed=11)
    for (i1, j1, g1), (i2, j2, g2) in zip(a.placements, b.placements):
        assert (i1, j1) == (i2, j2)
        np.testing.assert_array_equal(g1.entries, g2.entries)
    np.testing.assert_array_equal(
        run_gates(basis_vector(4, 3), 4, a.pairs, a.gates),
        run_gates(basis_vector(4, 3), 4, b.pairs, b.gates),
    )


def test_zero_length_circuit_is_identity():
    circ = run_random_circuit(3, 0, seed=5)
    forward = run_gates(basis_vector(3, 6), 3, circ.pairs, circ.gates)
    np.testing.assert_array_equal(forward, basis_vector(3, 6))


def test_two_qubit_circuit_always_uses_the_only_pair():
    circ = run_random_circuit(2, 20, seed=9)
    assert all({i, j} == {0, 1} for i, j, _g in circ.placements)


def test_invalid_configs_raise():
    with pytest.raises(InvalidConfigError):
        run_random_circuit(1, 5, seed=0)
    with pytest.raises(InvalidConfigError):
        run_random_circuit(3, -1, seed=0)


def test_random_circuit_above_the_qubit_cap_is_a_size_error():
    with pytest.raises(SizeError):
        run_random_circuit(MAX_QUBITS + 1, 5, seed=0)


def test_circuit_action_adjoint_pair():
    action = run_random_circuit(4, 25, seed=21)
    rng = stream(22)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    vec /= np.linalg.norm(vec)
    roundtrip = action_matrix(action) @ run_gates(vec, 4, action.pairs, action.gates)
    np.testing.assert_allclose(roundtrip, vec, atol=1e-12)


def test_circuit_matrix_against_kron_reference():
    # Independent recomputation from the stored gate list: expand each gate
    # with explicit krons and index permutations, multiply in order.
    from test_states import dense_two_qubit_matrix

    circ = run_random_circuit(3, 12, seed=31)
    dim = 2**3
    ref = np.eye(dim, dtype=complex)
    for i, j, gate in circ.placements:
        ref = dense_two_qubit_matrix(gate.entries, 3, i, j) @ ref
    # ref is the forward product: the adjoint action of the circuit unitary.
    mat_u = action_matrix(circ)
    np.testing.assert_allclose(mat_u.conj().T, ref, atol=1e-11)
    for a in range(dim):
        np.testing.assert_allclose(
            run_gates(basis_vector(3, a), 3, circ.pairs, circ.gates), ref[:, a], atol=1e-12
        )


def test_hadamard_action_twice_is_identity():
    rows = hadamard_all(3).rows(range(8))
    rng = stream(33)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    np.testing.assert_allclose(rows @ (rows @ vec), vec, atol=1e-12)


def _hadamard_labels(n):
    """Every label up to n = 10; 64 of them at n = 12, where a dense H would take 256 MiB."""
    return range(2**n) if n <= 10 else stream(n).choice(2**n, 64, replace=False).tolist()


def _slow_rows(action, labels):
    """Rows ``labels`` of U the slow way: the FWHT (H is symmetric) of each basis vector,
    else the dense matrix times the identity."""
    labels = list(labels)
    if isinstance(action, HadamardAll):
        return np.array([fwht_normalized(basis_vector(action.n_qubits, a)) for a in labels])
    return (action.matrix @ np.eye(len(action.matrix)))[labels]


def _assert_rows_equal(action, labels, slow):
    """``rows(labels)`` against a slow reference, as one block and label by label."""
    assert np.array_equal(action.rows(labels), slow)
    for a, row in zip(labels, slow):
        assert np.array_equal(action.rows([a])[0], row), a


# What an action holds besides n_qubits and rows: a dense action its matrix, and a
# group transform also its group, its row index and its measurement blocks.
_HELD = {
    HadamardAll: set(),
    MatrixUnitary: {"matrix"},
    FourierMatrix: {"matrix", "group", "row_index", "rows_for_block", "block_labels"},
}


@pytest.mark.parametrize(
    "make",
    [
        *(pytest.param(lambda n=n: hadamard_all(n), id=f"hadamard-{n}") for n in [*range(1, 11), 12]),
        pytest.param(lambda: densify(run_random_circuit(6, 120, seed=5)), id="random-matrix-6"),
        pytest.param(lambda: qft_cyclic(64), id="qft-6"),
        pytest.param(lambda: group_fourier(builtin_group("d4")), id="d4"),
        pytest.param(lambda: group_fourier(builtin_group("s3")), id="s3"),
    ],
)
def test_rows_are_the_rows_of_u_in_the_actions_own_dtype(make):
    action = make()
    hadamard = isinstance(action, HadamardAll)
    labels = _hadamard_labels(action.n_qubits) if hadamard else range(len(action.matrix))
    assert action.rows(labels).dtype == (np.float64 if hadamard else np.complex128)
    _assert_rows_equal(action, labels, _slow_rows(action, labels))
    public = {name for name in dir(action) if not name.startswith("_")}
    assert public == {"n_qubits", "rows"} | _HELD[type(action)]


@pytest.mark.parametrize(
    "make",
    [lambda: hadamard_all(3), lambda: qft_cyclic(8), lambda: group_fourier(builtin_group("s3"))],
    ids=["hadamard-3", "qft-3", "s3"],
)
@pytest.mark.parametrize("block", [[-1], ["dim"], [3, "dim", 1], [0, -2, 2], [1.7]], ids=str)
def test_rows_refuse_labels_outside_the_register(make, block):
    # The order-6 s3 transform has no qubit register; its labels are [0, 6).  A float
    # label is refused, not truncated to row 1.
    action = make()
    dim = 2**action.n_qubits if isinstance(action, HadamardAll) else len(action.matrix)
    with pytest.raises(LabelError, match="outside"):
        action.rows([dim if a == "dim" else a for a in block])


@pytest.mark.parametrize("n", [*range(1, 11), 12])
def test_hadamard_rows_are_the_transform_of_basis_vectors(n):
    labels = _hadamard_labels(n)
    action = hadamard_all(n)
    _assert_rows_equal(action, labels, _slow_rows(action, labels))
    x = np.arange(2**n)
    for a in labels[:8]:
        row = action.rows([a])[0]
        parity = np.array([(a & v).bit_count() & 1 for v in x.tolist()])
        assert np.array_equal(row, np.where(parity, -1.0, 1.0) / np.sqrt(2**n))


@pytest.mark.parametrize(
    "make",
    [
        lambda: densify(run_random_circuit(6, 120, seed=5)),
        lambda: qft_cyclic(64),
        lambda: group_fourier(builtin_group("d4")),
    ],
    ids=["random-matrix-6", "qft-6", "d4"],
)
def test_every_row_equals_the_adjoint_action_on_a_basis_vector(make):
    action = make()
    labels = range(2**action.n_qubits)
    _assert_rows_equal(action, labels, _slow_rows(action, labels))


def test_stacked_draw_equals_repeated_single_draws():
    stack = sample_haar_stack(stream(41), 300)
    rng = stream(41)
    singles = np.array([sample_haar_two_qubit(rng).entries for _ in range(300)])
    np.testing.assert_array_equal(stack, singles)
    assert unitarity_defect(stack) <= 1e-12


# Pairs and the SHA-256 of the gate bytes of run_random_circuit(5, 40, 3), taken
# before the gates were drawn as one stack; they pin the draw order.  The hash
# is bit-exact for a given numpy/LAPACK build, like replay.
PINNED_PAIRS = [4, 3, 0, 4, 2, 1, 3, 4, 2, 4, 3, 0, 1, 2, 1, 2, 4, 0, 2, 4, 3, 1, 4, 0, 2, 3,
                1, 0, 3, 0, 2, 0, 4, 3, 3, 0, 1, 0, 3, 2, 0, 3, 3, 4, 0, 3, 0, 4, 2, 0, 2, 4,
                3, 0, 2, 1, 3, 0, 2, 0, 4, 0, 3, 4, 1, 3, 2, 1, 3, 1, 0, 2, 2, 3, 0, 2, 0, 2,
                4, 0]
PINNED_GATES_SHA256 = "9856b3cab03190c0d0704794682dad63a526cdfe01c6171dc01e7594d7ff4bb3"


def test_random_circuit_draws_are_pinned():
    circ = run_random_circuit(5, 40, 3)
    assert [q for i, j, _g in circ.placements for q in (i, j)] == PINNED_PAIRS
    gates = np.array([g.entries for _i, _j, g in circ.placements])
    assert hashlib.sha256(gates.tobytes()).hexdigest() == PINNED_GATES_SHA256


def test_empty_matrix_is_not_a_unitary():
    with pytest.raises(InvalidConfigError):
        MatrixUnitary(np.zeros((0, 0), dtype=complex))


@pytest.mark.parametrize(
    "matrix",
    [
        np.complex128(1),
        np.broadcast_to(np.complex128(1), (2**26,)),
        np.broadcast_to(np.complex128(1), (2**13, 2**12)),
    ],
    ids=["0-d", "1-d", "not-square"],
)
def test_matrix_that_is_not_square_fails_before_allocating(matrix):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfigError, match="square"):
            MatrixUnitary(matrix)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_matrix_above_dense_cap_fails_before_allocating():
    dim = 2 ** (MAX_DENSE_QUBITS + 1)
    # A zero-stride view: the shape of a 13-qubit matrix without its memory.
    huge = np.broadcast_to(np.zeros(1, dtype=complex), (dim, dim))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            MatrixUnitary(huge)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * 16  # less than one 13-qubit state vector


@pytest.mark.parametrize("build", [action_matrix, densify], ids=["action_matrix", "densify"])
def test_circuit_above_dense_cap_fails_before_allocating(build):
    n = MAX_DENSE_QUBITS + 1
    circ = run_random_circuit(n, 20, 97)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            build(circ)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**n * 16  # less than one 13-qubit state vector


def _dense_reference(vec, n, gates):
    out = np.array(vec, dtype=complex)
    for i, j, matrix in gates:
        out = apply_matrix_to_qubits(out, n, matrix, (i, j))
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_run_gates_equals_the_dense_reference_bitwise(n):
    # Every ordered pair, adjacent or not, once with a C-ordered gate and once
    # with the transposed view that action_matrix passes.
    pairs = list(itertools.permutations(range(n), 2))
    stack = sample_haar_stack(stream(70 + n), 2 * len(pairs))
    gates = [(i, j, g) for (i, j), g in zip(pairs, stack[: len(pairs)])]
    gates += [(i, j, g.conj().T) for (i, j), g in zip(pairs, stack[len(pairs):])]
    assert not gates[-1][2].flags.c_contiguous
    rng = stream(80 + n)
    dim = 2**n
    vectors = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
               for shape in ((dim,), (dim, 3), (dim, 3))]
    vectors[2] = np.asfortranarray(vectors[2])
    for vec in vectors:
        before = vec.copy()
        np.testing.assert_array_equal(
            run_gates(vec, n, [g[:2] for g in gates], [g[2] for g in gates]),
            _dense_reference(vec, n, gates),
        )
        np.testing.assert_array_equal(vec, before)
    eye = np.eye(dim, dtype=complex)
    np.testing.assert_array_equal(
        run_gates(eye, n, [g[:2] for g in gates], [g[2] for g in gates]),
        _dense_reference(eye, n, gates),
    )
    np.testing.assert_array_equal(eye, np.eye(dim))


def test_run_gates_rejects_bad_states_and_pairs():
    gate = sample_haar_two_qubit(stream(90)).entries
    # A 2^(n+1) vector is not a batch of two n-qubit states.
    with pytest.raises(ValueError):
        run_gates(np.ones(2**4, dtype=complex), 3, [(0, 1)], [gate])
    with pytest.raises(ValueError):
        run_gates(np.ones((2**4, 2), dtype=complex), 3, [], [])
    for i, j in ((1, 1), (0, 3), (3, 0), (-1, 2), (2, -1)):
        with pytest.raises(InvalidPlacementError):
            run_gates(basis_vector(3, 0), 3, [(i, j)], [gate])
    block = np.eye(8, dtype=complex)
    for support in ((0, 2, 0), (2, 1, 3)):
        with pytest.raises(InvalidPlacementError, match=r"at gate 1 for n=3"):
            run_gates(basis_vector(3, 0), 3, [(0, 1, 2), support], [block, block])


# SHA-256 of circuit outputs, taken before run_gates applied gates in place; the
# first is the gate-by-gate action matrix.  The fused pin was retaken when gates
# began to join a block past the gates they commute with (numerics version 9).
# Bit-exact for a given numpy/BLAS build, like replay.
PINNED_ACTION_SHA256 = "5bb24a941be0f84f03784aa3d2a2f83857f894085474e9bb9242e71525cf4b7f"
PINNED_APPLY_SHA256 = "c78d88be58078c779eb78ce6aa824da1388cf7fcb9e9f7f22a8a281f8502bdf6"
PINNED_FUSED_ACTION_SHA256 = "27d2bb442a98204d4096b8e133ba31cf3bd92d471e209d87a243b2de5f084d97"


def test_circuit_outputs_are_pinned():
    circ = run_random_circuit(6, 200, 3)
    adjoints = [g.conj().T for g in circ.gates[::-1]]
    matrix = run_gates(np.eye(2**6, dtype=complex), 6, circ.pairs[::-1], adjoints)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == PINNED_ACTION_SHA256
    narrow = run_random_circuit(5, 40, 3)
    narrow_adjoints = [g.conj().T for g in narrow.gates[::-1]]
    vec = run_gates(basis_vector(5, 7), 5, narrow.pairs[::-1], narrow_adjoints)
    assert hashlib.sha256(vec.tobytes()).hexdigest() == PINNED_APPLY_SHA256
    fused = action_matrix(run_random_circuit(7, 200, 3))
    assert hashlib.sha256(fused.tobytes()).hexdigest() == PINNED_FUSED_ACTION_SHA256


def test_action_matrix_memory_does_not_grow_with_circuit_length():
    # The identity and the runner's state and scratch arrays, whatever t is.
    n = 8
    bound = 3 * 4**n * 16 + 64 * 1024
    peaks = []
    for length in (8, 512):
        circ = run_random_circuit(n, length, 100 + length)
        tracemalloc.start()
        try:
            action_matrix(circ)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert max(peaks) <= bound, peaks
    assert abs(peaks[1] - peaks[0]) <= 16 * 1024, peaks


@pytest.mark.parametrize("shape", [(2**12,), (2**12, 8)], ids=["vector", "batch"])
def test_run_gates_rejects_a_bad_last_pair_before_allocating(shape):
    n, t = 12, 500
    pairs = np.array([(k % n, (k + 1) % n) for k in range(t)])
    pairs[-1] = (5, 5)
    gates = sample_haar_stack(stream(91), t)
    vec = np.zeros(shape, dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidPlacementError, match=r"\(5, 5\) at gate 499"):
            run_gates(vec, n, pairs, gates)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**n * 16  # less than one state vector


def test_circuit_path_builds_no_gate_objects(monkeypatch):
    built = []
    check = TwoQubitGate.__post_init__

    def counting_check(gate):
        built.append(gate)
        check(gate)

    monkeypatch.setattr(TwoQubitGate, "__post_init__", counting_check)
    circ = run_random_circuit(4, 30, 5)
    action_matrix(circ)
    assert not built
    assert len(circ.placements) == len(built) == 30  # the counter does see gate objects


def test_placements_match_the_read_only_arrays_bitwise():
    circ = run_random_circuit(5, 40, 3)
    assert circ.pairs.shape == (40, 2) and circ.gates.shape == (40, 4, 4)
    for (i, j, gate), pair, matrix in zip(circ.placements, circ.pairs, circ.gates, strict=True):
        assert (i, j) == tuple(pair.tolist())
        assert gate.entries.tobytes() == matrix.tobytes()
    for array in (circ.pairs, circ.gates):
        with pytest.raises(ValueError):
            array[0] = 0


def test_pair_and_gate_counts_must_agree():
    circ = run_random_circuit(4, 10, 7)
    with pytest.raises(ValueError):
        RandomCircuit(4, 10, 7, circ.pairs, circ.gates[:-1])
    with pytest.raises(ValueError):
        run_gates(basis_vector(4, 0), 4, circ.pairs, (g for g in circ.gates[:-1]))
    with pytest.raises(ValueError):
        run_gates(basis_vector(4, 0), 4, circ.pairs[:-1], circ.gates)


def test_circuit_pairs_are_checked_at_construction():
    gates = sample_haar_stack(stream(92), 3)
    with pytest.raises(InvalidPlacementError, match=r"\(1, 1\) at gate 0 for n=4"):
        RandomCircuit(4, 3, 0, [[1, 1], [0, 1], [2, 3]], gates)
    with pytest.raises(InvalidPlacementError, match=r"\(2, 4\) at gate 2 for n=4"):
        RandomCircuit(4, 3, 0, [[0, 1], [2, 3], [2, 4]], gates)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_run_gates_applies_wide_blocks_like_the_dense_reference(width):
    # Supports in every order, not only the descending order fused circuits use.
    n = 6
    rng = stream(93 + width)
    supports = [tuple(rng.permutation(n)[:width].tolist()) for _ in range(20)]
    blocks = [np.linalg.qr(rng.standard_normal((2**width,) * 2)
                           + 1j * rng.standard_normal((2**width,) * 2))[0] for _ in supports]
    vec = rng.standard_normal((2**n, 5)) + 1j * rng.standard_normal((2**n, 5))
    expected = vec
    for support, block in zip(supports, blocks):
        expected = apply_matrix_to_qubits(expected, n, block, support)
    np.testing.assert_allclose(run_gates(vec, n, supports, blocks), expected, rtol=0, atol=1e-13)


def _wide_state(n, seed):
    """A random batch of at least circuits.FUSE_MIN_AMPLITUDES amplitudes, on which circuits fuse."""
    rng = stream(seed)
    shape = (2**n, max(1, circuits.FUSE_MIN_AMPLITUDES >> n))
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2**n)


def _assert_fused_matches_the_reference(circ, vec):
    n = circ.n_qubits
    forward = list(zip(circ.pairs[:, 0], circ.pairs[:, 1], circ.gates))
    adjoints = [(i, j, g.conj().T) for i, j, g in reversed(forward)]
    tol = {"rtol": 0, "atol": 1e-13}
    run_forward = circuits._run_fused(vec, n, circ.pairs, circ.gates)
    run_adjoint = circuits._run_fused(vec, n, circ.pairs[::-1], [g for _i, _j, g in adjoints])
    np.testing.assert_allclose(run_forward, _dense_reference(vec, n, forward), **tol)
    np.testing.assert_allclose(run_adjoint, _dense_reference(vec, n, adjoints), **tol)


@pytest.mark.parametrize("t", [0, 1, 2, 7, 300])
@pytest.mark.parametrize("n", range(2, 10))
def test_fused_circuits_match_the_dense_reference(monkeypatch, n, t):
    plans = []
    plan = circuits._fusion_plan

    def recording_plan(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(circuits, "_fusion_plan", recording_plan)
    _assert_fused_matches_the_reference(run_random_circuit(n, t, 10 * n + t), _wide_state(n, t))
    # Two qubits run gate by gate; wider circuits fuse in both directions.
    assert len(plans) == (0 if n == 2 else 2)


def test_a_circuit_on_few_qubits_fuses_into_one_block():
    n, t = 8, 60
    qubits = np.array([6, 1, 4, 3, 7])
    source = run_random_circuit(len(qubits), t, 94)
    circ = RandomCircuit(n, t, 94, qubits[source.pairs], source.gates)
    supports, _order, counts = circuits._fusion_plan(circ.pairs, n, circuits.FUSED_WIDTH)
    assert counts == [t] and supports.tolist() == [[7, 6, 4, 3, 1]]
    _assert_fused_matches_the_reference(circ, _wide_state(n, 95))


def _consecutive_block_count(pairs, width):
    """Blocks of the fusion that joins only consecutive gates, for comparison."""
    blocks, mask = 0, 0
    for i, j in pairs.tolist():
        gate = (1 << i) | (1 << j)
        if not blocks or (mask | gate).bit_count() > width:
            blocks, mask = blocks + 1, 0
        mask |= gate
    return blocks


@pytest.mark.parametrize("n", range(3, 11))
def test_fusion_plan_places_every_gate_once_and_keeps_dependent_orders(n):
    width = min(circuits.FUSED_WIDTH, n)
    for seed in range(3):
        circ = run_random_circuit(n, 40 * n, 1000 * n + seed)
        supports, order, counts = circuits._fusion_plan(circ.pairs, n, width)
        assert sorted(order.tolist()) == list(range(circ.length))
        assert len(supports) == len(counts) and sum(counts) == circ.length
        # Rank of each gate in the fused run; two gates sharing a qubit keep their order.
        rank = np.empty(circ.length, dtype=np.intp)
        rank[order] = np.arange(circ.length)
        last = {}
        for k, (i, j) in enumerate(circ.pairs.tolist()):
            for q in (i, j):
                if q in last:
                    assert rank[last[q]] < rank[k]
                last[q] = k
        start = 0
        for support, count in zip(supports, counts):
            assert len(set(support.tolist())) == width
            assert sorted(support.tolist(), reverse=True) == support.tolist()
            group = order[start : start + count]
            assert group.tolist() == sorted(group.tolist())
            assert set(circ.pairs[group].ravel().tolist()) <= set(support.tolist())
            start += count


def test_fusion_plan_needs_fewer_blocks_than_consecutive_fusion():
    # The circuit that `oracle --unitary random --n 8` densifies at seed 0.
    n, t = 8, 2048
    circ = run_random_circuit(n, t, 0)
    _supports, _order, counts = circuits._fusion_plan(circ.pairs, n, circuits.FUSED_WIDTH)
    assert (len(counts), _consecutive_block_count(circ.pairs, circuits.FUSED_WIDTH)) == (383, 548)


def test_fused_action_is_unitary():
    circ = run_random_circuit(8, 300, 96)
    eye = np.eye(2**8)
    assert eye.size >= circuits.FUSE_MIN_AMPLITUDES
    forward = circuits._run_fused(eye, 8, circ.pairs, circ.gates)
    np.testing.assert_allclose(action_matrix(circ) @ forward, eye, rtol=0, atol=1e-13)
