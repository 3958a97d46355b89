import hashlib
import json

import numpy as np
import pytest

from oraclelab import experiments
from oraclelab import oracle as oracle_module
from oraclelab.simcore import circuits
from oraclelab.dispersion import certify_dispersing, pseudo_search
from oraclelab.errors import InvalidConfigError, LabelError
from oraclelab.oracle import (
    LabelSpec,
    SingleLevelOracle,
    build_oracle,
    identify,
    prepare_phi,
)
from oraclelab.signs import best_phase_signs
from oraclelab.simcore import (
    FourierMatrix,
    HadamardAll,
    MatrixUnitary,
    builtin_group,
    densify,
    fwht_normalized,
    group_fourier,
    hadamard_all,
    qft_cyclic,
    run_random_circuit,
    stream,
)


def parity(a: int, x: int) -> int:
    return bin(a & x).count("1") & 1


def dense_block_probability(unitary, state, rows) -> float:
    """The dense reference measurement: ``sum_r |(M state)_r|^2`` over ``rows``, clipped at 1,
    with M the FWHT for Hadamard and the dense matrix otherwise."""
    out = fwht_normalized(state) if isinstance(unitary, HadamardAll) else unitary.matrix @ state
    return min(float(np.sum(np.abs(out[list(rows)]) ** 2)), 1.0)


def dense_identify(oracle, label_index: int) -> float:
    """``identify`` through the dense reference: the oracle's U applied to the signed state."""
    state = prepare_phi(oracle, label_index).amplitudes
    return dense_block_probability(oracle.unitary, state, oracle.labels[label_index].rows)


def test_hadamard_oracle_bits_are_parities_up_to_complement():
    n = 5
    action = hadamard_all(n)
    oracle = build_oracle(action, range(2**n))
    for a in (0, 3, 17, 31):
        row = oracle.f_bits[a]
        expected = np.array([parity(a, x) for x in range(2**n)], dtype=np.uint8)
        assert np.array_equal(row, expected) or np.array_equal(row, 1 - expected)


# SHA-256 of the Hadamard certificate's row L1s at n = 12 and of the compiled bits
# at n = 9.  Both come from integer-valued sums, so a Walsh-Hadamard kernel that
# only reorders additions must keep them bit-identical.
PINNED_HADAMARD_L1_SHA256 = "47f63e8deb3487f09969ffdcd38f273ba882d560bffd3593ae0a0c2da1b21caf"
PINNED_HADAMARD_F_BITS_SHA256 = "d22e4c31059badbb2b93b8735d988c337208633817efa3666421db2413c4445a"


def test_hadamard_certificate_and_compiled_bits_are_pinned():
    l1 = certify_dispersing(hadamard_all(12), 1.0).per_label_l1
    assert hashlib.sha256(l1.tobytes()).hexdigest() == PINNED_HADAMARD_L1_SHA256
    f_bits = build_oracle(hadamard_all(9), range(512)).f_bits
    assert hashlib.sha256(f_bits.tobytes()).hexdigest() == PINNED_HADAMARD_F_BITS_SHA256


def _oracle_metrics_digest(params) -> str:
    metrics, _failures = experiments.run_oracle(params, 0)
    return hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "params, digest",
    [
        ({"unitary": "random", "n": 6},
         "7b462714e0bc5674f068c3debfeabaa3e9f18e6a640ed7a11003b41c3a79f7ec"),
        ({"unitary": "qft", "n": 6},
         "2defcea2c3477177d9a761f0ce67777d7684fa90b4ab38df1704664f68a3b7a7"),
        ({"unitary": "hadamard", "n": 9},
         "f03deb26510a5d984beebf5ff13ce5d88aaaee010e5bbc3779d85f378743d707"),
    ],
)
def test_oracle_metrics_are_pinned(monkeypatch, params, digest):
    # Taken while identify applied U to the whole signed state, one label per
    # call (numerics version 7); that dense reference path keeps them.
    def dense(oracle, labels):
        return np.array([dense_identify(oracle, k) for k in labels])

    monkeypatch.setattr(experiments, "identify", dense)
    assert _oracle_metrics_digest(params) == digest


@pytest.mark.parametrize(
    "params, digest",
    [
        ({"unitary": "random", "n": 6},
         "b28723f0aeea71a0445445aeb58ca5e6aae982d32094d0b1841ee2e89ab1e992"),
        ({"unitary": "qft", "n": 6},
         "2defcea2c3477177d9a761f0ce67777d7684fa90b4ab38df1704664f68a3b7a7"),
        ({"unitary": "hadamard", "n": 9},
         "f03deb26510a5d984beebf5ff13ce5d88aaaee010e5bbc3779d85f378743d707"),
    ],
)
def test_oracle_metrics_on_the_row_path_are_pinned(params, digest):
    # identify reading the labels' rows (numerics version 8): random moved by an
    # ulp of min_success, qft and hadamard held.  Moving these must bump
    # cli.NUMERICS_VERSION.
    assert _oracle_metrics_digest(params) == digest


def test_oracle_metrics_on_the_fused_path_are_pinned():
    # At n = 8 the circuit is densified through fused blocks, each joined by the gates
    # that commute past the gates they skip (numerics version 9).  Moving this must
    # bump cli.NUMERICS_VERSION.
    digest = "b4ae2ec8549ad5cf892e4e58a3ac19a69b509f27d61ea4a2e9a5a05eab40087c"
    assert _oracle_metrics_digest({"unitary": "random", "n": 8}) == digest


@pytest.mark.parametrize("t, seed, missing", [(None, 3, "t"), (10, None, "seed"), (None, None, "t")])
def test_random_unitary_needs_t_and_seed_before_any_draw(monkeypatch, t, seed, missing):
    def refuse(*args, **kwargs):
        raise AssertionError("drew a circuit before checking its arguments")

    monkeypatch.setattr(oracle_module, "run_random_circuit", refuse)
    with pytest.raises(InvalidConfigError, match=f"needs {missing}"):
        oracle_module.build_unitary("random", 3, t, seed)


def test_identity_oracle_prediction():
    n = 4
    action = MatrixUnitary(np.eye(2**n, dtype=complex))
    oracle = build_oracle(action, [5])
    beta = 2 ** (-n / 2)
    assert abs(oracle.betas[0] - beta) <= 1e-12
    assert abs(oracle.predicted_success[0] - (2 * beta / np.pi) ** 2) <= 1e-12
    assert identify(oracle, 0) >= oracle.predicted_success[0] - 1e-12


def test_cyclic_qft_oracle_meets_bound():
    fourier = qft_cyclic(16)
    labels = [(f"chi{j}", 1) for j in range(16)]
    oracle = build_oracle(fourier, labels)
    floor = (2 / np.pi) ** 2
    for k in range(16):
        assert identify(oracle, k) >= floor - 1e-9


def test_prepare_phi_shapes():
    n = 3
    action = hadamard_all(n)
    oracle = build_oracle(action, range(2**n))
    phi = prepare_phi(oracle, 2)
    np.testing.assert_allclose(np.abs(phi.amplitudes), 2 ** (-n / 2), atol=1e-12)
    assert abs(np.linalg.norm(phi.amplitudes) - 1.0) <= 1e-12
    # Constant bits give the uniform superposition up to a global sign.
    flat = build_oracle(MatrixUnitary(np.eye(2**n, dtype=complex)), [0])
    uniform = prepare_phi(flat, 0)
    assert np.allclose(uniform.amplitudes, 2 ** (-n / 2)) or np.allclose(
        uniform.amplitudes, -(2.0 ** (-n / 2))
    )


def test_lowest_bit_oracle_state():
    n = 3
    action = hadamard_all(n)
    oracle = build_oracle(action, [1])  # f(1, x) = lowest bit of x (or complement)
    phi = prepare_phi(oracle, 0)
    evens = phi.amplitudes[::2]
    odds = phi.amplitudes[1::2]
    assert np.allclose(evens, evens[0]) and np.allclose(odds, -evens[0])


def test_hadamard_identification_exact_and_phi_inverts():
    n = 6
    action = hadamard_all(n)
    oracle = build_oracle(action, range(2**n))
    for a in (0, 1, 33, 63):
        phi = prepare_phi(oracle, a)
        recovered = np.abs(fwht_normalized(phi.amplitudes)) ** 2
        assert abs(recovered[a] - 1.0) <= 1e-9
        assert abs(identify(oracle, a) - 1.0) <= 1e-9


def _block_probabilities(oracle, label_index: int) -> np.ndarray:
    """Probability of every label's measurement block on ``U |phi_a>``."""
    state = prepare_phi(oracle, label_index).amplitudes
    return np.array(
        [dense_block_probability(oracle.unitary, state, spec.rows) for spec in oracle.labels]
    )


def _identify_case(kind, n=None):
    """An oracle over every label: basis labels on n qubits, or the blocks of the d4 or q8
    transform with ``pseudo_search`` ancillas on the two-row blocks."""
    if kind in ("d4", "q8"):
        fourier = group_fourier(builtin_group(kind))
        blocks = fourier.block_labels()
        psi = {
            label: pseudo_search(fourier, label, 500, stream(51)).best_psi
            for label in blocks
            if len(fourier.rows_for_block(*label)) == 2
        }
        return build_oracle(fourier, blocks, psi=psi)
    if kind == "hadamard":
        unitary = hadamard_all(n)
    elif kind == "qft":
        unitary = qft_cyclic(2**n)
    else:
        unitary = densify(run_random_circuit(n, 20 * n, seed=n))
    return build_oracle(unitary, range(2**n))


# How far the row product may round from the dense reference, which applies U to
# the whole signed state; the largest difference seen on these cases is 1.9e-15.
IDENTIFY_BOUND = 1e-13


@pytest.mark.parametrize(
    "kind, n",
    [
        *(("hadamard", n) for n in range(1, 11)),
        *(("qft", n) for n in range(1, 9)),
        *(("random", n) for n in range(2, 9)),
        ("d4", None),
        ("q8", None),
    ],
)
def test_identify_equals_the_dense_reference(kind, n):
    oracle = _identify_case(kind, n)
    measured = identify(oracle, np.arange(oracle.n_labels))
    reference = [dense_identify(oracle, k) for k in range(oracle.n_labels)]
    assert np.max(np.abs(measured - reference)) <= IDENTIFY_BOUND


@pytest.mark.parametrize("rows", [None, 3], ids=["default-blocks", "blocks-of-3"])
@pytest.mark.parametrize("kind, n", [("hadamard", 7), ("qft", 6), ("random", 6), ("d4", None)])
def test_one_block_call_equals_its_per_label_calls_bitwise(monkeypatch, kind, n, rows):
    oracle = _identify_case(kind, n)
    if rows is not None:
        monkeypatch.setattr(circuits, "ROW_BLOCK_AMPLITUDES", rows << oracle.n_qubits)
    labels = stream(3).permutation(oracle.n_labels)
    block = identify(oracle, labels)
    assert block.tobytes() == np.array([identify(oracle, k) for k in labels]).tobytes()


def test_identify_takes_the_shape_of_its_index():
    oracle = _identify_case("qft", 3)
    every = identify(oracle, np.arange(8))
    scalar = identify(oracle, 5)
    assert np.shape(scalar) == () and scalar == every[5]
    assert np.array_equal(identify(oracle, [[0, 1], [2, 3]]), every[:4].reshape(2, 2))
    assert identify(oracle, []).shape == (0,)


def test_outcome_distribution_sums_to_one():
    fourier = qft_cyclic(8)
    oracle = build_oracle(fourier, [(f"chi{j}", 1) for j in range(8)])
    dist = _block_probabilities(oracle, 3)
    assert abs(dist.sum() - 1.0) <= 1e-9


def test_random_circuit_predicted_vs_measured():
    for seed in range(10):
        circ = run_random_circuit(4, 150, seed=seed)
        action = densify(circ)
        oracle = build_oracle(action, range(16))
        for k in range(16):
            measured = identify(oracle, k)
            assert measured >= oracle.predicted_success[k] - 1e-9


@pytest.mark.parametrize("name", ["d4", "q8"])
def test_group_block_oracle_with_ancilla(name):
    group = builtin_group(name)
    fourier = group_fourier(group)
    blocks = fourier.block_labels()
    two_dim = [b for b in blocks if len(fourier.rows_for_block(*b)) == 2]
    psi = {}
    for label in two_dim:
        report = pseudo_search(fourier, label, samples=500, rng=stream(51))
        psi[label] = report.best_psi
    oracle = build_oracle(fourier, blocks, psi=psi)
    for k, label in enumerate(blocks):
        measured = identify(oracle, k)
        assert measured >= oracle.predicted_success[k] - 1e-9
    dist = _block_probabilities(oracle, 0)
    assert abs(dist.sum() - 1.0) <= 1e-9


# SHA-256 of f_bits and betas of block oracles, taken while blocks were sliced from
# the Fourier matrix; reading each row as conj(U^dag |r>) must keep them bit-identical.
@pytest.mark.parametrize(
    "name, f_bits_digest, betas_digest",
    [
        ("qft256", "d0816777ed45853853c911ed55d74eb38e36ccd20b7177abc0f5bead31df8a9e",
         "1087cfccff56d21d544075ddf66f5fdd8e622a23a3f64b1694478cec0e0813ea"),
        ("d4", "e304de8dbfdaa8cc804304d56d8846e29e0b455a720bb70e7100b090ace3d1a2",
         "e3029b8d9cf37ff6ec11293b4956a23a8ba192cc508dd5379aa962010b2b7e41"),
        ("q8", "0ee072a6a93045f3f9823dc2492bf4f125db431a5e1e457641247bd9ff235f19",
         "e3029b8d9cf37ff6ec11293b4956a23a8ba192cc508dd5379aa962010b2b7e41"),
    ],
)
def test_block_oracles_are_pinned(name, f_bits_digest, betas_digest):
    if name == "qft256":
        fourier = qft_cyclic(256)
        oracle = build_oracle(fourier, [(f"chi{j}", 1) for j in range(256)])
    else:
        fourier = group_fourier(builtin_group(name))
        blocks = fourier.block_labels()
        psi = {
            label: pseudo_search(fourier, label, 500, stream(51)).best_psi
            for label in blocks
            if len(fourier.rows_for_block(*label)) == 2
        }
        oracle = build_oracle(fourier, blocks, psi=psi)
    assert hashlib.sha256(oracle.f_bits.tobytes()).hexdigest() == f_bits_digest
    assert hashlib.sha256(oracle.betas.tobytes()).hexdigest() == betas_digest


def _reference_oracle(unitary, specs):
    """The per-label compiler: one label's rows and one ``best_phase_signs`` call at a time."""
    n = unitary.n_qubits
    f_bits = np.zeros((len(specs), 2**n), dtype=np.uint8)
    betas = np.zeros(len(specs))
    for k, spec in enumerate(specs):
        rows = np.array([unitary.rows([r])[0] for r in spec.rows])
        sol = best_phase_signs(rows[0] if spec.psi is None else spec.psi.conj() @ rows)
        f_bits[k] = ((1 - np.array(sol.theta)) // 2).astype(np.uint8)
        betas[k] = sol.l1 / 2 ** (n / 2)
    return f_bits, betas


def _d4_psi(fourier):
    return {
        label: pseudo_search(fourier, label, 50, stream(52)).best_psi
        for label in fourier.block_labels()
        if len(fourier.rows_for_block(*label)) == 2
    }


def _compile_case(kind):
    """A unitary, labels in an order that is not the basis order, and the ancillas."""
    if kind == "hadamard":
        return hadamard_all(5), stream(1).permutation(32).tolist(), None
    if kind == "qft":
        return qft_cyclic(64), list(range(64)), None
    if kind == "random":
        return densify(run_random_circuit(6, 120, seed=5)), stream(2).permutation(64).tolist(), None
    d4 = group_fourier(builtin_group("d4"))
    labels = [0, ("planar", 1), 5, *d4.block_labels()[:4], ("planar", 2), 7, ("planar", 1)]
    return d4, labels, _d4_psi(d4)


@pytest.mark.parametrize("rows", [None, 3], ids=["default-blocks", "blocks-of-3"])
@pytest.mark.parametrize("kind", ["hadamard", "qft", "random", "d4-blocks"])
def test_block_compilation_equals_the_per_label_loop(monkeypatch, kind, rows):
    unitary, labels, psi = _compile_case(kind)
    if rows is not None:
        # None of these label counts is a multiple of 3.
        monkeypatch.setattr(circuits, "ROW_BLOCK_AMPLITUDES", rows << unitary.n_qubits)
    oracle = build_oracle(unitary, labels, psi)
    f_bits, betas = _reference_oracle(unitary, oracle.labels)
    assert np.array_equal(oracle.f_bits, f_bits)
    assert oracle.betas.tobytes() == betas.tobytes()


@pytest.mark.parametrize("rows, sizes", [(3, [3, 3, 2, 3, 2]), (1, [1, 2, 1, 1, 1, 1, 1, 2, 1, 2])])
def test_oracle_blocks_hold_at_most_the_row_cap(monkeypatch, rows, sizes):
    # The d4 case's labels have 1, 2, 1, 1, 1, 1, 1, 2, 1 and 2 rows.  Under a
    # cap of one row, each two-row block is read alone.
    fourier, labels, psi = _compile_case("d4-blocks")
    calls = []
    original = FourierMatrix.rows

    def recording(self, rows_read):
        calls.append(list(rows_read))
        return original(self, rows_read)

    monkeypatch.setattr(FourierMatrix, "rows", recording)
    monkeypatch.setattr(circuits, "ROW_BLOCK_AMPLITUDES", rows << fourier.n_qubits)
    oracle = build_oracle(fourier, labels, psi)
    assert [len(call) for call in calls] == sizes
    assert sum(calls, []) == [r for spec in oracle.labels for r in spec.rows]


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, 0.0, 2.0])
def test_oracle_refuses_betas_outside_the_success_range(beta):
    with pytest.raises(InvalidConfigError, match="predicted success"):
        SingleLevelOracle(
            2, (LabelSpec(0, (0,)),), np.zeros((1, 4), dtype=np.uint8), np.array([beta]),
            hadamard_all(2),
        )


@pytest.mark.parametrize("n", [1, 3])
def test_oracle_refuses_a_unitary_on_another_register(n):
    with pytest.raises(InvalidConfigError, match="unitary acts on"):
        SingleLevelOracle(
            2, (LabelSpec(0, (0,)),), np.zeros((1, 4), dtype=np.uint8), np.array([0.5]),
            hadamard_all(n),
        )


def test_block_labels_need_a_unitary_with_blocks():
    with pytest.raises(LabelError, match="no block"):
        build_oracle(hadamard_all(3), [("chi1", 1)])
    with pytest.raises(LabelError, match="no block"):
        build_oracle(qft_cyclic(8), [("chi9", 1)])


def test_group_block_oracle_requires_psi_for_wide_blocks():
    fourier = group_fourier(builtin_group("d4"))
    with pytest.raises(InvalidConfigError):
        build_oracle(fourier, [("planar", 1)])


def test_unknown_label_raises():
    oracle = build_oracle(hadamard_all(2), range(4))
    for index in (7, 1.5):
        with pytest.raises(LabelError):
            prepare_phi(oracle, index)
    for index in (-1, 4, [0, 4], [[1], [-1]], 1.5):
        with pytest.raises(LabelError):
            identify(oracle, index)


@pytest.mark.parametrize("labels", [[-1, 2], [0, 8], [7, 8]])
def test_basis_labels_outside_the_register_are_refused_before_compiling(monkeypatch, labels):
    def refuse(*args, **kwargs):
        raise AssertionError("compiled a row before checking the labels")

    monkeypatch.setattr(oracle_module, "compile_rows", refuse)
    with pytest.raises(LabelError, match="outside"):
        build_oracle(hadamard_all(3), labels)
