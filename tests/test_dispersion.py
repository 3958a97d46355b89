import numpy as np
import pytest

from oraclelab.dispersion import certify_dispersing, pseudo_search
from oraclelab.errors import InvalidConfigError
from oraclelab.paulichain import collision_statistics
from oraclelab.simcore import (
    MatrixUnitary,
    builtin_group,
    child,
    circuits,
    densify,
    fwht_normalized,
    group_fourier,
    hadamard_all,
    qft_cyclic,
    run_random_circuit,
    stream,
)
from test_states import dense_two_qubit_matrix


def test_l1_identity_is_one():
    l1 = certify_dispersing(MatrixUnitary(np.eye(8, dtype=complex)), 1.0).per_label_l1
    assert np.all(np.abs(l1 - 1.0) <= 1e-12)


def test_l1_hadamard_is_2_to_half_n():
    l1 = certify_dispersing(hadamard_all(3), 1.0).per_label_l1
    assert np.all(np.abs(l1 - 2**1.5) <= 1e-9)


def test_l1_random_circuit_against_dense_recomputation():
    n, t = 6, 4 * 6**3
    circ = run_random_circuit(n, t, seed=77)
    ref = np.eye(2**n, dtype=complex)
    for i, j, gate in circ.placements:
        ref = dense_two_qubit_matrix(gate.entries, n, i, j) @ ref
    beta = 0.25
    hits = 0
    for a, value in enumerate(certify_dispersing(densify(circ), beta).per_label_l1):
        independent = float(np.sum(np.abs(ref[:, a])))
        assert abs(value - independent) <= 1e-9
        assert 1.0 - 1e-9 <= value <= 2 ** (n / 2) + 1e-9
        hits += value >= beta * 2 ** (n / 2)
    assert hits >= 0.9 * 2**n  # most labels disperse at beta = 1/4


def test_certify_hadamard_full_alpha():
    report = certify_dispersing(hadamard_all(6), beta=1.0)
    assert len(report.achieving_set) == 64
    assert report.alpha_achieved == 1.0


def test_dense_flat_spectrum_certifies_every_label():
    # H times the diagonal phases w, w^2, ..., w^(2^n), each a product of the
    # last, as a Fourier transform builds its twiddles.  The products drift
    # off the unit circle, so every row's L1 falls 2.1e-12 short of 2^(n/2):
    # a rounding shortfall that grows with 2^n, not a dispersion failure.
    n = 11
    w = np.exp(2j * np.pi * stream(0).uniform())
    phases = np.cumprod(np.full(2**n, w))
    report = certify_dispersing(MatrixUnitary(fwht_normalized(np.eye(2**n, dtype=complex)) * phases), beta=1.0)
    assert np.max(2 ** (n / 2) - report.per_label_l1) > 1e-12
    assert len(report.achieving_set) == 2**n
    assert report.alpha_achieved == 1.0


@pytest.mark.parametrize("rows", [None, 3], ids=["default-blocks", "blocks-of-3"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: hadamard_all(7),
        lambda: qft_cyclic(64),
        lambda: densify(run_random_circuit(6, 120, seed=5)),
        lambda: group_fourier(builtin_group("d4")),
    ],
    ids=["hadamard-7", "qft-6", "random-matrix-6", "d4"],
)
def test_block_certificate_equals_the_per_label_sums(monkeypatch, make, rows):
    action = make()
    n = action.n_qubits
    if rows is not None:
        # 2^n is never a multiple of 3.
        monkeypatch.setattr(circuits, "ROW_BLOCK_AMPLITUDES", rows << n)
    calls = []
    original = type(action).rows

    def recording(self, labels):
        calls.append(len(labels))
        return original(self, labels)

    monkeypatch.setattr(type(action), "rows", recording)
    l1 = certify_dispersing(action, 0.5).per_label_l1
    assert max(calls) <= circuits.rows_per_block(n) and sum(calls) == 2**n
    old = np.array([np.sum(np.abs(original(action, [a])[0])) for a in range(2**n)])
    assert l1.tobytes() == old.tobytes()


def test_certify_identity_empty_above_threshold():
    for n in (2, 3, 4, 6):
        report = certify_dispersing(MatrixUnitary(np.eye(2**n, dtype=complex)), beta=0.5)
        expected = 0 if 1.0 < 0.5 * 2 ** (n / 2) - 1e-12 else 2**n
        assert len(report.achieving_set) == expected


def test_certify_cyclic_qft_full():
    report = certify_dispersing(qft_cyclic(32), beta=1.0)
    assert len(report.achieving_set) == 32
    assert report.alpha_achieved == 1.0


def test_certify_rejects_bad_beta():
    with pytest.raises(InvalidConfigError):
        certify_dispersing(hadamard_all(2), beta=0.0)


def test_pseudo_search_abelian_block_is_exact():
    fourier = qft_cyclic(8)
    report = pseudo_search(fourier, ("chi3", 1), samples=50, rng=stream(5))
    np.testing.assert_allclose(report.l1_values, np.sqrt(8), atol=1e-10)


@pytest.mark.parametrize("name", ["s3", "d4", "q8"])
def test_pseudo_search_two_dim_blocks(name):
    group = builtin_group(name)
    fourier = group_fourier(group)
    label = [b for b in fourier.block_labels() if len(fourier.rows_for_block(*b)) == 2][0]
    report = pseudo_search(fourier, label, samples=2000, rng=stream(6))
    bound = np.sqrt(group.order / 2.0)
    assert report.mean_value >= bound - 3 * report.standard_error()
    assert report.best_value >= bound
    # Unit vectors cannot beat the Cauchy-Schwarz cap.
    assert np.all(report.l1_values <= np.sqrt(group.order) + 1e-9)


def test_collision_extremes():
    # A basis state carries all its mass on one amplitude.
    q, l1 = collision_statistics(4, 0, [stream(1)], [3])
    assert q[0] == 1.0 and l1[0] == 1.0
    # Every state lies between a basis state and the uniform state.
    rngs = [child(2, c) for c in range(20)]
    q, l1 = collision_statistics(4, 40, rngs, [c % 16 for c in range(20)])
    assert np.all((q >= 2.0**-4 - 1e-12) & (q <= 1.0 + 1e-12))
    assert np.all((l1 >= 1.0 - 1e-12) & (l1 <= 2.0**2 + 1e-12))


def test_l1_collision_inequality():
    # L1^2 * collision >= 1 for every normalized state.
    rng = stream(15)
    for n in range(2, 6):
        for steps in (1, n, 4 * n**2):
            rngs = [child(15 * n + steps, c) for c in range(20)]
            q, l1 = collision_statistics(n, steps, rngs, rng.integers(2**n, size=20))
            assert np.all(q >= 2.0**-n - 1e-12)
            assert np.all(l1 * l1 * q >= 1.0 - 1e-9)
