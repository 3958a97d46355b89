import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oraclelab.errors import InvalidConfigError, LabelError, SizeError
from oraclelab.paulichain import (
    MAX_WEIGHT_CHAIN_N,
    NONZERO_PAIRS,
    TWO_COPY_BLOCK,
    _strings,
    _transfer_complex,
    circuit_collision_sample,
    collision_statistics,
    exact_gap,
    full_transition_matrix,
    gamma_squared,
    gap_table,
    initial_gamma_squared,
    lumped_matrix,
    lumped_matrix_rational,
    moment_compare,
    sigma_stack,
    string_index,
    two_copy_chunk,
    two_copy_finalize,
    two_copy_target,
    walk_ensemble,
)
from oraclelab.experiments import run_ad2, run_qt
from oraclelab.simcore import (
    PureState,
    basis_vector,
    child,
    circuits,
    run_gates,
    run_pair_circuits,
    sample_haar_stack,
    sample_haar_two_qubit,
    stream,
)
from oraclelab.simcore.circuits import PAIR_GATE_BUDGET, PAIR_STEPS


def test_zero_string_is_absorbing():
    codes = walk_ensemble(3, 100, 50, stream(1), start=(0, 0, 0))
    assert not codes.any()


def test_nonzero_pair_outcomes_uniform():
    # With two sites every step rerandomizes the only pair: one step from a
    # nonzero string is one uniform draw from the 15 nonzero pairs.
    walkers = 100_000
    codes = walk_ensemble(2, 1, walkers, stream(2), start=(1, 0))
    counts = np.bincount(codes[:, 0] * 4 + codes[:, 1], minlength=16)
    freqs = counts / walkers
    assert freqs[0] == 0.0
    np.testing.assert_allclose(freqs[1:], 1 / 15, atol=0.01)


def test_weight_law_of_new_pair():
    # Of the 15 nonzero pairs, 6 have one zero site and 9 have none.
    weights = (NONZERO_PAIRS != 0).sum(axis=1)
    assert (weights == 1).sum() == 6
    assert (weights == 2).sum() == 9


def test_weight_never_dies():
    # The zero string is absorbing, so a walker alive at the end was alive at every step.
    for steps in (1, 10, 500):
        codes = walk_ensemble(4, steps, 1000, stream(3), start=(0, 2, 0, 0))
        assert ((codes != 0).sum(axis=1) >= 1).all()


def test_lumped_two_sites():
    chain = lumped_matrix(2)
    np.testing.assert_allclose(chain.transition, [[0.4, 0.6], [0.4, 0.6]], atol=1e-15)


@pytest.mark.parametrize("n", [*range(2, 9), 9, 33, 64])
def test_rational_rows_and_detailed_balance(n):
    rows = lumped_matrix_rational(n)
    assert all(sum(row) == 1 for row in rows)
    pi = [Fraction(math.comb(n, w) * 3**w) for w in range(1, n + 1)]
    for a in range(n):
        for b in range(n):
            assert pi[a] * rows[a][b] == pi[b] * rows[b][a]


def test_float_chain_is_the_exact_chain_rounded_once_at_every_n():
    for n in range(2, MAX_WEIGHT_CHAIN_N + 1):
        rounded = [[float(q) for q in row] for row in lumped_matrix_rational(n)]
        assert lumped_matrix(n).transition.tolist() == rounded


def test_weight_chain_is_cached_read_only():
    assert lumped_matrix(9) is lumped_matrix(9)
    with pytest.raises(ValueError):
        lumped_matrix(9).transition[0, 0] = 0.0
    with pytest.raises(ValueError):
        lumped_matrix(9).stationary[0] = 0.0


def test_float_detailed_balance_large_n():
    for n in (16, 48, 64):
        chain = lumped_matrix(n)
        flow = chain.stationary[:, None] * chain.transition
        assert np.abs(flow - flow.T).max() <= 1e-12
        np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)


def test_gap_two_is_exactly_one():
    assert exact_gap(2) == 1.0


def test_gaps_positive_up_to_64():
    gaps = [exact_gap(n) for n in range(2, 65)]
    assert all(g > 0 for g in gaps)
    # Larger chains mix slower.
    assert gaps[-1] < gaps[2]


def test_gap_table_columns():
    rows = gap_table([4, 8, 16])
    assert [r["n"] for r in rows] == [4, 8, 16]
    for r in rows:
        assert abs(r["gap_n"] - r["gap"] * r["n"]) <= 1e-15
        assert abs(r["gap_n2"] - r["gap"] * r["n"] ** 2) <= 1e-15


def test_full_chain_matches_lumped_weights():
    n = 3
    full = full_transition_matrix(n)
    np.testing.assert_allclose(full.sum(axis=1), 1.0, atol=1e-12)
    codes = walk_ensemble(n, 20, 100_000, stream(4))
    weights = (codes != 0).sum(axis=1)
    emp = np.bincount(weights, minlength=n + 1)[1:] / len(codes)
    chain = lumped_matrix(n)
    dist = np.zeros(n)
    dist[0] = 1.0
    for _ in range(20):
        dist = dist @ chain.transition
    assert 0.5 * np.abs(emp - dist).sum() <= 0.02


def test_stationary_uniform_on_nonzero_strings():
    n = 3
    codes = walk_ensemble(n, 150, 100_000, stream(5))
    values = np.zeros(len(codes), dtype=np.int64)
    for site in range(n):
        values = values * 4 + codes[:, site]
    hist = np.bincount(values, minlength=4**n).astype(float)
    assert hist[0] == 0
    dist = hist / hist.sum()
    assert 0.5 * np.abs(dist[1:] - 1 / 63).sum() <= 0.02


def test_gamma_initial_distribution():
    for n in (1, 2, 3):
        g0 = initial_gamma_squared(n)
        assert np.isclose(g0.sum(), 1.0)
        assert (g0 > 0).sum() == 2**n
        np.testing.assert_allclose(g0[g0 > 0], 2.0**-n)
    # Agrees with the direct Pauli expansion of a basis state.
    state = PureState(2, basis_vector(2, 3))
    np.testing.assert_allclose(gamma_squared(state), initial_gamma_squared(2), atol=1e-12)


def test_gamma_squared_sums_to_one():
    rng = stream(6)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    assert abs(gamma_squared(PureState(3, amps)).sum() - 1.0) <= 1e-9


def test_weight_chain_stationary_dump():
    # pi(w) = C(3,w) 3^w / 63 over the weights w = 1, 2, 3.
    np.testing.assert_allclose(lumped_matrix(3).stationary, [9 / 63, 27 / 63, 27 / 63], atol=1e-12)


def test_moment_compare_t_zero_is_exact():
    res = moment_compare(2, 0, 50, stream(7))
    assert res["tv_distance"] <= 1e-12


def test_moment_compare_small():
    res = moment_compare(2, 5, 400, stream(8))
    assert res["tv_distance"] <= 0.05
    assert abs(res["lhs_mass"] - 1.0) <= 1e-9
    assert abs(res["rhs_mass"] - 1.0) <= 1e-9


def test_moment_compare_size_guard():
    with pytest.raises(SizeError):
        moment_compare(5, 1, 10, stream(9))


def test_pauli_transfer_properties():
    rng = stream(10)
    eye = np.eye(16)
    for _ in range(20):
        ad = _transfer_complex(sample_haar_two_qubit(rng).entries)
        assert ad.shape == (16, 16)
        # Conjugation keeps Hermitian Paulis Hermitian, so the matrix is real.
        assert np.abs(ad.imag).max() <= 1e-12
        ad = ad.real
        assert abs(ad[0, 0] - 1.0) <= 1e-12  # trace preservation
        np.testing.assert_allclose(ad[0], eye[0], atol=1e-12)  # unitality
        np.testing.assert_allclose(ad[:, 0], eye[0], atol=1e-12)
        assert np.abs(ad.T @ ad - eye).max() <= 1e-10


def test_two_copy_target_is_projector():
    target = two_copy_target()
    np.testing.assert_allclose(target @ target, target, atol=1e-12)
    assert abs(np.trace(target) - 2.0) <= 1e-12


def test_two_copy_pass_small_run():
    res = two_copy_finalize(two_copy_chunk(400, stream(11)))
    assert res["max_orthogonality_defect"] <= 1e-10
    assert res["max_imag_part"] <= 1e-12
    assert res["max_corner_defect"] <= 1e-12
    # Distances concentrate at sqrt(254/N) and sqrt(14/N).
    assert abs(res["frobenius_distance_full"] - np.sqrt(254 / 400)) <= 0.1
    assert res["frobenius_distance_moment_rows"] <= 2 * np.sqrt(14 / 400)


@pytest.mark.parametrize("samples, seed", [(100, 0), (1234, 7)])
def test_ad2_is_one_two_copy_pass(samples, seed):
    metrics, failures = run_ad2({"samples": samples}, seed)
    assert not failures
    assert metrics == two_copy_finalize(two_copy_chunk(samples, child(seed, 0)))


def test_ad2_memory_does_not_grow_with_the_sample_count():
    run_ad2({"samples": 100}, 0)  # caches the Pauli stack before measuring
    peaks = []
    for samples in (1000, 10_000):
        tracemalloc.start()
        try:
            run_ad2({"samples": samples}, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # One 256 x 256 running sum takes 512 KiB; a sum kept per 1000 draws would add 4.5 MiB.
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


def test_ad2_fails_haar_draws_without_the_phase_fix(monkeypatch):
    def without_phase_fix(normals):
        return np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])[0]

    monkeypatch.setattr(circuits, "_haar_unitaries", without_phase_fix)
    # The moment rows still pass such draws; the full-matrix distance, at about
    # 2.3 sqrt(254 / N) against a cap of 1.5 sqrt(254 / N), does not.
    _metrics, failures = run_ad2({"samples": 4000}, 0)
    assert failures == ["full two-copy average far from its sampling floor"]


def test_collision_of_trivial_circuit():
    q, l1 = circuit_collision_sample(3, 0, stream(12))
    assert q == 1.0 and l1 == 1.0


def test_collision_start_outside_the_register_is_refused_before_any_draw():
    # -1 used to wrap to 7, and 8 raised a bare IndexError.
    for a in (-1, 8, 2.0, True):
        rng = stream(1)
        with pytest.raises(LabelError):
            circuit_collision_sample(3, 5, rng, a=a)
        assert rng.random() == stream(1).random(), a


def test_empirical_markov_tail_bound():
    # The first-moment tail inequality holds exactly for any sample: the
    # fraction of values >= c never exceeds (sample mean) / c.
    rng = stream(14)
    n, beta = 4, 0.25
    q_values = []
    for _ in range(100):
        a = int(rng.integers(2**n))
        q, _l1 = circuit_collision_sample(n, 100, rng, a)
        q_values.append(q)
    q_values = np.array(q_values)
    cut = 2.0**-n / beta**2
    assert np.mean(q_values >= cut) <= np.mean(q_values) / cut + 1e-12


def test_chain_step_needs_two_sites():
    with pytest.raises(InvalidConfigError):
        walk_ensemble(1, 5, 10, stream(13))


def _random_gates(n: int, steps: int, rng: np.random.Generator):
    """Lazy ``(i, j, matrix)`` Haar gates on uniformly random pairs, in the block draw layout.

    Each block of ``PAIR_STEPS`` steps (the last one shorter) draws all its
    pair indices, then all its gates, from ``rng``.
    """
    pair_list = list(itertools.combinations(range(n), 2))
    for start in range(0, steps, PAIR_STEPS):
        block = min(PAIR_STEPS, steps - start)
        picks = rng.integers(len(pair_list), size=block)
        for pick, gate in zip(picks.tolist(), sample_haar_stack(rng, block)):
            yield (*pair_list[pick], gate)


def _check_batched_against_gate_by_gate(n: int, steps: int) -> None:
    circuits = 5
    starts = [(3 * c) % 2**n for c in range(circuits)]
    states = np.array([basis_vector(n, a) for a in starts])
    batched = run_pair_circuits(states, n, steps, [child(60 + n, c) for c in range(circuits)])
    for c, a in enumerate(starts):
        # The same stream gives the same pairs and gates to the one-gate-at-a-time runner.
        gates = list(_random_gates(n, steps, child(60 + n, c)))
        single = run_gates(basis_vector(n, a), n, [g[:2] for g in gates], [g[2] for g in gates])
        np.testing.assert_allclose(batched[c], single, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_batched_circuits_match_per_circuit_runs(n):
    _check_batched_against_gate_by_gate(n, 30)


@pytest.mark.parametrize(
    "steps", [0, 1, PAIR_STEPS - 1, PAIR_STEPS, PAIR_STEPS + 1, 2 * PAIR_STEPS + 3]
)
def test_batched_circuits_match_per_circuit_runs_at_block_edges(steps):
    _check_batched_against_gate_by_gate(5, steps)


def test_collision_statistics_match_gate_by_gate_runs():
    n, steps, circuits = 4, 2 * PAIR_STEPS + 3, 6
    inputs = [(5 * c) % 2**n for c in range(circuits)]
    q, l1 = collision_statistics(n, steps, [child(70, c) for c in range(circuits)], inputs)
    for c, a in enumerate(inputs):
        gates = list(_random_gates(n, steps, child(70, c)))
        amps = run_gates(basis_vector(n, a), n, [g[:2] for g in gates], [g[2] for g in gates])
        assert q[c] == pytest.approx(np.sum(np.abs(amps) ** 4), rel=0, abs=1e-12)
        assert l1[c] == pytest.approx(np.sum(np.abs(amps)), rel=0, abs=1e-12)


def test_rows_sharing_a_stream_draw_block_by_block_in_row_order():
    n, rows = 3, 3
    batched = run_pair_circuits(np.eye(rows, 2**n), n, PAIR_STEPS + 3, [stream(80)] * rows)
    rng = stream(80)
    pair_list = list(itertools.combinations(range(n), 2))
    pairs, gates = [[] for _ in range(rows)], [[] for _ in range(rows)]
    # Block 0 holds steps 0..PAIR_STEPS-1 of every row, block 1 the last 3.
    for block in (PAIR_STEPS, 3):
        for row in range(rows):
            pairs[row] += [pair_list[p] for p in rng.integers(len(pair_list), size=block).tolist()]
            gates[row] += list(sample_haar_stack(rng, block))
    for row in range(rows):
        single = run_gates(basis_vector(n, row), n, pairs[row], gates[row])
        np.testing.assert_allclose(batched[row], single, rtol=0, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 2 * PAIR_STEPS])
@pytest.mark.parametrize("shared", [False, True])
def test_draws_do_not_depend_on_the_row_chunks(monkeypatch, budget, shared):
    n, rows, steps = 3, 5, 2 * PAIR_STEPS + 3

    def streams():
        return [stream(90)] * rows if shared else [child(90, c) for c in range(rows)]

    states = np.eye(rows, 2**n)
    whole = run_pair_circuits(states, n, steps, streams())  # all 5 rows in one chunk
    # A budget of 1 gate runs one row per chunk; 2 * PAIR_STEPS runs chunks of 2, 2 and 1.
    monkeypatch.setattr(circuits, "PAIR_GATE_BUDGET", budget)
    chunked = run_pair_circuits(states, n, steps, streams())
    assert np.array_equal(whole, chunked)


def test_pair_circuit_memory_does_not_grow_with_the_length():
    # 129 rows take two chunks, the first drawing a full budget of gates per block.
    n, rows = 4, PAIR_GATE_BUDGET // PAIR_STEPS + 1
    states = np.eye(rows, 2**n, dtype=complex)
    peaks = []
    for steps in (PAIR_STEPS, 20 * PAIR_STEPS):
        rngs = [child(95, c) for c in range(rows)]
        tracemalloc.start()
        try:
            run_pair_circuits(states, n, steps, rngs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 8 * 1024
    # A gate of the budget takes 256 B of normals plus a few 256 B stacks for its QR and check.
    assert max(peaks) < states.nbytes + PAIR_GATE_BUDGET * 2048


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: walk_ensemble(3, -1, 10, rng),
        lambda rng: run_pair_circuits(np.eye(1, 4), 2, -1, [rng]),
        lambda rng: run_pair_circuits(np.eye(1, 2), 1, 3, [rng]),
        lambda rng: moment_compare(2, 3, 0, rng),
        lambda rng: walk_ensemble(2, 3, 10, rng, start=(1,)),
        lambda rng: walk_ensemble(2, 3, 10, rng, start=(1, 0, 2)),
        lambda rng: walk_ensemble(2, 3, 10, rng, start=(1, 4)),
        lambda rng: walk_ensemble(2, 3, 10, rng, start=(-1, 0)),
        lambda rng: two_copy_chunk(0, rng),
    ],
)
def test_bad_site_and_step_counts_are_refused_before_any_draw(call):
    rng = stream(16)
    with pytest.raises(InvalidConfigError):
        call(rng)
    # An untouched stream still gives its first draw.
    assert rng.random() == stream(16).random()


def test_two_copy_gemm_matches_kron_sum():
    samples = TWO_COPY_BLOCK + 30  # one full block and one partial block
    chunk = two_copy_chunk(samples, stream(15))
    rng = stream(15)
    acc = np.zeros((256, 256))
    for _ in range(samples):
        ad = _transfer_complex(sample_haar_two_qubit(rng).entries)
        assert np.abs(ad.imag).max() <= 1e-12
        acc += np.kron(ad.real, ad.real)
    np.testing.assert_allclose(chunk["acc"], acc, rtol=0, atol=1e-11)


def test_qt_metrics_are_pinned():
    # Values taken when circuits first drew their gates by blocks of PAIR_STEPS steps
    # (numerics version 10); they pin every circuit's draws.
    metrics, failures = run_qt({"n": 4, "t": 64, "trials": 8}, 5)
    assert not failures
    assert metrics["mean_q"] == pytest.approx(0.11815087142071473, rel=1e-12)
    assert metrics["stderr_q"] == pytest.approx(0.004107742308765043, rel=1e-12)
    assert metrics["tail_fraction"] == 0.0 and metrics["bad_l1_fraction"] == 0.0


def _sha16(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


# First 16 hex digits of each array's SHA-256, taken from the per-string
# implementation (tuple strings, one kron chain per string) before the
# base-4 index became the one string layout.
PINNED_ARRAYS = [
    (lambda: sigma_stack(1), "398d43cc9a82be6e"),
    (lambda: sigma_stack(2), "239faf631f8812c9"),
    (lambda: sigma_stack(3), "c91557d74ff47b9b"),
    (lambda: sigma_stack(4), "12086eb5ac0919e9"),
    (lambda: full_transition_matrix(2), "37af8701fd992367"),
    (lambda: full_transition_matrix(3), "66559a85f0325944"),
    (lambda: full_transition_matrix(4), "f80142b4c151de40"),
    (lambda: initial_gamma_squared(1), "88de41a53cd5f9e3"),
    (lambda: initial_gamma_squared(2), "2817d2cfb68cf4e0"),
    (lambda: initial_gamma_squared(3), "b40d441c14a172d2"),
    (lambda: initial_gamma_squared(4), "8ccae5eb2e7b1d25"),
    (two_copy_target, "6803edae257cc40f"),
]


@pytest.mark.parametrize("build, digest", PINNED_ARRAYS)
def test_pauli_chain_arrays_are_pinned_bytewise(build, digest):
    assert _sha16(build()) == digest


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_string_index_inverts_the_digit_table(n):
    digits = _strings(n)
    assert digits.tolist() == [list(s) for s in itertools.product(range(4), repeat=n)]
    np.testing.assert_array_equal(string_index(digits), np.arange(4**n))
    assert string_index(digits).dtype == np.int64


def test_sigma_stack_is_cached_read_only():
    assert sigma_stack(2) is sigma_stack(2)
    with pytest.raises(ValueError):
        sigma_stack(2)[0, 0, 0] = 0.0
