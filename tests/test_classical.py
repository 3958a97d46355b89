import numpy as np

from oraclelab.oracle import build_unitary
from oraclelab.rfs import classical_solver, make_rfs_spec, z_referee


def test_answers_match_over_many_seeds():
    for depth in (1, 2):
        for seed in range(100):
            spec = make_rfs_spec(depth=depth, n_symbol_bits=4, master_seed=seed, alpha_n=2)
            result = classical_solver(spec)
            assert result.answer == spec.b_root
            assert result.queries == len(result.log)


def test_depth_one_query_count_near_label_entropy_for_generic_bits():
    # With generic (random-circuit) rows each leaf bit halves the surviving
    # candidates, so the cost sits near log2|A| + 1.  Linear-structured rows
    # (plain transform compilations) pay more because ascending symbols
    # repeat already-known parities.
    counts = []
    for seed in range(50):
        unitary = build_unitary("random", 4, 60, seed)
        spec = make_rfs_spec(depth=1, n_symbol_bits=4, master_seed=seed, alpha_n=4, unitary=unitary)
        counts.append(classical_solver(spec).queries)
    mean = float(np.mean(counts))
    assert 3.0 <= mean <= 9.0  # log2(16) + 1 = 5 expected


def test_query_counts_grow_with_n_at_fixed_depth():
    means = []
    for n in (4, 6, 8):
        counts = [
            classical_solver(
                make_rfs_spec(depth=2, n_symbol_bits=n, master_seed=seed)
            ).queries
            for seed in range(10)
        ]
        means.append(float(np.mean(counts)))
    assert means[0] < means[1] < means[2]


def test_log_replays_through_referee():
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=17, alpha_n=3)
    result = classical_solver(spec)
    trace = z_referee(spec, result.log)
    assert trace.p1_initial_zero
    assert trace.p2_root_hit_z_one
    assert trace.p3_incremental_consistent
    assert trace.p4_leaf_increment_ok
    # The solver ends by hitting the root, so the potential saturates.
    assert trace.final_z == 1.0
