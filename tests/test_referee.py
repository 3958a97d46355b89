import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from oraclelab.errors import IntegrityError
from oraclelab.rfs import (
    FAIL,
    QueryRecord,
    classical_solver,
    lower_bound,
    make_rfs_spec,
    oracle_query,
    secret_at,
    z_referee,
    z_weight,
)
from oraclelab.simcore import stream


def test_empty_log_gives_zero():
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=1, alpha_n=4)
    trace = z_referee(spec, [])
    assert trace.final_z == 0.0
    assert trace.p1_initial_zero


def test_single_root_hit():
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=2, alpha_n=4)
    log = []
    oracle_query(spec, (), guess=secret_at(spec, ()), log=log)
    trace = z_referee(spec, log)
    assert trace.final_z == 1.0
    assert trace.root_hit_index == 0
    assert trace.p2_root_hit_z_one


def test_leaf_weight_example():
    # depth 2 with 64 labels: (log2(64)/3)^-2 = 2^-2.
    assert z_weight(64, 2) == 0.25
    spec = make_rfs_spec(depth=2, n_symbol_bits=6, master_seed=3, alpha_n=6)
    log = []
    oracle_query(spec, (0, 0), log=log)
    trace = z_referee(spec, log)
    assert trace.leaf_deltas[0] == 0.25


def test_hit_parent_absorbs_descendants():
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=4, alpha_n=4)
    log = []
    oracle_query(spec, (0, 0), log=log)  # leaf under child 0
    oracle_query(spec, (0,), guess=secret_at(spec, (0,)), log=log)  # hit child 0
    trace = z_referee(spec, log)
    w_leaf = z_weight(16, 2)
    w_mid = z_weight(16, 1)
    assert abs(trace.z_values[0] - w_leaf) <= 1e-15
    assert abs(trace.z_values[1] - w_mid) <= 1e-15  # leaf term absorbed
    # Re-querying a hit node adds nothing.
    oracle_query(spec, (0,), guess=secret_at(spec, (0,)), log=log)
    trace = z_referee(spec, log)
    assert trace.deltas[2] == 0.0


def test_wrong_guesses_add_nothing():
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=5, alpha_n=4)
    log = []
    wrong = (secret_at(spec, (3,)) + 1) % spec.n_labels
    oracle_query(spec, (3,), guess=wrong, log=log)
    trace = z_referee(spec, log)
    assert trace.final_z == 0.0
    assert trace.internal_events[0].delta_z == 0.0
    assert trace.internal_events[0].prior_queries_at_node == 0


def test_tampered_log_rejected():
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=6, alpha_n=4)
    log = []
    oracle_query(spec, (1, 1), log=log)
    tampered = [QueryRecord(rec.path, rec.guess, 1 - rec.result, rec.index) for rec in log]
    with pytest.raises(IntegrityError):
        z_referee(spec, tampered)
    with pytest.raises(IntegrityError):
        z_referee(spec, [QueryRecord((0, 0, 0, 0), None, 0, 0)])


def random_strategy_log(spec, n_queries, rng):
    log = []
    for _ in range(n_queries):
        depth = int(rng.integers(0, spec.depth + 1))
        path = tuple(int(rng.integers(2**spec.n_symbol_bits)) for _ in range(depth))
        if depth == spec.depth:
            oracle_query(spec, path, log=log)
        else:
            oracle_query(spec, path, guess=int(rng.integers(spec.n_labels)), log=log)
    return log


def test_random_strategy_statistics():
    # P1-P4 exact on every run; internal-node gains bounded on average by
    # the per-event cap 2/(|A|^(1/3) - q).
    rng = stream(99)
    gains = []
    bounds = []
    for seed in range(500):
        spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=seed, alpha_n=4)
        log = random_strategy_log(spec, 20, rng)
        trace = z_referee(spec, log)
        assert trace.p1_initial_zero
        assert trace.p2_root_hit_z_one
        assert trace.p3_incremental_consistent
        assert trace.p4_leaf_increment_ok
        for event in trace.internal_events:
            if np.isfinite(event.bound):
                gains.append(event.delta_z)
                bounds.append(event.bound)
    gains = np.array(gains)
    bounds = np.array(bounds)
    assert len(gains) >= 1000
    sigma = float(np.std(gains, ddof=1) / np.sqrt(len(gains)))
    assert float(np.mean(gains)) <= float(np.mean(bounds)) + 3 * sigma


def test_lower_bound_values():
    assert lower_bound(0, 2**30, 5).value == 0.5
    value = lower_bound(10, 2**30, 5).value
    assert abs(value - 0.5098619) <= 1e-5
    degenerate = lower_bound(2000, 2**30, 5)
    assert degenerate.degenerate and degenerate.value == 1.0


def test_lower_bound_tree_term_dominates_at_shallow_depth():
    value = lower_bound(5, 2**30, 2).value
    expected = 0.5 + max(5 / (2**10 - 5), 5 * (30 / 3) ** -2)
    assert abs(value - expected) <= 1e-12
    assert abs(value - 0.55) <= 1e-12  # the tree term wins here


def test_lower_bound_clamps_at_one():
    assert lower_bound(2, 2**6, 1).value == 1.0
    assert not lower_bound(2, 2**6, 1).degenerate


def test_bound_trend_table_falls_to_half():
    from oraclelab.rfs import bound_trend_table

    rows = bound_trend_table((16, 64, 256))
    assert [r["n"] for r in rows] == [16, 64, 256]
    bounds = [r["bound"] for r in rows]
    assert bounds == sorted(bounds, reverse=True)
    assert abs(bounds[-1] - 0.5) <= 1e-7  # quasi-polynomial budgets buy nothing
    # Label bits and depth follow the scaling regime.
    assert rows[-1]["log2_card_a"] == 128.0 and rows[-1]["l"] == 8


def test_referee_rejects_records_the_oracle_cannot_produce():
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=6, alpha_n=4)
    valid = []
    oracle_query(spec, (1, 1), log=valid)
    wrapped = spec.oracle.f(secret_at(spec, (0,)), 2**spec.n_symbol_bits - 1)
    bad_records = [
        QueryRecord((0, -1), None, wrapped, 1),  # -1 must not wrap to the last column
        QueryRecord((1, 2), 0, spec.oracle.f(secret_at(spec, (1,)), 2), 1),  # leaf with a guess
        QueryRecord((3,), 999, FAIL, 1),  # guess beyond the 16 labels
    ]
    for bad in bad_records:
        with pytest.raises(IntegrityError, match="log entry 1"):
            z_referee(spec, valid + [bad])


def test_referee_trace_is_pinned():
    # Taken while the referee restated the oracle's semantics itself.
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=21, alpha_n=3)
    trace = z_referee(spec, classical_solver(spec).log)
    digest = hashlib.sha256(json.dumps(asdict(trace), sort_keys=True).encode()).hexdigest()
    assert digest == "90b882f02e49949c7a5936d8d4197bee8c7051497fd95e93ce95e1f9e67c6f36"
