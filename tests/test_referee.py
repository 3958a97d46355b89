import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from oraclelab.errors import IntegrityError, InvalidConfigError
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
from oraclelab.rfs import referee
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


def test_lower_bound_refuses_a_negative_query_count():
    # Its cap would fall below 1/2.
    with pytest.raises(InvalidConfigError, match="queries"):
        lower_bound(-1, 64.0, 2)


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


@pytest.mark.parametrize("ns", [(0,), (-4,), (1,), (16, 1)])
def test_bound_trend_table_refuses_n_below_two_before_any_row(monkeypatch, ns):
    def refuse(*args):
        raise AssertionError("built a row before checking n")

    monkeypatch.setattr(referee, "lower_bound", refuse)
    with pytest.raises(InvalidConfigError, match="n >= 2"):
        referee.bound_trend_table(ns)


def test_bound_trend_table_takes_n_up_to_where_card_a_stays_a_float(monkeypatch):
    (row,) = referee.bound_trend_table([referee.MAX_TREND_N])
    assert (row["n"], row["log2_card_a"], row["degenerate"]) == (2047, 1023.5, 0)

    def refuse(*args):
        raise AssertionError("built a row before checking n")

    monkeypatch.setattr(referee, "lower_bound", refuse)
    # At n = 2048, |A| = 2^1024 overflows a float.
    for ns in ([2048], [16, 4096]):
        with pytest.raises(InvalidConfigError, match="<= 2047"):
            referee.bound_trend_table(ns)


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


def _reference_trace(spec, log):
    """The potential recomputed from the hit set after every query.

    This is the quadratic definition the frontier counts replace: every z is
    a sorted fold over the hits so far, and the deltas, events, root hit and
    the P2/P4 verdicts are read off those z values.
    """
    n_labels = spec.n_labels
    hits = set()
    per_node = {}
    z = 0.0
    out = {"z": [], "deltas": [], "leaf_deltas": [], "events": [], "root": None}
    for pos, rec in enumerate(log):
        q_before = per_node.get(rec.path, 0)
        if len(rec.path) < spec.depth:
            per_node[rec.path] = q_before + 1
        if rec.result != FAIL:
            if rec.path == () and out["root"] is None:
                out["root"] = pos
            hits.add(rec.path)
        z_new = referee._recompute_z(hits, n_labels)
        delta, z = z_new - z, z_new
        out["z"].append(z)
        out["deltas"].append(delta)
        if len(rec.path) == spec.depth:
            out["leaf_deltas"].append(delta)
        else:
            out["events"].append((pos, len(rec.path), q_before, delta))
    root = out["root"]
    out["p2"] = root is None or all(v == 1.0 for v in out["z"][root:])
    out["p4"] = all(d <= z_weight(n_labels, spec.depth) + 1e-12 for d in out["leaf_deltas"])
    return out


def _ulps(a, b):
    return abs(a - b) / np.spacing(max(abs(a), abs(b), np.finfo(float).tiny))


def hitting_log(spec, n_queries, rng):
    """Random queries that often guess right, so internal and root hits cover earlier hits."""
    log = []
    for _ in range(n_queries):
        depth = int(rng.integers(0, spec.depth + 1))
        if depth == 0 and rng.random() < 0.9:
            depth = spec.depth  # keep the root hit late in most logs
        if log and rng.random() < 0.15:
            path = log[int(rng.integers(len(log)))].path[:depth]  # repeat a prefix
        else:
            path = tuple(int(rng.integers(2**spec.n_symbol_bits)) for _ in range(depth))
        if len(path) == spec.depth:
            oracle_query(spec, path, log=log)
        elif rng.random() < 0.5:
            oracle_query(spec, path, guess=secret_at(spec, path), log=log)
        else:
            oracle_query(spec, path, guess=int(rng.integers(spec.n_labels)), log=log)
    return log


def _referee_logs():
    logs = []
    for depth, n, alpha_n in ((2, 4, 4), (2, 6, 3), (3, 4, None), (3, 3, 2), (4, 3, None)):
        for seed in range(3):
            spec = make_rfs_spec(depth=depth, n_symbol_bits=n, master_seed=seed, alpha_n=alpha_n)
            logs.append((spec, list(classical_solver(spec).log)))
            logs.append((spec, hitting_log(spec, 200, stream(1000 * depth + 10 * n + seed))))
    return logs


_REFEREE_LOGS = _referee_logs()


@pytest.mark.parametrize("case", range(len(_REFEREE_LOGS)))
def test_frontier_counts_match_the_per_prefix_recomputation(case):
    spec, log = _REFEREE_LOGS[case]
    trace = z_referee(spec, log)
    ref = _reference_trace(spec, log)
    assert len(trace.z_values) == len(ref["z"]) == len(log)
    assert max(_ulps(a, b) for a, b in zip(trace.z_values, ref["z"])) <= 4
    scale = np.spacing(max(1.0, max(ref["z"])))
    assert all(abs(a - b) <= 8 * scale for a, b in zip(trace.deltas, ref["deltas"]))
    assert all(abs(a - b) <= 8 * scale for a, b in zip(trace.leaf_deltas, ref["leaf_deltas"]))
    events = [(e.index, e.depth, e.prior_queries_at_node) for e in trace.internal_events]
    assert events == [event[:3] for event in ref["events"]]
    assert all(
        abs(e.delta_z - event[3]) <= 8 * scale for e, event in zip(trace.internal_events, ref["events"])
    )
    assert trace.root_hit_index == ref["root"]
    assert trace.p1_initial_zero
    assert trace.p2_root_hit_z_one == ref["p2"]
    assert trace.p3_incremental_consistent
    assert trace.p4_leaf_increment_ok == ref["p4"]


def test_referee_logs_cover_root_hits_and_covered_descendants():
    roots = 0
    covering = 0
    for spec, log in _REFEREE_LOGS:
        trace = z_referee(spec, log)
        roots += trace.root_hit_index is not None
        covering += any(d < 0 for d in trace.deltas)  # an internal hit absorbed deeper ones
    assert roots >= 15 and covering >= 15


def test_referee_recomputes_the_hit_set_once_per_log(monkeypatch):
    calls = []
    reference = referee._recompute_z

    def counted(hits, n_labels):
        calls.append(len(hits))
        return reference(hits, n_labels)

    monkeypatch.setattr(referee, "_recompute_z", counted)
    for spec, log in _REFEREE_LOGS[:6]:
        calls.clear()
        trace = z_referee(spec, log)
        assert trace.p3_incremental_consistent
        assert len(calls) <= 1


def test_frontier_z_is_exact_where_long_folds_drift():
    # 3000 leaf queries at weight (5/3)^-2: a fold over the hit set drifts
    # about 2e-11 from the count times the weight; P3 must not fire on it.
    spec = make_rfs_spec(depth=2, n_symbol_bits=6, master_seed=3, alpha_n=5)
    rng = stream(5)
    log = []
    for _ in range(3000):
        oracle_query(spec, (int(rng.integers(64)), int(rng.integers(64))), log=log)
    trace = z_referee(spec, log)
    leaves = len({rec.path for rec in log})
    assert trace.final_z == float(leaves * z_weight(spec.n_labels, 2))
    assert trace.p3_incremental_consistent
    oracle_query(spec, (), guess=secret_at(spec, ()), log=log)
    trace = z_referee(spec, log)
    assert trace.final_z == 1.0
    assert trace.p2_root_hit_z_one and trace.p3_incremental_consistent
