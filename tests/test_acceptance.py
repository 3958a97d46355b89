"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the emitted tables.
"""

import io
import math
import time

import numpy as np

from oraclelab.dispersion import certify_dispersing, pseudo_search
from oraclelab.experiments import run_qt
from oraclelab.oracle import build_oracle, identify
from oraclelab.paulichain import (
    exact_gap,
    gap_table,
    lumped_matrix,
    moment_compare,
    two_copy_chunk,
    two_copy_finalize,
    walk_ensemble,
)
from oraclelab.rfs import (
    find_coherent_tiny,
    find_simulate,
    make_rfs_spec,
    classical_solver,
    lower_bound,
    oracle_query,
    repetition_count,
    z_referee,
)
from oraclelab.signs import best_phase_signs, brute_force_signs
from oraclelab.simcore import (
    builtin_group,
    child,
    densify,
    group_fourier,
    hadamard_all,
    qft_cyclic,
    run_random_circuit,
    stream,
)

TWO_OVER_PI = 2.0 / np.pi


def check(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_hadamard_dispersion():
    started = time.perf_counter()
    action = hadamard_all(8)
    values = certify_dispersing(action, 1.0).per_label_l1
    elapsed = time.perf_counter() - started
    worst = float(np.abs(values - 16.0).max())
    check(1, worst <= 1e-9 and elapsed < 1.0, f"max |L1-16| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_sign_inequality_and_sandwich():
    started = time.perf_counter()
    rng = stream(202)
    worst_ratio = 1.0
    sandwich_gap = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 17))
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        sol = best_phase_signs(x)
        assert sol.value >= TWO_OVER_PI * sol.l1 - 1e-12 * sol.l1
        worst_ratio = min(worst_ratio, sol.ratio)
        if d <= 12:
            _theta, best = brute_force_signs(x)
            assert sol.value <= best + 1e-12
            sandwich_gap = max(sandwich_gap, sol.value - best)
    elapsed = time.perf_counter() - started
    check(
        2,
        worst_ratio >= TWO_OVER_PI - 1e-12 and elapsed < 30.0,
        f"worst ratio {worst_ratio:.6f} >= 2/pi, sandwich slack {sandwich_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_flat_transform_identifies_exactly():
    worst = 1.0
    for n in range(1, 11):
        action = hadamard_all(n)
        oracle = build_oracle(action, range(2**n))
        for a in range(2**n):
            worst = min(worst, identify(oracle, a))
    check(3, abs(worst - 1.0) <= 1e-9, f"min success over n<=10: {worst:.12f}")


def test_criterion_04_compiled_success_bound():
    fourier = qft_cyclic(256)
    labels = [(f"chi{j}", 1) for j in range(256)]
    oracle = build_oracle(fourier, labels)
    floor = (2.0 / np.pi) ** 2
    qft_min = min(
        identify(oracle, k) for k in range(oracle.n_labels)
    )
    ok_qft = qft_min >= floor - 1e-9

    n, t = 6, 4 * 6**3
    worst_margin = np.inf
    for seed in range(20):
        circ = run_random_circuit(n, t, seed=seed)
        action = densify(circ)
        compiled = build_oracle(action, range(2**n))
        for k in range(compiled.n_labels):
            measured = identify(compiled, k)
            worst_margin = min(worst_margin, measured - compiled.predicted_success[k])
    ok_random = worst_margin >= -1e-9
    check(
        4,
        ok_qft and ok_random,
        f"qft min success {qft_min:.6f} (floor {floor - 1e-9:.6f}); "
        f"random-circuit worst margin {worst_margin:.2e}",
    )


def test_criterion_05_block_search_statistics():
    failures = []
    details = []
    for name in ("s3", "d4", "q8"):
        group = builtin_group(name)
        fourier = group_fourier(group)
        bound = math.sqrt(group.order / 2.0)
        for idx, label in enumerate(fourier.block_labels()):
            report = pseudo_search(fourier, label, samples=2000, rng=child(500, idx))
            mean_ok = report.mean_value >= bound - 3 * report.standard_error()
            best_ok = report.best_value >= bound
            if not (mean_ok and best_ok):
                failures.append((name, label))
            details.append(f"{name}/{label[0]}:{label[1]} mean={report.mean_value:.3f}")
    check(5, not failures, f"bound sqrt(|G|/2) met on every block; {details[-1]}")


def test_criterion_06_collision_pipeline():
    metrics, _failures = run_qt({"n": 6, "t": 4 * 6**3, "trials": 200, "beta": 0.25}, 606)
    mean_cap = 2.2 * 2.0**-6
    ok = metrics["mean_q"] <= mean_cap and metrics["tail_fraction"] <= 0.125 + 0.05
    check(
        6,
        ok,
        f"mean Q = {metrics['mean_q']:.5f} <= {mean_cap:.5f}; "
        f"tail fraction {metrics['tail_fraction']:.3f} <= 0.175",
    )


def test_criterion_07_walk_stationarity():
    started = time.perf_counter()
    codes = walk_ensemble(3, 150, 100_000, stream(707))
    values = np.zeros(len(codes), dtype=np.int64)
    for site in range(3):
        values = values * 4 + codes[:, site]
    hist = np.bincount(values, minlength=64).astype(float)
    dist = hist / hist.sum()
    tv = 0.5 * float(np.abs(dist[1:] - 1 / 63).sum()) + 0.5 * dist[0]
    elapsed = time.perf_counter() - started
    check(7, tv <= 0.02 and elapsed < 60.0, f"TV from flat law = {tv:.4f}, {elapsed:.1f}s")


def test_criterion_08_weight_chain_spectra():
    gaps = {n: exact_gap(n) for n in range(2, 65)}
    ok_positive = all(g > 0 for g in gaps.values())
    ok_two = gaps[2] == 1.0
    worst_db = 0.0
    for n in range(2, 65):
        chain = lumped_matrix(n)
        flow = chain.stationary[:, None] * chain.transition
        worst_db = max(worst_db, float(np.abs(flow - flow.T).max()))
    rows = gap_table([4, 8, 16, 32, 64])
    table = io.StringIO()
    table.write("n,gap,gap_n,gap_n2\n")
    for r in rows:
        table.write(f"{r['n']},{r['gap']:.6g},{r['gap_n']:.6g},{r['gap_n2']:.6g}\n")
    print(table.getvalue())
    check(
        8,
        ok_positive and ok_two and worst_db <= 1e-12,
        f"gap(2)={gaps[2]}, all gaps positive to n=64, detailed balance {worst_db:.1e}",
    )


def test_criterion_09_two_copy_average():
    result = two_copy_finalize(two_copy_chunk(20_000, stream(909)))
    ok_orth = result["max_orthogonality_defect"] <= 1e-10
    ok_rows = result["frobenius_distance_moment_rows"] <= 0.05
    # The full-matrix distance concentrates at sqrt(254/N) by construction;
    # verify the projector claim at that scale.
    expected_full = math.sqrt(254 / 20_000)
    ok_full = result["frobenius_distance_full"] <= 1.5 * expected_full
    check(
        9,
        ok_orth and ok_rows and ok_full,
        f"moment-row distance {result['frobenius_distance_moment_rows']:.4f} <= 0.05; "
        f"full distance {result['frobenius_distance_full']:.4f} "
        f"(sampling floor {expected_full:.4f}); orthogonality {result['max_orthogonality_defect']:.1e}",
    )


def test_criterion_10_moment_matching():
    tvs = {}
    for idx, t in enumerate((1, 5, 10)):
        res = moment_compare(2, t, circuits=2000, rng=child(1010, idx))
        tvs[t] = res["tv_distance"]
    ok = all(v <= 0.03 for v in tvs.values())
    check(10, ok, "TV at t=1,5,10: " + ", ".join(f"{tvs[t]:.4f}" for t in (1, 5, 10)))


def test_criterion_11_recursion_accounting():
    delta = 0.2
    m = repetition_count(delta)
    epsilon_ok = math.isclose((delta / 8) ** 2, 6.25e-4, rel_tol=1e-12)
    correct = 0
    floors_ok = True
    failure_ok = True
    q0 = None
    for seed in range(50):
        spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=seed, alpha_n=2)
        report = find_simulate(spec, delta=delta)
        q0 = report.queries_total
        correct += report.answer == spec.b_root
        floors_ok &= all(lv.copy_success_min >= delta / 2 for lv in report.levels)
        failure_ok &= report.final_failure_sq <= report.epsilon
    ok = epsilon_ok and m == 74 and q0 == 22052 and correct == 50 and floors_ok and failure_ok
    check(
        11,
        ok,
        f"m={m}, Q(0)={q0}, answers correct {correct}/50, "
        f"floors>=delta/2: {floors_ok}, failure<=eps: {failure_ok}",
    )


def test_criterion_12_coherent_cross_check():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=42, alpha_n=2)
    worst = 0.0
    cases = [({}, 0)]
    for eps in (0.05, 0.1, 0.2):
        for x in range(4):
            cases.append(({(x,): eps}, x))
    for idx, (inject, _x) in enumerate(cases):
        coherent = find_coherent_tiny(spec, m_override=1, inject=inject)
        model = find_simulate(
            spec,
            delta=0.2,
            m_override=1,
            inject=inject,
            junk_draws=100,
            rng=child(1212, idx),
        )
        worst = max(worst, abs(coherent.success_prob - model.sampled["success_mean"]))
    shallow = make_rfs_spec(depth=1, n_symbol_bits=2, master_seed=7, alpha_n=2)
    coherent = find_coherent_tiny(shallow, m_override=1)
    model = find_simulate(
        shallow, delta=0.2, m_override=1, junk_draws=100, rng=child(1212, 99),
    )
    worst = max(worst, abs(coherent.success_prob - model.sampled["success_mean"]))
    check(12, worst <= 0.05, f"worst |coherent - sampled model| = {worst:.4f} <= 0.05")


def test_criterion_13_potential_referee():
    rng = stream(1313)
    gains = []
    bounds = []
    exact_ok = True
    for seed in range(500):
        spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=seed, alpha_n=4)
        log = []
        for _ in range(20):
            depth = int(rng.integers(0, 3))
            path = tuple(int(rng.integers(16)) for _ in range(depth))
            if depth == 2:
                oracle_query(spec, path, log=log)
            else:
                oracle_query(spec, path, guess=int(rng.integers(16)), log=log)
        trace = z_referee(spec, log)
        exact_ok &= (
            trace.p1_initial_zero
            and trace.p2_root_hit_z_one
            and trace.p3_incremental_consistent
            and trace.p4_leaf_increment_ok
        )
        for event in trace.internal_events:
            if np.isfinite(event.bound):
                gains.append(event.delta_z)
                bounds.append(event.bound)
    gains_arr = np.array(gains)
    sigma = float(np.std(gains_arr, ddof=1) / np.sqrt(len(gains_arr)))
    p5_ok = float(np.mean(gains_arr)) <= float(np.mean(bounds)) + 3 * sigma
    lb = lower_bound(10, 2**30, 5).value
    lb_ok = abs(lb - 0.50986) <= 1e-5
    check(
        13,
        exact_ok and p5_ok and lb_ok,
        f"P1-P4 exact on 500 runs; mean gain {np.mean(gains_arr):.5f} <= "
        f"{np.mean(bounds):.3f} + 3s; bound(10, 2^30, 5) = {lb:.5f}",
    )


def test_criterion_14_separation_table():
    delta = 0.2
    rows = []
    for n in (4, 6, 8):
        counts = [
            classical_solver(
                make_rfs_spec(depth=2, n_symbol_bits=n, master_seed=seed)
            ).queries
            for seed in range(10)
        ]
        spec = make_rfs_spec(depth=2, n_symbol_bits=n, master_seed=0)
        report = find_simulate(spec, delta=delta)
        rows.append((n, float(np.mean(counts)), report.queries_total))
    table = io.StringIO()
    table.write("n,classical_queries_mean,find_q0\n")
    for n, classical, q0 in rows:
        table.write(f"{n},{classical},{q0}\n")
    print(table.getvalue())
    increasing = rows[0][1] < rows[1][1] < rows[2][1]
    constant = len({q0 for _n, _c, q0 in rows}) == 1
    check(
        14,
        increasing and constant,
        f"classical means {[r[1] for r in rows]} strictly increasing; Q(0) constant {rows[0][2]}",
    )
