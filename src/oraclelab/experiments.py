"""Experiment implementations behind the command-line laboratory.

Every experiment is a pure function of ``(parameters, master_seed)``: all
randomness flows through child streams keyed by the seed and a task index,
and aggregation folds results in task order, so metrics are bit-identical
across runs for a given numpy/BLAS build.  Each experiment returns a metrics
dict plus a list of failed assertions (empty on pass).

Every experiment runs its BLAS and LAPACK calls on one thread: its Haar draws
and small products gain nothing from more.  Only wide work, a fused gate run
on or the unitarity check of at least ``simcore.circuits.WIDE_AMPLITUDES``
amplitudes (from n = 9 up), takes the process's thread count back.  On 2 vCPUs
a second thread cut the n = 8 densify from 0.18 to 0.15 s, but its idle worker
then spun through the work that followed; it cuts the n = 9 densify from 1.17
to 0.82 s.  The metrics do not depend on the count.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import paulichain
from .dispersion import certify_dispersing, pseudo_search
from .errors import InvalidConfigError, SizeError
from .oracle import UNITARIES, build_oracle, build_unitary, identify
from .rfs import (
    bound_trend_table,
    classical_solver,
    find_simulate,
    load_query_log,
    make_rfs_spec,
    z_referee,
)
from .rfs.core import label_bits
from .signs import TWO_OVER_PI, best_phase_signs, brute_force_signs
from .simcore import blas_threads, builtin_group, child, group_fourier

# ``markov --mode stationary`` histograms the walkers over all 4^n strings: 8 MiB at n = 10.
MAX_STATIONARY_N = 10
# ``markov``'s walks hold a few arrays per walker: ten times the 1e5 walkers the criteria use.
MAX_WALKERS = 10**6
# ``signs`` draws d in [1, SIGNS_MAX_D] and checks d <= SIGNS_BRUTE_MAX_D by brute force.
SIGNS_MAX_D = 16
SIGNS_BRUTE_MAX_D = 12


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


@dataclass(frozen=True)
class Kind:
    """The values a key takes: those ``test`` passes (``what`` names them in a refusal), read
    by the run as ``read`` returns them; ``parse`` and ``choices`` make the key's flag."""

    what: str
    test: Callable[[object], bool]
    parse: Callable[[str], object] = int
    read: Callable[[object], object] = lambda value: value
    choices: tuple | None = None


INT = Kind("an int", lambda value: isinstance(value, int) and not isinstance(value, bool))
COUNT = Kind("an int of at least 1", lambda value: INT.test(value) and value >= 1)
REAL = Kind("a real number", lambda value: INT.test(value) or isinstance(value, float), float, float)
BETA = Kind("a real number in (0, 1]", lambda value: REAL.test(value) and 0 < value <= 1, float, float)
INTS = Kind("a nonempty list of ints",
            lambda value: isinstance(value, list) and value != [] and all(map(INT.test, value)), _int_list)
TEXT = Kind("a string", lambda value: isinstance(value, str), str)

# What each parameter key holds and its flag's help; ``mode`` takes the modes in ``READS``.
KEYS = {
    "mode": (None, "what the experiment runs"),
    "n": (INT, "qubit / symbol-bit count"),
    "t": (INT, "circuit length or chain steps"),
    "l": (INT, "recursion depth"),
    "delta": (REAL, "per-level success floor"),
    "beta": (BETA, "dispersion threshold"),
    "samples": (COUNT, "sample count"),
    "trials": (COUNT, "trial / circuit / walker count"),
    "group": (TEXT, "builtin group name (s3, d4, q8)"),
    "unitary": (Kind(f"one of {UNITARIES}", lambda value: value in UNITARIES, str, choices=UNITARIES),
                "unitary to certify or compile"),
    "labels": (COUNT, "number of labels"),
    "alpha_n": (INT, "label bits"),
    "log_file": (TEXT, "classical query log (JSONL)"),
    "n_list": (INTS, "comma list of n values"),
    "t_list": (INTS, "comma list of t values"),
}

# The keys each mode of each experiment reads, with their defaults (None: worked out by the
# run, or none); the first mode is the default, and an experiment without modes has None.
READS = {
    "dispersion": {None: {"n": 8, "t": None, "beta": 1.0, "unitary": "hadamard", "group": None,
                          "samples": 2000}},
    "signs": {None: {"trials": 10000}},
    "oracle": {None: {"n": 8, "t": None, "unitary": "hadamard", "labels": None}},
    "rfs": {
        "simulate": {"l": 2, "n": 4, "alpha_n": None, "delta": 0.2, "trials": 1},
        "separation": {"l": 2, "n_list": [4, 6, 8], "alpha_n": None, "delta": 0.2, "trials": 1},
        "replay-log": {"l": 2, "n": 4, "alpha_n": None, "log_file": None},
        "bound-table": {"n_list": [16, 64, 256]},
    },
    "markov": {
        "gap": {"n_list": [16]},
        "stationary": {"n": 3, "t": 150, "trials": 100000},
        "lumped-vs-full": {"n": 3, "t": 20, "trials": 100000},
        "moments": {"n": 2, "t_list": [5], "trials": 2000},
    },
    "ad2": {None: {"samples": 20000}},
    "qt": {None: {"n": 6, "t": None, "beta": 0.25, "trials": 200}},
}


def checked(experiment: str, params: dict, seed: int) -> dict:
    """Every key the run's mode reads, as given or by default; a key the mode does not read,
    or a value (the seed's too) that fails its key's test, is refused before any work."""
    if experiment not in READS:
        raise InvalidConfigError(f"unknown experiment {experiment!r}")
    if not INT.test(seed):
        raise InvalidConfigError(f"seed must be an int, got {seed!r}")
    modes = READS[experiment]
    mode = None if None in modes else params.get("mode", next(iter(modes)))
    if mode not in tuple(modes):
        raise InvalidConfigError(f"mode must be one of {tuple(modes)}, got {mode!r}")
    values = {"mode": mode, **modes[mode]} if mode else dict(modes[mode])
    for key, value in params.items():
        if key not in values:
            where = f" in mode {mode!r}" if mode else ""
            raise InvalidConfigError(f"{experiment} reads no parameter {key!r}{where}")
        kind = KEYS[key][0]
        if kind and not kind.test(value):
            raise InvalidConfigError(f"{key} must be {kind.what}, got {value!r}")
        values[key] = kind.read(value) if kind else value
    return values


def _length(p: dict) -> int:
    """The circuit length ``t`` a run reads, by default ``4 n^3``."""
    return 4 * p["n"] ** 3 if p["t"] is None else p["t"]


def _build_unitary(p: dict, seed: int):
    return build_unitary(p["unitary"], p["n"], _length(p), seed)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@blas_threads(1)
def run_dispersion(params: dict, seed: int):
    p = checked("dispersion", params, seed)
    n, beta, group = p["n"], p["beta"], p["group"]
    if group:
        fourier = group_fourier(builtin_group(group))
        # pseudo_search holds samples x |G| amplitudes twice, under the circuit states' budget.
        paulichain.check_amplitudes(p["samples"], len(fourier.matrix))
    action = _build_unitary(p, seed)
    report = certify_dispersing(action, beta)
    metrics = {
        "n": n,
        "beta": beta,
        "alpha_achieved": report.alpha_achieved,
        "achieving_count": len(report.achieving_set),
        "min_l1": float(np.min(report.per_label_l1)),
        "max_l1": float(np.max(report.per_label_l1)),
    }
    failures = []
    upper = 2 ** (n / 2) + 1e-9
    if metrics["min_l1"] < 1.0 - 1e-9 or metrics["max_l1"] > upper:
        failures.append("L1 outside [1, 2^(n/2)]")
    if p["unitary"] in ("hadamard", "qft") and beta == 1.0:
        if len(report.achieving_set) != 2**n:
            failures.append("flat-spectrum unitary did not disperse every label")
    if group:
        rows = {}
        for idx, label in enumerate(fourier.block_labels()):
            rep = pseudo_search(fourier, label, p["samples"], child(seed, 1000 + idx))
            key = f"{label[0]}:{label[1]}"
            rows[key] = {
                "mean": rep.mean_value,
                "best": rep.best_value,
                "stderr": rep.standard_error(),
            }
            if rep.mean_value < rep.bound - 3 * rep.standard_error():
                failures.append(f"pseudo-dispersion mean short for {key}")
            if rep.best_value < rep.bound:
                failures.append(f"pseudo-dispersion best short for {key}")
        metrics["pseudo_blocks"] = rows
        metrics["pseudo_bound"] = float(np.sqrt(len(fourier.matrix) / 2.0))
    return metrics, failures


@blas_threads(1)
def run_signs(params: dict, seed: int):
    trials = checked("signs", params, seed)["trials"]
    rng = child(seed, 0)
    min_ratio = 1.0
    violations = 0
    brute_gap_max = 0.0
    for _k in range(trials):
        d = int(rng.integers(1, SIGNS_MAX_D + 1))
        scale = 10.0 ** rng.uniform(-6, 6)
        x = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        sol = best_phase_signs(x)
        min_ratio = min(min_ratio, sol.ratio)
        if sol.value < TWO_OVER_PI * sol.l1 - 1e-12 * sol.l1:
            violations += 1
        if d <= SIGNS_BRUTE_MAX_D:
            _theta, best = brute_force_signs(x)
            if sol.value > best + 1e-12 * sol.l1:
                violations += 1
            brute_gap_max = max(brute_gap_max, (best - sol.value) / sol.l1)
    metrics = {
        "trials": trials,
        "min_ratio": min_ratio,
        "violations": violations,
        "brute_gap_max": brute_gap_max,
    }
    failures = ["sign bound violated"] if violations else []
    return metrics, failures


@blas_threads(1)
def run_oracle(params: dict, seed: int):
    p = checked("oracle", params, seed)
    n = p["n"]
    labels = 2**n if p["labels"] is None else p["labels"]
    if labels > 2**n:
        raise InvalidConfigError(f"labels must be at most 2^n = {2**n}, got {labels}")
    action = _build_unitary(p, seed)
    oracle = build_oracle(action, range(labels))
    successes = identify(oracle, np.arange(oracle.n_labels))
    margins = successes - oracle.predicted_success
    metrics = {
        "n": n,
        "labels": oracle.n_labels,
        "min_success": float(successes.min()),
        "min_margin": float(margins.min()),
        "min_beta": float(oracle.betas.min()),
    }
    failures = []
    if metrics["min_margin"] < -1e-9:
        failures.append("measured success fell below the compiled guarantee")
    if p["unitary"] == "hadamard" and abs(metrics["min_success"] - 1.0) > 1e-9:
        failures.append("flat real rows should identify exactly")
    return metrics, failures


@blas_threads(1)
def run_rfs(params: dict, seed: int):
    p = checked("rfs", params, seed)
    mode = p["mode"]
    if mode == "bound-table":
        rows = bound_trend_table(p["n_list"])
        metrics = {"table": rows}
        failures = []
        bounds = [r["bound"] for r in rows]
        if bounds != sorted(bounds, reverse=True):
            failures.append("success cap not falling toward 1/2")
        return metrics, failures

    depth, alpha_n = p["l"], p["alpha_n"]

    if mode == "replay-log":
        # The log is refereed on the instance these parameters name: trial 0 of simulate.
        if p["log_file"] is None:
            raise InvalidConfigError("rfs replay-log needs log_file")
        log = load_query_log(p["log_file"])
        trace = z_referee(make_rfs_spec(depth, p["n"], seed, alpha_n=alpha_n), log)
        metrics = {
            "queries": len(log),
            "final_z": trace.final_z,
            "p1": int(trace.p1_initial_zero),
            "p2": int(trace.p2_root_hit_z_one),
            "p3": int(trace.p3_incremental_consistent),
            "p4": int(trace.p4_leaf_increment_ok),
        }
        failed = [key for key in ("p1", "p2", "p3", "p4") if not metrics[key]]
        return metrics, [f"{key} violated" for key in failed]

    delta, trials = p["delta"], p["trials"]

    def trial_specs(n_k: int):
        """One compiled family per size; trial ``k`` reseeds it to ``seed + k``."""
        base = make_rfs_spec(depth, n_k, seed, alpha_n=alpha_n)
        return [replace(base, master_seed=seed + trial) for trial in range(trials)]

    if mode == "separation":
        n_list = p["n_list"]
        # The classical cost must rise strictly along n_list, so the label count must too.
        bits = [label_bits(n_k, alpha_n) for n_k in n_list]
        for (n_a, a), (n_b, b) in itertools.pairwise(zip(n_list, bits)):
            if b <= a:
                raise InvalidConfigError(
                    f"n = {n_a} and n = {n_b} give 2^{a} and 2^{b} labels; separation "
                    "needs the label count to rise along n_list"
                )
        rows = []
        for n_k in n_list:
            specs = trial_specs(n_k)
            find = find_simulate(specs[0], delta)
            rows.append(
                {
                    "n": n_k,
                    "classical_queries_mean": float(
                        np.mean([classical_solver(spec).queries for spec in specs])
                    ),
                    "find_q0": find.queries_total,
                }
            )
        metrics = {"delta": delta, "l": depth, "table": rows}
        failures = []
        means = [r["classical_queries_mean"] for r in rows]
        if any(b <= a for a, b in zip(means, means[1:])):
            failures.append("classical cost not strictly increasing in n")
        if len({r["find_q0"] for r in rows}) != 1:
            failures.append("quantum query count varies with n")
        return metrics, failures

    n = p["n"]
    specs = trial_specs(n)

    def one_trial(spec):
        find = find_simulate(spec, delta)
        classical = classical_solver(spec)
        trace = z_referee(spec, classical.log)
        return {
            "find_answer_correct": find.answer == spec.b_root,
            "bounds_hold": find.bounds_hold,
            "q0": find.queries_total,
            "q0_closed": find.queries_closed_form,
            "m": find.m,
            "epsilon": find.epsilon,
            "classical_answer_correct": classical.answer == spec.b_root,
            "classical_queries": classical.queries,
            "referee_ok": trace.p1_initial_zero
            and trace.p2_root_hit_z_one
            and trace.p3_incremental_consistent
            and trace.p4_leaf_increment_ok,
        }

    results = [one_trial(spec) for spec in specs]
    metrics = {
        "l": depth,
        "n": n,
        "delta": delta,
        "trials": trials,
        "m": results[0]["m"],
        "epsilon": results[0]["epsilon"],
        "q0": results[0]["q0"],
        "q0_closed_form": results[0]["q0_closed"],
        "find_correct": sum(r["find_answer_correct"] for r in results),
        "classical_correct": sum(r["classical_answer_correct"] for r in results),
        "classical_queries_mean": float(
            np.mean([r["classical_queries"] for r in results])
        ),
        "referee_ok": sum(r["referee_ok"] for r in results),
    }
    failures = []
    if metrics["find_correct"] != trials:
        failures.append("recursive run missed the answer bit")
    if metrics["classical_correct"] != trials:
        failures.append("classical baseline missed the answer bit")
    if metrics["referee_ok"] != trials:
        failures.append("potential referee verdicts failed")
    if not all(r["bounds_hold"] for r in results):
        failures.append("error propagation bound violated")
    if metrics["q0"] != metrics["q0_closed_form"]:
        failures.append("query recurrence disagrees with closed form")
    return metrics, failures


@blas_threads(1)
def run_markov(params: dict, seed: int):
    p = checked("markov", params, seed)
    mode = p["mode"]
    failures: list[str] = []
    if mode == "gap":
        rows = paulichain.gap_table(p["n_list"])
        metrics = {"table": rows}
        if any(r["gap"] <= 0 for r in rows):
            failures.append("nonpositive spectral gap")
        for r in rows:
            chain = paulichain.lumped_matrix(r["n"])
            pi = chain.stationary
            db = np.abs(
                pi[:, None] * chain.transition - (pi[:, None] * chain.transition).T
            ).max()
            metrics[f"detailed_balance_{r['n']}"] = float(db)
            if db > 1e-12:
                failures.append(f"detailed balance violated at n={r['n']}")
        return metrics, failures
    if mode in ("stationary", "lumped-vs-full") and p["trials"] > MAX_WALKERS:
        raise SizeError(f"walks capped at {MAX_WALKERS} walkers, got {p['trials']}")
    if mode == "stationary":
        n, steps, walkers = p["n"], p["t"], p["trials"]
        if n > MAX_STATIONARY_N:
            raise SizeError(f"stationary histogram capped at n={MAX_STATIONARY_N}")
        codes = paulichain.walk_ensemble(n, steps, walkers, child(seed, 0))
        hist = np.bincount(paulichain.string_index(codes), minlength=4**n).astype(float)
        dist = hist / hist.sum()
        nonzero = 4**n - 1
        tv = 0.5 * float(np.sum(np.abs(dist[1:] - 1.0 / nonzero))) + 0.5 * dist[0]
        # Twice the expected sampling TV of a flat law over K cells; at
        # n = 3 with 1e5 walkers this is the canonical 0.02 cap.
        cap = float(np.sqrt(2 * nonzero / (np.pi * walkers)))
        metrics = {"n": n, "t": steps, "walkers": walkers, "tv_from_uniform": tv}
        if tv > cap:
            failures.append("walker ensemble far from the flat law")
        return metrics, failures
    if mode == "lumped-vs-full":
        n, steps, walkers = p["n"], p["t"], p["trials"]
        chain = paulichain.lumped_matrix(n)
        codes = paulichain.walk_ensemble(n, steps, walkers, child(seed, 0))
        weights = (codes != 0).sum(axis=1)
        emp = np.bincount(weights, minlength=n + 1)[1:].astype(float)
        emp /= emp.sum()
        dist = np.zeros(n)
        dist[0] = 1.0
        for _ in range(steps):
            dist = dist @ chain.transition
        tv = 0.5 * float(np.sum(np.abs(emp - dist)))
        # Three standard errors per weight cell of the chain's law, halved as TV
        # halves; 0.0064 at n = 3, t = 20 with 1e5 walkers, the canonical size.
        cap = 1.5 * float(np.sum(np.sqrt(dist * (1.0 - dist) / walkers)))
        metrics = {"n": n, "t": steps, "walkers": walkers, "tv_lumped_vs_full": tv}
        if tv > cap:
            failures.append("lumped and full chains disagree")
        return metrics, failures
    # mode == "moments"
    n, circuits, t_list = p["n"], p["trials"], p["t_list"]
    if not all(0 <= t <= paulichain.MAX_MOMENT_STEPS for t in t_list):
        raise InvalidConfigError(f"every t must lie in [0, {paulichain.MAX_MOMENT_STEPS}], got {t_list}")
    if n > paulichain.MAX_FULL_CHAIN_N:
        raise SizeError(f"moment comparison capped at n={paulichain.MAX_FULL_CHAIN_N}")
    paulichain.check_amplitudes(circuits, 2**n)
    tvs = {}
    for idx, t in enumerate(t_list):
        res = paulichain.moment_compare(n, t, circuits, child(seed, idx))
        tvs[f"tv_t{t}"] = res["tv_distance"]
        if res["tv_distance"] > res["tv_cap"]:
            failures.append(f"moment mismatch at t={t}")
    metrics = {"n": n, "circuits": circuits, **tvs}
    return metrics, failures


@blas_threads(1)
def run_ad2(params: dict, seed: int):
    samples = checked("ad2", params, seed)["samples"]
    metrics = paulichain.two_copy_finalize(paulichain.two_copy_chunk(samples, child(seed, 0)))
    failures = []
    if metrics["max_orthogonality_defect"] > 1e-10:
        failures.append("sampled transfer matrix not orthogonal")
    # The distances concentrate at sqrt(14/N) over the moment rows and at
    # sqrt(254/N) over the full matrix.  The moment-row cap, twice that, sits
    # just above the 0.05 criterion at 2e4 samples; the full cap is criterion
    # 09's, and catches Haar draws without the QR phase fix that pass the rows.
    if metrics["frobenius_distance_moment_rows"] > 2.0 * float(np.sqrt(14.0 / samples)):
        failures.append("two-copy average far from its projector")
    if metrics["frobenius_distance_full"] > 1.5 * float(np.sqrt(254.0 / samples)):
        failures.append("full two-copy average far from its sampling floor")
    return metrics, failures


@blas_threads(1)
def run_qt(params: dict, seed: int):
    p = checked("qt", params, seed)
    n, circuits, beta = p["n"], p["trials"], p["beta"]
    steps = _length(p)
    if n > paulichain.MAX_COLLISION_N:
        raise SizeError(f"collision statistics capped at n={paulichain.MAX_COLLISION_N}")
    # The standard error of the collision mean needs two circuits.
    if n < 2 or steps < 0 or circuits < 2:
        raise InvalidConfigError(f"qt needs n >= 2, t >= 0 and trials >= 2, got {n}, {steps}, {circuits}")
    paulichain.check_amplitudes(circuits, 2**n)

    # Each trial is an independent (circuit, input label) pair on its own stream.
    rngs = [child(seed, k) for k in range(circuits)]
    inputs = [int(rng.integers(2**n)) for rng in rngs]
    q_values, l1_values = paulichain.collision_statistics(n, steps, rngs, inputs)
    mean_q = float(np.mean(q_values))
    stderr_q = float(np.std(q_values, ddof=1) / np.sqrt(circuits))
    tail_cut = 2.0**-n / beta**2
    tail_fraction = float(np.mean(q_values >= tail_cut))
    markov_cap = mean_q / tail_cut
    bad_l1 = float(np.mean(l1_values < beta * 2 ** (n / 2)))
    metrics = {
        "n": n,
        "t": steps,
        "circuits": circuits,
        "beta": beta,
        "mean_q": mean_q,
        "stderr_q": stderr_q,
        "tail_cut": tail_cut,
        "tail_fraction": tail_fraction,
        "markov_cap": markov_cap,
        "bad_l1_fraction": bad_l1,
    }
    failures = []
    if mean_q > 2.2 * 2.0**-n:
        failures.append("collision mean above its cap")
    if tail_fraction > markov_cap + 1e-12:
        failures.append("tail fraction violates the first-moment inequality")
    if bad_l1 > 2 * beta**2 + 3 * np.sqrt(2 * beta**2 / circuits) + 1e-12:
        failures.append("non-dispersing fraction above its cap")
    return metrics, failures


# Each experiment runs as ``run_<name>``, the name its callers look it up by.
EXPERIMENTS = {name: globals()[f"run_{name}"] for name in READS}
