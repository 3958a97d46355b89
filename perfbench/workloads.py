"""The three workloads: their inputs, made from a seed, and their checks.

Each workload is a list of operations.  An operation is one call of an
``oraclelab.experiments`` entry point with generated parameters and a seed.
It fails when the call raises, when the experiment reports a failed
run-level assertion, or when a check below disagrees with an independent
computation from :mod:`reference`.  Sizes are in ``SIZES``; ``tiny`` sizes
serve the self-test only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oraclelab.experiments  # noqa: F401  (set-up cost: the whole lab is imported here)
import reference as ref

SIZES = {
    False: {
        "single-level": {"n": 8, "beta": 0.8, "check_labels": 4},
        "circuit-sampling": {"n": 6, "qt_trials": 40, "ad2_samples": 4000},
        "recursion": {"l2_n": 8, "l3_n": 4, "trials": 40, "sep_trials": 10,
                      "sep_n": [4, 6, 8], "disp_n": 12, "oracle_n": 10},
    },
    True: {
        "single-level": {"n": 4, "beta": 0.5, "check_labels": 2},
        "circuit-sampling": {"n": 4, "qt_trials": 8, "ad2_samples": 200},
        "recursion": {"l2_n": 4, "l3_n": 2, "trials": 2, "sep_trials": 2,
                      "sep_n": [4, 6, 8], "disp_n": 6, "oracle_n": 5},
    },
}

DELTA = 0.2
# Pinned by the lab at l = 2, delta = 0.2; the checks also recompute them.
PINNED_M = 74
PINNED_Q0_L2 = 22052
SIGN_CHUNK = 64


@dataclass(frozen=True)
class Op:
    """One experiment call plus the check of its outputs."""

    name: str
    experiment: str
    params: dict
    seed: int
    check: object = field(repr=False)  # (metrics, calls) -> list of problems


def _calls(calls, name):
    return [(args, result) for fn, args, result in calls if fn == name]


def _sign_problems(f_bits, row_fn, n_rows) -> list[str]:
    """Every compiled row keeps 2/pi of its L1 mass, checked in chunks of rows."""
    short = 0
    for start in range(0, n_rows, SIGN_CHUNK):
        rows = range(start, min(n_rows, start + SIGN_CHUNK))
        short += ref.sign_shortfalls(f_bits[start:start + len(rows)], row_fn(rows))
    return [f"{short} compiled rows keep less than 2/pi of their L1 mass"] if short else []


# ---------------------------------------------------------------------------
# single-level
# ---------------------------------------------------------------------------


def _random_reference(n, t, labels, calls):
    """Reference columns U^dag|a> built from the captured circuit's gates."""
    (_args, circuit), = _calls(calls, "run_random_circuit")
    if (circuit.n_qubits, circuit.length) != (n, t):
        raise ValueError(f"circuit is {circuit.n_qubits} qubits x {circuit.length} gates")
    return ref.forward_run(n, circuit.placements, labels)


def _check_random_dispersion(n, t, labels):
    def check(metrics, calls):
        cols = _random_reference(n, t, labels, calls)
        (args, report), = _calls(calls, "certify_dispersing")
        problems = []
        if not ref.close(args[0].matrix[labels], cols.conj().T):
            problems.append("circuit matrix rows differ from the gate-by-gate reference")
        if not ref.close(report.per_label_l1[labels], np.abs(cols).sum(axis=0), 2 ** (n / 2)):
            problems.append("certified L1 norms differ from the reference")
        return problems

    return check


def _check_random_oracle(n, t, labels):
    def check(metrics, calls):
        cols = _random_reference(n, t, labels, calls)
        (args, oracle), = _calls(calls, "build_oracle")
        matrix = args[0].matrix
        problems = []
        if not ref.close(matrix[labels], cols.conj().T):
            problems.append("circuit matrix rows differ from the gate-by-gate reference")
        if not ref.close(oracle.betas[labels] * 2 ** (n / 2), np.abs(cols).sum(axis=0), 2 ** (n / 2)):
            problems.append("compiled betas differ from the reference L1 norms")
        if oracle.n_labels != 2**n:
            problems.append(f"compiled {oracle.n_labels} labels, expected {2**n}")
        return problems + _sign_problems(oracle.f_bits, lambda rows: matrix[list(rows)], 2**n)

    return check


def _check_qft_dispersion(n):
    def check(metrics, calls):
        rows = ref.qft_rows(n, range(2**n))
        l1 = np.abs(rows).sum(axis=1)
        (args, report), = _calls(calls, "certify_dispersing")
        problems = []
        if not ref.close(l1, 2 ** (n / 2), 2 ** (n / 2)):
            problems.append("numpy.fft QFT rows do not have L1 norm 2^(n/2)")
        if not ref.close(args[0].matrix, rows):
            problems.append("QFT matrix differs from numpy.fft")
        if not ref.close(report.per_label_l1, l1, 2 ** (n / 2)):
            problems.append("certified QFT L1 norms differ from numpy.fft")
        return problems

    return check


def _check_qft_oracle(n):
    def check(metrics, calls):
        (_args, oracle), = _calls(calls, "build_oracle")
        l1 = np.abs(ref.qft_rows(n, range(2**n))).sum(axis=1)
        problems = []
        if not ref.close(oracle.betas * 2 ** (n / 2), l1, 2 ** (n / 2)):
            problems.append("compiled QFT betas differ from numpy.fft L1 norms")
        return problems + _sign_problems(oracle.f_bits, lambda rows: ref.qft_rows(n, rows), 2**n)

    return check


def _single_level(size, rng):
    n = size["n"]
    t = 4 * n**3
    circuit_seed = int(rng.integers(2**31))
    labels = sorted(int(a) for a in rng.choice(2**n, size["check_labels"], replace=False))
    random = {"unitary": "random", "n": n, "t": t}
    return [
        Op("dispersion-random", "dispersion", {**random, "beta": size["beta"]}, circuit_seed,
           _check_random_dispersion(n, t, labels)),
        Op("oracle-random", "oracle", random, circuit_seed, _check_random_oracle(n, t, labels)),
        Op("dispersion-qft", "dispersion", {"unitary": "qft", "n": n, "beta": 1.0},
           circuit_seed, _check_qft_dispersion(n)),
        Op("oracle-qft", "oracle", {"unitary": "qft", "n": n}, circuit_seed, _check_qft_oracle(n)),
    ]


# ---------------------------------------------------------------------------
# circuit-sampling
# ---------------------------------------------------------------------------


def _check_qt(n, trials):
    def check(metrics, calls):
        haar = 2.0 / (2**n + 1)
        stderr = ref.haar_collision_stderr(n, trials)
        problems = []
        if metrics["circuits"] != trials:
            problems.append(f"qt ran {metrics['circuits']} circuits, expected {trials}")
        if abs(metrics["mean_q"] - haar) > 3 * stderr:
            problems.append(
                f"mean collision {metrics['mean_q']:.6f} is more than 3 standard errors "
                f"({stderr:.6f}) from the Haar value {haar:.6f}"
            )
        return problems

    return check


def _check_ad2(samples):
    def check(metrics, calls):
        if metrics["samples"] != samples:
            return [f"ad2 drew {metrics['samples']} samples, expected {samples}"]
        return []

    return check


def _circuit_sampling(size, rng):
    n = size["n"]
    return [
        Op("qt", "qt", {"n": n, "t": 4 * n**3, "trials": size["qt_trials"]},
           int(rng.integers(2**31)), _check_qt(n, size["qt_trials"])),
        Op("ad2", "ad2", {"samples": size["ad2_samples"]}, int(rng.integers(2**31)),
           _check_ad2(size["ad2_samples"])),
    ]


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------


def _answer_problems(calls) -> list[str]:
    """Every recursive and classical answer bit equals the instance's seeded bit."""
    wrong = sum(
        result.answer != ref.answer_bit(args[0].master_seed)
        for fn in ("find_simulate", "classical_solver")
        for args, result in _calls(calls, fn)
    )
    return [f"{wrong} answer bits differ from the seeded root bit"] if wrong else []


def _compiled_hadamard_problems(calls) -> list[str]:
    problems = []
    for _args, oracle in _calls(calls, "build_oracle"):
        idents = [spec.ident for spec in oracle.labels]
        problems += _sign_problems(
            oracle.f_bits, lambda rows: ref.walsh_rows(oracle.n_qubits, [idents[r] for r in rows]),
            len(idents),
        )
    return problems


def _check_rfs(depth, trials):
    def check(metrics, calls):
        m = ref.repetitions(DELTA)
        q0 = ref.query_recurrence(m, depth)
        problems = []
        if depth == 2 and (m, q0) != (PINNED_M, PINNED_Q0_L2):
            problems.append(f"recurrence gives m={m}, Q(0)={q0}, not 74 and 22052")
        if (metrics["m"], metrics["q0"]) != (m, q0):
            problems.append(f"m={metrics['m']}, Q(0)={metrics['q0']}; recurrence gives {m}, {q0}")
        if len(_calls(calls, "find_simulate")) != trials:
            problems.append("recursive run count differs from the trial count")
        for key in ("find_correct", "classical_correct", "referee_ok"):
            if metrics[key] != trials:
                problems.append(f"{key} = {metrics[key]} of {trials}")
        return problems + _answer_problems(calls) + _compiled_hadamard_problems(calls)

    return check


def _check_separation(n_list):
    def check(metrics, calls):
        q0 = ref.query_recurrence(ref.repetitions(DELTA), 2)
        rows = metrics["table"]
        means = [row["classical_queries_mean"] for row in rows]
        problems = []
        if [row["n"] for row in rows] != n_list:
            problems.append("separation table covers other sizes than asked")
        if any(b <= a for a, b in zip(means, means[1:])):
            problems.append(f"classical query means {means} do not strictly increase with n")
        if any(row["find_q0"] != q0 for row in rows):
            problems.append(f"recursive query count differs from Q(0) = {q0}")
        return problems + _answer_problems(calls) + _compiled_hadamard_problems(calls)

    return check


def _check_hadamard_dispersion(n, labels):
    def check(metrics, calls):
        (_args, report), = _calls(calls, "certify_dispersing")
        l1 = np.abs(ref.walsh_rows(n, labels)).sum(axis=1)
        problems = []
        if not ref.close(report.per_label_l1, math.sqrt(2**n), 2 ** (n / 2)):
            problems.append("certified Hadamard L1 norms are not all 2^(n/2)")
        if not ref.close(report.per_label_l1[labels], l1, 2 ** (n / 2)):
            problems.append("certified Hadamard L1 norms differ from the Walsh rows")
        return problems

    return check


def _check_hadamard_oracle(n):
    def check(metrics, calls):
        problems = []
        if metrics["labels"] != 2**n or abs(metrics["min_success"] - 1.0) > 1e-9:
            problems.append("Hadamard rows did not all identify with certainty")
        return problems + _compiled_hadamard_problems(calls)

    return check


def _recursion(size, rng):
    common = {"delta": DELTA, "trials": size["trials"]}
    disp_n = size["disp_n"]
    labels = sorted(int(a) for a in rng.choice(2**disp_n, 4, replace=False))
    return [
        Op("rfs-l2", "rfs", {**common, "l": 2, "n": size["l2_n"]}, int(rng.integers(2**31)),
           _check_rfs(2, size["trials"])),
        Op("rfs-l3", "rfs", {**common, "l": 3, "n": size["l3_n"]}, int(rng.integers(2**31)),
           _check_rfs(3, size["trials"])),
        Op("rfs-separation", "rfs",
           {"mode": "separation", "l": 2, "delta": DELTA, "n_list": size["sep_n"],
            "trials": size["sep_trials"]},
           int(rng.integers(2**31)), _check_separation(size["sep_n"])),
        Op("dispersion-hadamard", "dispersion", {"unitary": "hadamard", "n": disp_n},
           int(rng.integers(2**31)), _check_hadamard_dispersion(disp_n, labels)),
        Op("oracle-hadamard", "oracle", {"unitary": "hadamard", "n": size["oracle_n"]},
           int(rng.integers(2**31)), _check_hadamard_oracle(size["oracle_n"])),
    ]


_BUILDERS = {
    "single-level": _single_level,
    "circuit-sampling": _circuit_sampling,
    "recursion": _recursion,
}


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one round; the same seed gives the same operations."""
    rng = np.random.default_rng(seed % 2**64)
    return _BUILDERS[workload](SIZES[tiny][workload], rng)
