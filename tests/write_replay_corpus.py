"""Rewrite the committed replay corpus from the running code.

Run it from anywhere; it works in the repository root:

    PYTHONPATH=src python tests/write_replay_corpus.py

It writes three files under ``tests/data``:

* ``replay_query_log.jsonl``: the classical solver's query log on
  ``make_rfs_spec(2, 4, 21, alpha_n=3)``, the log the ``rfs --mode
  replay-log`` record referees;
* ``replay_corpus.jsonl``: one record per run in ``RUNS``, as ``oraclelab
  replay`` reads them, with each ``duration_s`` set to 0 so that a rewrite
  differs only where metrics moved;
* ``replay_corpus_env.json``: the numpy and OpenBLAS build the records were
  written on.

``tests/test_replay_corpus.py`` replays the corpus.  A change that bumps
``cli.NUMERICS_VERSION`` reruns this script and commits the diff, which lists
the metrics that moved.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "replay_corpus.jsonl"
ENVIRONMENT = DATA / "replay_corpus_env.json"
# Records name their files relative to the repository root, where replay runs.
QUERY_LOG = "tests/data/replay_query_log.jsonl"

# (experiment, parameters, seed).  First every (experiment, mode) of
# ``experiments.READS`` at its defaults (``replay-log`` on the committed log),
# then each README command line whose run is not already there, then n = 8
# random circuits, whose densify runs the fused path on the process's threads.
RUNS = [
    ("dispersion", {}, 0),
    ("signs", {}, 0),
    ("oracle", {}, 0),
    ("rfs", {"mode": "simulate"}, 0),
    ("rfs", {"mode": "separation"}, 0),
    ("rfs", {"mode": "replay-log", "l": 2, "n": 4, "alpha_n": 3, "log_file": QUERY_LOG}, 21),
    ("rfs", {"mode": "bound-table"}, 0),
    ("markov", {"mode": "gap"}, 0),
    ("markov", {"mode": "stationary"}, 0),
    ("markov", {"mode": "lumped-vs-full"}, 0),
    ("markov", {"mode": "moments"}, 0),
    ("ad2", {}, 0),
    ("qt", {}, 0),
    ("dispersion", {"unitary": "random", "n": 6, "t": 864, "beta": 0.25}, 7),
    ("dispersion", {"group": "q8", "samples": 2000}, 0),
    ("oracle", {"unitary": "qft", "n": 8}, 0),
    ("rfs", {"l": 2, "delta": 0.2, "n": 4, "trials": 50}, 0),
    ("markov", {"mode": "gap", "n_list": [4, 8, 16, 32, 64]}, 0),
    ("markov", {"mode": "moments", "n": 2, "trials": 2000, "t_list": [1, 5, 10]}, 0),
    ("oracle", {"unitary": "random", "n": 8}, 0),
    ("dispersion", {"unitary": "random", "n": 8}, 0),
]


def environment() -> dict:
    """The numpy version and numpy's OpenBLAS build, by its own ``get_config`` and
    ``get_corename`` strings (``"unknown"`` on a BLAS without those calls)."""
    env = {"numpy": np.__version__}
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        lib = None
    for key in ("config", "corename"):
        call = getattr(lib, f"scipy_openblas_get_{key}64_", None)
        if call is None:
            env[f"openblas_{key}"] = "unknown"
            continue
        call.argtypes, call.restype = (), ctypes.c_char_p
        env[f"openblas_{key}"] = call().decode()
    return env


def main() -> int:
    from oraclelab.cli import ExperimentConfig, run
    from oraclelab.rfs import classical_solver, make_rfs_spec, save_query_log

    os.chdir(DATA.parent.parent)
    save_query_log(classical_solver(make_rfs_spec(2, 4, 21, alpha_n=3)).log, QUERY_LOG)
    lines = []
    for experiment, params, seed in RUNS:
        record = run(ExperimentConfig(experiment, params, seed))
        if record.failures:
            print(f"{experiment} {params} seed {seed} failed: {record.failures}", file=sys.stderr)
            return 1
        data = record.to_json_dict()
        data["duration_s"] = 0.0
        lines.append(json.dumps(data) + "\n")
    CORPUS.write_text("".join(lines), encoding="utf-8")
    ENVIRONMENT.write_text(json.dumps(environment(), indent=1) + "\n", encoding="utf-8")
    print(f"{len(lines)} records -> {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
