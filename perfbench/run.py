"""Benchmark of the oraclelab pipeline: one workload per run, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload single-level --seed 1 --seconds 30 --trace 0

The run repeats whole rounds of the workload's operations (identical inputs,
made from ``--seed``) until another round would overrun ``--seconds``, and
checks every operation's outputs.  With ``--trace 0`` it reports the
end-to-end metrics (medians over rounds); with ``--trace 1`` it reports the
per-layer metrics instead and writes them, per round, to ``perfbench/out/``.
The last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LAB_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("single-level", "circuit-sampling", "recursion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test only")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, make the inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def import_lab():
    """Put this checkout's ``src`` first on the path and import the lab from it."""
    if not (SRC / "oraclelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no oraclelab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import oraclelab

    if not Path(oraclelab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported oraclelab from {oraclelab.__file__}, not {SRC}")


def measure_setup(args) -> list[float]:
    """Seconds from launching a fresh interpreter until its inputs are ready."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = perf_counter() - started
            probe.stdout.read()
            probe.wait(timeout=60)
        if line.strip() != "ready" or probe.returncode != 0:
            raise SystemExit(f"error: set-up probe failed with code {probe.returncode}")
        samples.append(elapsed)
    return samples


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_vars": {name: os.environ.get(name, "unset") for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_round(ops, experiments, capture, tracer):
    """Run every operation once; returns timings, failures and layer totals."""
    before = dict(tracer.totals) if tracer else {}
    wall = cpu = 0.0
    failed = 0
    for op in ops:
        capture.take()
        entry = getattr(experiments, f"run_{op.experiment}")
        wall_start, cpu_start = perf_counter(), process_time()
        try:
            metrics, problems = entry(dict(op.params), op.seed)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            metrics, problems = None, ["raised"]
        wall += perf_counter() - wall_start
        cpu += process_time() - cpu_start
        if metrics is not None:
            try:
                problems = list(problems) + op.check(metrics, capture.take())
            except Exception:  # a check that cannot run counts the operation as failed
                traceback.print_exc()
                problems = list(problems) + ["check raised"]
        if problems:
            failed += 1
            print(f"FAILED {op.name}: {'; '.join(problems)}", file=sys.stderr)
    layers = {}
    if tracer:
        layers = {k: v - before.get(k, 0.0) for k, v in tracer.totals.items()}
    return {"wall_s": wall, "cpu_s": cpu, "failed": failed, "layers": layers}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lab()
    import workloads

    ops = workloads.make_ops(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import spans
    import oraclelab.experiments as experiments

    # Set-up time is an end-to-end metric, so only untraced runs probe it.
    setup = [] if args.trace else measure_setup(args)
    capture = spans.Capture()
    tracer = spans.Tracer() if args.trace else None
    spans.install(capture, tracer)

    rounds = []
    started = perf_counter()
    while True:
        round_start = perf_counter()
        rounds.append(run_round(ops, experiments, capture, tracer))
        round_time = perf_counter() - round_start
        if perf_counter() - started + round_time > args.seconds:
            break

    attempted = len(ops) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    env = environment()
    print("env: " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations, {attempted} attempted, {failed} failed")
    print("round wall_s: " + json.dumps([round(r["wall_s"], 6) for r in rounds]))
    print("round cpu_s: " + json.dumps([round(r["cpu_s"], 6) for r in rounds]))
    if setup:
        print("setup probes s: " + json.dumps([round(s, 6) for s in setup]))
    wall = statistics.median(r["wall_s"] for r in rounds)
    if tracer:
        units = spans.layer_metrics()
        values = {name: statistics.median(r["layers"].get(name, 0.0) for r in rounds)
                  for name in units}
        print(f"traced wall_s = {wall:.6f} s (tracing on; not an end-to-end metric)")
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "env": env,
                  "traced_wall_s": [r["wall_s"] for r in rounds],
                  "rounds": [r["layers"] for r in rounds]}
        out_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
