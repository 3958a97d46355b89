"""Self-test of the benchmark: every workload at tiny sizes, both report modes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For each workload and for ``--trace 0`` and ``--trace 1`` it checks that
the run exits 0, that its last line is the result object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, that no
operation failed, and that every metric declared in ``BENCHMARK.json`` for
that mode is printed exactly once, with its declared unit, both as a text
line and in the result.  It also checks that the benchmark refuses to run,
with a nonzero code and no result, in a directory without the lab's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("single-level", "circuit-sampling", "recursion")


def _no_duplicates(pairs):
    keys = [k for k, _v in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in result: {keys}")
    return dict(pairs)


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=_no_duplicates)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} "
                        "are not both declared and printed")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} reported as {entry}, declared unit {unit}")
        text = [line for line in lines[:-1] if line.startswith(f"{name} = ")]
        if len(text) != 1 or not text[0].endswith(f" {unit}"):
            problems.append(f"{where}: {name} printed {len(text)} times as text: {text}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out"))
        command = [sys.executable, str(bare / BENCH_DIR.name / "run.py"),
                   "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace, metrics in modes.items():
            declared = {m["name"]: m["unit"] for m in metrics}
            found = check_run(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_refuses_without_sources()
    print(f"refuses without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
