"""Command-line laboratory: seeded experiments with replayable JSONL records.

Every run writes one JSON line per experiment invocation, carrying the
parameters, the master seed, the numerics version and the metrics.
``replay`` re-executes each record and compares metrics bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from dataclasses import dataclass, field

from .errors import IntegrityError, InvalidConfigError, OracleLabError, SchemaVersionError
from .experiments import EXPERIMENTS, KEYS, READS, checked

SCHEMA_VERSION = 1
# Bumped when a change moves metrics by rounding or by the random-draw layout;
# replay is bit-exact only within one version.  2: sign compilation by one sweep.
# 3: the two-copy average sums by GEMM and takes norms without BLAS.
# 4: the Walsh-Hadamard transform sums by two Sylvester GEMMs.
# 5: moment_compare steps its circuits together, drawing step by step.
# 6: gates of random circuits fuse into 5-qubit blocks on wide states.
# 7: the referee reads Z from per-depth frontier counts (rfs replay-log
# final_z moves by ulps); certification slack scales with 2^n.
# 8: identify reads only the label's rows of U (qft and random successes move by ulps).
# 9: a gate joins a fused block past the gates it commutes with (random circuits at
# n >= 7 move by ulps).
# 10: batched random circuits draw their pairs and gates by blocks of 32 steps (qt,
# markov moments and circuit_collision_sample move; no other experiment does).
NUMERICS_VERSION = 10


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict = field(default_factory=dict)
    master_seed: int = 0
    out_path: str | None = None

    def __post_init__(self):
        checked(self.experiment, self.parameters, self.master_seed)


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    parameters: dict
    metrics: dict
    seed: int
    duration_s: float
    schema_version: int = SCHEMA_VERSION
    numerics_version: int = NUMERICS_VERSION
    failures: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "numerics_version": self.numerics_version,
            "experiment": self.experiment,
            "parameters": self.parameters,
            "metrics": self.metrics,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "failures": list(self.failures),
        }


def run(config: ExperimentConfig) -> ResultRecord:
    """Execute one experiment; append its record to the output file."""
    fn = EXPERIMENTS[config.experiment]
    started = time.perf_counter()
    metrics, failures = fn(config.parameters, config.master_seed)
    duration = time.perf_counter() - started
    record = ResultRecord(
        experiment=config.experiment,
        parameters=config.parameters,
        metrics=metrics,
        seed=config.master_seed,
        duration_s=duration,
        failures=tuple(failures),
    )
    if config.out_path:
        with open(config.out_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record.to_json_dict()) + "\n")
    return record


def replay(path: str) -> dict:
    """Re-run every record in a JSONL file; metrics must match bit-exactly.

    A mismatch lists the metric ``keys`` that differ and is ``cross_version``
    when the record's numerics version (1 if absent) is not the running one.
    Its ``errors`` map each differing key whose recorded and fresh values are
    both numbers to their ``abs_error`` and ``rel_error``; the relative error
    divides by the larger magnitude of the two.
    """
    # Every record is read and its parameters checked before the first one reruns.
    with open(path, encoding="utf-8") as fh:
        records = [(i, *_read_record(i, line)) for i, line in enumerate(fh, 1) if line.strip()]
    verdicts = []
    for line_no, data, config in records:
        metrics, _failures = EXPERIMENTS[config.experiment](config.parameters, config.master_seed)
        # Serialize both the same way so 0.1 compares as 0.1, not repr noise.
        fresh = {k: json.dumps(v, sort_keys=True) for k, v in metrics.items()}
        reference = {k: json.dumps(v, sort_keys=True) for k, v in data["metrics"].items()}
        keys = sorted({key for key, _ in fresh.items() ^ reference.items()})
        errors = {}
        for key in keys:
            old, new = data["metrics"].get(key), metrics.get(key)
            if _is_number(old) and _is_number(new):
                error = abs(new - old)
                scale = max(abs(old), abs(new))
                errors[key] = {"abs_error": error, "rel_error": error / scale if scale else 0.0}
        verdicts.append(
            {
                "line": line_no,
                "experiment": data["experiment"],
                "match": not keys,
                "keys": keys,
                "errors": errors,
                "cross_version": data.get("numerics_version", 1) != NUMERICS_VERSION,
            }
        )
    return {
        "records": len(verdicts),
        "all_match": all(v["match"] for v in verdicts),
        "mismatches": [v for v in verdicts if not v["match"]],
    }


def _read_record(line_no: int, line: str) -> tuple[dict, ExperimentConfig]:
    """A record line and the run it names; a malformed line raises ``IntegrityError``."""
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise IntegrityError(f"record line {line_no} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise IntegrityError(f"record line {line_no} is not a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionError(f"line {line_no}: schema {data.get('schema_version')} unsupported")
    for key, kind in (("experiment", str), ("parameters", dict), ("seed", int), ("metrics", dict)):
        if not isinstance(data.get(key), kind):
            raise IntegrityError(f"record line {line_no} needs {key!r} as {kind.__name__}")
    try:
        config = ExperimentConfig(data["experiment"], data["parameters"], data["seed"])
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"record line {line_no}: {exc}") from exc
    return data, config


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _csv_rows(metrics: dict) -> list[dict] | None:
    table = metrics.get("table")
    if isinstance(table, list) and table and isinstance(table[0], dict):
        return table
    return None


def write_csv(rows: list[dict], path: str) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclelab",
        description="Dispersion, sign-compiled oracles, recursive identification, Pauli chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        # No prefix matching: a dropped flag such as ``signs --t`` must not become ``--trials``.
        p = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        modes = READS[name]
        if None not in modes:
            p.add_argument("--mode", choices=tuple(modes), help=KEYS["mode"][1])
        for key in dict.fromkeys(key for reads in modes.values() for key in reads):
            kind, text = KEYS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind.parse,
                           choices=kind.choices, help=text)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=str, help="JSONL output path (append)")
        p.add_argument("--csv", type=str, help="also dump tabular metrics as CSV")
    rp = sub.add_parser("replay", help="re-run a JSONL record file and compare")
    rp.add_argument("records", type=str, help="path to the JSONL file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "replay":
        verdict = replay(args.records)
        print(json.dumps(verdict, indent=1))
        return 0 if verdict["all_match"] else 1

    # A record lists only the flags that were set, so an experiment's defaults stay its own.
    flags = {key: value for key, value in vars(args).items() if key in KEYS and value is not None}
    config = ExperimentConfig(args.command, flags, args.seed, args.out)
    record = run(config)
    print(f"== {record.experiment}  seed={record.seed}  {record.duration_s:.2f}s")
    for key, value in record.metrics.items():
        print(f"   {key}: {value}")
    for failure in record.failures:
        print(f"   FAILED: {failure}")
    if not record.failures:
        print("   all checks passed")
    if args.csv:
        rows = _csv_rows(record.metrics)
        if rows:
            write_csv(rows, args.csv)
            print(f"   csv -> {args.csv}")
    return 1 if record.failures else 0


def entry(argv=None) -> int:
    """The console script: :func:`main`, with refusals as one stderr line and exit 2.

    Exit 0 means every check passed, 1 that a run's checks failed (or a replay
    did not match), and 2 that the command line, the configuration or an input
    or output file was refused, as argparse does for a bad flag.  A reader that closes
    stdout early ends the process as it ends ``cat``: by SIGPIPE, with no error line.
    """
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        return main(argv)
    except (OracleLabError, OSError) as exc:
        print(f"oraclelab: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
