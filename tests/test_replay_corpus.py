"""The committed replay corpus replays bit for bit.

``tests/data/replay_corpus.jsonl`` holds one record per (experiment, mode) at
its defaults, one per README command line and two n = 8 random circuits;
``tests/write_replay_corpus.py`` rewrites it.  Like the hash pins, the records
assume one numpy and OpenBLAS build, recorded beside them.
"""

import json

from write_replay_corpus import CORPUS, ENVIRONMENT, RUNS, environment

from oraclelab.cli import replay
from oraclelab.experiments import READS, checked


def test_the_corpus_covers_every_mode_and_the_script_writes_it():
    records = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert [(r["experiment"], r["parameters"], r["seed"]) for r in records] == RUNS
    covered = {(r["experiment"], checked(r["experiment"], r["parameters"], r["seed"]).get("mode"))
               for r in records}
    assert covered == {(name, mode) for name, modes in READS.items() for mode in modes}


def test_the_corpus_replays_bit_for_bit(monkeypatch):
    # Records name their input files relative to the repository root.
    monkeypatch.chdir(CORPUS.parents[2])
    verdict = replay(str(CORPUS))
    if verdict["all_match"]:
        return
    lines = [
        f"line {m['line']} ({m['experiment']}): {m['keys']} differ {m['errors']}"
        for m in verdict["mismatches"]
    ]
    written = json.loads(ENVIRONMENT.read_text(encoding="utf-8"))
    running = environment()
    lines += [
        f"environment {key}: written under {written.get(key)!r}, running under {running.get(key)!r}"
        for key in sorted(written.keys() | running.keys())
        if written.get(key) != running.get(key)
    ]
    raise AssertionError("the replay corpus does not replay:\n" + "\n".join(lines))
