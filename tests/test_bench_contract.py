"""The benchmark's checks and span wrappers still fit the lab.

Each workload runs once at tiny sizes with tracing on, which installs both
the output captures and the per-layer spans; every operation must pass its
checks against the independent references in ``perfbench/reference.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["single-level", "circuit-sampling", "recursion"])
def test_workload_passes_its_checks(workload):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "0", "--trace", "1", "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
