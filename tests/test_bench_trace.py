"""Traced benchmark runs of the workloads whose traced loop reads model
internals: it counts the distinct regions of `model.snapshots`, and checks
every model through `model.leaves` or a JSON round trip.

    python -m pytest -q tests/test_bench_trace.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pbart-n442", "soft-forest-n442"])
def test_traced_bench_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True, proc.stdout
    assert out["failed"] == 0 and out["attempted"] >= 1
