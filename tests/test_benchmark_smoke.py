"""The benchmark harness runs end to end at smoke size and its workload
checks pass: `verify-large` asserts that the momentum charge is p bit for
bit and that the time invariance residual is exactly 0, and
`run-examples` that every built-in example solves and verifies."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 1901   # a seed of its own: result files in perfbench/out/ are named by seed


@pytest.mark.parametrize("workload", ["verify-large", "run-examples"])
def test_benchmark_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    assert last["failed"] == 0, proc.stdout
    assert last["attempted"] > 0
