"""The benchmark harness runs on this checkout and passes its own checks."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["sample", "exact", "iterate"])
def test_traced_tiny_round_is_correct(workload):
    """A traced tiny round exits 0 with correct outputs; its span-count
    self-check (trap chain-steps = kappa_0 * runs, rollout and derive_rng
    counts, handler calls) would exit 1 on a mismatch."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
