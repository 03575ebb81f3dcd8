"""The benchmark harness runs on this checkout and passes its own checks."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_tiny_iterate_round_is_correct():
    """A traced tiny `iterate` run exits 0 with correct outputs; its
    span-count self-check (trap chain-steps = kappa_0 * runs among them)
    would exit 1 on a mismatch."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "iterate", "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
