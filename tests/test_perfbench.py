"""The benchmark harness runs on this checkout and passes its own checks."""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import pgsosp.oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_methods_are_defined_on_their_classes():
    """perfbench/tracer.py wraps each method in METHODS through its class's
    own __dict__; a method deleted or moved to a base class would fail only
    inside a traced run, with a KeyError."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for path, methods in tracer.METHODS.items():
        short, cls_name = path.split(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        cls = getattr(module, cls_name, None)
        own = vars(cls) if cls is not None else {}
        missing += [f"{path}.{meth}" for meth in methods if meth not in own]
    assert missing == []


def test_enumeration_is_a_generator_function():
    """The tracer counts enumerated trajectories as the items a generator
    yields, and the traced self-check expects one per trajectory; a
    list-returning enumerate_trajectories would fail only inside the slow
    traced subprocess, with a count mismatch."""
    assert inspect.isgeneratorfunction(pgsosp.oracle.enumerate_trajectories)


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


def test_harness_selftest_passes():
    """perfbench/selftest.py: untraced and traced tiny rounds, every declared
    metric emitted with its unit, a missed rebinding caught by the
    self-check, and the README example the only failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "selftest: ok"
