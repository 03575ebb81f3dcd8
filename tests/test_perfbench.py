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
from pgsosp import cli, util

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# Metric names of perfbench/tracer.py whose functions left src/ earlier
# (ROADMAP item 1); their metrics read 0 until the tracer drops them.
_GONE_FROM_SRC = {"mdp.sample_trajectory", "mdp.policy_matrix",
                  "estimators.score_table", "estimators.pg_estimate",
                  "estimators.hessian_estimate"}


def _load_perfbench(name):
    """perfbench/<name>.py as the module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class _NameRecorder:
    """Stands in for a Tracer and records every function name queried."""

    def __init__(self):
        self.names = set()

    def total(self, field, name=None, caller=None, root=None, match=None):
        self.names.update(n for n in (name, caller) if n is not None)
        return 0

    def span_time_excluding(self, name, excluded):
        self.names.update((name, excluded))
        return 0.0, 0

    def layer_self(self, layer):
        return 0.0


def _resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"pgsosp.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_layer_metric_names_resolve_in_src():
    """Every name layer_metrics reads is a function or method of src/; a
    renamed one (say oracle.fd_hessian_from_gradient) would zero its metric
    without any error."""
    recorder = _NameRecorder()
    _load_perfbench("tracer").layer_metrics(recorder, rounds=1, active_chain_steps=0)
    assert "oracle.fd_hessian_from_gradient" in recorder.names
    unresolved = {name for name in recorder.names if not _resolves(name)}
    assert unresolved <= _GONE_FROM_SRC, sorted(unresolved - _GONE_FROM_SRC)


def test_traced_methods_are_defined_on_their_classes():
    """perfbench/tracer.py wraps each method in METHODS through its class's
    own __dict__; a method deleted or moved to a base class would fail only
    inside a traced run, with a KeyError."""
    tracer = _load_perfbench("tracer")
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


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_workload_configs_read_against_their_schema(size):
    """Every config the benchmark builds loads for its own command, so a
    deleted or retyped key that the benchmark still uses fails here in
    well under a second instead of inside the traced tiny round."""
    workloads = _load_perfbench("workloads")
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            commands, _ = workloads.build(workload, seed, size)
            for command in commands:
                assert util._read(command.config,
                                  cli._SCHEMAS[command.subcommand]), command.label


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
