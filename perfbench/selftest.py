"""Self-test of the benchmark harness at tiny sizes (about a minute).

Run from the root of a pgsosp checkout:

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, exits 0 with a correct
result; that every metric named in BENCHMARK.json and every per-workload
detail metric is emitted with its unit; that the span-count self-check
passes, and fails when one rebinding is missed; that the README example
is the only failure; and that the harness refuses to run without a
pgsosp checkout.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

DETAILS = {
    "sample": {"setup_s", "wall_s", "classify_s", "cnc_s", "traj_per_s",
               "peak_rss_mib", "failed_frac"},
    "exact": {"setup_s", "wall_s", "classify_s", "cnc_s", "oracle_check_s",
              "constants_s", "peak_rss_mib", "failed_frac"},
    "iterate": {"setup_s", "wall_s", "train_s", "escape_s", "trap_s",
                "updates_per_s", "peak_rss_mib", "failed_frac"},
}
# Commands per round of the iterate workload; one of them is the README run.
ITERATE_COMMANDS = 6


def run_workload(workload, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def check_metrics(where, metrics, declared, problems):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(want))} "
                        "missing or undeclared")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != want.get(name):
            problems.append(f"{where}: {name} has {entry}")


def check_runs(bench, problems):
    for workload in DETAILS:
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            proc = run_workload(workload, trace)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {report['failures']}")
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            check_metrics(where, result["metrics"], declared, problems)
            if not trace and any(e["value"] <= 0 for e in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
            details = report["details"]
            if set(details) != DETAILS[workload] or \
                    any(set(v) != {"value", "unit"} for v in details.values()):
                problems.append(f"{where}: details {sorted(details)}")
            known = result["attempted"] // ITERATE_COMMANDS if workload == "iterate" else 0
            if result["failed"] != known:
                problems.append(f"{where}: {result['failed']} failed, expected {known}")


def check_missed_rebinding(problems):
    """The self-check must fail when one module keeps an unwrapped name."""
    sys.path.insert(0, HERE)
    import run
    import tracer

    args = run.parse_args(["--workload", "sample", "--seed", "3", "--seconds", "1",
                           "--tiny"])
    cli, commands, _, space = run.set_up(args)
    from pgsosp import mdp

    tr = tracer.Tracer()
    restore = tracer.instrument(tr)
    mdp.rollout_batch = mdp.rollout_batch.__wrapped__
    try:
        rounds = [[run.invoke(cli, cmd, space, tr) for cmd in commands]]
    finally:
        restore()
        space.close()
    try:
        run.self_check(tr, commands, len(rounds))
    except run.SelfCheckError:
        return
    problems.append("self-check passed although mdp.rollout_batch was not rebound")


def check_refuses_without_checkout(problems):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "traces", "__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = run_workload("sample", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py did not refuse a directory without src/pgsosp")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    check_runs(bench, problems)
    check_missed_rebinding(problems)
    check_refuses_without_checkout(problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
