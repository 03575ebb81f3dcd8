"""pgsosp benchmark: drive the CLI in-process on one seeded workload.

Run from the root of a pgsosp checkout:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 30 --trace 0

One single-threaded process per workload runs a closed loop: one caller,
each command starts when the previous one has returned.  The workload's
command sequence (a round) repeats until --seconds would be exceeded, at
least once.  Every output is checked against the references in
reference.py outside the timed region: the first round in full, every
later round byte for byte against the first.

--trace 0 prints the end-to-end metrics (medians over rounds).  --trace 1
spends half the time untraced and half traced (tracer.py), and prints the
per-layer metrics; its span-count self-check compares the traced work with
counts the harness knows independently and exits 1 on any mismatch.

The last line of stdout is the result object; the line before it carries
the per-subcommand details, the inputs and the machine.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One thread per workload process, BLAS included; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
KNOWN_FAILURE_TEXT = "action probabilities leave [0, 1]"


class SelfCheckError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sample", "exact", "iterate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see selftest.py)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; used to time setup_s")
    return parser.parse_args(argv)


def locate_source() -> str:
    """Absolute src/ of the checkout in the working directory, or exit."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pgsosp", "cli.py")):
        sys.exit("error: run from the root of a pgsosp checkout "
                 "(src/pgsosp/cli.py not found)")
    return src


class Workspace:
    """Configs and output directories of one process, inside the checkout."""

    def __init__(self, commands, tag):
        self.root = os.path.join(HERE, ".work", f"{tag}-{os.getpid()}")
        os.makedirs(self.root)
        self.argv = {}
        self.out_dirs = {}
        for cmd in commands:
            path = os.path.join(self.root, f"{cmd.label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cmd.config, fh)
            argv = [cmd.subcommand, "--config", path, *cmd.extra_args]
            if cmd.uses_out:
                self.out_dirs[cmd.label] = os.path.join(self.root, f"{cmd.label}.out")
                argv += ["--out", self.out_dirs[cmd.label]]
            self.argv[cmd.label] = argv

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def set_up(args):
    """Everything between process start and the first command: imports,
    input generation, configs written."""
    sys.path.insert(0, locate_source())
    os.environ.pop("SOSP_PG_SEED", None)
    import workloads
    from pgsosp import cli

    if not cli.__file__.startswith(sys.path[0] + os.sep):
        sys.exit(f"error: imported pgsosp from {cli.__file__}, not the checkout")
    size = "tiny" if args.tiny else "full"
    commands, inputs = workloads.build(args.workload, args.seed, size)
    space = Workspace(commands, f"{args.workload}-{args.seed}")
    return cli, commands, inputs, space


def time_setup(args) -> list:
    """Wall time of fresh processes that set up this workload and exit."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def invoke(cli, cmd, space, tracer=None):
    """(exit code, seconds, stdout, stderr, files written under --out)."""
    out_dir = space.out_dirs.get(cmd.label)
    if out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        tracer.root = cmd.label
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(space.argv[cmd.label])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a harness error
        rc = 1
        stderr.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    files = {}
    if out_dir and os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                files[name] = fh.read()
    return rc, seconds, stdout.getvalue(), stderr.getvalue(), files


def run_rounds(cli, commands, space, budget, tracer=None):
    """Repeat the command sequence while another round fits in budget."""
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rounds.append([invoke(cli, cmd, space, tracer) for cmd in commands])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > budget:
            return rounds


def judge(commands, rounds, reference_check):
    """(attempted, failed, unexpected failures as text).

    The first round is checked against the references; later rounds must
    reproduce it byte for byte.  The README example's domain exit is the
    one expected failure: it counts as failed but not as incorrect.
    """
    first = rounds[0]
    attempted = failed = 0
    unexpected = []
    verdicts = {}
    for cmd, result in zip(commands, first):
        rc, _, stdout, stderr, files = result
        if cmd.info.get("known_failure") and rc == 4 and KNOWN_FAILURE_TEXT in stderr:
            verdicts[cmd.label] = "known"
        else:
            problems = reference_check(cmd, rc, stdout, files)
            verdicts[cmd.label] = problems
            if problems:
                unexpected.append(f"{cmd.label}: {'; '.join(problems)} "
                                  f"{stderr.strip()[-300:]}")
    for results in rounds:
        for cmd, result, ref in zip(commands, results, first):
            attempted += 1
            same = (result[0], result[2], result[4]) == (ref[0], ref[2], ref[4])
            if not same:
                unexpected.append(f"{cmd.label}: output differs from the first round")
            if not same or verdicts[cmd.label]:
                failed += 1
    return attempted, failed, unexpected


def round_details(commands, results) -> dict:
    """Per-subcommand seconds and rates of one round."""
    d = {}
    for cmd, result in zip(commands, results):
        key = cmd.subcommand.replace("-", "_") + "_s"
        d[key] = d.get(key, 0.0) + result[1]
    d["wall_s"] = sum(r[1] for r in results)
    traj = sum(c.info.get("trajectories", 0) for c in commands)
    if traj:
        d["traj_per_s"] = traj / (d.get("classify_s", 0.0) + d.get("cnc_s", 0.0))
    # Updates of the train runs that completed, over their own time.
    done = [(c, r) for c, r in zip(commands, results)
            if c.subcommand == "train" and r[0] == 0]
    if done:
        d["updates_per_s"] = sum(c.config["max_iters"] for c, _ in done) \
            / sum(r[1] for _, r in done)
    return d


def medians(per_round: list) -> dict:
    return {k: statistics.median(d[k] for d in per_round) for k in per_round[0]}


UNITS = {"wall_s": "s", "traj_per_s": "1/s", "updates_per_s": "1/s",
         "peak_rss_mib": "MiB", "failed_frac": "frac", "setup_s": "s"}


def with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in values.items()}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def active_chain_steps(commands, rounds) -> int:
    """Escape chain-steps of runs not yet escaped, from the escape outputs."""
    total = 0
    for results in rounds:
        for cmd, result in zip(commands, results):
            if cmd.subcommand == "escape" and result[0] == 0:
                out = json.loads(result[2])
                escaped = round(out["escape_fraction"] * out["runs"])
                steps = out["mean_escape_steps"] * escaped if escaped else 0.0
                total += round(steps) + out["step_cap"] * (out["runs"] - escaped)
    return total


def self_check(tr, commands, n_rounds):
    """Traced work must equal what the harness knows without the tracer."""
    from tracer import CALLS, UNITS as WORK

    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: traced {got}, expected {want}")

    expect("cli.main calls", tr.total(CALLS, "cli.main"), len(commands) * n_rounds)
    for cmd in commands:
        handler = "cli.cmd_" + cmd.subcommand.replace("-", "_")
        info = cmd.info
        expect(f"{handler} [{cmd.label}]", tr.total(CALLS, handler, root=cmd.label),
               n_rounds)
        traj = info.get("trajectories", 0)
        expect(f"rollout_batch trajectories [{cmd.label}]",
               tr.total(WORK, "mdp.rollout_batch", root=cmd.label), traj * n_rounds)
        if traj:
            expect(f"derive_rng calls [{cmd.label}]",
                   tr.total(CALLS, "util.derive_rng", root=cmd.label),
                   2 * traj * n_rounds)
        if "exact_hessian" in info:
            expect(f"exact_hessian calls [{cmd.label}]",
                   tr.total(CALLS, "oracle.exact_hessian", root=cmd.label),
                   info["exact_hessian"] * n_rounds)
        if "enum_trajectories" in info:
            expect(f"enumerated trajectories [{cmd.label}]",
                   tr.total(WORK, "oracle.enumerate_trajectories", root=cmd.label),
                   info["enum_trajectories"] * n_rounds)
        if "updates" in info:
            expect(f"updates [{cmd.label}]",
                   tr.total(CALLS, "trainer.MdpPolicySource.sample_gradient",
                            caller="trainer.run", root=cmd.label),
                   info["updates"] * n_rounds)
        if "kappa_0" in info:
            expect(f"trap chain-steps [{cmd.label}]",
                   tr.total(WORK, "trainer.NoiseSpec.draw", caller="trainer.verify_trap",
                            root=cmd.label),
                   info["kappa_0"] * info["runs"] * n_rounds)
    if problems:
        raise SelfCheckError("span-count self-check failed: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        space = set_up(args)[3]
        space.close()
        return 0
    locate_source()
    setup_times = time_setup(args)
    cli, commands, inputs, space = set_up(args)
    import numpy as np
    import reference

    try:
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        rounds = run_rounds(cli, commands, space, untraced_budget)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if args.trace:
            import tracer as tracing

            tr = tracing.Tracer()
            restore = tracing.instrument(tr)
            try:
                traced = run_rounds(cli, commands, space,
                                    args.seconds - untraced_budget, tr)
            finally:
                restore()
        extra = []
        if len(rounds) + len(traced) < 2:
            # One more, untimed, so byte-identical repeats are always checked.
            extra.append([invoke(cli, cmd, space) for cmd in commands])
        attempted, failed, unexpected = judge(commands, rounds + traced + extra,
                                              reference.check)
    finally:
        space.close()

    per_round = [round_details(commands, r) for r in rounds]
    details = medians(per_round)
    details.update(setup_s=statistics.median(setup_times), peak_rss_mib=peak_rss_mib,
                   failed_frac=failed / attempted)
    report = {
        "workload": args.workload, "seed": args.seed,
        "round_wall_s": [d["wall_s"] for d in per_round],
        "details": with_units(details),
        "inputs": inputs,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "failures": unexpected,
    }
    if args.trace:
        traced_wall = statistics.median(sum(r[1] for r in res) for res in traced)
        self_check(tr, commands, len(traced))
        metrics = tracing.layer_metrics(tr, len(traced),
                                        active_chain_steps(commands, traced))
        metrics["trace_overhead_frac"] = (traced_wall / details["wall_s"] - 1.0, "frac")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        tr.write(trace_path, {"workload": args.workload, "seed": args.seed,
                              "rounds": len(traced)})
        report.update(traced_rounds=len(traced), spans=len(tr.spans),
                      trace_file=os.path.relpath(trace_path))
    else:
        metrics = {k: details[k] for k in ("setup_s", "wall_s", "peak_rss_mib")}
        metrics = with_units(metrics)
    print(json.dumps(report, sort_keys=True))
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
