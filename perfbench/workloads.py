"""Seeded workload inputs and the command sequence of each workload.

Inputs come from this module's own numpy generator (PCG64 keyed by the
workload seed), never from ``pgsosp.mdp.random_mdp``: that function draws
through ``pgsosp.util.derive_rng``, whose streams are expected to change.
pgsosp only ever sees the generated JSON configs.

A command is one ``pgsosp`` CLI invocation.  Besides its argv it carries
the facts the harness needs later: the inputs its outputs are checked
against, and the work it must do (trajectories, rows, updates), which the
traced run compares with its span counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sample", "exact", "iterate")

# The README's example1 training config, verbatim.  pgsosp 0.1.0 leaves the
# piecewise family's domain at k = 14709 and exits 4; the harness counts
# that as a failed operation and does not re-seed or resize it away.
README_TRAIN = {
    "command": "train",
    "problem": {"kind": "example1"},
    "theta0": [0.01, 0.01],
    "alpha": 0.0005, "max_iters": 20000,
    "epsilon": 0.3, "chi": 1.0, "seed": 7, "report_every": 50,
}

# Full sizes and the tiny sizes of the harness self-test.
SIZES = {
    "full": dict(
        sample_mdp=(4, 3, 6), sample_tab_classify_n=4000, sample_tab_cnc_n=8000,
        sample_ex1_classify_n=12000, sample_ex1_cnc_n=24000,
        exact_mdp=(4, 3, 5), exact_big_mdp=(8, 4, 10),
        oracle_check=dict(n_mdps=40, max_states=4, max_actions=3, max_horizon=4),
        constants_grid=6,
        iterate_mdp=(3, 2, 4), train_rows_iters=30, train_updates_iters=3000,
        escape_runs=200, escape_alpha=1e-4, trap_runs=200, trap_alpha=0.008,
    ),
    "tiny": dict(
        sample_mdp=(3, 2, 3), sample_tab_classify_n=200, sample_tab_cnc_n=200,
        sample_ex1_classify_n=200, sample_ex1_cnc_n=200,
        exact_mdp=(3, 2, 3), exact_big_mdp=(8, 4, 10),
        oracle_check=dict(n_mdps=2, max_states=3, max_actions=2, max_horizon=3),
        constants_grid=3,
        iterate_mdp=(3, 2, 3), train_rows_iters=4, train_updates_iters=50,
        escape_runs=20, escape_alpha=1e-3, trap_runs=20, trap_alpha=0.05,
    ),
}

BRANCHING = 2
GAMMA = 0.5


@dataclass
class Command:
    """One pgsosp invocation plus what the harness knows about it."""

    label: str
    config: dict
    extra_args: list = field(default_factory=list)
    uses_out: bool = False
    # Reference-check inputs and independently known work counts.
    info: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.config["command"]


def random_tabular_mdp(rng: np.random.Generator, n_states: int, n_actions: int,
                       horizon: int) -> dict:
    """MDP JSON block with exactly BRANCHING successors per (s, a).

    rho0 has two support states, rewards lie in [0.1, 1].  Every branch
    has positive probability, so the number of length-h trajectories is
    known in closed form (see enumeration_count).
    """
    transition = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            targets = rng.choice(n_states, size=BRANCHING, replace=False)
            transition[s, a, targets] = rng.dirichlet(np.ones(BRANCHING))
    reward = rng.uniform(0.1, 1.0, size=(n_states, n_actions))
    rho0 = np.zeros(n_states)
    rho0[rng.choice(n_states, size=2, replace=False)] = rng.dirichlet(np.ones(2))
    return {
        "n_states": n_states, "n_actions": n_actions,
        "transition": transition.tolist(), "reward": reward.tolist(),
        "rho0": rho0.tolist(), "gamma": GAMMA, "horizon": horizon,
        "r_min": 0.1, "r_max": 1.0,
    }


def enumeration_count(mdp: dict) -> int:
    """Trajectories pgsosp enumerates: support(rho0) * A * (A * b)^(h - 1)."""
    transition = np.asarray(mdp["transition"])
    support0 = int((np.asarray(mdp["rho0"]) > 0).sum())
    branching = int((transition > 0).sum(axis=2).max())
    a = mdp["n_actions"]
    return support0 * a * (a * branching) ** (mdp["horizon"] - 1)


def _unit(rng: np.random.Generator, dim: int) -> list:
    v = rng.standard_normal(dim)
    return (v / np.linalg.norm(v)).tolist()


def _theta_arg(theta: list) -> list:
    # One token, since a leading minus would otherwise read as an option.
    return ["--theta=" + ",".join(repr(float(x)) for x in theta)]


def _mdp_problem(mdp: dict) -> dict:
    return {"kind": "mdp", "mdp": mdp, "policy": "tabular_softmax"}


def _describe(mdp: dict) -> dict:
    return {"S": mdp["n_states"], "A": mdp["n_actions"], "h": mdp["horizon"],
            "branching": BRANCHING, "gamma": mdp["gamma"]}


def _example1_theta(rng: np.random.Generator) -> list:
    # Inside the unit box, away from its edges, where the family is smooth.
    return rng.uniform(0.2, 0.8, size=2).tolist()


def build(workload: str, seed: int, size: str = "full") -> tuple[list, dict]:
    """(commands, description of the inputs) for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    builder = {"sample": _build_sample, "exact": _build_exact,
               "iterate": _build_iterate}[workload]
    return builder(rng, sz)


def _build_sample(rng, sz):
    mdp = random_tabular_mdp(rng, *sz["sample_mdp"])
    p = mdp["n_states"] * mdp["n_actions"]
    theta = rng.uniform(-1.0, 1.0, p).tolist()
    u = _unit(rng, p)
    theta1 = _example1_theta(rng)
    u1 = _unit(rng, 2)
    n_tc, n_tn = sz["sample_tab_classify_n"], sz["sample_tab_cnc_n"]
    n_ec, n_en = sz["sample_ex1_classify_n"], sz["sample_ex1_cnc_n"]
    seeds = rng.integers(0, 2 ** 31, size=4).tolist()
    commands = [
        Command("classify-estimated-tabular",
                {"command": "classify", "problem": _mdp_problem(mdp),
                 "epsilon": 0.1, "chi": 1.0, "mode": "estimated", "n": n_tc,
                 "seed": seeds[0]},
                _theta_arg(theta),
                info={"mdp": mdp, "theta": theta, "trajectories": 2 * n_tc}),
        Command("cnc-mc-tabular",
                {"command": "cnc", "problem": _mdp_problem(mdp), "theta": theta,
                 "u": u, "n": n_tn, "seed": seeds[1], "method": "mc"},
                info={"mdp": mdp, "theta": theta, "u": u, "trajectories": n_tn}),
        Command("classify-estimated-example1",
                {"command": "classify", "problem": {"kind": "example1"},
                 "epsilon": 0.1, "chi": 1.0, "mode": "estimated", "n": n_ec,
                 "seed": seeds[2]},
                _theta_arg(theta1),
                info={"example1": True, "theta": theta1,
                      "trajectories": 2 * n_ec}),
        Command("cnc-mc-example1",
                {"command": "cnc", "problem": {"kind": "example1"},
                 "theta": theta1, "u": u1, "n": n_en, "seed": seeds[3],
                 "method": "mc"},
                info={"example1": True, "theta": theta1, "u": u1,
                      "trajectories": n_en}),
    ]
    inputs = {"tabular": {**_describe(mdp), "n_classify": n_tc, "n_cnc": n_tn},
              "example1": {"h": 1, "n_classify": n_ec, "n_cnc": n_en}}
    return commands, inputs


def _build_exact(rng, sz):
    mdp = random_tabular_mdp(rng, *sz["exact_mdp"])
    big = random_tabular_mdp(rng, *sz["exact_big_mdp"])
    p = mdp["n_states"] * mdp["n_actions"]
    theta = rng.uniform(-1.0, 1.0, p).tolist()
    theta_big = rng.uniform(-1.0, 1.0, big["n_states"] * big["n_actions"]).tolist()
    n_enum = enumeration_count(mdp)
    check_seed = int(rng.integers(0, 2 ** 20))
    grid = sz["constants_grid"]
    constants = {
        "command": "constants",
        "estimate": {"family": "tabular_softmax", "n_states": 2, "n_actions": 2,
                     "box": [[-1.0, 1.0]] * 4, "grid": grid},
        "r_min": 0.1, "r_max": 1.0, "gamma": GAMMA, "h": 4, "p": 4,
        "epsilon": 0.1, "delta": 0.1, "omega": 1.0, "iota": 1.0,
    }
    commands = [
        Command("classify-oracle-enumerable",
                {"command": "classify", "problem": _mdp_problem(mdp),
                 "epsilon": 0.1, "chi": 1.0},
                _theta_arg(theta),
                # exact_gradient cross-checks by enumeration, exact_hessian
                # sums over the enumeration.
                info={"mdp": mdp, "theta": theta, "exact_hessian": 1,
                      "enum_trajectories": 2 * n_enum}),
        Command("classify-oracle-above-cap",
                {"command": "classify", "problem": _mdp_problem(big),
                 "epsilon": 0.1, "chi": 1.0},
                _theta_arg(theta_big),
                info={"mdp": big, "theta": theta_big, "exact_hessian": 1,
                      "enum_trajectories": 0}),
        Command("cnc-exact-direction",
                {"command": "cnc", "problem": _mdp_problem(mdp), "theta": theta,
                 "n": 1, "seed": 0, "method": "enumerate"},
                # exact_hessian for u, then cnc_enumerate.
                info={"mdp": mdp, "theta": theta, "exact_hessian": 1,
                      "enum_trajectories": 2 * n_enum}),
        Command("oracle-check",
                {"command": "oracle-check", "seed": check_seed,
                 **sz["oracle_check"]},
                info={}),
        Command("constants-estimate", constants, info={"config": constants}),
    ]
    inputs = {"enumerable": {**_describe(mdp), "trajectories": n_enum},
              "above_cap": _describe(big),
              "oracle_check": {"seed": check_seed, **sz["oracle_check"]},
              "constants": {"family": "tabular_softmax", "S": 2, "A": 2,
                            "grid": grid}}
    return commands, inputs


def _build_iterate(rng, sz):
    mdp = random_tabular_mdp(rng, *sz["iterate_mdp"])
    p = mdp["n_states"] * mdp["n_actions"]
    theta0 = rng.uniform(-0.5, 0.5, p).tolist()
    seeds = rng.integers(0, 2 ** 31, size=5).tolist()
    rows_iters = sz["train_rows_iters"]
    upd_iters = sz["train_updates_iters"]

    def tab_train(label, iters, report_every, train_seed):
        cfg = {"command": "train", "problem": _mdp_problem(mdp),
               "theta0": theta0, "alpha": 0.05, "max_iters": iters,
               "epsilon": 0.3, "chi": 1.0, "seed": train_seed,
               "report_every": report_every}
        rows = math.ceil(iters / report_every) + 1
        return Command(label, cfg, uses_out=True,
                       info={"mdp": mdp, "rows": rows, "updates": iters,
                             "exact_hessian": rows})

    trap_alpha = sz["trap_alpha"]
    trap_delta = 0.2
    commands = [
        tab_train("train-tabular-rows", rows_iters, 1, seeds[0]),
        tab_train("train-tabular-updates", upd_iters, upd_iters, seeds[1]),
        Command("train-readme-example1", dict(README_TRAIN), uses_out=True,
                info={"example1": True, "known_failure": True}),
        Command("escape-default",
                {"command": "escape", "seed": seeds[2], "runs": sz["escape_runs"],
                 "alpha": sz["escape_alpha"]},
                info={"runs": sz["escape_runs"]}),
        Command("escape-contrast",
                {"command": "escape", "seed": seeds[3], "runs": sz["escape_runs"],
                 "alpha": sz["escape_alpha"], "contrast": True},
                info={"runs": sz["escape_runs"]}),
        Command("trap",
                {"command": "trap", "seed": seeds[4], "runs": sz["trap_runs"],
                 "alpha": trap_alpha, "delta": trap_delta},
                info={"runs": sz["trap_runs"],
                      "kappa_0": math.floor(math.log(1.0 / trap_delta)
                                            / trap_alpha ** 2)}),
    ]
    inputs = {"tabular": {**_describe(mdp), "rows_run_iters": rows_iters,
                          "updates_run_iters": upd_iters},
              "readme_example1": README_TRAIN,
              "escape": {"runs": sz["escape_runs"], "alpha": sz["escape_alpha"]},
              "trap": {"runs": sz["trap_runs"], "alpha": trap_alpha,
                       "delta": trap_delta}}
    return commands, inputs
