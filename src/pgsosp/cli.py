"""Command-line surface.

One JSON config schema shared by all subcommands, discriminated by its
"command" key; unknown keys are rejected with their paths so typos in
experiment sweeps fail fast.  Outputs are deterministic given config and
seed (canonical JSON, fixed float formatting), so repeated invocations
produce byte-identical artifacts.

Exit codes: 0 success, 2 config/validation error, 3 I/O error,
4 acceptance-check failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import mdp as mdp_mod
from . import sosp, trainer
from .errors import ConfigError, PgsospError, PreconditionError
from .estimators import fisher_matrix
from .oracle import (
    exact_gradient,
    exact_hessian,
    exact_objective,
    fd_gradient,
    is_enumerable,
)
from .policy import ExampleOnePiecewise, RegularityConstants, TabularSoftmax, \
    estimate_regularity, make_family
from .util import canonical_json, derive_rng, format_float, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK = 4

_COMMANDS = ("constants", "classify", "train", "escape", "trap",
             "oracle-check", "cnc")


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing key {key!r}")


_SCHEMAS = {
    "constants": dict(
        required={"command", "r_min", "r_max", "gamma", "h", "p",
                  "epsilon", "delta"},
        allowed={"command", "seed", "regularity", "estimate", "r_min", "r_max",
                 "gamma", "h", "p", "epsilon", "chi", "delta", "omega",
                 "omega_from_fisher", "iota", "zeta", "varrho"},
    ),
    "classify": dict(
        required={"command", "problem", "epsilon", "chi"},
        allowed={"command", "seed", "problem", "epsilon", "chi", "mode", "n",
                 "raw_hessian"},
    ),
    "train": dict(
        required={"command", "problem", "theta0", "alpha", "max_iters",
                  "epsilon", "chi", "seed"},
        allowed={"command", "problem", "theta0", "alpha", "max_iters",
                 "epsilon", "chi", "delta", "batch_size", "seed",
                 "report_every", "kappa_hat_0"},
    ),
    "escape": dict(
        required={"command", "seed"},
        allowed={"command", "seed", "runs", "alpha", "contrast", "chi",
                 "epsilon", "sigma_h0", "cap_factor", "eigenvalues",
                 "noise", "iota_sq"},
    ),
    "trap": dict(
        required={"command", "seed"},
        allowed={"command", "seed", "runs", "alpha", "zeta", "varrho",
                 "noise_sigma", "delta", "relaxation", "theta0"},
    ),
    "oracle-check": dict(
        required={"command", "seed"},
        allowed={"command", "seed", "n_mdps", "max_states", "max_actions",
                 "max_horizon"},
    ),
    "cnc": dict(
        required={"command", "problem", "theta", "n", "seed"},
        allowed={"command", "problem", "theta", "u", "n", "seed", "method"},
    ),
}

# Keys each problem kind accepts besides "kind".
_KIND_KEYS = {
    "example1": {"gamma", "horizon"},
    "mdp": {"mdp", "mdp_path", "policy"},
    "quadratic_saddle": {"eigenvalues", "noise", "cubic"},
    "strongly_concave": {"zeta", "theta_star", "noise_sigma"},
}


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    got = cfg.get("command")
    if got != command:
        raise ConfigError(
            f"command: config says {got!r} but subcommand is {command!r}"
        )
    schema = _SCHEMAS[command]
    _check_keys(cfg, schema["allowed"], schema["required"], "config")
    return cfg


def _positive(cfg: dict, key: str, strict: bool = True):
    value = cfg[key]
    if not isinstance(value, (int, float)) or (value <= 0 if strict else value < 0):
        raise ConfigError(f"{key}: must be a positive number, got {value!r}")
    return value


def _problem_kind(spec: dict) -> str:
    """The kind of a problem block, after checking the block's keys for it."""
    _check_keys(spec, {"kind"}.union(*_KIND_KEYS.values()), {"kind"}, "problem")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(f"problem.kind: unknown kind {kind!r}")
    _check_keys(spec, {"kind"} | _KIND_KEYS[kind], set(), "problem")
    return kind


def build_problem(spec: dict):
    """(mdp, family) from a problem block; MDP-backed kinds only."""
    kind = _problem_kind(spec)
    if kind == "example1":
        mdp = mdp_mod.example_one_mdp(
            gamma=trainer._number("gamma", spec.get("gamma", 0.5)),
            horizon=trainer._number("horizon", spec.get("horizon", 1), int),
        )
        return mdp, ExampleOnePiecewise()
    if kind == "mdp":
        if "mdp" in spec:
            mdp = mdp_mod.mdp_from_dict(spec["mdp"])
        elif "mdp_path" in spec:
            mdp = mdp_mod.load_mdp(spec["mdp_path"])
        else:
            raise ConfigError("problem: mdp kind needs 'mdp' or 'mdp_path'")
        tag = spec.get("policy", "tabular_softmax")
        family = make_family(tag, mdp.n_states, mdp.n_actions)
        return mdp, family
    raise ConfigError(
        f"problem.kind: {kind!r} is not an MDP-backed problem"
    )


def _builder_keys(cfg: dict, *drop: str) -> dict:
    """The keys of a config block as builder keywords, noise parsed."""
    keys = {key: value for key, value in cfg.items() if key not in drop}
    if "noise" in keys:
        noise = keys["noise"]
        _check_keys(noise, {"kind", "scale", "direction", "frozen"}, {"kind"}, "noise")
        direction, frozen = noise.get("direction"), noise.get("frozen", False)
        if not isinstance(frozen, bool):
            raise ConfigError(f"noise.frozen: must be true or false, got {frozen!r}")
        keys["noise"] = trainer.NoiseSpec(
            kind=noise["kind"],
            scale=trainer._number("noise.scale", noise.get("scale", 1.0)),
            direction=None if direction is None
            else trainer._finite_list("noise.direction", direction),
            frozen=frozen)
    return keys


def build_source(spec: dict):
    """Gradient source for training runs: MDP-backed or synthetic."""
    kind = _problem_kind(spec)
    if kind in ("example1", "mdp"):
        mdp, family = build_problem(spec)
        return trainer.MdpPolicySource(mdp, family)
    if kind == "quadratic_saddle":
        keys = _builder_keys(spec, "kind")
        if "noise" in keys and keys["noise"].frozen:
            raise ConfigError("noise.frozen: train draws fresh noise at every "
                              "update; frozen noise is for escape only")
        return trainer.quadratic_saddle_source(**keys)
    if kind == "strongly_concave":
        return trainer.StronglyConcaveSource(**_builder_keys(spec, "kind"))


def _resolve_seed(cfg: dict, args) -> int:
    env = os.environ.get("SOSP_PG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"SOSP_PG_SEED: not an integer: {env!r}") from exc
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(cfg.get("seed", 0))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _emit(payload: dict, args, filename: str = "summary.json") -> None:
    if args.format == "csv":
        lines = ["key,value"]
        for key, value in sorted(_flatten(payload).items()):
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    else:
        text = canonical_json(payload)
    sys.stdout.write(text)
    if args.out:
        _write_out(args.out, filename, canonical_json(payload))


def _flatten(obj, prefix: str = ""):
    flat = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            flat.update(_flatten(value, f"{prefix}{key}."))
        return flat
    if isinstance(obj, list):
        for i, value in enumerate(obj):
            flat.update(_flatten(value, f"{prefix}{i}."))
        return flat
    key = prefix[:-1] if prefix else "value"
    if isinstance(obj, float):
        return {key: format_float(obj)}
    return {key: obj}


def _write_out(out_dir: str, name: str, text: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(f"cannot write to {out_dir}: {exc}") from exc


class _IoFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_constants(cfg: dict, args) -> int:
    if not (0.0 < cfg["gamma"] < 1.0):
        raise ConfigError(f"gamma: must be in (0, 1), got {cfg['gamma']!r}")
    if "regularity" in cfg:
        block = cfg["regularity"]
        _check_keys(block, {"G", "L", "U", "W"}, {"G", "L", "U"}, "regularity")
        reg = RegularityConstants(
            G=float(block["G"]), L=float(block["L"]), U=float(block["U"]),
            W=float(block["W"]) if "W" in block else None,
            domain_box=(), grid_spacing=float("nan"),
        )
    elif "estimate" in cfg:
        block = cfg["estimate"]
        _check_keys(block, {"family", "n_states", "n_actions", "box", "grid"},
                    {"family", "box", "grid"}, "estimate")
        family = make_family(block["family"], block.get("n_states"),
                             block.get("n_actions"))
        reg = estimate_regularity(family, block["box"], int(block["grid"]))
    else:
        raise ConfigError("config: need either 'regularity' or 'estimate'")

    omega = cfg.get("omega")
    fisher_lambda_min = None
    if "omega_from_fisher" in cfg:
        block = cfg["omega_from_fisher"]
        _check_keys(block, {"problem", "theta"}, {"problem", "theta"},
                    "omega_from_fisher")
        mdp, family = build_problem(block["problem"])
        report = fisher_matrix(mdp, family, np.array(block["theta"], float))
        fisher_lambda_min = report.lambda_min
        if omega is None:
            if report.lambda_min > 0.0:
                omega = report.lambda_min
            else:
                raise ConfigError(
                    "omega_from_fisher: the Fisher matrix is singular "
                    f"(lambda_min = {report.lambda_min!r}); tabular softmax "
                    "families are singular along logit shifts, so an "
                    "explicit 'omega' override is required"
                )

    constants = sosp.paper_constants(
        reg, r_min=_positive(cfg, "r_min", strict=False),
        r_max=_positive(cfg, "r_max"), gamma=cfg["gamma"],
        h=int(cfg["h"]), p=int(cfg["p"]), chi=cfg.get("chi"),
        omega=omega, zeta=cfg.get("zeta"),
        varrho=cfg.get("varrho"), iota=cfg.get("iota"),
    )
    payload = constants.to_json()
    payload["epsilon"] = cfg["epsilon"]
    payload["delta"] = cfg["delta"]
    if fisher_lambda_min is not None:
        payload["fisher_lambda_min"] = fisher_lambda_min

    alpha = kappa_hat = big_k = kappa_0 = None
    if constants.omega is not None and constants.r_min > 0:
        alpha = sosp.theorem_step_size(
            cfg["epsilon"], constants.chi, constants.r_min, constants.omega,
            constants.sigma, constants.ell,
        )
        kappa_0 = sosp.trap_budget(alpha, cfg["delta"])
        if sosp.escape_budget_admissible(alpha, constants.sigma_h0):
            kappa_hat = sosp.escape_budget(alpha, constants.sigma_h0,
                                           constants.chi, cfg["epsilon"])
        if constants.iota is not None:
            big_k = sosp.iteration_budget(
                alpha, constants.r_max, constants.gamma, constants.iota,
                constants.chi, cfg["epsilon"], cfg["delta"],
            )
    payload.update({"alpha": alpha, "K": big_k, "kappa_hat_0": kappa_hat,
                    "kappa_0": kappa_0})
    _emit(payload, args, "constants.json")
    return EXIT_OK


def _vector(value, key: str, dim: int) -> np.ndarray:
    if not (isinstance(value, (list, np.ndarray)) and len(value) == dim
            and all(isinstance(x, (int, float)) for x in value)):
        raise ConfigError(f"{key}: expected {dim} numbers, got {value!r}")
    return np.array(value, dtype=float)


def _parse_theta(args) -> np.ndarray:
    if args.theta is not None:
        try:
            return np.array([float(x) for x in args.theta.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--theta: malformed vector {args.theta!r}") from exc
    if args.theta_csv is not None:
        try:
            with open(args.theta_csv, "r", encoding="utf-8") as fh:
                row = fh.readline().strip()
        except OSError as exc:
            raise _IoFailure(str(exc)) from exc
        try:
            return np.array([float(x) for x in row.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--theta-csv: malformed row {row!r}") from exc
    raise ConfigError("classify needs --theta or --theta-csv")


def cmd_classify(cfg: dict, args) -> int:
    mdp, family = build_problem(cfg["problem"])
    epsilon = trainer._number("epsilon", cfg["epsilon"])
    chi = trainer._number("chi", cfg["chi"])
    mode, n = cfg.get("mode", "oracle"), cfg.get("n")
    if mode == "estimated" and n is not None:
        n = trainer._number("n", n, int)
    theta = _vector(_parse_theta(args), "theta", family.param_dim)
    report = sosp.second_order_report(
        mdp, family, theta, epsilon, chi, mode=mode, n=n,
        seed=_resolve_seed(cfg, args) if mode == "estimated" else None,
    )
    payload = report.to_json()
    if cfg.get("raw_hessian") and mode == "estimated":
        payload["raw_hessian_mean"] = report.raw_hessian.tolist()
    _emit(payload, args, "classify.json")
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    source = build_source(cfg["problem"])
    number = trainer._number
    config = trainer.TrainerConfig(
        alpha=number("alpha", cfg["alpha"]),
        max_iters=number("max_iters", cfg["max_iters"], int),
        epsilon=number("epsilon", cfg["epsilon"]),
        chi=number("chi", cfg["chi"]),
        delta=number("delta", cfg.get("delta", 0.1)),
        batch_size=number("batch_size", cfg.get("batch_size", 1), int),
        seed=_resolve_seed(cfg, args),
        report_every=number("report_every", cfg.get("report_every", 1), int),
        kappa_hat_0=number("kappa_hat_0", cfg.get("kappa_hat_0", 1), int),
    )
    theta0 = _vector(cfg["theta0"], "theta0", source.dim)
    record = trainer.run(source, config, theta0)
    payload = record.summary()
    _emit(payload, args, "summary.json")
    if args.out:
        try:
            write_csv(os.path.join(args.out, "trace.csv"),
                      record.trace_header(source.dim), record.trace_rows())
        except OSError as exc:
            raise _IoFailure(f"cannot write to {args.out}: {exc}") from exc
    return EXIT_OK


def cmd_escape(cfg: dict, args) -> int:
    result = trainer.default_escape_benchmark(seed=_resolve_seed(cfg, args),
                                              **_builder_keys(cfg, "command", "seed"))
    _emit(result.to_json(), args, "escape.json")
    return EXIT_OK


def cmd_trap(cfg: dict, args) -> int:
    result = trainer.default_trap_benchmark(seed=_resolve_seed(cfg, args),
                                            **_builder_keys(cfg, "command", "seed"))
    payload = result.to_json()
    payload["bound"] = 1.0 - result.delta * math.log(1.0 / result.delta)
    _emit(payload, args, "trap.json")
    return EXIT_OK


def _at_least(cfg: dict, key: str, default: int, low: int) -> int:
    value = cfg.get(key, default)
    if not isinstance(value, (int, float)) or not low <= value < math.inf:
        raise ConfigError(f"{key}: must be at least {low}, got {value!r}")
    return int(value)


def cmd_oracle_check(cfg: dict, args) -> int:
    seed = _resolve_seed(cfg, args)
    n_mdps = _at_least(cfg, "n_mdps", 20, 1)
    max_states = _at_least(cfg, "max_states", 4, 2)
    max_actions = _at_least(cfg, "max_actions", 3, 2)
    max_horizon = _at_least(cfg, "max_horizon", 6, 2)
    checks = dict.fromkeys(
        ("gradient_two_way", "gradient_fd", "perf_diff", "occupancy_mass",
         "advantage_centering", "fisher_psd"), 0)
    failures = dict.fromkeys(checks, 0)

    def tally(name: str, ok) -> None:
        checks[name] += 1
        failures[name] += 0 if ok else 1

    for i in range(n_mdps):
        rng = derive_rng(seed, i)
        n_s = int(rng.integers(2, max_states + 1))
        n_a = int(rng.integers(2, max_actions + 1))
        h = int(rng.integers(2, max_horizon + 1))
        mdp = mdp_mod.random_mdp(seed * 1000 + i, n_states=n_s, n_actions=n_a,
                                 horizon=h, gamma=0.5)
        family = TabularSoftmax(n_s, n_a)
        theta = rng.uniform(-1.0, 1.0, family.param_dim)

        oracle = exact_gradient(mdp, family, theta)
        scale = max(1.0, float(np.linalg.norm(oracle.visitation)))
        if oracle.enumeration is not None:
            tally("gradient_two_way", np.linalg.norm(
                oracle.enumeration - oracle.visitation) <= 1e-8 * scale)

        fd = fd_gradient(lambda t: exact_objective(mdp, family, t), theta)
        tally("gradient_fd", np.linalg.norm(fd - oracle.visitation) <= 1e-4 * scale)

        theta_b = rng.uniform(-1.0, 1.0, family.param_dim)
        lhs, rhs = mdp_mod.performance_difference_check(mdp, family, theta, theta_b)
        tally("perf_diff", abs(lhs - rhs) <= mdp_mod.perf_diff_tail_tolerance(mdp))

        d = mdp_mod.occupancy(mdp, family, theta)
        tally("occupancy_mass", abs(d.sum() - mdp_mod.occupancy_mass(mdp)) <= 1e-10)

        _, _, adv = mdp_mod.value_functions(mdp, family, theta)
        pi = mdp_mod.policy_matrix(mdp, family, theta)
        tally("advantage_centering", np.abs((pi * adv).sum(axis=1)).max() <= 1e-12)

        tally("fisher_psd", fisher_matrix(mdp, family, theta).lambda_min >= -1e-10)

    payload = {
        "n_mdps": n_mdps,
        "identities": {
            name: {"checked": checks[name], "failed": failures[name],
                   "pass": failures[name] == 0}
            for name in checks
        },
        "all_pass": all(v == 0 for v in failures.values()),
    }
    _emit(payload, args, "oracle_check.json")
    return EXIT_OK if payload["all_pass"] else EXIT_CHECK


def cmd_cnc(cfg: dict, args) -> int:
    mdp, family = build_problem(cfg["problem"])
    theta = _vector(cfg["theta"], "theta", family.param_dim)
    method = cfg.get("method", "auto")
    if method not in ("auto", "enumerate", "mc"):
        raise ConfigError(f"method: expected auto, enumerate or mc, got {method!r}")
    seed = _resolve_seed(cfg, args)
    if "u" in cfg:
        u = _vector(cfg["u"], "u", family.param_dim)
    else:
        hess = exact_hessian(mdp, family, theta)
        _, u = sosp.sym_eig_max(hess)
    payload = {"theta": theta.tolist(), "u": u.tolist(), "n": int(cfg["n"])}
    if method in ("auto", "enumerate") and is_enumerable(mdp):
        payload["enumeration"] = sosp.cnc_enumerate(mdp, family, theta, u)
    elif method == "enumerate":
        raise ConfigError("method 'enumerate' but the MDP exceeds the cap")
    if method in ("auto", "mc"):
        mean, stderr = sosp.cnc_estimate(mdp, family, theta, u, int(cfg["n"]),
                                         seed)
        payload["mean_sq_projection"] = mean
        payload["std_error"] = stderr
        payload["iota_sq_floor"] = sosp.iota_sq_floor(mean, stderr)
    _emit(payload, args, "cnc.json")
    return EXIT_OK


_HANDLERS = {
    "constants": cmd_constants,
    "classify": cmd_classify,
    "train": cmd_train,
    "escape": cmd_escape,
    "trap": cmd_trap,
    "oracle-check": cmd_oracle_check,
    "cnc": cmd_cnc,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgsosp",
        description="Policy gradient with second-order stationarity diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override config seed")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "classify":
            cmd.add_argument("--theta", default=None,
                             help="inline comma-separated parameter vector")
            cmd.add_argument("--theta-csv", default=None,
                             help="file whose first line is the parameter vector")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        return _HANDLERS[args.command](cfg, args)
    except (ConfigError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PgsospError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
