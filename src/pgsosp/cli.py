"""Command-line surface.

Each subcommand reads one JSON config whose "command" key names it.
``load_config`` reads it once against ``_SCHEMAS``, the kind of every key
of every block: an unknown or missing key, or a value of the wrong kind,
fails there with its dotted path.  Handlers pass the typed values on, and
the library code that uses them checks their ranges.  Outputs are
deterministic given config and seed (canonical JSON, fixed float
formatting), so repeated invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 config/validation error, 3 I/O error,
4 acceptance-check failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import mdp as mdp_mod
from . import sosp, trainer
from .errors import ConfigError, PgsospError, PreconditionError
from .estimators import fisher_matrix
from .oracle import (
    _gradient_enumeration,
    _gradient_visitation,
    _route_gap,
    exact_hessian,
    exact_objective,
    fd_gradient,
    is_enumerable,
)
from .policy import ExampleOnePiecewise, RegularityConstants, TabularSoftmax, \
    estimate_regularity, make_family
from .util import Block, OneOf, _read, canonical_json, derive_rng, format_float, \
    json_ready, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK = 4


# ---------------------------------------------------------------------------
# Config schemas
# ---------------------------------------------------------------------------

_NOISE = Block(dict(kind="text", scale="number", direction="vector", frozen="flag"),
               required=("kind",))

# The keys of each problem kind; example1 passes its keys to example_one_mdp,
# the synthetic kinds theirs to their trainer builders.
_PROBLEM = OneOf({
    "example1": Block(dict(kind="text", gamma="number", horizon="integer")),
    "mdp": Block(dict(kind="text", mdp=mdp_mod._MDP_BLOCK, mdp_path="text",
                      policy="text")),
    "quadratic_saddle": Block(dict(kind="text", eigenvalues="vector", noise=_NOISE,
                                   cubic="number")),
    "strongly_concave": Block(dict(kind="text", zeta="number", theta_star="vector",
                                   noise_sigma="number")),
})

_SCHEMAS = {
    "constants": Block(dict(
        command="text",
        regularity=Block(dict(G="number", L="number", U="number", W="number"),
                         required=("G", "L", "U")),
        estimate=Block(dict(family="text", n_states="integer", n_actions="integer",
                            box="box", grid="integer"),
                       required=("family", "box", "grid")),
        r_min="number", r_max="number", gamma="number", h="integer", p="integer",
        epsilon="number", chi="number", delta="number", omega="number",
        omega_from_fisher=Block(dict(problem=_PROBLEM, theta="vector"),
                                required=("problem", "theta")),
        iota="number"),
        required=("command", "r_min", "r_max", "gamma", "h", "p")),
    "classify": Block(dict(
        command="text", seed="integer", problem=_PROBLEM, epsilon="number",
        chi="number", mode="text", n="integer", raw_hessian="flag"),
        required=("command", "problem", "epsilon", "chi")),
    "train": Block(dict(
        command="text", problem=_PROBLEM, theta0="vector", alpha="number",
        max_iters="integer", epsilon="number", chi="number",
        batch_size="integer", seed="integer", report_every="integer",
        kappa_hat_0="integer"),
        required=("command", "problem", "theta0", "alpha", "max_iters", "epsilon",
                  "chi", "seed")),
    "escape": Block(dict(
        command="text", seed="integer", runs="integer", alpha="number",
        contrast="flag", chi="number", epsilon="number", sigma_h0="number",
        cap_factor="integer", eigenvalues="vector", noise=_NOISE, iota_sq="number"),
        required=("command", "seed")),
    "trap": Block(dict(
        command="text", seed="integer", runs="integer", alpha="number", zeta="number",
        varrho="number", noise_sigma="number", delta="number", relaxation="number",
        theta0="vector"),
        required=("command", "seed")),
    "oracle-check": Block(dict(
        command="text", seed="integer", n_mdps="integer", max_states="integer",
        max_actions="integer", max_horizon="integer"),
        required=("command", "seed")),
    "cnc": Block(dict(
        command="text", problem=_PROBLEM, theta="vector", u="vector", n="integer",
        seed="integer", method="text"),
        required=("command", "problem", "theta", "n", "seed")),
}


def load_config(path: str, command: str) -> dict:
    """The config at path, read against the command's schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    got = cfg.get("command")
    if got != command:
        raise ConfigError(f"command: config says {got!r} but subcommand is {command!r}")
    return _read(cfg, _SCHEMAS[command])


def _builder_keys(cfg: dict, *drop: str) -> dict:
    """The keys of a read config block as builder keywords, noise built."""
    keys = {key: value for key, value in cfg.items() if key not in drop}
    if "noise" in keys:
        keys["noise"] = trainer.NoiseSpec(**keys["noise"])
    return keys


def build_problem(spec: dict):
    """(mdp, family) from a read problem block; MDP-backed kinds only."""
    kind = spec["kind"]
    if kind == "example1":
        return mdp_mod.example_one_mdp(**_builder_keys(spec, "kind")), \
            ExampleOnePiecewise()
    if kind == "mdp":
        if "mdp" in spec and "mdp_path" in spec:
            raise ConfigError("problem.mdp_path: give 'mdp' or 'mdp_path', not both")
        if "mdp" in spec:
            mdp = mdp_mod._mdp_at(spec["mdp"], "problem.mdp")
        elif "mdp_path" in spec:
            try:
                mdp = mdp_mod.load_mdp(spec["mdp_path"])
            except OSError as exc:
                raise ConfigError(f"problem.mdp_path: cannot read: {exc}") from None
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"problem.mdp_path: not valid JSON: {exc}") from None
        else:
            raise ConfigError("problem: mdp kind needs 'mdp' or 'mdp_path'")
        return mdp, make_family(spec.get("policy", "tabular_softmax"),
                                mdp.n_states, mdp.n_actions)
    raise ConfigError(f"problem.kind: {kind!r} is not an MDP-backed problem")


def build_source(spec: dict):
    """Gradient source for training runs: MDP-backed or synthetic."""
    kind = spec["kind"]
    if kind in ("example1", "mdp"):
        mdp, family = build_problem(spec)
        return trainer.MdpPolicySource(mdp, family)
    keys = _builder_keys(spec, "kind")
    if kind == "quadratic_saddle":
        if "noise" in keys and keys["noise"].frozen:
            raise ConfigError("noise.frozen: train draws fresh noise at every "
                              "update; frozen noise is for escape only")
        return trainer.quadratic_saddle_source(**keys)
    return trainer.StronglyConcaveSource(**keys)


def _resolve_seed(cfg: dict, args) -> int | None:
    """--seed, else the config's seed; None when neither is given."""
    seed = cfg.get("seed") if args.seed is None else args.seed
    if seed is not None and seed < 0:
        raise ConfigError(f"seed: must be at least 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _emit(payload: dict, args, filename: str = "summary.json") -> None:
    if args.format == "csv":
        text = "".join(f"{key},{value}\n" for key, value
                       in [("key", "value"),
                           *sorted(_flatten(json_ready(payload)).items())])
    else:
        text = canonical_json(payload)
    sys.stdout.write(text)
    if args.out:
        _write_out(args.out, filename,
                   text if args.format == "json" else canonical_json(payload))


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, (dict, list)):
        flat = {}
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            flat.update(_flatten(value, f"{prefix}{key}."))
        return flat
    key = prefix[:-1] if prefix else "value"
    if isinstance(obj, float):
        return {key: format_float(obj)}
    return {key: "" if obj is None else obj}


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
    fisher = cfg.get("omega_from_fisher")
    if "omega" in cfg or fisher:
        for key in ("epsilon", "delta"):
            if key not in cfg:
                raise ConfigError(f"{key}: required with omega or omega_from_fisher, "
                                  "since alpha, K, kappa_hat_0 and kappa_0 read it")
    if fisher:
        # The probe's problem is built, and so checked, before any work.
        probe_mdp, probe_family = build_problem(fisher["problem"])
        _check_length("omega_from_fisher.theta", fisher["theta"],
                      probe_family.param_dim)
    if "regularity" in cfg:
        reg = RegularityConstants(**{"W": None, **cfg["regularity"]})
    elif "estimate" in cfg:
        block = cfg["estimate"]
        for key in ("n_states", "n_actions"):
            if block["family"] == "example_one" and key in block:
                raise ConfigError(f"estimate.{key}: the example_one family has "
                                  "a fixed three-state layout")
        family = make_family(block["family"], block.get("n_states"),
                             block.get("n_actions"))
        reg = estimate_regularity(family, block["box"], block["grid"])
    else:
        raise ConfigError("config: need either 'regularity' or 'estimate'")

    omega = cfg.get("omega")
    fisher_lambda_min = None
    if fisher:
        report = fisher_matrix(probe_mdp, probe_family, fisher["theta"])
        fisher_lambda_min = report.lambda_min
        if omega is None:
            # A floor of at most 1e-12 lambda_max is eigensolver rounding residue.
            if report.lambda_min > 1e-12 * np.linalg.eigvalsh(report.matrix)[-1]:
                omega = report.lambda_min
            else:
                raise ConfigError(
                    "omega_from_fisher: the Fisher matrix is singular "
                    f"(lambda_min = {report.lambda_min!r}); tabular softmax "
                    "families are singular along logit shifts, so an "
                    "explicit 'omega' override is required"
                )

    constants = sosp.paper_constants(
        reg, r_min=cfg["r_min"], r_max=cfg["r_max"], gamma=cfg["gamma"],
        h=cfg["h"], p=cfg["p"], chi=cfg.get("chi"), omega=omega, iota=cfg.get("iota"),
    )
    payload = asdict(constants)
    payload.update((key, cfg[key]) for key in ("epsilon", "delta") if key in cfg)
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


def _check_length(key: str, vector: np.ndarray, dim: int) -> None:
    if len(vector) != dim:
        raise ConfigError(f"{key}: must be {dim} numbers, got {vector.tolist()}")


def _parse_theta(args) -> np.ndarray:
    """The classify point from --theta."""
    if args.theta is None:
        raise ConfigError("classify needs --theta")
    try:
        theta = np.array([float(x) for x in args.theta.split(",")])
    except ValueError:
        theta = np.array([math.nan])
    if not np.isfinite(theta).all():
        raise ConfigError(f"--theta: must be finite numbers separated by commas, "
                          f"got {args.theta!r}")
    return theta


def cmd_classify(cfg: dict, args) -> int:
    if cfg.get("mode") != "estimated":
        for key in ("n", "seed", "raw_hessian"):
            if key in cfg:
                raise ConfigError(f"{key}: only the estimated mode reads it")
        if args.seed is not None:
            raise ConfigError("--seed: only the estimated mode draws")
    mdp, family = build_problem(cfg["problem"])
    theta = _parse_theta(args)
    _check_length("theta", theta, family.param_dim)
    report = sosp.second_order_report(
        mdp, family, theta, **_builder_keys(cfg, "command", "seed", "problem",
                                            "raw_hessian"),
        seed=_resolve_seed(cfg, args),
    )
    payload = report.to_json()
    if cfg.get("raw_hessian"):
        payload["raw_hessian_mean"] = report.raw_hessian.tolist()
    _emit(payload, args, "classify.json")
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    source = build_source(cfg["problem"])
    config = trainer.TrainerConfig(
        seed=_resolve_seed(cfg, args),
        **_builder_keys(cfg, "command", "problem", "theta0", "seed"))
    record = trainer.run(source, config, cfg["theta0"])
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
    _emit(asdict(result), args, "escape.json")
    return EXIT_OK


def cmd_trap(cfg: dict, args) -> int:
    result = trainer.default_trap_benchmark(seed=_resolve_seed(cfg, args),
                                            **_builder_keys(cfg, "command", "seed"))
    payload = asdict(result)
    payload["bound"] = 1.0 - result.delta * math.log(1.0 / result.delta)
    _emit(payload, args, "trap.json")
    return EXIT_OK


def cmd_oracle_check(cfg: dict, args) -> int:
    seed = _resolve_seed(cfg, args)
    sizes = {}
    for key, default, low in (("n_mdps", 20, 1), ("max_states", 4, 2),
                              ("max_actions", 3, 2), ("max_horizon", 6, 2)):
        sizes[key] = cfg.get(key, default)
        if sizes[key] < low:
            raise ConfigError(f"{key}: must be at least {low}, got {sizes[key]!r}")
    n_mdps, max_states, max_actions, max_horizon = sizes.values()
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

        # The two gradient routes are called here, not through exact_gradient,
        # which raises on a disagreement that this report must count.
        grad = _gradient_visitation(mdp, family, theta)
        if is_enumerable(mdp):
            gap, tol = _route_gap(_gradient_enumeration(mdp, family, theta), grad)
            tally("gradient_two_way", gap <= tol)

        fd = fd_gradient(lambda t: exact_objective(mdp, family, t), theta)
        scale = max(1.0, float(np.linalg.norm(grad)))
        tally("gradient_fd", np.linalg.norm(fd - grad) <= 1e-4 * scale)

        theta_b = rng.uniform(-1.0, 1.0, family.param_dim)
        lhs, rhs = mdp_mod.performance_difference_check(mdp, family, theta, theta_b)
        tally("perf_diff", abs(lhs - rhs) <= mdp_mod.perf_diff_tail_tolerance(mdp))

        d = mdp_mod.occupancy(mdp, family, theta)
        tally("occupancy_mass", abs(d.sum() - mdp_mod.occupancy_mass(mdp)) <= 1e-10)

        _, _, adv = mdp_mod.value_functions(mdp, family, theta)
        pi = family.probs(theta)
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
    theta = cfg["theta"]
    _check_length("theta", theta, family.param_dim)
    method = cfg.get("method", "auto")
    if method not in ("auto", "enumerate", "mc"):
        raise ConfigError(f"method: expected auto, enumerate or mc, got {method!r}")
    seed = _resolve_seed(cfg, args)
    if "u" in cfg:
        u = cfg["u"]
        _check_length("u", u, family.param_dim)
    else:
        hess = exact_hessian(mdp, family, theta)
        _, u = sosp.sym_eig_max(hess)
    payload = {"theta": theta.tolist(), "u": u.tolist(), "n": cfg["n"]}
    if method in ("auto", "enumerate") and is_enumerable(mdp):
        payload["enumeration"] = sosp.cnc_enumerate(mdp, family, theta, u)
    elif method == "enumerate":
        raise ConfigError("method 'enumerate' but the MDP exceeds the cap")
    if method in ("auto", "mc"):
        mean, stderr = sosp.cnc_estimate(mdp, family, theta, u, cfg["n"], seed)
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
    for name in _SCHEMAS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=None, help="output directory")
        if "seed" in _SCHEMAS[name].kinds:
            cmd.add_argument("--seed", type=int, default=None,
                             help="override config seed")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "classify":
            cmd.add_argument("--theta", default=None,
                             help="inline comma-separated parameter vector")
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
