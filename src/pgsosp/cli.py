"""Command-line surface.

Each subcommand reads one JSON config whose "command" key names it.
``load_config`` reads it once against ``_SCHEMAS``, the kind of every key
of every block: an unknown or missing key, or a value of the wrong kind,
fails there with its dotted path.  A key's range is part of its kind
(``positive``, ``fraction``, ``count`` ..., and for a word-valued key such
as ``mode`` or ``method`` its tuple of words), and a tagged block's tag
(a problem's ``kind``, an estimate's ``family``) picks the keys it takes
and needs, so an out-of-range value or a key of another tag fails there
too, before any work.  Handlers pass the typed values on, and the
library checks only relations between values.  A run is fixed by its
config (and, for ``classify``, by ``--theta``): the seed is a config key
like any other.  The result is canonical JSON (sorted keys, repr floats),
on stdout and, with ``--out``, in a file, so repeated invocations produce
byte-identical artifacts.

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
from .policy import FAMILY_TAGS, ExampleOnePiecewise, RegularityConstants, \
    TabularSoftmax, estimate_regularity, make_family
from .util import Block, OneOf, _at, _read, canonical_json, derive_rng, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK = 4


# ---------------------------------------------------------------------------
# Config schemas
# ---------------------------------------------------------------------------

_NOISE = Block(dict(kind="text", scale="number", direction="vector"),
               required=("kind",))

# The keys of each problem kind; example1 passes its keys to example_one_mdp,
# the synthetic kinds theirs to their trainer builders.  Only train takes a
# synthetic kind; the other commands read an MDP.
_MDP_PROBLEM = OneOf({
    "example1": Block(dict(kind="text", gamma="number", horizon="integer")),
    "mdp": Block(dict(kind="text", mdp=mdp_mod._MDP_BLOCK, mdp_path="text",
                      policy=FAMILY_TAGS)),
})
_PROBLEM = OneOf({
    **_MDP_PROBLEM.blocks,
    "quadratic_saddle": Block(dict(kind="text", eigenvalues="vector", noise=_NOISE)),
    "strongly_concave": Block(dict(kind="text", zeta="positive", theta_star="vector",
                                   noise_sigma="nonnegative")),
})

# The keys of each estimated family: example_one has a fixed three-state layout.
_GRID = dict(family="text", box="box", grid="plural")
_ESTIMATE = OneOf({
    "tabular_softmax": Block(dict(_GRID, n_states="count", n_actions="count"),
                             required=("n_states", "n_actions", "box", "grid")),
    "example_one": Block(_GRID, required=("box", "grid")),
}, key="family")

_SCHEMAS = {
    "constants": Block(dict(
        command="text",
        regularity=Block(dict(G="nonnegative", L="nonnegative", U="nonnegative",
                              W="nonnegative"),
                         required=("G", "L", "U")),
        estimate=_ESTIMATE,
        r_min="nonnegative", r_max="positive", gamma="fraction", h="count",
        p="count", epsilon="positive", chi="positive", delta="fraction",
        omega="positive",
        omega_from_fisher=Block(dict(problem=_MDP_PROBLEM, theta="vector"),
                                required=("problem", "theta")),
        iota="positive"),
        required=("command", "r_min", "r_max", "gamma", "h", "p")),
    "classify": Block(dict(
        command="text", seed="natural", problem=_MDP_PROBLEM, epsilon="positive",
        chi="positive", mode=("oracle", "estimated"), n="count"),
        required=("command", "problem", "epsilon", "chi")),
    "train": Block(dict(
        command="text", problem=_PROBLEM, theta0="vector", alpha="nonnegative",
        max_iters="natural", epsilon="positive", chi="positive", seed="natural",
        report_every="count", kappa_hat_0="count"),
        required=("command", "problem", "theta0", "alpha", "max_iters", "epsilon",
                  "chi", "seed")),
    "escape": Block(dict(
        command="text", seed="natural", runs="count", alpha="positive",
        contrast="flag", chi="positive", epsilon="positive", sigma_h0="positive",
        cap_factor="count", eigenvalues="vector", noise=_NOISE, iota_sq="positive"),
        required=("command", "seed")),
    "trap": Block(dict(
        command="text", seed="natural", runs="count", alpha="positive",
        zeta="positive", varrho="positive", noise_sigma="nonnegative",
        delta="fraction", theta0="vector"),
        required=("command", "seed")),
    "oracle-check": Block(dict(
        command="text", seed="natural", n_mdps="count", max_states="plural",
        max_actions="plural", max_horizon="plural"),
        required=("command", "seed")),
    "cnc": Block(dict(
        command="text", problem=_MDP_PROBLEM, theta="vector", u="vector", n="count",
        seed="natural", method=("auto", "enumerate", "mc")),
        required=("command", "problem", "theta", "n", "seed")),
}


def _load_json(path: str, where: str):
    """The JSON value in the file at path; its errors name where."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{where}: cannot read: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{where}: not valid JSON: {exc}") from None


def load_config(path: str, command: str) -> dict:
    """The config at path, read against the command's schema; a config for
    another command fails on its command key first."""
    cfg = _load_json(path, "config")
    if isinstance(cfg, dict) and cfg.get("command") != command:
        raise ConfigError(f"command: config says {cfg.get('command')!r} but "
                          f"subcommand is {command!r}")
    return _read(cfg, _SCHEMAS[command])


def _builder_keys(cfg: dict, *drop: str, path: str = "") -> dict:
    """The keys of a read config block at path as builder keywords, noise built."""
    keys = {key: value for key, value in cfg.items() if key not in drop}
    if "noise" in keys:
        keys["noise"] = _at(f"{path}.noise" if path else "noise",
                            trainer.NoiseSpec, **keys["noise"])
    return keys


def build_problem(spec: dict, path: str = "problem"):
    """(mdp, family) from a read _MDP_PROBLEM block at path.  An MDP file is
    read like an inline MDP, and its errors name mdp_path."""
    if spec["kind"] == "example1":
        return _at(path, mdp_mod.example_one_mdp, **_builder_keys(spec, "kind")), \
            ExampleOnePiecewise()
    if "mdp" in spec and "mdp_path" in spec:
        raise ConfigError(f"{path}.mdp_path: give 'mdp' or 'mdp_path', not both")
    if "mdp" in spec:
        where, values = f"{path}.mdp", spec["mdp"]
    elif "mdp_path" in spec:
        where = f"{path}.mdp_path"
        values = _read(_load_json(spec["mdp_path"], where), mdp_mod._MDP_BLOCK, where)
    else:
        raise ConfigError(f"{path}: mdp kind needs 'mdp' or 'mdp_path'")
    mdp = _at(where, mdp_mod.TabularMdp, **values)
    family = make_family(spec.get("policy", "tabular_softmax"),
                         mdp.n_states, mdp.n_actions)
    mdp_mod._shape_check(mdp, family)
    return mdp, family


def build_source(spec: dict):
    """Gradient source for training runs: MDP-backed or synthetic."""
    kind = spec["kind"]
    if kind in _MDP_PROBLEM.blocks:
        mdp, family = build_problem(spec)
        return trainer.MdpPolicySource(mdp, family)
    keys = _builder_keys(spec, "kind", path="problem")
    build = trainer.QuadraticSaddleSource if kind == "quadratic_saddle" \
        else trainer.StronglyConcaveSource
    try:
        return build(**keys)
    except ConfigError as exc:
        # A source names its own keys, which sit in the problem block here.
        raise ConfigError(f"problem.{exc}") from None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _emit(payload: dict, args, filename: str = "summary.json") -> None:
    text = canonical_json(payload)
    sys.stdout.write(text)
    if args.out:
        _write_out(args.out, filename, text)


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
        probe_mdp, probe_family = build_problem(fisher["problem"],
                                                "omega_from_fisher.problem")
        _check_length("omega_from_fisher.theta", fisher["theta"],
                      probe_family.param_dim)
        if cfg["p"] != probe_family.param_dim:
            raise ConfigError(f"p: the omega_from_fisher probe has family.param_dim "
                              f"= {probe_family.param_dim}, got p = {cfg['p']}")
    if "regularity" in cfg:
        if "estimate" in cfg:
            raise ConfigError("estimate: give 'regularity' or 'estimate', not both")
        reg = RegularityConstants(**{"W": None, **cfg["regularity"]})
    elif "estimate" in cfg:
        block = cfg["estimate"]
        family = make_family(block["family"], block.get("n_states"),
                             block.get("n_actions"))
        if cfg["p"] != family.param_dim:
            raise ConfigError(f"p: the estimated family has family.param_dim = "
                              f"{family.param_dim}, got p = {cfg['p']}")
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
    if cfg.get("mode", "oracle") == "oracle":
        for key in ("n", "seed"):
            if key in cfg:
                raise ConfigError(f"{key}: only the estimated mode reads it")
    theta = _parse_theta(args)
    mdp, family = build_problem(cfg["problem"])
    _check_length("theta", theta, family.param_dim)
    report = sosp.second_order_report(
        mdp, family, theta, **_builder_keys(cfg, "command", "problem"))
    _emit(report.to_json(), args, "classify.json")
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    source = build_source(cfg["problem"])
    config = trainer.TrainerConfig(**_builder_keys(cfg, "command", "problem", "theta0"))
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
    result = trainer.default_escape_benchmark(**_builder_keys(cfg, "command"))
    _emit(asdict(result), args, "escape.json")
    return EXIT_OK


def cmd_trap(cfg: dict, args) -> int:
    result = trainer.default_trap_benchmark(**_builder_keys(cfg, "command"))
    payload = asdict(result)
    payload["bound"] = 1.0 - result.delta * math.log(1.0 / result.delta)
    _emit(payload, args, "trap.json")
    return EXIT_OK


def cmd_oracle_check(cfg: dict, args) -> int:
    seed, n_mdps = cfg["seed"], cfg.get("n_mdps", 20)
    max_states, max_actions, max_horizon = (
        cfg.get(key, default) for key, default in
        (("max_states", 4), ("max_actions", 3), ("max_horizon", 6)))
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

        # One backward induction for the pair (theta, theta_b) and the
        # visitation rows gamma^t P_t at theta answer the value identities.
        theta_b = rng.uniform(-1.0, 1.0, family.param_dim)
        v, q = mdp_mod.value_stack(mdp, family, np.stack((theta, theta_b)))
        adv = q - v[:-1, ..., None]                     # A_t, (h, 2, S, A)
        pi = family.probs(theta)
        rows = mdp_mod._visitation(mdp, pi)

        # Performance difference in time-indexed form, exact at truncation h:
        # rho0 (V^a_0 - V^b_0) = sum_t sum_s rows_t(s) sum_a pi_a(a|s) A^b_t(s,a).
        lhs = float(mdp.rho0 @ (v[0, 0] - v[0, 1]))
        rhs = float(np.einsum("ts,sa,tsa->", rows, pi, adv[:, 1]))
        tally("perf_diff", abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)))

        mass = (1.0 - mdp.gamma ** h) / (1.0 - mdp.gamma)
        tally("occupancy_mass", abs(rows.sum() - mass) <= 1e-10)

        centered = np.einsum("sa,tsa->ts", pi, adv[:, 0])
        tally("advantage_centering", np.abs(centered).max() <= 1e-12)

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
    by_enumeration = method != "mc" and is_enumerable(mdp)
    if method == "enumerate" and not by_enumeration:
        # Checked before u is derived: above the cap that is a DP pass over 2p points.
        raise ConfigError("method 'enumerate' but the MDP exceeds the cap")
    if "u" in cfg:
        u = cfg["u"]
        _check_length("u", u, family.param_dim)
    else:
        hess = exact_hessian(mdp, family, theta)
        _, u = sosp.sym_eig_max(hess)
    payload = {"theta": theta.tolist(), "u": u.tolist(), "n": cfg["n"]}
    if by_enumeration:
        payload["enumeration"] = sosp.cnc_enumerate(mdp, family, theta, u)
    if method != "enumerate":
        mean, stderr = sosp.cnc_estimate(mdp, family, theta, u, cfg["n"],
                                          cfg["seed"])
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
        cmd.add_argument("--out", default=None,
                         help="directory to write the canonical JSON result to")
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
