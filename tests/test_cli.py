import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import pgsosp
from conftest import mdp_json
from pgsosp import cli, oracle, trainer, util
from pgsosp.cli import main
from pgsosp.util import canonical_json


def _json_leaves(obj, prefix=""):
    """(dotted key, value) of every leaf of a parsed JSON payload."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [leaf for key, value in items
                for leaf in _json_leaves(value, f"{prefix}{key}.")]
    return [(prefix[:-1], obj)]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_BANDIT_MDP = {"n_states": 1, "n_actions": 2, "transition": [[[1.0], [1.0]]],
               "reward": [[1.0, 0.0]], "rho0": [1.0], "gamma": 0.5, "horizon": 1,
               "r_min": 0.0, "r_max": 1.0}
CONSTANTS_CFG = {
    "command": "constants",
    "regularity": {"G": 1.0, "L": 1.0, "U": 1.0, "W": 1.0},
    "r_min": 1.0, "r_max": 1.0, "gamma": 0.5, "h": 2, "p": 2,
    "epsilon": 0.1, "delta": 0.1, "omega": 1.0, "iota": 1.0,
}


class TestConstantsCommand:
    def test_epsilon_and_delta_only_with_omega(self, tmp_path, capsys, monkeypatch):
        base = {key: value for key, value in CONSTANTS_CFG.items()
                if key not in ("omega", "epsilon", "delta")}
        code, out, _ = run_cli(capsys, ["constants", "--config",
                                        write_config(tmp_path, "c.json", base)])
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] is None and "delta" not in payload

        def no_work(*args, **kwargs):
            raise AssertionError("the constants were computed")

        monkeypatch.setattr(cli.sosp, "paper_constants", no_work)
        fisher = {"problem": {"kind": "example1"}, "theta": [0.2, 0.2]}
        for omega in ({"omega": 1.0}, {"omega_from_fisher": fisher}):
            for missing, kept in (("epsilon", {"delta": 0.1}),
                                  ("delta", {"epsilon": 0.1})):
                path = write_config(tmp_path, "c.json", {**base, **omega, **kept})
                code, out, err = run_cli(capsys, ["constants", "--config", path])
                assert (code, out) == (2, "")
                assert err.startswith(f"error: {missing}: ")

    def test_sample_config_emits_ell(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CONSTANTS_CFG)
        code, out, _ = run_cli(capsys, ["constants", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["ell"] == 12.0

    def test_bad_gamma_named(self, tmp_path, capsys):
        bad = dict(CONSTANTS_CFG, gamma=1.2)
        cfg = write_config(tmp_path, "c.json", bad)
        code, _, err = run_cli(capsys, ["constants", "--config", cfg])
        assert code == 2
        assert "gamma" in err

    def test_chi_derived_from_w(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CONSTANTS_CFG)
        code, out, _ = run_cli(capsys, ["constants", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["chi_derived"] is True
        assert payload["chi"] == pytest.approx(62.0 / 3.0)

    def test_explicit_chi_not_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(CONSTANTS_CFG, chi=1.0))
        code, out, _ = run_cli(capsys, ["constants", "--config", cfg])
        payload = json.loads(out)
        assert payload["chi_derived"] is False
        assert payload["chi"] == 1.0

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(CONSTANTS_CFG, typo=1))
        code, _, err = run_cli(capsys, ["constants", "--config", cfg])
        assert code == 2
        assert "typo" in err

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CONSTANTS_CFG)
        code, _, err = run_cli(capsys, ["classify", "--config", cfg,
                                        "--theta", "0,0"])
        assert code == 2
        assert "command" in err

    def test_without_iota_k_is_null(self, tmp_path, capsys):
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "iota"}
        path = write_config(tmp_path, "c.json", cfg)
        code, out, _ = run_cli(capsys, ["constants", "--config", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["K"] is None and payload["alpha"] is not None

    @pytest.mark.parametrize("extra, key", [
        # Out-of-range inputs once printed constants from them and exited 0.
        # iota's kind is read at load, before r_min is related to r_max.
        (dict(r_min=5.0, r_max=1.0, chi=-1.0, iota=-2.0), "iota"),
        (dict(regularity={"G": -1.0, "L": -1.0, "U": -1.0, "W": -5.0},
              omega=-1.0, r_min=0.0), "regularity.G"),
        (dict(r_min=1.5), "r_min"),
        (dict(regularity={"G": 1.0, "L": -1.0, "U": 1.0, "W": 1.0}), "regularity.L"),
        (dict(regularity={"G": 1.0, "L": 1.0, "U": -0.5, "W": 1.0}), "regularity.U"),
        (dict(regularity={"G": 1.0, "L": 1.0, "U": 1.0, "W": -1.0}), "regularity.W"),
        (dict(chi=0.0), "chi"), (dict(chi=-1.0), "chi"),
        (dict(omega=0.0), "omega"), (dict(iota=0.0), "iota"),
    ], ids=["r_min-chi-iota", "bounds-omega", "r_min-above-r_max", "L", "U", "W",
            "chi-0", "chi-negative", "omega-0", "iota-0"])
    def test_out_of_range_input_exits_2(self, tmp_path, capsys, extra, key):
        path = write_config(tmp_path, "c.json", dict(CONSTANTS_CFG, **extra))
        code, out, err = run_cli(capsys, ["constants", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}: "), err

    @pytest.mark.parametrize("key, value", [("n_states", 7), ("n_actions", 9)])
    def test_example_one_estimate_rejects_a_layout(self, tmp_path, capsys,
                                                   monkeypatch, key, value):
        def no_work(*args, **kwargs):
            raise AssertionError("the grid was estimated")

        monkeypatch.setattr(cli, "estimate_regularity", no_work)
        estimate = {"family": "example_one", "box": [[-1.0, 1.0]] * 2, "grid": 5,
                    key: value}
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "regularity"}
        path = write_config(tmp_path, "c.json", dict(cfg, estimate=estimate))
        code, out, err = run_cli(capsys, ["constants", "--config", path])
        assert (code, out) == (2, "")
        assert err == f"error: estimate: unknown key {key!r}\n"

    def test_regularity_and_estimate_together_exit_2(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the grid was estimated")

        monkeypatch.setattr(cli, "estimate_regularity", no_work)
        estimate = {"family": "tabular_softmax", "n_states": 1, "n_actions": 2,
                    "box": [[-5.0, 5.0], [-5.0, 5.0]], "grid": 7}
        path = write_config(tmp_path, "c.json", dict(CONSTANTS_CFG, estimate=estimate))
        code, out, err = run_cli(capsys, ["constants", "--config", path])
        assert (code, out) == (2, "")
        assert err == "error: estimate: give 'regularity' or 'estimate', not both\n"

    @pytest.mark.parametrize("p", [2, 5])
    def test_p_other_than_the_estimated_dimension_exits_2(self, tmp_path, capsys,
                                                         monkeypatch, p):
        # S2 A2 tabular softmax has 4 parameters; p scales sigma_h0.
        def no_work(*args, **kwargs):
            raise AssertionError("the grid was estimated")

        monkeypatch.setattr(cli, "estimate_regularity", no_work)
        estimate = {"family": "tabular_softmax", "n_states": 2, "n_actions": 2,
                    "box": [[-1.0, 1.0]] * 4, "grid": 3}
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "regularity"}
        path = write_config(tmp_path, "c.json", dict(cfg, estimate=estimate, p=p))
        code, out, err = run_cli(capsys, ["constants", "--config", path])
        assert (code, out) == (2, "")
        assert err == (f"error: p: the estimated family has family.param_dim = 4, "
                       f"got p = {p}\n")

    @pytest.mark.parametrize("p", [2, 5])
    def test_p_other_than_the_probe_dimension_exits_2(self, tmp_path, capsys,
                                                      monkeypatch, p):
        # The omega_from_fisher probe on S2 A2 tabular softmax has 4
        # parameters; p scales sigma_h0.
        from pgsosp.mdp import random_mdp

        def no_work(*args, **kwargs):
            raise AssertionError("the Fisher matrix was computed")

        monkeypatch.setattr(cli, "fisher_matrix", no_work)
        mdp = random_mdp(35, n_states=2, n_actions=2, horizon=5, gamma=0.9)
        cfg = dict(CONSTANTS_CFG, p=p, omega_from_fisher={
            "problem": {"kind": "mdp", "mdp": mdp_json(mdp)},
            "theta": [0.1, 0.2, 0.3, 0.4]})
        path = write_config(tmp_path, "c.json", cfg)
        code, out, err = run_cli(capsys, ["constants", "--config", path])
        assert (code, out) == (2, "")
        assert err == (f"error: p: the omega_from_fisher probe has "
                       f"family.param_dim = 4, got p = {p}\n")

    @pytest.mark.parametrize("problem, message", [
        ({"kind": "example1", "gamma": 1.5},
         "omega_from_fisher.problem: gamma: must be in (0, 1), got 1.5"),
        ({"kind": "mdp", "mdp": _BANDIT_MDP, "policy": "gaussian"},
         "omega_from_fisher.problem.policy: must be one of tabular_softmax, "
         "example_one, got 'gaussian'"),
        ({"kind": "mdp", "mdp": {**_BANDIT_MDP, "reward": [[1.0]]}},
         "omega_from_fisher.problem.mdp: reward: expected shape (1, 2), got (1, 1)"),
        ({"kind": "mdp"},
         "omega_from_fisher.problem: mdp kind needs 'mdp' or 'mdp_path'"),
    ], ids=["example1-gamma", "policy", "mdp-reward", "no-mdp"])
    def test_probe_problem_errors_name_the_probe_block(self, tmp_path, capsys,
                                                        problem, message):
        cfg = dict(CONSTANTS_CFG, omega_from_fisher={"problem": problem,
                                                     "theta": [0.3, 0.6]})
        path = write_config(tmp_path, "c.json", cfg)
        assert run_cli(capsys, ["constants", "--config", path]) == \
            (2, "", f"error: {message}\n")

    def test_oversized_grid_named_before_allocation(self, tmp_path, capsys):
        # 10^6 points per axis over p = 4 axes: 10^24 grid points, which
        # numpy cannot allocate; the cap rejects it first, naming the key.
        estimate = {"family": "tabular_softmax", "n_states": 2, "n_actions": 2,
                    "box": [[-1.0, 1.0]] * 4, "grid": 1_000_000}
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "regularity"}
        path = write_config(tmp_path, "c.json", dict(cfg, estimate=estimate, p=4))
        code, out, err = run_cli(capsys, ["constants", "--config", path])
        assert (code, out) == (2, "")
        assert "estimate.grid" in err and str(10 ** 24) in err
        assert "Traceback" not in err


CLASSIFY_CFG = {
    "command": "classify",
    "problem": {"kind": "example1"},
    "epsilon": 0.1, "chi": 1.0,
}


@pytest.mark.parametrize("command, problem, key", [
    ("classify", {"kind": "example1", "zeta": 5.0, "eigenvalues": [3.0]}, "zeta"),
    ("classify", {"kind": "mdp", "mdp_path": "m.json", "horizon": 2}, "horizon"),
    ("train", {"kind": "quadratic_saddle", "noise_sigma": 0.1}, "noise_sigma"),
    ("train", {"kind": "strongly_concave", "cubic": 1.0}, "cubic"),
])
def test_problem_key_of_another_kind_rejected(tmp_path, capsys, command,
                                              problem, key):
    cfg = {"command": command, "problem": problem, "epsilon": 0.1, "chi": 1.0}
    argv = [command, "--config"]
    if command == "train":
        cfg.update(theta0=[0.0, 0.0], alpha=0.01, max_iters=1, seed=0)
        argv.append(write_config(tmp_path, "p.json", cfg))
    else:
        argv += [write_config(tmp_path, "p.json", cfg), "--theta", "0,0"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert repr(key) in err


class TestClassifyCommand:
    def test_origin_is_saddle_region(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CLASSIFY_CFG)
        code, out, _ = run_cli(capsys, ["classify", "--config", cfg,
                                        "--theta", "0.0,0.0"])
        assert code == 0
        assert json.loads(out)["region"] == "L2"

    def test_half_is_large_gradient(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CLASSIFY_CFG)
        code, out, _ = run_cli(capsys, ["classify", "--config", cfg,
                                        "--theta", "0.5,0.5"])
        assert code == 0
        assert json.loads(out)["region"] == "L1"

    def test_malformed_theta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CLASSIFY_CFG)
        code, _, err = run_cli(capsys, ["classify", "--config", cfg,
                                        "--theta", "0.5,oops"])
        assert code == 2
        assert "theta" in err

    @pytest.mark.parametrize("theta", ["inf,0", "0,nan", "1e400,0", "-inf,-inf"])
    def test_non_finite_theta_rejected(self, tmp_path, capsys, theta):
        cfg = write_config(tmp_path, "c.json", dict(
            CLASSIFY_CFG, problem=_BANDIT_CNC["problem"]))
        code, out, err = run_cli(capsys, ["classify", "--config", cfg,
                                          f"--theta={theta}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: --theta: ")

    def test_theta_csv_is_not_a_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CLASSIFY_CFG)
        row = tmp_path / "theta.csv"
        row.write_text("0.0,0.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", cfg, "--theta-csv", str(row)])
        assert exc.value.code == 2
        assert "--theta-csv" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, want", [
        ({"n": 7}, "error: n: "), ({"seed": 3}, "error: seed: "),
        ({"mode": "oracle", "seed": 3}, "error: seed: "),
        # raw_hessian was an estimated-only setting and is now deleted: the
        # schema refuses it at load, whatever its value.
        ({"raw_hessian": True}, "error: config: unknown key 'raw_hessian'"),
        ({"raw_hessian": False}, "error: config: unknown key 'raw_hessian'"),
    ], ids=["n", "seed", "seed-explicit-oracle", "raw_hessian", "raw_hessian-false"])
    def test_oracle_mode_rejects_sampling_settings(self, tmp_path, capsys,
                                                   monkeypatch, extra, want):
        def no_problem(*args, **kwargs):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(cli, "build_problem", no_problem)
        cfg = write_config(tmp_path, "c.json", dict(CLASSIFY_CFG, **extra))
        code, out, err = run_cli(capsys, ["classify", "--config", cfg,
                                          "--theta", "0.3,0.6"])
        assert (code, out) == (2, "")
        assert err.startswith(want)

    @pytest.mark.parametrize("extra", [{}, {"n": 5}, {"n": 5, "seed": 1}])
    def test_unknown_mode_is_named(self, tmp_path, capsys, extra):
        # n and seed are refused only in the oracle mode; another mode is
        # refused by name, not as a sampling setting.
        cfg = write_config(tmp_path, "c.json",
                           dict(CLASSIFY_CFG, mode="bogus", **extra))
        code, out, err = run_cli(capsys, ["classify", "--config", cfg,
                                          "--theta", "0.3,0.6"])
        assert (code, out) == (2, "")
        assert err == "error: mode: must be one of oracle, estimated, got 'bogus'\n"

    def test_estimated_mode_needs_a_seed(self, tmp_path, capsys, monkeypatch):
        cfg = dict(CLASSIFY_CFG, mode="estimated", n=20)
        path = write_config(tmp_path, "c.json", dict(cfg, seed=0))
        code, out, _ = run_cli(capsys, ["classify", "--config", path,
                                        "--theta", "0.2,0.3"])
        assert code == 0 and json.loads(out)["mode"] == "estimated"

        def no_draw(*args, **kwargs):
            raise AssertionError("the estimate was drawn")

        monkeypatch.setattr(cli.sosp, "batch_gradient", no_draw)
        path = write_config(tmp_path, "c.json", cfg)
        code, out, err = run_cli(capsys, ["classify", "--config", path,
                                          "--theta", "0.2,0.3"])
        assert (code, out) == (2, "")
        assert err == "error: seed: required with mode 'estimated'\n"

    def test_estimated_mode_on_mdp(self, tmp_path, capsys):
        bandit = {
            "n_states": 1, "n_actions": 2,
            "transition": [[[1.0], [1.0]]], "reward": [[1.0, 0.0]],
            "rho0": [1.0], "gamma": 0.5, "horizon": 1,
            "r_min": 0.0, "r_max": 1.0,
        }
        cfg = write_config(tmp_path, "c.json", {
            "command": "classify",
            "problem": {"kind": "mdp", "mdp": bandit,
                        "policy": "tabular_softmax"},
            "epsilon": 0.1, "chi": 1.0, "mode": "estimated", "n": 2000,
            "seed": 4,
        })
        code, out, _ = run_cli(capsys, ["classify", "--config", cfg,
                                        "--theta", "0.0,0.0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == "L1"
        assert payload["mode"] == "estimated"

    @pytest.mark.parametrize("command, extra, flags, region", [
        ("classify", {}, ["--theta", "0.0,0.0"], "region,L2"),
        ("classify", dict(mode="estimated", n=200, seed=4),
         ["--theta", "0.3,0.4"], "region,L1"),
        ("train", {}, [], "final.region,L2"),
    ])
    def test_csv_rows_are_the_json_leaves(self, tmp_path, capsys, command,
                                          extra, flags, region):
        # Arrays come out as JSON lists, one leaf per index, and the region
        # as its value, not as numpy array text or Region.L2.
        base = CLASSIFY_CFG if command == "classify" else TRAIN_CFG
        cfg = write_config(tmp_path, "c.json", dict(base, **extra))
        code, out, _ = run_cli(capsys, [command, "--config", cfg, *flags])
        assert code == 0
        leaves = _json_leaves(json.loads(out))
        assert region in {f"{key},{value}" for key, value in leaves}
        arrays = ("final.theta.1",) if command == "train" else \
            ("grad.1", "hessian.1.0", "u_p.1")
        if extra:
            arrays += ("grad_std_error.1",)
        assert set(arrays) <= {key for key, _ in leaves}

    def test_threads_flag_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", CLASSIFY_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", cfg, "--theta", "0,0",
                  "--threads", "2"])
        assert exc.value.code == 2


TRAIN_CFG = {
    "command": "train",
    "problem": {"kind": "example1"},
    "theta0": [0.01, 0.01],
    "alpha": 0.01, "max_iters": 30, "epsilon": 0.3, "chi": 1.0,
    "seed": 7, "report_every": 10,
}


class TestTrainCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", TRAIN_CFG)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, ["train", "--config", cfg,
                                        "--out", str(out_dir)])
        assert code == 0
        summary = json.loads(out)
        assert summary["final"]["k"] == 30
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "k,theta_0,theta_1,J,grad_norm,lambda_max,region,varsigma"
        assert len(trace) == 1 + summary["n_rows"]

    def test_zero_iters_gives_empty_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", dict(TRAIN_CFG, max_iters=0))
        out_dir = tmp_path / "out0"
        code, out, _ = run_cli(capsys, ["train", "--config", cfg,
                                        "--out", str(out_dir)])
        assert code == 0
        assert json.loads(out)["n_rows"] == 0
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 1  # header only

    def test_idempotent_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", TRAIN_CFG)
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, ["train", "--config", cfg,
                                          "--out", str(out_dir)])
            assert code == 0
            outs.append((
                (out_dir / "trace.csv").read_bytes(),
                (out_dir / "summary.json").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_unwritable_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", TRAIN_CFG)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, err = run_cli(capsys, ["train", "--config", cfg,
                                        "--out", str(blocker / "sub")])
        assert code == 3


class TestEscapeTrapCommands:
    def test_escape_benchmark_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 50,
        })
        code, out, _ = run_cli(capsys, ["escape", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["escape_fraction"] >= 0.9
        assert payload["kappa_hat_0"] == 380

    def test_contrast_kept_with_explicit_keys(self, tmp_path, capsys):
        from pgsosp.trainer import default_escape_benchmark

        base = {"command": "escape", "seed": 3, "runs": 40, "contrast": True}
        outs = []
        for name, cfg in (("a.json", base), ("b.json", dict(base, chi=1.0))):
            code, out, _ = run_cli(capsys, ["escape", "--config",
                                            write_config(tmp_path, name, cfg)])
            assert code == 0
            outs.append(json.loads(out))
        assert outs[0] == outs[1]
        expected = default_escape_benchmark(runs=40, seed=3, contrast=True)
        assert outs[1] == json.loads(json.dumps(asdict(expected)))

    def test_contrast_with_noise_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 5, "contrast": True,
            "noise": {"kind": "rademacher"},
        })
        code, _, err = run_cli(capsys, ["escape", "--config", cfg])
        assert code == 2
        assert "contrast" in err

    @pytest.mark.parametrize("eigenvalues", [[1.0, 1.0], [1.0, 0.999],
                                             [1.0, 0.5, -1.0], [1.0, 0.1, -1.0]])
    def test_contrast_with_a_second_positive_eigenvalue_exits_2(
            self, tmp_path, capsys, monkeypatch, eigenvalues):
        # The contrast noise has energy along every positive direction but
        # the top one, so these runs escape (escape_fraction 1.0 at seed 1).
        def no_chain(*args, **kwargs):
            raise AssertionError("the escape chain ran")

        monkeypatch.setattr(trainer, "verify_escape", no_chain)
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 100, "contrast": True,
            "eigenvalues": eigenvalues,
        })
        code, out, err = run_cli(capsys, ["escape", "--config", cfg])
        assert (code, out) == (2, "")
        assert err.startswith("error: contrast: ")
        assert str(eigenvalues) in err

    @pytest.mark.parametrize("eigenvalues", [[1.0, -1.0], [1.0, 0.0, -1.0]])
    def test_contrast_with_one_positive_eigenvalue_runs(self, tmp_path, capsys,
                                                        eigenvalues):
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 5, "contrast": True,
            "eigenvalues": eigenvalues,
        })
        code, out, _ = run_cli(capsys, ["escape", "--config", cfg])
        assert code == 0
        assert json.loads(out)["escape_fraction"] == 0.0

    def test_trap_quick_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", {
            "command": "trap", "seed": 1, "runs": 20, "alpha": 0.05,
        })
        code, out, _ = run_cli(capsys, ["trap", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["stay_fraction"] <= 1.0
        assert payload["bound"] == pytest.approx(1.0 - 0.2 * math.log(5.0))

    def test_no_escape_prints_null_steps(self, tmp_path, capsys):
        # With noise off the escape direction and this small a step no run
        # escapes; the mean escape step is then null, and the output stays
        # strict JSON (no NaN).
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 50, "alpha": 1e-4,
            "contrast": True,
        })
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, ["escape", "--config", cfg,
                                        "--out", str(out_dir)])
        assert code == 0
        for text in (out, (out_dir / "escape.json").read_text()):
            payload = json.loads(text, parse_constant=reject)
            assert payload["escape_fraction"] == 0.0
            assert payload["mean_escape_steps"] is None

    def test_csv_null_is_an_empty_cell(self, tmp_path, capsys):
        # CSV output is gone: asking for it is a usage error, and the no-escape
        # mean step count, once an empty CSV cell, prints as JSON null, never
        # as Python's None.
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 20, "alpha": 1e-4,
            "contrast": True,
        })
        with pytest.raises(SystemExit) as exc:
            main(["escape", "--config", cfg, "--format", "csv"])
        assert (exc.value.code, capsys.readouterr().out) == (2, "")
        code, out, _ = run_cli(capsys, ["escape", "--config", cfg])
        assert code == 0
        assert json.loads(out)["mean_escape_steps"] is None
        assert "null" in out and "None" not in out

    @pytest.mark.parametrize("noise", [
        {"kind": "zero"},
        {"kind": "rademacher", "scale": 0.0},
        {"kind": "signed_direction", "direction": [0.0, 1.0]},
        # Within 1e-10 of a unit vector: normalized to e_0, the escape direction.
        {"kind": "orthogonal", "direction": [0.99999999999, 0.0]},
    ], ids=["zero", "rademacher-scale-0", "signed-off-direction",
            "orthogonal-near-unit"])
    def test_derived_floor_of_zero_exits_2(self, tmp_path, capsys, noise):
        # Without a floor the gain threshold is 0 and every run would
        # "escape" at its first step.
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 20, "noise": noise,
        })
        code, out, err = run_cli(capsys, ["escape", "--config", cfg])
        assert (code, out) == (2, "")
        assert "iota_sq" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("cap_factor", 0), ("iota_sq", -1.0),
                                            ("iota_sq", 0.0)])
    def test_meaningless_escape_key_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 5, key: value,
        })
        code, out, err = run_cli(capsys, ["escape", "--config", cfg])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize("varrho", [0.0, -1.0, 1e-30, 1e-3])
    def test_trap_without_an_admissible_step_exits_2(self, tmp_path, capsys,
                                                     monkeypatch, varrho):
        # At varrho <= 0 the noise cap zeta varrho^2 / (3 sigma^2) leaves no
        # positive step; at varrho = 1e-3 the log cap is 2.27e-12, which not
        # even alpha = 1e-12 meets.  The command stops before the chain,
        # which would need about 1e24 steps per run.
        def no_chain(*args, **kwargs):
            raise AssertionError("the trap chain ran")

        monkeypatch.setattr(trainer, "verify_trap", no_chain)
        cfg = write_config(tmp_path, "t.json", {
            "command": "trap", "seed": 1, "runs": 5, "varrho": varrho,
        })
        code, out, err = run_cli(capsys, ["trap", "--config", cfg])
        assert (code, out) == (2, "")
        if varrho <= 0:
            assert err == f"error: varrho: must be a number above 0, got {varrho!r}\n"
        elif varrho == 1e-3:
            assert err == ("error: trap: no step size in [1e-12, 3.7037e-06] "
                           "meets the log cap alpha ln(1/alpha) <= 2.27e-12\n")
        else:
            assert err.startswith("error: trap: no step size in [1e-12, ")
            assert "the log cap" in err

    @pytest.mark.parametrize("cfg", [
        # alpha = 7.1e-7 from the Prop. 3 rule: kappa_0 = 3.2e12 steps per run.
        {"command": "trap", "seed": 2, "runs": 20, "varrho": 0.05},
        {"command": "trap", "seed": 1, "runs": 5, "alpha": 1e-5},
        # The step cap cap_factor * kappa_hat_0 grows as alpha^(-1/2).
        {"command": "escape", "seed": 1, "runs": 200, "alpha": 1e-12},
    ], ids=["trap-derived-alpha", "trap-explicit-alpha", "escape-small-alpha"])
    def test_chain_beyond_the_step_limit_exits_2(self, tmp_path, capsys,
                                                 monkeypatch, cfg):
        def no_noise(*args, **kwargs):
            raise AssertionError("the chain drew noise")

        monkeypatch.setattr(trainer.NoiseSpec, "draw", no_noise)
        path = write_config(tmp_path, "c.json", cfg)
        code, out, err = run_cli(capsys, [cfg["command"], "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith("error: alpha: ") and "chain-steps" in err


class TestOracleCheckCommand:
    def test_all_identities_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "o.json", {
            "command": "oracle-check", "seed": 0, "n_mdps": 6,
        })
        code, out, _ = run_cli(capsys, ["oracle-check", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        for name, entry in payload["identities"].items():
            assert entry["pass"], name


    def test_mdps_above_the_cap_skip_the_two_way_check(self, tmp_path, capsys):
        # At seed 1 one of the four MDPs is above the enumeration cap; its
        # gradient has one route only, which is not a failed cross-check.
        cfg = write_config(tmp_path, "o.json", {
            "command": "oracle-check", "seed": 1, "n_mdps": 4,
            "max_states": 8, "max_actions": 4, "max_horizon": 10,
        })
        code, out, _ = run_cli(capsys, ["oracle-check", "--config", cfg])
        payload = json.loads(out)
        assert code == 0
        assert payload["all_pass"] is True
        two_way = payload["identities"]["gradient_two_way"]
        assert (two_way["checked"], two_way["failed"]) == (3, 0)
        assert payload["identities"]["gradient_fd"]["checked"] == 4

    def test_route_disagreement_is_reported(self, tmp_path, capsys, monkeypatch):
        # A shifted enumeration route fails every two-way check; the report
        # still reaches stdout and the command exits 4.
        monkeypatch.setattr(cli, "_gradient_enumeration",
                            lambda *a: oracle._gradient_enumeration(*a) + 1.0)
        cfg = write_config(tmp_path, "o.json", {
            "command": "oracle-check", "seed": 0, "n_mdps": 3,
        })
        code, out, _ = run_cli(capsys, ["oracle-check", "--config", cfg])
        assert code == 4
        payload = json.loads(out)
        assert payload["all_pass"] is False
        two_way = payload["identities"].pop("gradient_two_way")
        assert two_way["failed"] == two_way["checked"] == 3
        assert all(entry["pass"] for entry in payload["identities"].values())

    def test_perf_diff_is_exact_at_the_horizon(self, tmp_path, capsys, monkeypatch):
        # Moving 1e-9 of the t = 0 visitation mass from state 1 to state 0
        # keeps every row's mass and the Fisher weights positive, so only
        # perf_diff fails.  A tolerance of the tail 2 gamma^h r_max / (1 - gamma),
        # 0.25 to 1.0 here, would absorb it.
        def shifted(mdp, pi):
            rows = visitation(mdp, pi)
            rows[0, ..., 0] += 1e-9
            rows[0, ..., 1] -= 1e-9
            return rows

        visitation = cli.mdp_mod._visitation
        monkeypatch.setattr(cli.mdp_mod, "_visitation", shifted)
        cfg = write_config(tmp_path, "o.json", {
            "command": "oracle-check", "seed": 0, "n_mdps": 6,
        })
        code, out, _ = run_cli(capsys, ["oracle-check", "--config", cfg])
        assert code == 4
        identities = json.loads(out)["identities"]
        perf_diff = identities.pop("perf_diff")
        assert perf_diff["failed"] == perf_diff["checked"] == 6
        assert all(entry["pass"] for entry in identities.values())

    def test_perfbench_size_run_is_three_dp_passes_per_mdp(self, tmp_path, capsys,
                                                           monkeypatch):
        # Per MDP: value_stack for the gradient, the FD block and the
        # (theta, theta_b) pair; _visitation for the gradient, the value
        # identities and the Fisher matrix.  oracle imports both by name.
        calls = {"value_stack": 0, "_visitation": 0}

        def counted(name, func):
            def call(*args):
                calls[name] += 1
                return func(*args)
            return call

        for name in calls:
            wrapped = counted(name, getattr(cli.mdp_mod, name))
            monkeypatch.setattr(cli.mdp_mod, name, wrapped)
            monkeypatch.setattr(oracle, name, wrapped)
        cfg = write_config(tmp_path, "o.json", {
            "command": "oracle-check", "seed": 0, "n_mdps": 40,
            "max_states": 4, "max_actions": 3, "max_horizon": 4,
        })
        code, out, _ = run_cli(capsys, ["oracle-check", "--config", cfg])
        assert code == 0
        assert calls == {"value_stack": 3 * 40, "_visitation": 3 * 40}
        entry = {"checked": 40, "failed": 0, "pass": True}
        assert json.loads(out) == {
            "n_mdps": 40, "all_pass": True,
            "identities": dict.fromkeys(
                ("gradient_two_way", "gradient_fd", "perf_diff", "occupancy_mass",
                 "advantage_centering", "fisher_psd"), entry)}


class TestCncCommand:
    def test_floor_matches_empirical_iota_sq(self, tmp_path, capsys, bandit,
                                             bandit_family):
        from pgsosp.sosp import cnc_estimate, iota_sq_floor

        u = [0.6, -0.8]
        cfg = write_config(tmp_path, "c.json", {
            "command": "cnc",
            "problem": {"kind": "mdp", "mdp": mdp_json(bandit),
                        "policy": "tabular_softmax"},
            "theta": [0.3, -0.2], "u": u, "n": 3000, "seed": 5, "method": "mc",
        })
        code, out, _ = run_cli(capsys, ["cnc", "--config", cfg])
        assert code == 0
        floor = iota_sq_floor(*cnc_estimate(bandit, bandit_family, np.array([0.3, -0.2]),
                                            np.array(u), n=3000, seed=5))
        assert json.loads(out)["iota_sq_floor"] == floor

    def test_bandit_enumeration(self, tmp_path, capsys):
        bandit = {
            "n_states": 1, "n_actions": 2,
            "transition": [[[1.0], [1.0]]], "reward": [[1.0, 0.0]],
            "rho0": [1.0], "gamma": 0.5, "horizon": 1,
            "r_min": 0.0, "r_max": 1.0,
        }
        u = [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)]
        cfg = write_config(tmp_path, "c.json", {
            "command": "cnc",
            "problem": {"kind": "mdp", "mdp": bandit,
                        "policy": "tabular_softmax"},
            "theta": [0.0, 0.0], "u": u, "n": 5000, "seed": 2,
        })
        code, out, _ = run_cli(capsys, ["cnc", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["enumeration"] == pytest.approx(0.25, abs=1e-12)
        assert abs(payload["mean_sq_projection"] - 0.25) \
            <= 3.0 * payload["std_error"]


    def test_enumerate_above_the_cap_exits_before_the_hessian(self, tmp_path,
                                                              capsys, monkeypatch):
        # Without u the direction is the top Hessian eigenvector; above the
        # enumeration cap that Hessian is 2p DP gradients, and 'enumerate'
        # is refused before them.
        from pgsosp.mdp import random_mdp

        def no_hessian(*args, **kwargs):
            raise AssertionError("the Hessian was built")

        monkeypatch.setattr(cli, "exact_hessian", no_hessian)
        mdp = random_mdp(1, n_states=2, n_actions=2, horizon=12)
        assert not oracle.is_enumerable(mdp)
        cfg = write_config(tmp_path, "c.json", {
            "command": "cnc", "problem": {"kind": "mdp", "mdp": mdp_json(mdp)},
            "theta": [0.1, 0.2, 0.3, 0.4], "n": 10, "seed": 1,
            "method": "enumerate"})
        code, out, err = run_cli(capsys, ["cnc", "--config", cfg])
        assert (code, out) == (2, "")
        assert err == "error: method 'enumerate' but the MDP exceeds the cap\n"

    def test_u_defaults_to_the_top_hessian_eigenvector(self, tmp_path, capsys):
        from pgsosp.mdp import random_mdp
        from pgsosp.policy import TabularSoftmax

        mdp, family = random_mdp(4, n_states=2, n_actions=2, horizon=3), \
            TabularSoftmax(2, 2)
        theta = np.array([0.3, -0.5, 0.8, 0.1])
        cfg = write_config(tmp_path, "c.json", {
            "command": "cnc", "problem": {"kind": "mdp", "mdp": mdp_json(mdp)},
            "theta": theta.tolist(), "n": 200, "seed": 3, "method": "enumerate"})
        code, out, _ = run_cli(capsys, ["cnc", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        hess = oracle.exact_hessian(mdp, family, theta)
        u = np.array(payload["u"])
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        lam = np.linalg.eigvalsh(hess)[-1]
        assert np.allclose(hess @ u, lam * u, atol=1e-10)
        assert payload["enumeration"] == cli.sosp.cnc_enumerate(mdp, family, theta, u)


def _readme():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def _readme_blocks(language):
    """The README's fenced code blocks in the given language, as text."""
    return re.findall(rf"```{language}\n(.*?)```", _readme(), re.S)


def _schema_keys(kind, path):
    """(dotted path, key) of every key under kind, nested blocks and every
    block of a OneOf included."""
    blocks = kind.blocks.values() if isinstance(kind, util.OneOf) else [kind]
    for block in blocks:
        if isinstance(block, util.Block):
            for key, sub in block.kinds.items():
                yield f"{path}.{key}", key
                yield from _schema_keys(sub, f"{path}.{key}")


def test_every_schema_key_is_named_in_the_readme():
    # Every config key of every command, the problem kinds and the MDP
    # block included, appears in backticks somewhere in the README.
    text = _readme()
    missing = sorted({path for command, schema in cli._SCHEMAS.items()
                      for path, key in _schema_keys(schema, command)
                      if key != "command" and f"`{key}`" not in text})
    assert missing == []


def test_readme_configs_read_against_their_schema(tmp_path):
    # Every fenced JSON config in the README loads for its own command, so a
    # renamed or retyped key fails here.
    blocks = _readme_blocks("json")
    assert len(blocks) >= 3
    for i, text in enumerate(blocks):
        path = tmp_path / f"readme{i}.json"
        path.write_text(text)
        assert cli.load_config(str(path), json.loads(text)["command"])


def _readme_strict_saddle():
    """The README's classify config of the strict-saddle witness MDP."""
    [cfg] = [cfg for cfg in map(json.loads, _readme_blocks("json"))
             if cfg["command"] == "classify" and cfg["problem"]["kind"] == "mdp"]
    return cfg


def test_readme_strict_saddle_is_labelled_l2(tmp_path, capsys):
    # The README's witness MDP at the uniform policy: the gradient vanishes
    # exactly and the Hessian has eigenvalues of both signs.
    path = write_config(tmp_path, "saddle.json", _readme_strict_saddle())
    code, out, _ = run_cli(capsys, ["classify", "--config", path,
                                    "--theta=0,0,0,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["grad"] == [0.0] * 6
    assert payload["region"] == "L2"
    assert payload["lambda_max"] == pytest.approx(1 / 32, abs=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(payload["hessian"]),
                               [-1 / 16, 0, 0, 0, 0, 1 / 32], rtol=0, atol=1e-12)
    mdp, family = cli.build_problem(cli.load_config(path, "classify")["problem"])
    assert oracle.exact_objective(mdp, family, np.zeros(6)) == \
        pytest.approx(3.78125, abs=1e-12)


def test_readme_strict_saddle_in_closed_form():
    # With p = pi(stay|A) and q = pi(stay|B), J = 3.75 - p/8 + p^2/8 + q/4
    # - q^2/4; Z's logits do not enter.  At the uniform policy the curvature
    # is +1/32 along A's sum-zero logit direction and -1/16 along B's.
    mdp, family = cli.build_problem(_readme_strict_saddle()["problem"])
    for theta in util.derive_rng(0, 13).uniform(-3.0, 3.0, (50, 6)):
        p, q = 1.0 / (1.0 + np.exp(theta[[1, 3]] - theta[[0, 2]]))
        want = 3.75 - p / 8 + p ** 2 / 8 + q / 4 - q ** 2 / 4
        assert oracle.exact_objective(mdp, family, theta) == \
            pytest.approx(want, rel=0, abs=1e-14)
    hess = oracle.exact_hessian(mdp, family, np.zeros(6))
    u_a = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)
    u_b = np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
    assert u_a @ hess @ u_a == pytest.approx(1 / 32, abs=1e-12)
    assert u_b @ hess @ u_b == pytest.approx(-1 / 16, abs=1e-12)
    assert u_a @ hess @ u_b == pytest.approx(0.0, abs=1e-12)


def test_readme_strict_saddle_train_leaves_l2(tmp_path, capsys):
    # The README's train config on the witness MDP, from theta0 = 0: row
    # k = 0 is the saddle (L2); by row k = 10 every seed has left L2, and
    # the README seed ends below the saddle's J = 3.78125.
    [cfg] = [cfg for cfg in map(json.loads, _readme_blocks("json"))
             if cfg["command"] == "train" and cfg["problem"]["kind"] == "mdp"]
    assert cfg["theta0"] == [0.0] * 6
    assert cfg["problem"] == _readme_strict_saddle()["problem"]
    for seed in range(1, 11):
        path = write_config(tmp_path, "t.json", dict(cfg, seed=seed))
        out_dir = tmp_path / f"out{seed}"
        code, out, _ = run_cli(capsys, ["train", "--config", path,
                                        "--out", str(out_dir)])
        assert code == 0
        rows = (out_dir / "trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        k, region = header.index("k"), header.index("region")
        row0, row10 = (row.split(",") for row in rows[1:3])
        assert (row0[k], row0[region]) == ("0", "L2")
        assert row10[k] == "10" and row10[region] != "L2"
        if seed == cfg["seed"]:
            assert json.loads(out)["final"]["objective"] < 3.78125


def test_every_subcommand_flag_is_named_in_the_readme():
    # Every flag of every subcommand appears in the README, and every --flag
    # the README names outside its Install section is a subcommand's.
    text = _readme()
    flags = set().union(*_subcommand_flags().values())
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    assert flags - named == set()
    outside_install = re.sub(r"## Install and test\n.*?(?=\n## )", "", text,
                             flags=re.S)
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", outside_install)) - flags \
        == set()


def test_readme_library_example_prints_its_line(capsys):
    blocks = _readme_blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "Region.L2 0.7978845608028654\n"
    assert "# Region.L2 0.7978845608028654\n" in blocks[0]


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(CONSTANTS_CFG))
    # The child imports the same pgsosp as this process, installed or not.
    src = os.path.dirname(os.path.dirname(pgsosp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pgsosp.cli", "constants", "--config", str(cfg)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ell"] == 12.0


class TestOmegaFromFisher:
    def test_singular_fisher_requires_override(self, tmp_path, capsys):
        cfg = dict(CONSTANTS_CFG)
        del cfg["omega"]
        cfg["omega_from_fisher"] = {
            "problem": {"kind": "example1"}, "theta": [0.2, 0.2],
        }
        path = write_config(tmp_path, "c.json", cfg)
        code, _, err = run_cli(capsys, ["constants", "--config", path])
        assert code == 2
        assert "omega" in err and "singular" in err

    def test_rounding_residue_is_singular(self, tmp_path, capsys):
        # Tabular softmax is singular along logit shifts; the eigensolver
        # gives lambda_min = 2.8e-17 here, against lambda_max = 1.24.
        from pgsosp.mdp import random_mdp

        mdp = random_mdp(35, n_states=2, n_actions=2, horizon=5, gamma=0.9)
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "omega"}
        cfg["p"] = 4
        cfg["omega_from_fisher"] = {
            "problem": {"kind": "mdp", "mdp": mdp_json(mdp)},
            "theta": [0.7377, 0.2681, -0.0069, -0.6729],
        }
        path = write_config(tmp_path, "c.json", cfg)
        code, out, err = run_cli(capsys, ["constants", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith("error: omega_from_fisher: the Fisher matrix is singular")

    def test_explicit_omega_with_probe_reports_lambda_min(self, tmp_path,
                                                          capsys):
        cfg = dict(CONSTANTS_CFG)
        cfg["omega_from_fisher"] = {
            "problem": {"kind": "example1"}, "theta": [0.2, 0.2],
        }
        path = write_config(tmp_path, "c.json", cfg)
        code, out, _ = run_cli(capsys, ["constants", "--config", path])
        assert code == 0
        payload = json.loads(out)
        assert "fisher_lambda_min" in payload


ESCAPE_ALL_KEYS = {
    "command": "escape", "seed": 5, "runs": 30, "alpha": 2e-3,
    "contrast": False, "chi": 0.9, "epsilon": 1.1, "sigma_h0": 8.0,
    "cap_factor": 7, "eigenvalues": [1.5, -1.0, 0.5],
    "noise": {"kind": "sphere", "scale": 0.8},
    "iota_sq": 0.4,
}
TRAP_ALL_KEYS = {
    "command": "trap", "seed": 3, "runs": 40, "alpha": 0.05, "zeta": 1.5,
    "varrho": 2.0, "noise_sigma": 0.4, "delta": 0.3, "theta0": [0.3, -0.2],
}


class TestBenchmarkBuilders:
    """The escape/trap commands pass their config keys to the two builders."""

    @pytest.mark.parametrize("command, builder", [
        ("escape", trainer.default_escape_benchmark),
        ("trap", trainer.default_trap_benchmark),
    ])
    def test_schema_keys_are_the_builder_keywords(self, command, builder):
        keys = cli._SCHEMAS[command].kinds.keys() - {"command", "seed"}
        params = set(inspect.signature(builder).parameters) - {"seed"}
        assert keys == params

    def test_escape_every_key_matches_builder(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", ESCAPE_ALL_KEYS)
        code, out, _ = run_cli(capsys, ["escape", "--config", cfg])
        assert code == 0
        kwargs = {k: v for k, v in ESCAPE_ALL_KEYS.items() if k != "command"}
        kwargs["noise"] = trainer.NoiseSpec("sphere", 0.8)
        expected = trainer.default_escape_benchmark(**kwargs)
        assert out == canonical_json(asdict(expected))

    def test_trap_every_key_matches_builder(self, tmp_path, capsys):
        # With alpha left out it is the Prop. 3 rule's, below its log cap.
        derived = {key: value for key, value in TRAP_ALL_KEYS.items()
                   if key != "alpha"}
        for keys in (TRAP_ALL_KEYS, derived):
            cfg = write_config(tmp_path, "t.json", keys)
            code, out, _ = run_cli(capsys, ["trap", "--config", cfg])
            assert code == 0
            kwargs = {k: v for k, v in keys.items() if k != "command"}
            payload = asdict(trainer.default_trap_benchmark(**kwargs))
            payload["bound"] = 1.0 - 0.3 * math.log(1.0 / 0.3)
            assert out == canonical_json(payload)

    def test_trap_without_noise_stays(self, tmp_path, capsys):
        # The noise term of the step-size cap is +inf; a start inside the
        # inner ball then contracts deterministically.
        cfg = write_config(tmp_path, "t.json", {
            "command": "trap", "seed": 1, "runs": 5, "noise_sigma": 0.0,
        })
        code, out, _ = run_cli(capsys, ["trap", "--config", cfg])
        assert code == 0
        assert json.loads(out)["stay_fraction"] == 1.0


_SADDLE_3D_NOISE = {"kind": "signed_direction", "direction": [1.0, 0.0, 0.0]}
_SADDLE_TRAIN = {"command": "train", "seed": 1, "theta0": [0.0, 0.0],
                 "alpha": 1e-3, "max_iters": 5, "epsilon": 0.5, "chi": 1.0}
_BANDIT_CNC = {
    "command": "cnc", "n": 100, "seed": 1, "theta": [0.0, 0.0],
    "problem": {"kind": "mdp", "policy": "tabular_softmax", "mdp": _BANDIT_MDP},
}


@pytest.mark.parametrize("cfg, key", [
    ({"command": "trap", "seed": 1, "theta0": [0.1, 0.2, 0.3]}, "theta0"),
    ({"command": "trap", "seed": 1, "runs": -3}, "runs"),
    ({"command": "trap", "seed": 1, "runs": 0}, "runs"),
    ({"command": "trap", "seed": 1, "delta": 0.0}, "delta"),
    ({"command": "trap", "seed": 1, "zeta": -1.0}, "zeta"),
    ({"command": "trap", "seed": 1, "varrho": 0.0}, "varrho"),
    # With alpha given no step-size rule reads varrho; its kind stops it at
    # load, before the inner-ball check, which a negative radius would word
    # oddly.
    ({"command": "trap", "seed": 1, "runs": 20, "alpha": 0.05, "varrho": 0.0},
     "error: varrho: must be a number above 0"),
    ({"command": "trap", "seed": 1, "runs": 20, "alpha": 0.05, "varrho": -1.0,
      "theta0": [0.0, 0.0]}, "error: varrho: must be a number above 0"),
    ({"command": "escape", "seed": 1, "runs": 0}, "runs"),
    ({"command": "escape", "seed": 1, "eigenvalues": []}, "eigenvalues"),
    ({"command": "escape", "seed": 1, "noise": _SADDLE_3D_NOISE}, "noise"),
    ({**_SADDLE_TRAIN,
      "problem": {"kind": "quadratic_saddle", "noise": _SADDLE_3D_NOISE}},
     "noise"),
    ({"command": "escape", "seed": 1, "eigenvalues": 1.0}, "eigenvalues"),
    ({"command": "escape", "seed": 1, "eigenvalues": ["a", 1]}, "eigenvalues"),
    ({**_SADDLE_TRAIN,
      "problem": {"kind": "quadratic_saddle", "eigenvalues": 1.0}},
     "eigenvalues"),
    ({**_SADDLE_TRAIN,
      "problem": {"kind": "quadratic_saddle", "eigenvalues": ["a", 1]}},
     "eigenvalues"),
    ({"command": "trap", "seed": 1, "zeta": "x"}, "zeta"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "strongly_concave", "zeta": "x"}},
     "zeta"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "strongly_concave",
                                   "theta_star": []}}, "theta_star"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "quadratic_saddle"}, "alpha": "x"},
     "alpha"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "quadratic_saddle"},
      "max_iters": "x"}, "max_iters"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "quadratic_saddle"},
      "batch_size": "x"}, "batch_size"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "quadratic_saddle"},
      "theta0": ["a", 0.1]}, "theta0"),
    ({"command": "escape", "seed": 1, "runs": "x"}, "runs"),
    ({"command": "trap", "seed": 1, "runs": "x"}, "runs"),
    ({"command": "escape", "seed": 1,
      "noise": {"kind": "rademacher", "scale": "x"}}, "scale"),
    ({"command": "classify", "problem": {"kind": "example1"},
      "epsilon": "x", "chi": 1.0}, "epsilon"),
    ({**_BANDIT_CNC, "theta": [0.0, 0.0, 0.0]}, "theta"),
    ({"command": "cnc", "n": 100, "seed": 1, "problem": {"kind": "example1"},
      "theta": [0.1, 0.2, 0.3]}, "theta"),
    ({**_BANDIT_CNC, "u": [1.0, 0.0, 0.0]}, "u:"),
    ({**_BANDIT_CNC, "method": "bogus"}, "method"),
    ({"command": "oracle-check", "seed": 1, "max_states": 1}, "max_states"),
    ({"command": "oracle-check", "seed": 1, "max_actions": 1}, "max_actions"),
    ({"command": "oracle-check", "seed": 1, "max_horizon": 1}, "max_horizon"),
    ({"command": "oracle-check", "seed": 1, "n_mdps": -1}, "n_mdps"),
    ({"command": "escape", "seed": 1,
      "noise": {"kind": "signed_direction", "direction": ["a", 1]}},
     "noise.direction"),
    ({**_SADDLE_TRAIN, "problem": {
        "kind": "quadratic_saddle",
        "noise": {"kind": "signed_direction", "direction": ["a", 1]}}},
     "noise.direction"),
    ({"command": "classify", "problem": {"kind": "example1"}, "epsilon": 0.1,
      "chi": 1.0, "mode": "estimated", "n": "x", "seed": 1}, "n: must be"),
    ({"command": "classify", "problem": {"kind": "example1", "horizon": "x"},
      "epsilon": 0.1, "chi": 1.0}, "horizon"),
    ({"command": "classify", "problem": {"kind": "example1", "gamma": "x"},
      "epsilon": 0.1, "chi": 1.0}, "gamma"),
    # Noise is drawn fresh at every step: there is no frozen setting.
    ({"command": "escape", "seed": 1,
      "noise": {"kind": "rademacher", "frozen": "no"}},
     "error: noise: unknown key 'frozen'"),
    ({**_SADDLE_TRAIN, "problem": {
        "kind": "quadratic_saddle",
        "noise": {"kind": "rademacher", "frozen": True}}},
     "error: problem.noise: unknown key 'frozen'"),
    ({"command": "trap", "seed": 1, "runs": 2.7}, "runs: must be"),
    ({**_BANDIT_CNC, "problem": {**_BANDIT_CNC["problem"], "mdp": {
        **_BANDIT_CNC["problem"]["mdp"], "horizon": 2.7}}},
     "problem.mdp.horizon: must be"),
    ({"command": "classify", "problem": {"kind": "example1", "horizon": 1.9},
      "epsilon": 0.1, "chi": 1.0}, "problem.horizon: must be"),
    ({"command": "classify", "problem": {"kind": "example1"},
      "epsilon": True, "chi": 1.0}, "epsilon: must be"),
    ({"command": "escape", "seed": 1, "eigenvalues": [True, -1.0]},
     "eigenvalues: must be"),
    ({"command": "escape", "seed": 1, "runs": 5, "contrast": "no"},
     "contrast: must be"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "quadratic_saddle"},
      "alpha": float("nan")}, "alpha: must be"),
    ({**CONSTANTS_CFG, "gamma": "x"}, "gamma: must be"),
    ({**CONSTANTS_CFG, "h": "x"}, "h: must be"),
    ({"command": "escape", "seed": -1, "runs": 5}, "seed: must be"),
    ({**_BANDIT_CNC, "problem": {**_BANDIT_CNC["problem"], "mdp": {
        **_BANDIT_CNC["problem"]["mdp"], "reward": [[1.0]]}}},
     "problem.mdp: reward: expected shape"),
    ({**_BANDIT_CNC, "problem": {"kind": "mdp", "mdp_path": os.path.join(
        os.path.dirname(__file__), "no-such-mdp.json")}},
     "problem.mdp_path: cannot read"),
    ({**_BANDIT_CNC, "problem": {"kind": "mdp", "mdp_path": __file__}},
     "problem.mdp_path: not valid JSON"),
    ({**_BANDIT_CNC, "problem": {"kind": "mdp", "policy": "tabular_softmax"}},
     "problem: mdp kind needs 'mdp' or 'mdp_path'"),
], ids=["trap-theta0-3d", "trap-runs-negative", "trap-runs-zero",
        "trap-delta-zero", "trap-zeta-negative", "trap-varrho-zero",
        "trap-alpha-varrho-zero", "trap-alpha-varrho-negative",
        "escape-runs-zero", "escape-no-eigenvalues", "escape-noise-3d",
        "train-noise-3d", "escape-eigenvalues-scalar",
        "escape-eigenvalues-text", "train-eigenvalues-scalar",
        "train-eigenvalues-text", "trap-zeta-text", "train-concave-zeta-text",
        "train-concave-theta-star-empty", "train-alpha-text",
        "train-max-iters-text", "train-batch-size-text", "train-theta0-text",
        "escape-runs-text", "trap-runs-text", "escape-noise-scale-text",
        "classify-epsilon-text",
        "cnc-theta-length-tabular",
        "cnc-theta-length-example1", "cnc-u-length", "cnc-method-unknown",
        "oracle-check-max-states", "oracle-check-max-actions",
        "oracle-check-max-horizon", "oracle-check-n-mdps-negative",
        "escape-noise-direction-text", "train-noise-direction-text",
        "classify-estimated-n-text", "classify-example1-horizon-text",
        "classify-example1-gamma-text",
        "escape-noise-frozen-text", "train-noise-frozen",
        "trap-runs-fraction", "cnc-mdp-horizon-fraction",
        "classify-example1-horizon-fraction", "classify-epsilon-bool",
        "escape-eigenvalues-bool", "escape-contrast-text", "train-alpha-nan",
        "constants-gamma-text", "constants-h-text", "escape-seed-negative",
        "cnc-mdp-reward-shape", "cnc-mdp-path-missing", "cnc-mdp-path-not-json",
        "cnc-neither-mdp-nor-mdp-path"])
def test_malformed_synthetic_config_exits_2(tmp_path, capsys, cfg, key):
    path = write_config(tmp_path, "bad.json", cfg)
    code, out, err = run_cli(capsys, [cfg["command"], "--config", path])
    assert code == 2
    assert out == ""
    assert key in err


@pytest.mark.parametrize("cfg, key", [
    ({**_SADDLE_TRAIN,
      "problem": {"kind": "quadratic_saddle", "noise": _SADDLE_3D_NOISE}},
     "problem.noise.direction"),
    ({"command": "escape", "seed": 1, "noise": _SADDLE_3D_NOISE}, "noise.direction"),
], ids=["train", "escape"])
def test_noise_direction_dimension_names_its_key(tmp_path, capsys, cfg, key):
    path = write_config(tmp_path, "c.json", cfg)
    assert run_cli(capsys, [cfg["command"], "--config", path]) == (
        2, "", f"error: {key}: has 3 components, the source has dimension 2\n")


@pytest.mark.parametrize("command", ["cnc", "constants"])
def test_mdp_and_mdp_path_together_exit_2(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("exact_hessian", "estimate_regularity", "fisher_matrix"):
        monkeypatch.setattr(cli, name, no_work)
    for name in ("cnc_enumerate", "cnc_estimate"):
        monkeypatch.setattr(cli.sosp, name, no_work)
    problem = {**_BANDIT_CNC["problem"],
               "mdp_path": os.path.join(str(tmp_path), "no-such-mdp.json")}
    if command == "cnc":
        cfg, where = {**_BANDIT_CNC, "problem": problem}, "problem"
    else:
        where = "omega_from_fisher.problem"
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "regularity"}
        cfg.update(estimate={"family": "tabular_softmax", "n_states": 1,
                             "n_actions": 2, "box": [[-1.0, 1.0]] * 2, "grid": 3},
                   omega_from_fisher={"problem": problem, "theta": [0.0, 0.0]})
    path = write_config(tmp_path, "c.json", cfg)
    code, out, err = run_cli(capsys, [command, "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}.mdp_path: ")


@pytest.mark.parametrize("command", ["classify", "cnc"])
def test_example_one_policy_on_another_mdp_exits_2(tmp_path, capsys, monkeypatch,
                                                    command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "exact_hessian", no_work)
    for name in ("second_order_report", "cnc_enumerate", "cnc_estimate"):
        monkeypatch.setattr(cli.sosp, name, no_work)
    problem = {**_BANDIT_CNC["problem"], "policy": "example_one"}
    if command == "cnc":  # without u, so the Hessian would be computed
        argv = ["cnc", "--config", write_config(tmp_path, "c.json",
                                                {**_BANDIT_CNC, "problem": problem})]
    else:
        argv = ["classify", "--theta", "0.3,0.6", "--config",
                write_config(tmp_path, "c.json", {**CLASSIFY_CFG, "problem": problem})]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: policy family 'example_one' has shape (3, 3), MDP has (1, 2)\n"


def test_integral_floats_read_as_integers(tmp_path, capsys):
    assert util._read(1e5, "integer", "n") == 100000
    assert type(util._read(3.0, "integer", "n")) is int
    outs = []
    for runs in ("20", "2e1", "20.0"):
        path = tmp_path / "e.json"
        path.write_text('{"command": "escape", "seed": 1, "alpha": 0.001, '
                        f'"runs": {runs}}}')
        outs.append(run_cli(capsys, ["escape", "--config", str(path)]))
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0][1])["runs"] == 20


def test_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, ["classify", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: config: not valid JSON: ")


# A value of each kind that the reader accepts, and values it must reject:
# a range kind's wrong values include the numbers just outside its range.
_GOOD = {"number": 1.0, "positive": 1.0, "nonnegative": 1.0, "fraction": 0.5,
         "integer": 1, "natural": 1, "count": 1, "plural": 2, "flag": False,
         "text": "x", "vector": [1.0], "box": [[0.0, 1.0]], "matrix": [[1.0]],
         "tensor": [[[1.0]]]}
_NOT_A_NUMBER = ["x", True, float("nan"), float("inf"), [1.0]]
_WRONG = {"number": _NOT_A_NUMBER,
          "positive": _NOT_A_NUMBER + [0, -1e-300],
          "nonnegative": _NOT_A_NUMBER + [-1e-300],
          "fraction": _NOT_A_NUMBER + [0, 1],
          "integer": [2.5, True, "x"],
          "natural": [-1, 2.5, True, "x"],
          "count": [0, 2.5, True, "x"],
          "plural": [1, 2.5, True, "x"],
          "flag": ["no", 1, None],
          "text": [1.0, True, ["x"]],
          "vector": [[], [True, 1], ["a", 1.0], 1.0]}
for _kind in ("box", "matrix", "tensor"):
    _WRONG[_kind] = _WRONG["vector"] + [[1.0, 2.0]]
_WRONG["box"] = _WRONG["box"] + [[[1.0, 0.0]]]


# A word-valued key's kind is its tuple of words: its wrong values are
# another word and values that are no word.
_WRONG_WORD = ["bogus", 1.0, True, ["x"]]


def _good(kind):
    """A value of kind: a block holds its required keys only.  A kind missing
    from _GOOD reads as None, so its cases fail instead of the collection."""
    if isinstance(kind, tuple):
        return kind[0]
    if isinstance(kind, util.OneOf):
        tag, block = next(iter(kind.blocks.items()))
        return {**_good(block), kind.key: tag}
    if isinstance(kind, util.Block):
        return {key: _good(kind.kinds[key]) for key in kind.required}
    return _GOOD.get(kind)


def _wrong(kind):
    """(dotted key path, value) pairs: each value is of kind but for the one
    key at that path, whose value is of the wrong kind."""
    if isinstance(kind, tuple):
        yield from (("", value) for value in _WRONG_WORD)
        return
    if isinstance(kind, util.OneOf):
        yield "", "x"
        yield kind.key, {**_good(kind), kind.key: "bogus"}
        for tag, block in kind.blocks.items():
            for dotted, value in _wrong(block):
                if dotted:
                    yield dotted, value if dotted == kind.key \
                        else {**value, kind.key: tag}
        return
    if isinstance(kind, util.Block):
        yield "", "x"
        base = _good(kind)
        for key, sub in kind.kinds.items():
            for dotted, value in _wrong(sub):
                yield ".".join(filter(None, (key, dotted))), {**base, key: value}
        return
    yield from (("", value) for value in _WRONG.get(kind, ()))


# Keys, by dotted path, that once had a kind and that no command reads any
# more, with a value of that kind: each is now an unknown key.
_DELETED = {"constants": {"seed": 1, "zeta": 1.0, "varrho": 1.0},
            "classify": {"raw_hessian": False},
            "train": {"delta": 0.1, "batch_size": 1,
                      "problem.noise.frozen": False, "problem.cubic": 1.0},
            "escape": {"noise.frozen": False},
            "trap": {"relaxation": 1.0}}

# The problem block of each command that reads an MDP.  These once took the
# train-only kinds too; such a problem now exits 2 naming its kind,
# whatever its keys.
_MDP_PROBLEM_AT = {"classify": "problem", "cnc": "problem",
                   "constants": "omega_from_fisher.problem"}


def _train_only_problems():
    """(dotted key, problem) of the train-only kinds: each of their keys with
    a value of the wrong kind, and their deleted keys noise.frozen and cubic."""
    train_only = util.OneOf({tag: block for tag, block in cli._PROBLEM.blocks.items()
                             if tag not in cli._MDP_PROBLEM.blocks})
    for dotted, problem in _wrong(train_only):
        if dotted not in ("", "kind"):
            yield dotted, problem
    yield "noise.frozen", {"kind": "quadratic_saddle",
                           "noise": {"kind": "x", "frozen": False}}
    yield "cubic", {"kind": "quadratic_saddle", "cubic": 1.0}


def _with_value(kind, dotted, value):
    """A value of kind, with value at the dotted path; a OneOf takes the
    block that has the path's next key, else its first block."""
    key, _, rest = dotted.partition(".")
    if isinstance(kind, util.OneOf):
        tag, block = next(((tag, block) for tag, block in kind.blocks.items()
                           if key in block.kinds), next(iter(kind.blocks.items())))
        return {**_with_value(block, dotted, value), kind.key: tag}
    return {**_good(kind),
            key: _with_value(kind.kinds[key], rest, value) if rest else value}


def _schema_cases():
    """(case, configs, the start of their error) for every schema key, every
    deleted key and every train-only problem key under an MDP-only command."""
    cases, wants = {}, {}
    for command, schema in cli._SCHEMAS.items():
        for dotted, cfg in _wrong(schema):
            if dotted:
                if dotted != "command":
                    cfg["command"] = command
                cases.setdefault(f"{command}:{dotted}", []).append(cfg)
                wants[f"{command}:{dotted}"] = f"error: {dotted}: "
        for dotted, value in _DELETED.get(command, {}).items():
            where, _, key = dotted.rpartition(".")
            cases[f"{command}:{dotted}"] = [
                {**_with_value(schema, dotted, value), "command": command}]
            wants[f"{command}:{dotted}"] = \
                f"error: {where or 'config'}: unknown key {key!r}"
        place = _MDP_PROBLEM_AT.get(command)
        for dotted, problem in _train_only_problems() if place else ():
            case = f"{command}:{place}.{dotted}"
            cases.setdefault(case, []).append(
                {**_with_value(schema, place, problem), "command": command})
            wants[case] = f"error: {place}.kind: must be one of example1, mdp, got "
    return [pytest.param(case, configs, wants[case], id=case)
            for case, configs in sorted(cases.items())]


def test_schema_tables_cover_every_kind():
    # A kind missing here would give its keys no wrong-kind case; the
    # README's list of kinds names every kind, the word choice included.
    assert set(_GOOD) == set(_WRONG) == set(util._KINDS)
    [kinds] = re.findall(r"\nEach config key has one kind.*?\n\n(.*?)\n\n",
                         _readme(), re.S)
    assert [kind for kind in [*util._KINDS, "choice"] if f"*{kind}*" not in kinds] \
        == []


@pytest.mark.parametrize("case, configs, want", _schema_cases())
def test_every_schema_key_rejects_a_wrong_kind(tmp_path, capsys, case, configs, want):
    """Every key of every schema, nested blocks included, exits 2 naming its
    dotted path when given a value of the wrong kind; a deleted key exits 2
    as unknown whatever its value, and a train-only problem under a command
    that reads an MDP exits 2 naming its kind."""
    command = case.split(":")[0]
    for cfg in configs:
        path = write_config(tmp_path, "bad.json", cfg)
        code, out, err = run_cli(capsys, [command, "--config", path])
        assert (code, out) == (2, ""), (cfg, err)
        assert err.startswith(want), (cfg, err)


def test_text_keys_are_tags_and_paths():
    # A word-valued key takes its words as a kind, so a key left as free
    # text is a command name, a OneOf tag, a file path or the noise kind,
    # whose words NoiseSpec holds.
    def free_text(kind, path):
        tag = kind.key if isinstance(kind, util.OneOf) else None
        for block in kind.blocks.values() if tag else [kind]:
            if isinstance(block, util.Block):
                for key, sub in block.kinds.items():
                    if sub == "text" and key != tag:
                        yield f"{path}.{key}"
                    yield from free_text(sub, f"{path}.{key}")

    left = {path for command, schema in cli._SCHEMAS.items()
            for path in free_text(schema, command)
            if not path.endswith((".command", ".mdp_path", ".noise.kind"))}
    assert left == set()


def _subcommand_flags():
    """{subcommand: its flags}, --help left out."""
    parser = cli.build_parser()
    [sub] = [action for action in parser._actions
             if isinstance(action, argparse._SubParsersAction)]
    return {name: {flag for action in cmd._actions for flag in action.option_strings
                   if flag.startswith("--")} - {"--help"}
            for name, cmd in sub.choices.items()}


def test_subcommand_flags_are_config_out_and_theta(tmp_path, capsys):
    """A run is fixed by its config (and --theta for classify): the seed is a
    config key only, and the result is JSON only, so --seed and --format are
    usage errors on every subcommand."""
    flags = _subcommand_flags()
    assert flags == {name: {"--config", "--out"} | ({"--theta"} if name == "classify"
                                                    else set())
                     for name in cli._SCHEMAS}
    assert sum(map(len, flags.values())) == 15
    path = write_config(tmp_path, "c.json", CONSTANTS_CFG)
    for name in flags:
        for flag, value in (("--seed", "1"), ("--format", "csv")):
            with pytest.raises(SystemExit) as exc:
                main([name, "--config", path, flag, value])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, "")
            assert f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize("how, want", [
    ("config", "error: seed: must be an integer at least 0, got -1\n"),
    # --seed is no option at all, whatever its value.
    ("flag", "error: unrecognized arguments: --seed -2\n"),
], ids=["config", "flag"])
def test_negative_seed_exits_2(tmp_path, capsys, how, want):
    cfg = {"command": "escape", "seed": -1 if how == "config" else 1, "runs": 5}
    argv = ["escape", "--config", write_config(tmp_path, "e.json", cfg)]
    try:
        code = main(argv + (["--seed", "-2"] if how == "flag" else []))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith(want)


def test_seed_comes_from_the_config_only(tmp_path, capsys, monkeypatch):
    """The environment does not reach the seed: SOSP_PG_SEED changes nothing."""
    path = write_config(tmp_path, "e.json", {
        "command": "escape", "seed": 1, "runs": 20, "alpha": 0.001})
    monkeypatch.delenv("SOSP_PG_SEED", raising=False)
    runs = [run_cli(capsys, ["escape", "--config", path])]
    monkeypatch.setenv("SOSP_PG_SEED", "5")
    runs.append(run_cli(capsys, ["escape", "--config", path]))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


class TestSyntheticTrainSources:
    def test_quadratic_saddle_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", {
            "command": "train",
            "problem": {"kind": "quadratic_saddle",
                        "eigenvalues": [1.0, -1.0],
                        "noise": {"kind": "rademacher", "scale": 0.5}},
            "theta0": [0.0, 0.0], "alpha": 0.001, "max_iters": 50,
            "epsilon": 0.5, "chi": 1.0, "seed": 3, "report_every": 10,
        })
        code, out, _ = run_cli(capsys, ["train", "--config", cfg])
        assert code == 0
        assert json.loads(out)["final"]["k"] == 50

    def test_strongly_concave_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", {
            "command": "train",
            "problem": {"kind": "strongly_concave", "zeta": 1.0,
                        "theta_star": [0.0, 0.0], "noise_sigma": 0.0},
            "theta0": [0.5, 0.0], "alpha": 0.2, "max_iters": 30,
            "epsilon": 0.1, "chi": 1.0, "seed": 3, "report_every": 30,
        })
        code, out, _ = run_cli(capsys, ["train", "--config", cfg])
        assert code == 0
        final = json.loads(out)["final"]
        assert final["region"] == "L3"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_gradient_ends_the_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", {
            "command": "train",
            "problem": {"kind": "quadratic_saddle", "eigenvalues": [1e308, -1.0]},
            "theta0": [10.0, 0.0], "alpha": 0.1, "max_iters": 5,
            "epsilon": 0.1, "chi": 1.0, "seed": 3,
        })
        code, out, _ = run_cli(capsys, ["train", "--config", cfg])
        assert code == 0
        summary = json.loads(out)
        assert (summary["n_rows"], summary["diverged_at"]) == (0, 0)

    def test_synthetic_rejected_for_classify(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "command": "classify",
            "problem": {"kind": "quadratic_saddle"},
            "epsilon": 0.1, "chi": 1.0,
        })
        code, _, err = run_cli(capsys, ["classify", "--config", cfg,
                                        "--theta", "0,0"])
        assert code == 2


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


_ESTIMATE_CONSTANTS = {
    **{key: value for key, value in CONSTANTS_CFG.items() if key != "regularity"},
    "estimate": {"family": "tabular_softmax", "n_states": 1, "n_actions": 2,
                 "box": [[-1.0, 1.0]] * 2, "grid": 3}}


@pytest.mark.parametrize("cfg, work, want", [
    ({**CLASSIFY_CFG, "epsilon": 0}, (cli.sosp, "second_order_report"),
     "epsilon: must be a number above 0, got 0"),
    ({**CLASSIFY_CFG, "chi": -1}, (cli.sosp, "second_order_report"),
     "chi: must be a number above 0, got -1"),
    ({**CONSTANTS_CFG, "r_max": 0}, (cli.sosp, "paper_constants"),
     "r_max: must be a number above 0, got 0"),
    ({**CONSTANTS_CFG, "gamma": 1.2}, (cli.sosp, "paper_constants"),
     "gamma: must be a number in (0, 1), got 1.2"),
    # Without omega, delta was once echoed and the grid estimated.
    ({**_ESTIMATE_CONSTANTS, "delta": 0, "omega": None},
     (cli, "estimate_regularity"), "delta: must be a number in (0, 1), got 0"),
    ({"command": "escape", "seed": 1, "epsilon": 0}, (trainer, "verify_escape"),
     "epsilon: must be a number above 0, got 0"),
], ids=["classify-epsilon", "classify-chi", "constants-r_max", "constants-gamma",
        "constants-estimate-delta", "escape-epsilon"])
def test_out_of_range_value_stops_before_any_work(tmp_path, capsys, monkeypatch,
                                                   cfg, work, want):
    monkeypatch.setattr(*work, _no_work)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    argv = [cfg["command"], "--config", write_config(tmp_path, "c.json", cfg)]
    if cfg["command"] == "classify":
        argv.append("--theta=0.3,0.6")
    assert run_cli(capsys, argv) == (2, "", f"error: {want}\n")


@pytest.mark.parametrize("command", ["classify", "cnc"])
def test_one_draw_exits_2(tmp_path, capsys, monkeypatch, command):
    # One draw has no standard error.  On this bandit at theta = 0, where
    # |grad J| = 0.354, it once printed a standard error of 0 and, for
    # classify, a confident L3.
    monkeypatch.setattr(cli.mdp_mod, "rollout_batch", _no_work)
    cfg = {**_BANDIT_CNC, "n": 1, "seed": 1}
    argv = [command]
    if command == "classify":
        cfg = {"command": "classify", "problem": cfg["problem"], "epsilon": 0.1,
               "chi": 1.0, "mode": "estimated", "n": 1, "seed": 1}
        argv.append("--theta=0,0")
    else:
        cfg["method"] = "mc"
    argv += ["--config", write_config(tmp_path, "c.json", cfg)]
    assert run_cli(capsys, argv) == (2, "", "error: n: a sampled estimate needs "
                                            "at least 2 draws for its standard "
                                            "error, got 1\n")


_STRICT_SADDLE_FILE = os.path.join(os.path.dirname(__file__), os.pardir,
                                   "examples", "strict_saddle_mdp.json")


def test_strict_saddle_file_reads_like_the_inline_mdp(tmp_path, capsys):
    inline = _readme_strict_saddle()
    with open(_STRICT_SADDLE_FILE, encoding="utf-8") as fh:
        assert json.load(fh) == inline["problem"]["mdp"]
    outs = []
    for problem in (inline["problem"], {"kind": "mdp", "mdp_path": _STRICT_SADDLE_FILE}):
        path = write_config(tmp_path, "c.json", {**inline, "problem": problem})
        outs.append(run_cli(capsys, ["classify", "--config", path,
                                     "--theta=0,0,0,0,0,0"]))
    assert outs[0][0] == 0 and outs[0] == outs[1]


@pytest.mark.parametrize("change, want", [
    ({"horizon": 2.5}, "problem.mdp_path.horizon: must be an integer, got 2.5"),
    ({"gamma": 1.5}, "problem.mdp_path: gamma: must be in (0, 1), got 1.5"),
    ({"extra": 1}, "problem.mdp_path: unknown key 'extra'"),
], ids=["horizon", "gamma", "extra"])
def test_mdp_file_errors_name_mdp_path(tmp_path, capsys, change, want):
    # An MDP file is read against the inline block's schema and checked by
    # the same TabularMdp, so its errors name the key that holds it.
    with open(_STRICT_SADDLE_FILE, encoding="utf-8") as fh:
        mdp = {**json.load(fh), **change}
    problem = {"kind": "mdp", "mdp_path": write_config(tmp_path, "m.json", mdp)}
    path = write_config(tmp_path, "c.json", {**CLASSIFY_CFG, "problem": problem})
    assert run_cli(capsys, ["classify", "--config", path, "--theta=0,0,0,0,0,0"]) \
        == (2, "", f"error: {want}\n")


@pytest.mark.parametrize("cfg, where", [
    ({**CLASSIFY_CFG, "problem": {"kind": "example1", "gamma": 1.5}}, "problem"),
    ({**CLASSIFY_CFG, "problem": {"kind": "example1", "horizon": 0}}, "problem"),
    ({**CLASSIFY_CFG, "problem": {**_BANDIT_CNC["problem"], "policy": "nope"}},
     "problem.policy"),
    ({**_ESTIMATE_CONSTANTS, "estimate": {**_ESTIMATE_CONSTANTS["estimate"],
                                          "family": "gaussian"}}, "estimate.family"),
    ({**_ESTIMATE_CONSTANTS, "estimate": {"family": "tabular_softmax", "n_actions": 2,
                                          "box": [[-1, 1]] * 2, "grid": 3}},
     "estimate"),
    ({**_ESTIMATE_CONSTANTS, "estimate": {**_ESTIMATE_CONSTANTS["estimate"],
                                          "box": [[0, 1], [1, 0]], "grid": 5}},
     "estimate.box"),
    ({**_ESTIMATE_CONSTANTS, "estimate": {**_ESTIMATE_CONSTANTS["estimate"],
                                          "box": [[-1, 1]] * 3}}, "estimate.box"),
    ({**_ESTIMATE_CONSTANTS, "estimate": {**_ESTIMATE_CONSTANTS["estimate"],
                                          "grid": 1}}, "estimate.grid"),
    ({**_BANDIT_CNC, "u": [1.0, 1.0]}, "u"),
    ({"command": "train", "problem": {"kind": "example1"}, "theta0": [0.1],
      "alpha": 0.01, "max_iters": 5, "epsilon": 0.3, "chi": 1.0, "seed": 1},
     "theta0"),
    ({"command": "escape", "seed": 1, "noise": {"kind": "bogus"}}, "noise"),
    ({"command": "escape", "seed": 1, "noise": {"kind": "signed_direction"}},
     "noise"),
    ({**_SADDLE_TRAIN, "problem": {"kind": "quadratic_saddle",
                                   "noise": {"kind": "bogus"}}}, "problem.noise"),
], ids=["example1-gamma", "example1-horizon", "policy", "estimate-family",
        "estimate-softmax-without-layout", "estimate-box-empty", "estimate-box-axes",
        "estimate-grid-one", "cnc-u",
        "train-theta0", "noise-kind", "noise-direction-missing", "train-noise-kind"])
def test_a_value_error_names_its_key(tmp_path, capsys, cfg, where):
    argv = [cfg["command"], "--config", write_config(tmp_path, "c.json", cfg)]
    if cfg["command"] == "classify":
        argv.append("--theta=0.3,0.6")
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: "), err


@pytest.mark.parametrize("text, want", [
    (None, "error: config: cannot read: "),
    ("[1]", "error: config: must be an object, got [1]\n"),
    # A config for another command fails on its command key first.
    ('{"command": "train", "typo": 1}',
     "error: command: config says 'train' but subcommand is 'classify'\n"),
], ids=["missing", "not-an-object", "another-command"])
def test_config_file_errors_name_config(tmp_path, capsys, text, want):
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, ["classify", "--config", str(path),
                                      "--theta=0,0"])
    assert (code, out) == (2, "")
    assert err.startswith(want), err


_MISSING_MDP_FILE = {"kind": "mdp", "mdp_path": "no-such-mdp.json"}


@pytest.mark.parametrize("cfg, theta, want", [
    ({**CLASSIFY_CFG, "problem": _MISSING_MDP_FILE}, None,
     "error: classify needs --theta\n"),
    ({**CLASSIFY_CFG, "problem": _MISSING_MDP_FILE, "mode": "bogus"}, "0,0",
     "error: mode: must be one of oracle, estimated, got 'bogus'\n"),
    ({**CLASSIFY_CFG, "problem": _MISSING_MDP_FILE, "mode": "bogus"}, None,
     "error: mode: must be one of oracle, estimated, got 'bogus'\n"),
    ({**_BANDIT_CNC, "problem": _MISSING_MDP_FILE, "method": "bogus"}, None,
     "error: method: must be one of auto, enumerate, mc, got 'bogus'\n"),
], ids=["classify-no-theta", "classify-mode", "classify-mode-no-theta",
        "cnc-method"])
def test_config_and_flag_errors_come_before_the_problem(tmp_path, capsys, cfg,
                                                        theta, want):
    # The MDP file does not exist, so building the problem would name
    # problem.mdp_path instead.
    argv = [cfg["command"], "--config", write_config(tmp_path, "c.json", cfg)]
    if theta is not None:
        argv.append(f"--theta={theta}")
    assert run_cli(capsys, argv) == (2, "", want)
