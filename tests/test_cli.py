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
from pgsosp import cli, oracle, trainer, util
from pgsosp.cli import main
from pgsosp.util import canonical_json


def _json_leaves(obj, prefix=""):
    """(dotted key, CSV cell) of every leaf of a parsed JSON payload."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [leaf for key, value in items
                for leaf in _json_leaves(value, f"{prefix}{key}.")]
    cell = repr(obj) if isinstance(obj, float) else "" if obj is None else obj
    return [(prefix[:-1], cell)]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", CONSTANTS_CFG)
        code, out, _ = run_cli(capsys, ["constants", "--config", cfg,
                                        "--format", "csv"])
        assert code == 0
        assert out.startswith("key,value")
        assert any(line.startswith("ell,") for line in out.splitlines())

    def test_csv_without_iota_leaves_k_empty(self, tmp_path, capsys):
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "iota"}
        path = write_config(tmp_path, "c.json", cfg)
        code, out, _ = run_cli(capsys, ["constants", "--config", path,
                                        "--format", "csv"])
        assert code == 0
        assert "K," in out.splitlines()
        assert "None" not in out

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
        assert err.startswith(f"error: estimate.{key}: ")

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

    @pytest.mark.parametrize("extra, flag", [
        ({"n": 7}, []), ({"seed": 3}, []), ({"raw_hessian": True}, []),
        ({"raw_hessian": False}, []), ({}, ["--seed", "9"]),
    ], ids=["n", "seed", "raw_hessian", "raw_hessian-false", "seed-flag"])
    def test_oracle_mode_rejects_sampling_settings(self, tmp_path, capsys,
                                                   monkeypatch, extra, flag):
        def no_problem(*args, **kwargs):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(cli, "build_problem", no_problem)
        cfg = write_config(tmp_path, "c.json", dict(CLASSIFY_CFG, **extra))
        code, out, err = run_cli(capsys, ["classify", "--config", cfg,
                                          "--theta", "0.3,0.6", *flag])
        assert (code, out) == (2, "")
        name = next(iter(extra), "--seed")
        assert err.startswith(f"error: {name}: ")

    def test_estimated_mode_needs_a_seed(self, tmp_path, capsys, monkeypatch):
        cfg = dict(CLASSIFY_CFG, mode="estimated", n=20)
        outs = []
        for extra, flag in (({"seed": 0}, []), ({}, ["--seed", "0"])):
            path = write_config(tmp_path, "c.json", dict(cfg, **extra))
            outs.append(run_cli(capsys, ["classify", "--config", path,
                                         "--theta", "0.2,0.3", *flag]))
        assert outs[0][0] == 0 and outs[0] == outs[1]

        def no_draw(*args, **kwargs):
            raise AssertionError("the estimate was drawn")

        monkeypatch.setattr(cli.sosp, "batch_gradient", no_draw)
        path = write_config(tmp_path, "c.json", cfg)
        code, out, err = run_cli(capsys, ["classify", "--config", path,
                                          "--theta", "0.2,0.3"])
        assert (code, out) == (2, "")
        assert err == "error: estimated mode needs n >= 1 and a seed\n"

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

    def test_raw_hessian_reuses_the_report_batch(self, tmp_path, capsys,
                                                 monkeypatch):
        from pgsosp import estimators, sosp
        from pgsosp.mdp import example_one_mdp
        from pgsosp.policy import ExampleOnePiecewise

        calls = []
        original = estimators.batch_hessian

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sosp, "batch_hessian", counted)
        monkeypatch.setattr(estimators, "batch_hessian", counted)
        cfg = write_config(tmp_path, "c.json", dict(
            CLASSIFY_CFG, mode="estimated", n=500, seed=4, raw_hessian=True))
        code, out, _ = run_cli(capsys, ["classify", "--config", cfg,
                                        "--theta", "0.3,0.4"])
        assert code == 0
        assert len(calls) == 1
        expected = original(example_one_mdp(), ExampleOnePiecewise(),
                            [0.3, 0.4], 500, 5).raw_mean
        assert json.loads(out)["raw_hessian_mean"] == expected.tolist()

    @pytest.mark.parametrize("command, extra, flags, region", [
        ("classify", {}, ["--theta", "0.0,0.0"], "region,L2"),
        ("classify", dict(mode="estimated", n=200, seed=4, raw_hessian=True),
         ["--theta", "0.3,0.4"], "region,L1"),
        ("train", {}, [], "final.region,L2"),
    ])
    def test_csv_rows_are_the_json_leaves(self, tmp_path, capsys, command,
                                          extra, flags, region):
        # Arrays come out one row per index and the region as its value,
        # not as numpy array text or Region.L2.
        base = CLASSIFY_CFG if command == "classify" else TRAIN_CFG
        cfg = write_config(tmp_path, "c.json", dict(base, **extra))
        code, out, _ = run_cli(capsys, [command, "--config", cfg, *flags])
        assert code == 0
        code, csv, _ = run_cli(capsys, [command, "--config", cfg, *flags,
                                        "--format", "csv"])
        assert code == 0
        rows = csv.splitlines()
        assert rows[0] == "key,value" and region in rows
        leaves = _json_leaves(json.loads(out))
        assert rows[1:] == sorted(f"{key},{value}" for key, value in leaves)
        arrays = ("final.theta.1",) if command == "train" else \
            ("grad.1", "hessian.1.0", "u_p.1")
        if extra:
            arrays += ("grad_std_error.1", "raw_hessian_mean.0.1")
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

    @pytest.mark.parametrize("noise", [
        {"kind": "zero"},
        {"kind": "rademacher", "scale": 0.0},
        {"kind": "signed_direction", "direction": [0.0, 1.0]},
    ], ids=["zero", "rademacher-scale-0", "signed-off-direction"])
    def test_derived_floor_of_zero_exits_2(self, tmp_path, capsys, noise):
        # Without a floor the gain threshold is 0 and every run would
        # "escape" at its first step.
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 20, "noise": noise,
        })
        code, out, err = run_cli(capsys, ["escape", "--config", cfg])
        assert (code, out) == (2, "")
        assert "iota_sq" in err and "Traceback" not in err

    def test_csv_null_is_an_empty_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 20, "alpha": 1e-4,
            "contrast": True,
        })
        code, out, _ = run_cli(capsys, ["escape", "--config", cfg,
                                        "--format", "csv"])
        assert code == 0
        assert "mean_escape_steps,\n" in out
        assert "None" not in out

    @pytest.mark.parametrize("key, value", [("cap_factor", 0), ("iota_sq", -1.0),
                                            ("iota_sq", 0.0)])
    def test_meaningless_escape_key_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "e.json", {
            "command": "escape", "seed": 1, "runs": 5, key: value,
        })
        code, out, err = run_cli(capsys, ["escape", "--config", cfg])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}: ")

    def test_trap_relaxation_with_alpha_exits_2(self, tmp_path, capsys,
                                                monkeypatch):
        # relaxation only scales the log cap of the derived step size.
        def no_chain(*args, **kwargs):
            raise AssertionError("the trap chain ran")

        monkeypatch.setattr(trainer, "verify_trap", no_chain)
        cfg = write_config(tmp_path, "t.json", {
            "command": "trap", "seed": 1, "runs": 20, "alpha": 0.05,
            "relaxation": 7.0,
        })
        code, out, err = run_cli(capsys, ["trap", "--config", cfg])
        assert (code, out) == (2, "")
        assert err.startswith("error: relaxation: ")

    @pytest.mark.parametrize("relaxation", [0.0, -1.0, 1e-30])
    def test_trap_without_an_admissible_step_exits_2(self, tmp_path, capsys,
                                                     monkeypatch, relaxation):
        # No alpha in [1e-12, cap] meets the log cap; the command stops
        # before the chain, which would need about 1e24 steps per run.
        def no_chain(*args, **kwargs):
            raise AssertionError("the trap chain ran")

        monkeypatch.setattr(trainer, "verify_trap", no_chain)
        cfg = write_config(tmp_path, "t.json", {
            "command": "trap", "seed": 1, "runs": 5, "relaxation": relaxation,
        })
        code, out, err = run_cli(capsys, ["trap", "--config", cfg])
        assert (code, out) == (2, "")
        assert "log cap" in err

    @pytest.mark.parametrize("cfg", [
        # alpha = 1.1e-7 from the Prop. 3 rule: kappa_0 = 1.3e14 steps per run.
        {"command": "trap", "seed": 2, "runs": 20, "relaxation": 0.001,
         "zeta": 2.0, "varrho": 0.5},
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


class TestCncCommand:
    def test_floor_matches_empirical_iota_sq(self, tmp_path, capsys, bandit,
                                             bandit_family):
        from pgsosp.sosp import cnc_estimate, iota_sq_floor

        u = [0.6, -0.8]
        cfg = write_config(tmp_path, "c.json", {
            "command": "cnc",
            "problem": {"kind": "mdp", "mdp": bandit.to_json(),
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


    def test_u_defaults_to_the_top_hessian_eigenvector(self, tmp_path, capsys):
        from pgsosp.mdp import random_mdp
        from pgsosp.policy import TabularSoftmax

        mdp, family = random_mdp(4, n_states=2, n_actions=2, horizon=3), \
            TabularSoftmax(2, 2)
        theta = np.array([0.3, -0.5, 0.8, 0.1])
        cfg = write_config(tmp_path, "c.json", {
            "command": "cnc", "problem": {"kind": "mdp", "mdp": mdp.to_json()},
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


def test_readme_configs_read_against_their_schema(tmp_path):
    # Every fenced JSON config in the README loads for its own command, so a
    # renamed or retyped key fails here.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    assert len(blocks) >= 3
    for i, text in enumerate(blocks):
        path = tmp_path / f"readme{i}.json"
        path.write_text(text)
        assert cli.load_config(str(path), json.loads(text)["command"])


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
        cfg["omega_from_fisher"] = {
            "problem": {"kind": "mdp", "mdp": mdp.to_json()},
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
    "noise": {"kind": "sphere", "scale": 0.8, "frozen": False},
    "iota_sq": 0.4,
}
# Every trap key but relaxation, which only the derived step size reads.
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
        # A relaxation of 1e4 lifts the log cap: alpha is the cap 0.3.
        derived = {key: value for key, value in TRAP_ALL_KEYS.items()
                   if key != "alpha"}
        for keys in (TRAP_ALL_KEYS, dict(derived, relaxation=1e4)):
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
    "problem": {"kind": "mdp", "policy": "tabular_softmax", "mdp": {
        "n_states": 1, "n_actions": 2, "transition": [[[1.0], [1.0]]],
        "reward": [[1.0, 0.0]], "rho0": [1.0], "gamma": 0.5, "horizon": 1,
        "r_min": 0.0, "r_max": 1.0}},
}


@pytest.mark.parametrize("cfg, key", [
    ({"command": "trap", "seed": 1, "theta0": [0.1, 0.2, 0.3]}, "theta0"),
    ({"command": "trap", "seed": 1, "runs": -3}, "runs"),
    ({"command": "trap", "seed": 1, "runs": 0}, "runs"),
    ({"command": "trap", "seed": 1, "delta": 0.0}, "delta"),
    ({"command": "trap", "seed": 1, "zeta": -1.0}, "zeta"),
    ({"command": "trap", "seed": 1, "varrho": 0.0}, "varrho"),
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
    ({"command": "escape", "seed": 1,
      "noise": {"kind": "rademacher", "frozen": "no"}}, "noise.frozen"),
    ({**_SADDLE_TRAIN, "problem": {
        "kind": "quadratic_saddle",
        "noise": {"kind": "rademacher", "frozen": True}}}, "noise.frozen"),
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
        cfg = {**_BANDIT_CNC, "problem": problem}
    else:
        cfg = {k: v for k, v in CONSTANTS_CFG.items() if k != "regularity"}
        cfg.update(estimate={"family": "tabular_softmax", "n_states": 1,
                             "n_actions": 2, "box": [[-1.0, 1.0]] * 2, "grid": 3},
                   omega_from_fisher={"problem": problem, "theta": [0.0, 0.0]})
    path = write_config(tmp_path, "c.json", cfg)
    code, out, err = run_cli(capsys, [command, "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: problem.mdp_path: ")


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
    assert "config is not valid JSON" in err


# A value of each kind that the reader accepts, and values it must reject.
_GOOD = {"number": 1.0, "integer": 1, "flag": False, "text": "x",
         "vector": [1.0], "box": [[0.0, 1.0]], "matrix": [[1.0]],
         "tensor": [[[1.0]]]}
_WRONG = {"number": ["x", True, float("nan"), float("inf"), [1.0]],
          "integer": [2.5, True, "x"],
          "flag": ["no", 1, None],
          "text": [1.0, True, ["x"]],
          "vector": [[], [True, 1], ["a", 1.0], 1.0]}
for _kind in ("box", "matrix", "tensor"):
    _WRONG[_kind] = _WRONG["vector"] + [[1.0, 2.0]]


def _good(kind):
    """A value of kind: a block holds its required keys only."""
    if isinstance(kind, util.OneOf):
        tag, block = next(iter(kind.blocks.items()))
        return {**_good(block), "kind": tag}
    if isinstance(kind, util.Block):
        return {key: _good(kind.kinds[key]) for key in kind.required}
    return _GOOD[kind]


def _wrong(kind):
    """(dotted key path, value) pairs: each value is of kind but for the one
    key at that path, whose value is of the wrong kind."""
    if isinstance(kind, util.OneOf):
        yield "", "x"
        for tag, block in kind.blocks.items():
            for dotted, value in _wrong(block):
                if dotted:
                    yield dotted, value if dotted == "kind" else {**value, "kind": tag}
        return
    if isinstance(kind, util.Block):
        yield "", "x"
        base = _good(kind)
        for key, sub in kind.kinds.items():
            for dotted, value in _wrong(sub):
                yield ".".join(filter(None, (key, dotted))), {**base, key: value}
        return
    for value in _WRONG[kind]:
        yield "", value


# Keys that once had a kind and that no command reads any more, with a value
# of that kind: each is now an unknown key.
_DELETED = {"constants": {"seed": 1, "zeta": 1.0, "varrho": 1.0},
            "train": {"delta": 0.1}}


def _schema_cases():
    cases = {}
    for command, schema in cli._SCHEMAS.items():
        for dotted, cfg in _wrong(schema):
            if dotted:
                if dotted != "command":
                    cfg["command"] = command
                cases.setdefault(f"{command}:{dotted}", []).append(cfg)
        for key, value in _DELETED.get(command, {}).items():
            assert key not in schema.kinds
            cases[f"{command}:{key}"] = [{**_good(schema), "command": command,
                                          key: value}]
    return [pytest.param(case, configs, id=case)
            for case, configs in sorted(cases.items())]


@pytest.mark.parametrize("case, configs", _schema_cases())
def test_every_schema_key_rejects_a_wrong_kind(tmp_path, capsys, case, configs):
    """Every key of every schema, nested blocks included, exits 2 naming its
    dotted path when given a value of the wrong kind; a deleted key exits 2
    as unknown whatever its value."""
    command, dotted = case.split(":")
    want = (f"error: config: unknown key {dotted!r}"
            if dotted in _DELETED.get(command, {}) else f"error: {dotted}: ")
    for cfg in configs:
        path = write_config(tmp_path, "bad.json", cfg)
        code, out, err = run_cli(capsys, [command, "--config", path])
        assert (code, out) == (2, ""), (cfg, err)
        assert err.startswith(want), (cfg, err)


def test_seed_flag_only_on_commands_that_draw(tmp_path, capsys):
    """--seed exists where the schema has a seed: constants draws nothing."""
    path = write_config(tmp_path, "c.json", CONSTANTS_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", path, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert [name for name, schema in cli._SCHEMAS.items()
            if "seed" not in schema.kinds] == ["constants"]

    cfg = dict(CLASSIFY_CFG, mode="estimated", n=50)
    outs = []
    for seed_cfg, flag in ((5, ["--seed", "9"]), (9, [])):
        path = write_config(tmp_path, "e.json", dict(cfg, seed=seed_cfg))
        code, out, _ = run_cli(capsys, ["classify", "--config", path,
                                        "--theta", "0.2,0.3", *flag])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("how", ["config", "flag"])
def test_negative_seed_exits_2(tmp_path, capsys, how):
    cfg = {"command": "escape", "seed": -1 if how == "config" else 1, "runs": 5}
    argv = ["escape", "--config", write_config(tmp_path, "e.json", cfg)]
    if how == "flag":
        argv += ["--seed", "-2"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: seed: must be at least 0")


def test_seed_comes_from_config_or_flag_only(tmp_path, capsys, monkeypatch):
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
