"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v`; the verdict lines appear
in the terminal summary after the run (see conftest).
"""
import json
import math
import time

import numpy as np

from pgsosp.cli import main as cli_main
from pgsosp.estimators import pg_sample_block
from pgsosp.mdp import (
    TabularMdp,
    perf_diff_tail_tolerance,
    performance_difference_check,
    random_mdp,
)
from pgsosp.oracle import (
    _gradient_enumeration,
    analytic_example1,
    enumerate_trajectories,
    exact_gradient,
    exact_hessian,
    exact_objective,
    fd_gradient,
)
from pgsosp.policy import ExampleOnePiecewise, TabularSoftmax, estimate_regularity
from pgsosp.sosp import (
    Region,
    cnc_estimate,
    escape_budget,
    hessian_estimator_sigma,
    hessian_lipschitz_chi,
    iota_sq_floor,
    iteration_budget,
    paper_constants,
    report_from_grad_hessian,
    smoothness_ell,
    theorem_step_size,
    trap_budget,
)
from pgsosp.trainer import (
    MdpPolicySource,
    NoiseSpec,
    QuadraticSaddleSource,
    coupled_quadratic_run,
    default_escape_benchmark,
    default_trap_benchmark,
    example1_sosp_study,
    verify_prop1,
)
from pgsosp.util import derive_rng

from conftest import record_acceptance
from trajectory_reference import Trajectory, hessian_estimate, pg_estimate

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def announce(number, name, passed, started, budget):
    elapsed = time.perf_counter() - started
    record_acceptance(number, name, passed, elapsed, budget)
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def bandit_mdp():
    return TabularMdp(
        n_states=1, n_actions=2, transition=np.ones((1, 2, 1)),
        reward=np.array([[1.0, 0.0]]), rho0=np.array([1.0]),
        gamma=0.5, horizon=1, r_min=0.0, r_max=1.0,
    )


def test_ac01_oracle_identity_suite():
    started = time.perf_counter()
    ok = True
    for i in range(50):
        rng = derive_rng(1000, i)
        n_s = int(rng.integers(2, 5))
        n_a = int(rng.integers(2, 4))
        h = int(rng.integers(2, 7))
        mdp = random_mdp(2000 + i, n_states=n_s, n_actions=n_a, horizon=h,
                         gamma=0.5)
        family = TabularSoftmax(n_s, n_a)
        theta = rng.uniform(-1.5, 1.5, family.param_dim)

        grad = exact_gradient(mdp, family, theta)
        scale = max(1.0, float(np.linalg.norm(grad)))
        ok &= float(np.linalg.norm(_gradient_enumeration(mdp, family, theta) - grad)) \
            <= 1e-8 * scale

        fd = fd_gradient(lambda t: exact_objective(mdp, family, t), theta,
                         step=1e-5)
        ok &= float(np.linalg.norm(fd - grad)) <= 1e-4 * scale

        theta_b = rng.uniform(-1.5, 1.5, family.param_dim)
        lhs, rhs = performance_difference_check(mdp, family, theta, theta_b)
        ok &= abs(lhs - rhs) <= perf_diff_tail_tolerance(mdp)
    announce(1, "oracle identity suite (50 random MDPs)", ok, started, 30)


def test_ac02_estimator_unbiasedness_by_enumeration():
    started = time.perf_counter()
    ok = True
    for i in range(20):
        rng = derive_rng(1100, i)
        n_s = int(rng.integers(2, 4))
        n_a = 2
        h = int(rng.integers(2, 5))
        mdp = random_mdp(2100 + i, n_states=n_s, n_actions=n_a, horizon=h,
                         gamma=0.6)
        family = TabularSoftmax(n_s, n_a)
        theta = rng.uniform(-1.0, 1.0, family.param_dim)
        p = family.param_dim

        grad_sum = np.zeros(p)
        hess_sum = np.zeros((p, p))
        for prob, s, a, r in enumerate_trajectories(mdp, family, theta):
            traj = Trajectory(s, a, r, mdp.gamma)
            grad_sum += prob * pg_estimate(traj, family, theta)
            hess_sum += prob * hessian_estimate(traj, family, theta)

        grad_oracle = exact_gradient(mdp, family, theta)
        scale = max(1.0, float(np.linalg.norm(grad_oracle)))
        ok &= float(np.linalg.norm(grad_sum - grad_oracle)) <= 1e-8 * scale
        hess_oracle = exact_hessian(mdp, family, theta)
        ok &= float(np.abs((hess_sum + hess_sum.T) / 2 - hess_oracle).max()) \
            <= 1e-6
    announce(2, "estimator unbiasedness by enumeration (20 instances)",
             ok, started, 60)


def test_ac03_per_sample_deviation_bound():
    started = time.perf_counter()
    instances = [
        dict(seed=0, n_states=2, n_actions=2, horizon=4, gamma=0.9),
        dict(seed=1, n_states=3, n_actions=2, horizon=5, gamma=0.9),
        dict(seed=2, n_states=2, n_actions=3, horizon=4, gamma=0.9),
        dict(seed=3, n_states=3, n_actions=2, horizon=6, gamma=0.9),
        dict(seed=4, n_states=2, n_actions=2, horizon=3, gamma=0.8),
    ]
    ok = True
    for spec in instances:
        mdp = random_mdp(3000 + spec["seed"], n_states=spec["n_states"],
                         n_actions=spec["n_actions"], horizon=spec["horizon"],
                         gamma=spec["gamma"])
        family = TabularSoftmax(spec["n_states"], spec["n_actions"])
        theta = np.zeros(family.param_dim)
        reg = estimate_regularity(family, [(-1, 1)] * family.param_dim, 3)
        grad = exact_gradient(mdp, family, theta)
        rows = pg_sample_block(mdp, family, theta, 100_000, seed=4000 + spec["seed"])
        bound = reg.G * mdp.r_max / (1.0 - mdp.gamma) ** 2
        ok &= np.linalg.norm(rows - grad, axis=1).max() <= bound
    announce(3, "per-sample deviation bound (5 x 1e5 samples)", ok, started, 60)


def test_ac04_benchmark_closed_forms():
    started = time.perf_counter()
    ok = True
    cases = {
        (0.0, 0.0): (INV_SQRT_2PI, np.zeros(2), 2.0 * INV_SQRT_2PI),
        (0.5, 0.5): (INV_SQRT_2PI,
                     np.array([-INV_SQRT_2PI, INV_SQRT_2PI]),
                     2.0 * INV_SQRT_2PI),
        (1.5, 0.0): (INV_SQRT_2PI * math.exp(0.125), None, None),
        (-0.5, 0.5): (INV_SQRT_2PI * math.exp(-0.75), None, None),
    }
    for theta_t, (j_exp, grad_exp, lam_exp) in cases.items():
        theta = np.array(theta_t)
        res = analytic_example1(theta)
        ok &= abs(res.objective - j_exp) <= 1e-10
        if grad_exp is None:
            grad_exp = j_exp * theta
            hess = j_exp * (np.outer(theta, theta) + np.eye(2))
            lam_exp = float(np.linalg.eigvalsh(hess)[-1])
        ok &= float(np.abs(res.grad - grad_exp).max()) <= 1e-10
        ok &= abs(float(np.linalg.eigvalsh(res.hessian)[-1]) - lam_exp) <= 1e-10
    # Six-digit constants quoted alongside the closed forms.
    ok &= abs(analytic_example1(np.zeros(2)).objective - 0.398942) <= 1e-6
    ok &= abs(analytic_example1(np.array([1.5, 0.0])).objective
              - 0.452055) <= 1e-5
    ok &= abs(analytic_example1(np.array([-0.5, 0.5])).objective
              - 0.188447) <= 1e-6

    origin = analytic_example1(np.zeros(2))
    ok &= report_from_grad_hessian(origin.grad, origin.hessian, 0.1, 1.0).region \
        is Region.L2
    half = analytic_example1(np.array([0.5, 0.5]))
    ok &= report_from_grad_hessian(half.grad, half.hessian, 0.1, 1.0).region \
        is Region.L1
    announce(4, "benchmark closed forms and region labels", ok, started, 1)


def test_ac05_constants_arithmetic():
    started = time.perf_counter()
    ok = True
    ok &= smoothness_ell(1.0, 1.0, 1.0, 0.5, 2) == 12.0
    ok &= 2.0 * 3.0 / 0.25 == 24.0 and abs(
        24.0 - (2.0 * 3.0 / (1.0 - 0.5) ** 2)) == 0.0
    from pgsosp.sosp import deviation_sigma

    ok &= deviation_sigma(2.0, 3.0, 0.5) == 24.0
    ok &= abs(hessian_lipschitz_chi(1.0, 1.0, 1.0, 1.0, 0.5)
              - 62.0 / 3.0) <= 1e-12
    ok &= abs(hessian_estimator_sigma(1.0, 1.0, 1.0, 0.9, 5, 2)
              - 1200.0 * math.sqrt(2.0)) <= 1e-9
    ok &= f"{hessian_estimator_sigma(1.0, 1.0, 1.0, 0.9, 5, 2):.2f}" == "1697.06"
    alpha = theorem_step_size(0.1, 1.0, 1.0, 1.0, 10.0, 12.0)
    ok &= f"{alpha:.5e}" == "1.66650e-05"
    ok &= iteration_budget(0.01, 1.0, 0.5, 1.0, 1.0, 1.0, 0.1) == 276312
    ok &= escape_budget(1e-4, 10.0, 1.0, 1.0) == 1053
    ok &= trap_budget(0.1, 0.1) == 230
    announce(5, "closed-form constants arithmetic", ok, started, 1)


def test_ac06_one_step_improvement_on_large_gradient():
    started = time.perf_counter()
    mdp = bandit_mdp()
    family = TabularSoftmax(1, 2)
    source = MdpPolicySource(mdp, family)
    reg = estimate_regularity(family, [(-2, 2), (-2, 2)], 9)
    constants = paper_constants(reg, r_min=1.0, r_max=1.0, gamma=0.5, h=1,
                                p=2, chi=1.0)
    epsilon = 0.1
    cap = min(2 * epsilon ** 2 / ((epsilon ** 2 + constants.sigma ** 2)
                                  * constants.ell), 2 / constants.ell)
    result = verify_prop1(source, np.zeros(2), alpha=0.5 * cap, trials=10_000,
                          seed=5000, epsilon=epsilon, ell=constants.ell,
                          sigma=constants.sigma)
    announce(6, "one-step improvement bound on the bandit", result.passes,
             started, 60)


def test_ac07_saddle_escape_benchmark():
    started = time.perf_counter()
    ok = True
    bench = default_escape_benchmark(runs=200, seed=6000)
    ok &= bench.escape_fraction >= 0.9
    ok &= bench.mean_escape_steps <= bench.step_cap
    contrast = default_escape_benchmark(runs=200, seed=6000, contrast=True)
    ok &= contrast.escape_fraction <= 0.1
    source = QuadraticSaddleSource(np.diag([1.0, -1.0]),
                                   NoiseSpec("rademacher", 1.0))
    coupled = coupled_quadratic_run(source, np.array([0.2, 0.1]), 1e-3, 380,
                                    seed=6001)
    ok &= coupled <= 1e-12
    announce(7, "saddle escape benchmark + coupled-model gap", ok, started, 300)


def test_ac08_trapping_benchmark():
    started = time.perf_counter()
    result = default_trap_benchmark(runs=500, seed=7000)
    delta = 0.2
    threshold = 1.0 - delta * math.log(1.0 / delta) - 0.05
    ok = result.stay_fraction >= threshold
    announce(8, "local-maximum trapping benchmark", ok, started, 300)


def test_ac09_benchmark_run_reaches_sosp_region():
    started = time.perf_counter()
    from pgsosp.mdp import example_one_mdp

    family = ExampleOnePiecewise()
    mdp = example_one_mdp()
    theta0 = np.array([0.01, 0.01])
    reg = estimate_regularity(family, [(-0.5, 0.5), (-0.5, 0.5)], 21)
    # Relaxed evaluation: eps = 0.3, chi pinned to 1, omega/r_min overridden
    # to 1, iota estimated from samples along the escape direction.
    constants = paper_constants(reg, r_min=1.0, r_max=1.0, gamma=0.5, h=1,
                                p=2, chi=1.0, omega=1.0)
    epsilon = 0.3
    alpha = theorem_step_size(epsilon, constants.chi, constants.r_min,
                              constants.omega, constants.sigma, constants.ell)
    u_p = np.array([0.0, 1.0])  # top-eigenvalue direction at the start point
    iota_sq = iota_sq_floor(*cnc_estimate(mdp, family, theta0, u_p, n=20_000, seed=8100))
    budget = iteration_budget(alpha, constants.r_max, constants.gamma,
                              math.sqrt(iota_sq), constants.chi, epsilon,
                              delta=0.1)
    study = example1_sosp_study(
        n_seeds=100, theta0=theta0, alpha=alpha,
        epsilon=epsilon, chi=constants.chi,
        max_updates=min(budget, 1_000_000),
        seed=8000, report_every=50,
    )
    ok = study.l3_fraction >= 0.5 and study.aborted == 0
    announce(9, "end-to-end benchmark run reaches the local-optimal region",
             ok, started, 600)


def test_ac10_determinism(tmp_path):
    started = time.perf_counter()
    ok = True

    train_cfg = {
        "command": "train",
        "problem": {"kind": "example1"},
        "theta0": [0.01, 0.01], "alpha": 0.005, "max_iters": 200,
        "epsilon": 0.3, "chi": 1.0, "seed": 17, "report_every": 20,
    }
    escape_cfg = {"command": "escape", "seed": 3, "runs": 40}
    artifacts = []
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        cfg_t = base / "train.json"
        cfg_e = base / "escape.json"
        base.mkdir()
        cfg_t.write_text(json.dumps(train_cfg))
        cfg_e.write_text(json.dumps(escape_cfg))
        out_t = base / "train_out"
        out_e = base / "escape_out"
        ok &= cli_main(["train", "--config", str(cfg_t),
                        "--out", str(out_t)]) == 0
        ok &= cli_main(["escape", "--config", str(cfg_e),
                        "--out", str(out_e)]) == 0
        artifacts.append((
            (out_t / "trace.csv").read_bytes(),
            (out_t / "summary.json").read_bytes(),
            (out_e / "escape.json").read_bytes(),
        ))
    ok &= artifacts[0] == artifacts[1]

    study_a = example1_sosp_study(25, np.array([0.01, 0.01]), 5e-4, 0.3, 1.0,
                                  max_updates=100_000, seed=21)
    study_b = example1_sosp_study(25, np.array([0.01, 0.01]), 5e-4, 0.3, 1.0,
                                  max_updates=100_000, seed=21)
    ok &= np.array_equal(study_a.first_l3, study_b.first_l3)
    announce(10, "repeat runs produce byte-identical artifacts", ok,
             started, 120)
