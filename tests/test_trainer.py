import math
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import make_random_problem
from pgsosp import util
from pgsosp.errors import ConfigError, PolicyDomainError, PreconditionError
from pgsosp.mdp import _walk, example_one_mdp
from pgsosp.oracle import (
    analytic_example1,
    exact_gradient,
    exact_hessian,
    exact_objective,
)
from pgsosp.policy import LEFT, RIGHT, ExampleOnePiecewise
from pgsosp.sosp import Region
from pgsosp.sosp import escape_budget, prop3_step_size, trap_budget
from pgsosp.trainer import (
    EscapeResult,
    MdpPolicySource,
    NoiseSpec,
    QuadraticSaddleSource,
    StronglyConcaveSource,
    TrainerConfig,
    TrapResult,
    _block_steps,
    _row_norm,
    coupled_quadratic_run,
    default_escape_benchmark,
    default_trap_benchmark,
    _example1_samples,
    _no_floor,
    example1_sosp_study,
    run,
    verify_escape,
    verify_prop1,
    verify_trap,
)
from pgsosp.util import derive_rng
from trajectory_reference import Trajectory, hessian_estimate, pg_estimate

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestNoiseSpec:
    def test_iota_by_construction(self):
        u = np.array([1.0, 0.0])
        assert NoiseSpec("rademacher", 2.0).iota_sq(u) == 4.0
        assert NoiseSpec("sphere", 2.0).iota_sq(u) == 2.0
        assert NoiseSpec("zero").iota_sq(u) == 0.0
        assert NoiseSpec("orthogonal", 1.0, direction=u).iota_sq(u) == 0.0
        assert NoiseSpec("signed_direction", 1.5, direction=u).iota_sq(u) == 2.25

    def test_rademacher_moment_empirical(self):
        noise = NoiseSpec("rademacher", 1.0)
        rng = derive_rng(0, 61)
        draws = noise.draw(rng, 20_000, 2)
        u = np.array([1.0, 0.0])
        assert abs(((draws @ u) ** 2).mean() - 1.0) <= 1e-12  # signs are +-1

    def test_orthogonal_draws_have_no_component(self):
        u = np.array([1.0, 0.0])
        noise = NoiseSpec("orthogonal", 1.0, direction=u)
        draws = noise.draw(derive_rng(0, 62), 100, 2)
        assert np.abs(draws @ u).max() <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            NoiseSpec("cauchy")

    def test_direction_required(self):
        with pytest.raises(ConfigError):
            NoiseSpec("orthogonal", 1.0)


class TestSyntheticSources:
    @pytest.mark.parametrize("cubic", [0.0, 0.5])
    @pytest.mark.parametrize("eigenvalues, center", [
        ([1.5, -0.7], [0.3, -0.2]),
        ([2.0, -1.0, 0.4], [-0.1, 0.25, 0.6]),
        ([1.0, -0.5, 0.3, -1.2], [0.2, -0.1, 0.0, 0.4]),
        ([0.9, -1.1, 0.2, 0.6, -0.3], [0.1, 0.0, -0.3, 0.2, 0.5]),
        (np.linspace(-1.0, 1.4, 8), np.linspace(0.3, -0.4, 8)),
    ])
    def test_block_rows_equal_per_row_calls(self, eigenvalues, center, cubic):
        dim = len(eigenvalues)
        # The same spectrum as a diagonal and as a rotated (full) Hessian.
        rotation, _ = np.linalg.qr(derive_rng(0, 62).standard_normal((dim, dim)))
        full = rotation @ np.diag(eigenvalues) @ rotation.T
        block = derive_rng(0, 63).standard_normal((64, dim))
        for hessian in (np.diag(eigenvalues), (full + full.T) / 2.0):
            source = QuadraticSaddleSource(hessian, NoiseSpec("zero"),
                                           center=np.array(center), cubic=cubic)
            values = source.objective(block)
            grads = source.gradient(block)
            assert values.shape == (64,) and grads.shape == block.shape
            for theta, value, grad in zip(block, values, grads):
                assert source.objective(theta) == value
                assert np.array_equal(source.gradient(theta), grad)

    def test_strongly_concave_formulas(self):
        zeta = 1.7
        theta_star = np.array([0.3, -1.1, 0.05])
        source = StronglyConcaveSource(zeta, theta_star, noise_sigma=0.2)
        assert np.array_equal(source.hessian(np.zeros(3)), -zeta * np.eye(3))
        for theta in derive_rng(0, 64).standard_normal((50, 3)):
            d = theta - theta_star
            assert np.array_equal(source.gradient(theta), -zeta * d)
            assert source.objective(theta) == pytest.approx(
                -zeta / 2.0 * float(d @ d), rel=1e-15, abs=0.0)

    def test_negative_noise_sigma_rejected(self):
        with pytest.raises(ConfigError, match="noise_sigma"):
            StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=-0.1)

    def test_empty_hessian_rejected(self):
        with pytest.raises(ConfigError, match="empty Hessian"):
            QuadraticSaddleSource(np.zeros((0, 0)), NoiseSpec("zero"))
        with pytest.raises(ConfigError, match="empty Hessian"):
            StronglyConcaveSource(theta_star=[])


class TestRun:
    def test_zero_step_size_is_fixed_point(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.5)
        config = TrainerConfig(alpha=0.0, max_iters=20, epsilon=0.1, chi=1.0,
                               seed=3, report_every=5)
        record = run(source, config, np.array([0.4, -0.2]))
        for row in record.rows:
            assert np.array_equal(row.theta, np.array([0.4, -0.2]))

    def test_bitwise_determinism(self):
        source = QuadraticSaddleSource(np.diag([1.0, -1.0]),
                                       NoiseSpec("rademacher", 0.5))
        config = TrainerConfig(alpha=1e-2, max_iters=50, epsilon=0.5, chi=1.0,
                               seed=11, report_every=10)
        a = run(source, config, np.array([0.05, 0.05]))
        b = run(source, config, np.array([0.05, 0.05]))
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.k == rb.k and ra.varsigma == rb.varsigma
            assert np.array_equal(ra.theta, rb.theta)
            assert ra.objective == rb.objective

    def test_deterministic_contraction(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.0)
        config = TrainerConfig(alpha=0.5, max_iters=30, epsilon=0.1, chi=1.0,
                               seed=0, report_every=1)
        record = run(source, config, np.array([0.8, -0.6]))
        dists = [np.linalg.norm(row.theta) for row in record.rows]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_ascent_sanity_zero_noise(self):
        # With no noise and alpha < 2/ell the objective never decreases.
        h = np.diag([1.0, -2.0])
        source = QuadraticSaddleSource(h, NoiseSpec("zero"))
        config = TrainerConfig(alpha=0.5, max_iters=40, epsilon=0.1, chi=1.0,
                               seed=0, report_every=1)
        record = run(source, config, np.array([0.3, 0.4]))
        values = [row.objective for row in record.rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_varsigma_process_law(self, example1):
        mdp, family = example1
        source = MdpPolicySource(mdp, family)
        config = TrainerConfig(alpha=0.05, max_iters=40, epsilon=0.3, chi=1.0,
                               seed=5, report_every=4, kappa_hat_0=7)
        record = run(source, config, np.array([0.01, 0.01]))
        assert len(record.rows) >= 2
        for prev, nxt in zip(record.rows, record.rows[1:]):
            inc = nxt.varsigma - prev.varsigma
            expected = 1 if prev.region in (Region.L1, Region.L3) else 7
            assert inc == expected

    def test_example1_source_uses_the_oracles_at_any_horizon(self):
        # At h = 3 the `up` self-loop re-decides at s0, so the h = 1 closed
        # forms no longer give J: the oracle says 0.6625, they say 0.5067.
        mdp, family = example_one_mdp(horizon=3), ExampleOnePiecewise()
        source = MdpPolicySource(mdp, family)
        theta = np.array([0.3, 0.6])
        assert source.objective(theta) == exact_objective(mdp, family, theta)
        assert source.objective(theta) == pytest.approx(0.6625, abs=1e-4)
        assert np.array_equal(source.gradient(theta),
                              exact_gradient(mdp, family, theta))
        assert np.array_equal(source.hessian(theta),
                              exact_hessian(mdp, family, theta))

    def test_divergence_abort_records_iteration(self):
        source = QuadraticSaddleSource(np.diag([5.0, 1.0]), NoiseSpec("zero"))
        config = TrainerConfig(alpha=10.0, max_iters=1000, epsilon=0.1,
                               chi=1.0, seed=0, report_every=100)
        record = run(source, config, np.array([1.0, 1.0]))
        assert record.diverged_at is not None
        assert record.diverged_at <= 1000

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_gradient_is_divergence(self):
        # No row is classified at an iterate whose gradient overflows.
        source = QuadraticSaddleSource(np.diag([1e308, -1.0]), NoiseSpec("zero"))
        config = TrainerConfig(alpha=0.1, max_iters=5, epsilon=0.1, chi=1.0)
        record = run(source, config, np.array([10.0, 0.0]))
        assert (record.rows, record.diverged_at) == ([], 0)
        # theta_1 is about 1e4, inside the norm guard, but H theta_1 overflows.
        source = QuadraticSaddleSource(np.diag([1e305, -1.0]), NoiseSpec("zero"))
        config = TrainerConfig(alpha=1e-301, max_iters=1, epsilon=0.1, chi=1.0)
        record = run(source, config, np.array([1.0, 0.0]))
        assert [row.k for row in record.rows] == [0]
        assert record.diverged_at == 1

    def test_empty_run(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.0)
        config = TrainerConfig(alpha=0.1, max_iters=0, epsilon=0.1, chi=1.0,
                               seed=0)
        record = run(source, config, np.zeros(2))
        assert record.rows == []

    def test_batch_extension_flag(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.1)
        config = TrainerConfig(alpha=0.1, max_iters=3, epsilon=0.1, chi=1.0,
                               seed=0, batch_size=4)
        record = run(source, config, np.array([0.1, 0.1]))
        assert record.metadata["batch_extension"] is True


def _walk_one(mdp, family, theta, uniforms):
    """The trajectory _walk builds from one row of 2h+1 uniforms."""
    states, actions = _walk(mdp, uniforms[None, :],
                            family.probs(theta).cumsum(axis=1))
    return Trajectory(states[0], actions[0], mdp.reward[states[0], actions[0]],
                      mdp.gamma)


def _tabular(theta_of_dim):
    mdp, family = make_random_problem(4)
    return mdp, family, np.array(theta_of_dim(family.param_dim), dtype=float)


_SAMPLE_CASES = {
    "tabular-random": lambda: _tabular(
        lambda p: derive_rng(3).uniform(-1.0, 1.0, p)),
    # exp(-800) underflows: action 1 of state 0 has probability exactly 0.
    "tabular-underflow": lambda: _tabular(lambda p: [800.0] + [0.0] * (p - 1)),
    "example1-in-box": lambda: (example_one_mdp(), ExampleOnePiecewise(),
                                np.array([0.3, 0.4])),
    "example1-outside-box": lambda: (example_one_mdp(), ExampleOnePiecewise(),
                                     np.array([-0.3, 0.2])),
    "example1-h3": lambda: (example_one_mdp(horizon=3), ExampleOnePiecewise(),
                            np.array([0.5, 0.6])),
}


class TestMdpSample:
    @pytest.mark.parametrize("case", sorted(_SAMPLE_CASES))
    def test_sample_gradient_is_pg_estimate_of_the_walk(self, case):
        mdp, family, theta = _SAMPLE_CASES[case]()
        if case == "tabular-underflow":
            assert family.probs(theta)[0, 1] == 0.0
        source = MdpPolicySource(mdp, family)
        width = 2 * mdp.horizon + 1
        for seed in range(40):
            got = source.sample_gradient(theta, derive_rng(seed))
            traj = _walk_one(mdp, family, theta, derive_rng(seed).random(width))
            assert np.array_equal(got, pg_estimate(traj, family, theta))

    @pytest.mark.parametrize("case", ["tabular-random", "example1-h3"])
    def test_sample_pair_sees_the_same_trajectory(self, case):
        mdp, family, theta = _SAMPLE_CASES[case]()
        source = MdpPolicySource(mdp, family)
        width = 2 * mdp.horizon + 1
        for seed in range(20):
            g, h = source.sample_pair(theta, derive_rng(seed))
            assert np.array_equal(
                g, source.sample_gradient(theta, derive_rng(seed)))
            traj = _walk_one(mdp, family, theta, derive_rng(seed).random(width))
            np.testing.assert_allclose(h, hessian_estimate(traj, family, theta),
                                       rtol=1e-12, atol=1e-14)

    def test_outside_example1_domain_raises(self):
        source = MdpPolicySource(example_one_mdp(), ExampleOnePiecewise())
        with pytest.raises(PolicyDomainError,
                           match=r"action probabilities leave \[0, 1\]"):
            source.sample_gradient(np.array([3.0, 3.0]), derive_rng(0))

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_run_reads_one_stream_in_update_order(self, batch_size):
        # Draw j of sample i of update k is uniform (k*b + i)*(2h+1) + j.
        mdp, family, theta = _SAMPLE_CASES["tabular-random"]()
        alpha, seed, width = 0.5, 12, 2 * mdp.horizon + 1
        record = run(MdpPolicySource(mdp, family),
                     TrainerConfig(alpha=alpha, max_iters=3, epsilon=0.3,
                                   chi=1.0, seed=seed, batch_size=batch_size),
                     theta)
        uniforms = derive_rng(seed).random(3 * batch_size * width)
        uniforms = uniforms.reshape(3, batch_size, width)
        for k in range(3):
            samples = [pg_estimate(_walk_one(mdp, family, theta, row), family, theta)
                       for row in uniforms[k]]
            theta = theta + alpha * (np.sum(samples, axis=0) / batch_size)
            assert record.rows[k + 1].k == k + 1
            assert np.array_equal(record.rows[k + 1].theta, theta)

    def test_synthetic_noise_reads_the_run_stream(self):
        source = QuadraticSaddleSource(np.diag([1.0, -1.0]),
                                       NoiseSpec("rademacher", 0.5))
        alpha, theta = 0.1, np.array([0.2, -0.1])
        record = run(source, TrainerConfig(alpha=alpha, max_iters=3,
                                           epsilon=0.3, chi=1.0, seed=4), theta)
        rng = derive_rng(4)
        for k in range(3):
            theta = theta + alpha * (source.gradient(theta)
                                     + source.noise.draw(rng, 1, 2)[0])
            assert np.array_equal(record.rows[k + 1].theta, theta)

    def test_run_derives_one_stream_and_builds_each_table_once(self, monkeypatch):
        # Counted, not timed: a return to a stream per update, or to a
        # second probs table per sample, fails here.
        mdp, family, theta = _SAMPLE_CASES["tabular-random"]()
        source = MdpPolicySource(mdp, family)
        derived = []
        original = util.derive_rng

        def counting_derive(*args):
            derived.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("pgsosp") and \
                    getattr(module, "derive_rng", None) is original:
                monkeypatch.setattr(module, "derive_rng", counting_derive)

        probs_calls = [0]
        table = family.probs

        def counting_probs(t):
            probs_calls[0] += 1
            return table(t)

        monkeypatch.setattr(family, "probs", counting_probs)
        per_update = []
        sample = source.sample_gradient

        def counted_sample(t, rng):
            before = probs_calls[0]
            g = sample(t, rng)
            per_update.append(probs_calls[0] - before)
            return g

        monkeypatch.setattr(source, "sample_gradient", counted_sample)
        run(source, TrainerConfig(alpha=0.05, max_iters=200, epsilon=0.3,
                                  chi=1.0, seed=2, report_every=100), theta)
        assert derived == [(2,)]
        assert len(per_update) == 200
        assert max(per_update) <= 2


class TestProp1:
    def test_zero_noise_exceeds_bound(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.0)
        theta = np.array([0.5, 0.0])  # gradient norm 0.5
        res = verify_prop1(source, theta, alpha=0.05, trials=10, seed=1,
                           epsilon=0.1, ell=1.0, sigma=0.2)
        assert res.passes
        assert res.mean_gain >= res.bound

    def test_bandit_point(self, bandit, bandit_family):
        source = MdpPolicySource(bandit, bandit_family)
        res = verify_prop1(source, np.zeros(2), alpha=5e-4, trials=5000,
                           seed=2, epsilon=0.1, ell=2.43, sigma=3.93)
        assert res.grad_norm == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-12)
        assert res.passes

    def test_alpha_guard(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.0)
        with pytest.raises(PreconditionError, match="alpha"):
            verify_prop1(source, np.array([0.5, 0.0]), alpha=3.0, trials=5,
                         seed=0, epsilon=0.1, ell=1.0, sigma=0.0)

    def test_region_guard(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.0)
        with pytest.raises(PreconditionError, match="large-gradient"):
            verify_prop1(source, np.array([0.01, 0.0]), alpha=0.01, trials=5,
                         seed=0, epsilon=0.1, ell=1.0, sigma=0.0)


class TestCoupledRun:
    def test_exact_quadratic_zero_gap(self):
        source = QuadraticSaddleSource(np.diag([1.0, -1.0]),
                                       NoiseSpec("rademacher", 1.0))
        gap = coupled_quadratic_run(source, np.array([0.2, 0.1]), 1e-3, 300,
                                    seed=4)
        assert gap <= 1e-12

    def test_zero_steps(self):
        source = QuadraticSaddleSource(np.diag([1.0, -1.0]), NoiseSpec("zero"))
        assert coupled_quadratic_run(source, np.zeros(2), 1e-3, 0, seed=0) == 0.0

    def test_gap_shrinks_superlinearly_in_alpha(self):
        # A cubic term makes the objective leave its quadratic model; the
        # resulting gap decays faster than alpha (ratio >= 3 per halving).
        source = QuadraticSaddleSource(np.diag([1.0, -1.0]),
                                       NoiseSpec("rademacher", 1.0), cubic=1.0)
        gaps = []
        for alpha in (1e-3, 5e-4):
            gaps.append(coupled_quadratic_run(source, np.array([0.3, 0.2]), alpha,
                                              300, seed=4))
        assert gaps[0] / gaps[1] >= 3.0

    def test_mdp_source_supported(self, bandit, bandit_family):
        source = MdpPolicySource(bandit, bandit_family)
        gap = coupled_quadratic_run(source, np.zeros(2), 1e-3, 20, seed=9)
        assert np.isfinite(gap)


class TestEscape:
    def test_default_benchmark(self):
        res = default_escape_benchmark(runs=100, seed=2)
        assert res.escape_fraction >= 0.9
        assert res.kappa_hat_0 == 380
        assert res.mean_escape_steps <= res.step_cap

    def test_noise_along_escape_direction_is_fast(self):
        u = np.array([1.0, 0.0])
        source = QuadraticSaddleSource(
            np.diag([1.0, -1.0]),
            NoiseSpec("signed_direction", 1.0, direction=u),
        )
        res = verify_escape(source, alpha=1e-3, runs=50, seed=3, chi=1.0,
                            epsilon=1.0, sigma_h0=10.0)
        assert res.escape_fraction == 1.0
        assert res.mean_escape_steps <= 10

    def test_orthogonal_contrast_fails_to_escape(self):
        res = default_escape_benchmark(runs=100, seed=2, contrast=True)
        assert res.escape_fraction <= 0.1

    def test_rounding_residue_is_no_floor(self):
        # Orthogonal noise along an eigensolver's top eigenvector leaves a
        # floor of rounding residue, not 0; it must not set the threshold.
        hessian = _rotated([1.0, -1.0, 0.5])
        u_p = np.linalg.eigh(hessian)[1][:, -1]
        source = QuadraticSaddleSource(
            hessian, NoiseSpec("orthogonal", 1.0, direction=u_p))
        assert 0.0 < source.noise.iota_sq(source.u_p) <= 1e-12
        with pytest.raises(PreconditionError, match="iota_sq"):
            verify_escape(source, alpha=1e-3, runs=20, seed=1, chi=1.0,
                          epsilon=1.0, sigma_h0=10.0)

    def test_curvature_precondition(self):
        source = QuadraticSaddleSource(np.diag([0.1, -1.0]),
                                       NoiseSpec("rademacher", 1.0))
        with pytest.raises(PreconditionError):
            verify_escape(source, alpha=1e-3, runs=10, seed=0, chi=1.0,
                          epsilon=1.0, sigma_h0=10.0)


class TestTrap:
    def test_zero_noise_stays(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.0)
        res = verify_trap(source, alpha=0.05, runs=20, seed=1, delta=0.2,
                          varrho=1.0, theta0=np.array([0.5, 0.0]))
        assert res.stay_fraction == 1.0

    def test_huge_radius_stays(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.3)
        res = verify_trap(source, alpha=0.1, runs=20, seed=1, delta=0.5,
                          varrho=1e6, theta0=np.array([1.0, 0.0]))
        assert res.stay_fraction == 1.0

    def test_start_outside_inner_ball_rejected(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.1)
        with pytest.raises(PreconditionError, match="inner ball"):
            verify_trap(source, alpha=0.05, runs=5, seed=0, delta=0.2,
                        varrho=1.0, theta0=np.array([0.9, 0.0]))

    def test_benchmark_alpha_respects_caps(self):
        # The trap benchmark's step size: ell = zeta, gradient bound
        # zeta varrho + noise_sigma.
        alpha = prop3_step_size(0.2, 1.0, 1.0, 1.0, 0.3, (1.0 + 0.3) ** 2)
        assert 0.0 < alpha <= 0.2
        assert default_trap_benchmark(runs=2, seed=0).alpha == alpha
        grad_bound = 1.0 * 1.0 + 0.3
        rhs = 2.0 / (27.0 * (grad_bound ** 2 + 1.0 + 0.09) ** 2)
        assert alpha * math.log(1.0 / alpha) <= rhs + 1e-12

    @pytest.mark.parametrize("relaxation", [0.0, -1.0, 1e-30])
    def test_benchmark_alpha_without_admissible_step_raises(self, relaxation):
        # Not even alpha = 1e-12 meets the log cap: no step size is returned.
        with pytest.raises(PreconditionError, match="log cap"):
            prop3_step_size(0.2, 1.0, 1.0, 1.0, 0.3, (1.0 + 0.3) ** 2, relaxation)


class TestExample1Vectorized:
    @pytest.mark.parametrize("theta", [
        [0.3, 0.4], [0.0, 0.0], [1.0, 1.0], [-0.3, 0.2], [0.5, -0.2],
        [1.2, 0.5],
    ])
    def test_gradient_samples_match_family(self, theta):
        # The study's sample for a uniform equals pg_estimate on the h = 1
        # trajectory the family samples with that uniform as its action draw.
        mdp, fam = example_one_mdp(), ExampleOnePiecewise()
        theta = np.array(theta, dtype=float)
        start = fam.probs(theta)[0]
        rewarded = RIGHT if fam.in_box(theta) else LEFT
        # One uniform drawing the rewarded action, one drawing `up`.
        uniforms = np.array([start[rewarded] * 0.5, start[rewarded] + 1e-12])
        g, valid = _example1_samples(analytic_example1(np.tile(theta, (2, 1))),
                                     uniforms)
        assert valid.all()
        for u, sample in zip(uniforms, g):
            states, actions = _walk(mdp, np.array([[0.0, u, 0.0]]),
                                    fam.probs(theta).cumsum(axis=1))
            traj = Trajectory(states[0], actions[0],
                              mdp.reward[states[0], actions[0]], mdp.gamma)
            assert sample == pytest.approx(pg_estimate(traj, fam, theta),
                                           abs=1e-12)
        assert np.array_equal(g[1], np.zeros(2))

    def test_invalid_domain_flagged(self):
        # J(3, 3) = exp(8)/sqrt(2 pi) > 1: every chain aborts at its first step.
        study = example1_sosp_study(3, np.array([3.0, 3.0]), 5e-4, 0.3, 1.0,
                                    max_updates=10, seed=9)
        assert study.aborted == 3
        assert np.array_equal(study.first_l3, [-1, -1, -1])

    def test_study_deterministic(self):
        a = example1_sosp_study(20, np.array([0.01, 0.01]), 5e-4, 0.3, 1.0,
                                max_updates=50_000, seed=9)
        b = example1_sosp_study(20, np.array([0.01, 0.01]), 5e-4, 0.3, 1.0,
                                max_updates=50_000, seed=9)
        assert np.array_equal(a.first_l3, b.first_l3)


# ---------------------------------------------------------------------------
# Block-stepped escape and trap chains against the per-step loops
# ---------------------------------------------------------------------------

def _reference_draw(noise, rng, n, dim):
    """NoiseSpec.draw with numpy's row norm for the sphere kind."""
    if noise.kind == "sphere":
        v = rng.standard_normal((n, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return noise.scale * v
    return noise.draw(rng, n, dim)


def _reference_escape(source, alpha, runs, seed, chi, epsilon, sigma_h0,
                      cap_factor=10, iota_sq=None):
    """verify_escape as a per-step loop; also returns each run's escape step."""
    kappa = escape_budget(alpha, sigma_h0, chi, epsilon)
    cap = cap_factor * kappa
    if iota_sq is None:
        iota_sq = source.noise.iota_sq(source.u_p)
    threshold = alpha ** 2 * iota_sq * math.sqrt(chi * epsilon)
    dim = source.dim
    d = np.zeros((runs, dim))
    escape_step = np.full(runs, -1, dtype=np.int64)
    gain_at_kappa = None
    rng = derive_rng(seed)
    frozen_noise = None
    if source.noise.frozen:
        frozen_noise = _reference_draw(source.noise, rng, runs, dim)
    gains = np.zeros(runs)
    for step in range(1, cap + 1):
        active = escape_step < 0
        if not active.any():
            break
        noise = frozen_noise if frozen_noise is not None \
            else _reference_draw(source.noise, rng, runs, dim)
        d = np.where(active[:, None], d + alpha * (source._slope(d) + noise), d)
        gains = np.where(active, source._value(d), gains)
        newly = active & (gains >= threshold)
        escape_step[newly] = step
        if step == kappa:
            gain_at_kappa = gains.copy()
    if gain_at_kappa is None:
        gain_at_kappa = gains.copy()
    escaped = escape_step >= 0
    return EscapeResult(
        escape_fraction=float(escaped.mean()),
        mean_escape_steps=float(escape_step[escaped].mean()) if escaped.any() else None,
        kappa_hat_0=kappa,
        mean_gain=float(gains.mean()),
        mean_gain_at_kappa=float(gain_at_kappa.mean()),
        gain_threshold=threshold,
        iota_sq=float(iota_sq),
        step_cap=cap,
        runs=runs,
    ), escape_step


def _reference_trap(source, alpha, runs, seed, delta, varrho, theta0):
    """verify_trap as a per-step loop (frozen noise drawn once, as escape
    draws it); also returns the step at which each run first left."""
    kappa = trap_budget(alpha, delta)
    dim = source.dim
    d = np.tile(np.asarray(theta0, dtype=float) - source.center, (runs, 1))
    stayed = np.ones(runs, dtype=bool)
    left_at = np.full(runs, -1, dtype=np.int64)
    rng = derive_rng(seed)
    frozen_noise = None
    if source.noise.frozen:
        frozen_noise = _reference_draw(source.noise, rng, runs, dim)
    for step in range(1, kappa + 1):
        noise = frozen_noise if frozen_noise is not None \
            else _reference_draw(source.noise, rng, runs, dim)
        d = d + alpha * (source._slope(d) + noise)
        stayed &= np.linalg.norm(d, axis=1) <= varrho
        left_at[~stayed & (left_at < 0)] = step
    return TrapResult(
        stay_fraction=float(stayed.mean()), kappa_0=kappa, alpha=alpha,
        varrho=varrho, delta=delta, runs=runs,
    ), left_at


def _assert_same(got, want):
    for name, value in asdict(want).items():
        other = getattr(got, name)
        assert other == value or (math.isnan(other) and math.isnan(value)), name


def _rotated(eigenvalues):
    dim = len(eigenvalues)
    rotation, _ = np.linalg.qr(derive_rng(0, 71).standard_normal((dim, dim)))
    full = rotation @ np.diag(eigenvalues) @ rotation.T
    return (full + full.T) / 2.0


def _noises(u, other):
    """Every noise kind, unfrozen and frozen; u is the escape direction and
    other a unit vector orthogonal to it."""
    specs = [NoiseSpec("rademacher", 1.0), NoiseSpec("sphere", 1.5),
             NoiseSpec("signed_direction", 0.8, direction=u),
             NoiseSpec("signed_direction", 1.0, direction=(u + other) / math.sqrt(2.0)),
             NoiseSpec("orthogonal", 1.0, direction=u), NoiseSpec("zero")]
    return specs + [replace(spec, frozen=True) for spec in specs]


_ESCAPE_HESSIANS = {
    "2d": np.diag([1.0, -1.0]),
    "3d-rotated": _rotated([1.0, -1.0, 0.5]),
    # Above dimension 3 a non-diagonal H takes _times_h's index-order sum.
    "5d-rotated": _rotated([1.0, -1.0, 0.5, -0.3, 0.2]),
}


class TestBlockSteppedChains:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_row_norm_equals_numpy(self, dim):
        rows = derive_rng(0, 72).standard_normal((51_200, dim))
        rows *= derive_rng(0, 73).random((51_200, 1)) ** 4 * 1e3
        assert np.array_equal(_row_norm(rows), np.linalg.norm(rows, axis=-1))
        block = rows.reshape(200, 256, dim)
        assert np.array_equal(_row_norm(block), np.linalg.norm(block, axis=-1))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sphere_draw_equals_numpy_norm(self, dim):
        noise = NoiseSpec("sphere", 0.7)
        assert np.array_equal(noise.draw(derive_rng(4), 3000, dim),
                              _reference_draw(noise, derive_rng(4), 3000, dim))

    @pytest.mark.parametrize("cubic", [0.0, 0.4])
    @pytest.mark.parametrize("shape", sorted(_ESCAPE_HESSIANS))
    def test_escape_every_noise_kind(self, shape, cubic):
        hessian = _ESCAPE_HESSIANS[shape]
        eigvecs = np.linalg.eigh(hessian)[1]
        for i, noise in enumerate(_noises(eigvecs[:, -1], eigvecs[:, 0])):
            source = QuadraticSaddleSource(hessian, noise, cubic=cubic)
            args = dict(alpha=2e-3, runs=45, seed=i, chi=1.0, epsilon=1.0,
                        sigma_h0=10.0, cap_factor=2)
            if _no_floor(noise, noise.iota_sq(source.u_p)):
                # No floor to derive a threshold from: the run needs one.
                with pytest.raises(PreconditionError, match="iota_sq"):
                    verify_escape(source, **args)
                args["iota_sq"] = 1.0
            want, _ = _reference_escape(source, **args)
            _assert_same(verify_escape(source, **args), want)

    def test_escape_contrast(self):
        got = default_escape_benchmark(runs=30, seed=5, contrast=True,
                                       cap_factor=2)
        source = QuadraticSaddleSource(
            np.diag([1.0, -1.0]),
            NoiseSpec("orthogonal", 1.0, direction=np.array([1.0, 0.0])))
        want, steps = _reference_escape(source, 1e-3, 30, 5, 1.0, 1.0, 10.0,
                                        cap_factor=2, iota_sq=1.0)
        assert (steps < 0).all()  # no run escapes
        _assert_same(got, want)

    def test_escape_all_runs_in_the_first_block(self):
        u = np.array([1.0, 0.0])
        source = QuadraticSaddleSource(
            np.diag([1.0, -1.0]), NoiseSpec("signed_direction", 1.0, direction=u))
        args = dict(alpha=1e-3, runs=50, seed=3, chi=1.0, epsilon=1.0,
                    sigma_h0=10.0)
        want, steps = _reference_escape(source, **args)
        assert (steps > 0).all() and steps.max() <= _block_steps(50, 2)
        _assert_same(verify_escape(source, **args), want)

    @pytest.mark.parametrize("residue", ["edge", "inside"])
    def test_escape_budget_step_in_a_block(self, residue):
        """gain_at_kappa read from the buffer, with kappa_hat_0 at the last
        step of a block or inside one, and runs escaping on both sides."""
        runs = 60
        block = _block_steps(runs, 2)
        for sigma_h0 in np.linspace(3.0, 8.0, 501):
            kappa = escape_budget(4e-3, sigma_h0, 1.0, 1.0)
            if (kappa % block == 0) == (residue == "edge"):
                break
        source = QuadraticSaddleSource(np.diag([1.0, -1.0]), NoiseSpec("rademacher"))
        args = dict(alpha=4e-3, runs=runs, seed=11, chi=1.0, epsilon=1.0,
                    sigma_h0=float(sigma_h0), cap_factor=4)
        want, steps = _reference_escape(source, **args)
        assert want.kappa_hat_0 == kappa and kappa > block
        assert ((steps > 0) & (steps <= kappa)).any()
        assert ((steps > kappa) | (steps < 0)).any()
        _assert_same(verify_escape(source, **args), want)

    @pytest.mark.parametrize("cubic", [0.0, 0.3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_trap_every_noise_kind(self, dim, cubic):
        hessian = _rotated([-1.0, -0.6, -0.3][:dim])
        eigvecs = np.linalg.eigh(hessian)[1]
        center = np.linspace(-0.2, 0.3, dim)
        # kappa_0 = floor(ln(1/0.3) / 0.04^2) = 752, not a multiple of a block.
        args = dict(alpha=0.04, runs=50, delta=0.3, varrho=0.25,
                    theta0=center + 0.1 / math.sqrt(dim))
        assert 752 % _block_steps(50, dim)
        for i, noise in enumerate(_noises(eigvecs[:, -1], eigvecs[:, 0])):
            source = QuadraticSaddleSource(hessian, noise, center=center, cubic=cubic)
            want, _ = _reference_trap(source, seed=i, **args)
            assert want.kappa_0 == 752
            _assert_same(verify_trap(source, seed=i, **args), want)

    def test_trap_runs_leave_mid_block(self):
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.6)
        args = dict(alpha=0.05, runs=80, seed=2, delta=0.3, varrho=0.3,
                    theta0=np.array([0.15, 0.0]))
        want, left_at = _reference_trap(source, **args)
        block = _block_steps(80, 2)
        assert 0.0 < want.stay_fraction < 1.0
        assert (left_at[left_at > 0] % block).any()  # some leave mid-block
        assert want.kappa_0 % block
        _assert_same(verify_trap(source, **args), want)

    @staticmethod
    def _count_rows(monkeypatch):
        rows = []
        draw = NoiseSpec.draw

        def counting(self, rng, n, dim):
            rows.append(n)
            return draw(self, rng, n, dim)

        monkeypatch.setattr(NoiseSpec, "draw", counting)
        return rows

    @pytest.mark.parametrize("runs", [1, 7, 200, 500])
    def test_trap_draws_exactly_kappa_0_rows_per_run(self, monkeypatch, runs):
        rows = self._count_rows(monkeypatch)
        source = StronglyConcaveSource(1.0, np.zeros(2), noise_sigma=0.3)
        res = verify_trap(source, alpha=0.1, runs=runs, seed=1, delta=0.5,
                          varrho=1.0, theta0=np.array([0.3, 0.0]))
        assert res.kappa_0 == 69
        assert sum(rows) == res.kappa_0 * runs

    @pytest.mark.parametrize("kind, frozen", [("rademacher", False),
                                              ("signed_direction", False),
                                              ("rademacher", True)])
    def test_escape_draws_at_most_one_block_past_the_last_escape(
            self, monkeypatch, kind, frozen):
        u = np.array([1.0, 0.0])
        source = QuadraticSaddleSource(
            np.diag([1.0, -1.0]),
            NoiseSpec(kind, 1.0, direction=u if kind != "rademacher" else None,
                      frozen=frozen))
        args = dict(alpha=1e-3, runs=40, seed=6, chi=1.0, epsilon=1.0,
                    sigma_h0=10.0)
        _, steps = _reference_escape(source, **args)
        rows = self._count_rows(monkeypatch)
        res = verify_escape(source, **args)
        block = _block_steps(40, 2)
        if frozen:
            assert rows == [40]
            return
        assert sum(rows) <= (res.step_cap + block) * 40
        if (steps > 0).all():
            assert sum(rows) < (steps.max() + block) * 40
