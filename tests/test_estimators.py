import math
import tracemalloc

import numpy as np
import pytest

from pgsosp.errors import PolicyDomainError
from pgsosp.estimators import (
    _hessian_sum,
    _pg_rows,
    batch_gradient,
    batch_hessian,
    fisher_matrix,
    pg_sample_block,
)
from pgsosp.mdp import TabularMdp, random_mdp
from pgsosp.oracle import (
    enumerate_trajectories,
    exact_gradient,
    exact_hessian,
    fd_hessian_from_gradient,
)
from pgsosp.policy import TabularSoftmax
from pgsosp.util import derive_rng

from conftest import make_random_problem, sub_seed
from trajectory_reference import (
    Trajectory,
    gather_hessian_sum,
    gather_pg_rows,
    hessian_estimate,
    pg_estimate,
    reward_to_go,
    sample_trajectory,
)


def bandit_traj(action, gamma=0.5):
    return Trajectory(states=[0], actions=[action], rewards=[1.0 - action],
                      gamma=gamma)


class TestPgEstimate:
    def test_bandit_action_zero(self, bandit, bandit_family):
        g = pg_estimate(bandit_traj(0), bandit_family, np.zeros(2))
        assert g == pytest.approx([0.5, -0.5], abs=1e-14)

    def test_bandit_action_one_annihilated(self, bandit, bandit_family):
        g = pg_estimate(bandit_traj(1), bandit_family, np.zeros(2))
        assert np.array_equal(g, np.zeros(2))

    def test_enumeration_expectation_is_gradient(self, bandit, bandit_family):
        theta = np.zeros(2)
        total = np.zeros(2)
        for prob, s, a, r in enumerate_trajectories(bandit, bandit_family, theta):
            traj = Trajectory(s, a, r, bandit.gamma)
            total += prob * pg_estimate(traj, bandit_family, theta)
        assert total == pytest.approx([0.25, -0.25], abs=1e-14)
        assert total == pytest.approx(exact_gradient(bandit, bandit_family, theta),
                                      abs=1e-12)

    def test_off_policy_trajectory_rejected(self, bandit):
        fam = TabularSoftmax(1, 2)
        # A logit gap large enough that the action's probability underflows
        # to an exact zero.
        theta = np.array([800.0, 0.0])
        with pytest.raises(PolicyDomainError):
            pg_estimate(bandit_traj(1), fam, theta)


class TestUnbiasedness:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_by_enumeration(self, seed):
        mdp, family = make_random_problem(seed, horizon=3)
        rng = derive_rng(seed, 21)
        theta = rng.uniform(-1, 1, family.param_dim)
        total = np.zeros(family.param_dim)
        for prob, s, a, r in enumerate_trajectories(mdp, family, theta):
            traj = Trajectory(s, a, r, mdp.gamma)
            total += prob * pg_estimate(traj, family, theta)
        oracle = exact_gradient(mdp, family, theta)
        scale = max(1.0, np.linalg.norm(oracle))
        assert np.linalg.norm(total - oracle) <= 1e-8 * scale

    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_by_enumeration(self, seed):
        mdp, family = make_random_problem(seed + 50, horizon=3)
        rng = derive_rng(seed, 22)
        theta = rng.uniform(-1, 1, family.param_dim)
        p = family.param_dim
        total = np.zeros((p, p))
        for prob, s, a, r in enumerate_trajectories(mdp, family, theta):
            traj = Trajectory(s, a, r, mdp.gamma)
            total += prob * hessian_estimate(traj, family, theta)
        oracle = exact_hessian(mdp, family, theta)
        assert np.abs((total + total.T) / 2.0 - oracle).max() <= 1e-6
        # Independent cross-check: finite differences of the exact gradient.
        fd = fd_hessian_from_gradient(
            lambda t: exact_gradient(mdp, family, t), theta)
        assert np.abs(total - fd).max() <= 1e-5

    def test_bandit_hessian_expectation(self, bandit, bandit_family):
        theta = np.zeros(2)
        total = np.zeros((2, 2))
        for prob, s, a, r in enumerate_trajectories(bandit, bandit_family, theta):
            traj = Trajectory(s, a, r, bandit.gamma)
            total += prob * hessian_estimate(traj, bandit_family, theta)
        oracle = exact_hessian(bandit, bandit_family, theta)
        assert np.abs(total - oracle).max() <= 1e-10

    def test_printed_phi_variant_is_biased(self):
        # With every potential term tied to the final step's log-probability
        # the enumeration expectation misses the exact Hessian.
        mdp, family = make_random_problem(3, horizon=3)
        theta = np.linspace(-0.8, 0.6, family.param_dim)
        p = family.param_dim
        score, hess = family.score(theta), family.hess(theta)
        repaired = np.zeros((p, p))
        printed = np.zeros((p, p))
        for prob, s, a, r in enumerate_trajectories(mdp, family, theta):
            traj = Trajectory(s, a, r, mdp.gamma)
            repaired += prob * hessian_estimate(traj, family, theta)
            w_total = reward_to_go(traj).sum()
            scores = score[traj.states, traj.actions]
            printed += prob * (np.outer(w_total * scores[-1], scores.sum(axis=0))
                               + w_total * hess[traj.states[-1], traj.actions[-1]])
        oracle = exact_hessian(mdp, family, theta)
        assert np.abs((repaired + repaired.T) / 2 - oracle).max() <= 1e-10
        assert np.abs((printed + printed.T) / 2 - oracle).max() > 1e-3


class TestSingleActionDegenerate:
    def test_zero_matrix(self):
        mdp = TabularMdp(n_states=2, n_actions=1,
                         transition=np.array([[[0.0, 1.0]], [[1.0, 0.0]]]),
                         reward=np.ones((2, 1)), rho0=np.array([1.0, 0.0]),
                         gamma=0.5, horizon=3, r_min=1.0, r_max=1.0)
        fam = TabularSoftmax(2, 1)
        traj = sample_trajectory(mdp, fam, np.zeros(2), sub_seed(0, 0))
        assert np.array_equal(hessian_estimate(traj, fam, np.zeros(2)),
                              np.zeros((2, 2)))
        assert np.array_equal(pg_estimate(traj, fam, np.zeros(2)), np.zeros(2))


class TestMonteCarloAgreement:
    def test_hessian_mc_within_three_se(self):
        mdp, family = make_random_problem(13, n_states=3, n_actions=2,
                                          horizon=3, gamma=0.5)
        theta = np.linspace(-0.5, 0.5, family.param_dim)
        n = 100_000
        est = batch_hessian(mdp, family, theta, n, seed=23)
        oracle = exact_hessian(mdp, family, theta)
        # Elementwise standard errors from a smaller replicate sample.
        m = 20_000
        trajs = (sample_trajectory(mdp, family, theta, sub_seed(24, i))
                 for i in range(m))
        stack = np.stack([hessian_estimate(t, family, theta) for t in trajs])
        stack = (stack + stack.transpose(0, 2, 1)) / 2.0
        se = stack.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(est.symmetrized - oracle) <= 3.0 * se + 1e-12).all()

    def test_symmetrized_is_half_sum(self):
        mdp, family = make_random_problem(14, horizon=3)
        est = batch_hessian(mdp, family, np.zeros(family.param_dim), 500, seed=3)
        assert np.array_equal(est.symmetrized,
                              (est.raw_mean + est.raw_mean.T) / 2.0)


class TestFisher:
    def test_bandit_closed_form(self, bandit, bandit_family):
        rep = fisher_matrix(bandit, bandit_family, np.zeros(2))
        assert rep.matrix == pytest.approx(
            np.array([[0.25, -0.25], [-0.25, 0.25]]), abs=1e-14)
        assert abs(rep.lambda_min) <= 1e-12

    def test_single_action_zero(self):
        mdp = TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                         reward=np.ones((1, 1)), rho0=np.array([1.0]),
                         gamma=0.5, horizon=2, r_min=1.0, r_max=1.0)
        rep = fisher_matrix(mdp, TabularSoftmax(1, 1), np.zeros(1))
        assert np.array_equal(rep.matrix, np.zeros((1, 1)))

    @pytest.mark.parametrize("seed", range(5))
    def test_psd(self, seed):
        mdp, family = make_random_problem(seed + 30, horizon=4)
        rng = derive_rng(seed, 31)
        theta = rng.uniform(-2, 2, family.param_dim)
        rep = fisher_matrix(mdp, family, theta)
        assert rep.lambda_min >= -1e-10
        for _ in range(100):
            x = rng.standard_normal(family.param_dim)
            assert x @ rep.matrix @ x >= -1e-10 * (x @ x)


class TestBatchGradient:
    def test_n_one_equals_single_estimate(self):
        mdp, family = make_random_problem(15, horizon=4)
        theta = np.linspace(-0.4, 0.4, family.param_dim)
        est = batch_gradient(mdp, family, theta, 1, seed=77)
        traj = sample_trajectory(mdp, family, theta, sub_seed(77, 0))
        assert np.array_equal(est.mean, pg_estimate(traj, family, theta))

    def test_bandit_large_sample(self, bandit, bandit_family):
        est = batch_gradient(bandit, bandit_family, np.zeros(2), 100_000, seed=5)
        target = np.array([0.25, -0.25])
        assert (np.abs(est.mean - target) <= 3.0 * est.std_error).all()

    def test_deviation_bound_with_oracle_center(self):
        # Per-sample deviation stays under G_hat * r_max / (1 - gamma)^2 when
        # the horizon is within the effective horizon 1/(1-gamma).
        from pgsosp.policy import estimate_regularity

        mdp, family = make_random_problem(16, n_states=2, n_actions=2,
                                          horizon=4, gamma=0.9)
        theta = np.linspace(-0.5, 0.5, family.param_dim)
        reg = estimate_regularity(family, [(-1, 1)] * family.param_dim, 3)
        grad = exact_gradient(mdp, family, theta)
        rows = pg_sample_block(mdp, family, theta, 20_000, seed=6)
        bound = reg.G * mdp.r_max / (1.0 - mdp.gamma) ** 2
        assert np.linalg.norm(rows - grad, axis=1).max() <= bound + 1e-9

    def test_block_rows_match_object_path(self):
        mdp, family = make_random_problem(18, horizon=5)
        theta = np.linspace(-0.3, 0.3, family.param_dim)
        block = pg_sample_block(mdp, family, theta, 32, seed=9)
        trajs = [sample_trajectory(mdp, family, theta, sub_seed(9, i))
                 for i in range(32)]
        slow = np.stack([pg_estimate(t, family, theta) for t in trajs])
        assert np.array_equal(block, slow)


# (n_states, n_actions, p, h, m, score magnitude, seed)
BLOCK_SHAPES = [
    (1, 2, 2, 1, 1, 1.0, 0),
    (3, 2, 6, 4, 1, 1.0, 1),
    (4, 3, 12, 6, 4000, 1.0, 2),
    (2, 2, 2, 50, 1024, 1e8, 3),
    (5, 4, 20, 50, 1024, 1e-8, 4),
    (3, 3, 9, 7, 3, 1e8, 5),
    (6, 5, 100, 13, 257, 1e-8, 6),
    (2, 3, 37, 49, 1000, 1.0, 7),
    (7, 2, 14, 1, 1024, 1e8, 8),
    (1, 1, 1, 20, 64, 1.0, 9),
    (4, 4, 3, 8, 9, 1e-8, 10),
    (3, 2, 64, 2, 511, 1.0, 11),
]


def random_block(n_s, n_a, p, h, m, scale, seed):
    """Scores (S, A, p), Hessians (S, A, p, p) and an (m, h) block with
    signed zeros among the score entries and rewards."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n_s, n_a, p)) * scale
    scores[rng.random(scores.shape) < 0.2] = -0.0
    hessians = rng.standard_normal((n_s, n_a, p, p)) * scale
    states = rng.integers(0, n_s, (m, h))
    actions = rng.integers(0, n_a, (m, h))
    rewards = rng.uniform(0.0, 1.0, (m, h)) * (rng.random((m, h)) < 0.8)
    weights = rng.uniform(0.0, 1.0, m)
    return scores, hessians, states, actions, rewards, weights


class TestBlockReducers:
    """The reducers gather score rows a row block at a time; every output
    keeps the bits of the whole (m, h, p) gather."""

    @pytest.mark.parametrize("shape", BLOCK_SHAPES,
                             ids=[f"p{s[2]}-h{s[3]}-m{s[4]}-{s[5]:g}" for s in BLOCK_SHAPES])
    def test_same_bits_as_the_whole_gather(self, shape):
        n_s, n_a, p, h, m, scale, seed = shape
        mdp = random_mdp(seed, n_states=n_s, n_actions=n_a, horizon=h, gamma=0.9)
        scores, hessians, states, actions, rewards, weights = random_block(*shape)
        assert np.array_equal(
            _pg_rows(mdp, scores, states, actions, rewards),
            gather_pg_rows(mdp, scores, states, actions, rewards))
        for w in (weights, np.ones(m)):
            assert np.array_equal(
                _hessian_sum(mdp, scores, hessians, states, actions, rewards, w),
                gather_hessian_sum(mdp, scores, hessians, states, actions,
                                   rewards, w))

    def test_peak_memory_is_per_row_not_per_step(self):
        # S20 A5 h50 with 2000 trajectories: the whole (m, h, p) gather is
        # 76 MiB, which the reducers never hold.
        n = 2000
        mdp = random_mdp(1, n_states=20, n_actions=5, horizon=50, gamma=0.9)
        family = TabularSoftmax(20, 5)
        theta = np.random.default_rng(1).standard_normal(family.param_dim)
        scores, hessians = family.score(theta), family.hess(theta)
        rng = np.random.default_rng(2)
        states = rng.integers(0, 20, (n, 50))
        actions = rng.integers(0, 5, (n, 50))
        rewards = mdp.reward[states, actions]
        calls = {
            "_pg_rows": lambda: _pg_rows(mdp, scores, states, actions, rewards),
            "_hessian_sum": lambda: _hessian_sum(mdp, scores, hessians, states,
                                                 actions, rewards, np.ones(n)),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20, f"{name} peaked at {peak / 2 ** 20:.1f} MiB"
