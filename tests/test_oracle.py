import math

import numpy as np
import pytest

from pgsosp.errors import EnumerationCapError
from pgsosp import oracle
from pgsosp.mdp import TabularMdp, example_one_mdp, random_mdp
from pgsosp.oracle import (
    _gradient_enumeration,
    _gradient_visitation,
    analytic_example1,
    enumerate_trajectories,
    enumeration_size_bound,
    exact_gradient,
    exact_hessian,
    exact_objective,
    fd_gradient,
    fd_hessian_from_gradient,
    is_enumerable,
)
from pgsosp.policy import ExampleOnePiecewise, TabularSoftmax
from pgsosp.util import derive_rng

from conftest import make_random_problem
import formula_reference
from trajectory_reference import objective_by_enumeration, recursive_enumeration

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestObjective:
    def test_single_state(self):
        mdp = TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                         reward=np.ones((1, 1)), rho0=np.array([1.0]),
                         gamma=0.5, horizon=2, r_min=1.0, r_max=1.0)
        assert exact_objective(mdp, TabularSoftmax(1, 1), np.zeros(1)) == \
            pytest.approx(1.5, abs=1e-14)

    def test_bandit_uniform(self, bandit, bandit_family):
        assert exact_objective(bandit, bandit_family, np.zeros(2)) == \
            pytest.approx(0.5, abs=1e-14)

    def test_example1_origin_matches_closed_form(self, example1):
        mdp, family = example1
        j = exact_objective(mdp, family, np.zeros(2))
        assert j == pytest.approx(INV_SQRT_2PI, abs=1e-14)
        assert j == pytest.approx(analytic_example1(np.zeros(2)).objective,
                                  abs=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_dp_equals_enumeration(self, seed):
        mdp, family = make_random_problem(seed + 70, horizon=4)
        rng = derive_rng(seed, 41)
        theta = rng.uniform(-1, 1, family.param_dim)
        dp = exact_objective(mdp, family, theta)
        enum = objective_by_enumeration(mdp, family, theta)
        assert abs(dp - enum) <= 1e-10


class TestGradient:
    def test_bandit_both_routes(self, bandit, bandit_family):
        grad = exact_gradient(bandit, bandit_family, np.zeros(2))
        assert grad == pytest.approx([0.25, -0.25], abs=1e-14)
        enumeration = _gradient_enumeration(bandit, bandit_family, np.zeros(2))
        assert enumeration == pytest.approx([0.25, -0.25], abs=1e-14)

    def test_single_action_zero(self):
        mdp = TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                         reward=np.ones((1, 1)), rho0=np.array([1.0]),
                         gamma=0.5, horizon=3, r_min=1.0, r_max=1.0)
        grad = exact_gradient(mdp, TabularSoftmax(1, 1), np.zeros(1))
        assert np.array_equal(grad, np.zeros(1))

    def test_example1_at_half(self, example1):
        mdp, family = example1
        grad = exact_gradient(mdp, family, np.array([0.5, 0.5]))
        expected = np.array([-INV_SQRT_2PI, INV_SQRT_2PI])
        assert grad == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(grad) == pytest.approx(
            math.sqrt(2.0) * INV_SQRT_2PI, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_two_way_agreement(self, seed):
        # The policy gradient theorem as an executable identity.
        mdp, family = make_random_problem(seed + 100, horizon=4)
        rng = derive_rng(seed, 42)
        theta = rng.uniform(-1.5, 1.5, family.param_dim)
        visitation = exact_gradient(mdp, family, theta)
        assert np.array_equal(visitation, _gradient_visitation(mdp, family, theta))
        scale = max(1.0, np.linalg.norm(visitation))
        assert is_enumerable(mdp)
        assert np.linalg.norm(_gradient_enumeration(mdp, family, theta) - visitation) \
            <= 1e-8 * scale

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_objective_finite_differences(self, seed):
        mdp, family = make_random_problem(seed + 200, horizon=4)
        rng = derive_rng(seed, 43)
        theta = rng.uniform(-1.5, 1.5, family.param_dim)
        grad = exact_gradient(mdp, family, theta)
        fd = fd_gradient(lambda t: exact_objective(mdp, family, t), theta,
                         step=1e-5)
        scale = max(1.0, np.linalg.norm(grad))
        assert np.linalg.norm(fd - grad) <= 1e-4 * scale


class TestHessian:
    def test_example1_origin(self, example1):
        mdp, family = example1
        h = exact_hessian(mdp, family, np.zeros(2))
        expected = np.diag([-2.0, 2.0]) * INV_SQRT_2PI
        assert np.abs(h - expected).max() <= 1e-12

    def test_single_action_zero(self):
        mdp = TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                         reward=np.ones((1, 1)), rho0=np.array([1.0]),
                         gamma=0.5, horizon=3, r_min=1.0, r_max=1.0)
        h = exact_hessian(mdp, TabularSoftmax(1, 1), np.zeros(1))
        assert np.array_equal(h, np.zeros((1, 1)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        mdp, family = make_random_problem(seed + 300, n_states=2, n_actions=2,
                                          horizon=3)
        rng = derive_rng(seed, 44)
        theta = rng.uniform(-1, 1, family.param_dim)
        h = exact_hessian(mdp, family, theta)
        assert np.abs(h - h.T).max() <= 1e-10
        grads = lambda t: exact_gradient(mdp, family, t)
        fd = np.zeros_like(h)
        for j in range(family.param_dim):
            bump = np.zeros(family.param_dim)
            bump[j] = 1e-4
            fd[:, j] = (grads(theta + bump) - grads(theta - bump)) / 2e-4
        assert np.abs(h - (fd + fd.T) / 2.0).max() <= 1e-5

    def test_fd_fallback_beyond_cap(self, monkeypatch):
        # Dense transitions push the enumeration bound over the cap; the
        # Hessian then comes from finite differences of the DP gradient.
        rng = derive_rng(0, 45)
        n_s, n_a, h = 4, 3, 10
        transition = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
        reward = rng.uniform(0.2, 1.0, (n_s, n_a))
        mdp = TabularMdp(n_states=n_s, n_actions=n_a, transition=transition,
                         reward=reward, rho0=np.full(n_s, 0.25),
                         gamma=0.5, horizon=h, r_min=0.2, r_max=1.0)
        assert not is_enumerable(mdp)
        family = TabularSoftmax(n_s, n_a)
        theta = np.zeros(family.param_dim)
        hess = exact_hessian(mdp, family, theta)
        assert np.abs(hess - hess.T).max() <= 1e-12
        def no_enumeration(*args):
            raise AssertionError("enumeration ran above the cap")

        monkeypatch.setattr(oracle, "_gradient_enumeration", no_enumeration)
        monkeypatch.setattr(oracle, "enumerate_trajectories", no_enumeration)
        grad = exact_gradient(mdp, family, theta)  # enumeration route not offered
        assert np.array_equal(grad, _gradient_visitation(mdp, family, theta))


class TestFiniteDifferences:
    """Both finite-difference functions share one central-difference loop;
    each keeps the bits of its own earlier loop (tests/formula_reference.py)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_objective_gradient_matches_earlier_loop(self, seed):
        mdp, family = make_random_problem(seed + 600, n_states=2 + seed % 3,
                                          n_actions=2 + seed % 2, horizon=3)
        theta = derive_rng(seed, 46).uniform(-1.5, 1.5, family.param_dim)
        objective = lambda t: exact_objective(mdp, family, t)
        for step in (1e-5, 1e-3):
            assert np.array_equal(
                fd_gradient(objective, theta, step),
                formula_reference.fd_gradient(objective, theta, step))

    @pytest.mark.parametrize("seed", range(12))
    def test_gradient_jacobian_matches_earlier_loop(self, seed):
        mdp, family = make_random_problem(seed + 700, n_states=2 + seed % 3,
                                          n_actions=2 + seed % 2, horizon=3)
        theta = derive_rng(seed, 47).uniform(-1.5, 1.5, family.param_dim)
        grad = lambda t: _gradient_visitation(mdp, family, t)
        for step in (1e-4, 1e-2):
            assert np.array_equal(
                fd_hessian_from_gradient(grad, theta, step),
                formula_reference.fd_hessian_from_gradient(grad, theta, step))


class TestEnumeration:
    def test_probabilities_sum_to_one(self):
        mdp, family = make_random_problem(19, horizon=4)
        theta = np.linspace(-0.5, 0.5, family.param_dim)
        total = sum(p for p, _, _, _ in
                    enumerate_trajectories(mdp, family, theta))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_cap_error(self):
        rng = derive_rng(1, 46)
        n_s, n_a = 4, 3
        transition = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
        mdp = TabularMdp(n_states=n_s, n_actions=n_a, transition=transition,
                         reward=np.ones((n_s, n_a)), rho0=np.full(n_s, 0.25),
                         gamma=0.5, horizon=12, r_min=1.0, r_max=1.0)
        assert enumeration_size_bound(mdp) > 1e6
        with pytest.raises(EnumerationCapError):
            list(enumerate_trajectories(mdp, TabularSoftmax(n_s, n_a),
                                        np.zeros(n_s * n_a)))


def assert_same_walk(mdp, family, theta):
    """enumerate_trajectories yields the recursive walker's items: same
    count and order, equal probabilities and equal arrays."""
    got = list(enumerate_trajectories(mdp, family, theta))
    ref = list(recursive_enumeration(mdp, family, theta))
    assert len(got) == len(ref)
    for (p, s, a, r), (p_ref, s_ref, a_ref, r_ref) in zip(got, ref):
        assert p == p_ref
        for x, y in ((s, s_ref), (a, a_ref), (r, r_ref)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    return len(got)


class TestEnumerationOrder:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_mdps_match_the_recursive_walk(self, seed):
        rng = derive_rng(seed, 51)
        n_s, n_a = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        mdp = random_mdp(seed, n_states=n_s, n_actions=n_a,
                         horizon=int(rng.integers(1, 7)), gamma=0.9,
                         branching=int(rng.integers(1, 4)))
        family = TabularSoftmax(n_s, n_a)
        assert_same_walk(mdp, family, rng.uniform(-2, 2, family.param_dim))

    def test_start_distribution_with_zero_entries(self):
        rng = derive_rng(3, 52)
        n_s, n_a = 4, 2
        mdp = TabularMdp(n_states=n_s, n_actions=n_a,
                         transition=rng.dirichlet(np.ones(n_s), size=(n_s, n_a)),
                         reward=rng.uniform(0, 1, (n_s, n_a)),
                         rho0=np.array([0.0, 0.3, 0.0, 0.7]),
                         gamma=0.9, horizon=3, r_min=0.0, r_max=1.0)
        family = TabularSoftmax(n_s, n_a)
        assert assert_same_walk(mdp, family, rng.uniform(-1, 1, 8)) == 2 * 8 * 8 * 2

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    @pytest.mark.parametrize("theta", [[0.5, 0.5], [1.5, 0.2], [0.0, 0.0], [1.0, 1.0]])
    def test_example1_zero_probability_actions(self, horizon, theta):
        # In the box `left` has probability 0; outside it `right` has.
        assert_same_walk(example_one_mdp(horizon=horizon), ExampleOnePiecewise(),
                         np.array(theta))

    def test_underflowing_softmax_logits(self):
        mdp, family = make_random_problem(23, n_states=3, n_actions=3, horizon=4)
        theta = derive_rng(4, 53).uniform(-1, 1, family.param_dim)
        theta[[0, 4, 8]] = [800.0, -800.0, 800.0]
        assert (family.probs(theta) == 0.0).any()
        assert_same_walk(mdp, family, theta)

    def test_frontier_above_the_chunk_size(self):
        # 4 x (3 x 4)^3 = 6912 nodes at depth 3 > _ENUM_CHUNK: the frontier
        # is split into blocks, each finished before the next.
        from pgsosp.oracle import _ENUM_CHUNK
        n_s, n_a = 4, 3
        rng = derive_rng(6, 54)
        mdp = TabularMdp(n_states=n_s, n_actions=n_a,
                         transition=rng.dirichlet(np.ones(n_s), size=(n_s, n_a)),
                         reward=rng.uniform(0, 1, (n_s, n_a)),
                         rho0=np.full(n_s, 0.25), gamma=0.9, horizon=4,
                         r_min=0.0, r_max=1.0)
        assert n_s * (n_a * n_s) ** 3 > _ENUM_CHUNK
        family = TabularSoftmax(n_s, n_a)
        assert assert_same_walk(mdp, family, rng.uniform(-1, 1, 12)) == 4 * 12 ** 3 * 3

    def test_memory_does_not_grow_with_the_tree(self):
        # The h = 6 tree is six times the h = 5 tree; a walk holds only its
        # pending blocks, so its peak stays within 2x.
        import tracemalloc

        peaks = []
        for horizon in (5, 6):
            mdp, family = make_random_problem(1, n_states=4, n_actions=3,
                                              horizon=horizon, gamma=0.9)
            theta = derive_rng(7, 55).uniform(-1, 1, family.param_dim)
            tracemalloc.start()
            try:
                count = sum(1 for _ in enumerate_trajectories(mdp, family, theta))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert count == 2 * 3 * 6 ** (horizon - 1)
        assert peaks[1] <= 2 * peaks[0]


class TestEnumerationReductions:
    def test_chunked_sums_match_per_trajectory_references(self):
        # 4096 trajectories: more than two chunks of the array reductions.
        from trajectory_reference import Trajectory, hessian_estimate, pg_estimate
        from pgsosp.oracle import _ENUM_CHUNK
        from pgsosp.sosp import cnc_enumerate, cnc_lower_bound

        mdp, family = make_random_problem(61, n_states=3, n_actions=2,
                                          horizon=6)
        rng = derive_rng(5, 49)
        theta = rng.uniform(-1, 1, family.param_dim)
        u = rng.standard_normal(family.param_dim)
        u /= np.linalg.norm(u)
        p = family.param_dim
        hess, grad, cnc, c0, count = np.zeros((p, p)), np.zeros(p), 0.0, 0.0, 0
        for prob, states, actions, rewards in enumerate_trajectories(
                mdp, family, theta):
            traj = Trajectory(states, actions, rewards, mdp.gamma)
            h = hessian_estimate(traj, family, theta)
            g = pg_estimate(traj, family, theta)
            scores = [family.grad_log_prob(theta, int(s), int(a))
                      for s, a in zip(states, actions)]
            hess += prob * (h + h.T) / 2.0
            grad += prob * g
            cnc += prob * float(g @ u) ** 2
            c0 += prob * sum(float(scores[i] @ scores[j])
                             for i in range(len(scores))
                             for j in range(i + 1, len(scores)))
            count += 1
        assert count == 4096 > 2 * _ENUM_CHUNK
        pairs = [
            (exact_hessian(mdp, family, theta), hess),
            (_gradient_enumeration(mdp, family, theta), grad),
            (cnc_enumerate(mdp, family, theta, u), cnc),
            (cnc_lower_bound(mdp, family, theta, omega=0.1).c0, c0),
        ]
        for got, ref in pairs:
            tol = 1e-12 * max(1.0, float(np.abs(ref).max()))
            assert float(np.abs(np.asarray(got) - ref).max()) <= tol

    def test_each_consumer_walks_the_whole_tree_once(self, monkeypatch):
        # Trajectories yielded per enumerate_trajectories call: one full
        # tree per enumeration sum, so a skipped or repeated chunk shows.
        from pgsosp.sosp import cnc_enumerate, cnc_lower_bound

        mdp, family = make_random_problem(61, n_states=3, n_actions=2,
                                          horizon=6)
        theta = derive_rng(5, 50).uniform(-1, 1, family.param_dim)
        u = np.eye(family.param_dim)[0]
        full = sum(1 for _ in enumerate_trajectories(mdp, family, theta))
        walks = []

        def counted(*args):
            walks.append(0)
            for item in enumerate_trajectories(*args):
                walks[-1] += 1
                yield item

        monkeypatch.setattr(oracle, "enumerate_trajectories", counted)
        for call, n_walks in [
                (lambda: exact_gradient(mdp, family, theta), 1),
                (lambda: exact_hessian(mdp, family, theta), 1),
                (lambda: cnc_enumerate(mdp, family, theta, u), 1),
                (lambda: cnc_lower_bound(mdp, family, theta, omega=0.1), 2)]:
            walks.clear()
            call()
            assert walks == [full] * n_walks


class TestAnalyticExample1:
    def test_origin(self):
        res = analytic_example1(np.zeros(2))
        assert res.objective == pytest.approx(INV_SQRT_2PI, abs=1e-15)
        assert np.abs(res.grad).max() == 0.0
        lam = np.linalg.eigvalsh(res.hessian)[-1]
        assert lam == pytest.approx(2.0 * INV_SQRT_2PI, abs=1e-15)

    def test_gaussian_branch_values(self):
        j1 = analytic_example1(np.array([1.5, 0.0])).objective
        assert j1 == pytest.approx(INV_SQRT_2PI * math.exp(0.125), abs=1e-15)
        j2 = analytic_example1(np.array([-0.5, 0.5])).objective
        assert j2 == pytest.approx(INV_SQRT_2PI * math.exp(-0.75), abs=1e-15)

    def test_gaussian_branch_derivatives(self):
        theta = np.array([1.5, 0.0])
        res = analytic_example1(theta)
        assert res.grad == pytest.approx(res.objective * theta, abs=1e-15)
        expected_h = res.objective * (np.outer(theta, theta) + np.eye(2))
        assert np.abs(res.hessian - expected_h).max() <= 1e-15

    def test_matches_generic_pipeline_at_horizon_one(self, example1):
        # The benchmark MDP reaches its absorbing states in one rewarded
        # step, so the closed forms and the h = 1 pipeline agree exactly.
        mdp, family = example1
        rng = derive_rng(2, 47)
        for _ in range(20):
            theta = rng.uniform(-0.9, 0.9, 2)
            res = analytic_example1(theta)
            assert exact_objective(mdp, family, theta) == \
                pytest.approx(res.objective, abs=1e-12)
            grad = exact_gradient(mdp, family, theta)
            assert grad == pytest.approx(res.grad, abs=1e-12)
            hess = exact_hessian(mdp, family, theta)
            assert np.abs(hess - res.hessian).max() <= 1e-12

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            analytic_example1(np.array([np.inf, 0.0]))

    def test_block_equals_per_point_calls(self):
        edges = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.7], [0.4, 1.0],
                 [1.0 + 1e-16, 0.5], [-1e-300, 0.5], [0.5, 1.0000000000000002]]
        rng = derive_rng(2, 48)
        points = np.concatenate([rng.uniform(-0.1, 1.1, (40, 2)),   # mostly inside
                                 rng.uniform(-2.0, 2.0, (40, 2)),   # mostly outside
                                 edges])
        block = analytic_example1(points.reshape(4, -1, 2))
        assert block.objective.shape == (4, points.shape[0] // 4)
        for i, theta in enumerate(points):
            one = analytic_example1(theta)
            at = np.unravel_index(i, block.objective.shape)
            assert isinstance(one.objective, float)
            assert one.objective == block.objective[at]
            assert np.array_equal(one.grad, block.grad[at])
            assert np.array_equal(one.hessian, block.hessian[at])


def test_example_one_mdp_invariants():
    mdp = example_one_mdp(gamma=0.9, horizon=1)
    assert mdp.r_min == 0.0 and mdp.r_max == 1.0
    ExampleOnePiecewise().check_mdp(mdp)


def test_objective_equals_occupancy_weighted_reward():
    # J computed from the value recursion equals the visitation-measure
    # form sum_s d(s) sum_a pi(a|s) R(s,a) exactly at truncation, so the
    # normalized and unnormalized conventions agree up to the fixed mass.
    from pgsosp.mdp import occupancy

    for seed in range(10):
        mdp, family = make_random_problem(seed + 800, horizon=5, gamma=0.7)
        rng = derive_rng(seed, 48)
        theta = rng.uniform(-1, 1, family.param_dim)
        j_dp = exact_objective(mdp, family, theta)
        d = occupancy(mdp, family, theta)
        pi = family.probs(theta)
        j_measure = float((d[:, None] * pi * mdp.reward).sum())
        assert abs(j_dp - j_measure) <= 1e-12
