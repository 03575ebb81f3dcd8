import math

import numpy as np
import pytest

from pgsosp.errors import ConfigError
from pgsosp.mdp import (
    TabularMdp,
    _walk,
    example_one_mdp,
    mdp_from_dict,
    occupancy,
    occupancy_mass,
    perf_diff_tail_tolerance,
    performance_difference_check,
    random_mdp,
    rollout_batch,
    value_functions,
)
from pgsosp.policy import ExampleOnePiecewise, TabularSoftmax
from pgsosp.util import derive_rng

from conftest import make_random_problem, sub_seed
from trajectory_reference import (
    Trajectory,
    discounted_return,
    pick_walk,
    sample_trajectory,
)


def single_state_mdp(gamma=0.5, horizon=3, reward=1.0):
    return TabularMdp(
        n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
        reward=np.array([[reward]]), rho0=np.array([1.0]),
        gamma=gamma, horizon=horizon, r_min=reward, r_max=reward,
    )


class TestValidation:
    def test_bad_transition_row_named(self):
        t = np.ones((2, 1, 2)) * 0.5
        t[1, 0] = [0.3, 0.3]
        with pytest.raises(ConfigError, match=r"transition\[1\]\[0\]"):
            TabularMdp(n_states=2, n_actions=1, transition=t,
                       reward=np.ones((2, 1)), rho0=np.array([1.0, 0.0]),
                       gamma=0.5, horizon=2, r_min=1.0, r_max=1.0)

    def test_negative_transition_named(self):
        t = np.zeros((1, 1, 1))
        t[0, 0, 0] = -1.0
        with pytest.raises(ConfigError, match=r"transition\[0\]\[0\]"):
            TabularMdp(n_states=1, n_actions=1, transition=t,
                       reward=np.ones((1, 1)), rho0=np.array([1.0]),
                       gamma=0.5, horizon=1, r_min=1.0, r_max=1.0)

    def test_rho0_must_normalize(self):
        with pytest.raises(ConfigError, match="rho0"):
            TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                       reward=np.ones((1, 1)), rho0=np.array([0.9]),
                       gamma=0.5, horizon=1, r_min=1.0, r_max=1.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.2, -0.1])
    def test_gamma_open_interval(self, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            single_state_mdp(gamma=gamma)

    def test_reward_outside_bounds_named(self):
        with pytest.raises(ConfigError, match=r"reward\[0\]\[0\]"):
            TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                       reward=np.array([[2.0]]), rho0=np.array([1.0]),
                       gamma=0.5, horizon=1, r_min=0.5, r_max=1.0)

    def test_horizon_positive(self):
        with pytest.raises(ConfigError, match="horizon"):
            single_state_mdp(horizon=0)

    def test_json_round_trip(self):
        mdp, _ = make_random_problem(0)
        again = mdp_from_dict(mdp.to_json())
        assert np.array_equal(again.transition, mdp.transition)
        assert np.array_equal(again.reward, mdp.reward)

    def test_json_unknown_key(self):
        obj = single_state_mdp().to_json()
        obj["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            mdp_from_dict(obj)

    def test_json_shape_error_names_the_block(self):
        obj = single_state_mdp().to_json()
        obj["reward"] = [[1.0, 0.0]]
        with pytest.raises(ConfigError, match=r"^mdp: reward: expected shape"):
            mdp_from_dict(obj)

    def test_json_missing_key(self):
        obj = single_state_mdp().to_json()
        del obj["rho0"]
        with pytest.raises(ConfigError, match="rho0"):
            mdp_from_dict(obj)


class TestSampling:
    def test_forced_support(self):
        mdp = single_state_mdp(horizon=5)
        traj = sample_trajectory(mdp, TabularSoftmax(1, 1), np.zeros(1), seed=3)
        assert traj.steps == [(0, 0, 1.0)] * 5

    def test_deterministic_given_seed(self):
        mdp, family = make_random_problem(1)
        theta = np.linspace(-1, 1, family.param_dim)
        a = sample_trajectory(mdp, family, theta, seed=42)
        b = sample_trajectory(mdp, family, theta, seed=42)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)

    def test_rewards_match_reward_table(self):
        mdp, family = make_random_problem(2)
        theta = np.zeros(family.param_dim)
        traj = sample_trajectory(mdp, family, theta, seed=5)
        for s, a, r in traj.steps:
            assert r == mdp.reward[s, a]

    def test_example1_action_frequency_at_origin(self, example1):
        # P(right | s0) at theta = 0 is 1/sqrt(2*pi).
        mdp, family = example1
        n = 20000
        states, actions, _ = rollout_batch(mdp, family, np.zeros(2), n, seed=7)
        p_right = float((actions[:, 0] == 0).mean())
        p_true = 1.0 / math.sqrt(2.0 * math.pi)
        se = math.sqrt(p_true * (1.0 - p_true) / n)
        assert abs(p_right - p_true) <= 3.0 * se

    def test_rollout_batch_matches_objects(self):
        # Row i of the batch is sample_trajectory at row i's sub-seed.
        mdp, family = make_random_problem(4)
        theta = np.linspace(-0.5, 0.5, family.param_dim)
        states, actions, rewards = rollout_batch(mdp, family, theta, 32, seed=13)
        for i in range(32):
            t = sample_trajectory(mdp, family, theta, sub_seed(13, i))
            assert np.array_equal(t.states, states[i])
            assert np.array_equal(t.actions, actions[i])
            assert np.array_equal(t.rewards, rewards[i])

    def test_shape_mismatch_is_config_error(self):
        mdp = single_state_mdp()
        with pytest.raises(ConfigError):
            sample_trajectory(mdp, TabularSoftmax(2, 2), np.zeros(4), seed=0)

    def test_top_draw_skips_zero_probability_tail(self):
        # The cumsum of (0.7, 0.2, 0.1, 0) ends at 1 - 2**-53, so the
        # largest draw random() can return lies above every CDF total.
        row = np.array([0.7, 0.2, 0.1, 0.0])
        assert row.cumsum()[-1] <= np.nextafter(1.0, 0.0)
        mdp = TabularMdp(
            n_states=4, n_actions=4, transition=np.tile(row, (4, 4, 1)),
            reward=np.ones((4, 4)), rho0=row, gamma=0.5, horizon=2,
            r_min=1.0, r_max=1.0,
        )
        draws = np.full((1, 2 * mdp.horizon + 1), np.nextafter(1.0, 0.0))
        states, actions = _walk(mdp, draws, np.tile(row.cumsum(), (4, 1)))
        # rho0 picks s_0, the policy row picks a_0 and a_1, and a
        # transition row picks s_1.
        assert (row[states] > 0).all()
        assert (row[actions] > 0).all()



def sparse_rows(rng, shape):
    """Rows of probabilities along the last axis with some exact zeros,
    leading and trailing ones included, each row keeping some mass."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    rows[rng.random(rows.shape) < 0.4] = 0.0
    rows[..., -1][rng.random(shape[:-1]) < 0.5] = 0.0
    empty = rows.sum(axis=-1) == 0.0
    rows[empty, rng.integers(0, shape[-1], int(empty.sum()))] = 1.0
    return rows / rows.sum(axis=-1, keepdims=True)


class TestWalkPickTables:
    """_walk picks through pick tables; every row must be the row the
    searchsorted picks of tests/trajectory_reference.pick_walk give."""

    @pytest.mark.parametrize("seed", range(30))
    def test_rows_match_the_searchsorted_walk(self, seed):
        rng = np.random.default_rng(seed)
        n_s, n_a, h = (int(rng.integers(1, 7)), int(rng.integers(1, 6)),
                       int(rng.integers(1, 9)))
        mdp = TabularMdp(
            n_states=n_s, n_actions=n_a,
            transition=sparse_rows(rng, (n_s, n_a, n_s)),
            reward=np.ones((n_s, n_a)), rho0=sparse_rows(rng, (n_s,)),
            gamma=0.9, horizon=h, r_min=1.0, r_max=1.0,
        )
        family = TabularSoftmax(n_s, n_a)
        # Logits up to +-800 make some action probabilities exact zeros.
        theta = rng.uniform(-800.0, 800.0, family.param_dim) \
            * (rng.random(family.param_dim) < 0.5)
        action_cdf = family.probs(theta).cumsum(axis=1)
        draws = rng.random((40, 2 * h + 1))
        draws[:10] = np.nextafter(1.0, 0.0)
        draws[10:20] = 0.0
        draws[20:30][rng.random((10, 2 * h + 1)) < 0.5] = np.nextafter(1.0, 0.0)
        states, actions = _walk(mdp, draws, action_cdf)
        ref_states, ref_actions = pick_walk(mdp, draws, action_cdf)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(actions, ref_actions)

    def test_rounded_totals_and_leading_zeros_on_a_draw_grid(self):
        # Policy rows whose cumsum ends below 1, with equal masses, and with
        # zero-probability leading entries, walked on an even grid of draws.
        mdp = random_mdp(3, n_states=3, n_actions=3, horizon=6)
        action_cdf = np.stack([np.array([0.7, 0.2, 0.1]).cumsum(),
                               np.full(3, 1 / 3).cumsum(),
                               np.array([0.0, 0.0, 1.0])])
        grid = np.linspace(0.0, np.nextafter(1.0, 0.0), 13 * 64).reshape(64, 13)
        states, actions = _walk(mdp, grid, action_cdf)
        ref_states, ref_actions = pick_walk(mdp, grid, action_cdf)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(actions, ref_actions)

class TestDiscountedReturn:
    def test_geometric(self):
        traj = Trajectory(states=[0, 0, 0], actions=[0, 0, 0],
                          rewards=[1.0, 1.0, 1.0], gamma=0.5)
        assert discounted_return(traj, 0.5) == 1.75

    def test_zero(self):
        traj = Trajectory(states=[0, 0], actions=[0, 0], rewards=[0.0, 0.0],
                          gamma=0.9)
        assert discounted_return(traj, 0.9) == 0.0

    def test_two_step(self):
        traj = Trajectory(states=[0, 0], actions=[0, 0], rewards=[2.0, 3.0],
                          gamma=0.9)
        assert discounted_return(traj, 0.9) == pytest.approx(4.7, abs=1e-12)

    def test_empty_rejected(self):
        traj = Trajectory(states=[], actions=[], rewards=[], gamma=0.5)
        with pytest.raises(ConfigError):
            discounted_return(traj, 0.5)


class TestOccupancy:
    def test_single_state(self):
        mdp = single_state_mdp(gamma=0.5, horizon=3)
        d = occupancy(mdp, TabularSoftmax(1, 1), np.zeros(1))
        assert d == pytest.approx([1.75], abs=1e-12)

    def test_horizon_one_is_rho0(self):
        mdp, family = make_random_problem(5, gamma=0.9, horizon=1)
        d = occupancy(mdp, family, np.zeros(family.param_dim))
        assert np.allclose(d, mdp.rho0, atol=1e-14)

    def test_two_state_cycle(self):
        # s0 -> s1 -> s0 deterministic; rho0 = (1, 0), gamma 0.5, h = 4.
        mdp = TabularMdp(
            n_states=2, n_actions=1,
            transition=np.array([[[0.0, 1.0]], [[1.0, 0.0]]]),
            reward=np.ones((2, 1)), rho0=np.array([1.0, 0.0]),
            gamma=0.5, horizon=4, r_min=1.0, r_max=1.0,
        )
        d = occupancy(mdp, TabularSoftmax(2, 1), np.zeros(2))
        assert d == pytest.approx([1.25, 0.625], abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_mass(self, seed):
        mdp, family = make_random_problem(seed, horizon=6, gamma=0.7)
        rng = derive_rng(seed, 99)
        theta = rng.uniform(-2, 2, family.param_dim)
        d = occupancy(mdp, family, theta)
        assert d.min() >= 0.0
        assert abs(d.sum() - occupancy_mass(mdp)) <= 1e-10

    def test_visit_frequency_consistency(self):
        # Discounted empirical visit measure over many rollouts matches the
        # exact occupancy within four standard errors per state.
        mdp, family = make_random_problem(6, n_states=3, horizon=4, gamma=0.6)
        theta = np.linspace(-0.5, 0.5, family.param_dim)
        n = 100_000
        states, _, _ = rollout_batch(mdp, family, theta, n, seed=17)
        gammas = mdp.gamma ** np.arange(mdp.horizon)
        d = occupancy(mdp, family, theta)
        for s in range(mdp.n_states):
            per_traj = ((states == s) * gammas).sum(axis=1)
            mean = per_traj.mean()
            se = per_traj.std(ddof=1) / math.sqrt(n)
            assert abs(mean - d[s]) <= 4.0 * se + 1e-12


class TestValueFunctions:
    def test_single_state_two_steps(self):
        mdp = single_state_mdp(gamma=0.5, horizon=2)
        v, q, a = value_functions(mdp, TabularSoftmax(1, 1), np.zeros(1))
        assert v == pytest.approx([1.5], abs=1e-12)
        assert q == pytest.approx(np.array([[1.5]]), abs=1e-12)
        assert a == pytest.approx(np.array([[0.0]]), abs=1e-12)

    def test_horizon_one_q_is_reward(self):
        mdp, family = make_random_problem(7, horizon=1)
        _, q, _ = value_functions(mdp, family, np.zeros(family.param_dim))
        assert np.allclose(q, mdp.reward, atol=1e-14)

    def test_bandit_uniform(self, bandit, bandit_family):
        v, q, a = value_functions(bandit, bandit_family, np.zeros(2))
        assert v == pytest.approx([0.5], abs=1e-12)
        assert a == pytest.approx(np.array([[0.5, -0.5]]), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_advantage_centering(self, seed):
        mdp, family = make_random_problem(seed, horizon=5)
        rng = derive_rng(seed, 98)
        theta = rng.uniform(-2, 2, family.param_dim)
        _, _, adv = value_functions(mdp, family, theta)
        pi = family.probs(theta)
        assert np.abs((pi * adv).sum(axis=1)).max() <= 1e-12


class TestPerformanceDifference:
    def test_identical_policies(self):
        mdp, family = make_random_problem(8)
        theta = np.linspace(-1, 1, family.param_dim)
        lhs, rhs = performance_difference_check(mdp, family, theta, theta)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_bandit_direct_expectation(self, bandit, bandit_family):
        # pi_a ~ (1, 0) via a large logit gap, pi_b uniform.
        theta_a = np.array([30.0, 0.0])
        theta_b = np.zeros(2)
        lhs, rhs = performance_difference_check(bandit, bandit_family,
                                                theta_a, theta_b)
        assert lhs == pytest.approx(0.5, abs=1e-9)
        assert rhs == pytest.approx(0.5, abs=1e-9)

    def test_long_horizon_tail_bound(self):
        mdp, family = make_random_problem(9, n_states=3, n_actions=2,
                                          horizon=30, gamma=0.5)
        rng = derive_rng(9, 97)
        ta = rng.uniform(-1, 1, family.param_dim)
        tb = rng.uniform(-1, 1, family.param_dim)
        lhs, rhs = performance_difference_check(mdp, family, ta, tb)
        assert abs(lhs - rhs) <= 2.0 * 0.5 ** 30 * mdp.r_max / 0.5

    @pytest.mark.parametrize("seed", range(0, 100, 1))
    def test_random_pairs_within_tail(self, seed):
        mdp, family = make_random_problem(seed + 500, horizon=5, gamma=0.6)
        rng = derive_rng(seed, 96)
        ta = rng.uniform(-2, 2, family.param_dim)
        tb = rng.uniform(-2, 2, family.param_dim)
        lhs, rhs = performance_difference_check(mdp, family, ta, tb)
        assert abs(lhs - rhs) <= perf_diff_tail_tolerance(mdp)


class TestExampleOneMdp:
    def test_layout_accepted_by_family(self):
        mdp = example_one_mdp()
        ExampleOnePiecewise().check_mdp(mdp)

    def test_family_rejects_other_mdp(self):
        mdp, _ = make_random_problem(10, n_states=3, n_actions=3)
        with pytest.raises(ConfigError):
            ExampleOnePiecewise().check_mdp(mdp)
