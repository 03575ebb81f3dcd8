import numpy as np
import pytest

from pgsosp.mdp import TabularMdp, _visitation, example_one_mdp, random_mdp, value_stack
from pgsosp.policy import ExampleOnePiecewise, TabularSoftmax
from pgsosp.util import derive_rng

# One verdict entry per acceptance criterion, printed in the terminal
# summary (fd-level capture would swallow plain prints from the tests).
ACCEPTANCE_VERDICTS = []


def record_acceptance(number, name, passed, elapsed, budget):
    ACCEPTANCE_VERDICTS.append((number, name, passed, elapsed, budget))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, passed, elapsed, budget in sorted(ACCEPTANCE_VERDICTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"[acceptance {number:>2}] {name}: {verdict} "
            f"({elapsed:.1f}s, budget {budget:.0f}s)"
        )


@pytest.fixture
def bandit():
    """One state, two actions with rewards (1, 0), horizon 1."""
    return TabularMdp(
        n_states=1, n_actions=2,
        transition=np.ones((1, 2, 1)),
        reward=np.array([[1.0, 0.0]]),
        rho0=np.array([1.0]),
        gamma=0.5, horizon=1, r_min=0.0, r_max=1.0,
    )


@pytest.fixture
def bandit_family():
    return TabularSoftmax(1, 2)


@pytest.fixture
def example1():
    return example_one_mdp(), ExampleOnePiecewise()


def sub_seed(seed, i):
    """Seed of row i of rollout_batch(..., seed): sample_trajectory at this
    seed draws the same trajectory."""
    return int(derive_rng(seed, i).integers(0, 2**63 - 1))


def make_random_problem(seed, n_states=3, n_actions=2, horizon=4, gamma=0.5):
    mdp = random_mdp(seed, n_states=n_states, n_actions=n_actions,
                     horizon=horizon, gamma=gamma)
    family = TabularSoftmax(n_states, n_actions)
    return mdp, family


def mdp_json(mdp):
    """The JSON object of an MDP, as an inline `mdp` block or an MDP file
    holds it."""
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
        "rho0": mdp.rho0.tolist(),
        "gamma": mdp.gamma,
        "horizon": mdp.horizon,
        "r_min": mdp.r_min,
        "r_max": mdp.r_max,
    }


def performance_difference(mdp, family, theta_a, theta_b):
    """Both sides (lhs, rhs) of the performance-difference identity (Kakade &
    Langford, ICML 2002) in its time-indexed form, exact at truncation h:

        rho0 (V^a_0 - V^b_0)
            = sum_t sum_s gamma^t P^a_t(s) sum_a pi_a(a|s) (Q^b_t - V^b_t)(s, a),

    with P^a_t the state distribution at step t under pi_a.  The two sides
    agree to rounding, within perf_diff_tolerance(lhs)."""
    v, q = value_stack(mdp, family, np.stack((theta_a, theta_b)))
    pi_a = family.probs(theta_a)
    rhs = np.einsum("ts,sa,tsa->", _visitation(mdp, pi_a), pi_a,
                    q[:, 1] - v[:-1, 1, :, None])
    return float(mdp.rho0 @ (v[0, 0] - v[0, 1])), float(rhs)


def perf_diff_tolerance(lhs):
    return 1e-12 * max(1.0, abs(lhs))
