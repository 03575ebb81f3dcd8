import numpy as np
import pytest

from pgsosp.mdp import TabularMdp, example_one_mdp, random_mdp
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
