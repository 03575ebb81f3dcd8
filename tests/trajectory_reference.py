"""One-trajectory definitions of the estimators, for the tests only.

The library samples g(tau) and H(tau) through its block reducers
(`estimators._pg_rows`, `estimators._hessian_sum`) over rollout_batch
rows or enumeration chunks.  The functions here write the same quantities
for one Trajectory at a time, the way the paper states them, so the tests
can compare the block code against them row by row:

    g(tau) = (sum_t d log pi(a_t|s_t)) * R(tau),
    H(tau) = dPhi (dlog p)^T + d^2 Phi,  Phi = sum_t w_t log pi(a_t|s_t),

with w_t = sum_{i>=t} gamma^i r_{i+1}.  sample_trajectory(seed) draws the
2h+1 uniforms of derive_rng(seed), as row i of rollout_batch does at its
sub-seed (conftest.sub_seed).  recursive_enumeration walks the trajectory
tree one node at a time, depth first; the library's level-wise
enumerate_trajectories must yield the same items in the same order.

Two block forms are kept as they were before the library changed them, so
the tests can pin the new code to them bit for bit: pick_walk maps draws
to trajectories with one searchsorted call per pick, and gather_pg_rows /
gather_hessian_sum reduce the whole (m, h, p) gather of score rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pgsosp.errors import ConfigError, EnumerationCapError
from pgsosp.mdp import TabularMdp, _shape_check, _walk
from pgsosp.oracle import (
    ENUM_CAP,
    enumerate_trajectories,
    enumeration_size_bound,
    is_enumerable,
)
from pgsosp.policy import _require_on_policy
from pgsosp.util import derive_rng, frozen_array


@dataclass(frozen=True)
class Trajectory:
    """Exactly-h-step rollout."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "states", frozen_array(self.states, dtype=np.int64))
        object.__setattr__(self, "actions", frozen_array(self.actions, dtype=np.int64))
        object.__setattr__(self, "rewards", frozen_array(self.rewards))

    def __len__(self) -> int:
        return len(self.states)

    @property
    def steps(self):
        """Ordered (state, action, reward) triples."""
        return list(zip(self.states.tolist(), self.actions.tolist(),
                        self.rewards.tolist()))


def sample_trajectory(mdp: TabularMdp, family, theta: np.ndarray,
                      seed: int) -> Trajectory:
    """Roll out exactly `horizon` steps; deterministic given the seed."""
    _shape_check(mdp, family)
    draws = derive_rng(seed).random(2 * mdp.horizon + 1)
    states, actions = _walk(mdp, draws[None, :],
                            family.probs(theta).cumsum(axis=1))
    return Trajectory(states=states[0], actions=actions[0],
                      rewards=mdp.reward[states[0], actions[0]], gamma=mdp.gamma)


def discounted_return(traj: Trajectory, gamma: float) -> float:
    """sum_t gamma^t r_{t+1} over the recorded steps."""
    if len(traj) == 0:
        raise ConfigError("discounted_return of empty trajectory")
    weights = gamma ** np.arange(len(traj))
    return float((weights * traj.rewards).sum())


def score_sum(traj: Trajectory, family, theta: np.ndarray) -> np.ndarray:
    """sum_t d log pi(a_t|s_t); raises on zero-probability (off-policy) steps."""
    _require_on_policy(family.probs(theta), traj.states, traj.actions)
    return family.score(theta)[traj.states, traj.actions].sum(axis=0)


def pg_estimate(traj: Trajectory, family, theta: np.ndarray) -> np.ndarray:
    """Single-trajectory policy gradient estimate."""
    return score_sum(traj, family, theta) * discounted_return(traj, traj.gamma)


def reward_to_go(traj: Trajectory) -> np.ndarray:
    """w_t = sum_{i >= t} gamma^i r_{i+1} with the absolute-index discount."""
    weighted = traj.gamma ** np.arange(len(traj)) * traj.rewards
    return weighted[::-1].cumsum()[::-1]


def hessian_estimate(traj: Trajectory, family, theta: np.ndarray) -> np.ndarray:
    """Single-trajectory Hessian estimate (raw, possibly asymmetric)."""
    p = family.param_dim
    w = reward_to_go(traj)
    _require_on_policy(family.probs(theta), traj.states, traj.actions)
    scores = family.score(theta)[traj.states, traj.actions]
    hessians = family.hess(theta)[traj.states, traj.actions]
    grad_phi = np.zeros(p)
    hess_phi = np.zeros((p, p))
    for t in range(len(traj)):
        grad_phi += w[t] * scores[t]
        hess_phi += w[t] * hessians[t]
    return np.outer(grad_phi, scores.sum(axis=0)) + hess_phi


def objective_by_enumeration(mdp: TabularMdp, family, theta: np.ndarray) -> float:
    gammas = mdp.gamma ** np.arange(mdp.horizon)
    total = 0.0
    for prob, _, _, rewards in enumerate_trajectories(mdp, family, theta):
        total += prob * float(gammas @ rewards)
    return total


def recursive_enumeration(mdp: TabularMdp, family, theta: np.ndarray):
    """Yield (probability, states, actions, rewards) over all trajectories,
    one tree node at a time: actions in index order, then successor states
    in index order, depth first."""
    if not is_enumerable(mdp):
        raise EnumerationCapError(
            f"enumeration bound {enumeration_size_bound(mdp):.3g} exceeds cap {ENUM_CAP}"
        )
    theta = np.asarray(theta, dtype=float)
    pi = family.probs(theta)
    h = mdp.horizon
    states = np.empty(h, dtype=np.int64)
    actions = np.empty(h, dtype=np.int64)
    rewards = np.empty(h)

    def walk(t: int, s: int, prob: float):
        states[t] = s
        for a in range(mdp.n_actions):
            p_a = prob * pi[s, a]
            if p_a <= 0.0:
                continue
            actions[t] = a
            rewards[t] = mdp.reward[s, a]
            if t == h - 1:
                yield p_a, states.copy(), actions.copy(), rewards.copy()
                continue
            for s_next in range(mdp.n_states):
                p_next = p_a * mdp.transition[s, a, s_next]
                if p_next > 0.0:
                    yield from walk(t + 1, s_next, p_next)

    for s0 in range(mdp.n_states):
        if mdp.rho0[s0] > 0.0:
            yield from walk(0, s0, float(mdp.rho0[s0]))


def pick(cdf: np.ndarray, u: float) -> int:
    """Inverse-CDF pick: the first index whose cumulative mass exceeds u.

    A draw at or above the CDF's rounded total (a cumsum can end just
    below 1) takes the last entry that adds mass, never a zero-probability
    tail entry.
    """
    i = int(cdf.searchsorted(u, side="right"))
    if i == len(cdf):
        i = int(cdf.searchsorted(cdf[-1], side="left"))
    return i


def pick_walk(mdp: TabularMdp, draws: np.ndarray, action_cdf: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The (states, actions) that mdp._walk builds from an (n, 2h+1) block
    of uniforms, one pick call per draw."""
    n, h = draws.shape[0], mdp.horizon
    states = np.empty((n, h), dtype=np.int64)
    actions = np.empty((n, h), dtype=np.int64)
    rho0_cdf, trans_cdf = mdp.rho0.cumsum(), mdp.transition.cumsum(axis=2)
    for i in range(n):
        row = draws[i]
        s = pick(rho0_cdf, row[0])
        for t in range(h):
            a = pick(action_cdf[s], row[2 * t + 1])
            states[i, t] = s
            actions[i, t] = a
            s = pick(trans_cdf[s, a], row[2 * t + 2])
    return states, actions


def gather_pg_rows(mdp: TabularMdp, scores: np.ndarray, states: np.ndarray,
                   actions: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """estimators._pg_rows through the whole (m, h, p) score gather."""
    gammas = mdp.gamma ** np.arange(mdp.horizon)
    returns = (gammas * rewards).sum(axis=1)
    return scores[states, actions].sum(axis=1) * returns[:, None]


def gather_hessian_sum(mdp: TabularMdp, scores: np.ndarray, hessians: np.ndarray,
                       states: np.ndarray, actions: np.ndarray,
                       rewards: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """estimators._hessian_sum through the whole (m, h, p) score gather."""
    n_s, n_a, p = scores.shape
    gammas = mdp.gamma ** np.arange(mdp.horizon)
    w = (gammas * rewards)[:, ::-1].cumsum(axis=1)[:, ::-1]
    rows = scores[states, actions]
    grad_phi = np.einsum("mh,mhp->mp", w, rows)
    total = (weights[:, None] * grad_phi).T @ rows.sum(axis=1)
    pair_weights = np.bincount((states * n_a + actions).ravel(),
                               weights=(weights[:, None] * w).ravel(),
                               minlength=n_s * n_a)
    return total + np.tensordot(pair_weights, hessians.reshape(n_s * n_a, p, p),
                                axes=1)
