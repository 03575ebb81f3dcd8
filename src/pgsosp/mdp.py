"""Finite tabular MDPs: batch rollouts and exact quantities.

An MDP is the tuple (states, actions, P, R, rho0, gamma) with a stored
truncation horizon h and reward bounds [r_min, r_max].  All infinite sums
(visitation measure, value functions, the objective) are truncated at h,
and the identities between them are stated in time-indexed form (the
visitation rows gamma^t P_t against Q_t and V_t), which is exact at
truncation h: no identity here needs a tail bound.

All types are immutable after construction.  Rollouts are arrays of
(n, h) trajectory blocks and are pure given their seed: rollout_batch
derives the i-th row's stream from (seed, i).  _walk maps a row's uniforms
to states and actions by bisecting pick tables: the rows of the rho0,
transition and policy CDFs as lists, with +inf from the first entry at
each row's total on, so a draw above a rounded total never lands on a
zero-probability tail entry.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError
from .policy import EXAMPLE_ONE_REWARD, EXAMPLE_ONE_TRANSITION
from .util import Block, derive_rng, frozen_array

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with dense transition tensor and deterministic rewards.

    transition[s, a, s'] = P(s'|s, a);  reward[s, a] in [r_min, r_max];
    rho0 is the initial state distribution; gamma in (0, 1); horizon >= 1
    is the trajectory truncation length.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward: np.ndarray
    rho0: np.ndarray
    gamma: float
    horizon: int
    r_min: float
    r_max: float

    def __post_init__(self):
        n_s, n_a = int(self.n_states), int(self.n_actions)
        if n_s < 1 or n_a < 1:
            raise ConfigError("n_states and n_actions must be >= 1")
        transition = frozen_array(self.transition)
        reward = frozen_array(self.reward)
        rho0 = frozen_array(self.rho0)
        if transition.shape != (n_s, n_a, n_s):
            raise ConfigError(
                f"transition: expected shape {(n_s, n_a, n_s)}, got {transition.shape}"
            )
        if reward.shape != (n_s, n_a):
            raise ConfigError(
                f"reward: expected shape {(n_s, n_a)}, got {reward.shape}"
            )
        if rho0.shape != (n_s,):
            raise ConfigError(f"rho0: expected shape {(n_s,)}, got {rho0.shape}")
        if transition.min() < 0.0:
            s, a, _ = np.unravel_index(int(transition.argmin()), transition.shape)
            raise ConfigError(f"transition[{s}][{a}]: negative entry")
        sums = transition.sum(axis=2)
        bad = np.abs(sums - 1.0) > _ROW_SUM_TOL
        if bad.any():
            s, a = np.argwhere(bad)[0]
            raise ConfigError(
                f"transition[{s}][{a}]: row sums to {sums[s, a]!r}, expected 1"
            )
        if rho0.min() < 0.0:
            raise ConfigError(f"rho0[{int(rho0.argmin())}]: negative entry")
        if abs(rho0.sum() - 1.0) > _ROW_SUM_TOL:
            raise ConfigError(f"rho0: sums to {rho0.sum()!r}, expected 1")
        r_min, r_max = float(self.r_min), float(self.r_max)
        if not (r_max > 0.0 and r_min >= 0.0 and r_min <= r_max):
            # The bound pair must bracket a positive reward range; r_min = 0
            # is accepted because the benchmark MDP carries zero rewards.
            raise ConfigError("reward bounds require 0 <= r_min <= r_max, r_max > 0")
        if reward.min() < r_min - 1e-12 or reward.max() > r_max + 1e-12:
            s, a = np.unravel_index(int(reward.argmin()), reward.shape)
            if reward[s, a] >= r_min - 1e-12:
                s, a = np.unravel_index(int(reward.argmax()), reward.shape)
            raise ConfigError(
                f"reward[{s}][{a}]={reward[s, a]!r} outside [r_min, r_max]"
            )
        if not (0.0 < float(self.gamma) < 1.0):
            raise ConfigError(f"gamma: must be in (0, 1), got {self.gamma!r}")
        if int(self.horizon) < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon!r}")
        object.__setattr__(self, "n_states", n_s)
        object.__setattr__(self, "n_actions", n_a)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "r_min", r_min)
        object.__setattr__(self, "r_max", r_max)
        # gamma^t for t < h, the per-step discounts of a trajectory block.
        object.__setattr__(self, "_discounts",
                           frozen_array(self.gamma ** np.arange(self.horizon)))
        # Pick tables for inverse-CDF sampling (see _pick_rows); the row of
        # P(.|s, a) is _trans_rows[s * n_actions + a].
        object.__setattr__(self, "_trans_rows", _pick_rows(transition.cumsum(axis=2)))
        object.__setattr__(self, "_rho0_row", _pick_rows(rho0.cumsum())[0])


_MDP_KINDS = dict(n_states="integer", n_actions="integer", transition="tensor",
                  reward="matrix", rho0="vector", gamma="number", horizon="integer",
                  r_min="number", r_max="number")
# The JSON object layout of an MDP, inline or in a file; TabularMdp checks
# the shapes and ranges, so an MDP is checked once however it is built.
_MDP_BLOCK = Block(_MDP_KINDS, required=tuple(_MDP_KINDS))


def example_one_mdp(gamma: float = 0.5, horizon: int = 1) -> TabularMdp:
    """Three-state benchmark MDP (start state, two absorbing states).

    From s0 the actions are right -> s1 with reward 1, left -> s2 with
    reward 1, up -> s0 with reward 0; the absorbing states self-loop with
    reward 0.  With horizon 1 the expected return equals the closed-form
    objective of the piecewise policy family exactly; larger horizons add
    re-decision mass at s0 from the `up` self-loop.
    """
    return TabularMdp(
        n_states=3,
        n_actions=3,
        transition=EXAMPLE_ONE_TRANSITION,
        reward=EXAMPLE_ONE_REWARD,
        rho0=np.array([1.0, 0.0, 0.0]),
        gamma=gamma,
        horizon=horizon,
        r_min=0.0,
        r_max=1.0,
    )


def _shape_check(mdp: TabularMdp, family) -> None:
    if getattr(family, "n_states", mdp.n_states) != mdp.n_states or \
            getattr(family, "n_actions", mdp.n_actions) != mdp.n_actions:
        raise ConfigError(
            f"policy family {family.name!r} has shape "
            f"({family.n_states}, {family.n_actions}), MDP has "
            f"({mdp.n_states}, {mdp.n_actions})"
        )
    if hasattr(family, "check_mdp"):
        family.check_mdp(mdp)


def _pick_rows(cdf: np.ndarray) -> list[list[float]]:
    """Pick tables: the rows of cdf along its last axis (leading axes
    flattened) as lists, each with +inf from its first entry at the row's
    total on.

    bisect_right on a row is the inverse-CDF pick: the first index whose
    cumulative mass exceeds u.  A draw at or above the row's rounded total
    (a cumsum can end just below 1) takes the last entry that adds mass,
    never a zero-probability tail entry.
    """
    rows = cdf.reshape(-1, cdf.shape[-1]).tolist()
    for row in rows:
        first = row.index(row[-1])
        row[first:] = [math.inf] * (len(row) - first)
    return rows


def _walk(mdp: TabularMdp, draws: np.ndarray, action_cdf: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Map an (n, 2h+1) block of uniforms to (states, actions), each (n, h).

    In row i, draws[i, 0] picks s_0 from rho0, draws[i, 2t+1] picks a_t
    from the (S, A) policy CDF row action_cdf[s_t], and draws[i, 2t+2]
    picks s_{t+1} from P(.|s_t, a_t), each through a pick table.
    """
    n, h = draws.shape[0], mdp.horizon
    states = np.empty((n, h), dtype=np.int64)
    actions = np.empty((n, h), dtype=np.int64)
    rho0, trans, policy = mdp._rho0_row, mdp._trans_rows, _pick_rows(action_cdf)
    n_a = mdp.n_actions
    for i in range(n):
        row = draws[i].tolist()
        s = bisect_right(rho0, row[0])
        row_states, row_actions = [], []
        for t in range(h):
            a = bisect_right(policy[s], row[2 * t + 1])
            row_states.append(s)
            row_actions.append(a)
            s = bisect_right(trans[s * n_a + a], row[2 * t + 2])
        states[i] = row_states
        actions[i] = row_actions
    return states, actions


def rollout_batch(mdp: TabularMdp, family, theta: np.ndarray, n: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n trajectories as arrays (states, actions, rewards), each (n, h).

    Row i reads 2h+1 uniforms of derive_rng(sub_seed_i), where sub_seed_i
    is the first integer in [0, 2^63 - 1) drawn from derive_rng(seed, i);
    _walk maps them to the row's states and actions.
    """
    _shape_check(mdp, family)
    width = 2 * mdp.horizon + 1
    draws = np.empty((n, width))
    for i in range(n):
        sub_seed = int(derive_rng(seed, i).integers(0, 2 ** 63 - 1))
        draws[i] = derive_rng(sub_seed).random(width)
    states, actions = _walk(mdp, draws, family.probs(theta).cumsum(axis=1))
    return states, actions, mdp.reward[states, actions]


def occupancy(mdp: TabularMdp, family, theta: np.ndarray) -> np.ndarray:
    """Truncated unnormalized discounted visitation sum_{t<h} gamma^t P_t.

    Total mass is (1 - gamma^h) / (1 - gamma).
    """
    _shape_check(mdp, family)
    # Python's sum adds the rows in order; ndarray.sum may pair them up.
    return sum(_visitation(mdp, family.probs(theta)))


def _visitation(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    """(h, ..., S) rows gamma^t P_t of the state distribution under pi (..., S, A)."""
    kernel = np.einsum("...sa,sat->...st", pi, mdp.transition)
    rows = np.empty((mdp.horizon,) + pi.shape[:-1])
    rows[0] = mdp.rho0
    for t in range(1, mdp.horizon):
        rows[t] = mdp.gamma * np.einsum("...s,...st->...t", rows[t - 1], kernel)
    return rows


def value_stack(mdp: TabularMdp, family, theta: np.ndarray):
    """Backward induction at theta (p,) or at a block (..., p): V (h + 1, ..., S)
    and Q (h, ..., S, A) with V[h] = 0, Q[t](s,a) = R(s,a) + gamma * sum_s'
    P(s'|s,a) V[t+1](s') and V[t](s) = sum_a pi(a|s) Q[t](s,a).  Einsums, not
    matmuls, give a point the same bits alone or in a block."""
    pi = family.probs(theta)
    v = np.zeros((mdp.horizon + 1,) + pi.shape[:-1])
    q = np.empty((mdp.horizon,) + pi.shape)
    for t in range(mdp.horizon - 1, -1, -1):
        q[t] = mdp.reward + mdp.gamma * np.einsum("sat,...t->...sa",
                                                  mdp.transition, v[t + 1])
        v[t] = np.einsum("...sa,...sa->...s", pi, q[t])
    return v, q


def random_mdp(seed: int, n_states: int = 3, n_actions: int = 2,
               horizon: int = 4, gamma: float = 0.5,
               branching: int = 2) -> TabularMdp:
    """Random small MDP with at most `branching` successors per (s, a).

    Sparse transitions keep trajectory enumeration tractable for the
    oracle identity suites.
    """
    rng = derive_rng(seed, 0xc0ffee)
    n_b = min(branching, n_states)
    transition = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            targets = rng.choice(n_states, size=n_b, replace=False)
            weights = rng.dirichlet(np.ones(n_b))
            transition[s, a, targets] = weights
    reward = rng.uniform(0.1, 1.0, size=(n_states, n_actions))
    rho0 = rng.dirichlet(np.ones(min(2, n_states)))
    full_rho0 = np.zeros(n_states)
    full_rho0[: len(rho0)] = rho0
    return TabularMdp(
        n_states=n_states, n_actions=n_actions, transition=transition,
        reward=reward, rho0=full_rho0, gamma=gamma, horizon=horizon,
        r_min=0.1, r_max=1.0,
    )
