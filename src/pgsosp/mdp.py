"""Finite tabular MDPs: batch rollouts and exact quantities.

An MDP is the tuple (states, actions, P, R, rho0, gamma) with a stored
truncation horizon h and reward bounds [r_min, r_max].  All infinite sums
(visitation measure, value functions, the objective) are truncated at h;
identities that are exact only for the infinite-horizon quantities are
asserted elsewhere with the analytic tail bound gamma^h * r_max / (1 - gamma)
folded into their tolerances.

All types are immutable after construction.  Rollouts are arrays of
(n, h) trajectory blocks and are pure given their seed: rollout_batch
derives the i-th row's stream from (seed, i).  _walk maps a row's uniforms
to states and actions by bisecting pick tables: the rows of the rho0,
transition and policy CDFs as lists, with +inf from the first entry at
each row's total on, so a draw above a rounded total never lands on a
zero-probability tail entry.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError
from .policy import EXAMPLE_ONE_REWARD, EXAMPLE_ONE_TRANSITION
from .util import Block, _read, derive_rng, frozen_array

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

    def to_json(self) -> dict:
        return {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "transition": self.transition.tolist(),
            "reward": self.reward.tolist(),
            "rho0": self.rho0.tolist(),
            "gamma": self.gamma,
            "horizon": self.horizon,
            "r_min": self.r_min,
            "r_max": self.r_max,
        }


_MDP_KINDS = dict(n_states="integer", n_actions="integer", transition="tensor",
                  reward="matrix", rho0="vector", gamma="number", horizon="integer",
                  r_min="number", r_max="number")
# The JSON object layout of an MDP; TabularMdp checks the shapes and ranges.
_MDP_BLOCK = Block(_MDP_KINDS, required=tuple(_MDP_KINDS))


def mdp_from_dict(obj: dict) -> TabularMdp:
    """Build a TabularMdp from the JSON object layout, naming bad keys."""
    return _mdp_at(_read(obj, _MDP_BLOCK, "mdp"), "mdp")


def _mdp_at(values: dict, path: str) -> TabularMdp:
    """TabularMdp(**values) from a read block; its errors name the block."""
    try:
        return TabularMdp(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_mdp(path: str) -> TabularMdp:
    with open(path, "r", encoding="utf-8") as fh:
        return mdp_from_dict(json.load(fh))


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
    if n < 1:
        raise ConfigError("batch size must be >= 1")
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
    """(h, S) rows gamma^t P_t of the state distribution under pi (S, A)."""
    kernel = np.einsum("sa,sat->st", pi, mdp.transition)
    rows = np.empty((mdp.horizon, mdp.n_states))
    rows[0] = mdp.rho0
    for t in range(1, mdp.horizon):
        rows[t] = mdp.gamma * (rows[t - 1] @ kernel)
    return rows


def occupancy_mass(mdp: TabularMdp) -> float:
    return (1.0 - mdp.gamma ** mdp.horizon) / (1.0 - mdp.gamma)


def value_functions(mdp: TabularMdp, family, theta: np.ndarray):
    """The t = 0 slices (V_0, Q_0, A_0) of value_stack's backward induction.

    V_h = 0,  Q_t(s,a) = R(s,a) + gamma * sum_s' P(s'|s,a) V_{t+1}(s'),
    V_t(s) = sum_a pi(a|s) Q_t(s,a),  A = Q - V (advantages sum to zero
    under pi at every state).
    """
    _shape_check(mdp, family)
    v, q = value_stack(mdp, family, theta)
    return v[0], q[0], q[0] - v[0][:, None]


def value_stack(mdp: TabularMdp, family, theta: np.ndarray):
    """All backward-induction slices: V[t] and Q[t] for t = 0..h.

    V[h] = 0.  Used by the exact gradient, which needs time-indexed values.
    """
    pi = family.probs(theta)
    h = mdp.horizon
    v = np.zeros((h + 1, mdp.n_states))
    q = np.zeros((h, mdp.n_states, mdp.n_actions))
    for t in range(h - 1, -1, -1):
        q[t] = mdp.reward + mdp.gamma * (mdp.transition @ v[t + 1])
        v[t] = (pi * q[t]).sum(axis=1)
    return v, q


def performance_difference_check(mdp: TabularMdp, family, theta_a: np.ndarray,
                                 theta_b: np.ndarray):
    """Both sides of the performance-difference identity at truncation h.

    lhs = E_rho0[V^a - V^b];  rhs = sum_s d^a(s) sum_a pi_a(a|s) A^b(s,a).
    The two agree within 2 * gamma^h * r_max / (1 - gamma).
    """
    v_a, _, _ = value_functions(mdp, family, theta_a)
    v_b, _, adv_b = value_functions(mdp, family, theta_b)
    lhs = float(mdp.rho0 @ (v_a - v_b))
    d_a = occupancy(mdp, family, theta_a)
    pi_a = family.probs(theta_a)
    rhs = float((d_a[:, None] * pi_a * adv_b).sum())
    return lhs, rhs


def perf_diff_tail_tolerance(mdp: TabularMdp) -> float:
    return 2.0 * mdp.gamma ** mdp.horizon * mdp.r_max / (1.0 - mdp.gamma)


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
