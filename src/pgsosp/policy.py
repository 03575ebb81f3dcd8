"""Differentiable policy families over finite state/action spaces.

Two families are provided:

``TabularSoftmax``
    One logit per (state, action); pi(a|s) = softmax over the state's
    logit block.  Score and Hessian of log pi have the usual closed
    forms (e_a - pi and -diag(pi) + pi pi^T on the block).

``ExampleOnePiecewise``
    The two-parameter piecewise family on the three-state benchmark MDP
    (see :func:`pgsosp.mdp.example_one_mdp`).  At the start state the
    probability of action ``right`` is (1 - t1^2 + t2^2)/sqrt(2*pi) when
    theta lies in the closed unit box, the probability of ``left`` is
    exp(-(2 - |theta|^2)/2)/sqrt(2*pi) outside the box, and ``up`` takes
    the remaining mass.  The two absorbing states play fixed actions.

All functions are pure in (theta, state, action) and thread-safe.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, PolicyDomainError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Action layout of the three-state benchmark.
RIGHT, LEFT, UP = 0, 1, 2


class TabularSoftmax:
    """Softmax policy with independent logits per state."""

    name = "tabular_softmax"

    def __init__(self, n_states: int, n_actions: int):
        if n_states < 1 or n_actions < 1:
            raise ConfigError("n_states and n_actions must be >= 1")
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)

    @property
    def param_dim(self) -> int:
        return self.n_states * self.n_actions

    def _block(self, state: int) -> slice:
        a = self.n_actions
        return slice(state * a, (state + 1) * a)

    def action_probs(self, theta: np.ndarray, state: int) -> np.ndarray:
        logits = np.asarray(theta, dtype=float)[self._block(state)]
        z = logits - logits.max()
        e = np.exp(z)
        return e / e.sum()

    def grad_log_prob(self, theta: np.ndarray, state: int, action: int) -> np.ndarray:
        pi = self.action_probs(theta, state)
        if pi[action] <= 0.0:
            raise PolicyDomainError(
                f"zero-probability action {action} in state {state}"
            )
        g = np.zeros(self.param_dim)
        block = self._block(state)
        g[block] = -pi
        g[state * self.n_actions + action] += 1.0
        return g

    def hessian_log_prob(self, theta: np.ndarray, state: int, action: int) -> np.ndarray:
        pi = self.action_probs(theta, state)
        if pi[action] <= 0.0:
            raise PolicyDomainError(
                f"zero-probability action {action} in state {state}"
            )
        h = np.zeros((self.param_dim, self.param_dim))
        block = self._block(state)
        h[block, block] = np.outer(pi, pi) - np.diag(pi)
        return h

    def grad_prob(self, theta: np.ndarray, state: int) -> np.ndarray:
        """d pi(a|s) / d theta for every action: shape (n_actions, p)."""
        pi = self.action_probs(theta, state)
        out = np.zeros((self.n_actions, self.param_dim))
        block = self._block(state)
        out[:, block] = pi[:, None] * (np.eye(self.n_actions) - pi[None, :])
        return out


class ExampleOnePiecewise:
    """Two-parameter piecewise family on the three-state benchmark MDP.

    The start state s0 exposes actions (right, left, up) = (0, 1, 2); the
    absorbing states s1, s2 play ``right`` and ``left`` with probability 1
    and contribute zero score.  Derivative queries on the boundary of the
    unit box use the in-box branch (closed-set convention).
    """

    name = "example_one"
    n_states = 3
    n_actions = 3

    @property
    def param_dim(self) -> int:
        return 2

    @staticmethod
    def in_box(theta: np.ndarray) -> bool:
        return bool(0.0 <= theta[0] <= 1.0 and 0.0 <= theta[1] <= 1.0)

    def _p1(self, theta: np.ndarray) -> float:
        return _INV_SQRT_2PI * (1.0 - theta[0] ** 2 + theta[1] ** 2)

    def _p2(self, theta: np.ndarray) -> float:
        return _INV_SQRT_2PI * math.exp(-(2.0 - float(theta @ theta)) / 2.0)

    def action_probs(self, theta: np.ndarray, state: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if state == 1:
            return np.array([1.0, 0.0, 0.0])
        if state == 2:
            return np.array([0.0, 1.0, 0.0])
        if self.in_box(theta):
            p1 = self._p1(theta)
            probs = np.array([p1, 0.0, 1.0 - p1])
        else:
            p2 = self._p2(theta)
            probs = np.array([0.0, p2, 1.0 - p2])
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise PolicyDomainError(
                f"action probabilities leave [0, 1] at theta={theta.tolist()}"
            )
        return probs

    def grad_prob(self, theta: np.ndarray, state: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.zeros((3, 2))
        if state != 0:
            return out
        if self.in_box(theta):
            dp1 = _INV_SQRT_2PI * np.array([-2.0 * theta[0], 2.0 * theta[1]])
            out[RIGHT] = dp1
            out[UP] = -dp1
        else:
            dp2 = self._p2(theta) * theta
            out[LEFT] = dp2
            out[UP] = -dp2
        return out

    def grad_log_prob(self, theta: np.ndarray, state: int, action: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        probs = self.action_probs(theta, state)
        if probs[action] <= 0.0:
            raise PolicyDomainError(
                f"zero-probability action {action} in state {state}"
            )
        if state != 0:
            return np.zeros(2)
        return self.grad_prob(theta, 0)[action] / probs[action]

    def hessian_log_prob(self, theta: np.ndarray, state: int, action: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        probs = self.action_probs(theta, state)
        if probs[action] <= 0.0:
            raise PolicyDomainError(
                f"zero-probability action {action} in state {state}"
            )
        if state != 0:
            return np.zeros((2, 2))
        # d^2 log p = (d^2 p)/p - (d log p)(d log p)^T
        p = probs[action]
        dlog = self.grad_prob(theta, 0)[action] / p
        if self.in_box(theta):
            d2p1 = _INV_SQRT_2PI * np.diag([-2.0, 2.0])
            d2p = {RIGHT: d2p1, UP: -d2p1}[action]
        else:
            d2p2 = self._p2(theta) * (np.outer(theta, theta) + np.eye(2))
            d2p = {LEFT: d2p2, UP: -d2p2}[action]
        return d2p / p - np.outer(dlog, dlog)

    def check_mdp(self, mdp) -> None:
        """Reject MDPs that do not match the three-state benchmark layout."""
        ref = _example_one_layout()
        if (mdp.n_states, mdp.n_actions) != (3, 3):
            raise ConfigError(
                "example_one policy requires the 3-state/3-action benchmark MDP"
            )
        if not np.array_equal(np.asarray(mdp.transition), ref["transition"]):
            raise ConfigError("example_one policy: MDP transition table differs "
                              "from the three-state benchmark")
        if not np.array_equal(np.asarray(mdp.reward), ref["reward"]):
            raise ConfigError("example_one policy: MDP reward table differs "
                              "from the three-state benchmark")


def _example_one_layout() -> dict:
    """Transition/reward tables of the figure's three-state MDP."""
    transition = np.zeros((3, 3, 3))
    transition[0, RIGHT, 1] = 1.0
    transition[0, LEFT, 2] = 1.0
    transition[0, UP, 0] = 1.0
    for a in (RIGHT, LEFT, UP):
        transition[1, a, 1] = 1.0
        transition[2, a, 2] = 1.0
    reward = np.zeros((3, 3))
    reward[0, RIGHT] = 1.0
    reward[0, LEFT] = 1.0
    return {"transition": transition, "reward": reward}


FAMILY_TAGS = ("tabular_softmax", "example_one")


def make_family(tag: str, n_states: int = None, n_actions: int = None):
    """Instantiate a family from its config tag."""
    if tag == "tabular_softmax":
        if n_states is None or n_actions is None:
            raise ConfigError("tabular_softmax needs n_states and n_actions")
        return TabularSoftmax(n_states, n_actions)
    if tag == "example_one":
        return ExampleOnePiecewise()
    raise ConfigError(f"unknown policy family {tag!r}; expected one of {FAMILY_TAGS}")


@dataclass(frozen=True)
class RegularityConstants:
    """Grid maxima of the policy's derivative magnitudes.

    G bounds |d_i log pi|, L bounds |d2_ij log pi|, U bounds |d_i pi|;
    W is a difference-quotient estimate of the Lipschitz constant of the
    log-policy Hessian (None when not estimated).  All values are maxima
    over a finite grid, i.e. lower bounds on the true suprema.
    """

    G: float
    L: float
    U: float
    W: float | None
    domain_box: tuple
    grid_spacing: float

    def to_json(self) -> dict:
        return {
            "G": self.G, "L": self.L, "U": self.U, "W": self.W,
            "domain_box": [list(b) for b in self.domain_box],
            "grid_spacing": self.grid_spacing,
        }


def estimate_regularity(
    family,
    domain_box: Sequence[Sequence[float]],
    grid_density: int,
    estimate_w: bool = True,
) -> RegularityConstants:
    """Component-wise derivative maxima over a grid x all (state, action).

    Score/Hessian magnitudes are taken over actions with positive
    probability only; |d_i pi| is defined for every action.  W compares
    log-policy Hessians at axis-adjacent grid points.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in domain_box)
    if len(box) != family.param_dim:
        raise ConfigError(
            f"domain_box has {len(box)} axes, family needs {family.param_dim}"
        )
    if grid_density < 2 or any(hi < lo for lo, hi in box):
        raise ConfigError("domain_box must be nonempty with grid_density >= 2")
    axes = [np.linspace(lo, hi, grid_density) for lo, hi in box]
    spacing = max((hi - lo) / (grid_density - 1) for lo, hi in box)

    g_max = l_max = u_max = 0.0
    hess_cache: dict = {}

    def probe(idx):
        theta = np.array([axes[d][i] for d, i in enumerate(idx)])
        hessians = {}
        nonlocal g_max, l_max, u_max
        for s in range(family.n_states):
            try:
                probs = family.action_probs(theta, s)
            except PolicyDomainError:
                continue
            u_max = max(u_max, float(np.abs(family.grad_prob(theta, s)).max()))
            for a in range(family.n_actions):
                if probs[a] <= 0.0:
                    continue
                g_max = max(
                    g_max, float(np.abs(family.grad_log_prob(theta, s, a)).max())
                )
                h = family.hessian_log_prob(theta, s, a)
                l_max = max(l_max, float(np.abs(h).max()))
                hessians[(s, a)] = h
        hess_cache[idx] = hessians

    indices = list(itertools.product(*(range(grid_density),) * family.param_dim))
    for idx in indices:
        probe(idx)

    w_max = None
    if estimate_w:
        w_max = 0.0
        for idx in indices:
            here = hess_cache[idx]
            for axis in range(family.param_dim):
                if idx[axis] + 1 >= grid_density:
                    continue
                step = float(axes[axis][idx[axis] + 1] - axes[axis][idx[axis]])
                if step <= 0.0:
                    continue
                neighbor = tuple(
                    i + 1 if d == axis else i for d, i in enumerate(idx)
                )
                other = hess_cache[neighbor]
                for key, h in here.items():
                    if key in other:
                        diff = np.linalg.norm(other[key] - h, 2)
                        w_max = max(w_max, float(diff / step))

    return RegularityConstants(
        G=g_max, L=l_max, U=u_max, W=w_max, domain_box=box, grid_spacing=spacing
    )
