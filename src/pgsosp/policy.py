"""Differentiable policy families over finite state/action spaces.

A family answers whole tables at one parameter point theta (p,), with
p = param_dim, or at every point of a block theta (..., p):

``probs(theta)``   (..., S, A)        pi(a|s)
``dprobs(theta)``  (..., S, A, p)     d pi(a|s) / d theta
``score(theta)``   (..., S, A, p)     d log pi(a|s)
``hess(theta)``    (..., S, A, p, p)  d^2 log pi(a|s)

A block's rows have the same bits as the tables at each point alone.
``in_domain(theta)`` says, per point, whether the tables answer there;
a block holding a point outside raises as that point does.  ``score``
and ``hess`` are zero wherever pi(a|s) = 0, so consumers read them at
on-policy (sampled or enumerated) pairs or weighted by pi.  Each closed
form is written once, in its table method (for ExampleOnePiecewise, in
``_start``, which picks the branch at each point).  The per-query methods
``action_probs(theta, s)``, ``grad_prob(theta, s)``,
``grad_log_prob(theta, s, a)`` and ``hessian_log_prob(theta, s, a)`` are
shared by both families: they slice the tables, and the two log-policy
queries raise PolicyDomainError for a zero-probability action.

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

All methods are pure functions of their arguments.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, PolicyDomainError
from .util import frozen_array

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Action layout of the three-state benchmark.
RIGHT, LEFT, UP = 0, 1, 2
# Its policy table with the start state's row left zero: the absorbing
# states play `right` and `left`.
_ABSORBING_ROWS = frozen_array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
# The constant Hessian of pi(right|s0) in the unit box; its gradient there is H theta.
_BOX_HESSIAN = frozen_array(_INV_SQRT_2PI * np.diag([-2.0, 2.0]))


def _require_on_policy(probs: np.ndarray, states, actions) -> None:
    """Raise at the first (state, action) pair that probs gives no mass."""
    if (probs[states, actions] > 0.0).all():
        return
    for s, a in zip(np.ravel(states), np.ravel(actions)):
        if probs[s, a] <= 0.0:
            raise PolicyDomainError(f"zero-probability action {a} in state {s}")


def _action_probs(self, theta: np.ndarray, state: int) -> np.ndarray:
    return self.probs(theta)[state]


def _grad_prob(self, theta: np.ndarray, state: int) -> np.ndarray:
    """d pi(a|s) / d theta for every action: shape (n_actions, p)."""
    return self.dprobs(theta)[state]


def _grad_log_prob(self, theta: np.ndarray, state: int, action: int) -> np.ndarray:
    _require_on_policy(self.probs(theta), state, action)
    return self.score(theta)[state, action]


def _hessian_log_prob(self, theta: np.ndarray, state: int,
                      action: int) -> np.ndarray:
    _require_on_policy(self.probs(theta), state, action)
    return self.hess(theta)[state, action]


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

    def in_domain(self, theta: np.ndarray) -> np.ndarray:
        """Every logit vector is in the domain."""
        return np.ones(np.shape(theta)[:-1], dtype=bool)

    def probs(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        logits = theta.reshape(theta.shape[:-1] + (self.n_states, self.n_actions))
        # The ufunc reductions that ndarray.max/sum call, without their
        # Python-level wrapper.
        e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
        return e / np.add.reduce(e, axis=-1, keepdims=True)

    def dprobs(self, theta: np.ndarray) -> np.ndarray:
        pi = self.probs(theta)
        return self._on_own_block(
            pi[..., :, None] * (np.eye(self.n_actions) - pi[..., None, :]))

    def score(self, theta: np.ndarray) -> np.ndarray:
        pi = self.probs(theta)
        rows = pi[..., None, :]
        blocks = np.where(np.eye(self.n_actions, dtype=bool), 1.0 - rows, -rows)
        blocks[pi <= 0.0] = 0.0
        return self._on_own_block(blocks)

    def hess(self, theta: np.ndarray) -> np.ndarray:
        pi = self.probs(theta)
        n_s, n_a, lead = self.n_states, self.n_actions, pi.shape[:-2]
        rows = pi[..., None, :]
        block = pi[..., :, None] * rows - np.eye(n_a) * rows     # (..., S, A, A)
        out = np.zeros(lead + (n_s, n_a) * 3)
        np.einsum("...iaibic->...iabc", out)[...] = block[..., :, None, :, :]
        out[pi <= 0.0] = 0.0
        return out.reshape(lead + (n_s, n_a, self.param_dim, self.param_dim))

    def _on_own_block(self, blocks: np.ndarray) -> np.ndarray:
        """(..., S, A, A) blocks -> (..., S, A, p): row (s, a) is
        blocks[..., s, a] on state s's logits and zero elsewhere."""
        n_s, n_a, lead = self.n_states, self.n_actions, blocks.shape[:-3]
        out = np.zeros(lead + (n_s, n_a, n_s, n_a))
        np.einsum("...iaib->...iab", out)[...] = blocks   # a writeable view
        return out.reshape(lead + (n_s, n_a, self.param_dim))

    action_probs, grad_prob = _action_probs, _grad_prob
    grad_log_prob, hessian_log_prob = _grad_log_prob, _hessian_log_prob


def _is_probability(p: float) -> bool:
    """Whether p lies in [0, 1], exactly when 1 - p does; NaN passes."""
    return not (p < 0.0 or p > 1.0)


def _pointwise(shape: tuple, dtype=float):
    """A one-point table method that answers a (..., p) block as (...) + shape."""
    def wrap(table):
        @functools.wraps(table)
        def answer(self, theta):
            theta = np.asarray(theta, dtype=float)
            if theta.ndim <= 1:
                return table(self, theta)
            theta = np.ascontiguousarray(theta)
            out = np.empty(theta.shape[:-1] + shape, dtype=dtype)
            for idx in np.ndindex(theta.shape[:-1]):
                out[idx] = table(self, theta[idx])
            return out
        return answer
    return wrap


class ExampleOnePiecewise:
    """Two-parameter piecewise family on the three-state benchmark MDP.

    The start state s0 exposes actions (right, left, up) = (0, 1, 2); the
    absorbing states s1, s2 play ``right`` and ``left`` with probability 1
    and contribute zero score.  Derivatives on the boundary of the unit
    box use the in-box branch (closed-set convention).  ``probs``, ``score``
    and ``hess`` raise PolicyDomainError for every state when the start
    state's probabilities leave [0, 1].

    The closed forms are scalar (``math.exp``, ``theta @ theta``) and a
    (..., 2) block is answered point by point: their elementwise numpy
    counterparts round differently, so a point has the same bits alone
    or inside a block.
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

    def _start(self, theta: np.ndarray, strict: bool = True, grad: bool = True):
        """(action, p, dp) at one point: the start state's free action
        (`right` in the closed unit box, `left` outside), its probability p
        and its gradient dp (None without grad); `up` plays 1 - p and -dp.
        Where p leaves [0, 1], strict raises PolicyDomainError before dp."""
        if self.in_box(theta):
            action, slope = RIGHT, _BOX_HESSIAN.diagonal()  # dp = H theta
            p = _INV_SQRT_2PI * (1.0 - theta[0] ** 2 + theta[1] ** 2)
        else:
            action = LEFT
            p = slope = _INV_SQRT_2PI * math.exp(-(2.0 - float(theta @ theta)) / 2.0)
        if strict and not _is_probability(p):
            raise PolicyDomainError(f"action probabilities leave [0, 1] at "
                                    f"theta={theta.tolist()}")
        return action, p, slope * theta if grad else None

    @_pointwise((), bool)
    def in_domain(self, theta: np.ndarray) -> bool | np.ndarray:
        """Whether the tables answer at theta: the start state's
        probabilities stay in [0, 1]."""
        return _is_probability(self._start(theta, strict=False, grad=False)[1])

    @_pointwise((3, 3))
    def probs(self, theta: np.ndarray) -> np.ndarray:
        action, p, _ = self._start(theta, grad=False)
        out = _ABSORBING_ROWS.copy()
        out[0, action] = p
        out[0, UP] = 1.0 - p
        return out

    @_pointwise((3, 3, 2))
    def dprobs(self, theta: np.ndarray) -> np.ndarray:
        action, _, dp = self._start(theta, strict=False)
        out = np.zeros((3, 3, 2))
        out[0, action] = dp
        out[0, UP] = -dp
        return out

    @_pointwise((3, 3, 2))
    def score(self, theta: np.ndarray) -> np.ndarray:
        action, p, dp = self._start(theta)
        out = np.zeros((3, 3, 2))
        for a, q, dq in ((action, p, dp), (UP, 1.0 - p, -dp)):
            if q > 0.0:
                out[0, a] = dq / q
        return out

    @_pointwise((3, 3, 2, 2))
    def hess(self, theta: np.ndarray) -> np.ndarray:
        # d^2 log q = (d^2 q)/q - (d log q)(d log q)^T
        action, p, dp = self._start(theta)
        d2p = _BOX_HESSIAN if action == RIGHT \
            else p * (np.outer(theta, theta) + np.eye(2))
        out = np.zeros((3, 3, 2, 2))
        for a, q, dq, d2q in ((action, p, dp, d2p), (UP, 1.0 - p, -dp, -d2p)):
            if q > 0.0:
                dlog = dq / q
                out[0, a] = d2q / q - dlog[:, None] * dlog[None, :]
        return out

    def check_mdp(self, mdp) -> None:
        """Reject MDPs that do not match the three-state benchmark layout."""
        if (mdp.n_states, mdp.n_actions) != (3, 3):
            raise ConfigError(
                "example_one policy requires the 3-state/3-action benchmark MDP"
            )
        if not np.array_equal(np.asarray(mdp.transition), EXAMPLE_ONE_TRANSITION):
            raise ConfigError("example_one policy: MDP transition table differs "
                              "from the three-state benchmark")
        if not np.array_equal(np.asarray(mdp.reward), EXAMPLE_ONE_REWARD):
            raise ConfigError("example_one policy: MDP reward table differs "
                              "from the three-state benchmark")

    action_probs, grad_prob = _action_probs, _grad_prob
    grad_log_prob, hessian_log_prob = _grad_log_prob, _hessian_log_prob


def _example_one_layout() -> tuple[np.ndarray, np.ndarray]:
    """Read-only transition/reward tables of the figure's three-state MDP."""
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
    return frozen_array(transition), frozen_array(reward)


EXAMPLE_ONE_TRANSITION, EXAMPLE_ONE_REWARD = _example_one_layout()


FAMILY_TAGS = ("tabular_softmax", "example_one")


def make_family(tag: str, n_states: int = None, n_actions: int = None):
    """The family of a config tag in FAMILY_TAGS; example_one has a fixed
    layout and takes no n_states or n_actions."""
    if tag == "tabular_softmax":
        return TabularSoftmax(n_states, n_actions)
    return ExampleOnePiecewise()


@dataclass(frozen=True)
class RegularityConstants:
    """Grid maxima of the policy's derivative magnitudes.

    G bounds |d_i log pi|, L bounds |d2_ij log pi|, U bounds |d_i pi|;
    W is a difference-quotient estimate of the Lipschitz constant of the
    log-policy Hessian (None when supplied without W).  All values are maxima
    over a finite grid, i.e. lower bounds on the true suprema.
    """

    G: float
    L: float
    U: float
    W: float | None


GRID_ENTRY_CAP = 10_000_000  # grid points x table entries: 80 MB of float64


def estimate_regularity(
    family,
    domain_box: Sequence[Sequence[float]],
    grid_density: int,
) -> RegularityConstants:
    """Component-wise derivative maxima over a grid x all (state, action).

    Score/Hessian magnitudes are taken over actions with positive
    probability only; |d_i pi| is defined for every action.  W compares
    log-policy Hessians at axis-adjacent grid points.

    The family answers each table once, for the block of grid points in
    its domain (``family.in_domain``); a point outside keeps all-zero
    tables, which add nothing to any maximum.  The grid holds
    grid_density ** p points of S * A * (p + 1) ** 2 table entries each;
    more than GRID_ENTRY_CAP entries in all are rejected before anything
    is allocated.  lo <= hi on each axis and grid_density >= 2 are the
    ranges of the config's box and plural kinds, checked at load.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in domain_box)
    if len(box) != family.param_dim:
        raise ConfigError(f"estimate.box: has {len(box)} axes, the family needs "
                          f"{family.param_dim}")
    n_s, n_a, p = family.n_states, family.n_actions, family.param_dim
    n_points = grid_density ** p
    if n_points * n_s * n_a * (p + 1) ** 2 > GRID_ENTRY_CAP:
        raise ConfigError(
            f"estimate.grid: {grid_density} points per axis give {n_points} "
            f"grid points of {n_s * n_a * (p + 1) ** 2} table entries each, "
            f"more than the cap of {GRID_ENTRY_CAP} entries"
        )
    axes = [np.linspace(lo, hi, grid_density) for lo, hi in box]

    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)   # grid + (p,)
    inside = family.in_domain(points)
    answered = points[inside]

    def on_grid(table):
        values = table(answered)
        full = np.zeros(inside.shape + values.shape[1:])
        full[inside] = values
        return full

    probs, dprobs, scores, hessians = map(
        on_grid, (family.probs, family.dprobs, family.score, family.hess))

    # Spectral norms of the Hessian change between axis neighbours, at
    # (state, action) pairs with positive probability at both points.
    w_max = 0.0
    on = probs > 0.0
    for axis in range(p):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        diff = hessians[hi] - hessians[lo]
        diff[~(on[lo] & on[hi])] = 0.0
        # An SVD only where the Hessian moved (softmax: at the axis's state).
        moved = diff.any(axis=(-2, -1))
        norms = np.zeros(moved.shape)
        norms[moved] = np.linalg.norm(diff[moved], 2, axis=(-2, -1))
        steps = np.diff(axes[axis]).reshape((-1,) + (1,) * (norms.ndim - axis - 1))
        ratios = np.divide(norms, steps, out=np.zeros_like(norms),
                           where=steps > 0.0)
        w_max = max(w_max, float(ratios.max()))

    return RegularityConstants(
        G=float(np.abs(scores).max()), L=float(np.abs(hessians).max()),
        U=float(np.abs(dprobs).max()), W=w_max)
