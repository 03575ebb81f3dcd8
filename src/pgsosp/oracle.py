"""Exact reference quantities for small problems.

Three independent routes are maintained deliberately:

* dynamic programming (always available): objective and gradient from
  finite-horizon backward induction, with the gradient in the exact
  time-indexed visitation form over mdp._visitation's rows;
* trajectory enumeration (small problems only): probability-weighted sums
  over every length-h trajectory, which realize the score-function forms
  of the gradient and Hessian as literal finite sums.  The tree is grown
  level by level in array blocks of at most _ENUM_CHUNK nodes, depth
  first, and yielded one trajectory at a time; _enumeration_sum walks it
  once per call, reducing chunks of _ENUM_CHUNK trajectories with the
  Monte-Carlo batch routines and p(tau) in place of 1/n;
* central finite differences, used as the cross-check on both.

The enumeration cap keeps every oracle call interactive; beyond it only
the DP objective/gradient are offered and Hessians fall back to finite
differences of the DP gradient.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import EnumerationCapError, OracleConsistencyError
from .estimators import _hessian_sum, _pg_rows
from .mdp import TabularMdp, _visitation, value_stack, value_functions
from .policy import _BOX_HESSIAN, _INV_SQRT_2PI
from .util import frozen_array

ENUM_CAP = 1_000_000
_ENUM_CHUNK = 1024  # nodes per tree block and trajectories per reduced chunk


# ---------------------------------------------------------------------------
# Trajectory enumeration
# ---------------------------------------------------------------------------

def enumeration_size_bound(mdp: TabularMdp) -> float:
    """Upper bound on the number of length-h trajectories.

    The final transition is marginalized out (it affects neither rewards
    nor scores), so the last step contributes only an action factor.
    """
    branching = int((mdp.transition > 0).sum(axis=2).max())
    support0 = int((mdp.rho0 > 0).sum())
    return support0 * mdp.n_actions * (mdp.n_actions * branching) ** (mdp.horizon - 1)


def is_enumerable(mdp: TabularMdp) -> bool:
    return enumeration_size_bound(mdp) <= ENUM_CAP


def enumerate_trajectories(
    mdp: TabularMdp, family, theta: np.ndarray
) -> Iterator[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (probability, states, actions, rewards) over all trajectories.

    Probabilities are rho0(s0) * prod pi(a_t|s_t) * prod P(s_{t+1}|s_t,a_t),
    multiplied left to right, with the final transition marginalized out;
    they sum to 1 up to rounding.  Zero-probability branches are pruned, so
    every yielded trajectory is on-policy.  Trajectories come in depth-first
    order, lexicographic in (s_0, a_0, s_1, a_1, ...).

    The tree grows a level at a time in array blocks of at most _ENUM_CHUNK
    nodes, and each block's subtree is finished before the next block
    starts, so memory is bounded by the horizon, A * branching and
    _ENUM_CHUNK, not by the size of the tree.  The yielded arrays are rows
    of the leaf blocks.
    """
    if not is_enumerable(mdp):
        raise EnumerationCapError(
            f"enumeration bound {enumeration_size_bound(mdp):.3g} exceeds cap {ENUM_CAP}"
        )
    theta = np.asarray(theta, dtype=float)
    pi = family.probs(theta)
    last = mdp.horizon - 1

    def leaf_blocks(prob, states, actions):
        """Leaf blocks (probabilities, states, actions), depth first, below
        m <= _ENUM_CHUNK nodes at depth t given as probabilities (m,),
        states (m, t + 1) and actions (m, t)."""
        branch = prob[:, None] * pi[states[:, -1]]                 # (m, A)
        if actions.shape[1] == last:
            node, a = np.nonzero(branch > 0.0)
            yield (branch[node, a], states[node],
                   np.concatenate((actions[node], a[:, None]), axis=1))
            return
        branch = branch[:, :, None] * mdp.transition[states[:, -1]]  # (m, A, S)
        node, a, s_next = np.nonzero(branch > 0.0)
        prob = branch[node, a, s_next]
        del branch  # not held while the subtrees are walked
        for k in _blocks(node.size):
            yield from leaf_blocks(
                prob[k], np.concatenate((states[node[k]], s_next[k, None]), axis=1),
                np.concatenate((actions[node[k]], a[k, None]), axis=1))

    first = np.flatnonzero(mdp.rho0 > 0.0)
    for k in _blocks(first.size):
        s0 = first[k]
        for prob, states, actions in leaf_blocks(
                mdp.rho0[s0], s0[:, None], np.empty((s0.size, 0), dtype=np.int64)):
            yield from zip(prob, states, actions, mdp.reward[states, actions])


def _blocks(n: int):
    """Slices of range(n), _ENUM_CHUNK long."""
    return (slice(lo, lo + _ENUM_CHUNK) for lo in range(0, n, _ENUM_CHUNK))


def _enumeration_sum(mdp: TabularMdp, family, theta: np.ndarray, term):
    """Sum over the enumeration of term(scores, states, actions, rewards,
    probs): scores is family.score(theta), the rest one chunk's (m, h) arrays
    and (m,) probabilities, m <= _ENUM_CHUNK; from 0.0, chunk after chunk."""
    theta = np.asarray(theta, dtype=float)
    scores = family.score(theta)
    items = enumerate_trajectories(mdp, family, theta)
    total = 0.0
    while chunk := list(itertools.islice(items, _ENUM_CHUNK)):
        probs, states, actions, rewards = zip(*chunk)
        total = total + term(scores, np.array(states), np.array(actions),
                             np.array(rewards), np.array(probs))
    return total


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def exact_objective(mdp: TabularMdp, family, theta: np.ndarray) -> float:
    """J = E_rho0[V_0] from backward induction (h-truncated)."""
    v, _, _ = value_functions(mdp, family, theta)
    return float(mdp.rho0 @ v)


# ---------------------------------------------------------------------------
# Gradient (two routes)
# ---------------------------------------------------------------------------

def _gradient_visitation(mdp: TabularMdp, family, theta: np.ndarray) -> np.ndarray:
    """Time-indexed policy-gradient-theorem form.

    grad J = sum_t sum_s gamma^t P_t(s) sum_a Q_t(s,a) * d pi(a|s), where
    Q_t comes from the same backward induction as the objective.  With
    time-indexed weights the identity with the score-function route is
    exact at truncation h, not merely up to tail terms.
    """
    theta = np.asarray(theta, dtype=float)
    _, q = value_stack(mdp, family, theta)
    grad_pi = family.dprobs(theta)
    grad = np.zeros(family.param_dim)
    for t, w in enumerate(_visitation(mdp, family.probs(theta))):
        grad += np.einsum("s,sa,sap->p", w, q[t], grad_pi)
    return grad


def _gradient_enumeration(mdp: TabularMdp, family, theta: np.ndarray) -> np.ndarray:
    """Score-function route: sum_tau p(tau) (sum_t dlog pi) R(tau)."""
    return _enumeration_sum(
        mdp, family, theta,
        lambda scores, states, actions, rewards, probs:
            probs @ _pg_rows(mdp, scores, states, actions, rewards))


def exact_gradient(mdp: TabularMdp, family, theta: np.ndarray) -> np.ndarray:
    """Exact gradient by the DP route; on an enumerable MDP it is checked
    against enumeration, raising OracleConsistencyError beyond _route_gap's
    tolerance."""
    grad = _gradient_visitation(mdp, family, theta)
    if is_enumerable(mdp):
        gap, tol = _route_gap(_gradient_enumeration(mdp, family, theta), grad)
        if gap > tol:
            raise OracleConsistencyError(f"gradient routes disagree: |enum - dp| = "
                                         f"{gap:.3e} (tolerance {tol:.3e})")
    return grad


def _route_gap(enumeration: np.ndarray, visitation: np.ndarray) -> tuple[float, float]:
    """|enumeration - visitation| and its tolerance, 1e-8 relative to the
    gradient scale max(1, |visitation|)."""
    return (float(np.linalg.norm(enumeration - visitation)),
            1e-8 * max(1.0, float(np.linalg.norm(visitation))))


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def exact_hessian(mdp: TabularMdp, family, theta: np.ndarray) -> np.ndarray:
    """Exact Hessian of the truncated objective, symmetrized.

    When the MDP is enumerable this is E_tau[H(tau)] of the single-trajectory
    Hessian estimator: _hessian_sum, the batch_hessian reduction, weighted by
    the enumeration probabilities; otherwise central finite differences of
    the DP gradient.
    """
    theta = np.asarray(theta, dtype=float)
    if is_enumerable(mdp):
        hessians = family.hess(theta)
        total = _enumeration_sum(
            mdp, family, theta,
            lambda scores, *chunk: _hessian_sum(mdp, scores, hessians, *chunk))
        return (total + total.T) / 2.0
    grad = lambda th: _gradient_visitation(mdp, family, th)
    return fd_hessian_from_gradient(grad, theta)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_gradient(func, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    return _central_differences(func, theta, step)


def fd_hessian_from_gradient(grad_func, theta: np.ndarray,
                             step: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of a gradient function, symmetrized."""
    hess = _central_differences(grad_func, theta, step)
    return (hess + hess.T) / 2.0


def _central_differences(func, theta: np.ndarray, step: float) -> np.ndarray:
    """(func(theta + step e_j) - func(theta - step e_j)) / (2 step) for each
    coordinate j, stacked along a new last axis."""
    theta = np.asarray(theta, dtype=float)
    columns = []
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        columns.append((func(theta + bump) - func(theta - bump)) / (2.0 * step))
    return np.stack(columns, axis=-1)


# ---------------------------------------------------------------------------
# Closed forms for the three-state benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example1Analysis:
    """The Hessian is built when read; the lockstep study needs it only at reports."""

    theta: np.ndarray
    in_box: np.ndarray | bool
    objective: float | np.ndarray
    grad: np.ndarray

    @property
    def hessian(self) -> np.ndarray:
        hess = self.theta[..., :, None] * self.theta[..., None, :] + np.eye(2)
        hess *= self.objective[..., None, None]
        hess[self.in_box] = _BOX_HESSIAN
        return hess


def analytic_example1(theta: np.ndarray) -> Example1Analysis:
    """Closed-form objective, gradient, and Hessian of the benchmark family.

    In the closed unit box: J = (1 - t1^2 + t2^2)/sqrt(2 pi) with constant
    Hessian diag(-2, 2)/sqrt(2 pi).  Outside: J = exp((|t|^2 - 2)/2)/sqrt(2 pi)
    with gradient J * theta and Hessian J * (theta theta^T + I).  theta
    (..., 2) gives objective (...), a float for one point, gradient (..., 2)
    and Hessian (..., 2, 2), with the same bits alone or inside a block.
    """
    theta = frozen_array(theta)
    if theta.ndim == 0 or theta.shape[-1] != 2 or not np.isfinite(theta).all():
        raise ValueError("theta must be finite with a last axis of length 2")
    in_box = ((theta >= 0.0) & (theta <= 1.0)).all(axis=-1)
    sq = theta ** 2
    j_out = _INV_SQRT_2PI * np.exp((sq[..., 0] + sq[..., 1] - 2.0) / 2.0)
    j = np.where(in_box, _INV_SQRT_2PI * (1.0 - sq[..., 0] + sq[..., 1]), j_out)
    grad = np.where(in_box[..., None], theta * _BOX_HESSIAN.diagonal(),  # H theta
                    j_out[..., None] * theta)
    return Example1Analysis(theta=theta, in_box=in_box, objective=j[()], grad=grad)
