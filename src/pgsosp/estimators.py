"""Monte-Carlo estimators, reduced over blocks of trajectories.

The gradient estimator is the full-return score-function form

    g(tau) = (sum_t d log pi(a_t|s_t)) * R(tau),

unbiased for the truncated objective.  The Hessian estimator combines the
reward-to-go weighted score potential

    Phi(tau) = sum_t w_t * log pi(a_t|s_t),   w_t = sum_{i>=t} gamma^i r_{i+1},

with the trajectory score: H(tau) = dPhi (dlog p)^T + d^2 Phi, where
d log p(tau) keeps only the policy terms (transitions do not depend on
theta).  Its expectation is the exact Hessian of the truncated objective;
single samples are asymmetric, so eigenanalysis always consumes the
symmetrized mean while unbiasedness checks use the raw mean.

_pg_rows gives g(tau) for every row of an (m, h) trajectory block and
_hessian_sum a weighted sum of H(tau) over one.  Batch means (weights 1/n
over rollout_batch rows), exact expectations (p(tau) over enumeration
chunks, pgsosp.oracle) and single-trajectory updates (pgsosp.trainer) all
go through them.  Both gather score rows ceil(m / h) trajectories at a
time into (m, p) buffers, so their memory is O(m p), not O(m h p).  The
tests keep one-trajectory definitions of g(tau) and H(tau), and the
whole-gather forms of both reducers, in tests/trajectory_reference.py and
compare the reducers with them.

Tying every Phi term to the final step's log-probability instead gives a
biased estimator; the tests build that form to show it fails the
enumeration identities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mdp as mdp_mod
from .mdp import TabularMdp, occupancy
from .util import frozen_array


@dataclass(frozen=True)
class GradEstimate:
    """Batch mean of g(tau) and its per-coordinate standard error."""

    mean: np.ndarray
    std_error: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", frozen_array(self.mean))
        object.__setattr__(self, "std_error", frozen_array(self.std_error))


@dataclass(frozen=True)
class HessianEstimate:
    """Batch mean of H(tau), raw and symmetrized."""

    raw_mean: np.ndarray
    symmetrized: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "raw_mean", frozen_array(self.raw_mean))
        object.__setattr__(self, "symmetrized", frozen_array(self.symmetrized))


def _pg_rows(mdp: TabularMdp, scores: np.ndarray, states: np.ndarray,
             actions: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """(m, p) rows g(tau_i) of an on-policy (m, h) block, given family.score.

    Each row equals the one-trajectory g(tau) of the tests' reference bit
    for bit.
    """
    returns = (mdp._discounts * rewards).sum(axis=1)
    log_p = np.empty((len(states), scores.shape[-1]))
    for rows in _row_blocks(states):
        scores[states[rows], actions[rows]].sum(axis=1, out=log_p[rows])
    return log_p * returns[:, None]


def _row_blocks(states: np.ndarray) -> list[slice]:
    """Slices of ceil(m / h) rows each over the m rows of an (m, h) block.

    The (rows, h, p) score gather of one slice has about as many entries
    as an (m, p) result, so the reducers never build the whole (m, h, p)
    gather.  Each row is reduced by the same numpy call as in the whole
    gather, so every row keeps its bits.
    """
    m, h = states.shape
    size = max(1, -(-m // h))
    return [slice(start, start + size) for start in range(0, m, size)]


def _hessian_sum(mdp: TabularMdp, scores: np.ndarray, hessians: np.ndarray,
                 states: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * H(tau_i) (raw) over an on-policy (m, h) block.

    dPhi and d log p fill (m, p) buffers one _row_blocks slice at a time,
    and the d^2 Phi term goes through an (S, A) table of summed
    reward-to-go weights, so neither an (m, h, p) nor an (m, h, p, p)
    gather is built.  The sum matches the tests' one-trajectory H(tau) up
    to rounding, not bit for bit.
    """
    n_s, n_a, p = scores.shape
    w = (mdp._discounts * rewards)[:, ::-1].cumsum(axis=1)[:, ::-1]
    grad_phi = np.empty((len(states), p))
    log_p = np.empty_like(grad_phi)
    for rows in _row_blocks(states):
        gathered = scores[states[rows], actions[rows]]
        np.einsum("mh,mhp->mp", w[rows], gathered, out=grad_phi[rows])
        gathered.sum(axis=1, out=log_p[rows])
    total = (weights[:, None] * grad_phi).T @ log_p
    pair_weights = np.bincount((states * n_a + actions).ravel(),
                               weights=(weights[:, None] * w).ravel(),
                               minlength=n_s * n_a)
    return total + np.tensordot(pair_weights, hessians.reshape(n_s * n_a, p, p),
                                axes=1)


def pg_sample_block(mdp: TabularMdp, family, theta: np.ndarray, n: int,
                    seed: int) -> np.ndarray:
    """(n, p) array of g(tau_i) over the rows of rollout_batch(..., n, seed).

    Row i is the _pg_rows row of trajectory i; the tests pin it bit for bit
    to the one-trajectory reference.
    """
    states, actions, rewards = mdp_mod.rollout_batch(mdp, family, theta, n, seed)
    return _pg_rows(mdp, family.score(theta), states, actions, rewards)


def batch_gradient(mdp: TabularMdp, family, theta: np.ndarray, n: int,
                   seed: int) -> GradEstimate:
    """Mean of g(tau) over the n rows of rollout_batch(..., n, seed)."""
    samples = pg_sample_block(mdp, family, theta, n, seed)
    return GradEstimate(mean=samples.sum(axis=0) / n, std_error=_std_error(samples))


def _std_error(samples: np.ndarray) -> np.ndarray:
    """Standard error of the mean of the rows of samples (at least two)."""
    return samples.std(axis=0, ddof=1) / math.sqrt(len(samples))


def batch_hessian(mdp: TabularMdp, family, theta: np.ndarray, n: int,
                  seed: int) -> HessianEstimate:
    """Mean of H(tau) over the n rows of rollout_batch(..., n, seed).

    The sum over the rollout_batch rows is _hessian_sum with unit weights,
    the reduction exact_hessian applies with enumeration probabilities.
    """
    states, actions, rewards = mdp_mod.rollout_batch(mdp, family, theta, n, seed)
    total = _hessian_sum(mdp, family.score(theta), family.hess(theta),
                         states, actions, rewards, np.ones(n))
    raw = total / n
    return HessianEstimate(raw_mean=raw, symmetrized=(raw + raw.T) / 2.0)


@dataclass(frozen=True)
class FisherReport:
    matrix: np.ndarray
    lambda_min: float


def fisher_matrix(mdp: TabularMdp, family, theta: np.ndarray) -> FisherReport:
    """Exact Fisher information at truncation h.

    F = sum_s d(s) sum_a pi(a|s) (d log pi)(d log pi)^T with the truncated
    unnormalized visitation d.  Positive semidefinite by construction; the
    reported lambda_min is the empirical check on the positivity floor
    (tabular softmax families are singular along logit shifts, so zero is
    common).
    """
    scores = family.score(theta)
    f = np.einsum("s,sa,sap,saq->pq", occupancy(mdp, family, theta),
                  family.probs(theta), scores, scores)
    f = (f + f.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(f)[0])
    return FisherReport(matrix=f, lambda_min=lam_min)
