"""Monte-Carlo estimators built from single trajectories.

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

Batch means and exact expectations (pgsosp.oracle) share the array
reductions over (m, h) trajectory blocks, with row weights 1/n or p(tau);
pg_estimate and hessian_estimate are the per-trajectory references.

Tying every Phi term to the final step's log-probability instead gives a
biased estimator; the tests build that form to show it fails the
enumeration identities.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import mdp as mdp_mod
from .errors import ConfigError
from .mdp import TabularMdp, Trajectory, discounted_return, occupancy
from .policy import _require_on_policy
from .util import frozen_array


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


@dataclass(frozen=True)
class GradEstimate:
    """Batch mean of pg_estimate with dispersion diagnostics."""

    mean: np.ndarray
    per_sample_norm_max: float
    n: int
    std_error: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", frozen_array(self.mean))
        object.__setattr__(self, "std_error", frozen_array(self.std_error))
        if self.n < 1 or (self.std_error < 0).any():
            raise ConfigError("GradEstimate requires n >= 1, std_error >= 0")

    def to_json(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "per_sample_norm_max": self.per_sample_norm_max,
            "n": self.n,
            "std_error": self.std_error.tolist(),
        }


@dataclass(frozen=True)
class HessianEstimate:
    """Batch mean of hessian_estimate, raw and symmetrized."""

    raw_mean: np.ndarray
    symmetrized: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "raw_mean", frozen_array(self.raw_mean))
        object.__setattr__(self, "symmetrized", frozen_array(self.symmetrized))


def _pg_rows(mdp: TabularMdp, scores: np.ndarray, states: np.ndarray,
             actions: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """(m, p) pg_estimate rows of an on-policy (m, h) block, given family.score."""
    gammas = mdp.gamma ** np.arange(mdp.horizon)
    returns = (gammas * rewards).sum(axis=1)
    return scores[states, actions].sum(axis=1) * returns[:, None]


def _hessian_sum(mdp: TabularMdp, scores: np.ndarray, hessians: np.ndarray,
                 states: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * hessian_estimate(tau_i) (raw) over an (m, h) block.

    The d^2 Phi term goes through an (S, A) table of summed reward-to-go
    weights, so no (m, h, p, p) gather is built.
    """
    n_s, n_a, p = scores.shape
    gammas = mdp.gamma ** np.arange(mdp.horizon)
    w = (gammas * rewards)[:, ::-1].cumsum(axis=1)[:, ::-1]
    rows = scores[states, actions]                          # (m, h, p)
    grad_phi = np.einsum("mh,mhp->mp", w, rows)
    total = (weights[:, None] * grad_phi).T @ rows.sum(axis=1)
    pair_weights = np.bincount((states * n_a + actions).ravel(),
                               weights=(weights[:, None] * w).ravel(),
                               minlength=n_s * n_a)
    return total + np.tensordot(pair_weights, hessians.reshape(n_s * n_a, p, p),
                                axes=1)


def pg_sample_block(mdp: TabularMdp, family, theta: np.ndarray, n: int,
                    seed: int) -> np.ndarray:
    """(n, p) array of pg_estimate samples via the batch rollout.

    Row i is bit-identical to pg_estimate on row i of rollout_batch.
    """
    states, actions, rewards = mdp_mod.rollout_batch(mdp, family, theta, n, seed)
    return _pg_rows(mdp, family.score(theta), states, actions, rewards)


def batch_gradient(mdp: TabularMdp, family, theta: np.ndarray, n: int,
                   seed: int, center: np.ndarray | None = None,
                   sigma_bound: float | None = None) -> GradEstimate:
    """Mean of pg_estimate over n trajectories with derived seeds.

    per_sample_norm_max records max_i ||g_i - center||_2; the center
    defaults to the batch mean and callers with an exact gradient pass it
    to check the deviation bound directly.  When sigma_bound is given, an
    exceedance is a warning rather than an error: grid-estimated score
    bounds are lower bounds on the true suprema, so the derived deviation
    bound can undershoot.
    """
    samples = pg_sample_block(mdp, family, theta, n, seed)
    mean = samples.sum(axis=0) / n
    ref = mean if center is None else np.asarray(center, dtype=float)
    norm_max = float(np.linalg.norm(samples - ref, axis=1).max())
    if sigma_bound is not None and norm_max > sigma_bound + 1e-9:
        warnings.warn(
            f"per-sample deviation {norm_max:.6g} exceeds the configured "
            f"bound {sigma_bound:.6g}", stacklevel=2,
        )
    if n > 1:
        std_error = samples.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        std_error = np.zeros_like(mean)
    return GradEstimate(mean=mean, per_sample_norm_max=norm_max, n=n,
                        std_error=std_error)


def batch_hessian(mdp: TabularMdp, family, theta: np.ndarray, n: int,
                  seed: int) -> HessianEstimate:
    """Mean of hessian_estimate over n trajectories with derived seeds.

    The sum over the rollout_batch rows is _hessian_sum with unit weights,
    the reduction exact_hessian applies with enumeration probabilities.
    """
    states, actions, rewards = mdp_mod.rollout_batch(mdp, family, theta, n, seed)
    total = _hessian_sum(mdp, family.score(theta), family.hess(theta),
                         states, actions, rewards, np.ones(n))
    raw = total / n
    return HessianEstimate(raw_mean=raw, symmetrized=(raw + raw.T) / 2.0, n=n)


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
