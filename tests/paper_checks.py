"""The paper's local claims, checked by code that no command runs.

* ac06: the one-step gain in the large-gradient region L1 clears the
  bound of Prop. 1 (`verify_prop1`);
* ac07: the main iteration stays next to its frozen quadratic model,
  which the saddle-escape argument rests on (`coupled_quadratic_run`,
  on the one-draw pair of `sample_pair`; `CubicSaddleSource` gives it an
  objective that leaves its quadratic model);
* tests/test_sosp.py and tests/test_oracle.py: the closed-form
  curvature-correlation floor iota^2, with c0 summed over the
  enumeration (`cnc_lower_bound`);
* ac09/ac10: REINFORCE chains on example1 reach an
  (eps, sqrt(chi eps))-SOSP (`example1_sosp_study`, which samples and
  classifies through the closed forms of `analytic_example1`).

These routines live with the tests because no `pgsosp` command calls
them, and the library keeps only what a command runs
(tests/test_layout.py checks that).  The bodies are the ones the library
held, so the tests pin the same numbers.  `analytic_example1` is also the
reference for the h = 1 oracles; the library writes example1's closed
forms once, in `policy.ExampleOnePiecewise`.  ROADMAP items 5, 8 and 14
bring the study, Prop. 1 and the curvature floor back as command outputs
built on exact moments; those replace this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pgsosp.errors import ConfigError, PreconditionError
from pgsosp.estimators import _hessian_sum, _pg_rows, _std_error
from pgsosp.mdp import TabularMdp
from pgsosp.oracle import _enumeration_sum, exact_hessian
from pgsosp.policy import _BOX_HESSIAN, _INV_SQRT_2PI
from pgsosp.sosp import sym_eig_max
from pgsosp.trainer import MdpPolicySource, QuadraticSaddleSource
from pgsosp.util import derive_rng, frozen_array


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


# ---------------------------------------------------------------------------
# A saddle objective that leaves its quadratic model
# ---------------------------------------------------------------------------

class CubicSaddleSource(QuadraticSaddleSource):
    """J(t) = 1/2 (t-c)^T H (t-c) - cubic/6 |t-c|^3 with the noise of
    QuadraticSaddleSource, which it is, bit for bit, at cubic = 0.

    A nonzero cubic makes the objective deviate from its own quadratic
    model, which the coupled-run gap test needs (an exactly quadratic
    objective has identically zero gap).  objective and gradient take one
    point or a block of points, and a row has the same bits alone or
    inside a block.
    """

    def __init__(self, eigenvalues=(1.0, -1.0), noise=None, center=None,
                 cubic: float = 0.0):
        super().__init__(eigenvalues, noise, center)
        self.cubic = float(cubic)

    def _value(self, d: np.ndarray):
        value = super()._value(d)
        if self.cubic:
            # Cube an array even for one row: numpy's scalar power rounds
            # differently, and a row must not depend on the block size.
            cubed = np.linalg.norm(d, axis=-1, keepdims=True) ** 3
            value = value - self.cubic / 6.0 * cubed[..., 0]
        return value

    def _slope(self, d: np.ndarray) -> np.ndarray:
        g = super()._slope(d)
        if self.cubic:
            g = g - 0.5 * self.cubic * np.linalg.norm(d, axis=-1, keepdims=True) * d
        return g

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        h = super().hessian(theta)
        d = np.asarray(theta, dtype=float) - self.center
        r = float(np.linalg.norm(d))
        if self.cubic and r > 0:
            h = h - 0.5 * self.cubic * (r * np.eye(self.dim) + np.outer(d, d) / r)
        return h


# ---------------------------------------------------------------------------
# One-draw (gradient, Hessian) pair
# ---------------------------------------------------------------------------

def sample_pair(source, theta, rng):
    """One-draw (gradient sample, Hessian sample).

    An MDP source gives (g(tau), raw H(tau)) of one trajectory through the
    batch reducers.  A synthetic source gives its gradient sample and its
    stored constant h, which is exact only where its cubic term vanishes
    (not hessian(theta)).
    """
    if isinstance(source, MdpPolicySource):
        states, actions, rewards = source._draw(theta, rng)
        scores = source.family.score(theta)
        return (_pg_rows(source.mdp, scores, states, actions, rewards)[0],
                _hessian_sum(source.mdp, scores, source.family.hess(theta),
                             states, actions, rewards, np.ones(1)))
    return source.sample_gradient(theta, rng), np.array(source.h)


# ---------------------------------------------------------------------------
# One-step improvement on the large-gradient region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prop1Result:
    mean_gain: float
    std_error: float
    bound: float
    grad_norm: float
    passes: bool


def verify_prop1(source, theta: np.ndarray, alpha: float, trials: int,
                 seed: int, epsilon: float, ell: float,
                 sigma: float) -> Prop1Result:
    """Empirical one-step gain vs (alpha - ell a^2/2)|grad|^2 - ell a^2 s^2/2.

    Requires the point to be in the large-gradient region (|grad| > eps by
    the oracle) and alpha < min{2 eps^2 / ((eps^2 + sigma^2) ell), 2/ell}.
    The bound is evaluated with the oracle gradient norm and the sampled
    deviation second moment; passes when the empirical mean gain clears
    the bound minus three standard errors.
    """
    theta = np.asarray(theta, dtype=float)
    grad = source.gradient(theta)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm <= epsilon:
        raise PreconditionError(
            f"point is not in the large-gradient region: |grad| = "
            f"{grad_norm:.6g} <= epsilon = {epsilon:.6g}"
        )
    alpha_cap = min(2.0 * epsilon ** 2 / ((epsilon ** 2 + sigma ** 2) * ell),
                    2.0 / ell)
    if not (0.0 < alpha < alpha_cap):
        raise PreconditionError(
            f"alpha must lie in (0, {alpha_cap:.6g}), got {alpha:.6g}"
        )
    j0 = source.objective(theta)
    gains = np.empty(trials)
    dev_sq = 0.0
    for i in range(trials):
        g = source.sample_gradient(theta, derive_rng(seed, i))
        gains[i] = source.objective(theta + alpha * g) - j0
        dev_sq += float(np.linalg.norm(g - grad) ** 2)
    dev_sq /= trials
    mean_gain = float(gains.sum() / trials)
    std_error = float(_std_error(gains))
    bound = (alpha - ell * alpha ** 2 / 2.0) * grad_norm ** 2 \
        - ell * alpha ** 2 * dev_sq / 2.0
    return Prop1Result(mean_gain=mean_gain, std_error=std_error, bound=bound,
                       grad_norm=grad_norm, passes=mean_gain >= bound - 3.0 * std_error)


# ---------------------------------------------------------------------------
# Coupled quadratic-model iteration
# ---------------------------------------------------------------------------

def coupled_quadratic_run(source, theta0: np.ndarray, alpha: float,
                          steps: int, seed: int) -> float:
    """Main iteration vs its frozen quadratic model on a shared draw.

    The stochastic pieces (the step-0 gradient noise xi0 and the one-shot
    Hessian estimate H0_hat) are drawn once and drive both sequences:

        model:  t^_{k+1} = t^_k + alpha (g0 + H0_hat (t^_k - t0))
        main:   t_{k+1}  = t_k + alpha (grad J(t_k)
                                        + (H0_hat - H0)(t^_k - t0) + xi0)

    so the gap comes only from J deviating from its quadratic model (plus
    Hessian-estimate error); on an exactly quadratic objective the two
    recursions coincide and the gap is identically zero.  Only the current
    pair of iterates is kept; the result is the largest gap |t_k - t^_k|.
    """
    theta0 = np.asarray(theta0, dtype=float)
    rng = derive_rng(seed)
    g_sample, h0_hat = sample_pair(source, theta0, rng)
    grad0 = source.gradient(theta0)
    xi0 = g_sample - grad0
    h0 = source.hessian(theta0)
    g0 = grad0 + xi0

    t_main = t_model = theta0
    max_gap = 0.0
    for _ in range(steps):
        xi_hat = (h0_hat - h0) @ (t_model - theta0)
        t_main = t_main + alpha * (source.gradient(t_main) + xi_hat + xi0)
        t_model = t_model + alpha * (g0 + h0_hat @ (t_model - theta0))
        max_gap = max(max_gap, float(np.linalg.norm(t_main - t_model)))
    return max_gap


# ---------------------------------------------------------------------------
# Closed-form curvature-correlation floor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CncLowerBound:
    """Closed-form curvature-correlation floor and its ingredients.

    iota^2 = min{r_min^2 h omega/(1-gamma)^2,
                 r_min^2 h omega/(1-gamma)^2
                 + 2 r_min^2 lambda_p^2 c0 / ((1-gamma)^2 ||H||_op^2)}

    c0 is the expected sum of cross-step score inner products; its sign is
    not determined in general, so it is reported alongside the bound.
    """

    iota_sq: float
    c0: float
    lambda_p: float
    h0_op_norm: float
    omega: float


def cnc_lower_bound(mdp: TabularMdp, family, theta: np.ndarray,
                    omega: float) -> CncLowerBound:
    """Evaluate the closed-form floor with c0 obtained by enumeration.

    c0 = E[sum_{i<j} <s_i, s_j>] over the step scores s_t, computed as
    E[(|sum_t s_t|^2 - sum_t |s_t|^2) / 2].
    """
    if omega <= 0:
        raise ConfigError("cnc_lower_bound: omega must be positive")
    theta = np.asarray(theta, dtype=float)
    hess = exact_hessian(mdp, family, theta)
    lam_p, _ = sym_eig_max(hess)
    op_norm = float(np.abs(np.linalg.eigvalsh(hess)).max())
    c0 = _enumeration_sum(mdp, family, theta, _cross_step_term)
    base = mdp.r_min ** 2 * mdp.horizon * omega / (1.0 - mdp.gamma) ** 2
    if op_norm > 0:
        corrected = base + (
            2.0 * mdp.r_min ** 2 * lam_p ** 2 * c0
            / ((1.0 - mdp.gamma) ** 2 * op_norm ** 2)
        )
    else:
        corrected = base
    return CncLowerBound(iota_sq=min(base, corrected), c0=c0, lambda_p=lam_p,
                         h0_op_norm=op_norm, omega=omega)


def _cross_step_term(scores, states, actions, rewards, probs) -> float:
    """One chunk's share of c0: sum_tau p(tau) sum_{i<j} <s_i, s_j>."""
    rows = scores[states, actions]                          # (m, h, p)
    sum_sq = (rows.sum(axis=1) ** 2).sum(axis=1)
    sq_sum = (rows ** 2).sum(axis=(1, 2))
    return float(probs @ (sum_sq - sq_sum)) / 2.0


# ---------------------------------------------------------------------------
# Multi-seed benchmark study (vectorized across seeds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example1StudyResult:
    l3_fraction: float
    first_l3: np.ndarray
    aborted: int


def _example1_samples(closed: Example1Analysis, uniforms: np.ndarray):
    """(g, valid) for a chain block from its closed forms and action uniforms."""
    j = closed.objective[:, None]
    g = np.divide(closed.grad, j, out=np.zeros_like(closed.grad),
                  where=uniforms[:, None] < j)
    return g, j[:, 0] <= 1.0


def example1_sosp_study(n_seeds: int, theta0: np.ndarray, alpha: float,
                        epsilon: float, chi: float, max_updates: int,
                        seed: int, report_every: int = 50) -> Example1StudyResult:
    """Run n_seeds REINFORCE chains on the benchmark MDP in lockstep.

    Each chain stops at its first L3 iterate (by the closed forms of
    ``analytic_example1``), at max_updates, or, aborted, on leaving the
    family's domain.  One stream draws one uniform per (chain, step).

    At horizon 1 the rewarded action (``right`` in the unit box, ``left``
    outside it) has probability J(theta) and score grad J / J; ``up`` has
    reward 0.  So a chain's single-trajectory sample is grad J / J when its
    uniform is below J and 0 otherwise, and J > 1 means the family has
    left its domain.  The result holds the fraction of chains that reached
    L3, each chain's first L3 step (-1 if none) and the aborted count.
    """
    theta = np.tile(np.asarray(theta0, dtype=float), (n_seeds, 1))
    first_l3 = np.full(n_seeds, -1, dtype=np.int64)
    aborted = np.zeros(n_seeds, dtype=bool)
    rng = derive_rng(seed)
    closed = analytic_example1(theta)

    def classify(step: int):
        active = (first_l3 < 0) & ~aborted
        grad_norm = np.linalg.norm(closed.grad[active], axis=1)
        lam = np.linalg.eigvalsh(closed.hessian[active])[:, -1]
        l3 = (grad_norm <= epsilon) & (lam <= math.sqrt(chi * epsilon))
        first_l3[active] = np.where(l3, step, -1)

    classify(0)
    for step in range(1, max_updates + 1):
        active = (first_l3 < 0) & ~aborted
        if not active.any():
            break
        g, valid = _example1_samples(closed, rng.random(n_seeds))
        aborted |= active & ~valid
        move = active & valid
        theta = np.where(move[:, None], theta + alpha * g, theta)
        closed = analytic_example1(theta)
        if step % report_every == 0 or step == max_updates:
            classify(step)

    return Example1StudyResult(l3_fraction=float((first_l3 >= 0).mean()),
                               first_l3=first_l3, aborted=int(aborted.sum()))
