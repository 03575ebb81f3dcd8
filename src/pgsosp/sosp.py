"""Second-order stationarity diagnostics and closed-form constants.

A point is an (eps, sqrt(chi*eps))-second-order stationary point (for the
maximization problem) when ||grad J|| <= eps and lambda_max(hess J) <=
sqrt(chi * eps).  Parameter space splits into three regions:

    L1: ||grad|| >= eps                        (large gradient)
    L2: ||grad|| <= eps, lambda_max >= sqrt(chi*eps)   (around a saddle)
    L3: ||grad|| <= eps, lambda_max <= sqrt(chi*eps)   (local-optimal)

The published inequalities overlap on the boundaries; the classifier uses
strict > for leaving L1 and L2 so that boundary points land in the "better"
region and the three labels partition every input.

Closed-form constants (G, L, U bound the log-policy derivatives, rewards
live in [r_min, r_max], h is the horizon, p the parameter dimension):

    ell      = r_max * h * (h G^2 + L) / (1 - gamma)         smoothness
    sigma    = G * r_max / (1 - gamma)^2                     estimator deviation
    sigma_H0 = 2 p sqrt(p) h r_max (h G^2 + L) / (1 - gamma) Hessian-estimator
    chi      = r_max G L/(1-gamma)^2 + r_max G^3 (1+gamma)/(1-gamma)^3
               + (r_max G/(1-gamma)) * max{L, gamma G^2/(1-gamma), W/G,
                 L gamma/(1-gamma), (G(1+gamma)+L gamma(1-gamma))/(1-gamma^2)}
"""
from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, PreconditionError
from .estimators import _pg_rows, _std_error, batch_gradient, batch_hessian, \
    pg_sample_block
from .mdp import TabularMdp
from .oracle import _enumeration_sum, exact_gradient, exact_hessian
from .util import frozen_array


class Region(str, enum.Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


# ---------------------------------------------------------------------------
# Symmetric eigenanalysis
# ---------------------------------------------------------------------------

def sym_eig_max(h_matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    The matrix must be symmetric within 1e-8 (it is symmetrized internally
    before factorization).  Sign convention: the first component of the
    eigenvector exceeding 1e-12 in magnitude is made positive.
    """
    h = np.asarray(h_matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ConfigError("sym_eig_max expects a square matrix")
    if not np.all(np.isfinite(h)):
        raise ConfigError("sym_eig_max: non-finite entries")
    if np.abs(h - h.T).max() > 1e-8:
        raise ConfigError("sym_eig_max: matrix is not symmetric within 1e-8")
    h = (h + h.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(h)
    lam = float(eigvals[-1])
    u = eigvecs[:, -1]
    for x in u:
        if abs(x) > 1e-12:
            if x < 0:
                u = -u
            break
    return lam, u


# ---------------------------------------------------------------------------
# Region classification
# ---------------------------------------------------------------------------

def classify_values(grad_norm: float, lambda_max: float, epsilon: float,
                    chi: float) -> Region:
    if epsilon <= 0 or chi <= 0:
        raise ConfigError("classification needs epsilon > 0 and chi > 0")
    if grad_norm > epsilon:
        return Region.L1
    if lambda_max > math.sqrt(chi * epsilon):
        return Region.L2
    return Region.L3


@dataclass(frozen=True)
class SecondOrderReport:
    """Gradient/Hessian snapshot with eigenanalysis and region verdict.

    In estimated mode raw_hessian keeps the unsymmetrized Hessian mean; it
    is not part of to_json, which leaves out the fields that are None.
    """

    grad: np.ndarray
    grad_norm: float
    hessian: np.ndarray
    lambda_max: float
    u_p: np.ndarray
    region: Region
    is_sosp: bool
    epsilon: float
    chi: float
    mode: str = "oracle"
    grad_std_error: np.ndarray | None = None
    n_samples: int | None = None
    raw_hessian: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "grad", frozen_array(self.grad))
        object.__setattr__(self, "hessian", frozen_array(self.hessian))
        object.__setattr__(self, "u_p", frozen_array(self.u_p))
        if self.raw_hessian is not None:
            object.__setattr__(self, "raw_hessian", frozen_array(self.raw_hessian))

    def to_json(self) -> dict:
        out = {key: value for key, value in asdict(self).items()
               if value is not None and key != "raw_hessian"}
        out["region"] = self.region.value
        return out


def report_from_grad_hessian(grad: np.ndarray, hessian: np.ndarray,
                             epsilon: float, chi: float, mode: str = "oracle",
                             grad_std_error=None, n_samples=None) -> SecondOrderReport:
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(grad).all():
        raise ConfigError("report_from_grad_hessian: non-finite gradient")
    grad_norm = float(np.linalg.norm(grad))
    lam, u = sym_eig_max(hessian)
    region = classify_values(grad_norm, lam, epsilon, chi)
    return SecondOrderReport(
        grad=grad,
        grad_norm=grad_norm,
        hessian=(np.asarray(hessian) + np.asarray(hessian).T) / 2.0,
        lambda_max=lam,
        u_p=u,
        region=region,
        is_sosp=(region is Region.L3),
        epsilon=float(epsilon),
        chi=float(chi),
        mode=mode,
        grad_std_error=grad_std_error,
        n_samples=n_samples,
    )


def second_order_report(mdp: TabularMdp, family, theta: np.ndarray,
                        epsilon: float, chi: float, mode: str = "oracle",
                        n: int | None = None,
                        seed: int | None = None) -> SecondOrderReport:
    """Classify a parameter point from oracle or estimated derivatives.

    mode="oracle" uses the exact DP/enumeration pipeline; mode="estimated"
    averages n Monte-Carlo samples (symmetrized Hessian mean) and records
    the gradient standard errors.
    """
    theta = np.asarray(theta, dtype=float)
    if mode == "oracle":
        grad = exact_gradient(mdp, family, theta)
        hess = exact_hessian(mdp, family, theta)
        return report_from_grad_hessian(grad, hess, epsilon, chi, mode="oracle")
    if mode == "estimated":
        if not n or n < 1 or seed is None:
            raise ConfigError("estimated mode needs n >= 1 and a seed")
        g = batch_gradient(mdp, family, theta, n, seed)
        h = batch_hessian(mdp, family, theta, n, seed + 1)
        report = report_from_grad_hessian(
            g.mean, h.symmetrized, epsilon, chi, mode="estimated",
            grad_std_error=g.std_error, n_samples=n,
        )
        return replace(report, raw_hessian=h.raw_mean)
    raise ConfigError(f"unknown report mode {mode!r}")


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaperConstants:
    """All scalar constants used by the step-size and budget formulas."""

    G: float
    L: float
    U: float
    W: float | None
    ell: float
    sigma: float
    chi: float
    chi_derived: bool
    sigma_h0: float
    r_min: float
    r_max: float
    gamma: float
    h: int
    p: int
    omega: float | None = None
    iota: float | None = None


def smoothness_ell(g: float, l: float, r_max: float, gamma: float, h: int) -> float:
    """ell = r_max * h * (h G^2 + L) / (1 - gamma)."""
    _check_gamma(gamma)
    return r_max * h * (h * g * g + l) / (1.0 - gamma)


def deviation_sigma(g: float, r_max: float, gamma: float) -> float:
    """sigma = G * r_max / (1 - gamma)^2."""
    _check_gamma(gamma)
    return g * r_max / (1.0 - gamma) ** 2


def hessian_estimator_sigma(g: float, l: float, r_max: float, gamma: float,
                            h: int, p: int) -> float:
    """sigma_H0 = 2 p sqrt(p) h r_max (h G^2 + L) / (1 - gamma)."""
    _check_gamma(gamma)
    return 2.0 * p * math.sqrt(p) * h * r_max * (h * g * g + l) / (1.0 - gamma)


def hessian_lipschitz_chi(g: float, l: float, w: float, r_max: float,
                          gamma: float) -> float:
    """Hessian-Lipschitz constant from the regularity bounds.

    chi = r_max G L/(1-gamma)^2 + r_max G^3 (1+gamma)/(1-gamma)^3
          + (r_max G/(1-gamma)) * max{L, gamma G^2/(1-gamma), W/G,
            L gamma/(1-gamma), (G(1+gamma) + L gamma(1-gamma))/(1-gamma^2)}
    """
    _check_gamma(gamma)
    if g <= 0.0:
        return 0.0
    one_m = 1.0 - gamma
    terms = (
        l,
        gamma * g * g / one_m,
        w / g,
        l * gamma / one_m,
        (g * (1.0 + gamma) + l * gamma * one_m) / (1.0 - gamma * gamma),
    )
    return (
        r_max * g * l / one_m ** 2
        + r_max * g ** 3 * (1.0 + gamma) / one_m ** 3
        + (r_max * g / one_m) * max(terms)
    )


def paper_constants(regularity, r_min: float, r_max: float, gamma: float,
                    h: int, p: int, chi: float | None = None, omega: float | None = None,
                    iota: float | None = None) -> PaperConstants:
    """Assemble all closed-form constants from the regularity estimates.

    chi is taken as given when supplied; otherwise it is derived from W
    (and flagged), which then must be present in the regularity estimates.
    """
    _check_gamma(gamma)
    if r_max <= 0 or r_min < 0 or h < 1 or p < 1:
        raise ConfigError("paper_constants: need r_max > 0, r_min >= 0, h, p >= 1")
    g, l, u, w = regularity.G, regularity.L, regularity.U, regularity.W
    chi_derived = False
    if chi is None:
        if w is None:
            raise ConfigError("paper_constants: chi missing and no W to derive it")
        chi = hessian_lipschitz_chi(g, l, w, r_max, gamma)
        chi_derived = True
    return PaperConstants(
        G=g, L=l, U=u, W=w,
        ell=smoothness_ell(g, l, r_max, gamma, h),
        sigma=deviation_sigma(g, r_max, gamma),
        chi=float(chi), chi_derived=chi_derived,
        sigma_h0=hessian_estimator_sigma(g, l, r_max, gamma, h, p),
        r_min=float(r_min), r_max=float(r_max), gamma=float(gamma),
        h=int(h), p=int(p),
        omega=omega, iota=iota,
    )


def _check_gamma(gamma: float) -> None:
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must be in (0, 1), got {gamma!r}")


# ---------------------------------------------------------------------------
# Step sizes and budgets
# ---------------------------------------------------------------------------

def theorem_step_size(epsilon: float, chi: float, r_min: float, omega: float,
                      sigma: float, ell: float) -> float:
    """alpha <= min{eps^2 / (2 sqrt(chi eps) r_min^2 omega^2),
                    2 eps^2 / ((eps^2 + sigma^2) ell)}.

    sigma = 0 is allowed (the second branch degenerates to 2 / ell).
    """
    if min(epsilon, chi, r_min, omega, ell) <= 0 or sigma < 0:
        raise ConfigError("theorem_step_size: inputs must be positive "
                          "(sigma may be zero)")
    first = epsilon ** 2 / (2.0 * math.sqrt(chi * epsilon) * r_min ** 2 * omega ** 2)
    second = 2.0 * epsilon ** 2 / ((epsilon ** 2 + sigma ** 2) * ell)
    return min(first, second)


def iteration_budget(alpha: float, r_max: float, gamma: float, iota: float,
                     chi: float, epsilon: float, delta: float) -> int:
    """K = ceil(6 r_max / (alpha^2 (1-gamma) iota^2 sqrt(chi eps)) * ln(1/delta)) + 1."""
    if min(alpha, r_max, iota, chi, epsilon) <= 0:
        raise ConfigError("iteration_budget: inputs must be positive")
    _check_gamma(gamma)
    _check_delta(delta)
    value = (
        6.0 * r_max
        / (alpha ** 2 * (1.0 - gamma) * iota ** 2 * math.sqrt(chi * epsilon))
        * math.log(1.0 / delta)
    )
    return math.ceil(value) + 1


def escape_budget_admissible(alpha: float, sigma_h0: float) -> bool:
    return alpha < min(1.0 / sigma_h0, 1.0 / sigma_h0 ** 2)


def escape_budget(alpha: float, sigma_h0: float, chi: float,
                  epsilon: float) -> int:
    """kappa_hat_0 = floor(ln(1/(1 - sqrt(alpha) sigma_H0)) / ln(1 + alpha sqrt(chi eps))).

    Requires alpha < min{1/sigma_H0, 1/sigma_H0^2} so that the numerator's
    argument stays positive.
    """
    if min(alpha, sigma_h0, chi, epsilon) <= 0:
        raise ConfigError("escape_budget: inputs must be positive")
    if not escape_budget_admissible(alpha, sigma_h0):
        raise PreconditionError(
            f"escape_budget needs alpha < min(1/sigma_H0, 1/sigma_H0^2) = "
            f"{min(1.0 / sigma_h0, 1.0 / sigma_h0 ** 2):.3e}, got {alpha:.3e}"
        )
    numerator = math.log(1.0 / (1.0 - math.sqrt(alpha) * sigma_h0))
    denominator = math.log(1.0 + alpha * math.sqrt(chi * epsilon))
    return math.floor(numerator / denominator)


def trap_budget(alpha: float, delta: float) -> int:
    """kappa_0 = floor((1/alpha^2) ln(1/delta))."""
    if alpha <= 0:
        raise ConfigError("trap_budget: alpha must be positive")
    _check_delta(delta)
    return math.floor(math.log(1.0 / delta) / alpha ** 2)


def prop3_step_size(delta: float, zeta: float, ell: float, varrho: float,
                    sigma: float, grad_bound_sq: float,
                    relaxation: float = 1.0) -> float:
    """Largest alpha <= min{delta, 1/zeta, zeta/ell^2, zeta varrho^2/(3 sigma^2), 1/e}
    with alpha ln(1/alpha) <= relaxation * 2 zeta varrho^4 / (27 (grad_bound_sq
    + zeta varrho^2 + sigma^2)^2), by bisection below the cap (Prop. 3).

    The sigma term is +inf at sigma = 0; the paper's grad_bound_sq is
    G^2 r_max^2 / (1-gamma)^2.  Raises PreconditionError when not even
    alpha = 1e-12 meets the log cap (for instance relaxation <= 0).
    """
    _check_delta(delta)
    if varrho <= 0:
        raise ConfigError(f"varrho: must be positive, got {varrho!r}")
    if min(zeta, ell) <= 0 or sigma < 0 or grad_bound_sq < 0:
        raise ConfigError("prop3_step_size: inputs must be positive "
                          "(sigma and grad_bound_sq may be zero)")
    noise_cap = zeta * varrho ** 2 / (3.0 * sigma ** 2) if sigma else math.inf
    cap = min(delta, 1.0 / zeta, zeta / ell ** 2, noise_cap, 1.0 / math.e)
    rhs = relaxation * 2.0 * zeta * varrho ** 4 / (
        27.0 * (grad_bound_sq + zeta * varrho ** 2 + sigma ** 2) ** 2)

    def log_ok(a: float) -> bool:
        return a * math.log(1.0 / a) <= rhs

    if log_ok(cap):
        return cap
    lo, hi = 1e-12, cap
    if not log_ok(lo):
        raise PreconditionError(
            f"trap: no step size in [{lo:g}, {cap:.6g}] meets the log cap "
            f"alpha ln(1/alpha) <= {rhs:.3g} (relaxation {relaxation!r})")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if log_ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta must be in (0, 1), got {delta!r}")


# ---------------------------------------------------------------------------
# Correlated negative curvature
# ---------------------------------------------------------------------------

def cnc_estimate(mdp: TabularMdp, family, theta: np.ndarray, u: np.ndarray,
                 n: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo mean of <g(tau), u>^2 over n trajectories."""
    u = _unit_check(u)
    vals = (pg_sample_block(mdp, family, theta, n, seed) @ u) ** 2
    return float(vals.sum() / n), float(_std_error(vals))


def iota_sq_floor(mean: float, std_error: float) -> float:
    """max(1e-6, mean - 3 * std_error) of a sampled squared projection;
    the three-sigma margin keeps the estimate on the safe side of the
    population value."""
    return max(1e-6, mean - 3.0 * std_error)


def cnc_enumerate(mdp: TabularMdp, family, theta: np.ndarray,
                  u: np.ndarray) -> float:
    """Exact E[<g(tau), u>^2] by trajectory enumeration."""
    u = _unit_check(u)
    return _enumeration_sum(
        mdp, family, theta,
        lambda scores, states, actions, rewards, probs: float(
            probs @ (_pg_rows(mdp, scores, states, actions, rewards) @ u) ** 2))


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


def _unit_check(u: np.ndarray, what: str = "direction u") -> np.ndarray:
    """u as a float array; a ConfigError naming `what` unless |u| = 1 within 1e-10."""
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
        raise ConfigError(f"{what} must be a unit vector")
    return u
