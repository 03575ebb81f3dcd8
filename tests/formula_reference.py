"""Earlier forms of the trap step-size rule and the finite differences.

The library writes the Prop. 3 step-size rule once
(`sosp.prop3_step_size`) and the central-difference loop once
(`oracle._central_differences`).  Before that, the trap benchmark had its
own copy of the rule and each finite-difference function its own loop.
Those copies are kept here as they were, so the tests can pin the library
to them bit for bit, as tests/trajectory_reference.py does for the
rollout and the reducers.
"""
from __future__ import annotations

import math

import numpy as np

from pgsosp.errors import ConfigError, PreconditionError


def trap_benchmark_alpha(zeta: float, varrho: float, noise_sigma: float,
                         delta: float, relaxation: float = 1.0) -> float:
    """Largest admissible step size for the trap benchmark: the four-way cap
    with ell = zeta, then bisection until alpha ln(1/alpha) clears the log
    cap with gradient bound zeta varrho + noise_sigma, scaled by relaxation."""
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta must be in (0, 1), got {delta!r}")
    if varrho <= 0:
        raise ConfigError(f"varrho: must be positive, got {varrho!r}")
    ell = zeta
    noise_cap = zeta * varrho ** 2 / (3.0 * noise_sigma ** 2) if noise_sigma \
        else math.inf
    cap = min(delta, 1.0 / zeta, zeta / ell ** 2, noise_cap)
    grad_bound = zeta * varrho + noise_sigma
    rhs = relaxation * 2.0 * zeta * varrho ** 4 / (
        27.0 * (grad_bound ** 2 + zeta * varrho ** 2 + noise_sigma ** 2) ** 2
    )

    def log_ok(a: float) -> bool:
        return a * math.log(1.0 / a) <= rhs

    cap = min(cap, 1.0 / math.e)
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


def fd_gradient(func, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        grad[j] = (func(theta + bump) - func(theta - bump)) / (2.0 * step)
    return grad


def fd_hessian_from_gradient(grad_func, theta: np.ndarray,
                             step: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of a gradient function, symmetrized."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    hess = np.zeros((p, p))
    for j in range(p):
        bump = np.zeros(p)
        bump[j] = step
        hess[:, j] = (grad_func(theta + bump) - grad_func(theta - bump)) / (2.0 * step)
    return (hess + hess.T) / 2.0
