"""Earlier forms of the trap step-size rule, the finite differences and
the example1 policy tables.

The library writes the Prop. 3 step-size rule once
(`sosp.prop3_step_size`) and the central differences once
(`oracle.fd_gradient`, which `oracle.fd_hessian_from_gradient` calls and
then symmetrizes).  Before that, the trap benchmark had its own copy of
the rule and each finite-difference function its own loop.
`ExampleOnePiecewise` picks its start-state branch once per point
(`_start`); before that, each table method chose the branch itself and
`score` and `hess` divided whole `probs`/`dprobs` tables.  Those copies
are kept here as they were, so the tests can pin the library to them bit
for bit, as tests/trajectory_reference.py does for the rollout and the
reducers.
"""
from __future__ import annotations

import math

import numpy as np

from pgsosp.errors import ConfigError, PolicyDomainError, PreconditionError
from pgsosp.policy import (_ABSORBING_ROWS, _BOX_HESSIAN, _INV_SQRT_2PI, LEFT,
                           RIGHT, UP, ExampleOnePiecewise)


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


class ExampleOneTables(ExampleOnePiecewise):
    """ExampleOnePiecewise with its earlier table methods: each picks the
    branch itself, and score and hess divide the probs/dprobs tables."""

    def _p1(self, theta: np.ndarray) -> float:
        return _INV_SQRT_2PI * (1.0 - theta[0] ** 2 + theta[1] ** 2)

    def _p2(self, theta: np.ndarray) -> float:
        return _INV_SQRT_2PI * math.exp(-(2.0 - float(theta @ theta)) / 2.0)

    def in_domain(self, theta: np.ndarray) -> bool | np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim > 1:
            return self._each(self.in_domain, theta, (), bool)
        try:
            self.probs(theta)
        except PolicyDomainError:
            return False
        return True

    def probs(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim > 1:
            return self._each(self.probs, theta, (3, 3))
        out = _ABSORBING_ROWS.copy()
        if self.in_box(theta):
            p = self._p1(theta)
            out[0] = p, 0.0, 1.0 - p
        else:
            p = self._p2(theta)
            out[0] = 0.0, p, 1.0 - p
        if p < 0.0 or p > 1.0:  # exactly when 1 - p leaves [0, 1]
            raise PolicyDomainError(
                f"action probabilities leave [0, 1] at theta={theta.tolist()}"
            )
        return out

    def dprobs(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim > 1:
            return self._each(self.dprobs, theta, (3, 3, 2))
        out = np.zeros((3, 3, 2))
        if self.in_box(theta):
            grad = out[0, RIGHT] = theta * _BOX_HESSIAN.diagonal()
        else:
            grad = out[0, LEFT] = self._p2(theta) * theta
        out[0, UP] = -grad
        return out

    def score(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim > 1:
            return self._each(self.score, theta, (3, 3, 2))
        start = self.probs(theta)[0, :, None]
        out = np.zeros((3, 3, 2))
        np.divide(self.dprobs(theta)[0], start, out=out[0], where=start > 0.0)
        return out

    def hess(self, theta: np.ndarray) -> np.ndarray:
        # d^2 log p = (d^2 p)/p - (d log p)(d log p)^T
        theta = np.asarray(theta, dtype=float)
        if theta.ndim > 1:
            return self._each(self.hess, theta, (3, 3, 2, 2))
        start = self.probs(theta)[0]
        on = start > 0.0
        dlog = self.dprobs(theta)[0, on] / start[on, None]
        d2p = np.zeros((3, 2, 2))
        if self.in_box(theta):
            d2p[RIGHT] = _BOX_HESSIAN
            d2p[UP] = -d2p[RIGHT]
        else:
            d2p[LEFT] = self._p2(theta) * (np.outer(theta, theta) + np.eye(2))
            d2p[UP] = -d2p[LEFT]
        out = np.zeros((3, 3, 2, 2))
        out[0, on] = (d2p[on] / start[on, None, None]
                      - dlog[:, :, None] * dlog[:, None, :])
        return out

    @staticmethod
    def _each(table, theta: np.ndarray, shape: tuple, dtype=float) -> np.ndarray:
        """table at each point of a (..., 2) block, into a (...) + shape array."""
        theta = np.ascontiguousarray(theta)
        out = np.empty(theta.shape[:-1] + shape, dtype=dtype)
        for idx in np.ndindex(theta.shape[:-1]):
            out[idx] = table(theta[idx])
        return out
