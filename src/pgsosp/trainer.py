"""Instrumented REINFORCE iteration and the local-improvement verifiers.

The update is theta_{k+1} = theta_k + alpha * g_k with g_k a single-sample
(batch_size 1) stochastic gradient; larger batches average samples and are
labeled an extension in run metadata.  Runs record, at report intervals,
the objective, gradient norm, top Hessian eigenvalue, L1/L2/L3 region
label, and the bookkeeping process varsigma that advances by 1 on L1/L3
iterates and by the escape budget kappa_hat_0 on L2 iterates.

Synthetic sources isolate the saddle-escape and trapping mechanics from
MDP sampling noise.  ``QuadraticSaddleSource`` is the one synthetic
model: J(t) = 1/2 (t-c)^T H (t-c) - cubic/6 |t-c|^3 with bounded i.i.d.
gradient noise whose energy along the top eigenvector is controlled by
construction (the curvature-correlation floor).  The cubic term is zero
by default; a nonzero value makes the objective deviate from its own
quadratic model, which the coupled-run gap test needs (an exactly
quadratic objective has identically zero gap).  ``StronglyConcaveSource``
is the same model with H = -zeta I, center t* and noise uniform on the
sphere of radius noise_sigma (bounded, zero mean, second moment
noise_sigma^2).

``quadratic_saddle_source``, ``default_escape_benchmark`` and
``default_trap_benchmark`` build from config keys and hold their defaults;
``example1_sosp_study`` steps its chains through ``analytic_example1``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, PreconditionError
from .estimators import _hessian_sum, _pg_rows, _std_error
from .mdp import TabularMdp, _shape_check, _walk
from .oracle import (Example1Analysis, analytic_example1, exact_gradient,
                     exact_hessian, exact_objective)
from .sosp import (
    Region,
    _unit_check,
    escape_budget,
    prop3_step_size,
    report_from_grad_hessian,
    trap_budget,
)
from .util import derive_rng, frozen_array

_DIVERGENCE_NORM = 1e8


# ---------------------------------------------------------------------------
# Gradient noise for synthetic sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Bounded zero-mean gradient noise.

    kinds:
      rademacher       independent +-scale per coordinate
                       (second moment along any unit u is scale^2)
      sphere           uniform direction, radius scale (moment scale^2/dim)
      signed_direction +-scale along a fixed unit direction
      orthogonal       rademacher projected off a fixed unit direction
                       (zero energy along it - the floor-violating case)
      zero             no noise

    frozen=True reuses the step-0 draw at every step.
    """

    kind: str = "rademacher"
    scale: float = 1.0
    direction: np.ndarray | None = None
    frozen: bool = False

    def __post_init__(self):
        if self.kind not in ("rademacher", "sphere", "signed_direction",
                             "orthogonal", "zero"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind in ("signed_direction", "orthogonal"):
            if self.direction is None:
                raise ConfigError(f"noise kind {self.kind!r} needs a direction")
            object.__setattr__(self, "direction", frozen_array(
                _unit_check(self.direction, "noise direction")))

    def draw(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        """(n, dim) noise block."""
        if self.kind == "zero":
            return np.zeros((n, dim))
        if self.kind == "rademacher":
            return self.scale * (2.0 * rng.integers(0, 2, size=(n, dim)) - 1.0)
        if self.kind == "sphere":
            v = rng.standard_normal((n, dim))
            v /= _row_norm(v)[:, None]
            return self.scale * v
        if self.kind == "signed_direction":
            signs = 2.0 * rng.integers(0, 2, size=(n, 1)) - 1.0
            return self.scale * signs * self.direction[None, :]
        # orthogonal: rademacher with the given direction projected out
        v = self.scale * (2.0 * rng.integers(0, 2, size=(n, dim)) - 1.0)
        return v - (v @ self.direction)[:, None] * self.direction[None, :]

    def iota_sq(self, u: np.ndarray) -> float:
        """E[<noise, u>^2] for a unit direction u, by construction."""
        u = np.asarray(u, dtype=float)
        if self.kind == "zero":
            return 0.0
        if self.kind == "rademacher":
            return self.scale ** 2
        if self.kind == "sphere":
            return self.scale ** 2 / u.size
        if self.kind == "signed_direction":
            return self.scale ** 2 * float(self.direction @ u) ** 2
        # orthogonal: independent coordinates minus the projected component
        cos = float(self.direction @ u)
        return self.scale ** 2 * (1.0 - cos ** 2)


def _row_norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1), bit for bit; up to three columns it sums
    their squares directly, which is several times faster on narrow rows."""
    if not 0 < v.shape[-1] <= 3:
        return np.linalg.norm(v, axis=-1)
    sq = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        sq = sq + v[..., j] * v[..., j]
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# Gradient sources
# ---------------------------------------------------------------------------

class QuadraticSaddleSource:
    """Quadratic (optionally cubic-perturbed) objective with CNC noise.

    objective and gradient take one point or an (n, dim) block of points;
    the escape and trap chains step with the same row formulas.
    """

    def __init__(self, hessian: np.ndarray, noise: NoiseSpec,
                 center: np.ndarray | None = None, cubic: float = 0.0):
        h = np.asarray(hessian, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ConfigError("QuadraticSaddleSource needs a square matrix")
        if h.size == 0:
            raise ConfigError("eigenvalues: need at least one, got an empty Hessian")
        if np.abs(h - h.T).max() > 1e-10:
            raise ConfigError("QuadraticSaddleSource needs a symmetric matrix")
        self.h = frozen_array(h)
        self.dim = h.shape[0]
        if noise.direction is not None and noise.direction.shape != (self.dim,):
            raise ConfigError(
                f"noise: direction has {noise.direction.size} components, "
                f"the source has dimension {self.dim}"
            )
        self.noise = noise
        self.center = frozen_array(np.zeros(self.dim) if center is None else center)
        self.cubic = float(cubic)
        eigvals, eigvecs = np.linalg.eigh(h)
        self.lambda_max = float(eigvals[-1])
        self.u_p = frozen_array(eigvecs[:, -1])
        # BLAS rounds a row of d @ H alike alone and inside a block only for
        # a diagonal H or dimension <= 3.
        self._matmul_rowwise = self.dim <= 3 or not (h - np.diag(np.diag(h))).any()

    def _times_h(self, d: np.ndarray) -> np.ndarray:
        """d @ H row-wise over the last axis, with the same bits for a row
        alone or inside a block: the sum over j runs in index order."""
        if self._matmul_rowwise:
            return d @ self.h
        out = d[..., :1] * self.h[0]
        for j in range(1, self.dim):
            out = out + d[..., j:j + 1] * self.h[j]
        return out

    def _value(self, d: np.ndarray):
        """J at offsets d = theta - center, row-wise over the last axis; a row
        has the same bits alone or inside a block."""
        value = 0.5 * (d * self._times_h(d)).sum(axis=-1)
        if self.cubic:
            # Cube an array even for one row: numpy's scalar power rounds
            # differently, and a row must not depend on the block size.
            cubed = np.linalg.norm(d, axis=-1, keepdims=True) ** 3
            value = value - self.cubic / 6.0 * cubed[..., 0]
        return value

    def _slope(self, d: np.ndarray) -> np.ndarray:
        """grad J at offsets d = theta - center, row-wise over the last axis."""
        g = self._times_h(d)
        if self.cubic:
            g = g - 0.5 * self.cubic * np.linalg.norm(d, axis=-1, keepdims=True) * d
        return g

    def objective(self, theta: np.ndarray):
        return self._value(np.asarray(theta, dtype=float) - self.center)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self._slope(np.asarray(theta, dtype=float) - self.center)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        d = np.asarray(theta, dtype=float) - self.center
        h = np.array(self.h)
        r = float(np.linalg.norm(d))
        if self.cubic and r > 0:
            h = h - 0.5 * self.cubic * (r * np.eye(self.dim) + np.outer(d, d) / r)
        return h

    def sample_gradient(self, theta, rng) -> np.ndarray:
        return self.gradient(theta) + self.noise.draw(rng, 1, self.dim)[0]

    def sample_pair(self, theta, rng):
        """One-draw (gradient sample, Hessian sample); Hessian is exact."""
        return self.sample_gradient(theta, rng), np.array(self.h)


class StronglyConcaveSource(QuadraticSaddleSource):
    """J = -zeta/2 |theta - theta_star|^2 with spherical bounded noise."""

    def __init__(self, zeta: float = 1.0, theta_star=(0.0, 0.0),
                 noise_sigma: float = 0.0):
        if zeta <= 0:
            raise ConfigError(f"zeta: must be positive, got {zeta!r}")
        if noise_sigma < 0:
            raise ConfigError(f"noise_sigma: must be >= 0, got {noise_sigma!r}")
        theta_star = np.asarray(theta_star, dtype=float)
        super().__init__(
            hessian=-zeta * np.eye(theta_star.size),
            noise=NoiseSpec(kind="sphere" if noise_sigma > 0 else "zero",
                            scale=noise_sigma),
            center=theta_star,
        )


class MdpPolicySource:
    """MDP + policy family as a gradient source.

    J, grad J and hess J come from the exact oracles (pgsosp.oracle) for
    every family and horizon; updates use single-trajectory estimates.  A
    sample reads 2h+1 uniforms from the caller's stream, walks one
    trajectory on the policy CDF and reduces it with the batch reducers,
    so each table is built once per sample.
    """

    def __init__(self, mdp: TabularMdp, family):
        _shape_check(mdp, family)  # once: the MDP and its arrays are read-only
        self.mdp = mdp
        self.family = family
        self.dim = family.param_dim

    def objective(self, theta) -> float:
        return exact_objective(self.mdp, self.family, theta)

    def gradient(self, theta) -> np.ndarray:
        return exact_gradient(self.mdp, self.family, theta)

    def hessian(self, theta) -> np.ndarray:
        return exact_hessian(self.mdp, self.family, theta)

    def _draw(self, theta, rng):
        """(states, actions, rewards), each (1, h), from 2h+1 uniforms of rng."""
        draws = rng.random(2 * self.mdp.horizon + 1)
        states, actions = _walk(self.mdp, draws[None, :],
                                self.family.probs(theta).cumsum(axis=1))
        return states, actions, self.mdp.reward[states, actions]

    def sample_gradient(self, theta, rng) -> np.ndarray:
        """g(tau) of one trajectory: the _pg_rows row, bit for bit."""
        return _pg_rows(self.mdp, self.family.score(theta),
                        *self._draw(theta, rng))[0]

    def sample_pair(self, theta, rng):
        """(g(tau), raw H(tau)) of one trajectory through the batch reducers."""
        states, actions, rewards = self._draw(theta, rng)
        scores = self.family.score(theta)
        return (_pg_rows(self.mdp, scores, states, actions, rewards)[0],
                _hessian_sum(self.mdp, scores, self.family.hess(theta),
                             states, actions, rewards, np.ones(1)))


# ---------------------------------------------------------------------------
# Instrumented run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    alpha: float
    max_iters: int
    epsilon: float
    chi: float
    batch_size: int = 1
    seed: int = 0
    report_every: int = 1
    kappa_hat_0: int = 1

    def __post_init__(self):
        if self.alpha < 0 or self.max_iters < 0 or self.batch_size < 1:
            raise ConfigError("need alpha >= 0, max_iters >= 0, batch_size >= 1")
        if self.epsilon <= 0 or self.chi <= 0:
            raise ConfigError("need epsilon > 0 and chi > 0")
        if self.report_every < 1 or self.kappa_hat_0 < 1:
            raise ConfigError("need report_every >= 1 and kappa_hat_0 >= 1")


@dataclass(frozen=True)
class RunRow:
    k: int
    theta: np.ndarray
    objective: float
    grad_norm: float
    lambda_max: float
    region: Region
    varsigma: int


@dataclass
class RunRecord:
    rows: list[RunRow]
    diverged_at: int | None = None
    metadata: dict = field(default_factory=dict)

    def trace_rows(self):
        for row in self.rows:
            yield [row.k, *row.theta.tolist(), row.objective, row.grad_norm,
                   row.lambda_max, row.region.value, row.varsigma]

    def trace_header(self, dim: int):
        return ["k", *[f"theta_{i}" for i in range(dim)], "J", "grad_norm",
                "lambda_max", "region", "varsigma"]

    def summary(self) -> dict:
        out = dict(self.metadata)
        out["n_rows"] = len(self.rows)
        out["diverged_at"] = self.diverged_at
        if self.rows:
            out["final"] = {**asdict(self.rows[-1]),
                            "region": self.rows[-1].region.value}
        return out


def run(source, config: TrainerConfig, theta0: np.ndarray) -> RunRecord:
    """Execute max_iters updates with reports every report_every steps.

    Fully deterministic given (config, theta0): one stream,
    derive_rng(seed), feeds every sample in (k, i) order.  An MDP sample
    reads 2h+1 uniforms, so its draw j is uniform (k*b + i)*(2h+1) + j of
    the stream (b the batch size); synthetic sources draw their noise from
    the same stream.  Aborts (recording the offending k) when an iterate
    goes non-finite or leaves the norm guard, or its gradient is not finite.
    """
    theta = np.array(theta0, dtype=float)
    if theta.shape != (source.dim,):
        raise ConfigError(f"theta0 must have shape ({source.dim},)")
    rows: list[RunRow] = []
    varsigma = 0
    diverged_at = None

    def record(k: int) -> bool:
        # False, and no row, when the gradient at theta is not finite.
        nonlocal varsigma
        grad = source.gradient(theta)
        if not np.isfinite(grad).all():
            return False
        report = report_from_grad_hessian(grad, source.hessian(theta),
                                          config.epsilon, config.chi)
        rows.append(RunRow(
            k=k, theta=theta.copy(), objective=source.objective(theta),
            grad_norm=report.grad_norm, lambda_max=report.lambda_max,
            region=report.region, varsigma=varsigma,
        ))
        varsigma += 1 if report.region in (Region.L1, Region.L3) else config.kappa_hat_0
        return True

    rng = derive_rng(config.seed)
    for k in range(config.max_iters):
        if k % config.report_every == 0 and not record(k):
            diverged_at = k
            break
        samples = [source.sample_gradient(theta, rng)
                   for _ in range(config.batch_size)]
        theta = theta + config.alpha * (sum(samples) / config.batch_size)
        if not np.linalg.norm(theta) <= _DIVERGENCE_NORM:  # also nan and inf
            diverged_at = k + 1
            break
    if diverged_at is None and config.max_iters > 0 and not record(config.max_iters):
        diverged_at = config.max_iters

    return RunRecord(rows=rows, diverged_at=diverged_at, metadata={
        **asdict(config), "batch_extension": config.batch_size > 1})


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
    g_sample, h0_hat = source.sample_pair(theta0, rng)
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
# Escape and trap chains (vectorized across runs, stepped in blocks)
# ---------------------------------------------------------------------------

# A block of chain steps draws about _BLOCK_BYTES of noise and holds at most
# _MAX_BLOCK steps, so a chain steps less than one block past its escape.
_BLOCK_BYTES = 1 << 16
_MAX_BLOCK = 32
# More chain-steps (runs x steps) than this are refused before any noise is
# drawn: at about 75 ns each they would take over a minute.
_CHAIN_STEP_LIMIT = 10 ** 9


def _block_steps(runs: int, dim: int) -> int:
    return max(1, min(_MAX_BLOCK, _BLOCK_BYTES // (8 * runs * dim)))


def _chain_blocks(source: QuadraticSaddleSource, d: np.ndarray, alpha, steps: int,
                  rng: np.random.Generator):
    """Step chains d (runs, dim) by d <- d + alpha (slope(d) + xi), `steps` times.

    Yields (t0, path) per block of steps t0+1 .. t0+n, with path[i] the
    (runs, dim) offsets d after step t0+i+1.
    A block draws its (n*runs, dim) noise in one call; numpy fills it in
    the order n draws of (runs, dim) would, so step t reads the same rows
    of the stream as a per-step loop.  Frozen noise is one (runs, dim) draw
    reused at every step.  alpha is a scalar or a (runs, 1) column read at
    every step, so a caller may change the column between blocks.
    More than _CHAIN_STEP_LIMIT chain-steps in all raise ConfigError.
    """
    runs, dim = d.shape
    if runs * steps > _CHAIN_STEP_LIMIT:
        raise ConfigError(f"alpha: {float(np.max(alpha)):.3g} needs {runs} runs x "
                          f"{steps:.3g} steps, over {_CHAIN_STEP_LIMIT:.0e} chain-steps")
    noise = source.noise
    block = _block_steps(runs, dim)
    frozen = noise.draw(rng, runs, dim) if noise.frozen else None
    for t0 in range(0, steps, block):
        n = min(block, steps - t0)
        xi = (n * (frozen,) if frozen is not None
              else noise.draw(rng, n * runs, dim).reshape(n, runs, dim))
        path = []
        for x in xi:
            d = d + alpha * (source._slope(d) + x)
            path.append(d)
        yield t0, np.stack(path)


@dataclass(frozen=True)
class EscapeResult:
    escape_fraction: float
    mean_escape_steps: float | None
    kappa_hat_0: int
    mean_gain: float
    mean_gain_at_kappa: float
    gain_threshold: float
    iota_sq: float
    step_cap: int
    runs: int


def _check_runs(runs: int) -> None:
    if runs < 1:
        raise ConfigError(f"runs: must be at least 1, got {runs!r}")


def verify_escape(source: QuadraticSaddleSource, alpha: float, runs: int,
                  seed: int, chi: float, epsilon: float, sigma_h0: float,
                  cap_factor: int = 10,
                  iota_sq: float | None = None) -> EscapeResult:
    """Fraction of runs whose objective gain reaches alpha^2 iota^2 sqrt(chi eps).

    Success is a value gain, not leaving a geometric region.  Each run
    iterates from the saddle center until the gain threshold or the step
    cap cap_factor * kappa_hat_0.  iota_sq defaults to the source noise's
    constructed floor along the top eigenvector, and a derived floor that
    _no_floor rejects raises PreconditionError; pass the benchmark floor
    explicitly for violation (contrast) runs.  mean_escape_steps is None
    when no run escapes.
    """
    _check_runs(runs)
    if cap_factor < 1:
        raise ConfigError(f"cap_factor: must be at least 1, got {cap_factor!r}")
    if iota_sq is not None and iota_sq <= 0:
        raise ConfigError(f"iota_sq: must be positive, got {iota_sq!r}")
    if source.lambda_max < math.sqrt(chi * epsilon) - 1e-12:
        raise PreconditionError(
            f"saddle source needs lambda_max >= sqrt(chi*eps) = "
            f"{math.sqrt(chi * epsilon):.6g}, got {source.lambda_max:.6g}"
        )
    kappa = escape_budget(alpha, sigma_h0, chi, epsilon)
    cap = cap_factor * kappa
    if iota_sq is None:
        iota_sq = source.noise.iota_sq(source.u_p)
        if _no_floor(source.noise, iota_sq):
            raise PreconditionError(
                f"the {source.noise.kind!r} noise gives no curvature floor along "
                f"the escape direction (iota_sq = {iota_sq:.6g}), so every run "
                f"would meet a zero gain threshold; pass iota_sq explicitly"
            )
    threshold = alpha ** 2 * iota_sq * math.sqrt(chi * epsilon)

    escape_step = np.full(runs, -1, dtype=np.int64)
    gains = np.zeros(runs)
    gain_at_kappa = None
    alphas = np.full((runs, 1), alpha)  # zeroed per chain once it escapes
    chains = np.arange(runs)
    # J(center) = 0, so the gain is J itself.
    for t0, offsets in _chain_blocks(source, np.zeros((runs, source.dim)), alphas,
                                     cap, derive_rng(seed)):
        path = source._value(offsets)
        active = escape_step < 0
        hit = path >= threshold
        first = hit.argmax(axis=0)
        newly = active & hit[first, chains]
        # An escaped chain's gain stays at its first hit; the steps it took
        # after it within the block are discarded.
        stop = np.where(newly, first, len(path) - 1)
        if t0 < kappa <= t0 + len(path):
            at = np.minimum(stop, kappa - t0 - 1)
            gain_at_kappa = np.where(active, path[at, chains], gains)
        gains = np.where(active, path[stop, chains], gains)
        escape_step[newly] = t0 + 1 + first[newly]
        alphas[newly] = 0.0
        if (escape_step >= 0).all():
            break

    if gain_at_kappa is None:
        # Every run escaped before the budget step; gains are frozen at
        # their escape values, which is what the budget snapshot would see.
        gain_at_kappa = gains

    escaped = escape_step >= 0
    return EscapeResult(
        escape_fraction=float(escaped.mean()),
        mean_escape_steps=float(escape_step[escaped].mean()) if escaped.any() else None,
        kappa_hat_0=kappa,
        mean_gain=float(gains.mean()),
        mean_gain_at_kappa=float(gain_at_kappa.mean()),
        gain_threshold=threshold,
        iota_sq=float(iota_sq),
        step_cap=cap,
        runs=runs,
    )


def _no_floor(noise: NoiseSpec, iota_sq: float) -> bool:
    """Whether a derived floor iota_sq of noise is at most 1e-12 scale^2: the
    rounding residue (about 1e-15) that noise with no energy along an
    eigensolver's top eigenvector gives instead of 0."""
    return not iota_sq > 1e-12 * noise.scale ** 2


def quadratic_saddle_source(eigenvalues=(1.0, -1.0), noise: NoiseSpec | None = None,
                            cubic: float = 0.0) -> QuadraticSaddleSource:
    """The ``quadratic_saddle`` source: H = diag(eigenvalues), Rademacher noise."""
    return QuadraticSaddleSource(np.diag(eigenvalues), noise or NoiseSpec("rademacher"),
                                 cubic=cubic)


def default_escape_benchmark(runs: int = 200, seed: int = 0, alpha: float = 1e-3,
                             contrast: bool = False, chi: float = 1.0,
                             epsilon: float = 1.0, sigma_h0: float = 10.0,
                             cap_factor: int = 10,
                             eigenvalues=(1.0, -1.0),
                             noise: NoiseSpec | None = None,
                             iota_sq: float | None = None) -> EscapeResult:
    """Escape benchmark on ``quadratic_saddle_source(eigenvalues, noise)``.

    The contrast variant restricts the noise to the orthogonal complement
    of the escape direction (floor violated) while keeping the benchmark
    gain threshold iota_sq = 1, documenting that the floor is what drives
    escape.  The keywords are the ``escape`` command's config keys.
    """
    source = quadratic_saddle_source(eigenvalues, noise)
    if contrast:
        if noise is not None:
            raise ConfigError("escape: 'contrast' sets the noise; drop 'noise'")
        source = QuadraticSaddleSource(
            source.h, NoiseSpec(kind="orthogonal", scale=1.0, direction=source.u_p))
        if iota_sq is None:
            iota_sq = 1.0
    return verify_escape(source, alpha=alpha, runs=runs, seed=seed, chi=chi,
                         epsilon=epsilon, sigma_h0=sigma_h0,
                         cap_factor=cap_factor, iota_sq=iota_sq)


# ---------------------------------------------------------------------------
# Trapping near a local maximum (vectorized across runs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrapResult:
    stay_fraction: float
    kappa_0: int
    alpha: float
    varrho: float
    delta: float
    runs: int


def verify_trap(source: QuadraticSaddleSource, alpha: float, runs: int,
                seed: int, delta: float, varrho: float,
                theta0: np.ndarray) -> TrapResult:
    """Fraction of runs staying inside the radius-varrho ball for kappa_0 steps.

    The ball is centered on the source's center; theta0 must lie inside
    the inner ball of radius varrho/sqrt(3).
    """
    _check_runs(runs)
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (source.dim,):
        raise ConfigError(
            f"theta0: expected {source.dim} components, got shape {theta0.shape}"
        )
    d0 = theta0 - source.center
    start_dist = float(np.linalg.norm(d0))
    if start_dist > varrho / math.sqrt(3.0) + 1e-12:
        raise PreconditionError(
            f"theta0 must start inside the inner ball of radius "
            f"{varrho / math.sqrt(3.0):.6g}, got distance {start_dist:.6g}"
        )
    kappa = trap_budget(alpha, delta)
    stayed = np.ones(runs, dtype=bool)
    for _, path in _chain_blocks(source, np.tile(d0, (runs, 1)), alpha, kappa,
                                 derive_rng(seed)):
        stayed &= (_row_norm(path) <= varrho).all(axis=0)
    return TrapResult(
        stay_fraction=float(stayed.mean()), kappa_0=kappa, alpha=alpha,
        varrho=varrho, delta=delta, runs=runs,
    )


def default_trap_benchmark(runs: int = 500, seed: int = 0,
                           alpha: float | None = None, zeta: float = 1.0,
                           varrho: float = 1.0, noise_sigma: float = 0.3,
                           delta: float = 0.2, relaxation: float | None = None,
                           theta0=None) -> TrapResult:
    """Two-dimensional strongly-concave bowl centered at the origin.

    By default (unit bowl, noise radius 0.3, delta 0.2) it starts on the
    boundary of the inner ball (the hardest admissible start) and runs
    the full trapping budget at the step size of ``prop3_step_size`` with
    ell = zeta and gradient bound zeta varrho + noise_sigma.  The keywords
    are the ``trap`` command's config keys; ``relaxation`` scales the log
    cap of that rule, so it cannot be combined with ``alpha``.
    """
    if alpha is not None and relaxation is not None:
        raise ConfigError("relaxation: scales the log cap of the derived step "
                          "size; drop it or 'alpha'")
    source = StronglyConcaveSource(zeta=zeta, theta_star=np.zeros(2),
                                   noise_sigma=noise_sigma)
    if alpha is None:
        alpha = prop3_step_size(delta, zeta, zeta, varrho, noise_sigma,
                                (zeta * varrho + noise_sigma) ** 2,
                                1.0 if relaxation is None else relaxation)
    if theta0 is None:
        theta0 = [varrho / math.sqrt(3.0), 0.0]
    return verify_trap(source, alpha=alpha, runs=runs, seed=seed,
                       delta=delta, varrho=varrho, theta0=theta0)


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
