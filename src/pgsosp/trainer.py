"""Instrumented REINFORCE iteration and the saddle-escape and trapping verifiers.

The update is theta_{k+1} = theta_k + alpha * g_k with g_k the stochastic
gradient of one fresh sample.  Runs record, at report intervals, the
objective, gradient norm, top Hessian eigenvalue, L1/L2/L3 region label,
and the bookkeeping process varsigma.  varsigma advances once per reported
row, not per update: by 1 on an L1/L3 row and by the escape budget
kappa_hat_0 on an L2 row.

Synthetic sources isolate the saddle-escape and trapping mechanics from
MDP sampling noise.  ``QuadraticSaddleSource`` is the one synthetic
model: J(t) = 1/2 (t-c)^T H (t-c) with bounded i.i.d. gradient noise
whose energy along the top eigenvector is controlled by construction (the
curvature-correlation floor).  ``StronglyConcaveSource`` is the same
model with H = -zeta I, center t* and noise uniform on the sphere of
radius noise_sigma (bounded, zero mean, second moment noise_sigma^2).

``QuadraticSaddleSource`` (built from its spectrum), ``StronglyConcaveSource``,
``default_escape_benchmark`` and ``default_trap_benchmark`` take config keys
and hold their defaults.  No command runs the Prop. 1 one-step gain, the
coupled quadratic-model run or the example1 SOSP study, so they live in
tests/paper_checks.py.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, PreconditionError
from .estimators import _pg_rows
from .mdp import TabularMdp, _shape_check, _walk
from .oracle import exact_gradient, exact_hessian, exact_objective
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
    """

    kind: str = "rademacher"
    scale: float = 1.0
    direction: np.ndarray | None = None

    def __post_init__(self):
        kinds = ("rademacher", "sphere", "signed_direction", "orthogonal", "zero")
        if self.kind not in kinds:
            raise ConfigError(f"kind: must be one of {', '.join(kinds)}, "
                              f"got {self.kind!r}")
        if self.kind in ("signed_direction", "orthogonal"):
            if self.direction is None:
                raise ConfigError(f"direction: required with kind {self.kind!r}")
            # iota_sq reads |direction| = 1 exactly, not within 1e-10.
            u = _unit_check(self.direction, "direction")
            object.__setattr__(self, "direction", frozen_array(u / np.linalg.norm(u)))

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
    """Quadratic objective with CNC noise.

    H = diag(eigenvalues), noise rademacher by default.  objective and gradient
    take one point or an (n, dim) block of points, with the same bits per row.
    """

    def __init__(self, eigenvalues=(1.0, -1.0), noise: NoiseSpec | None = None,
                 center: np.ndarray | None = None):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if eigenvalues.ndim != 1 or eigenvalues.size == 0:
            raise ConfigError(f"eigenvalues: need a non-empty vector (no empty "
                              f"Hessian), got shape {eigenvalues.shape}")
        self.eigenvalues = frozen_array(eigenvalues)
        self.h = frozen_array(np.diag(eigenvalues))
        self.dim = eigenvalues.size
        noise = NoiseSpec("rademacher") if noise is None else noise
        if noise.direction is not None and noise.direction.shape != (self.dim,):
            raise ConfigError(
                f"noise.direction: has {noise.direction.size} components, "
                f"the source has dimension {self.dim}"
            )
        self.noise = noise
        self.center = frozen_array(np.zeros(self.dim) if center is None else center)
        # eigh, not argmax: on a tied spectrum the two pick different vectors.
        eigvals, eigvecs = np.linalg.eigh(self.h)
        self.lambda_max = float(eigvals[-1])
        self.u_p = frozen_array(eigvecs[:, -1])

    def _value(self, d: np.ndarray):
        """J at offsets d = theta - center, row-wise over the last axis; a row
        has the same bits alone or inside a block."""
        return 0.5 * (d * (d @ self.h)).sum(axis=-1)

    def _slope(self, d: np.ndarray) -> np.ndarray:
        """grad J at offsets d = theta - center, row-wise over the last axis."""
        return d @ self.h

    def objective(self, theta: np.ndarray):
        return self._value(np.asarray(theta, dtype=float) - self.center)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self._slope(np.asarray(theta, dtype=float) - self.center)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        return np.array(self.h)

    def sample_gradient(self, theta, rng) -> np.ndarray:
        return self.gradient(theta) + self.noise.draw(rng, 1, self.dim)[0]


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
            eigenvalues=np.full(theta_star.size, -zeta),
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


# ---------------------------------------------------------------------------
# Instrumented run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    alpha: float
    max_iters: int
    epsilon: float
    chi: float
    seed: int = 0
    report_every: int = 1
    kappa_hat_0: int = 1

    def __post_init__(self):
        if self.alpha < 0 or self.max_iters < 0:
            raise ConfigError("need alpha >= 0 and max_iters >= 0")
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
    derive_rng(seed), feeds one sample per update in update order.  An MDP
    sample reads 2h+1 uniforms, so draw j of update k is uniform
    k*(2h+1) + j of the stream; synthetic sources draw their noise from the
    same stream.  Aborts (recording the offending k) when an iterate
    goes non-finite or leaves the norm guard, or its gradient is not finite.
    """
    theta = np.array(theta0, dtype=float)
    if theta.shape != (source.dim,):
        raise ConfigError(f"theta0: must be {source.dim} numbers, got {theta.tolist()}")
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
        theta = theta + config.alpha * source.sample_gradient(theta, rng)
        if not np.linalg.norm(theta) <= _DIVERGENCE_NORM:  # also nan and inf
            diverged_at = k + 1
            break
    if diverged_at is None and config.max_iters > 0 and not record(config.max_iters):
        diverged_at = config.max_iters

    return RunRecord(rows=rows, diverged_at=diverged_at, metadata=asdict(config))


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
    of the stream as a per-step loop.  alpha is a scalar or a (runs, 1)
    column read at every step, so a caller may change the column between
    blocks.
    More than _CHAIN_STEP_LIMIT chain-steps in all raise ConfigError.
    """
    runs, dim = d.shape
    if runs * steps > _CHAIN_STEP_LIMIT:
        raise ConfigError(f"alpha: {float(np.max(alpha)):.3g} needs {runs} runs x "
                          f"{steps:.3g} steps, over {_CHAIN_STEP_LIMIT:.0e} chain-steps")
    block = _block_steps(runs, dim)
    for t0 in range(0, steps, block):
        n = min(block, steps - t0)
        xi = source.noise.draw(rng, n * runs, dim).reshape(n, runs, dim)
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


def default_escape_benchmark(runs: int = 200, seed: int = 0, alpha: float = 1e-3,
                             contrast: bool = False, chi: float = 1.0,
                             epsilon: float = 1.0, sigma_h0: float = 10.0,
                             cap_factor: int = 10,
                             eigenvalues=(1.0, -1.0),
                             noise: NoiseSpec | None = None,
                             iota_sq: float | None = None) -> EscapeResult:
    """Escape benchmark on ``QuadraticSaddleSource(eigenvalues, noise)``.

    The contrast variant restricts the noise to the orthogonal complement
    of the escape direction (floor violated) while keeping the benchmark
    gain threshold iota_sq = 1, documenting that the floor is what drives
    escape.  It removes the noise along one direction only, so it needs
    exactly one positive eigenvalue: with a second one the noise along it
    escapes, and with none ``verify_escape`` finds no saddle.  The keywords
    are the ``escape`` command's config keys.
    """
    source = QuadraticSaddleSource(eigenvalues, noise)
    if contrast:
        if noise is not None:
            raise ConfigError("escape: 'contrast' sets the noise; drop 'noise'")
        if (source.eigenvalues > 0).sum() > 1:
            raise ConfigError(
                f"contrast: removes the noise along the top eigenvector only, so "
                f"it needs exactly one positive eigenvalue; got eigenvalues "
                f"{source.eigenvalues.tolist()}")
        source = QuadraticSaddleSource(
            source.eigenvalues,
            NoiseSpec(kind="orthogonal", scale=1.0, direction=source.u_p))
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
                           delta: float = 0.2, theta0=None) -> TrapResult:
    """Two-dimensional strongly-concave bowl centered at the origin.

    By default (unit bowl, noise radius 0.3, delta 0.2) it starts on the
    boundary of the inner ball (the hardest admissible start) and runs
    the full trapping budget at the step size of ``prop3_step_size`` with
    ell = zeta and gradient bound zeta varrho + noise_sigma.  The keywords
    are the ``trap`` command's config keys.
    """
    source = StronglyConcaveSource(zeta=zeta, theta_star=np.zeros(2),
                                   noise_sigma=noise_sigma)
    if alpha is None:
        alpha = prop3_step_size(delta, zeta, zeta, varrho, noise_sigma,
                                (zeta * varrho + noise_sigma) ** 2)
    if theta0 is None:
        theta0 = [varrho / math.sqrt(3.0), 0.0]
    return verify_trap(source, alpha=alpha, runs=runs, seed=seed,
                       delta=delta, varrho=varrho, theta0=theta0)
