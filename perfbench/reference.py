"""Reference values and output checks, independent of pgsosp's numerics.

Exact quantities come from this module's own short dynamic program for
the truncated objective J of a tabular-softmax policy, with gradients and
Hessians by central differences of J.  The three-state example uses its
closed forms.  E[<g, u>^2] comes from this module's own vectorized
trajectory enumeration.  Nothing here imports pgsosp.

Each check returns a list of problems; an empty list means the output
passed.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
GRAD_STEP = 1e-5
HESS_STEP = 1e-3
# About 50x the largest difference seen between these central differences
# and pgsosp's exact values (3e-11 and 2e-8).
GRAD_TOL = 1e-9
HESS_TOL = 1e-6
MC_SE_LIMIT = 5.0


# ---------------------------------------------------------------------------
# Tabular-softmax MDP references
# ---------------------------------------------------------------------------

class TabularReference:
    """J, grad J and hess J of one MDP by backward induction + differences."""

    def __init__(self, mdp: dict):
        self.n_s = mdp["n_states"]
        self.n_a = mdp["n_actions"]
        self.transition = np.asarray(mdp["transition"], dtype=float)
        self.reward = np.asarray(mdp["reward"], dtype=float)
        self.rho0 = np.asarray(mdp["rho0"], dtype=float)
        self.gamma = float(mdp["gamma"])
        self.horizon = int(mdp["horizon"])

    def policy(self, thetas: np.ndarray) -> np.ndarray:
        logits = thetas.reshape(len(thetas), self.n_s, self.n_a)
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        return e / e.sum(axis=2, keepdims=True)

    def objective(self, thetas) -> np.ndarray:
        """J for a batch of parameter vectors, shape (B,)."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        pi = self.policy(thetas)
        v = np.zeros((len(thetas), self.n_s))
        for _ in range(self.horizon):
            q = self.reward + self.gamma * np.einsum("sat,bt->bsa",
                                                     self.transition, v)
            v = (pi * q).sum(axis=2)
        return v @ self.rho0

    def gradient(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        eye = np.eye(theta.size) * GRAD_STEP
        j = self.objective(np.concatenate([theta + eye, theta - eye]))
        return (j[: theta.size] - j[theta.size:]) / (2.0 * GRAD_STEP)

    def hessian(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        p = theta.size
        eye = np.eye(p) * HESS_STEP
        ei = eye[:, None, :]
        ej = eye[None, :, :]
        points = np.concatenate([
            (theta + ei + ej).reshape(-1, p), (theta + ei - ej).reshape(-1, p),
            (theta - ei + ej).reshape(-1, p), (theta - ei - ej).reshape(-1, p),
        ])
        j = self.objective(points).reshape(4, p, p)
        hess = (j[0] - j[1] - j[2] + j[3]) / (4.0 * HESS_STEP ** 2)
        return (hess + hess.T) / 2.0

    def cnc_value(self, theta, u) -> float:
        """E[<g(tau), u>^2] by enumerating every length-h trajectory."""
        theta = np.asarray(theta, dtype=float)
        pi = self.policy(theta[None])[0]
        u = np.asarray(u, dtype=float).reshape(self.n_s, self.n_a)
        # <d log pi(a|s), u> for tabular softmax: u[s, a] - sum_b pi(b|s) u[s, b]
        score_u = u - (pi * u).sum(axis=1, keepdims=True)
        states = np.flatnonzero(self.rho0 > 0)
        prob = self.rho0[states]
        x = np.zeros(len(states))
        ret = np.zeros(len(states))
        for t in range(self.horizon):
            n = len(states)
            s = np.repeat(states, self.n_a)
            a = np.tile(np.arange(self.n_a), n)
            prob = np.repeat(prob, self.n_a) * pi[s, a]
            x = np.repeat(x, self.n_a) + score_u[s, a]
            ret = np.repeat(ret, self.n_a) + self.gamma ** t * self.reward[s, a]
            if t == self.horizon - 1:
                break
            m = len(s)
            nxt = np.tile(np.arange(self.n_s), m)
            p_next = self.transition[np.repeat(s, self.n_s),
                                     np.repeat(a, self.n_s), nxt]
            keep = p_next > 0
            states = nxt[keep]
            prob = (np.repeat(prob, self.n_s) * p_next)[keep]
            x = np.repeat(x, self.n_s)[keep]
            ret = np.repeat(ret, self.n_s)[keep]
        return float((prob * (x * ret) ** 2).sum())


def example1_exact(theta) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed forms (J, grad, hess) of the three-state example at h = 1."""
    t = np.asarray(theta, dtype=float)
    if 0.0 <= t[0] <= 1.0 and 0.0 <= t[1] <= 1.0:
        j = INV_SQRT_2PI * (1.0 - t[0] ** 2 + t[1] ** 2)
        return j, INV_SQRT_2PI * np.array([-2.0 * t[0], 2.0 * t[1]]), \
            INV_SQRT_2PI * np.diag([-2.0, 2.0])
    j = INV_SQRT_2PI * math.exp((float(t @ t) - 2.0) / 2.0)
    return j, j * t, j * (np.outer(t, t) + np.eye(2))


def example1_cnc_value(theta, u) -> float:
    """E[<g, u>^2] in the unit box: action right (reward 1) w.p. q/sqrt(2 pi)
    with score (-2 t1, 2 t2)/q, so the value is <(-2 t1, 2 t2), u>^2 / (q sqrt(2 pi))."""
    t = np.asarray(theta, dtype=float)
    q = 1.0 - t[0] ** 2 + t[1] ** 2
    proj = float(np.array([-2.0 * t[0], 2.0 * t[1]]) @ np.asarray(u, float))
    return float(proj ** 2 * INV_SQRT_2PI / q)


def exact_for(info: dict, theta) -> tuple[float, np.ndarray, np.ndarray]:
    if info.get("example1"):
        return example1_exact(theta)
    ref = TabularReference(info["mdp"])
    return float(ref.objective(theta)[0]), ref.gradient(theta), ref.hessian(theta)


def region(grad_norm: float, lambda_max: float, epsilon: float, chi: float) -> str:
    if grad_norm > epsilon:
        return "L1"
    return "L2" if lambda_max > math.sqrt(chi * epsilon) else "L3"


# ---------------------------------------------------------------------------
# Per-subcommand checks
# ---------------------------------------------------------------------------

def _close(name, got, want, tol, problems):
    gap = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    if not gap <= tol:
        problems.append(f"{name}: off by {gap:.3e} (tolerance {tol:.1e})")


def _expected_region(grad_norm, lam, cfg):
    """The label, or None when the point is too close to a boundary to judge."""
    eps, chi = cfg["epsilon"], cfg["chi"]
    if abs(grad_norm - eps) > 1e-6 and abs(lam - math.sqrt(chi * eps)) > 1e-4:
        return region(grad_norm, lam, eps, chi)
    return None


def check_classify(cmd, out: dict) -> list:
    problems = []
    cfg, info = cmd.config, cmd.info
    _, grad, hess = exact_for(info, info["theta"])
    lam = float(np.linalg.eigvalsh(hess)[-1])
    if cfg.get("mode", "oracle") == "oracle":
        scale = max(1.0, float(np.abs(hess).max()))
        _close("grad", out["grad"], grad, GRAD_TOL * max(1.0, np.linalg.norm(grad)),
               problems)
        _close("hessian", out["hessian"], hess, HESS_TOL * scale, problems)
        _close("lambda_max", out["lambda_max"], lam, HESS_TOL * scale, problems)
        want = _expected_region(float(np.linalg.norm(grad)), lam, cfg)
        if want and out["region"] != want:
            problems.append(f"region {out['region']} != {want}")
    else:
        if out.get("n_samples") != cfg["n"] or out.get("mode") != "estimated":
            problems.append("estimated classify: wrong n_samples or mode")
        mean = np.asarray(out["grad"], float)
        se = np.asarray(out["grad_std_error"], float)
        z = np.abs(mean - grad) / np.maximum(se, 1e-12)
        bad = (np.abs(mean - grad) > 1e-7) & (z > MC_SE_LIMIT)
        if bad.any():
            problems.append(f"MC gradient {float(z.max()):.1f} SE from exact")
    return problems


def check_cnc(cmd, out: dict) -> list:
    problems = []
    cfg, info = cmd.config, cmd.info
    theta = info["theta"]
    u = np.asarray(out["u"], float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
        problems.append("u is not a unit vector")
        return problems
    if "u" in cfg:
        _close("u", u, cfg["u"], 0.0, problems)
    else:
        # u must be a top eigenvector of the exact Hessian.
        _, _, hess = exact_for(info, theta)
        lam = float(np.linalg.eigvalsh(hess)[-1])
        scale = max(1.0, float(np.abs(hess).max()))
        if float(u @ hess @ u) < lam - HESS_TOL * scale:
            problems.append("u is not a top eigenvector of the exact Hessian")
    if info.get("example1"):
        exact = example1_cnc_value(theta, u)
    else:
        exact = TabularReference(info["mdp"]).cnc_value(theta, u)
    if cfg.get("method") == "enumerate":
        if "enumeration" not in out:
            problems.append("no enumeration value")
        else:
            _close("enumeration", out["enumeration"], exact,
                   1e-9 * max(1.0, exact), problems)
        if "mean_sq_projection" in out:
            problems.append("method enumerate ran Monte Carlo")
    else:
        mean, se = out["mean_sq_projection"], out["std_error"]
        if abs(mean - exact) > MC_SE_LIMIT * se + 1e-12:
            problems.append(f"MC cnc mean {mean!r} vs exact {exact!r} "
                            f"({abs(mean - exact) / max(se, 1e-300):.1f} SE)")
    return problems


def check_oracle_check(cmd, out: dict) -> list:
    return [] if out.get("all_pass") is True else ["oracle-check: all_pass false"]


def _softmax_grid_regularity(n_states, n_actions, box, grid):
    """G, L, U, W of tabular softmax over the grid, as pgsosp defines them."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    p = n_states * n_actions
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # (g,)*p + (p,)
    logits = mesh.reshape(mesh.shape[:-1] + (n_states, n_actions))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    pi = e / e.sum(axis=-1, keepdims=True)
    eye = np.eye(n_actions)
    score = eye - pi[..., None, :]                        # d log pi(a|s) on block s
    g_max = float(np.abs(score).max())
    hess = pi[..., :, None] * pi[..., None, :] - pi[..., :, None] * eye
    l_max = float(np.abs(hess).max())
    dprob = pi[..., :, None] * (eye - pi[..., None, :])
    u_max = float(np.abs(dprob).max())
    w_max = 0.0
    for axis in range(p):
        step = float(axes[axis][1] - axes[axis][0])
        lo = [slice(None)] * p
        hi = [slice(None)] * p
        lo[axis] = slice(0, grid - 1)
        hi[axis] = slice(1, grid)
        diff = hess[tuple(hi)] - hess[tuple(lo)]
        norms = np.abs(np.linalg.eigvalsh(diff)).max(axis=-1)
        w_max = max(w_max, float(norms.max() / step))
    return g_max, l_max, u_max, w_max


def check_constants(cmd, out: dict) -> list:
    problems = []
    cfg = cmd.config
    est = cfg["estimate"]
    g, l, u, w = _softmax_grid_regularity(est["n_states"], est["n_actions"],
                                          est["box"], est["grid"])
    for key, want in (("G", g), ("L", l), ("U", u), ("W", w)):
        _close(key, out[key], want, 1e-12 * max(1.0, want), problems)
    gamma, r_min, r_max, h, p = (cfg[k] for k in ("gamma", "r_min", "r_max", "h", "p"))
    g, l, w = out["G"], out["L"], out["W"]
    one_m = 1.0 - gamma
    ell = r_max * h * (h * g * g + l) / one_m
    sigma = g * r_max / one_m ** 2
    sigma_h0 = 2.0 * p * math.sqrt(p) * h * r_max * (h * g * g + l) / one_m
    chi = (r_max * g * l / one_m ** 2 + r_max * g ** 3 * (1 + gamma) / one_m ** 3
           + (r_max * g / one_m) * max(l, gamma * g * g / one_m, w / g,
                                       l * gamma / one_m,
                                       (g * (1 + gamma) + l * gamma * one_m)
                                       / (1 - gamma * gamma)))
    eps, delta, omega, iota = cfg["epsilon"], cfg["delta"], cfg["omega"], cfg["iota"]
    alpha = min(eps ** 2 / (2.0 * math.sqrt(chi * eps) * r_min ** 2 * omega ** 2),
                2.0 * eps ** 2 / ((eps ** 2 + sigma ** 2) * ell))
    kappa_0 = math.floor(math.log(1.0 / delta) / alpha ** 2)
    big_k = math.ceil(6.0 * r_max / (alpha ** 2 * one_m * iota ** 2
                                     * math.sqrt(chi * eps))
                      * math.log(1.0 / delta)) + 1
    for key, want in (("ell", ell), ("sigma", sigma), ("sigma_h0", sigma_h0),
                      ("chi", chi), ("alpha", alpha)):
        _close(key, out[key], want, 1e-12 * max(1.0, abs(want)), problems)
    if out["kappa_0"] != kappa_0 or out["K"] != big_k:
        problems.append(f"budgets: kappa_0 {out['kappa_0']} vs {kappa_0}, "
                        f"K {out['K']} vs {big_k}")
    return problems


def check_train(cmd, out: dict, files: dict) -> list:
    """Summary bookkeeping, and every trace row's J, |grad|, lambda_max,
    region and varsigma against the exact references."""
    problems = []
    cfg, info = cmd.config, cmd.info
    if out.get("diverged_at") is not None:
        problems.append(f"diverged at {out['diverged_at']}")
    rows = list(csv.reader(io.StringIO(files.get("trace.csv", ""))))
    if not rows:
        return problems + ["no trace.csv"]
    body = rows[1:]
    expected_rows = math.ceil(cfg["max_iters"] / cfg["report_every"]) + 1
    if out.get("n_rows") != expected_rows or len(body) != expected_rows:
        problems.append(f"rows: {out.get('n_rows')} / {len(body)}, "
                        f"expected {expected_rows}")
    if json.loads(files.get("summary.json", "null")) != out:
        problems.append("summary.json differs from stdout")
    dim = len(cfg["theta0"])
    varsigma = 0
    for row in body:
        theta = np.array([float(x) for x in row[1:1 + dim]])
        j_out, gn_out, lam_out = (float(x) for x in row[1 + dim:4 + dim])
        label, vs = row[4 + dim], int(row[5 + dim])
        j, grad, hess = exact_for(info, theta)
        lam = float(np.linalg.eigvalsh(hess)[-1])
        gn = float(np.linalg.norm(grad))
        tol = HESS_TOL * max(1.0, float(np.abs(hess).max()))
        if abs(j_out - j) > 1e-10 or abs(gn_out - gn) > GRAD_TOL * max(1.0, gn) \
                or abs(lam_out - lam) > tol:
            problems.append(f"row k={row[0]}: J/grad/lambda off the reference")
            break
        want = _expected_region(gn, lam, cfg)
        if want and label != want:
            problems.append(f"row k={row[0]}: region {label} != {want}")
            break
        if vs != varsigma:
            problems.append(f"row k={row[0]}: varsigma {vs} != {varsigma}")
            break
        varsigma += cfg.get("kappa_hat_0", 1) if label == "L2" else 1
    return problems


def check_escape(cmd, out: dict) -> list:
    problems = []
    cfg = cmd.config
    alpha = cfg["alpha"]
    kappa = math.floor(math.log(1.0 / (1.0 - math.sqrt(alpha) * 10.0))
                       / math.log(1.0 + alpha))
    if out["kappa_hat_0"] != kappa or out["runs"] != cfg["runs"]:
        problems.append("escape: kappa_hat_0 or runs differ")
    if cfg.get("contrast"):
        if not out["escape_fraction"] <= 0.1:
            problems.append(f"contrast escape fraction {out['escape_fraction']}")
    elif not (out["escape_fraction"] >= 0.9
              and out["mean_escape_steps"] <= out["step_cap"]):
        problems.append(f"escape fraction {out['escape_fraction']}")
    return problems


def check_trap(cmd, out: dict) -> list:
    cfg = cmd.config
    delta = cfg["delta"]
    problems = []
    if out["kappa_0"] != cmd.info["kappa_0"]:
        problems.append(f"kappa_0 {out['kappa_0']} != {cmd.info['kappa_0']}")
    threshold = 1.0 - delta * math.log(1.0 / delta) - 0.05
    if not out["stay_fraction"] >= threshold:
        problems.append(f"stay fraction {out['stay_fraction']} < {threshold:.3f}")
    return problems


CHECKS = {
    "classify": check_classify,
    "cnc": check_cnc,
    "oracle-check": check_oracle_check,
    "constants": check_constants,
    "escape": check_escape,
    "trap": check_trap,
}


def check(cmd, rc: int, stdout: str, files: dict) -> list:
    """Problems with one command's result; [] when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    if cmd.subcommand == "train":
        return check_train(cmd, out, files)
    return CHECKS[cmd.subcommand](cmd, out)
