"""Plain-numpy logistic regression: an IRLS fit, Wald intervals and the
Wald coverage indicators of the coverage harness.

Nothing here comes from pebble_logit's solver, model, linalg or inference
modules, so the benchmark's checks compare the program against numbers
computed another way: IRLS with a Cholesky solve instead of damped Newton
with eigh-based inverses, and normal quantiles from the standard library
instead of scipy.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
from scipy.special import chdtri


def probs(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """expit(x @ beta), accurate on both tails."""
    return np.exp(-np.logaddexp(0.0, -(x @ beta)))


def score_norm(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """max_j |X'(y - p)|_j / n: zero at the MLE."""
    return float(np.abs(x.T @ (y - probs(x, beta))).max()) / x.shape[0]


def information(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Total information X'WX with W = diag(p(1-p))."""
    pr = probs(x, beta)
    return x.T @ (x * (pr * (1.0 - pr))[:, None])


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = np.linalg.cholesky(a)
    return np.linalg.solve(c.T, np.linalg.solve(c, b))


def irls(x: np.ndarray, y: np.ndarray, tol: float = 1e-13, max_iter: int = 50) -> np.ndarray:
    """Logistic MLE by iteratively reweighted least squares from zero."""
    beta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        step = _spd_solve(information(x, beta), x.T @ (y - probs(x, beta)))
        beta = beta + step
        if np.abs(step).max() <= tol * (1.0 + np.abs(beta).max()):
            return beta
    raise RuntimeError("IRLS did not converge; the data may be separated")


def wald(x: np.ndarray, beta_hat: np.ndarray, alpha: float) -> dict:
    """Wald sets at beta_hat: beta_hat -/+ z * sqrt(diag((X'WX)^-1))."""
    se = np.sqrt(np.diag(_spd_solve(information(x, beta_hat), np.eye(x.shape[1]))))
    z_two = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    z_one = NormalDist().inv_cdf(1.0 - alpha)
    return {
        "se": se,
        "lo": beta_hat - z_two * se,
        "hi": beta_hat + z_two * se,
        "upper": beta_hat + z_one * se,
        "lower": beta_hat - z_one * se,
    }


def wald_coverage(datasets, beta_true: np.ndarray, alpha: float) -> dict:
    """The Normal block of a coverage report, recomputed from the
    experiments' datasets [(x, y), ...] in experiment order."""
    p = beta_true.shape[0]
    chi2_crit = float(chdtri(p, alpha))
    middle, width, upper, lower, region = [], [], [], [], []
    for x, y in datasets:
        beta_hat = irls(x, y)
        w = wald(x, beta_hat, alpha)
        middle.append((w["lo"] <= beta_true) & (beta_true <= w["hi"]))
        width.append(w["hi"] - w["lo"])
        upper.append(beta_true <= w["upper"])
        lower.append(beta_true >= w["lower"])
        delta = beta_hat - beta_true
        region.append(float(delta @ information(x, beta_hat) @ delta) <= chi2_crit)
    middle, width, upper, lower = (np.array(a, dtype=float) for a in (middle, width, upper, lower))
    jmin = int(np.argmin(np.abs(beta_true)))
    jmax = int(np.argmax(np.abs(beta_true)))
    out = {"beta_lower_region": float(np.mean(region))}
    for tag, j in (("min", jmin), ("max", jmax)):
        out[f"beta_{tag}_middle"] = float(middle[:, j].mean())
        out[f"beta_{tag}_middle_width"] = float(width[:, j].mean())
        out[f"beta_{tag}_upper"] = float(upper[:, j].mean())
        out[f"beta_{tag}_lower"] = float(lower[:, j].mean())
    out["beta_avg_middle"] = float(middle.mean())
    out["beta_avg_middle_width"] = float(width.mean())
    out["beta_avg_upper"] = float(upper.mean())
    out["beta_avg_lower"] = float(lower.mean())
    return out
