"""Checks on the program's outputs.

Every check returns a list of failure messages; an empty list is a pass.
The self-test (selftest.py) feeds each one a corrupted output and expects
a failure, so none of them can pass vacuously.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

import reference

BETA_RTOL = 1e-7      # program beta_hat vs IRLS, relative to 1 + |beta|
SCORE_TOL = 1e-8      # max |X'(y - p)| / n at the reported beta_hat
WALD_RTOL = 1e-9      # normal_intervals endpoints vs reference, in se units
COVERAGE_ATOL = 1e-12
WIDTH_RTOL = 1e-7     # Normal widths: se moves with beta_hat, which the program solves to 1e-10
NEAR_WALD_SIGMAS = 5.0
MAX_FAILURE_RATE = 0.01


def _two_sided(report: dict, key: str) -> np.ndarray:
    return np.array([e["two_sided"] for e in report[key]], dtype=float)


def _one_sided(report: dict, key: str, side: str) -> np.ndarray:
    return np.array([e[side] for e in report[key]], dtype=float)


def beta_matches_reference(report: dict, x, y) -> list[str]:
    beta = np.asarray(report["beta_hat"], dtype=float)
    ref = reference.irls(x, y)
    err = np.abs(beta - ref) / (1.0 + np.abs(ref))
    if not err.max() <= BETA_RTOL:
        return [f"beta_hat differs from IRLS by {err.max():.3e} (relative) > {BETA_RTOL:g}"]
    return []


def score_near_zero(report: dict, x, y) -> list[str]:
    norm = reference.score_norm(x, y, np.asarray(report["beta_hat"], dtype=float))
    if not norm <= SCORE_TOL:
        return [f"score |X'(y-p)|/n = {norm:.3e} at beta_hat > {SCORE_TOL:g}"]
    return []


def normal_intervals_match(report: dict, x, alpha: float) -> list[str]:
    beta = np.asarray(report["beta_hat"], dtype=float)
    ref = reference.wald(x, beta, alpha)
    got = _two_sided(report, "normal_intervals")
    pairs = {
        "lo": (got[:, 0], ref["lo"]),
        "hi": (got[:, 1], ref["hi"]),
        "upper": (_one_sided(report, "normal_intervals", "upper"), ref["upper"]),
        "lower": (_one_sided(report, "normal_intervals", "lower"), ref["lower"]),
    }
    out = []
    for name, (a, b) in pairs.items():
        err = np.abs(a - b) / ref["se"]
        if not err.max() <= WALD_RTOL:
            out.append(f"normal_intervals {name} off beta_hat -/+ z*se by {err.max():.3e} se")
    return out


def pebble_intervals_ordered(report: dict) -> list[str]:
    """lo < hi, and each one-sided bound inside its two-sided interval
    (upper <= hi, lower >= lo), which nearest-rank quantiles guarantee."""
    two = _two_sided(report, "intervals")
    upper = _one_sided(report, "intervals", "upper")
    lower = _one_sided(report, "intervals", "lower")
    out = []
    if not np.all(np.isfinite(two)) or not np.all(two[:, 0] < two[:, 1]):
        out.append("a PEBBLE interval does not have lo < hi")
    if not np.all(upper <= two[:, 1]):
        out.append("a PEBBLE one-sided upper bound exceeds its two-sided hi")
    if not np.all(lower >= two[:, 0]):
        out.append("a PEBBLE one-sided lower bound is below its two-sided lo")
    radius = report.get("region_radius")
    if not (isinstance(radius, float) and math.isfinite(radius) and radius > 0.0):
        out.append(f"region_radius {radius!r} is not a positive number")
    return out


def failed_replicates_reported(report: dict, boot: int) -> list[str]:
    failed = report.get("failed_replicates")
    if not isinstance(failed, int) or isinstance(failed, bool):
        return [f"failed_replicates missing or not an integer: {failed!r}"]
    if not 0 <= failed < MAX_FAILURE_RATE * boot:
        return [f"failed_replicates = {failed} outside [0, {MAX_FAILURE_RATE * boot:g})"]
    return []


def byte_identical(outputs: list[bytes]) -> list[str]:
    bad = [i for i, o in enumerate(outputs) if o != outputs[0]]
    if bad or not outputs or not outputs[0]:
        return [f"reports with the same input and seed differ (calls {bad[:5]})"]
    return []


def near_wald_tolerance(x, y, beta_hat, alpha: float, boot: int, bn: float, d_var) -> np.ndarray:
    """Per-coordinate bound on |PEBBLE endpoint - Wald endpoint| in Wald
    half-widths (derivation in README.md).

    With v_j = (L^-1 D L^-1)_jj / Sigma_jj, the bootstrap pivot has
    variance about 1 + bn^2 v_j, the data-side jitter shifts both endpoints
    by N(0, bn^2 v_j) pivot units, and the nearest-rank quantile of B draws
    has Monte Carlo sd sqrt(g(1-g)/B) / phi(z_g) times the pivot sd.
    """
    n = x.shape[0]
    pr = reference.probs(x, beta_hat)
    l_inv = np.linalg.inv(reference.information(x, beta_hat) / n)
    s = x * (y - pr)[:, None]
    sigma = l_inv @ (s.T @ s / n) @ l_inv
    v = np.diag(l_inv @ np.diag(np.asarray(d_var, dtype=float)) @ l_inv) / np.diag(sigma)
    g = alpha / 2.0
    z = NormalDist().inv_cdf(1.0 - g)
    spread = np.sqrt(1.0 + bn**2 * v)
    mc_sd = math.sqrt(g * (1.0 - g) / boot) / NormalDist().pdf(z) * spread
    return (spread - 1.0) + NEAR_WALD_SIGMAS * np.sqrt(bn**2 * v + mc_sd**2) / z


def pebble_near_wald(report: dict, x, y, alpha: float, boot: int) -> list[str]:
    beta = np.asarray(report["beta_hat"], dtype=float)
    wald = _two_sided(report, "normal_intervals")
    half = (wald[:, 1] - wald[:, 0]) / 2.0
    dev = (np.abs(_two_sided(report, "intervals") - wald) / half[:, None]).max(axis=1)
    cfg = report["config"]
    tol = near_wald_tolerance(x, y, beta, alpha, boot, cfg["bn"], cfg["d_var"])
    bad = np.flatnonzero(dev > tol)
    if bad.size:
        j = int(bad[0])
        return [f"PEBBLE interval {j} is {dev[j]:.3f} Wald half-widths from Wald "
                f"(tolerance {tol[j]:.3f})"]
    return []


def study_complete(study: dict, reps: int) -> list[str]:
    out = []
    if study.get("experiments_used") != reps or study.get("failed_experiments") != 0:
        out.append(f"experiments dropped: used {study.get('experiments_used')} of {reps}, "
                   f"failed {study.get('failed_experiments')}")
    if not isinstance(study.get("bootstrap_failures"), int):
        out.append("bootstrap_failures missing from the coverage report")
    for method in ("pebble", "normal"):
        block = study[method]
        for key, value in block.items():
            if key.endswith("_width"):
                if not value > 0.0:
                    out.append(f"{method}.{key} = {value!r} is not positive")
            elif not 0.0 <= value <= 1.0:
                out.append(f"{method}.{key} = {value!r} is not a coverage fraction")
    return out


def normal_coverage_matches(study: dict, recomputed: dict) -> list[str]:
    out = []
    for key, want in recomputed.items():
        got = study["normal"][key]
        tol = WIDTH_RTOL * abs(want) if key.endswith("_width") else COVERAGE_ATOL
        if not abs(got - want) <= tol:
            out.append(f"normal.{key} = {got!r}, recomputed {want!r}")
    return out


def pebble_coverage_in_band(avg_middles: list[float], per_study: int, nominal: float) -> list[str]:
    """Pooled average middle coverage of studies of ``per_study``
    experiments each, within 3 sqrt(c(1-c)/R) of nominal over all R."""
    reps = len(avg_middles) * per_study
    c = float(np.mean(avg_middles))
    band = 3.0 * math.sqrt(nominal * (1.0 - nominal) / reps)
    if not abs(c - nominal) <= band:
        return [f"PEBBLE average middle coverage {c:.4f} outside {nominal} +/- {band:.4f} "
                f"(R = {reps})"]
    return []

