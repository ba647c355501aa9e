"""Monte Carlo coverage studies over synthetic logistic data.

A scenario fixes (n, p): the true coefficients are the first p entries of
the pool (1, 0.5, -2, -0.75, 1.5, -1, 1.85, -1.6), covariate rows are
multivariate normal with AR-style covariance sigma_ij = 0.5^|i-j|, and the
response is Bernoulli at the model probabilities. Each experiment
generates a dataset, fits the MLE, runs a bootstrap ensemble, and records
containment indicators and widths for every confidence set of both
methods; the report aggregates them into the usual table layout (region,
min-|beta| coordinate, max-|beta| coordinate, coordinate average).

Experiment e draws everything from the substream ("experiment", e) of the
master seed - data from ("data", attempt), and the jitter and replicates
inside ``run_pebble`` - so any single experiment can be replayed in
isolation, and the report is identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    DegenerateResponseError,
    NumericError,
    SeparationError,
    TooManyFailuresError,
)
from .model import Dataset
from .inference import make_intervals, normal_intervals, region_contains, run_pebble
from .rng import RandomStream
from .solver import fit_mle

BETA_POOL = np.array([1.0, 0.5, -2.0, -0.75, 1.5, -1.0, 1.85, -1.6])

MAX_EXPERIMENT_FAILURE_RATE = 0.05


@dataclass(frozen=True)
class Scenario:
    n: int
    p: int
    reps: int = 1000
    boot: int = 1000
    alpha: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.p <= BETA_POOL.size:
            raise ValueError(f"p must be in 1..{BETA_POOL.size}")
        if self.n < self.p + 1:
            raise ValueError("n must exceed p")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.boot < 100:
            raise ValueError("boot must be >= 100")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")

    @property
    def beta_true(self) -> np.ndarray:
        return BETA_POOL[: self.p].copy()

    @property
    def sigma_x(self) -> np.ndarray:
        idx = np.arange(self.p)
        return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def generate_dataset(scn: Scenario, experiment_index: int, stream: RandomStream):
    """One synthetic dataset and the generating coefficients.

    A constant response (possible at small n) is discarded and redrawn
    from the next ("data", attempt) substream; the retry count is returned
    so studies can surface it.
    """
    chol = np.linalg.cholesky(scn.sigma_x)
    beta = scn.beta_true
    retries = 0
    for attempt in range(1000):
        sub = stream.derive("data", attempt)
        x = sub.gaussians((scn.n, scn.p)) @ chol.T
        probs = expit(x @ beta)
        y = (sub.uniforms(scn.n) < probs).astype(float)
        try:
            return Dataset(x=x, y=y), beta, retries
        except DegenerateResponseError:
            retries += 1
    raise DegenerateResponseError(
        f"experiment {experiment_index}: no usable response in 1000 draws"
    )


@dataclass(frozen=True)
class MethodCoverage:
    """Aggregated coverages (and middle widths) for one method."""

    region_lower: float
    min_middle: float
    min_middle_width: float
    min_upper: float
    min_lower: float
    max_middle: float
    max_middle_width: float
    max_upper: float
    max_lower: float
    avg_middle: float
    avg_middle_width: float
    avg_upper: float
    avg_lower: float

    def as_dict(self) -> dict:
        return {
            "beta_lower_region": self.region_lower,
            "beta_min_middle": self.min_middle,
            "beta_min_middle_width": self.min_middle_width,
            "beta_min_upper": self.min_upper,
            "beta_min_lower": self.min_lower,
            "beta_max_middle": self.max_middle,
            "beta_max_middle_width": self.max_middle_width,
            "beta_max_upper": self.max_upper,
            "beta_max_lower": self.max_lower,
            "beta_avg_middle": self.avg_middle,
            "beta_avg_middle_width": self.avg_middle_width,
            "beta_avg_upper": self.avg_upper,
            "beta_avg_lower": self.avg_lower,
        }


@dataclass(frozen=True)
class CoverageReport:
    scenario: Scenario
    pebble: MethodCoverage
    normal: MethodCoverage
    experiments_used: int
    failed_experiments: int
    degenerate_retries: int
    bootstrap_failures: int

    def as_dict(self) -> dict:
        return {
            "scenario": {
                "n": self.scenario.n,
                "p": self.scenario.p,
                "reps": self.scenario.reps,
                "boot": self.scenario.boot,
                "alpha": self.scenario.alpha,
                "seed": self.scenario.seed,
            },
            "pebble": self.pebble.as_dict(),
            "normal": self.normal.as_dict(),
            "experiments_used": self.experiments_used,
            "failed_experiments": self.failed_experiments,
            "degenerate_retries": self.degenerate_retries,
            "bootstrap_failures": self.bootstrap_failures,
        }


def _run_experiment(scn: Scenario, e: int):
    """Indicator vectors for one experiment, or None when it fails
    (separation at the fit, or a too-lossy ensemble)."""
    exp = RandomStream(scn.seed).derive("experiment", e)
    data, beta_true, retries = generate_dataset(scn, e, exp)
    try:
        fitted = fit_mle(data)
    except SeparationError:
        return None
    try:
        ensemble = run_pebble(data, fitted, scn.boot, exp)
        out = {"retries": retries, "boot_failures": ensemble.failed_replicates}
        iv = make_intervals(fitted, ensemble, scn.alpha)
        out["pebble"] = _indicators(
            iv, beta_true, region=region_contains(beta_true, fitted, ensemble, scn.alpha)
        )
        niv = normal_intervals(fitted, scn.alpha)
        d = fitted.beta_hat - beta_true  # ||sqrt(n) L̂^{1/2} d|| = sqrt(n d'L̂d)
        out["normal"] = _indicators(
            niv, beta_true,
            region=bool(np.sqrt(scn.n * (d @ fitted.l_hat @ d)) <= niv.region_radius),
        )
    except NumericError:
        # TooManyFailures from the ensemble, or a singular pivot matrix on
        # a near-separated fit: the experiment is dropped and counted.
        return None
    return out


def _indicators(iv, beta_true, region: bool) -> dict:
    lo, hi = iv.two_sided[:, 0], iv.two_sided[:, 1]
    return {
        "middle": (lo <= beta_true) & (beta_true <= hi),
        "width": hi - lo,
        "upper": beta_true <= iv.upper,
        "lower": beta_true >= iv.lower,
        "region": region,
    }


def _aggregate(rows: list[dict], jmin: int, jmax: int) -> MethodCoverage:
    middle = np.array([r["middle"] for r in rows], dtype=float)
    width = np.array([r["width"] for r in rows], dtype=float)
    upper = np.array([r["upper"] for r in rows], dtype=float)
    lower = np.array([r["lower"] for r in rows], dtype=float)
    region = np.array([r["region"] for r in rows], dtype=float)
    return MethodCoverage(
        region_lower=float(region.mean()),
        min_middle=float(middle[:, jmin].mean()),
        min_middle_width=float(width[:, jmin].mean()),
        min_upper=float(upper[:, jmin].mean()),
        min_lower=float(lower[:, jmin].mean()),
        max_middle=float(middle[:, jmax].mean()),
        max_middle_width=float(width[:, jmax].mean()),
        max_upper=float(upper[:, jmax].mean()),
        max_lower=float(lower[:, jmax].mean()),
        avg_middle=float(middle.mean()),
        avg_middle_width=float(width.mean()),
        avg_upper=float(upper.mean()),
        avg_lower=float(lower.mean()),
    )


def run_coverage_study(scn: Scenario, workers: int = 1) -> CoverageReport:
    """Run the scenario's Monte Carlo experiments and aggregate coverages.

    Experiments are independent; ``workers`` > 1 fans them out over
    processes. Results are reduced in experiment order, so the report is a
    deterministic function of the scenario alone. Raises TooManyFailuresError
    when ``MAX_EXPERIMENT_FAILURE_RATE`` of the reps or more are dropped.
    """
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(_run_experiment, [scn] * scn.reps, range(scn.reps),
                         chunksize=max(1, scn.reps // (8 * workers)))
            )
    else:
        results = [_run_experiment(scn, e) for e in range(scn.reps)]

    kept = [r for r in results if r is not None]
    failed = scn.reps - len(kept)
    if failed / scn.reps >= MAX_EXPERIMENT_FAILURE_RATE:
        raise TooManyFailuresError(
            f"{failed} of {scn.reps} experiments failed (separation-heavy scenario)"
        )
    beta_true = scn.beta_true
    jmin = int(np.argmin(np.abs(beta_true)))
    jmax = int(np.argmax(np.abs(beta_true)))
    return CoverageReport(
        scenario=scn,
        pebble=_aggregate([r["pebble"] for r in kept], jmin, jmax),
        normal=_aggregate([r["normal"] for r in kept], jmin, jmax),
        experiments_used=len(kept),
        failed_experiments=failed,
        degenerate_retries=int(sum(r["retries"] for r in kept)),
        bootstrap_failures=int(sum(r["boot_failures"] for r in kept)),
    )
