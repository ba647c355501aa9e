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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateResponseError,
    NumericError,
    TooManyFailuresError,
    UsageError,
)
from .model import Dataset, expit
from .inference import MIN_BOOTSTRAP, make_intervals, normal_intervals, region_contains, run_pebble
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
            raise UsageError(f"p must be in 1..{BETA_POOL.size}")
        if self.n < self.p + 1:
            raise UsageError("n must exceed p")
        if self.reps < 1:
            raise UsageError("reps must be >= 1")
        if self.boot < MIN_BOOTSTRAP:
            raise UsageError(f"boot must be >= {MIN_BOOTSTRAP}")
        if not 0.0 < self.alpha <= 0.5:
            raise UsageError("alpha must lie in (0, 0.5]")

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
        gen = stream.derive("data", attempt).generator
        x = gen.standard_normal((scn.n, scn.p)) @ chol.T
        probs = expit(x @ beta)
        y = (gen.random(scn.n) < probs).astype(float)
        try:
            return Dataset(x=x, y=y), beta, retries
        except DegenerateResponseError:
            retries += 1
    raise DegenerateResponseError(
        f"experiment {experiment_index}: no usable response in 1000 draws"
    )


@dataclass(frozen=True)
class CoverageReport:
    """A study's scenario and counts, with each method's coverage table
    keyed as in the JSON report (see ``_aggregate``)."""

    scenario: Scenario
    pebble: dict
    normal: dict
    experiments_used: int
    failed_experiments: int
    degenerate_retries: int
    bootstrap_failures: int

    def as_dict(self) -> dict:
        return asdict(self)


def _run_experiment(scn: Scenario, e: int):
    """Indicator vectors for one experiment, or None when it fails."""
    exp = RandomStream(scn.seed).derive("experiment", e)
    data, beta_true, retries = generate_dataset(scn, e, exp)
    try:
        fitted = fit_mle(data)
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
        # Separation at the fit, TooManyFailures from the ensemble, or a
        # singular pivot matrix on a near-separated fit: the experiment is
        # dropped and counted.
        return None
    return out


def _indicators(iv, beta_true, region: bool) -> dict:
    lo, hi = iv.two_sided[:, 0], iv.two_sided[:, 1]
    return {
        "middle": (lo <= beta_true) & (beta_true <= hi),
        "middle_width": hi - lo,
        "upper": beta_true <= iv.upper,
        "lower": beta_true >= iv.lower,
        "region": region,
    }


def _aggregate(rows: list[dict], jmin: int, jmax: int) -> dict:
    """One method's coverage table, keyed as in the report: the region,
    then the middle interval, its width and the two one-sided sets for the
    min-|beta| coordinate, the max-|beta| coordinate and the average over
    coordinates."""
    region = np.array([r["region"] for r in rows], dtype=float)
    sets = {k: np.array([r[k] for r in rows], dtype=float)
            for k in ("middle", "middle_width", "upper", "lower")}
    table = {"beta_lower_region": float(region.mean())}
    for label, cols in (("min", jmin), ("max", jmax), ("avg", slice(None))):
        for key, values in sets.items():
            table[f"beta_{label}_{key}"] = float(values[:, cols].mean())
    return table


def run_coverage_study(scn: Scenario, workers: int = 1) -> CoverageReport:
    """Run the scenario's Monte Carlo experiments and aggregate coverages.

    Experiments are independent; ``workers`` > 1 fans them out over
    processes. Results are reduced in experiment order, so the report is a
    deterministic function of the scenario alone. Raises TooManyFailuresError
    when ``MAX_EXPERIMENT_FAILURE_RATE`` of the reps or more are dropped,
    and UsageError when workers < 1 or the seed lies outside [0, 2^64),
    before any worker starts.
    """
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    RandomStream(scn.seed)  # checks the seed before any experiment runs
    if workers > 1:
        # Imported only here, so that a one-process study or a CLI call never
        # loads concurrent.futures.
        from concurrent.futures import ProcessPoolExecutor

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
