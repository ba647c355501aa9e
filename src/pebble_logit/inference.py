"""Bootstrap ensembles, quantiles, and confidence sets.

``run_pebble`` drives B perturbation-bootstrap replicates. It first draws
the data-side jitter Z, once per run, through ``pivots.draw_smoothing``
(substream ``smooth``, index 0, of the stream it is given) and keeps it
on the ensemble, since every interval endpoint reuses it. Replicate r
draws its weights and its jitter Z* from the substream ``("boot", r)``,
so the ensemble is a deterministic function of (data, seed, B) no matter
how the replicates are scheduled; a replicate that fails to solve is
retried once with fresh weights from its own substream and then counted
out.

Interval endpoints follow the percentile-t construction: for coordinate j
with sandwich scale s_j = Σ̂_jj^{1/2} and bootstrap coordinate-pivot
quantile q_γ, the endpoint is ``β̂_j - s_j (q_γ - corr_j)/sqrt(n)`` where
``corr_j = b (L̂^{-1} Z)_j / s_j`` re-centers by the realized data-side
jitter. The two-sided interval uses γ = α/2 and 1 - α/2; the one-sided
intervals use γ = α (upper) and γ = 1 - α (lower). The confidence region
is the set of β whose smoothed-pivot norm is at most the (1-α) quantile
of the bootstrap pivot norms.

All bootstrap quantiles are nearest-rank order statistics: the
``ceil(m * γ)``-th smallest of m samples.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import parent_process

import numpy as np
from scipy.special import chdtri, expit, ndtri

from .errors import EmptySampleError, SeparationError, SingularMatrixError, TooManyFailuresError
from .model import Dataset
from .perturb import DEFAULT_WEIGHTS, _solve_replicate
from .pivots import SmoothingConfig, _star_bundle, draw_smoothing, pivot_smoothed
from .rng import RandomStream, ScratchStream
from .solver import FittedModel

MIN_BOOTSTRAP = 100
MAX_FAILURE_RATE = 0.01
# On a 2-CPU host two threads took 0.85-0.87 of one thread's time at
# n = 2000 (p = 4 and 11), tied at 1500 and lost at 1000 and below.
_THREADS_MIN_N = 2000


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Surviving replicates of one bootstrap run, stored columnwise."""

    coord_pivots: np.ndarray  # (kept, p) scalar pivots per coordinate
    h_norms: np.ndarray       # (kept,) norms of the vector pivots
    beta_stars: np.ndarray    # (kept, p) replicate coefficients
    failed_replicates: int
    b: int
    seed: int
    smoothing: SmoothingConfig

    @property
    def n_reps(self) -> int:
        return self.h_norms.shape[0]


@dataclass(frozen=True)
class IntervalSet:
    """Per-coordinate confidence intervals plus the region radius.

    ``two_sided[j]`` is (lo, hi); ``upper[j]`` is the finite end of the
    one-sided interval (-inf, hi]; ``lower[j]`` of [lo, inf). ``alpha`` is
    the non-coverage level (0.1 for 90% sets).
    """

    alpha: float
    two_sided: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    region_radius: float


def quantile(samples, alpha: float) -> float:
    """Nearest-rank quantile: the ceil(m*alpha)-th smallest of m samples."""
    a = np.asarray(samples, dtype=float).ravel()
    if a.size == 0:
        raise EmptySampleError("cannot take a quantile of an empty sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    k = min(max(int(np.ceil(a.size * alpha)), 1), a.size)
    return float(np.partition(a, k - 1)[k - 1])


def _replicate_threads(n: int) -> int:
    """Threads for the replicate loop: the CPUs this process may use once
    n reaches ``_THREADS_MIN_N``, else 1. A coverage-study worker process
    always gets 1, since its sibling workers already hold the other CPUs."""
    if n < _THREADS_MIN_N or parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pebble(
    data: Dataset,
    fitted: FittedModel,
    b: int,
    seed,
    bn: float | None = None,
    d_var=None,
) -> BootstrapEnsemble:
    """Run b bootstrap replicates and collect their pivot statistics.

    ``seed`` may be an integer or a RandomStream; replicate r always uses
    the substream ("boot", r) of it, at any thread count. ``bn`` and
    ``d_var`` override the default smoothing bandwidth and jitter variances;
    the smoothing drawn is kept as ``ensemble.smoothing``. Raises
    TooManyFailuresError when ``MAX_FAILURE_RATE`` of b or more fail.
    """
    if b < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} bootstrap replicates, got {b}")
    stream = seed if isinstance(seed, RandomStream) else RandomStream(int(seed))
    cfg = draw_smoothing(stream, data.n, data.p, bn, d_var)
    x, y = data.x, data.y
    n, p = data.n, data.p
    beta_hat = fitted.beta_hat
    p_hat = expit(x @ beta_hat)
    lin0 = x.T @ p_hat
    s = x * (y - p_hat)[:, None]
    mu = DEFAULT_WEIGHTS.mu
    sqrt_d = np.sqrt(cfg.d_var)

    coord = np.empty((b, p))
    norms = np.empty(b)
    stars = np.empty((b, p))
    ok = np.zeros(b, dtype=bool)

    def run_chunk(indices):
        # One scratch generator per worker; draws are identical to
        # stream.derive("boot", r).generator by ScratchStream's contract.
        scratch = ScratchStream()
        for r in indices:
            gen = scratch.rekey(stream, "boot", r)
            beta_star = None
            for _ in range(2):
                weights = DEFAULT_WEIGHTS.draw(gen, n)
                nu = (weights - mu) / mu
                try:
                    beta_star = _solve_replicate(x, lin0, s, beta_hat, nu)
                    break
                except SeparationError:
                    continue
            if beta_star is None:
                continue
            z_star = gen.standard_normal(p) * sqrt_d
            try:
                bundle = _star_bundle(x, s, beta_hat, beta_star, nu, cfg.bn, z_star)
            except SingularMatrixError:
                continue
            coord[r] = bundle.coord_pivots
            norms[r] = bundle.h_norm
            stars[r] = beta_star
            ok[r] = True

    threads = _replicate_threads(n)
    if threads > 1:
        chunks = [range(i, b, threads) for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, chunks))
    else:
        run_chunk(range(b))

    failed = int(b - ok.sum())
    if failed / b >= MAX_FAILURE_RATE:
        raise TooManyFailuresError(
            f"{failed} of {b} replicates failed; quantiles would be biased"
        )
    return BootstrapEnsemble(
        coord_pivots=coord[ok],
        h_norms=norms[ok],
        beta_stars=stars[ok],
        failed_replicates=failed,
        b=b,
        seed=stream.seed,
        smoothing=cfg,
    )


def make_intervals(fitted: FittedModel, ensemble: BootstrapEnsemble, alpha: float) -> IntervalSet:
    """Percentile-t intervals for every coordinate plus the region radius."""
    cfg = ensemble.smoothing
    beta_hat = fitted.beta_hat
    p = beta_hat.shape[0]
    sqn = np.sqrt(fitted.n)
    sj = np.sqrt(np.diag(fitted.sigma_hat))
    corr = cfg.bn * (fitted.l_hat_inv @ cfg.z_original) / sj
    two_sided = np.empty((p, 2))
    upper = np.empty(p)
    lower = np.empty(p)
    for j in range(p):
        pivots_j = ensemble.coord_pivots[:, j]
        l1 = quantile(pivots_j, alpha / 2) - corr[j]
        u1 = quantile(pivots_j, 1 - alpha / 2) - corr[j]
        two_sided[j, 0] = beta_hat[j] - sj[j] * u1 / sqn
        two_sided[j, 1] = beta_hat[j] - sj[j] * l1 / sqn
        l2 = quantile(pivots_j, alpha) - corr[j]
        u2 = quantile(pivots_j, 1 - alpha) - corr[j]
        upper[j] = beta_hat[j] - sj[j] * l2 / sqn
        lower[j] = beta_hat[j] - sj[j] * u2 / sqn
    radius = quantile(ensemble.h_norms, 1 - alpha)
    return IntervalSet(
        alpha=alpha, two_sided=two_sided, upper=upper, lower=lower, region_radius=radius
    )


def region_contains(beta0, fitted: FittedModel, ensemble: BootstrapEnsemble, alpha: float) -> bool:
    """Is beta0 inside the (1-alpha) confidence region?"""
    bundle = pivot_smoothed(fitted, beta0, ensemble.smoothing)
    return bool(bundle.h_norm <= quantile(ensemble.h_norms, 1 - alpha))


def normal_intervals(fitted: FittedModel, alpha: float) -> IntervalSet:
    """Wald baseline: information-based standard errors and a chi-square
    region radius for the L̂^{1/2}-studentized pivot."""
    beta_hat = fitted.beta_hat
    p = beta_hat.shape[0]
    se = np.sqrt(np.diag(fitted.l_hat_inv) / fitted.n)
    z_two = float(ndtri(1 - alpha / 2))
    z_one = float(ndtri(1 - alpha))
    two_sided = np.column_stack([beta_hat - z_two * se, beta_hat + z_two * se])
    upper = beta_hat + z_one * se
    lower = beta_hat - z_one * se
    radius = float(np.sqrt(chdtri(p, alpha)))
    return IntervalSet(
        alpha=alpha, two_sided=two_sided, upper=upper, lower=lower, region_radius=radius
    )
