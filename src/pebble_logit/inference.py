"""Bootstrap ensembles, quantiles, and confidence sets.

``run_pebble`` drives B perturbation-bootstrap replicates. It first draws
the data-side jitter Z, once per run, through ``pivots.draw_smoothing``
(substream ``smooth``, index 0, of the stream it is given) and keeps it
on the ensemble, since every interval endpoint reuses it. Replicate r
takes its weights and its jitter Z* from one block of
M = ``perturb._block_size(n, p)`` uniforms, the values [rM, (r+1)M) of the
substream ``("boot", 0)``, and it is solved once. A replicate whose
estimating equation has no root, or whose L* or M* is singular, or whose pivot
overflows, is dropped and counted: a redraw kept only when it solves would
leave the survivors' law unchanged (G* conditioned on the equation having
a root) and hide the loss from the ``MAX_FAILURE_RATE`` guard.

The replicates run in chunks of k, drawn by one call each
(``perturb._replicate_draws``) and solved and pivoted by one batched call
each (``perturb._solve_replicate``, then ``pivots._star_bundle`` for the
rows that solved). k comes from (n, p) alone, by ``_chunk_size``: a
chunk's largest array, its (k, M) uniform block, stays within the one
byte budget ``model._CHUNK_BYTES`` (256 KiB), which also bounds
``weighted_gram``'s own temporary. From n = 2000 on, threads take
whole chunks. Every per-replicate product is stacked so that a
replicate's bytes do not depend on its chunk-mates, so the ensemble is a
deterministic function of (data, seed, B) at any chunk size and thread
count.

Interval endpoints follow the percentile-t construction: for coordinate j
with sandwich scale s_j = Σ̂_jj^{1/2} and bootstrap coordinate-pivot
quantile q_γ, the endpoint is ``β̂_j - s_j (q_γ - corr_j)/sqrt(n)`` where
``corr_j = b (L̂^{-1} Z)_j / s_j`` re-centers by the realized data-side
jitter. The two-sided interval uses γ = α/2 and 1 - α/2; the one-sided
intervals use γ = α (upper) and γ = 1 - α (lower). The confidence region
is the set of β whose smoothed-pivot norm is at most the (1-α) quantile
of the bootstrap pivot norms.

All bootstrap quantiles are nearest-rank order statistics: the
``ceil(m * γ)``-th smallest of m samples, the rank clamped to 1..m.
``make_intervals`` sorts the coordinate pivots once and reads all 4p
endpoint quantiles from that sort; it checks α once, so at an α whose
1 - α/2 rounds to 1 the endpoints are the extreme order statistics.

The Wald baseline, ``normal_intervals``, takes its normal quantiles from
``statistics.NormalDist`` and its region radius from
``chi2_upper_quantile``, a chi-square quantile for integer degrees of
freedom built on ``math``, so the package needs no scipy at run time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import TooManyFailuresError, UsageError
from .model import _CHUNK_BYTES, Dataset, expit
from .perturb import _block_size, _replicate_draws, _solve_replicate
from .pivots import SmoothingConfig, _star_bundle, draw_smoothing, pivot_smoothed
from .rng import RandomStream, ScratchStream
from .solver import FittedModel, _start_state

MIN_BOOTSTRAP = 100
MAX_FAILURE_RATE = 0.01
# On a 2-CPU host two threads took 0.85-0.87 of one thread's time at
# n = 2000 (p = 4 and 11), tied at 1500 and lost at 1000 and below.
_THREADS_MIN_N = 2000
_MAX_CHUNK = 256


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Surviving replicates of one bootstrap run, stored columnwise.

    A replicate that failed, at its solve or at its pivot, is dropped and
    counted once in ``failed_replicates``; the kept rows are the others,
    in replicate order."""

    coord_pivots: np.ndarray  # (kept, p) scalar pivots per coordinate
    h_norms: np.ndarray       # (kept,) norms of the vector pivots
    beta_stars: np.ndarray    # (kept, p) replicate coefficients
    failed_replicates: int
    b: int
    seed: int
    smoothing: SmoothingConfig


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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie in (0, 1)")


def _interval_set(alpha: float, ends: np.ndarray, radius: float) -> IntervalSet:
    """An IntervalSet from its (4, p) endpoints, one row per pivot quantile
    level: γ = 1 - α/2 and α/2 give the two-sided lo and hi, α the upper
    end and 1 - α the lower end."""
    lo, hi, upper, lower = ends
    return IntervalSet(alpha=alpha, two_sided=np.column_stack([lo, hi]), upper=upper,
                       lower=lower, region_radius=radius)


def _nearest_rank(samples: np.ndarray, levels) -> np.ndarray:
    """The ceil(m*γ)-th smallest of the m samples along axis 0, the rank
    clamped to 1..m, with one row per level γ. The samples are sorted once;
    an empty sample, which only a hand-built ensemble holds, is a UsageError."""
    m = samples.shape[0]
    if m == 0:
        raise UsageError("cannot take a quantile of an empty sample")
    ranks = np.clip(np.ceil(m * np.asarray(levels)).astype(int), 1, m)
    return np.sort(samples, axis=0)[ranks - 1]


def _replicate_threads(n: int) -> int:
    """Threads for the replicate loop: the CPUs this process may use once
    n reaches ``_THREADS_MIN_N``, else 1. A coverage-study worker process
    always gets 1, since its sibling workers already hold the other CPUs."""
    if n < _THREADS_MIN_N:
        return 1
    # Imported past the n test, like the thread pool in run_pebble: a small
    # run never loads multiprocessing or concurrent.futures.
    from multiprocessing import parent_process

    if parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_size(n: int, p: int) -> int:
    """Replicates per batched call: as many as keep the (k, M) uniform block
    of ``_replicate_draws`` within ``_CHUNK_BYTES``, between 1 and
    ``_MAX_CHUNK``. With M >= 2n that also bounds the chunk's (k, n)
    arrays; ``weighted_gram`` bounds its own (·, p, ·) temporary. It
    depends on (n, p) alone, and no output depends on it."""
    return min(max(_CHUNK_BYTES // (8 * _block_size(n, p)), 1), _MAX_CHUNK)


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
    its own block of the substream ("boot", 0), at any chunk size and
    thread count, and is solved once: a replicate that fails is dropped and
    counted. ``bn`` and ``d_var`` override the default smoothing bandwidth
    and jitter variances; the smoothing drawn is kept as
    ``ensemble.smoothing``. Raises
    UsageError when b < ``MIN_BOOTSTRAP``, the seed is outside [0, 2^64)
    or ``draw_smoothing`` rejects ``bn`` or ``d_var``, and TooManyFailuresError when
    ``MAX_FAILURE_RATE`` of b or more fail.
    """
    if b < MIN_BOOTSTRAP:
        raise UsageError(f"need at least {MIN_BOOTSTRAP} bootstrap replicates, got {b}")
    stream = seed if isinstance(seed, RandomStream) else RandomStream(int(seed))
    cfg = draw_smoothing(stream, data.n, data.p, bn, d_var)
    x, y = data.x, data.y
    n, p = data.n, data.p
    beta_hat = fitted.beta_hat
    p_hat = expit(x @ beta_hat)
    lin0 = x.T @ p_hat
    s = x * (y - p_hat)[:, None]
    # Every replicate's Newton solve starts at β̂, so its first round is
    # built once here and shared by every chunk and thread.
    start = _start_state(x, beta_hat)
    sqrt_d = np.sqrt(cfg.d_var)

    coord = np.full((b, p), np.nan)
    norms = np.full(b, np.nan)
    stars = np.full((b, p), np.nan)

    def run_chunks(chunks):
        # One scratch generator per worker, re-keyed to ("boot", 0) once per
        # chunk; _replicate_draws skips to the chunk's first block.
        scratch = ScratchStream()
        for reps in chunks:
            nu, z = _replicate_draws(scratch.rekey(stream, "boot", 0), reps, n, p)
            z_star = z * sqrt_d
            beta_star, solved = _solve_replicate(x, lin0, s, start, nu)
            # A full slice while every row solved keeps the rows views.
            rows = slice(None) if solved.all() else np.flatnonzero(solved)
            dest = np.asarray(reps)[rows]
            coord[dest], norms[dest] = _star_bundle(
                x, s, beta_hat, beta_star[rows], nu[rows], cfg.bn, z_star[rows])
            stars[dest] = beta_star[rows]

    size = _chunk_size(n, p)
    chunks = [range(i, min(i + size, b)) for i in range(0, b, size)]
    threads = _replicate_threads(n)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunks, [chunks[i::threads] for i in range(threads)]))
    else:
        run_chunks(chunks)

    # The one failure test: a failed solve, a singular L* or M*, and an
    # overflowed pivot all leave a non-finite row.
    ok = np.isfinite(norms) & np.isfinite(coord).all(axis=1)
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
    """Percentile-t intervals for every coordinate plus the region radius.
    Raises UsageError unless 0 < alpha < 1."""
    _check_alpha(alpha)
    cfg = ensemble.smoothing
    sj = np.sqrt(np.diag(fitted.sigma_hat))
    corr = cfg.bn * (fitted.l_hat_inv @ cfg.z_original) / sj
    levels = [1 - alpha / 2, alpha / 2, alpha, 1 - alpha]  # rows of _interval_set
    q = _nearest_rank(ensemble.coord_pivots, levels) - corr
    radius = float(_nearest_rank(ensemble.h_norms, [1 - alpha])[0])
    return _interval_set(alpha, fitted.beta_hat - sj * q / np.sqrt(fitted.n), radius)


def region_contains(beta0, fitted: FittedModel, ensemble: BootstrapEnsemble, alpha: float) -> bool:
    """Is beta0 inside the (1-alpha) confidence region? Raises UsageError
    unless 0 < alpha < 1."""
    _check_alpha(alpha)
    _, h_norm = pivot_smoothed(fitted, beta0, ensemble.smoothing)
    return bool(h_norm <= _nearest_rank(ensemble.h_norms, [1 - alpha])[0])


def normal_intervals(fitted: FittedModel, alpha: float) -> IntervalSet:
    """Wald baseline: information-based standard errors and a chi-square
    region radius for the L̂^{1/2}-studentized pivot. Raises UsageError
    unless 0 < alpha < 1.

    The normal quantiles are taken at the upper-tail probabilities alpha/2
    and alpha themselves, which are exact, rather than at 1 - alpha/2 and
    1 - alpha, which round."""
    _check_alpha(alpha)
    se = np.sqrt(np.diag(fitted.l_hat_inv) / fitted.n)
    z_two = -NormalDist().inv_cdf(alpha / 2)
    z_one = -NormalDist().inv_cdf(alpha)
    q = np.array([[z_two], [-z_two], [-z_one], [z_one]])
    radius = math.sqrt(chi2_upper_quantile(se.shape[0], alpha))
    return _interval_set(alpha, fitted.beta_hat - q * se, radius)


def chi2_upper_quantile(p: int, alpha: float) -> float:
    """The x with P(chi-square_p > x) = alpha, for integer p >= 1 and
    0 < alpha < 1.

    With h = x/2 and terms t(b) = h^b e^{-h} / Gamma(b + 1), summed in log
    space: P(chi-square_p > x) is erfc(sqrt h) when p is odd (else 0) plus
    t(b) over b = p/2 - 1, p/2 - 2, ... >= 0, and P(chi-square_p <= x) is
    t(b) over b = p/2, p/2 + 1, .... The equation solved is the one for
    the tail of mass at most 1/2, which 1 - alpha would otherwise round.
    The root is bracketed and bisected down to adjacent doubles.
    """
    a = p / 2

    def term(b: float, h: float) -> float:
        return math.exp(b * math.log(h) - h - math.lgamma(b + 1))

    def above(x: float) -> bool:
        """Is x at or above the quantile?"""
        h = x / 2
        if alpha <= 0.5:
            tail = math.erfc(math.sqrt(h)) if p % 2 else 0.0
            return tail + sum(term(a - 1 - j, h) for j in range(p // 2)) <= alpha
        total, b = 0.0, a
        while True:  # the terms fall from b > h on
            t = term(b, h)
            total += t
            if b > h and t <= 1e-17 * total:
                return total >= 1.0 - alpha
            b += 1

    hi = float(p)
    while not above(hi):
        hi *= 2
    lo = 0.0
    for _ in range(2100):  # the width halves from under 2^1024 to 2^-1074
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return hi
