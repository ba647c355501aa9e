"""Smoothed studentized pivots on both sides of the bootstrap.

The data-side pivot adds an independent Gaussian jitter to defeat the
lattice structure of binary-response sums:

    Ȟ  = M̂^{-1/2} [ sqrt(n) L̂ (β̂ - β0) + b Z ],        Z ~ N(0, D)

and the bootstrap side mirrors it with the replicate's own matrices:

    Ȟ* = M̂*^{-1/2} [ sqrt(n) L* (β̂* - β̂) + b Z* ],     Z* ~ N(0, D)

where L* is the information matrix at β̂* and M̂* reweights the sandwich
middle by the squared centered-scaled weights: with the residual-scaled
rows s_i = (y_i - p̂_i) x_i and ν = (G* - mu)/mu, M̂* = n^{-1} s' diag(ν²) s,
the ν²-weighted gram of s (``model.weighted_gram``). Per-coordinate scalar
pivots studentize by the corresponding sandwich diagonal and carry the
jitter through L^{-1}:

    Ȟ_j = [ sqrt(n)(β̂_j - β0_j) + b (L̂^{-1} Z)_j ] / Σ̂_jj^{1/2}

One Z is drawn per inference run, by :func:`draw_smoothing`, and persisted
in the smoothing configuration, because the confidence-interval endpoints
reuse the same realized draw; one Z* is drawn per replicate.

The region needs only the norm ||Ȟ||, never the vector. For the Cholesky
factor M = C C', ||M^{-1/2} v|| = ||C^{-1} v||, so the code evaluates the
norm as ||C^{-1} v|| and never forms M^{-1/2}; the sandwich diagonal
Σ*_jj on the bootstrap side is the j-th row sum of (L*^{-1} C)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, UsageError
from .linalg import spd_factor, sym_inverse
from .model import info_matrix, weighted_gram
from .rng import RandomStream
from .solver import FittedModel


def default_bn(n: int, p: int) -> float:
    """Default smoothing bandwidth, 0.5 * n^{-1/(p1+1)} with p1 = max(p+1, 4).

    The scale is calibrated so that, with the default N(0, I/4) jitter,
    desk-scale coverage and interval width reproduce the reference Monte
    Carlo results; the p1 clamp makes the bandwidth dimension-aware only
    above p = 3.
    """
    if n < 2 or p < 1:
        raise UsageError("need n >= 2 and p >= 1")
    p1 = max(p + 1, 4)
    return 0.5 * float(n) ** (-1.0 / (p1 + 1))


def default_d_var(p: int) -> np.ndarray:
    """Default diagonal of the jitter covariance: I_p / 4."""
    return np.full(p, 0.25)


@dataclass(frozen=True)
class SmoothingConfig:
    """Bandwidth, jitter covariance diagonal, and the realized data-side
    jitter draw (persisted because interval endpoints reuse it)."""

    bn: float
    d_var: np.ndarray
    z_original: np.ndarray


def draw_smoothing(
    stream: RandomStream, n: int, p: int, bn: float | None = None, d_var=None
) -> SmoothingConfig:
    """The smoothing of one inference run: ``bn`` and ``d_var`` default to
    :func:`default_bn` and :func:`default_d_var`, and Z ~ N(0, diag(d_var))
    is drawn from the substream ``smooth``, index 0, of ``stream``.

    Z has a density only for a finite bn > 0 and a positive definite
    D = diag(d_var), so anything else raises UsageError. A single
    ``d_var`` value is used for all p coordinates.
    """
    bn = default_bn(n, p) if bn is None else bn
    if not (math.isfinite(bn) and bn > 0.0):
        raise UsageError(f"bn must be finite and > 0, got {bn}")
    d = default_d_var(p) if d_var is None else np.asarray(d_var, dtype=float)
    if d.size == 1:
        d = np.full(p, d.item())
    if d.shape != (p,) or not np.all(np.isfinite(d) & (d > 0.0)):
        raise UsageError(f"d_var needs 1 or {p} values, all finite and > 0, got {d_var}")
    z = stream.derive("smooth", 0).generator.standard_normal(p) * np.sqrt(d)
    return SmoothingConfig(bn=bn, d_var=d, z_original=z)


def pivot_smoothed(fitted: FittedModel, beta0, cfg: SmoothingConfig):
    """Data-side coordinate pivots (p,) and ||Ȟ|| at the hypothesized beta0."""
    delta = fitted.beta_hat - np.asarray(beta0, dtype=float)
    coord, norms = _bundle(delta[None], fitted.l_hat[None], fitted.l_hat_inv[None],
                           spd_factor(fitted.m_hat)[None], np.diag(fitted.sigma_hat)[None],
                           fitted.n, cfg.bn, cfg.z_original[None])
    return coord[0], float(norms[0])


def _star_bundle(x, s, beta_hat, beta_star, nu, bn, z_star):
    """Bootstrap-side smoothed pivots for a chunk of k solved replicates,
    the only ones in the package; ``s`` is the matrix of residual-scaled
    rows (y - p̂)x built once per dataset, column-major like x (as
    ``weighted_gram`` needs), and ``beta_star`` (k, p), ``nu`` (k, n) and
    ``z_star`` (k, p) hold one replicate per row; k may be 0.
    Returns the coordinate pivots (k, p) and the norms ||Ȟ*|| (k,); a row
    whose L* or M* fails the singularity rule holds NaN in both. A stacked
    factorization fails for the whole stack when one matrix is singular, so
    that case is redone row by row; row r's bytes do not depend on the
    other rows either way."""
    n, k = x.shape[0], beta_star.shape[0]
    l_star = info_matrix(beta_star, x)
    try:
        m_factor = spd_factor(weighted_gram(s, nu * nu) / n)
        l_star_inv = sym_inverse(l_star)
    except SingularMatrixError:
        if k == 1:
            return np.full((1, x.shape[1]), np.nan), np.full(1, np.nan)
        rows = [_star_bundle(x, s, beta_hat, beta_star[r:r + 1], nu[r:r + 1], bn,
                             z_star[r:r + 1]) for r in range(k)]
        return tuple(np.concatenate(parts) for parts in zip(*rows))
    sigma_diag = np.square(l_star_inv @ m_factor).sum(axis=-1)
    return _bundle(beta_star - beta_hat, l_star, l_star_inv, m_factor, sigma_diag, n, bn, z_star)


def _bundle(delta, l, l_inv, m_factor, sigma_diag, n, bn, z):
    """The coordinate pivots and ||Ȟ|| from one side's matrices, with M's
    Cholesky factor and Σ's diagonal, as in the module docstring, for a
    stack of k cases (delta, z (k, p); matrices (k, p, p); sigma_diag
    (k, p)). A huge bn can overflow them to inf or nan, which
    ``run_pebble`` counts as a failed replicate."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.sqrt(n) * (l @ delta[:, :, None]) + bn * z[:, :, None]
        h = np.linalg.solve(m_factor, v)[:, :, 0]
        norms = np.sqrt((h * h).sum(axis=1))
        coord = (np.sqrt(n) * delta + bn * (l_inv @ z[:, :, None])[:, :, 0]) / np.sqrt(sigma_diag)
    return coord, norms
