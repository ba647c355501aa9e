"""Smoothed studentized pivots on both sides of the bootstrap.

The data-side pivot adds an independent Gaussian jitter to defeat the
lattice structure of binary-response sums:

    Ȟ  = M̂^{-1/2} [ sqrt(n) L̂ (β̂ - β0) + b Z ],        Z ~ N(0, D)

and the bootstrap side mirrors it with the replicate's own matrices:

    Ȟ* = M̂*^{-1/2} [ sqrt(n) L* (β̂* - β̂) + b Z* ],     Z* ~ N(0, D)

where L* is the information matrix at β̂* and M̂* reweights the sandwich
middle by the squared centered-scaled weights. Per-coordinate scalar
pivots studentize by the corresponding sandwich diagonal and carry the
jitter through L^{-1}:

    Ȟ_j = [ sqrt(n)(β̂_j - β0_j) + b (L̂^{-1} Z)_j ] / Σ̂_jj^{1/2}

One Z is drawn per inference run and persisted in the smoothing
configuration, because the confidence-interval endpoints reuse the same
realized draw; one Z* is drawn per replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sym_inv_sqrt, sym_inverse, symmetrize
from .model import info_matrix
from .solver import FittedModel


def default_bn(n: int, p: int) -> float:
    """Default smoothing bandwidth, 0.5 * n^{-1/(p1+1)} with p1 = max(p+1, 4).

    The scale is calibrated so that, with the default N(0, I/4) jitter,
    desk-scale coverage and interval width reproduce the reference Monte
    Carlo results; the p1 clamp makes the bandwidth dimension-aware only
    above p = 3.
    """
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
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

    def __post_init__(self):
        d = np.asarray(self.d_var, dtype=float)
        z = np.asarray(self.z_original, dtype=float)
        object.__setattr__(self, "d_var", d)
        object.__setattr__(self, "z_original", z)
        if not self.bn > 0.0:
            raise ValueError("bn must be > 0")
        if d.ndim != 1 or not np.all(d > 0.0):
            raise ValueError("d_var must be a positive vector")
        if z.shape != d.shape:
            raise ValueError("z_original must match d_var in length")


@dataclass(frozen=True)
class PivotBundle:
    h_check: np.ndarray
    h_norm: float
    coord_pivots: np.ndarray


def pivot_smoothed(fitted: FittedModel, beta0, n: int, cfg: SmoothingConfig) -> PivotBundle:
    """Data-side smoothed pivot bundle at the hypothesized beta0."""
    delta = fitted.beta_hat - np.asarray(beta0, dtype=float)
    m_inv_sqrt = sym_inv_sqrt(fitted.m_hat)
    h = m_inv_sqrt @ (np.sqrt(n) * (fitted.l_hat @ delta) + cfg.bn * cfg.z_original)
    coord = _coord_pivots(
        delta, fitted.l_hat_inv @ cfg.z_original, np.diag(fitted.sigma_hat), n, cfg.bn
    )
    return PivotBundle(h_check=h, h_norm=float(np.linalg.norm(h)), coord_pivots=coord)


def _star_bundle(x, s, beta_hat, beta_star, nu, bn, z_star) -> PivotBundle:
    """Bootstrap-side smoothed pivot bundle for one solved replicate, the
    only one in the package; ``s`` is the matrix of residual-scaled rows
    (y - p̂)x built once per dataset and ``nu`` the replicate's
    centered-scaled weights."""
    n = x.shape[0]
    l_star = info_matrix(beta_star, x)
    s_nu = s * nu[:, None]
    m_star = symmetrize(s_nu.T @ s_nu / n)
    m_inv_sqrt = sym_inv_sqrt(m_star)  # raises SingularMatrixError on degenerate weights
    l_star_inv = sym_inverse(l_star)
    sigma_star = l_star_inv @ m_star @ l_star_inv
    delta = beta_star - beta_hat
    h = m_inv_sqrt @ (np.sqrt(n) * (l_star @ delta) + bn * z_star)
    coord = _coord_pivots(delta, l_star_inv @ z_star, np.diag(sigma_star), n, bn)
    return PivotBundle(h_check=h, h_norm=float(np.linalg.norm(h)), coord_pivots=coord)


def _coord_pivots(delta, l_inv_z, sigma_diag, n, bn) -> np.ndarray:
    return (np.sqrt(n) * delta + bn * l_inv_z) / np.sqrt(sigma_diag)
