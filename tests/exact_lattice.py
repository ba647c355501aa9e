"""The exact oracle of the saturated two-cell logistic design.

The design is an intercept plus one binary covariate, with fixed cells
n₀ = n₁ = n/2: the rows of cell 0 are (1, 0) and those of cell 1 are
(1, 1). The data are the success counts (k₀, k₁), independent binomials,
and the MLE exists iff 0 < k_c < n_c for both cells. With p̂_c = k_c/n_c
and the cell weights w_c = n_c p̂_c (1 - p̂_c) / n:

- β̂ = (logit p̂₀, logit p̂₁ - logit p̂₀);
- L̂ = [[w₀ + w₁, w₁], [w₁, w₁]], so L̂⁻¹ = [[1/w₀, -1/w₀], [-1/w₀, 1/w₀ + 1/w₁]];
- M̂ = L̂ exactly, because the model is saturated: a cell's squared
  residuals sum to k_c (1 - p̂_c)² + (n_c - k_c) p̂_c² = n_c p̂_c (1 - p̂_c);
- Σ̂ = L̂⁻¹ M̂ L̂⁻¹ = L̂⁻¹.

From these, the data-side smoothed pivot and the Wald baseline have closed
forms too (``smoothed_pivot`` and ``wald``). The oracle uses numpy, math
and scipy only, never the package's kernels; ``Dataset`` is only the
package's input type. It is a helper for ``test_exact_lattice.py`` and is
not collected by pytest.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logit, ndtri

from pebble_logit import Dataset


def atoms(n: int):
    """Every (k₀, k₁) with 0 < k_c < n/2, the atoms on which the MLE exists."""
    half = n // 2
    return [(k0, k1) for k0 in range(1, half) for k1 in range(1, half)]


def dataset(n: int, k0: int, k1: int) -> Dataset:
    """The saturated design with k_c successes among the n/2 rows of cell c."""
    half = n // 2
    x = np.column_stack([np.ones(n), np.repeat([0.0, 1.0], half)])
    y = np.concatenate([np.arange(half) < k0, np.arange(half) < k1]).astype(float)
    return Dataset(x=x, y=y)


def closed_forms(n: int, k0: int, k1: int) -> dict:
    """β̂, L̂, L̂⁻¹, M̂ and Σ̂ of the atom (k₀, k₁)."""
    half = n // 2
    p0, p1 = k0 / half, k1 / half
    w0, w1 = half * p0 * (1 - p0) / n, half * p1 * (1 - p1) / n
    l_hat = np.array([[w0 + w1, w1], [w1, w1]])
    l_inv = np.array([[1 / w0, -1 / w0], [-1 / w0, 1 / w0 + 1 / w1]])
    return {
        "beta_hat": np.array([logit(p0), logit(p1) - logit(p0)]),
        "l_hat": l_hat,
        "l_hat_inv": l_inv,
        "m_hat": l_hat,
        "sigma_hat": l_inv,
    }


def smoothed_pivot(n: int, k0: int, k1: int, beta0, bn: float, z):
    """The coordinate pivots [√n (β̂ - β0)_j + b (L̂⁻¹ Z)_j] / Σ̂_jj^{1/2}
    and the norm ||M̂^{-1/2} v|| = (v' L̂⁻¹ v)^{1/2} of
    v = √n L̂ (β̂ - β0) + b Z, at β0 with jitter Z."""
    forms = closed_forms(n, k0, k1)
    delta = forms["beta_hat"] - np.asarray(beta0, dtype=float)
    l_inv = forms["l_hat_inv"]
    v = math.sqrt(n) * forms["l_hat"] @ delta + bn * np.asarray(z)
    coord = (math.sqrt(n) * delta + bn * l_inv @ z) / np.sqrt(np.diag(l_inv))
    return coord, math.sqrt(v @ l_inv @ v)


def wald(n: int, k0: int, k1: int, alpha: float) -> dict:
    """Wald intervals with SE_j = (L̂⁻¹_jj / n)^{1/2}: two-sided (lo, hi) rows,
    the upper ends of (-inf, hi], the lower ends of [lo, inf), and the
    region radius, the square root of the chi-square(2) upper-α quantile
    -2 log α."""
    forms = closed_forms(n, k0, k1)
    beta, se = forms["beta_hat"], np.sqrt(np.diag(forms["l_hat_inv"]) / n)
    z_two, z_one = -ndtri(alpha / 2), -ndtri(alpha)
    return {
        "two_sided": np.column_stack([beta - z_two * se, beta + z_two * se]),
        "upper": beta + z_one * se,
        "lower": beta - z_one * se,
        "region_radius": math.sqrt(-2 * math.log(alpha)),
    }
