"""Damped Newton solver for the score equation and its perturbed variants.

Both the MLE and every bootstrap replicate are roots of the same family of
concave problems: maximize ``lin't - sum_i log(1 + e^{x_i't})`` over t. The
gradient is ``lin - sum_i p(t|x_i) x_i`` and the Hessian is the negative
scaled information matrix, so one Newton kernel, ``_newton_lin``, serves
both: :func:`fit_mle` calls it with ``lin = x'y`` from a zero start, and
``perturb._solve_replicate`` with ``lin = x'p̂ + offset`` (the weighted
residual term) from β̂.

Newton steps are safeguarded by step-halving against the concave
objective, which makes the iteration monotone; convergence is declared on
the max-norm of the mean gradient. Divergence of the iterate, a singular
Hessian, or exhausting the iteration budget all signal separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import SeparationError, SingularMatrixError
from .linalg import sym_inverse, symmetrize
from .model import Dataset, info_matrix, sandwich_mid

# Convergence tolerance on the max-norm of the mean gradient.
_TOL = 1e-10
_MAX_ITER = 100
# An iterate whose max-norm exceeds this is taken as escaping to infinity.
_DIVERGENCE_NORM = 1e4
_MAX_HALVINGS = 30

# Trial Newton steps are clipped to this max-norm (relative to the current
# iterate's scale) before any halving. Near-separated replicate equations
# otherwise produce steps of norm 1e3+ into the flat region of the
# objective, where each iteration needs ~30 halvings to make progress; the
# clip bounds the overshoot while the max(.., 2|t|) growth still lets a
# genuinely divergent iterate escape geometrically to the divergence bound.
_STEP_CAP = 8.0

# Acceptance slack for step-halving: near the optimum the objective is flat
# to rounding, so an exact obj_try >= obj test can reject a converging step
# on float noise and burn the full halving budget.
_OBJ_SLACK = 1e-12


@dataclass(frozen=True)
class FittedModel:
    """MLE with the matrices needed downstream.

    sigma_hat is the sandwich ``l_hat^{-1} m_hat l_hat^{-1}``; l_hat_inv is
    kept because the smoothing correction of every confidence interval
    reuses it, and n (the number of observations) because every pivot
    scales by sqrt(n).
    """

    beta_hat: np.ndarray
    l_hat: np.ndarray
    m_hat: np.ndarray
    sigma_hat: np.ndarray
    l_hat_inv: np.ndarray
    iterations: int
    final_score_norm: float
    n: int


def _newton_lin(x, lin, start):
    """Maximize the concave objective described in the module docstring.

    ``lin`` is the constant part of the gradient ``lin - x' p(t)``,
    precomputable across bootstrap replicates. Returns (t, iterations,
    final mean-gradient max-norm). Raises SeparationError when no finite
    root is reachable.
    """
    n = x.shape[0]
    t = np.array(start, dtype=float)

    def objective(t_vec, z_vec):
        # lin't - sum log(1 + e^{x't})
        return float(lin @ t_vec - np.logaddexp(0.0, z_vec).sum())

    z = x @ t
    obj = objective(t, z)
    for iteration in range(_MAX_ITER):
        probs = expit(z)
        g = lin - x.T @ probs
        score_norm = float(np.abs(g).max()) / n
        if score_norm <= _TOL:
            return t, iteration, score_norm
        w = probs * (1.0 - probs)
        hess = x.T @ (x * w[:, None])
        try:
            step = np.linalg.solve(hess, g)
            step_norm = float(np.abs(step).max())
        except np.linalg.LinAlgError:
            step_norm = math.nan
        # A nearly singular Hessian can also give an infinite step, which the
        # step cap below would turn into NaN trial points.
        if not math.isfinite(step_norm):
            raise SeparationError("singular information matrix during Newton iteration")
        cap = max(_STEP_CAP, 2.0 * float(np.abs(t).max()))
        if step_norm > cap:
            step = step * (cap / step_norm)
        accepted = False
        slack = _OBJ_SLACK * (1.0 + abs(obj))
        for _ in range(_MAX_HALVINGS + 1):
            t_try = t + step
            z_try = x @ t_try
            obj_try = objective(t_try, z_try)
            if obj_try >= obj - slack:
                accepted = True
                break
            step = step / 2.0
        if not accepted:
            break
        t, z, obj = t_try, z_try, obj_try
        if float(np.abs(t).max()) > _DIVERGENCE_NORM:
            raise SeparationError(
                f"iterate exceeded divergence bound {_DIVERGENCE_NORM:g}; "
                "data are likely separated"
            )
    probs = expit(z)
    g = lin - x.T @ probs
    score_norm = float(np.abs(g).max()) / n
    if score_norm <= _TOL:
        return t, _MAX_ITER, score_norm
    raise SeparationError(
        f"no convergence after {_MAX_ITER} iterations "
        f"(mean score norm {score_norm:.3e}); data are likely separated"
    )


def fit_mle(data: Dataset) -> FittedModel:
    """Solve the score equation from a zero start and package the fit."""
    beta, iterations, score_norm = _newton_lin(data.x, data.x.T @ data.y, np.zeros(data.p))
    # A β̂ that puts every row strictly on its own side, (2y - 1) x'β̂ > 0,
    # separates the data itself, so no finite MLE exists; the score only
    # underflowed to "converged" far out along that direction.
    if np.all((2.0 * data.y - 1.0) * (data.x @ beta) > 0.0):
        raise SeparationError(
            "data are perfectly classified; the MLE diverges (complete separation)"
        )
    l_hat = info_matrix(beta, data.x)
    m_hat = sandwich_mid(beta, data.x, data.y)
    try:
        l_inv = sym_inverse(l_hat)
    except SingularMatrixError:
        raise SeparationError(
            "information matrix is singular at the fitted coefficients; "
            "data are likely (quasi-)separated"
        ) from None
    sigma_hat = symmetrize(l_inv @ m_hat @ l_inv)
    return FittedModel(
        beta_hat=beta,
        l_hat=l_hat,
        m_hat=m_hat,
        sigma_hat=sigma_hat,
        l_hat_inv=l_inv,
        iterations=iterations,
        final_score_norm=score_norm,
        n=data.n,
    )
