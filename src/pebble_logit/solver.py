"""Damped Newton solver for the score equation and its perturbed variants.

Both the MLE and every bootstrap replicate are roots of the same family of
concave problems: maximize ``lin't - sum_i log(1 + e^{x_i't})`` over t. The
gradient is ``lin - sum_i p(t|x_i) x_i`` and the Hessian is the negative
scaled information matrix, so one Newton kernel, ``_newton_lin``, serves
both. It solves a batch of problems that share x, one per row of ``lin``:
:func:`fit_mle` calls it with the one row ``lin = x'y`` from a zero start,
and ``perturb._solve_replicate`` with a chunk of rows ``lin = x'p̂ + offset``
(the weighted residual terms) from β̂.

Newton steps are safeguarded by step-halving against the concave
objective, which makes the iteration monotone; convergence is declared on
the max-norm of the mean gradient. Divergence of the iterate, a singular
Hessian, or exhausting the iteration budget all signal separation; in a
batch each row fails alone and the others carry on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SeparationError, SingularMatrixError
from .linalg import sym_inverse, symmetrize
from .model import (
    Dataset,
    expit,
    info_matrix,
    predictors,
    row_products,
    sandwich_mid,
    weighted_gram,
)

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

# Row outcomes of _newton_lin.
CONVERGED, SINGULAR, DIVERGED, STALLED = range(4)


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


def _solve_stack(hess, g):
    """Newton steps hess_r^{-1} g_r for a stack of Hessians; a row whose
    Hessian is exactly singular gets a NaN step. A stacked solve raises for
    the whole stack when one matrix is singular, so that case is redone
    row by row; a row's bytes are the same either way."""
    try:
        return np.linalg.solve(hess, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    steps = np.full(g.shape, math.nan)
    for r in range(g.shape[0]):
        try:
            steps[r] = np.linalg.solve(hess[r:r + 1], g[r:r + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            pass
    return steps


def _newton_lin(x, lin, start):
    """Maximize the concave objective described in the module docstring,
    once for each row of ``lin``.

    ``lin`` (k, p) holds the constant parts of the k gradients
    ``lin_r - x' p(t)``, precomputable across bootstrap replicates; every
    row starts from ``start``, one point (p,) or one per row (k, p). Each
    row runs its own convergence test, step cap, step halving and
    divergence check, and leaves the batch when it converges or fails, so a
    row's bytes do not depend on the other rows. Returns (t (k, p), the
    number of Newton rounds run, the final mean-gradient max-norms (k,),
    the row outcomes (k,)), where an outcome is ``CONVERGED`` or a failure:
    ``SINGULAR`` Hessian, ``DIVERGED`` iterate or ``STALLED`` (iteration or
    halving budget exhausted). A failed row's t is its last iterate.
    """
    n = x.shape[0]
    lin = np.asarray(lin, dtype=float)
    out = np.array(np.broadcast_to(start, lin.shape), dtype=float)
    k = out.shape[0]
    status = np.full(k, STALLED)
    score_norm = np.full(k, math.nan)

    def objective(lin_rows, t_rows, z_rows):
        # lin't - sum log(1 + e^{x't}), row by row. log(1 + e^z) is taken as
        # log1p(e^{-|z|}) + max(z, 0), the formula np.logaddexp(0, z) uses,
        # because NumPy's vectorized exp and log1p run it faster than
        # logaddexp's scalar loop (0.12 ms against 0.86 ms for 20 000
        # entries on a 2-CPU Xeon).
        softplus = np.log1p(np.exp(-np.abs(z_rows))) + np.maximum(z_rows, 0.0)
        return np.vecdot(lin_rows, t_rows) - softplus.sum(axis=1)

    # The batch: the rows still iterating (act indexes them in out) and
    # their state. Until a row leaves, these are the whole arrays.
    act, t, lin_act = np.arange(k), out.copy(), lin
    z = predictors(x, t)
    obj = objective(lin_act, t, z)
    t_max = np.abs(t).max(axis=1)

    def drop(leave, outcome, *extra):
        """Finish the batch rows in ``leave`` with ``outcome``: write out
        their iterate, score norm and outcome and take them out of the
        batch. Returns ``extra``, other arrays over the batch, without
        those rows; once the batch is empty, as they were."""
        nonlocal act, t, t_max, z, obj, lin_act, norm
        rows = act[leave]
        status[rows], out[rows], score_norm[rows] = outcome, t[leave], norm[leave]
        if rows.size == act.size:  # the batch is done
            act = rows[:0]
            return extra
        keep = ~leave
        act, t, t_max, z, obj, lin_act, norm = (
            a[keep] for a in (act, t, t_max, z, obj, lin_act, norm))
        return [a[keep] for a in extra]

    # Each test below reduces the batch to one number first, so that a
    # round in which no row leaves costs no masks. (fmin skips a NaN norm,
    # which would otherwise hide another row's convergence.)
    for rounds in range(_MAX_ITER + 1):
        probs = expit(z)
        g = lin_act - row_products(probs, x)
        norm = np.abs(g).max(axis=1) / n
        if np.fmin.reduce(norm) <= _TOL:
            probs, g = drop(norm <= _TOL, CONVERGED, probs, g)
            if not act.size:
                break
        if rounds == _MAX_ITER:
            break

        # The Hessian weights p(1 - p), in place: one (k, n) array fewer is
        # alive while the (k, n, p) temporary of weighted_gram is.
        probs *= 1.0 - probs
        step = _solve_stack(weighted_gram(x, probs), g)
        step_norm = np.abs(step).max(axis=1)
        cap = np.maximum(_STEP_CAP, 2.0 * t_max)
        if not (step_norm <= cap).all():
            # A nearly singular Hessian can also give an infinite step,
            # which the step cap would turn into NaN trial points.
            singular = ~np.isfinite(step_norm)
            if singular.any():
                step, step_norm, cap = drop(singular, SINGULAR, step, step_norm, cap)
                if not act.size:
                    break
            over = step_norm > cap
            step[over] *= (cap[over] / step_norm[over])[:, None]

        floor = obj - _OBJ_SLACK * (1.0 + np.abs(obj))
        t_try = t + step
        z_try = predictors(x, t_try)
        obj_try = objective(lin_act, t_try, z_try)
        accepted = obj_try >= floor
        if accepted.all():
            t, z, obj = t_try, z_try, obj_try
        else:
            t[accepted], z[accepted], obj[accepted] = (
                t_try[accepted], z_try[accepted], obj_try[accepted])
            trying = ~accepted
            for _ in range(_MAX_HALVINGS):
                step[trying] /= 2.0
                rows = np.flatnonzero(trying)
                t_try = t[rows] + step[rows]
                z_try = predictors(x, t_try)
                obj_try = objective(lin_act[rows], t_try, z_try)
                accepted = obj_try >= floor[rows]
                rows = rows[accepted]
                t[rows], z[rows], obj[rows] = t_try[accepted], z_try[accepted], obj_try[accepted]
                trying[rows] = False
                if not trying.any():
                    break
            # Rows still trying ran out of halvings.
            if trying.any():
                drop(trying, STALLED)
                if not act.size:
                    break
        t_max = np.abs(t).max(axis=1)
        if t_max.max() > _DIVERGENCE_NORM:
            drop(t_max > _DIVERGENCE_NORM, DIVERGED)
            if not act.size:
                break
    if act.size:
        # These rows ran out of iterations and stay STALLED.
        out[act], score_norm[act] = t, norm
    return out, rounds, score_norm, status


def separation_error(status: int, score_norm: float) -> SeparationError:
    """The error that explains a failed ``_newton_lin`` row."""
    if status == SINGULAR:
        return SeparationError("singular information matrix during Newton iteration")
    if status == DIVERGED:
        return SeparationError(
            f"iterate exceeded divergence bound {_DIVERGENCE_NORM:g}; "
            "data are likely separated"
        )
    return SeparationError(
        f"no convergence after {_MAX_ITER} iterations "
        f"(mean score norm {score_norm:.3e}); data are likely separated"
    )


def fit_mle(data: Dataset) -> FittedModel:
    """Solve the score equation from a zero start and package the fit."""
    lin = (data.x.T @ data.y)[None, :]
    t, iterations, score_norm, status = _newton_lin(data.x, lin, np.zeros(data.p))
    if status[0] != CONVERGED:
        raise separation_error(status[0], score_norm[0])
    beta, score_norm = t[0], float(score_norm[0])
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
