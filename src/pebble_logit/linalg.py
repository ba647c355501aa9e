"""Dense symmetric positive definite matrix primitives.

Inputs are plain ``float64`` ndarrays holding one matrix (p, p) or a
stack of them (k, p, p), symmetrized on entry; a symmetric output is
symmetrized again so mirrored entries compare bitwise equal. A stack is
processed matrix by matrix, so a matrix gets the same bytes whatever its
stack-mates are.
Everything rests on one factorization, the lower Cholesky factor C of
A = C C': ||A^{-1/2} v|| = ||C^{-1} v|| for every v, and A^{-1} = C^{-T} C^{-1}.

Singularity rule: A is singular when the factorization fails or when
min_i C_ii^2 <= ``SINGULAR_FLOOR_SCALE`` * max_i A_ii. Each C_ii^2 lies
between A's smallest and largest eigenvalue, so the floor rejects A only
when λ_min <= 1e-12 λ_max. In a stack the rule applies to each matrix,
and one singular matrix fails the whole call.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

SINGULAR_FLOOR_SCALE = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a') / 2 for each matrix; exact mirror symmetry in floating point."""
    a = np.asarray(a, dtype=float)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def spd_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor C of each symmetric positive definite matrix,
    A = C C'. Raises SingularMatrixError under the module's rule."""
    s = symmetrize(a)
    try:
        c = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "matrix not positive definite: Cholesky factorization failed"
        ) from None
    pivot = np.square(np.diagonal(c, axis1=-2, axis2=-1).min(axis=-1))
    floor = SINGULAR_FLOOR_SCALE * np.diagonal(s, axis1=-2, axis2=-1).max(axis=-1)
    below = ~(pivot > floor)
    if below.any():
        raise SingularMatrixError(
            f"matrix not positive definite: min Cholesky pivot {pivot[below].flat[0]:.3e} "
            f"<= floor {floor[below].flat[0]:.3e}"
        )
    return c


def sym_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of each symmetric positive definite matrix."""
    c_inv = np.linalg.inv(spd_factor(a))
    return symmetrize(np.swapaxes(c_inv, -1, -2) @ c_inv)
