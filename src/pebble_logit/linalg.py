"""Dense symmetric positive definite matrix primitives.

Inputs are plain ``float64`` ndarrays, symmetrized on entry; a symmetric
output is symmetrized again so mirrored entries compare bitwise equal.
Everything rests on one factorization, the lower Cholesky factor C of
A = C C': ||A^{-1/2} v|| = ||C^{-1} v|| for every v, and A^{-1} = C^{-T} C^{-1}.

Singularity rule: A is singular when the factorization fails or when
min_i C_ii^2 <= ``SINGULAR_FLOOR_SCALE`` * max_i A_ii. Each C_ii^2 lies
between A's smallest and largest eigenvalue, so the floor rejects A only
when λ_min <= 1e-12 λ_max.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

SINGULAR_FLOOR_SCALE = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a') / 2; exact mirror symmetry in floating point."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def spd_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor C of a symmetric positive definite matrix,
    A = C C'. Raises SingularMatrixError under the module's rule."""
    s = symmetrize(a)
    try:
        c = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "matrix not positive definite: Cholesky factorization failed"
        ) from None
    pivot = float(c.diagonal().min()) ** 2
    floor = SINGULAR_FLOOR_SCALE * float(s.diagonal().max())
    if not pivot > floor:
        raise SingularMatrixError(
            f"matrix not positive definite: min Cholesky pivot {pivot:.3e} <= floor {floor:.3e}"
        )
    return c


def sym_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    c_inv = np.linalg.inv(spd_factor(a))
    return symmetrize(c_inv.T @ c_inv)
