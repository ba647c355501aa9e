"""Dense symmetric matrix primitives.

All routines take and return plain ``float64`` ndarrays. A "symmetric
matrix" here is a contract, not a wrapper type: inputs are symmetrized on
entry, positive definiteness is checked against a relative eigenvalue
floor, and every matrix output is explicitly symmetrized so mirrored
entries compare bitwise equal.

Inverse and inverse square root go through the symmetric eigendecomposition
(LAPACK ``eigh``): the pivot computations need the unique symmetric PD
inverse square root, which the factorization gives directly.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# Relative eigenvalue floor below which a matrix is treated as singular.
EIGEN_FLOOR_SCALE = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a') / 2; exact mirror symmetry in floating point."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def _spd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric positive definite matrix.

    Raises SingularMatrixError when any eigenvalue falls at or below
    ``EIGEN_FLOOR_SCALE`` times the largest eigenvalue (or times 1 when no
    eigenvalue is positive).
    """
    s = symmetrize(a)
    w, u = np.linalg.eigh(s)
    lam_max = w[-1]
    floor = EIGEN_FLOOR_SCALE * (lam_max if lam_max > 0.0 else 1.0)
    if w[0] <= floor:
        raise SingularMatrixError(
            f"matrix not positive definite: min eigenvalue {w[0]:.3e} "
            f"<= floor {floor:.3e}"
        )
    return w, u


def sym_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    w, u = _spd_eigh(a)
    return symmetrize((u / w) @ u.T)


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Unique symmetric PD inverse square root: r with r @ a @ r = identity."""
    w, u = _spd_eigh(a)
    return symmetrize((u / np.sqrt(w)) @ u.T)

