"""The logistic model: fitted probabilities and the two matrices every
pivot is built from.

For a coefficient vector beta and design row x, the success probability is
``p = e^{x'b} / (1 + e^{x'b})``, computed by :func:`expit`. The (mean)
information matrix is ``n^{-1} sum_i p_i (1 - p_i) x_i x_i'`` and the
sandwich middle matrix is ``n^{-1} sum_i (y_i - p_i)^2 x_i x_i'``.

The numerical kernels accept raw arrays so they can also be evaluated on
hypothetical inputs (e.g. a continuous pseudo-response); :class:`Dataset`
is the validated carrier used by the solver and CLI layers. Coefficient
vectors are plain float arrays throughout the package.

The three stacked products at the end serve the batched replicate kernels
and ``info_matrix``: each takes a stack of k rows (coefficients or
weights) and returns one result per row. Each is a matmul with a leading
batch axis, never a 2-D gemm over the rows, because OpenBLAS blocks a 2-D
gemm by its row count and so gives a row different last bits next to
different neighbours; the stacked form gives row r the same bytes at any k.
That also needs every stack to be C-contiguous: matmul picks its path by
the operands' layout, so a row sliced from a stack of another layout and
a fresh row could round differently. The design is column-major
(:class:`Dataset` stores it so), which makes x' C-contiguous for
``predictors`` and the (k, p, ·) temporaries of ``weighted_gram`` too.

``weighted_gram`` is the package's only gram over the n rows: the Newton
Hessians, the information and sandwich matrices and the replicate M* all
call it. It takes its k weight rows in blocks and sums row panels of
``_CHUNK_BYTES // (8 p)`` rows of x, so that its (block, p, panel)
temporary stays within the one byte budget that also sizes
``inference``'s chunks of k replicates; each weight row is its own
stacked product, so a row's bytes depend on neither k nor the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateResponseError, InvalidDataError
from .linalg import symmetrize

# The byte budget of the n-long temporaries: a block of ``weighted_gram``
# ((block, p, panel)) and a chunk of ``inference`` (its (k, M) uniform
# block). On a 2-CPU Xeon with one BLAS thread (numpy 2.4.6), a gram at
# (20 000, 11) took 0.35-0.37 ms in panels of 2978 rows against
# 0.65-0.76 ms in one pass. ``run_pebble`` with B = 1000 at (200, 8) took
# a median 56 ms in chunks of 20, 39 ms in chunks of 80 (this budget) and
# 36 ms in chunks of 256, with a tracemalloc peak of 0.67, 1.13 and 2.79
# MiB; at (100, 4) it took 37 ms at k = 20 and 17-23 ms at k = 80 to 160.
_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class Dataset:
    """Design matrix plus binary response.

    Invariants enforced at construction: p >= 1, n >= p + 1, finite design
    entries, responses exactly 0 or 1, and a non-constant response vector.
    """

    x: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        # Column-major: the stacked products below read x' row by row.
        x = np.asfortranarray(np.atleast_2d(np.asarray(self.x, dtype=float)))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        n, p = x.shape
        if y.shape[0] != n:
            raise InvalidDataError(f"design has {n} rows but response has {y.shape[0]}")
        if p < 1:
            raise InvalidDataError("need at least one covariate column, got none")
        if n < p + 1:
            raise InvalidDataError(f"need n >= p + 1 observations, got n={n}, p={p}")
        if not np.all(np.isfinite(x)):
            raise InvalidDataError("design matrix contains non-finite entries")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise InvalidDataError("response entries must all be 0 or 1")
        if np.all(y == y[0]):
            raise DegenerateResponseError("response is constant; the MLE does not exist")
        if self.columns is not None and len(self.columns) != p:
            raise InvalidDataError(f"{len(self.columns)} column names for {p} columns")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def expit(z):
    """The logistic function 1 / (1 + e^{-z}), elementwise.

    For z < -709, e^{-z} overflows to inf and the quotient is the correct
    0, so the overflow warning is silenced. Through numpy's exp its last
    bits depend on the SIMD path numpy picks for the CPU.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def info_matrix(beta, x) -> np.ndarray:
    """Mean information matrix n^{-1} sum_i w_i x_i x_i', w_i = p_i (1 - p_i),
    at one coefficient vector beta (p,), or at each row of a stack (k, p)
    of them, giving a (k, p, p) stack.

    The weight is computed as p(1-p) rather than e^z (1+e^z)^{-2}; the two
    are algebraically identical and the former cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    probs = expit(predictors(x, np.atleast_2d(beta)))
    info = symmetrize(weighted_gram(x, probs * (1.0 - probs)) / x.shape[0])
    return info if beta.ndim == 2 else info[0]


def sandwich_mid(beta, x, y) -> np.ndarray:
    """Sandwich middle matrix n^{-1} sum_i (y_i - p_i)^2 x_i x_i'."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(y, dtype=float) - expit(x @ np.asarray(beta, dtype=float))
    return symmetrize(weighted_gram(x, np.square(r)[None])[0] / x.shape[0])


def predictors(x, t) -> np.ndarray:
    """Linear predictors x t_r for each row t_r of t (k, p): a (k, n) stack."""
    return (t[:, None, :] @ x.T)[:, 0, :]


def row_products(v, x) -> np.ndarray:
    """x' v_r for each row v_r of v (k, n): a (k, p) stack."""
    return (v[:, None, :] @ x)[:, 0, :]


def weighted_gram(x, w) -> np.ndarray:
    """x' diag(w_r) x for each row w_r of w (k, n): a (k, p, p) stack.

    The rows of w go in blocks of ``_CHUNK_BYTES // (8 p min(n, P))``
    (at least one), and for each block the sum runs over panels of
    P = ``_CHUNK_BYTES // (8 p)`` rows of x in row order, the last one
    possibly shorter, so that the (block, p, panel) temporary stays within
    the budget; at n <= P the first panel is all of x, and the sum is the
    one-pass product. Every row of w is its own stacked product, so its
    bytes depend on neither k nor the block. For a column-major x the
    temporary is C-contiguous."""
    n, p = x.shape
    panel = _CHUNK_BYTES // (8 * p)
    block = max(_CHUNK_BYTES // (8 * p * min(n, panel)), 1)
    gram = np.empty((w.shape[0], p, p))
    for j in range(0, w.shape[0], block):
        wj = w[j:j + block]
        out = gram[j:j + block]
        out[...] = (x.T[:, :panel] * wj[:, None, :panel]) @ x[:panel]
        for i in range(panel, n, panel):
            rows = slice(i, i + panel)
            out += (x.T[:, rows] * wj[:, None, rows]) @ x[rows]
    return gram
