"""Workload inputs, made from the benchmark seed alone.

The two CSV designs share one recipe: covariate rows are N(0, S) with the
AR-style covariance S_ij = 0.5^|i-j| (as in the coverage harness), and the
response is Bernoulli at expit(intercept + x'beta). The program only ever
sees the CSV text; the arrays are kept so that the checks can refit the
same numbers (floats are written with ``repr``, which round-trips exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CsvDesign:
    n: int
    intercept: float
    beta: tuple[float, ...]
    boot: int

    @property
    def p(self) -> int:
        return len(self.beta)


# n = 100, 3 covariates: the interactive `pebble ci` call, dominated by
# interpreter start-up and the per-replicate Python loop.
CI_SMALL = CsvDesign(n=100, intercept=-0.5, beta=(1.0, 0.5, -1.0), boot=1000)

# n = 20 000, 10 covariates (p = 11 with the intercept): work grows with n
# (CSV parsing, 2n gamma draws per replicate, n x p products).
CI_LARGE = CsvDesign(
    n=20_000,
    intercept=-0.5,
    beta=(0.5, 0.25, -1.0, -0.375, 0.75, -0.5, 0.925, -0.8, 0.3, -0.15),
    boot=200,
)

RESPONSE = "y"

# coverage_200_8: one operation is a study of this many experiments.
COVERAGE_N, COVERAGE_P, COVERAGE_BOOT, COVERAGE_ALPHA = 200, 8, 1000, 0.1
EXPERIMENTS_PER_OP = 2


def ar_covariance(p: int) -> np.ndarray:
    idx = np.arange(p)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def make_csv_data(design: CsvDesign, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(x with a leading column of ones, y) for one seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, design.n, design.p]))
    chol = np.linalg.cholesky(ar_covariance(design.p))
    cov = rng.standard_normal((design.n, design.p)) @ chol.T
    eta = design.intercept + cov @ np.asarray(design.beta)
    y = (rng.random(design.n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return np.column_stack([np.ones(design.n), cov]), y


def csv_text(x: np.ndarray, y: np.ndarray) -> str:
    """CSV with covariates x1..xp (the intercept column is left to
    ``--intercept``) and the response last."""
    cov = x[:, 1:]
    header = ",".join([f"x{j + 1}" for j in range(cov.shape[1])] + [RESPONSE])
    rows = [",".join(map(repr, row.tolist())) + f",{int(v)}" for row, v in zip(cov, y)]
    return header + "\n" + "\n".join(rows) + "\n"


def coverage_seed(seed: int, op: int) -> int:
    """Scenario seed of the op-th coverage study of a run."""
    return seed * 1_000_003 + op
