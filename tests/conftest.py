"""Shared test helpers: the derandomized hypothesis profile, random SPD
matrices and an eigendecomposition oracle for them, random datasets and a
strategy for non-separated ones, plain-formula oracles of the logistic
model and of the smoothed pivot, a finite-difference helper, entry points
to the replicate kernel, and the smoothed-pivot distributional check
reused by the acceptance suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from pebble_logit import Dataset, RandomStream, fit_mle, model
from pebble_logit.errors import SeparationError, SingularMatrixError
from pebble_logit.perturb import DEFAULT_WEIGHTS, _solve_replicate
from pebble_logit.pivots import _star_bundle, draw_smoothing, pivot_smoothed
from pebble_logit.simulation import Scenario, generate_dataset

MU = DEFAULT_WEIGHTS.mu

# Every property test replays the same examples on every run.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def predict_prob(beta, x_row) -> float:
    """Success probability in (0, 1) for one design row."""
    z = float(np.dot(np.asarray(x_row, dtype=float), np.asarray(beta, dtype=float)))
    return float(expit(z))


def log_likelihood(beta, x, y) -> float:
    """sum_i [y_i x_i'b - log(1 + e^{x_i'b})], always <= 0 for binary y."""
    z = np.asarray(x, dtype=float) @ np.asarray(beta, dtype=float)
    return float(np.asarray(y, dtype=float) @ z - np.logaddexp(0.0, z).sum())


def score(beta, x, y) -> np.ndarray:
    """Gradient of the log-likelihood: sum_i (y_i - p_i) x_i."""
    x = np.asarray(x, dtype=float)
    return x.T @ (np.asarray(y, dtype=float) - expit(x @ np.asarray(beta, dtype=float)))


def bootstrap_score(t, data: Dataset, beta_hat, weights, mu: float = MU) -> np.ndarray:
    """Left-hand side of the bootstrap estimating equation at t:
    sum_i (y_i - p̂_i) x_i (G_i - mu)/mu + sum_i (p̂_i - p(t|x_i)) x_i."""
    p_hat = expit(data.x @ beta_hat)
    nu = (np.asarray(weights, dtype=float) - mu) / mu
    return data.x.T @ ((data.y - p_hat) * nu) + data.x.T @ (p_hat - expit(data.x @ t))


def central_differences(f, beta, h: float) -> np.ndarray:
    """Row j is (f(beta + h e_j) - f(beta - h e_j)) / 2h: the gradient of a
    scalar f, or the transposed Jacobian of a vector f."""
    rows = []
    for j in range(beta.size):
        e = np.zeros(beta.size)
        e[j] = h
        rows.append((np.asarray(f(beta + e)) - np.asarray(f(beta - e))) / (2 * h))
    return np.array(rows)


def replicate_pieces(data: Dataset, beta_hat):
    """(lin0, s) = (x'p̂, (y - p̂)x), built the way ``run_pebble`` builds them:
    p̂ through the package's logistic function, so the kernel entry points
    below replay the library byte for byte."""
    p_hat = model.expit(data.x @ beta_hat)
    return data.x.T @ p_hat, data.x * (data.y - p_hat)[:, None]


def replicate_draws(stream: RandomStream, r: int, n: int, p: int):
    """Replicate r's weights G* (n,) and standard-normal jitter Z* (p,) of a
    run on ``stream``, replayed from the contract: with q = ceil(p/2), its
    block of M = 4 ceil((2n + 2q)/4) uniforms is the values [rM, (r+1)M) of
    the substream ("boot", 0), that is a fresh generator advanced by rM/4
    Philox counter steps; G* = U1 / (1 + tan²(πU2/2)) from the first n and
    the next n values, and Z* is Box–Muller on the last 2q, the q cosine
    terms first, cut to p."""
    q = -(-p // 2)
    m = 4 * -(-(2 * n + 2 * q) // 4)
    gen = stream.derive("boot", 0).generator
    gen.bit_generator.advance(r * m // 4)
    u = gen.random(m)
    t = np.tan((np.pi / 2) * u[n:2 * n])
    weights = u[:n] / (1.0 + t * t)
    radius = np.sqrt(-2.0 * np.log1p(-u[m - 2 * q:m - q]))
    angle = 2 * np.pi * u[m - q:]
    return weights, np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:p]


def solve_replicate(data: Dataset, beta_hat, weights) -> np.ndarray:
    """β̂* for one weight vector, through the package's replicate kernel as
    a chunk of one (a (1, n) ν); raises SeparationError when it fails."""
    lin0, s = replicate_pieces(data, beta_hat)
    beta_star, solved = _solve_replicate(data.x, lin0, s, beta_hat, ((weights - MU) / MU)[None])
    if not solved[0]:
        raise SeparationError("replicate solve failed")
    return beta_star[0]


def star_bundle(data: Dataset, beta_hat, beta_star, weights, bn: float, z_star):
    """Bootstrap-side coordinate pivots (p,) and ||Ȟ*||, through the
    package's replicate kernel as a chunk of one; raises
    SingularMatrixError when L* or M* is singular."""
    _, s = replicate_pieces(data, beta_hat)
    coord, norms = _star_bundle(data.x, s, beta_hat, np.asarray(beta_star)[None],
                                ((weights - MU) / MU)[None], bn, np.asarray(z_star)[None])
    if np.isnan(norms[0]):
        raise SingularMatrixError("replicate pivot matrix is singular")
    return coord[0], float(norms[0])


def random_spd(rng: np.random.Generator, dim: int, cond: float = 100.0) -> np.ndarray:
    """Random symmetric positive definite matrix with given condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.geomspace(1.0, cond, dim)
    return (q * eigs) @ q.T


def eigh_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Oracle: the unique symmetric positive definite inverse square root of
    a symmetric positive definite matrix, from its eigendecomposition."""
    w, u = np.linalg.eigh(a)
    return (u / np.sqrt(w)) @ u.T


def smoothed_pivot_vector(m, l, delta, n: int, bn: float, z) -> np.ndarray:
    """Oracle: the vector Ȟ = M^{-1/2} [sqrt(n) L delta + bn z], with the
    symmetric inverse square root of M."""
    return eigh_inv_sqrt(np.asarray(m, dtype=float)) @ (
        np.sqrt(n) * (np.asarray(l, dtype=float) @ delta) + bn * np.asarray(z))


def star_matrices(data: Dataset, beta_hat, beta_star, weights):
    """(L*, M*) by their formulas: the information at β̂* and the sandwich
    middle with rows (y - p̂)x scaled by the centered-scaled weights."""
    probs = expit(data.x @ beta_star)
    l_star = data.x.T @ (data.x * (probs * (1.0 - probs))[:, None]) / data.n
    _, s = replicate_pieces(data, beta_hat)
    s_nu = s * ((np.asarray(weights, dtype=float) - MU) / MU)[:, None]
    return l_star, s_nu.T @ s_nu / data.n


def random_dataset(rng: np.random.Generator, n: int, p: int, scale: float = 1.0) -> Dataset:
    """Random non-degenerate logistic dataset (redraws constant responses)."""
    while True:
        x = rng.standard_normal((n, p)) * scale
        beta = rng.standard_normal(p)
        probs = 1.0 / (1.0 + np.exp(-(x @ beta)))
        y = (rng.random(n) < probs).astype(float)
        if 0.0 < y.sum() < n:
            return Dataset(x=x, y=y)


@st.composite
def overlapped_data(draw):
    """Arbitrary rows and labels plus each unit vector once with y = 0 and
    once with y = 1. The unit pairs span R^p, so no direction separates
    the data and the MLE is finite."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 60))
    x = draw(arrays(float, (n, p), elements=st.floats(-3.0, 3.0)))
    y = draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
    eye = np.eye(p)
    return Dataset(x=np.vstack([x, eye, eye]), y=np.concatenate([y, np.zeros(p), np.ones(p)]))


def grid_mle_1d(x: np.ndarray, y: np.ndarray, lo=-10.0, hi=10.0, step=1e-4) -> float:
    """Brute-force 1-d MLE: maximize the log-likelihood on a grid, then
    refine once around the best point."""
    grid = np.arange(lo, hi + step, step)
    z = np.outer(x.ravel(), grid)
    ll = y @ z - np.logaddexp(0.0, z).sum(axis=0)
    best = grid[np.argmax(ll)]
    fine = np.arange(best - step, best + step, step / 100)
    zf = np.outer(x.ravel(), fine)
    llf = y @ zf - np.logaddexp(0.0, zf).sum(axis=0)
    return float(fine[np.argmax(llf)])


def smoothed_pivot_sample(n=200, p=2, datasets=2000, seed=5150) -> np.ndarray:
    """Coordinate pivots at the true beta over many simulated datasets,
    one jitter draw each, with the default smoothing."""
    scn = Scenario(n=n, p=p, reps=1, boot=100, alpha=0.1, seed=seed)
    master = RandomStream(seed)
    pivots = []
    for e in range(datasets):
        exp = master.derive("experiment", e)
        data, beta_true, _ = generate_dataset(scn, e, exp)
        try:
            fitted = fit_mle(data)
        except SeparationError:
            continue
        cfg = draw_smoothing(exp, n, p)
        coord, _ = pivot_smoothed(fitted, beta_true, cfg)
        pivots.append(coord)
    return np.array(pivots)


@pytest.fixture(scope="session")
def pivot_sanity_sample() -> np.ndarray:
    return smoothed_pivot_sample()
