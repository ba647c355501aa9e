"""Perturbation weights and the bootstrap estimating equation.

One bootstrap replicate multiplies each observation's score contribution
by an independent non-negative weight G* and re-solves

    sum_i (y_i - p̂_i) x_i (G*_i - mu)/mu + sum_i (p̂_i - p(t|x_i)) x_i = 0,

where p̂ are the fitted probabilities of the original MLE. The weight law
must satisfy mean mu, Var = mu^2 and E(G*-mu)^3 = mu^3; Beta(1/2, 3/2)
does (mu = 1/4). The mean is always supplied analytically, never
estimated from the sampled weights.

``_solve_replicate`` is the only replicate solve in the package. The
ensemble loop of ``inference.run_pebble`` calls it once for each chunk of
replicates (k of them, chosen from (n, p) by ``inference._chunk_size``),
with each replicate's weights drawn first from its substream
``("boot", r)``, and once more for the chunk's replicates that failed, on
fresh weights from ``("retry", r)``. It hands the chunk to the one Newton
kernel, ``solver._newton_lin``, as a batch of rows, one per replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import row_products
from .solver import CONVERGED, _newton_lin


@dataclass(frozen=True)
class WeightSpec:
    """The Beta(1/2, 3/2) perturbation-weight law and its analytic mean.

    Draws come from the gamma-ratio construction G_a / (G_a + G_b), which
    is exact and stream-stable.
    """

    mu: float = 0.25

    def draw(self, generator: np.random.Generator, n: int) -> np.ndarray:
        ga = generator.standard_gamma(0.5, n)
        gb = generator.standard_gamma(1.5, n)
        return ga / (ga + gb)


DEFAULT_WEIGHTS = WeightSpec()


def _solve_replicate(x, lin0, s, beta_hat, nu):
    """Replicate Newton solves from β̂ for a chunk of k replicates, given the
    per-dataset pieces lin0 = x'p̂ and the residual-scaled design rows
    s = (y - p̂) x, and the centered-scaled weights nu = (G* - mu)/mu, one
    replicate per row (k, n). Returns β* (k, p) and a mask (k,) of the rows
    whose solve converged; row r's bytes do not depend on the other rows."""
    t, _, _, status = _newton_lin(x, lin0 + row_products(nu, s), beta_hat)
    return t, status == CONVERGED
