import numpy as np
import pytest

from pebble_logit import NonPositiveVarianceError, RandomStream, SingularMatrixError
from pebble_logit.linalg import mvn_diag_sample, sym_inv_sqrt, sym_inverse
from conftest import random_spd


def max_abs(a):
    return float(np.max(np.abs(a)))


class TestSymInverse:
    def test_identity(self):
        assert np.allclose(sym_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        r = sym_inverse(np.diag([4.0, 9.0]))
        assert np.allclose(r, np.diag([0.25, 1.0 / 9.0]), atol=1e-14)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 5)
        r = sym_inverse(a)
        assert max_abs(a @ r - np.eye(5)) <= 1e-10

    def test_singular_raises(self):
        a = np.outer([1.0, 2.0], [1.0, 2.0])  # rank 1
        with pytest.raises(SingularMatrixError):
            sym_inverse(a)

    def test_indefinite_raises(self):
        with pytest.raises(SingularMatrixError):
            sym_inverse(np.diag([1.0, -1.0]))


class TestSymInvSqrt:
    def test_identity(self):
        assert np.allclose(sym_inv_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        r = sym_inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(r, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        a = random_spd(rng, 5)
        r = sym_inv_sqrt(a)
        assert max_abs(r @ a @ r - np.eye(5)) <= 1e-10


class TestInvariants:
    """Cross-operation identities on 50 random SPD matrices."""

    @pytest.mark.parametrize("trial", range(50))
    def test_reconstruction_suite(self, trial):
        rng = np.random.default_rng(1000 + trial)
        dim = int(rng.integers(2, 8))
        a = random_spd(rng, dim, cond=float(rng.uniform(2, 1e4)))
        isq = sym_inv_sqrt(a)
        assert max_abs(isq @ a @ isq - np.eye(dim)) <= 1e-8
        assert max_abs(sym_inverse(a) - isq @ isq) <= 1e-8

    def test_extreme_condition_number(self):
        rng = np.random.default_rng(77)
        a = random_spd(rng, 6, cond=1e8)
        isq = sym_inv_sqrt(a)
        assert max_abs(isq @ a @ isq - np.eye(6)) <= 1e-8

    @pytest.mark.parametrize("op", [sym_inverse, sym_inv_sqrt])
    def test_outputs_exactly_symmetric(self, op):
        rng = np.random.default_rng(21)
        a = random_spd(rng, 5)
        r = op(a)
        assert np.array_equal(r, r.T)


class TestMvnDiagSample:
    def test_zero_variance_rejected(self):
        with pytest.raises(NonPositiveVarianceError):
            mvn_diag_sample(RandomStream(1).derive("z", 0), np.zeros(3))

    def test_determinism(self):
        a = mvn_diag_sample(RandomStream(5).derive("z", 0), np.array([1.0]))
        b = mvn_diag_sample(RandomStream(5).derive("z", 0), np.array([1.0]))
        assert np.array_equal(a, b)

    def test_moments_quarter_variance(self):
        draws = np.concatenate([
            mvn_diag_sample(RandomStream(9).derive("mc", i), np.array([0.25] * 1000))
            for i in range(1000)
        ])
        assert abs(draws.mean()) <= 0.002
        assert abs(draws.var() - 0.25) <= 0.005
