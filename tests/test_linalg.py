import numpy as np
import pytest

from pebble_logit import SingularMatrixError
from pebble_logit.linalg import spd_factor, sym_inverse, symmetrize
from conftest import eigh_inv_sqrt, random_spd


def max_abs(a):
    return float(np.max(np.abs(a)))


def quad_gap(c, a, v):
    """Relative gap between ||C^{-1}v||^2 and the oracle's v'A^{-1}v."""
    oracle = float(np.sum((eigh_inv_sqrt(a) @ v) ** 2))
    return abs(float(np.sum(np.linalg.solve(c, v) ** 2)) - oracle) / oracle


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


class TestSpdFactor:
    def test_identity(self):
        assert np.allclose(spd_factor(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        c = spd_factor(np.diag([4.0, 9.0]))
        assert np.allclose(c, np.diag([2.0, 3.0]), atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        a = random_spd(rng, 5)
        c = spd_factor(a)
        assert np.array_equal(c, np.tril(c))
        assert max_abs(c @ c.T - a) <= 1e-10
        assert quad_gap(c, a, rng.standard_normal(5)) <= 1e-10


class TestSingularityFloor:
    """Singular when min C_ii^2 <= 1e-12 max A_ii, at any scale of A."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_just_below_the_floor_raises(self, scale):
        with pytest.raises(SingularMatrixError):
            spd_factor(scale * np.diag([1.0, 1e-13]))

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_just_above_the_floor_passes(self, scale):
        c = spd_factor(scale * np.diag([1.0, 1e-11]))
        assert np.allclose(c, np.sqrt(scale * np.diag([1.0, 1e-11])), rtol=1e-15)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            spd_factor(np.zeros((3, 3)))


class TestInvariants:
    """Cross-operation identities on 50 random SPD matrices."""

    @pytest.mark.parametrize("trial", range(50))
    def test_reconstruction_suite(self, trial):
        rng = np.random.default_rng(1000 + trial)
        dim = int(rng.integers(2, 8))
        a = random_spd(rng, dim, cond=float(rng.uniform(2, 1e4)))
        c_inv = np.linalg.inv(spd_factor(a))
        assert max_abs(c_inv @ a @ c_inv.T - np.eye(dim)) <= 1e-8
        oracle = eigh_inv_sqrt(a)
        assert max_abs(sym_inverse(a) - oracle @ oracle) <= 1e-8

    def test_extreme_condition_number(self):
        rng = np.random.default_rng(77)
        a = random_spd(rng, 6, cond=1e8)
        c_inv = np.linalg.inv(spd_factor(a))
        assert max_abs(c_inv @ a @ c_inv.T - np.eye(6)) <= 1e-8

    @pytest.mark.parametrize("op", [sym_inverse, symmetrize])
    def test_outputs_exactly_symmetric(self, op):
        rng = np.random.default_rng(21)
        a = random_spd(rng, 5)
        r = op(a)
        assert np.array_equal(r, r.T)
