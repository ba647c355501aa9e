import numpy as np
import pytest
from scipy.special import expit

from pebble_logit import (
    Dataset,
    FittedModel,
    RandomStream,
    SingularMatrixError,
    SmoothingConfig,
    UsageError,
    fit_mle,
)
from pebble_logit.perturb import DEFAULT_WEIGHTS
from pebble_logit.pivots import default_bn, default_d_var, draw_smoothing, pivot_smoothed
from conftest import smoothed_pivot_vector, solve_replicate, star_bundle, star_matrices


def synthetic_fit(beta_hat, l_hat, m_hat, n, sigma_hat=None):
    l_hat = np.asarray(l_hat, dtype=float)
    m_hat = np.asarray(m_hat, dtype=float)
    l_inv = np.linalg.inv(l_hat)
    if sigma_hat is None:
        sigma_hat = l_inv @ m_hat @ l_inv
    return FittedModel(
        beta_hat=np.asarray(beta_hat, dtype=float),
        l_hat=l_hat,
        m_hat=m_hat,
        sigma_hat=np.asarray(sigma_hat, dtype=float),
        l_hat_inv=l_inv,
        iterations=1,
        final_score_norm=0.0,
        n=n,
    )


class TestDefaultBn:
    def test_value_100_3(self):
        assert default_bn(100, 3) == pytest.approx(0.5 * 100 ** (-0.2), rel=1e-12)
        assert default_bn(100, 3) == pytest.approx(0.19905359, abs=1e-7)

    def test_value_200_8(self):
        assert default_bn(200, 8) == pytest.approx(0.5 * 200 ** (-0.1), rel=1e-12)
        assert default_bn(200, 8) == pytest.approx(0.29435201, abs=1e-7)

    def test_dimension_clamp(self):
        assert default_bn(150, 1) == default_bn(150, 3)
        assert default_bn(150, 4) > default_bn(150, 3)  # p1 grows past the clamp

    def test_shrinks_with_n(self):
        assert default_bn(1000, 3) < default_bn(100, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_bn(1, 3)
        with pytest.raises(ValueError):
            default_bn(100, 0)

    def test_default_d_var(self):
        assert np.array_equal(default_d_var(4), np.full(4, 0.25))


class TestSmoothingConfig:
    def test_stores_realized_draw(self):
        z = np.array([0.3, -1.2])
        cfg = SmoothingConfig(bn=0.2, d_var=np.full(2, 0.25), z_original=z)
        assert np.array_equal(cfg.z_original, z)


class TestDrawSmoothing:
    @pytest.mark.parametrize("bn, d_var", [
        (0.0, None), (-0.0, None), (-1.0, None), (np.nan, None), (np.inf, None),
        (-np.inf, None),
        (None, [0.0]), (None, [-0.0]), (None, [np.nan]), (None, [np.inf]),
        (None, [0.25, 0.0, 0.25]), (None, [0.25, np.nan, 0.25]),
        (None, [0.25, 0.25]), (None, [0.25] * 4), (None, []),
    ], ids=[
        "bn-zero", "bn-neg-zero", "bn-negative", "bn-nan", "bn-inf", "bn-neg-inf",
        "dvar-zero", "dvar-neg-zero", "dvar-nan", "dvar-inf", "dvar-one-zero",
        "dvar-one-nan", "dvar-short", "dvar-long", "dvar-empty",
    ])
    def test_validation(self, bn, d_var):
        # Z has a density only for a finite bn > 0 and 1 or p finite,
        # positive variances.
        with pytest.raises(UsageError):
            draw_smoothing(RandomStream(1), 50, 3, bn, d_var)

    def test_single_variance_broadcasts(self):
        one = draw_smoothing(RandomStream(2), 50, 3, 0.2, [0.5])
        three = draw_smoothing(RandomStream(2), 50, 3, 0.2, [0.5, 0.5, 0.5])
        assert np.array_equal(one.d_var, np.full(3, 0.5))
        assert one.z_original.tobytes() == three.z_original.tobytes()

    def test_determinism(self):
        a = draw_smoothing(RandomStream(5), 50, 1, d_var=[1.0])
        b = draw_smoothing(RandomStream(5), 50, 1, d_var=[1.0])
        assert np.array_equal(a.z_original, b.z_original)

    def test_moments_quarter_variance(self):
        draws = np.concatenate([
            draw_smoothing(RandomStream(9).derive("mc", i), 50, 1000).z_original
            for i in range(1000)
        ])
        assert abs(draws.mean()) <= 0.002
        assert abs(draws.var() - 0.25) <= 0.005


class TestPivotSmoothed:
    def test_hand_case(self):
        # sigma=4, l_inv=2, bn=0.5, Z=1, n=4, delta=0.3 -> coord pivot 0.8
        fit = synthetic_fit([0.3], [[0.5]], [[1.0]], 4, sigma_hat=[[4.0]])
        cfg = SmoothingConfig(bn=0.5, d_var=np.array([0.25]), z_original=np.array([1.0]))
        bundle = pivot_smoothed(fit, np.zeros(1), cfg)
        assert bundle.coord_pivots[0] == pytest.approx(0.8, abs=1e-12)

    def test_zero_at_truth_with_zero_draw(self):
        fit = synthetic_fit([0.4, -0.2], np.eye(2) * 0.3, np.eye(2) * 0.2, 100)
        cfg = SmoothingConfig(bn=0.3, d_var=np.full(2, 0.25), z_original=np.zeros(2))
        bundle = pivot_smoothed(fit, fit.beta_hat, cfg)
        assert np.all(smoothed_pivot_vector(fit.m_hat, fit.l_hat, np.zeros(2), 100, 0.3,
                                            cfg.z_original) == 0.0)
        assert bundle.h_norm == 0.0
        assert np.all(bundle.coord_pivots == 0.0)

    def test_norm_matches_vector(self):
        rng = np.random.default_rng(31)
        fit = synthetic_fit(rng.normal(size=3), np.eye(3) * 0.5, np.eye(3) * 0.4, 64)
        cfg = SmoothingConfig(bn=0.2, d_var=np.full(3, 0.25), z_original=rng.normal(size=3))
        bundle = pivot_smoothed(fit, np.zeros(3), cfg)
        h = smoothed_pivot_vector(fit.m_hat, fit.l_hat, fit.beta_hat, 64, 0.2, cfg.z_original)
        assert bundle.h_norm == pytest.approx(np.linalg.norm(h), rel=1e-15)

    def test_bn_zero_limit_is_sandwich_t(self):
        rng = np.random.default_rng(32)
        fit = synthetic_fit(rng.normal(size=2), np.eye(2) * 0.4, np.eye(2) * 0.3, 49)
        cfg = SmoothingConfig(bn=1e-14, d_var=np.full(2, 0.25), z_original=rng.normal(size=2))
        beta0 = np.zeros(2)
        bundle = pivot_smoothed(fit, beta0, cfg)
        classic = 7.0 * (fit.beta_hat - beta0) / np.sqrt(np.diag(fit.sigma_hat))
        assert np.allclose(bundle.coord_pivots, classic, atol=1e-10)

    def test_coord_vector_consistency_diagonal(self):
        # with diagonal matrices and Z = 0 the j-th coordinate pivot equals
        # the j-th vector-pivot component
        a = np.array([0.5, 0.25, 0.125])
        m = np.array([0.4, 0.9, 0.2])
        fit = synthetic_fit([0.3, -0.7, 1.1], np.diag(a), np.diag(m), 81)
        cfg = SmoothingConfig(bn=0.3, d_var=np.full(3, 0.25), z_original=np.zeros(3))
        bundle = pivot_smoothed(fit, np.zeros(3), cfg)
        h = smoothed_pivot_vector(fit.m_hat, fit.l_hat, fit.beta_hat, 81, 0.3, cfg.z_original)
        assert np.allclose(bundle.coord_pivots, h, atol=1e-10)
        assert bundle.h_norm == pytest.approx(np.linalg.norm(h), rel=1e-14)


def two_point_case():
    data = Dataset(x=np.ones((2, 1)), y=np.array([1.0, 0.0]))
    fitted = fit_mle(data)
    weights = np.array([0.5, 0.25])
    beta_star = solve_replicate(data, fitted.beta_hat, weights)
    return data, fitted, weights, beta_star


class TestPivotSmoothedStar:
    def test_zero_bundle_at_anchor(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((30, 2))
        y = (rng.random(30) < 0.5).astype(float)
        data = Dataset(x=x, y=y)
        fitted = fit_mle(data)
        weights = DEFAULT_WEIGHTS.draw(RandomStream(42).derive("w", 0).generator, 30)
        bundle = star_bundle(data, fitted.beta_hat, fitted.beta_hat, weights, 0.2, np.zeros(2))
        l_star, m_star = star_matrices(data, fitted.beta_hat, fitted.beta_hat, weights)
        h = smoothed_pivot_vector(m_star, l_star, np.zeros(2), 30, 0.2, np.zeros(2))
        assert np.allclose(h, 0.0, atol=1e-12)
        assert bundle.h_norm == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(bundle.coord_pivots, 0.0, atol=1e-12)

    def test_degenerate_weights_raise_singular(self):
        data, fitted, _, _ = two_point_case()
        with pytest.raises(SingularMatrixError):
            star_bundle(data, fitted.beta_hat, fitted.beta_hat, np.full(2, 0.25), 0.5, np.zeros(1))

    def test_hand_recomputation(self):
        data, fitted, weights, beta_star = two_point_case()
        bn, z_star = 0.5, np.array([0.2])
        bundle = star_bundle(data, fitted.beta_hat, beta_star, weights, bn, z_star)

        # independent scalar arithmetic
        bs = beta_star[0]
        ps = np.exp(bs) / (1 + np.exp(bs))
        l_star = ps * (1 - ps)  # both rows x=1, averaged over n=2
        nu = (weights - 0.25) / 0.25
        resid = data.y - 0.5
        m_star = np.mean((resid * nu) ** 2)
        h = (1 / np.sqrt(m_star)) * (np.sqrt(2.0) * l_star * bs + bn * z_star[0])
        sigma_star = m_star / l_star**2
        coord = (np.sqrt(2.0) * bs + bn * (1 / l_star) * z_star[0]) / np.sqrt(sigma_star)
        l_oracle, m_oracle = star_matrices(data, fitted.beta_hat, beta_star, weights)
        oracle = smoothed_pivot_vector(m_oracle, l_oracle, beta_star - fitted.beta_hat, 2, bn,
                                       z_star)
        assert oracle[0] == pytest.approx(h, rel=1e-10)
        assert bundle.coord_pivots[0] == pytest.approx(coord, rel=1e-10)
        assert bundle.h_norm == pytest.approx(abs(h), rel=1e-10)

    def test_star_side_uses_its_own_matrices(self):
        # the bootstrap information matrix is evaluated at beta_star
        data, fitted, weights, beta_star = two_point_case()
        ps = expit(beta_star[0])
        assert ps == pytest.approx(0.75, abs=1e-8)


class TestDistributionalSanity:
    def test_coordinate_pivots_standardized(self, pivot_sanity_sample):
        arr = pivot_sanity_sample
        assert arr.shape[0] >= 1900
        means = arr.mean(axis=0)
        variances = arr.var(axis=0)
        assert np.all(np.abs(means) <= 0.08)
        assert np.all((variances >= 0.85) & (variances <= 1.25))
