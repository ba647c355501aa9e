import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from pebble_logit import Dataset, DegenerateResponseError, InvalidDataError, fit_mle
from pebble_logit.model import _CHUNK_BYTES, expit, info_matrix, sandwich_mid, weighted_gram
from conftest import central_differences, log_likelihood, predict_prob, random_dataset, score


class TestPredictProb:
    def test_zero_beta_is_half(self):
        assert predict_prob(np.zeros(3), np.array([1.0, -2.0, 0.5])) == 0.5

    def test_log_three_gives_three_quarters(self):
        assert predict_prob(np.array([np.log(3.0)]), np.array([1.0])) == pytest.approx(0.75, abs=1e-15)

    def test_saturation_no_overflow(self):
        p = predict_prob(np.array([40.0]), np.array([1.0]))
        assert abs(p - 1.0) <= 1e-10
        assert predict_prob(np.array([-800.0]), np.array([1.0])) >= 0.0

    def test_symmetry_one_ulp(self):
        for t in (0.3, 2.0, 17.5, 40.0):
            up = predict_prob(np.array([t]), np.array([1.0]))
            down = predict_prob(np.array([-t]), np.array([1.0]))
            assert down == pytest.approx(1.0 - up, abs=np.finfo(float).eps)

    def test_monotone_in_linear_predictor(self):
        zs = np.linspace(-30, 30, 201)
        probs = expit(zs[:, None] @ np.array([1.0]))
        assert np.all(np.diff(probs) >= 0.0)


class TestExpit:
    def test_within_four_ulps_of_scipy(self):
        rng = np.random.default_rng(71)
        z = np.concatenate([rng.uniform(-800.0, 800.0, 200_000), rng.uniform(-40.0, 40.0, 200_000),
                            [0.0, -0.0, 709.0, -709.0, 710.0, -710.0, -745.0, -746.0,
                             1e308, -1e308, np.inf, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(z)
        want = scipy_expit(z)
        # ulps of the reference value; below the normal range, of the smallest normal
        ulp = np.spacing(np.maximum(want, np.finfo(float).tiny))
        assert np.all(np.abs(got - want) <= 4 * ulp)
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_nan_stays_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(expit(np.array([np.nan]))).all()
            assert np.isnan(expit(np.nan))


class TestLogLikelihood:
    def test_zero_beta_closed_form(self):
        x = np.ones((4, 1))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        assert log_likelihood(np.zeros(1), x, y) == pytest.approx(4 * np.log(0.5), rel=1e-12)

    def test_single_point(self):
        assert log_likelihood(np.array([np.log(3.0)]), np.ones((1, 1)), np.array([1.0])) == \
            pytest.approx(np.log(0.75), rel=1e-12)

    def test_maximizer_property(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 40, 2)
        beta_hat = fit_mle(data).beta_hat
        base = log_likelihood(beta_hat, data.x, data.y)
        for _ in range(10):
            assert log_likelihood(beta_hat + rng.normal(0, 0.05, 2), data.x, data.y) <= base

    def test_never_positive(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, 30, 3)
        assert log_likelihood(rng.standard_normal(3), data.x, data.y) <= 0.0


class TestScore:
    def test_balanced_hand_case(self):
        x = np.ones((2, 1))
        y = np.array([1.0, 0.0])
        assert np.allclose(score(np.zeros(1), x, y), [0.0], atol=1e-15)

    def test_zero_at_mle(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 50, 3)
        beta_hat = fit_mle(data).beta_hat
        assert np.max(np.abs(score(beta_hat, data.x, data.y))) <= data.n * 1e-10

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_finite_difference_gradient(self, trial):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(10, 40))
        p = int(rng.integers(1, 5))
        data = random_dataset(rng, n, p)
        beta = rng.normal(0, 0.8, p)
        g = score(beta, data.x, data.y)
        fd = central_differences(lambda b: log_likelihood(b, data.x, data.y), beta, 1e-6)
        for j in range(p):
            assert fd[j] == pytest.approx(g[j], rel=1e-6, abs=1e-6)


class TestInfoMatrix:
    def test_hand_case(self):
        x = np.ones((2, 1))
        assert np.allclose(info_matrix(np.zeros(1), x), [[0.25]], atol=1e-15)

    def test_psd(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 30, 4)
        w = np.linalg.eigvalsh(info_matrix(rng.standard_normal(4), data.x))
        assert w.min() >= -1e-12

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_finite_difference_hessian(self, trial):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(10, 30))
        p = int(rng.integers(1, 4))
        data = random_dataset(rng, n, p)
        beta = rng.normal(0, 0.5, p)
        info = info_matrix(beta, data.x)
        fd = -central_differences(lambda b: score(b, data.x, data.y), beta, 1e-5) / n
        for j in range(p):
            assert np.allclose(fd[j], info[j], rtol=1e-5, atol=1e-7)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 25, 3)
        m = info_matrix(rng.standard_normal(3), data.x)
        assert np.array_equal(m, m.T)


class TestSandwichMid:
    def test_residuals_vanish_on_continuous_y(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 3))
        beta = rng.standard_normal(3)
        y_fake = expit(x @ beta)  # exact fitted probabilities
        assert np.max(np.abs(sandwich_mid(beta, x, y_fake))) == 0.0

    def test_hand_case(self):
        x = np.ones((2, 1))
        y = np.array([1.0, 0.0])
        assert np.allclose(sandwich_mid(np.zeros(1), x, y), [[0.25]], atol=1e-15)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, 40, 3)
        m = sandwich_mid(rng.standard_normal(3), data.x, data.y)
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= -1e-12


def _one_pass_gram(x, w):
    return (x.T * w[:, None, :]) @ x


def _relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestWeightedGram:
    """The gram sums row panels of P = _CHUNK_BYTES // (8 p) rows once n
    exceeds P; below that it is the one-pass product. It takes the weight
    rows in blocks of _CHUNK_BYTES // (8 p min(n, P)), at least one."""

    @staticmethod
    def _inputs(n, p, k, seed):
        rng = np.random.default_rng(seed)
        return np.asfortranarray(rng.standard_normal((n, p))), rng.random((k, n))

    @staticmethod
    def _block(n, p):
        return max(_CHUNK_BYTES // (8 * p * min(n, _CHUNK_BYTES // (8 * p))), 1)

    @pytest.mark.parametrize("n, p", [(50, 3), (_CHUNK_BYTES // 88, 11)])
    def test_one_panel_is_the_one_pass_product(self, n, p):
        x, w = self._inputs(n, p, 3, 1)
        assert weighted_gram(x, w).tobytes() == _one_pass_gram(x, w).tobytes()

    @pytest.mark.parametrize("p", [3, 11])
    @pytest.mark.parametrize("extra", ["one row", "three panels"])
    def test_panels_match_the_one_pass_product(self, p, extra):
        panel = _CHUNK_BYTES // (8 * p)
        n = panel + 1 if extra == "one row" else 3 * panel + 5
        x, w = self._inputs(n, p, 3, p)
        assert _relative_gap(weighted_gram(x, w), _one_pass_gram(x, w)) <= 1e-13

    @pytest.mark.parametrize("n, p", [(50, 3), (3 * (_CHUNK_BYTES // 88) + 5, 11), (200, 8)])
    def test_row_bytes_do_not_depend_on_the_stack(self, n, p):
        # Two full blocks of weight rows and a partial third.
        k = 2 * self._block(n, p) + 5
        x, w = self._inputs(n, p, k, 2)
        stacked = weighted_gram(x, w)
        for r in range(k):
            assert weighted_gram(x, w[r:r + 1])[0].tobytes() == stacked[r].tobytes()

    @pytest.mark.parametrize("n, p, k", [(200, 8, 80), (100, 4, 160)])
    def test_temporary_stays_within_the_budget(self, n, p, k):
        # The chunks of coverage_200_8 and ci_small: beyond the (k, p, p)
        # result, the gram holds one (block, p, n) temporary at a time,
        # with the two iteration buffers of np.getbufsize() doubles that
        # numpy's multiply allocates, and a 16 KiB slack for the block's
        # (block, p, p) product and array headers.
        x, w = self._inputs(n, p, k, 6)
        tracemalloc.start()
        try:
            weighted_gram(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _CHUNK_BYTES + 8 * k * p * p + 16 * np.getbufsize() + 16 * 1024

    @pytest.mark.parametrize("n, p, k", [(100, 4, 81), (100, 4, 160), (200, 8, 20),
                                         (200, 8, 80), (3100, 11, 2)])
    def test_m_star_is_the_nu_squared_gram_of_s(self, n, p, k):
        # M* = (sν)'(sν)/n as a weighted gram of the residual-scaled rows s.
        x, nu = self._inputs(n, p, k, 3)
        s = x * (np.random.default_rng(4).random(n) - 0.5)[:, None]
        s_nu = s * nu[:, :, None]
        direct = np.swapaxes(s_nu, -1, -2) @ s_nu
        assert _relative_gap(weighted_gram(s, nu * nu), direct) <= 1e-13


class TestDataset:
    def test_needs_enough_rows(self):
        with pytest.raises(InvalidDataError):
            Dataset(x=np.ones((2, 2)), y=np.array([0.0, 1.0]))

    def test_needs_a_covariate_column(self):
        # A response-only CSV loads as a design with p = 0.
        with pytest.raises(InvalidDataError):
            Dataset(x=np.empty((4, 0)), y=np.array([0.0, 1.0, 1.0, 0.0]))

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidDataError):
            Dataset(x=np.ones((3, 1)), y=np.array([0.0, 1.0, 2.0]))

    def test_rejects_non_finite_design(self):
        x = np.ones((3, 1))
        x[1, 0] = np.nan
        with pytest.raises(InvalidDataError):
            Dataset(x=x, y=np.array([0.0, 1.0, 0.0]))

    def test_rejects_constant_response(self):
        with pytest.raises(DegenerateResponseError):
            Dataset(x=np.ones((3, 1)), y=np.ones(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidDataError):
            Dataset(x=np.ones((3, 1)), y=np.array([0.0, 1.0]))

    def test_column_names_checked(self):
        with pytest.raises(InvalidDataError):
            Dataset(x=np.ones((3, 1)), y=np.array([0.0, 1.0, 1.0]), columns=("a", "b"))
