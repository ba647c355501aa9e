import numpy as np
import pytest
from hypothesis import given

from pebble_logit import (
    Dataset,
    RandomStream,
    SeparationError,
    fit_mle,
    inference,
    run_pebble,
    solver,
)
from pebble_logit.model import expit
from pebble_logit.solver import _newton_lin, _start_state
from conftest import (
    grid_mle_1d,
    log_likelihood,
    overlapped_data,
    random_dataset,
    replicate_pieces,
    score,
)


def fit_weighted_equation(data, beta_anchor, offset):
    """Root t of ``offset + sum_i (p(anchor|x_i) - p(t|x_i)) x_i = 0``, the
    deterministic core of the bootstrap equation, by the Newton kernel
    started at the anchor."""
    lin0, _ = replicate_pieces(data, beta_anchor)
    t, _, score_norm, status = _newton_lin(data.x, (lin0 + offset)[None], beta_anchor)
    if status[0] != solver.CONVERGED:
        raise solver.separation_error(status[0], score_norm[0])
    return t[0]


def intercept_only(n_ones: int, n: int) -> Dataset:
    y = np.zeros(n)
    y[:n_ones] = 1.0
    return Dataset(x=np.ones((n, 1)), y=y)


class TestFitMle:
    def test_closed_form_logit(self):
        fitted = fit_mle(intercept_only(3, 4))
        assert fitted.beta_hat[0] == pytest.approx(np.log(3.0), abs=1e-10)

    def test_balanced_case_zero(self):
        fitted = fit_mle(intercept_only(1, 2))
        assert fitted.beta_hat[0] == 0.0
        assert fitted.iterations == 0

    def test_score_small_at_solution(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 60, 3)
        fitted = fit_mle(data)
        assert np.max(np.abs(score(fitted.beta_hat, data.x, data.y))) / data.n <= 1e-10
        assert fitted.final_score_norm <= 1e-10

    def test_idempotent_bit_identical(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng, 50, 2)
        a = fit_mle(data).beta_hat
        b = fit_mle(data).beta_hat
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("trial", range(20))
    def test_grid_oracle_1d(self, trial):
        rng = np.random.default_rng(500 + trial)
        while True:
            n = int(rng.integers(8, 16))
            data = random_dataset(rng, n, 1)
            oracle = grid_mle_1d(data.x, data.y)
            if abs(oracle) < 9.999:  # inside the oracle's grid
                break
        assert abs(fit_mle(data).beta_hat[0] - oracle) <= 1e-3

    def test_column_rescale_equivariance(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 60, 3)
        fitted = fit_mle(data)
        c = 3.7
        x2 = data.x.copy()
        x2[:, 1] *= c
        fitted2 = fit_mle(Dataset(x=x2, y=data.y))
        expect = fitted.beta_hat.copy()
        expect[1] /= c
        assert np.allclose(fitted2.beta_hat, expect, rtol=1e-8)

    def test_sandwich_fields_consistent(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, 50, 2)
        fitted = fit_mle(data)
        sigma = fitted.l_hat_inv @ fitted.m_hat @ fitted.l_hat_inv
        assert np.allclose(fitted.sigma_hat, sigma, atol=1e-12)
        assert np.linalg.eigvalsh(fitted.sigma_hat).min() > 0.0

    def test_separation_raises(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_mle(Dataset(x=x, y=y))

    @pytest.mark.parametrize("seed", [1470, 1963, 2337, 2345, 2379, 2851])
    def test_strictly_classifying_fit_raises(self, seed):
        # Separated data whose Newton iterate stopped with a smallest margin
        # (2y - 1)x'β̂ near 18, where |y - p̂| is just above 1e-8.
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, rng.integers(20, 81), rng.integers(1, 5))
        with pytest.raises(SeparationError):
            fit_mle(data)

    def test_monotone_ascent_trace(self, monkeypatch):
        rng = np.random.default_rng(6)
        for _ in range(10):
            data = random_dataset(rng, 40, 2)
            # The Newton loop evaluates expit once at every accepted iterate,
            # on its linear predictor z = x t (fit_mle solves a batch of one
            # row, so z arrives as a (1, n) stack).
            seen = []

            def recording_expit(z):
                seen.append(np.array(z)[0])
                return expit(z)

            with monkeypatch.context() as patch:
                patch.setattr(solver, "expit", recording_expit)
                fit_mle(data)
            iterates = [np.linalg.lstsq(data.x, z, rcond=None)[0] for z in seen]
            values = np.array([log_likelihood(t, data.x, data.y) for t in iterates])
            slack = 1e-12 * (1.0 + np.abs(values[:-1]))
            assert np.all(np.diff(values) >= -slack)
            assert values[-1] == pytest.approx(
                log_likelihood(fit_mle(data).beta_hat, data.x, data.y), rel=1e-12
            )


class TestLabelFlip:
    @given(overlapped_data())
    def test_flipped_response_negates_beta(self, data):
        fitted = fit_mle(data)
        flipped = fit_mle(Dataset(x=data.x, y=1.0 - data.y))
        assert np.allclose(flipped.beta_hat, -fitted.beta_hat, rtol=0.0, atol=1e-8)
        assert np.allclose(flipped.l_hat, fitted.l_hat, rtol=0.0, atol=1e-12)


class TestFitWeightedEquation:
    def test_zero_offset_returns_anchor(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, 40, 2)
        anchor = fit_mle(data).beta_hat
        t = fit_weighted_equation(data, anchor, np.zeros(2))
        assert np.array_equal(t, anchor)

    def test_postcondition_replay(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, 50, 3)
        fitted = fit_mle(data)
        offset = rng.normal(0, 1.0, 3)
        t = fit_weighted_equation(data, fitted.beta_hat, offset)
        eq = offset + data.x.T @ (expit(data.x @ fitted.beta_hat) - expit(data.x @ t))
        assert np.max(np.abs(eq)) / data.n <= 1e-10

    @pytest.mark.parametrize("trial", range(10))
    def test_bisection_oracle_1d(self, trial):
        rng = np.random.default_rng(900 + trial)
        data = random_dataset(rng, 25, 1)
        fitted = fit_mle(data)
        offset = np.array([rng.normal(0, 2.0)])

        def equation(v):
            terms = offset + data.x.T @ (
                expit(data.x @ fitted.beta_hat) - expit(data.x @ np.array([v]))
            )
            return float(terms[0])

        lo, hi = -50.0, 50.0
        if equation(lo) * equation(hi) > 0:
            # offset outside the attainable range: no root exists and the
            # solver must classify the problem as separated
            with pytest.raises(SeparationError):
                fit_weighted_equation(data, fitted.beta_hat, offset)
            return
        t = fit_weighted_equation(data, fitted.beta_hat, offset)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if equation(lo) * equation(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert t[0] == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def mixed_batch():
    """(x, lin, β̂) for a batch of three rows from β̂: row 0 is the MLE's
    own equation, converged at the start; row 1 has a small offset; row 2
    solves for labels that the sign of x_1 separates, with one point at
    x = (1e-6, 0), so it diverges."""
    rng = np.random.default_rng(33)
    x = rng.standard_normal((60, 2))
    x[0] = [1e-6, 0.0]
    data = Dataset(x=x, y=(rng.random(60) < expit(x @ [1.0, -0.5])).astype(float))
    beta_hat = fit_mle(data).beta_hat
    lin0, _ = replicate_pieces(data, beta_hat)
    lin = np.array([lin0, lin0 + [2.0, -1.5], x.T @ (x[:, 0] > 0.0)])
    return data.x, lin, beta_hat


class TestSharedStart:
    def test_state_matches_point(self):
        # A start state built once gives every row the bytes that a (p,)
        # start computed inside the call gives, whichever round it leaves in.
        x, lin, beta_hat = mixed_batch()
        from_point = _newton_lin(x, lin, beta_hat)
        from_state = _newton_lin(x, lin, _start_state(x, beta_hat))
        assert from_point[3].tolist() == [solver.CONVERGED, solver.CONVERGED, solver.DIVERGED]
        for a, b in zip(from_point, from_state):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_state_is_read_only(self):
        x, _, beta_hat = mixed_batch()
        state = _start_state(x, beta_hat)
        with pytest.raises(ValueError):
            state.hess[0, 0, 0] = 0.0


class TestLayout:
    def test_point_start_gives_c_contiguous_stack(self):
        # A row slice of the returned stack and a fresh row then take the
        # same matmul path in the pivots.
        x, lin, beta_hat = mixed_batch()
        t, _, _, _ = _newton_lin(x, lin, beta_hat)
        assert t.flags.c_contiguous

    def test_design_is_column_major(self):
        data = random_dataset(np.random.default_rng(14), 30, 3)
        assert data.x.flags.f_contiguous

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_design_order_keeps_ensemble_bytes(self, monkeypatch, chunk):
        base = random_dataset(np.random.default_rng(15), 120, 3)
        if chunk is not None:
            monkeypatch.setattr(inference, "_chunk_size", lambda n, p: chunk)

        def ensemble(x):
            data = Dataset(x=x, y=base.y)
            e = run_pebble(data, fit_mle(data), 150, RandomStream(21))
            return (e.coord_pivots.tobytes(), e.h_norms.tobytes(), e.beta_stars.tobytes(),
                    e.failed_replicates)

        assert ensemble(np.ascontiguousarray(base.x)) == ensemble(np.asfortranarray(base.x))
