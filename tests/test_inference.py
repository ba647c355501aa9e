import dataclasses
import itertools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import chdtri, expit, ndtri

from pebble_logit import (
    Dataset,
    EmptySampleError,
    FittedModel,
    PebbleError,
    RandomStream,
    SmoothingConfig,
    TooManyFailuresError,
    UsageError,
    fit_mle,
    inference,
    make_intervals,
    normal_intervals,
    run_pebble,
    solver,
)
from pebble_logit.inference import (
    MAX_FAILURE_RATE,
    BootstrapEnsemble,
    _replicate_threads,
    chi2_upper_quantile,
    quantile,
    region_contains,
)
from pebble_logit.perturb import DEFAULT_WEIGHTS
from pebble_logit.pivots import _star_bundle, default_bn, default_d_var
from conftest import (
    MU,
    overlapped_data,
    random_dataset,
    replicate_pieces,
    solve_replicate,
    star_bundle,
)


class TestQuantile:
    def test_nearest_rank_basic(self):
        samples = np.arange(1.0, 101.0)
        assert quantile(samples, 0.9) == 90.0

    def test_clamp_low(self):
        samples = np.arange(1.0, 101.0)
        assert quantile(samples, 0.005) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            quantile(np.array([]), 0.5)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            quantile(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            quantile(np.array([1.0]), 1.0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            size = int(rng.integers(1, 1001))
            samples = rng.normal(size=size)
            alpha = float(rng.uniform(0.001, 0.999))
            expected = np.sort(samples)[min(max(int(np.ceil(size * alpha)), 1), size) - 1]
            assert quantile(samples, alpha) == expected


def replicate_nu(n: int, sub: RandomStream) -> np.ndarray:
    """Centered-scaled weights (G* - mu)/mu drawn first from a substream."""
    return (DEFAULT_WEIGHTS.draw(sub.generator, n) - DEFAULT_WEIGHTS.mu) / DEFAULT_WEIGHTS.mu


def small_problem(seed=17, n=80, p=2):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n, p)
    return data, fit_mle(data), RandomStream(seed)


class TestRunPebble:
    def test_minimum_b_enforced(self):
        data, fitted, stream = small_problem()
        with pytest.raises(ValueError):
            run_pebble(data, fitted, 50, stream)

    def test_usage_error_is_value_error(self):
        data, fitted, stream = small_problem()
        assert issubclass(UsageError, ValueError)
        with pytest.raises(UsageError):
            run_pebble(data, fitted, 50, stream)

    @pytest.mark.parametrize("bn, d_var", [
        (0.0, None), (np.nan, None), (np.inf, None),
        (None, [0.0]), (None, [np.nan]), (None, [np.inf]), (None, [0.25, 0.25, 0.25]),
    ], ids=["bn-zero", "bn-nan", "bn-inf", "dvar-zero", "dvar-nan", "dvar-inf", "dvar-long"])
    def test_rejects_bad_smoothing(self, bn, d_var):
        data, fitted, stream = small_problem()
        with pytest.raises(UsageError):
            run_pebble(data, fitted, 100, stream, bn, d_var)

    @pytest.mark.parametrize("bn", [1e300, 1.7e308])
    def test_overflowing_pivots_fail_replicates(self, bn):
        # A finite but huge b_n overflows every replicate's pivot: the run
        # ends in the failure count, with no warning and no inf kept.
        data, fitted, stream = small_problem()
        with pytest.raises(TooManyFailuresError, match="100 of 100"):
            run_pebble(data, fitted, 100, stream, bn)

    def test_deterministic(self):
        data, fitted, stream = small_problem()
        a = run_pebble(data, fitted, 200, RandomStream(99))
        b = run_pebble(data, fitted, 200, RandomStream(99))
        assert np.array_equal(a.coord_pivots, b.coord_pivots)
        assert np.array_equal(a.h_norms, b.h_norms)
        assert np.array_equal(a.beta_stars, b.beta_stars)
        assert a.failed_replicates == b.failed_replicates

    def test_thread_count_bit_identical(self, monkeypatch):
        # Bit-identical at any chunk size and thread count.
        data, fitted, stream = small_problem()
        a = run_pebble(data, fitted, 300, RandomStream(7))
        default = inference._chunk_size(data.n, data.p)
        for threads, chunk in itertools.product([1, 8], [1, 7, default]):
            monkeypatch.setattr(inference, "_replicate_threads", lambda n, k=threads: k)
            monkeypatch.setattr(inference, "_chunk_size", lambda n, p, k=chunk: k)
            b = run_pebble(data, fitted, 300, RandomStream(7))
            assert np.array_equal(a.coord_pivots, b.coord_pivots)
            assert np.array_equal(a.h_norms, b.h_norms)
            assert np.array_equal(a.beta_stars, b.beta_stars)

    @settings(max_examples=40)
    @given(overlapped_data(), st.integers(1, 8), st.integers(100, 250),
           st.sampled_from([1, 2, 7, None]))
    def test_schedule_invariant_ensemble(self, data, threads, b, chunk):
        fitted = fit_mle(data)
        default = inference._chunk_size(data.n, data.p)

        def outcome(k, size):
            # The ensemble's bytes, or the failure message (with its count)
            # when too many replicates fail, as on about half of these
            # small adversarial datasets; neither may depend on the thread
            # count k or the chunk size.
            with mock.patch.object(inference, "_replicate_threads", lambda n: k), \
                    mock.patch.object(inference, "_chunk_size", lambda n, p: size):
                try:
                    e = run_pebble(data, fitted, b, RandomStream(11))
                except TooManyFailuresError as exc:
                    return str(exc)
            return (e.coord_pivots.tobytes(), e.h_norms.tobytes(),
                    e.beta_stars.tobytes(), e.failed_replicates)

        assert outcome(threads, chunk or default) == outcome(1, default)

    @pytest.mark.parametrize("b", [100, 300])
    @pytest.mark.parametrize("at_limit", [False, True])
    def test_failure_share_boundary(self, monkeypatch, b, at_limit):
        # The run aborts once failed/b reaches MAX_FAILURE_RATE.
        data, fitted, _ = small_problem()
        limit = math.ceil(MAX_FAILURE_RATE * b)
        failing = limit if at_limit else limit - 1
        solve = inference._solve_replicate
        # ν of both tries of the first `failing` replicates, drawn as run_pebble
        # draws them: the first from ("boot", r), the retry from ("retry", r).
        forced = {replicate_nu(data.n, RandomStream(8).derive(label, r)).tobytes()
                  for r in range(failing) for label in ("boot", "retry")}

        def flaky(x, lin0, s, beta_hat, nu):
            beta_star, solved = solve(x, lin0, s, beta_hat, nu)
            return beta_star, solved & np.array([row.tobytes() not in forced for row in nu])

        monkeypatch.setattr(inference, "_solve_replicate", flaky)
        if at_limit:
            with pytest.raises(TooManyFailuresError):
                run_pebble(data, fitted, b, RandomStream(8))
        else:
            assert run_pebble(data, fitted, b, RandomStream(8)).failed_replicates == failing

    def test_int_seed_equivalent_to_stream(self):
        data, fitted, _ = small_problem()
        a = run_pebble(data, fitted, 150, 31)
        b = run_pebble(data, fitted, 150, RandomStream(31))
        assert np.array_equal(a.coord_pivots, b.coord_pivots)
        assert np.array_equal(a.smoothing.z_original, b.smoothing.z_original)

    @pytest.mark.parametrize("bn, d_var", [(None, None), (0.2, [0.5, 2.0])])
    def test_smoothing_drawn_from_seed(self, bn, d_var):
        # Z comes from the run's own seed, substream ("smooth", 0), scaled
        # by sqrt(d_var); bn and d_var default from n and p.
        data, fitted, _ = small_problem()
        cfg = run_pebble(data, fitted, 100, 13, bn, d_var).smoothing
        d = default_d_var(data.p) if d_var is None else np.asarray(d_var)
        z = RandomStream(13).derive("smooth", 0).gaussians(data.p) * np.sqrt(d)
        assert cfg.z_original.tobytes() == z.tobytes()
        assert cfg.bn == (default_bn(data.n, data.p) if bn is None else bn)
        assert np.array_equal(cfg.d_var, d)

    def test_matches_public_per_replicate_ops(self):
        # Replay replicate r from its own substream through the kernel.
        data, fitted, _ = small_problem(seed=23)
        stream = RandomStream(5)
        ensemble = run_pebble(data, fitted, 120, RandomStream(5))
        cfg = ensemble.smoothing
        assert ensemble.failed_replicates == 0
        for r in (0, 7, 119):
            sub = stream.derive("boot", r)
            weights = DEFAULT_WEIGHTS.draw(sub.generator, data.n)
            beta_star = solve_replicate(data, fitted.beta_hat, weights)
            z_star = sub.gaussians(data.p) * np.sqrt(cfg.d_var)
            bundle = star_bundle(data, fitted.beta_hat, beta_star, weights, cfg.bn, z_star)
            assert np.array_equal(ensemble.beta_stars[r], beta_star)
            assert np.array_equal(ensemble.coord_pivots[r], bundle.coord_pivots)
            assert ensemble.h_norms[r] == bundle.h_norm

    def test_bootstrap_pivot_mean_near_zero(self):
        rng = np.random.default_rng(63)
        data = random_dataset(rng, 200, 2)
        fitted = fit_mle(data)
        ensemble = run_pebble(data, fitted, 2000, RandomStream(64))
        assert np.all(np.abs(ensemble.coord_pivots.mean(axis=0)) <= 0.1)


    def test_infinite_newton_step_fails_replicate_quietly(self):
        # A subnormal design entry makes some replicate Hessians so nearly
        # singular that the Newton step is infinite; those replicates must
        # fail at once, without NaN trial points or RuntimeWarnings. At seed 1,
        # 23 first tries fail so, and 1 of their retries on ("retry", r)
        # weights fails again.
        x = np.array([[2.2e-311, 2.1790735340993193],
                      [0.24876732149455005, -1.2017286567756913],
                      [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        data = Dataset(x=x, y=np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit_mle(data)
            with pytest.raises(TooManyFailuresError, match="1 of 100"):
                run_pebble(data, fitted, 100, 1)


class TestBatchedRows:
    """One row of a batched replicate call fails alone, and a retried
    replicate replays from its own substreams."""

    def test_singular_m_star_fails_only_its_row(self):
        data, fitted, _ = small_problem(seed=29)
        _, s = replicate_pieces(data, fitted.beta_hat)
        rng = np.random.default_rng(30)
        nu = (DEFAULT_WEIGHTS.draw(rng, 3 * data.n).reshape(3, data.n) - MU) / MU
        nu[1, 1:] = 0.0  # one nonzero weight: M* has rank 1 < p
        beta_star = fitted.beta_hat + 0.05 * rng.standard_normal((3, data.p))
        z_star = rng.standard_normal((3, data.p))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            coord, norms, ok = _star_bundle(data.x, s, fitted.beta_hat, beta_star, nu, 0.3, z_star)
            assert ok.tolist() == [True, False, True]
            assert np.isnan(norms[1]) and np.isnan(coord[1]).all()
            for r in (0, 2):
                one = _star_bundle(data.x, s, fitted.beta_hat, beta_star[r:r + 1],
                                   nu[r:r + 1], 0.3, z_star[r:r + 1])
                assert coord[r].tobytes() == one[0][0].tobytes()
                assert norms[r].tobytes() == one[1][0].tobytes()
                assert one[2].tolist() == [True]

    def test_singular_hessian_fails_only_its_row(self):
        # With an intercept column and the start (1000, 0), every fitted
        # probability rounds to 1, so that row's Hessian is exactly zero.
        rng = np.random.default_rng(31)
        x = np.column_stack([np.ones(40), rng.standard_normal(40)])
        y = (rng.random(40) < expit(x @ [0.3, -0.8])).astype(float)
        data = Dataset(x=x, y=y)
        fitted = fit_mle(data)
        lin0, s = replicate_pieces(data, fitted.beta_hat)
        nu = (DEFAULT_WEIGHTS.draw(rng, 3 * data.n).reshape(3, data.n) - MU) / MU
        lin = lin0 + (nu[:, None, :] @ s)[:, 0, :]
        start = np.array([fitted.beta_hat, [1000.0, 0.0], fitted.beta_hat])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t, _, _, status = solver._newton_lin(x, lin, start)
            assert status.tolist() == [solver.CONVERGED, solver.SINGULAR, solver.CONVERGED]
            for r in (0, 2):
                one, _, _, one_status = solver._newton_lin(x, lin[r:r + 1], start[r])
                assert one_status.tolist() == [solver.CONVERGED]
                assert t[r].tobytes() == one[0].tobytes()

    def test_rows_leaving_at_different_rounds_keep_their_bytes(self):
        # Row 0 starts at the MLE, row 1 far from it, and row 2 solves for
        # labels that the sign of x_1 separates, with one point at
        # x = (1e-6, 0), so it diverges: the rows leave the batch in
        # different rounds and with different outcomes.
        rng = np.random.default_rng(32)
        x = rng.standard_normal((60, 2))
        x[0] = [1e-6, 0.0]
        y = (rng.random(60) < expit(x @ [1.0, -0.5])).astype(float)
        fitted = fit_mle(Dataset(x=x, y=y))
        lin = np.array([x.T @ y, x.T @ y, x.T @ (x[:, 0] > 0.0)])
        start = np.array([fitted.beta_hat, [3.0, -4.0], fitted.beta_hat])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t, _, norms, status = solver._newton_lin(x, lin, start)
            assert status.tolist() == [solver.CONVERGED, solver.CONVERGED, solver.DIVERGED]
            for r in range(3):
                one, _, one_norms, one_status = solver._newton_lin(x, lin[r:r + 1], start[r])
                assert one_status[0] == status[r]
                assert t[r].tobytes() == one[0].tobytes()
                assert norms[r].tobytes() == one_norms[0].tobytes()

    @pytest.mark.parametrize("r", [0, 5, 81, 119])
    def test_retry_replays_from_its_substreams(self, monkeypatch, r):
        # Replicate r's first solve is forced to fail: its β* and pivots are
        # those of a chunk-of-one replay on weights from ("retry", r), with
        # the Z* drawn right after ("boot", r)'s weights.
        data, fitted, _ = small_problem(seed=23)
        boot = RandomStream(5).derive("boot", r)
        first = replicate_nu(data.n, boot).tobytes()
        solve = inference._solve_replicate

        def fail_first_try(x, lin0, s, beta_hat, nu):
            beta_star, solved = solve(x, lin0, s, beta_hat, nu)
            return beta_star, solved & np.array([row.tobytes() != first for row in nu])

        monkeypatch.setattr(inference, "_solve_replicate", fail_first_try)
        ensemble = run_pebble(data, fitted, 120, RandomStream(5))
        cfg = ensemble.smoothing
        assert ensemble.failed_replicates == 0
        z_star = boot.gaussians(data.p) * np.sqrt(cfg.d_var)
        weights = DEFAULT_WEIGHTS.draw(RandomStream(5).derive("retry", r).generator, data.n)
        beta_star = solve_replicate(data, fitted.beta_hat, weights)
        bundle = star_bundle(data, fitted.beta_hat, beta_star, weights, cfg.bn, z_star)
        assert ensemble.beta_stars[r].tobytes() == beta_star.tobytes()
        assert ensemble.coord_pivots[r].tobytes() == bundle.coord_pivots.tobytes()
        assert ensemble.h_norms[r] == bundle.h_norm


@st.composite
def edge_data(draw):
    """Datasets at the numerical edges, one of three kinds:
    ``far``: logistic rows plus 1-5 rows at 25-35 along the true direction,
    labelled by side, so the fit has |x'β̂| around 30 there;
    ``flat``: a column at a constant level with spread 0, 1e-13 or 1e-8,
    with or without an intercept column beside it;
    ``flip``: labels separated by a hyperplane except for one flipped row."""
    case = draw(st.sampled_from(["far", "flat", "flip"]))
    p = draw(st.integers(1, 3))
    n = draw(st.integers(15, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    if case == "far":
        y = (rng.random(n) < expit(x @ v)).astype(float)
        t = np.array(draw(st.lists(st.floats(25.0, 35.0), min_size=1, max_size=5)))
        side = rng.choice([-1.0, 1.0], t.size)
        x = np.vstack([x, (t * side)[:, None] * v])
        y = np.concatenate([y, (side > 0).astype(float)])
    elif case == "flat":
        level = draw(st.sampled_from([1.0, -2.5]))
        spread = draw(st.sampled_from([0.0, 1e-13, 1e-8]))
        y = (rng.random(n) < expit(x @ v)).astype(float)
        col = level + spread * rng.standard_normal(n)
        x = np.column_stack([np.ones(n), col, x] if draw(st.booleans()) else [col, x])
    else:
        y = (x @ v > 0).astype(float)
        j = draw(st.integers(0, n - 1))
        y[j] = 1.0 - y[j]
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return Dataset(x=x, y=y)


class TestEdgeData:
    @settings(max_examples=60)
    @given(edge_data(), st.integers(0, 1000))
    def test_finite_or_typed_error(self, data, seed):
        # RuntimeWarnings are errors in this suite, so they escape too.
        try:
            fitted = fit_mle(data)
            iv = make_intervals(fitted, run_pebble(data, fitted, 100, seed), 0.1)
        except PebbleError:
            return
        for a in (iv.two_sided, iv.upper, iv.lower, iv.region_radius):
            assert np.all(np.isfinite(a))


class TestReplicateThreads:
    @pytest.mark.parametrize("n, expected", [(1999, 1), (2000, 3), (10**6, 3)])
    def test_rule(self, monkeypatch, n, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _replicate_threads(n) == expected

    def test_pool_worker_gets_one(self):
        with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
            assert pool.submit(_replicate_threads, 10**6).result(timeout=120) == 1


class TestMakeIntervals:
    def test_hand_endpoint_algebra(self):
        # beta_hat=1, sigma=4, n=4, q05=-2, q95=2, correction 0.1 -> [-0.9, 3.1]
        fit = FittedModel(
            beta_hat=np.array([1.0]),
            l_hat=np.array([[0.5]]),
            m_hat=np.array([[1.0]]),
            sigma_hat=np.array([[4.0]]),
            l_hat_inv=np.array([[2.0]]),
            iterations=1,
            final_score_norm=0.0,
            n=4,
        )
        # engineered pivot sample of size 100: nearest-rank q_{0.05} is the
        # 5th smallest (-2) and q_{0.95} the 95th smallest (+2)
        pivots = np.concatenate([np.full((5, 1), -2.0), np.zeros((89, 1)), np.full((6, 1), 2.0)])
        ensemble = BootstrapEnsemble(
            coord_pivots=pivots,
            h_norms=np.abs(pivots[:, 0]),
            beta_stars=np.zeros((100, 1)),
            failed_replicates=0,
            b=100,
            seed=0,
            smoothing=SmoothingConfig(bn=0.1, d_var=np.array([0.25]), z_original=np.array([1.0])),
        )
        # correction = bn * (l_inv @ z) / sigma^{1/2} = 0.1 * 2 / 2 = 0.1
        iv = make_intervals(fit, ensemble, 0.1)
        assert iv.two_sided[0, 0] == pytest.approx(-0.9, abs=1e-12)
        assert iv.two_sided[0, 1] == pytest.approx(3.1, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.37])
    def test_endpoints_match_per_coordinate_quantiles(self, alpha):
        data, fitted, stream = small_problem(seed=31, n=100, p=3)
        ensemble = run_pebble(data, fitted, 150, stream)
        iv = make_intervals(fitted, ensemble, alpha)
        cfg = ensemble.smoothing
        sj = np.sqrt(np.diag(fitted.sigma_hat))
        corr = cfg.bn * (fitted.l_hat_inv @ cfg.z_original) / sj
        for j in range(3):
            def end(level):
                q = quantile(ensemble.coord_pivots[:, j], level) - corr[j]
                return fitted.beta_hat[j] - sj[j] * q / np.sqrt(fitted.n)

            assert iv.two_sided[j, 0] == end(1 - alpha / 2)
            assert iv.two_sided[j, 1] == end(alpha / 2)
            assert iv.upper[j] == end(alpha)
            assert iv.lower[j] == end(1 - alpha)
        assert iv.region_radius == quantile(ensemble.h_norms, 1 - alpha)

    def test_largest_cli_level_takes_extreme_order_statistics(self):
        # --level 0.9999999999999999 gives alpha = 1.1e-16, where 1 - alpha/2
        # rounds to 1: every endpoint comes from the smallest or largest pivot.
        data, fitted, stream = small_problem(seed=29, n=120)
        ensemble = run_pebble(data, fitted, 200, stream)
        iv = make_intervals(fitted, ensemble, 1.0 - 0.9999999999999999)
        cfg = ensemble.smoothing
        sj = np.sqrt(np.diag(fitted.sigma_hat))
        corr = cfg.bn * (fitted.l_hat_inv @ cfg.z_original) / sj
        pivots = ensemble.coord_pivots
        lo = fitted.beta_hat - sj * (pivots.max(axis=0) - corr) / np.sqrt(fitted.n)
        hi = fitted.beta_hat - sj * (pivots.min(axis=0) - corr) / np.sqrt(fitted.n)
        assert np.array_equal(iv.two_sided, np.column_stack([lo, hi]))
        assert np.array_equal(iv.upper, hi) and np.array_equal(iv.lower, lo)
        assert iv.region_radius == ensemble.h_norms.max()

    def test_interval_ordering_and_nesting(self):
        data, fitted, stream = small_problem(seed=29, n=120)
        ensemble = run_pebble(data, fitted, 400, stream)
        wide = make_intervals(fitted, ensemble, 0.05)
        narrow = make_intervals(fitted, ensemble, 0.10)
        assert np.all(wide.two_sided[:, 0] <= wide.two_sided[:, 1])
        assert np.all(narrow.two_sided[:, 0] <= narrow.two_sided[:, 1])
        assert np.all(wide.two_sided[:, 0] <= narrow.two_sided[:, 0])
        assert np.all(wide.two_sided[:, 1] >= narrow.two_sided[:, 1])

    def test_symmetric_pivots_symmetric_interval(self):
        fit = FittedModel(
            beta_hat=np.array([2.0]),
            l_hat=np.array([[1.0]]),
            m_hat=np.array([[1.0]]),
            sigma_hat=np.array([[1.0]]),
            l_hat_inv=np.array([[1.0]]),
            iterations=1,
            final_score_norm=0.0,
            n=25,
        )
        # 50 exact +/- pairs plus a zero: with 101 samples the nearest-rank
        # 5% and 95% quantiles are mirror order statistics
        half = np.linspace(0.1, 3.0, 50)
        vals = np.concatenate([-half, [0.0], half])
        ensemble = BootstrapEnsemble(
            coord_pivots=np.sort(vals)[:, None],
            h_norms=np.abs(vals),
            beta_stars=np.zeros((101, 1)),
            failed_replicates=0,
            b=101,
            seed=0,
            smoothing=SmoothingConfig(
                bn=1e-30, d_var=np.array([0.25]), z_original=np.array([0.7])
            ),
        )
        iv = make_intervals(fit, ensemble, 0.1)
        mid = 0.5 * (iv.two_sided[0, 0] + iv.two_sided[0, 1])
        assert mid == pytest.approx(2.0, abs=1e-12)

    def test_determinism(self):
        data, fitted, _ = small_problem(seed=37)
        e1 = run_pebble(data, fitted, 150, RandomStream(37))
        e2 = run_pebble(data, fitted, 150, RandomStream(37))
        a = make_intervals(fitted, e1, 0.1)
        b = make_intervals(fitted, e2, 0.1)
        assert np.array_equal(a.two_sided, b.two_sided)
        assert np.array_equal(a.upper, b.upper)
        assert np.array_equal(a.lower, b.lower)
        assert a.region_radius == b.region_radius


class TestRegionContains:
    def test_contains_center_with_zero_draw(self):
        data, fitted, stream = small_problem(seed=41)
        ensemble = run_pebble(data, fitted, 200, stream)
        ensemble = dataclasses.replace(
            ensemble,
            smoothing=dataclasses.replace(ensemble.smoothing, z_original=np.zeros(data.p)),
        )
        assert region_contains(fitted.beta_hat, fitted, ensemble, 0.1)

    def test_excludes_distant_point(self):
        data, fitted, stream = small_problem(seed=43)
        ensemble = run_pebble(data, fitted, 200, stream)
        far = np.full(data.p, 1e6)
        assert not region_contains(far, fitted, ensemble, 0.1)

    def test_alpha_whose_complement_rounds_to_one(self):
        # 1 - 1e-17 is 1.0: the radius is the largest pivot norm, not an error.
        data, fitted, stream = small_problem(seed=43)
        ensemble = run_pebble(data, fitted, 200, stream)
        assert region_contains(fitted.beta_hat, fitted, ensemble, 1e-17)


class TestNormalIntervals:
    def unit_fit(self, n):
        return FittedModel(
            beta_hat=np.array([0.0]),
            l_hat=np.array([[1.0 / n]]),
            m_hat=np.array([[1.0 / n]]),
            sigma_hat=np.array([[float(n)]]),
            l_hat_inv=np.array([[float(n)]]),
            iterations=1,
            final_score_norm=0.0,
            n=n,
        )

    def test_half_width_is_z95(self):
        # (l_inv)_jj / n = 1  ->  half-width z_{0.95} = 1.6449 at alpha = 0.1
        iv = normal_intervals(self.unit_fit(10), 0.1)
        half = 0.5 * (iv.two_sided[0, 1] - iv.two_sided[0, 0])
        assert half == pytest.approx(1.6448536, abs=1e-6)

    def test_degenerate_at_full_alpha(self):
        iv = normal_intervals(self.unit_fit(10), 1.0 - 1e-16)
        assert iv.two_sided[0, 0] == pytest.approx(iv.two_sided[0, 1], abs=1e-12)

    def test_chi2_matches_z_squared_in_1d(self):
        iv = normal_intervals(self.unit_fit(10), 0.1)
        assert iv.region_radius == pytest.approx(np.sqrt(2.7055435), abs=1e-6)
        assert iv.region_radius == pytest.approx(1.6448536, abs=1e-6)

    def test_one_sided_uses_z90(self):
        iv = normal_intervals(self.unit_fit(10), 0.1)
        assert iv.upper[0] == pytest.approx(1.2815516, abs=1e-6)
        assert iv.lower[0] == pytest.approx(-1.2815516, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, np.nan])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(UsageError, match=r"alpha must lie in \(0, 1\)"):
            normal_intervals(self.unit_fit(10), alpha)

    @pytest.mark.parametrize("alpha", [1e-16, 1e-3, 0.01, 0.05, 0.1, 0.5, 0.9, 1.0 - 1e-16])
    def test_z_values_match_ndtri(self, alpha):
        # With β̂ = 0 and unit standard errors the endpoints are the z values.
        iv = normal_intervals(self.unit_fit(10), alpha)
        assert iv.two_sided[0, 0] == -iv.two_sided[0, 1]
        assert iv.two_sided[0, 1] == pytest.approx(-ndtri(alpha / 2), rel=2e-15, abs=0.0)
        assert iv.upper[0] == pytest.approx(-ndtri(alpha), rel=2e-15, abs=0.0)
        assert iv.lower[0] == -iv.upper[0]

    @pytest.mark.parametrize("p", [*range(1, 61), 100, 500])
    def test_chi2_quantile_matches_chdtri(self, p):
        for alpha in (1e-3, 0.01, 0.05, 0.1, 0.5, 0.9, 1.0 - 1e-16):
            assert chi2_upper_quantile(p, alpha) == pytest.approx(chdtri(p, alpha), rel=1e-13,
                                                                  abs=0.0), alpha

    def test_se_is_diagonal_of_inverse_on_correlated_design(self):
        rng = np.random.default_rng(23)
        n = 200
        base = rng.standard_normal((n, 3))
        x = base @ np.array([[1.0, 0.8, 0.5], [0.0, 0.6, 0.5], [0.0, 0.0, 0.7]])
        probs = 1.0 / (1.0 + np.exp(-(x @ np.array([1.0, -0.5, 0.5]))))
        fitted = fit_mle(Dataset(x=x, y=(rng.random(n) < probs).astype(float)))
        probs = 1.0 / (1.0 + np.exp(-(x @ fitted.beta_hat)))
        l_hat = x.T @ (x * (probs * (1.0 - probs))[:, None]) / n
        assert abs(l_hat[0, 1]) > 0.1 * l_hat[0, 0]  # L̂ is far from diagonal
        iv = normal_intervals(fitted, 0.1)
        half = 0.5 * (iv.two_sided[:, 1] - iv.two_sided[:, 0])
        expected = 1.6448536 * np.sqrt(np.diag(np.linalg.inv(l_hat)) / n)
        marginal = 1.6448536 / np.sqrt(n * np.diag(l_hat))
        assert np.allclose(half, expected, rtol=1e-6)
        assert not np.allclose(half, marginal, rtol=0.05)
