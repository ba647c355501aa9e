import concurrent.futures

import numpy as np
import pytest

from pebble_logit import (
    RandomStream,
    Scenario,
    TooManyFailuresError,
    UsageError,
    fit_mle,
    normal_intervals,
    run_coverage_study,
    simulation,
)
from pebble_logit.inference import BootstrapEnsemble
from pebble_logit.pivots import draw_smoothing
from pebble_logit.simulation import BETA_POOL, _aggregate, generate_dataset


class TestScenario:
    def test_beta_true_prefix(self):
        assert np.array_equal(Scenario(n=50, p=3).beta_true, [1.0, 0.5, -2.0])
        assert np.array_equal(Scenario(n=100, p=8).beta_true, BETA_POOL)

    def test_sigma_structure(self):
        sigma = Scenario(n=50, p=4).sigma_x
        assert np.all(np.diag(sigma) == 1.0)
        assert sigma[0, 1] == 0.5
        assert sigma[0, 3] == 0.125
        assert np.array_equal(sigma, sigma.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(n=50, p=9)
        with pytest.raises(ValueError):
            Scenario(n=50, p=2, reps=0)
        with pytest.raises(ValueError):
            Scenario(n=50, p=2, boot=50)
        with pytest.raises(ValueError):
            Scenario(n=50, p=2, alpha=0.7)


class TestGenerateDataset:
    def test_shapes_and_determinism(self):
        scn = Scenario(n=40, p=3, seed=8)
        a, beta_a, _ = generate_dataset(scn, 0, RandomStream(8).derive("experiment", 0))
        b, beta_b, _ = generate_dataset(scn, 0, RandomStream(8).derive("experiment", 0))
        assert a.x.shape == (40, 3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(beta_a, [1.0, 0.5, -2.0])

    def test_column_correlation(self):
        scn = Scenario(n=100_000, p=2, seed=9)
        data, _, _ = generate_dataset(scn, 0, RandomStream(9).derive("experiment", 0))
        corr = np.corrcoef(data.x[:, 0], data.x[:, 1])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.01)
        assert data.x[:, 0].var() == pytest.approx(1.0, abs=0.02)

    def test_degenerate_retry_counted(self):
        # n = 2 with strong coefficients: constant responses happen often,
        # so some experiment index within the first hundred must retry
        scn = Scenario(n=2, p=1, seed=10)
        master = RandomStream(10)
        retries = [
            generate_dataset(scn, e, master.derive("experiment", e))[2]
            for e in range(100)
        ]
        assert max(retries) >= 1
        for e in (int(np.argmax(retries)),):
            data, _, count = generate_dataset(scn, e, master.derive("experiment", e))
            assert count == retries[e]
            assert 0.0 < data.y.sum() < data.y.size


class TestAggregate:
    def test_min_max_selection_and_means(self):
        rows = [
            {
                "middle": np.array([True, False, True]),
                "middle_width": np.array([1.0, 2.0, 3.0]),
                "upper": np.array([True, True, False]),
                "lower": np.array([False, True, True]),
                "region": True,
            },
            {
                "middle": np.array([False, False, True]),
                "middle_width": np.array([3.0, 2.0, 1.0]),
                "upper": np.array([True, False, False]),
                "lower": np.array([True, True, False]),
                "region": False,
            },
        ]
        agg = _aggregate(rows, jmin=1, jmax=2)
        assert agg["beta_min_middle"] == 0.0
        assert agg["beta_max_middle"] == 1.0
        assert agg["beta_min_middle_width"] == 2.0
        assert agg["beta_max_middle_width"] == 2.0
        assert agg["beta_avg_middle"] == pytest.approx(3 / 6)
        assert agg["beta_lower_region"] == 0.5
        assert agg["beta_avg_middle_width"] == pytest.approx(2.0)
        assert agg["beta_min_upper"] == 0.5
        assert agg["beta_max_lower"] == 0.5
        assert agg["beta_avg_upper"] == pytest.approx(3 / 6)
        assert agg["beta_avg_lower"] == pytest.approx(4 / 6)


class TestRunCoverageStudy:
    def test_smoke_run_structure(self):
        scn = Scenario(n=60, p=2, reps=1, boot=100, alpha=0.1, seed=77)
        report = run_coverage_study(scn)
        d = report.as_dict()
        assert d["scenario"]["n"] == 60
        assert set(d["pebble"]) == set(d["normal"])
        assert "beta_lower_region" in d["pebble"]
        assert "beta_avg_middle_width" in d["pebble"]
        for key, value in d["pebble"].items():
            if key.endswith("_width"):
                assert value > 0.0
            else:
                assert 0.0 <= value <= 1.0
        assert report.experiments_used == 1

    def test_report_layout(self):
        # The JSON layout of `pebble simulate`, key order included.
        d = run_coverage_study(Scenario(n=60, p=2, reps=1, boot=100, seed=77)).as_dict()
        assert list(d) == ["scenario", "pebble", "normal", "experiments_used",
                           "failed_experiments", "degenerate_retries", "bootstrap_failures"]
        assert list(d["scenario"]) == ["n", "p", "reps", "boot", "alpha", "seed"]
        table = [
            "beta_lower_region",
            "beta_min_middle", "beta_min_middle_width", "beta_min_upper", "beta_min_lower",
            "beta_max_middle", "beta_max_middle_width", "beta_max_upper", "beta_max_lower",
            "beta_avg_middle", "beta_avg_middle_width", "beta_avg_upper", "beta_avg_lower",
        ]
        assert list(d["pebble"]) == table
        assert list(d["normal"]) == table

    def test_deterministic_across_workers(self):
        scn = Scenario(n=60, p=2, reps=4, boot=100, alpha=0.1, seed=123)
        serial = run_coverage_study(scn, workers=1)
        parallel = run_coverage_study(scn, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_identical_reports_same_seed(self):
        scn = Scenario(n=50, p=2, reps=3, boot=100, alpha=0.1, seed=9)
        assert run_coverage_study(scn).as_dict() == run_coverage_study(scn).as_dict()

    def test_seed_checked_before_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the process pool started")

        # run_coverage_study imports the pool class only when workers > 1.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        scn = Scenario(n=60, p=2, reps=4, boot=100, alpha=0.1, seed=-1)
        with pytest.raises(UsageError):
            run_coverage_study(scn, workers=2)

    @pytest.mark.parametrize("dropped", [0, 1])
    def test_dropped_share_boundary(self, monkeypatch, dropped):
        # 1 of 20 is exactly MAX_EXPERIMENT_FAILURE_RATE, so it aborts.
        scn = Scenario(n=100, p=2, reps=20, boot=100, alpha=0.1, seed=31)
        run = simulation._run_experiment
        monkeypatch.setattr(
            simulation, "_run_experiment", lambda s, e: None if e < dropped else run(s, e)
        )
        if dropped:
            with pytest.raises(TooManyFailuresError):
                run_coverage_study(scn)
        else:
            assert run_coverage_study(scn).failed_experiments == 0


class TestNormalRegion:
    @pytest.mark.parametrize("n, p", [(100, 3), (200, 8)])
    def test_matches_eigh_oracle(self, monkeypatch, n, p):
        # ||sqrt(n) L̂^{1/2} (β̂ - β)|| <= radius with L̂^{1/2} from eigh, on
        # 100 harness fits each; the bootstrap is stubbed out, since only
        # the Wald region indicator is checked.
        def no_bootstrap(data, fitted, b, seed):
            return BootstrapEnsemble(
                coord_pivots=np.zeros((1, p)), h_norms=np.zeros(1),
                beta_stars=np.zeros((1, p)), failed_replicates=0, b=b, seed=0,
                smoothing=draw_smoothing(seed, n, p),
            )

        monkeypatch.setattr(simulation, "run_pebble", no_bootstrap)
        scn = Scenario(n=n, p=p, reps=100, boot=100, alpha=0.1, seed=41)
        master = RandomStream(scn.seed)
        seen = []
        for e in range(scn.reps):
            out = simulation._run_experiment(scn, e)
            if out is None:
                continue
            data, beta_true, _ = generate_dataset(scn, e, master.derive("experiment", e))
            fitted = fit_mle(data)
            w, u = np.linalg.eigh(fitted.l_hat)
            pivot = np.sqrt(n) * ((u * np.sqrt(w)) @ u.T) @ (fitted.beta_hat - beta_true)
            radius = normal_intervals(fitted, scn.alpha).region_radius
            assert out["normal"]["region"] == bool(np.linalg.norm(pivot) <= radius)
            seen.append(out["normal"]["region"])
        assert len(seen) >= 95 and 0 < sum(seen) < len(seen)
