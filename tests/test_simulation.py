import numpy as np
import pytest

from pebble_logit import RandomStream, Scenario, run_coverage_study
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
                "width": np.array([1.0, 2.0, 3.0]),
                "upper": np.array([True, True, False]),
                "lower": np.array([False, True, True]),
                "region": True,
            },
            {
                "middle": np.array([False, False, True]),
                "width": np.array([3.0, 2.0, 1.0]),
                "upper": np.array([True, False, False]),
                "lower": np.array([True, True, False]),
                "region": False,
            },
        ]
        agg = _aggregate(rows, jmin=1, jmax=2)
        assert agg.min_middle == 0.0
        assert agg.max_middle == 1.0
        assert agg.min_middle_width == 2.0
        assert agg.max_middle_width == 2.0
        assert agg.avg_middle == pytest.approx(3 / 6)
        assert agg.region_lower == 0.5
        assert agg.avg_middle_width == pytest.approx(2.0)


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

    def test_deterministic_across_workers(self):
        scn = Scenario(n=60, p=2, reps=4, boot=100, alpha=0.1, seed=123)
        serial = run_coverage_study(scn, workers=1)
        parallel = run_coverage_study(scn, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_identical_reports_same_seed(self):
        scn = Scenario(n=50, p=2, reps=3, boot=100, alpha=0.1, seed=9)
        assert run_coverage_study(scn).as_dict() == run_coverage_study(scn).as_dict()
