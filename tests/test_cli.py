import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pebble_logit.cli import main


@pytest.fixture
def fixture_csv(tmp_path):
    rng = np.random.default_rng(4)
    n = 60
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    logit = 0.8 * x1 - 0.5 * x2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    rows = ["x1,x2,y"] + [f"{a},{b},{c}" for a, b, c in zip(x1, x2, y)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def run(argv):
    return main(argv)


class TestFit:
    def test_fit_writes_report(self, fixture_csv, tmp_path):
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", fixture_csv, "--response", "y", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["beta_hat"]) == 2
        assert report["config"]["command"] == "fit"
        assert report["final_score_norm"] <= 1e-10

    def test_fit_matches_library(self, fixture_csv, tmp_path, capsys):
        from pebble_logit import fit_mle
        from pebble_logit.dataio import load_csv

        assert run(["fit", "--data", fixture_csv, "--response", "y"]) == 0
        report = json.loads(capsys.readouterr().out)
        direct = fit_mle(load_csv(fixture_csv, "y"))
        assert np.allclose(report["beta_hat"], direct.beta_hat, rtol=0, atol=0)

    def test_intercept_flag(self, fixture_csv, capsys):
        assert run(["fit", "--data", fixture_csv, "--response", "y", "--intercept"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["columns"][0] == "_intercept"
        assert len(report["beta_hat"]) == 3


class TestCi:
    def test_ci_report_shape(self, fixture_csv, tmp_path):
        out = tmp_path / "ci.json"
        code = run([
            "ci", "--data", fixture_csv, "--response", "y",
            "--level", "0.9", "--boot", "200", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["alpha"] == pytest.approx(0.1)
        assert report["failed_replicates"] == 0
        assert report["region_radius"] > 0
        for entry in report["intervals"]:
            lo, hi = entry["two_sided"]
            assert lo <= hi

    def test_byte_identical_reruns(self, fixture_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ci", "--data", fixture_csv, "--response", "y", "--boot", "150", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hex_seed_equals_decimal(self, fixture_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["ci", "--data", fixture_csv, "--response", "y", "--boot", "150"]
        assert run(base + ["--seed", "0x10", "--out", str(a)]) == 0
        assert run(base + ["--seed", "16", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bn_and_dvar_overrides(self, fixture_csv, capsys):
        code = run([
            "ci", "--data", fixture_csv, "--response", "y", "--boot", "150",
            "--seed", "5", "--bn", "0.2", "--dvar", "0.5",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["bn"] == 0.2
        assert report["config"]["d_var"] == [0.5, 0.5]


class TestRegion:
    def test_region_report(self, fixture_csv, capsys):
        code = run([
            "region", "--data", fixture_csv, "--response", "y",
            "--boot", "150", "--seed", "2",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["region_radius"] > 0
        assert report["normal_region_radius"] == pytest.approx(np.sqrt(4.60517), abs=1e-4)


class TestSimulate:
    def test_simulate_smoke(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run([
            "simulate", "--n", "60", "--p", "2", "--reps", "2",
            "--boot", "100", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert "beta_lower_region" in report["pebble"]
        assert "beta_avg_middle_width" in report["normal"]
        assert report["scenario"]["reps"] == 2


class TestErrorPaths:
    def test_usage_bad_level(self, fixture_csv, capsys):
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--level", "0.3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:")

    def test_usage_unknown_flag(self, capsys):
        assert run(["fit", "--nope"]) == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:")

    def test_usage_small_boot(self, fixture_csv, capsys):
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--boot", "50"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:")

    def test_data_error_non_binary(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,0\n2,2\n3,1\n", encoding="utf-8")
        code = run(["fit", "--data", str(p), "--response", "y"])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERROR:non-binary-response:")

    def test_data_error_missing_column(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,0\n2,1\n", encoding="utf-8")
        code = run(["fit", "--data", str(p), "--response", "z"])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERROR:missing-column:")

    def test_numeric_error_separation(self, tmp_path, capsys):
        p = tmp_path / "sep.csv"
        p.write_text("a,y\n-2,0\n-1,0\n1,1\n2,1\n", encoding="utf-8")
        code = run(["fit", "--data", str(p), "--response", "y"])
        assert code == 4
        assert capsys.readouterr().err.startswith("ERROR:separation:")

    def test_io_error_unwritable_out(self, fixture_csv, capsys):
        code = run([
            "fit", "--data", fixture_csv, "--response", "y",
            "--out", "/nonexistent-dir/report.json",
        ])
        assert code == 5
        assert capsys.readouterr().err.startswith("ERROR:io:")

    def test_bad_seed(self, fixture_csv, capsys):
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--seed", "abc"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:")


class TestImport:
    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats is most of a cold start and the package needs none of it.
        import pebble_logit

        src = str(Path(pebble_logit.__file__).resolve().parents[1])
        code = "import sys, pebble_logit.cli; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.strip() == "False"
