import contextlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from golden.regenerate import write_inputs
from pebble_logit.cli import main

# The largest level --level accepts: alpha = 1.1e-16, so 1 - alpha/2 rounds to 1.
LARGEST_LEVEL = "0.9999999999999999"
# Rows that neither separate nor degenerate under any header of
# test_data_error_repeated_column, so the repeated name is the file's only
# fault.
TWICE_ROWS = ("0,-0.5,1\n1,0.6,0\n1,0.4,1\n1,0.3,0\n0,0.0,0\n0,0.5,1\n"
              "1,-0.7,0\n1,-0.2,0\n0,-0.5,0\n0,0.6,0\n1,0.0,0\n0,-0.3,1\n")


def _logistic_csv(n, seed, extra=""):
    """A well-posed two-covariate CSV; ``extra`` is appended to every data
    row as a constant column named c."""
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.8 * x1 - 0.5 * x2)))).astype(int)
    header = "x1,x2,y" + (",c" if extra else "")
    body = "".join(f"{a},{b},{c}{',' + extra if extra else ''}\n" for a, b, c in zip(x1, x2, y))
    return (header + "\n" + body).encode()


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(_logistic_csv(60, 4))
    return str(path)


@pytest.fixture(scope="module")
def ci_small_csv(tmp_path_factory):
    """The seed-1 ``ci_small`` CSV of the benchmark workloads."""
    directory = tmp_path_factory.mktemp("workloads")
    write_inputs(directory)
    return str(directory / "ci_small.csv")


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

    def test_largest_level(self, ci_small_csv, capsys):
        code = run(["ci", "--data", ci_small_csv, "--response", "y", "--intercept",
                    "--boot", "200", "--seed", "1", "--level", LARGEST_LEVEL])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for entry in report["intervals"]:
            lo, hi = entry["two_sided"]
            assert lo < hi and entry["upper"] == hi and entry["lower"] == lo


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

    def test_largest_level(self, ci_small_csv, capsys):
        code = run(["region", "--data", ci_small_csv, "--response", "y", "--intercept",
                    "--boot", "200", "--seed", "1", "--level", LARGEST_LEVEL])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["region_radius"] > 0


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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_usage_bad_workers(self, capsys, workers):
        code = run(["simulate", "--n", "60", "--p", "2", "--reps", "2", "--boot", "100",
                    "--workers", workers])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:")

    def test_usage_unknown_flag(self, capsys):
        assert run(["fit", "--nope"]) == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:")

    def test_usage_no_command(self, capsys):
        assert run([]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:usage:")

    def test_usage_abbreviated_flag(self, fixture_csv, capsys):
        assert run(["fit", "--dat", fixture_csv, "--response", "y"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:usage:")

    def test_dash_value_is_the_option_value(self, fixture_csv, capsys):
        # The token after a value-taking option is its value, even when it
        # starts with '-', so the bandwidth check reports it.
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--boot", "100",
                    "--bn", "-1e-3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:bn must be finite and > 0")

    @pytest.mark.parametrize("command, options", [
        ("ci", ["--data", "--response", "--intercept", "--level", "--boot", "--seed",
                "--bn", "--dvar", "--out"]),
        ("simulate", ["--n", "--p", "--reps", "--level", "--boot", "--seed", "--workers",
                      "--out"]),
    ])
    def test_help_names_every_option(self, capsys, command, options):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert [o for o in options if re.search(rf"{o}\b", out) is None] == []

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

    @pytest.mark.parametrize("flag, value", [
        ("--data", "no\nfile.csv"),
        ("--data", "no\r\nfile.csv"),
        ("--out", "/nonexistent\ndir/report.json"),
    ])
    def test_io_error_is_one_line(self, fixture_csv, capsys, flag, value):
        # User text quoted in the message has its line breaks escaped.
        argv = {"--data": fixture_csv, "--response": "y"} | {flag: value}
        assert run(["fit", *itertools.chain(*argv.items())]) == 5
        err = capsys.readouterr().err
        assert err.startswith("ERROR:io:") and err.count("\n") == 1
        assert "\r" not in err and value.replace("\n", "\\n").replace("\r", "\\r") in err

    def test_bad_seed(self, fixture_csv, capsys):
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--seed", "abc"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:usage:")

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_domain(self, fixture_csv, capsys, seed):
        # Reduced modulo 2^64, these would replay the seeds 0 and 2^64 - 1.
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--boot", "100",
                    "--seed", seed])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:usage:")

    def test_seed_checked_before_data(self, tmp_path, capsys):
        # An invalid seed is a usage error even when --data names no file.
        code = run(["ci", "--data", str(tmp_path / "absent.csv"), "--response", "y",
                    "--seed", "-1"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:usage:")

    @pytest.mark.parametrize("header, flags, name", [
        ("y,x1,y", [], "y"),
        ("x1,x1,y", [], "x1"),
        ("_intercept,x1,y", ["--intercept"], "_intercept"),
    ])
    def test_data_error_repeated_column(self, tmp_path, capsys, header, flags, name):
        p = tmp_path / "twice.csv"
        p.write_text(f"{header}\n{TWICE_ROWS}", encoding="utf-8")
        code = run(["fit", "--data", str(p), "--response", "y", *flags])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"ERROR:parse:{p}: column {name!r} is named more than once"]

    @pytest.mark.parametrize("flag, value", [
        ("--bn", "nan"), ("--bn", "inf"), ("--bn", "-inf"), ("--bn", "0"),
        ("--dvar", "nan"), ("--dvar", "inf"), ("--dvar", "1e400"), ("--dvar", "0"),
        ("--dvar", "1,2,3"),
    ])
    def test_usage_bad_smoothing(self, fixture_csv, capsys, flag, value):
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--boot", "100",
                    flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:usage:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--bn", "1e300"), ("--bn", "1.7e308"), ("--dvar", "1e308"),
    ])
    def test_numeric_error_overflowing_smoothing(self, fixture_csv, capsys, flag, value):
        # Finite, so a valid b_n or D, but the replicate pivots overflow.
        code = run(["ci", "--data", fixture_csv, "--response", "y", "--boot", "100",
                    flag, value])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ERROR:too-many-failures:")
        assert err.count("\n") == 1

    def test_data_error_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"x1,y\n\xff\xfe,1\n2,0\n3,1\n")
        code = run(["fit", "--data", str(p), "--response", "y"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR:parse:")
        assert str(p) in err

    def test_data_path_not_utf8(self, tmp_path, monkeypatch, capsys):
        # The report is UTF-8 JSON; the undecodable byte becomes a backslash escape.
        monkeypatch.chdir(tmp_path)
        name = os.fsdecode(b"d\xffx.csv")
        Path(name).write_bytes(_logistic_csv(60, 4))
        assert run(["fit", "--data", name, "--response", "y", "--out", "o.json"]) == 0
        report = json.loads(Path("o.json").read_bytes().decode("utf-8"))
        assert report["config"]["data"] == "d\\xffx.csv"
        assert run(["fit", "--data", name, "--response", "y"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["data"] == "d\\xffx.csv"

    def test_data_error_response_only(self, tmp_path, capsys):
        p = tmp_path / "yonly.csv"
        p.write_text("y\n1\n0\n1\n0\n", encoding="utf-8")
        code = run(["fit", "--data", str(p), "--response", "y"])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERROR:invalid-data:")


FUZZ_CSVS = {
    "ok": _logistic_csv(40, 4),
    "empty": b"",
    "header-only": b"x1,x2,y\n",
    "ragged": b"x1,x2,y\n1,2,0\n3,1\n0,1,1\n",
    "non-binary": b"x1,y\n1,0\n2,2\n3,1\n",
    "separated": b"x1,y\n-2,0\n-1,0\n1,1\n2,1\n",
    "constant-column": _logistic_csv(40, 5, extra="1.5"),
    "response-only": b"y\n1\n0\n1\n0\n",
    "not-utf8": b"x1,y\n\xff\xfe,1\n2,0\n3,1\n",
    "control-char-header": b'"a\tb",y\n1,0\n2,1\n3,0\n4,1\n',
    "repeated-column": f"y,x1,y\n{TWICE_ROWS}".encode(),
}

# Values at the edge of each flag's parser: non-finite, negative zero,
# overflow, hex, empty and wrong-length lists. --boot keeps to a few small
# values, since B sizes the replicate arrays.
_EDGE_VALUES = {
    "--boot": ["", "abc", "-1", "99", "100", "0x64"],
    "--bn": ["nan", "inf", "-inf", "-0", "0", "1e400", "1e300", "1.7e308", "0x1p-2", "",
             "1,2"],
    "--dvar": ["nan", "inf", "-inf", "-0", "1e400", "1e308", "0x10", "", "0.5,0.25",
               "0.5,0.25,1", "0.5,0.25,1,2", "1,,2"],
    "--level": ["nan", "inf", "-0", "1e400", "0x1", "", "0.3", "1"],
    "--seed": ["nan", "-1", "0x", "", "1e400", "-0", "99999999999999999999999"],
}
# Valid values (None leaves the flag out) for the flags not under test.
_GOOD_VALUES = {
    "--boot": ["100"],
    "--bn": [None, "0.2"],
    "--dvar": [None, "0.5"],
    "--level": [None, "0.95"],
    "--seed": [None, "7", "0x1F"],
}
_ERROR_LINE = re.compile(r"^ERROR:[a-z-]+:")


@st.composite
def _fuzz_call(draw):
    """(csv name, argv without --data): at most one input, the CSV or one
    flag, takes an edge value; the others stay valid, so the successful
    paths are reached too."""
    target = draw(st.sampled_from([None, "csv", *sorted(_EDGE_VALUES)]))
    csv_name = draw(st.sampled_from(sorted(FUZZ_CSVS))) if target == "csv" else "ok"
    command = draw(st.sampled_from(["fit", "ci", "region"]))
    args = [command, "--response", "y"]
    if draw(st.booleans()):
        args.append("--intercept")
    if command != "fit":
        for flag in sorted(_EDGE_VALUES):
            values = _EDGE_VALUES[flag] if flag == target else _GOOD_VALUES[flag]
            value = draw(st.sampled_from(values))
            if value is not None:
                args += [flag, value]
    return csv_name, args


class TestFuzz:
    def test_main_catches_no_bare_exception(self):
        # Otherwise the property below could not see an unhandled failure.
        assert "except Exception" not in inspect.getsource(main)

    @settings(max_examples=150)
    @given(call=_fuzz_call())
    def test_exit_code_and_single_error_line(self, tmp_path_factory, call):
        csv_name, args = call
        path = tmp_path_factory.getbasetemp() / f"fuzz-{csv_name}.csv"
        path.write_bytes(FUZZ_CSVS[csv_name])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args + ["--data", str(path)])
        event(f"exit {code}")
        assert code in {0, 2, 3, 4, 5}
        if code == 0:
            json.loads(out.getvalue())
            assert err.getvalue() == ""
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and _ERROR_LINE.match(lines[0]), err.getvalue()


class TestImport:
    @staticmethod
    def _loaded(code, prefixes):
        """The modules under ``prefixes`` that a fresh interpreter has
        loaded after running ``code``."""
        import pebble_logit

        src = str(Path(pebble_logit.__file__).resolve().parents[1])
        probe = (f"{code}\nimport sys\n"
                 f"print(sorted(m for m in sys.modules for p in {prefixes!r} "
                 "if m == p or m.startswith(p + '.')))")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        return done.stdout.strip().splitlines()[-1]

    @pytest.mark.parametrize("module", ["pebble_logit", "pebble_logit.cli"])
    def test_import_loads_no_scipy(self, module):
        # scipy is a test-only oracle; importing it was half of a cold start.
        assert self._loaded(f"import {module}", ("scipy",)) == "[]"

    # A command imports only what it runs: the pools of n >= 2000 and of
    # simulate --workers > 1, and no CLI framework.
    UNUSED = ("click", "concurrent.futures", "multiprocessing")

    def test_import_loads_no_pool_or_click(self):
        assert self._loaded("import pebble_logit.cli", self.UNUSED) == "[]"

    def test_ci_call_loads_no_pool_or_click(self, ci_small_csv, tmp_path):
        argv = ["ci", "--data", ci_small_csv, "--response", "y", "--intercept",
                "--boot", "1000", "--seed", "1", "--out", str(tmp_path / "ci.json")]
        code = f"from pebble_logit.cli import main\nassert main({argv!r}) == 0"
        assert self._loaded(code, self.UNUSED) == "[]"
        assert json.loads((tmp_path / "ci.json").read_text())["failed_replicates"] == 0
