import json

import numpy as np
import pytest

from pebble_logit.dataio import dumps, emit_report, load_csv
from pebble_logit.errors import (
    DataIOError,
    MissingColumnError,
    NonBinaryResponseError,
    ParseError,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_three_rows(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,1\n")
        data = load_csv(p, "y")
        assert data.n == 3 and data.p == 2
        assert data.columns == ("a", "b")
        assert np.array_equal(data.y, [0.0, 1.0, 1.0])
        assert np.array_equal(data.x[1], [3.0, 4.0])

    def test_intercept_prepended(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,y\n1,0\n2,1\n3,1\n")
        data = load_csv(p, "y", intercept=True)
        assert data.columns == ("_intercept", "a")
        assert np.all(data.x[:, 0] == 1.0)

    def test_non_binary_response(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,y\n1,0\n2,2\n3,1\n")
        with pytest.raises(NonBinaryResponseError):
            load_csv(p, "y")

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,y\n1,0\n")
        with pytest.raises(MissingColumnError):
            load_csv(p, "outcome")

    def test_parse_error_locates_cell(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,y\n1,0\nfoo,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, "y")
        assert "row 3" in str(err.value)
        assert "'a'" in str(err.value)

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,0\n1,1\n")
        with pytest.raises(ParseError):
            load_csv(p, "y")

    def test_empty_and_headers_only(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path / "e.csv", ""), "y")
        with pytest.raises(ParseError):
            load_csv(write(tmp_path / "h.csv", "a,y\n"), "y")

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(DataIOError):
            load_csv(str(tmp_path / "nope.csv"), "y")

    def test_caesarian_style_fixture(self, tmp_path):
        # 80 rows, five covariates with the clinical coding: age, delivery
        # number, delivery time (0/1/2), blood pressure (0/1/2), heart
        # problem (0/1)
        rng = np.random.default_rng(99)
        rows = ["age,delivery_number,delivery_time,blood_pressure,heart_problem,caesarian"]
        for i in range(80):
            rows.append(
                f"{int(rng.integers(18, 41))},{int(rng.integers(1, 5))},"
                f"{int(rng.integers(0, 3))},{int(rng.integers(0, 3))},"
                f"{int(rng.integers(0, 2))},{int(rng.integers(0, 2))}"
            )
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        data = load_csv(p, "caesarian")
        assert data.n == 80 and data.p == 5
        with_icpt = load_csv(p, "caesarian", intercept=True)
        assert with_icpt.p == 6


class TestDumps:
    def test_round_trip_floats(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 123456.789, np.pi, -0.0, 2.0**52 + 0.5]
        text = dumps({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_byte_identical_key_order(self):
        obj = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
        assert dumps(obj) == dumps({"b": 1, "a": [1.5, {"z": True, "y": None}]})

    def test_numpy_types(self):
        text = dumps({"arr": np.array([1.5, 2.5]), "i": np.int64(3), "f": np.float64(0.25),
                      "flag": np.bool_(True)})
        parsed = json.loads(text)
        assert parsed == {"arr": [1.5, 2.5], "i": 3, "f": 0.25, "flag": True}

    def test_string_escaping(self):
        parsed = json.loads(dumps({"s": 'say "hi" \\ bye'}))
        assert parsed["s"] == 'say "hi" \\ bye'

    def test_control_characters_escaped(self):
        # A CSV header may carry a tab or other control character into the
        # report; non-ASCII text is written as is.
        s = "a\tb\nc\x00d\x1fβ"
        text = dumps({"s": s})
        assert json.loads(text)["s"] == s
        assert dumps("β \"q\"") == '"β \\"q\\""'

    def test_non_finite_rejected(self):
        with pytest.raises(DataIOError):
            dumps({"bad": float("nan")})
        with pytest.raises(DataIOError):
            dumps({"bad": float("inf")})

    def test_shortest_round_trip_text(self):
        # A whole float keeps its ".0", so it parses back as a float.
        assert dumps({"a": 1.0, "b": 0.9}) == '{\n  "a": 1.0,\n  "b": 0.9\n}'


class TestEmitReport:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "r.json"
        emit_report({"a": 1.5}, str(out))
        assert json.loads(out.read_text()) == {"a": 1.5}
        assert out.read_text().endswith("\n")

    def test_stdout_when_no_path(self, capsys):
        emit_report({"a": 1}, None)
        assert json.loads(capsys.readouterr().out) == {"a": 1}

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(DataIOError):
            emit_report({"a": 1}, str(tmp_path / "no" / "dir" / "r.json"))
