import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pebble_logit import Dataset
from pebble_logit.dataio import dumps, emit_report, load_csv
from pebble_logit.errors import (
    DataIOError,
    InvalidDataError,
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

    def test_cells_read_as_float_reads_them(self, tmp_path):
        # Quotes, spaces, exponents, underscores and -0, with the response
        # between two covariates.
        p = write(tmp_path / "d.csv", 'a,y,b\n" 1.5",1,-0\n2e-3,0,"7"\n-0.25,1.0,1_000\n4,0,-3\n')
        data = load_csv(p, "y", intercept=True)
        x = [[1.0, 1.5, -0.0], [1.0, 2e-3, 7.0], [1.0, -0.25, 1000.0], [1.0, 4.0, -3.0]]
        assert data.x.tobytes(order="C") == np.array(x).tobytes()
        assert data.y.tobytes() == np.array([1.0, 0.0, 1.0, 0.0]).tobytes()
        assert data.columns == ("_intercept", "a", "b")

    @pytest.mark.parametrize("text, error, message", [
        ("a,y\n1,0\nfoo,1\n1\n", ParseError, "row 3, column 'a': cannot parse 'foo'"),
        ("a,y\n1\nfoo,1\n", ParseError, "row 2 has 1 fields, header has 2"),
        ("a,y\n1,2\nfoo,1\n", NonBinaryResponseError, "row 2: response value 2 is not 0 or 1"),
        ("a,y\n1,0\n2,yes\n3,1,4\n", NonBinaryResponseError, "row 3: response 'yes' is"),
    ])
    def test_first_bad_row_reported(self, tmp_path, text, error, message):
        p = write(tmp_path / "d.csv", text)
        with pytest.raises(error, match=message):
            load_csv(p, "y")

    def test_intercept_name_free_without_flag(self, tmp_path):
        # "_intercept" is reserved only when --intercept adds that column.
        p = write(tmp_path / "d.csv", "_intercept,y\n1,0\n2,1\n3,1\n")
        assert load_csv(p, "y").columns == ("_intercept",)
        with pytest.raises(ParseError, match="'_intercept' is named more than once"):
            load_csv(p, "y", intercept=True)

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


# CSV cell texts: numbers as float() reads them (quoted, spaced, with an
# underscore or a sign), 0/1 responses, and cells that fail: non-finite
# values, the empty cell, words and a response of 2.
X_CELLS = ["0", "-0", "1.0", " 1 ", '" 2.5"', "1_000", "1e3", "+1", "0.5", "-3"]
Y_CELLS = ["0", "1", "1.0", '"0"', " 1", "-0"]
CELLS = X_CELLS + Y_CELLS + ["nan", "inf", "-inf", "", "x", '"1,5"', "0x1", "2"]


def reference_load(path, response, intercept):
    """(x, y, names) by float() on every cell, or the (error type, message)
    of the first bad row in file order, row by row and cell by cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    header = [name.strip() for name in header]
    resp = header.index(response)
    xs, ys = [], []
    for r, row in enumerate(body, start=2):
        if len(row) != len(header):
            return ParseError, f"row {r} has {len(row)} fields, header has {len(header)}"
        xs.append([1.0] * intercept)
        for i, cell in enumerate(row):
            if i != resp:
                try:
                    xs[-1].append(float(cell))
                except ValueError:
                    return (ParseError,
                            f"row {r}, column {header[i]!r}: cannot parse {cell!r} as a number")
        try:
            ys.append(float(row[resp]))
        except ValueError:
            return NonBinaryResponseError, f"row {r}: response {row[resp]!r} is not 0 or 1"
        if ys[-1] not in (0.0, 1.0):
            return NonBinaryResponseError, f"row {r}: response value {row[resp]} is not 0 or 1"
    names = ["_intercept"] * intercept + [name for i, name in enumerate(header) if i != resp]
    return np.array(xs).reshape(len(body), len(names)), np.array(ys), tuple(names)


@st.composite
def small_csv(draw):
    """(text, intercept) for response "y": a header of three names and one
    to eight rows, most of them good, the others of two to four cells drawn
    from all of CELLS."""
    header = draw(st.permutations(["a", "y", "b"]))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 5)):
            rows.append([draw(st.sampled_from(Y_CELLS if name == "y" else X_CELLS))
                         for name in header])
        else:
            rows.append(draw(st.lists(st.sampled_from(CELLS), min_size=2, max_size=4)))
    text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    return text, draw(st.booleans())


class TestLoadCsvProperty:
    @settings(max_examples=200)
    @given(case=small_csv())
    def test_matches_reference_or_first_bad_row(self, tmp_path_factory, case):
        text, intercept = case
        path = tmp_path_factory.getbasetemp() / "property.csv"
        path.write_text(text, encoding="utf-8")
        expected = reference_load(path, "y", intercept)
        if len(expected) == 2:  # a bad row: the same error, with the same text
            error, message = expected
            with pytest.raises(error) as err:
                load_csv(str(path), "y", intercept)
            assert type(err.value) is error
            assert str(err.value) == f"{path}: {message}"
            return
        x, y, names = expected
        try:
            reference = Dataset(x=x, y=y, columns=names)
        except InvalidDataError as exc:  # too few rows, a constant y, a non-finite x
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                load_csv(str(path), "y", intercept)
            return
        data = load_csv(str(path), "y", intercept)
        assert isinstance(data, Dataset)
        assert data.x.tobytes(order="C") == reference.x.tobytes(order="C")
        assert data.y.tobytes() == reference.y.tobytes()
        assert data.columns == names


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
