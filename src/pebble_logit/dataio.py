"""CSV ingestion and deterministic JSON report emission.

Input is plain comma-separated UTF-8 with a header row and numeric cells.
Reports go through the standard ``json`` encoder with a 2-space indent:
keys keep insertion order and floats are written in Python's shortest
round-trip form (``repr``), so identical results produce byte-identical
files. A non-finite float is refused.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from itertools import chain

import numpy as np

from .errors import (
    DataIOError,
    MissingColumnError,
    NonBinaryResponseError,
    ParseError,
)
from .model import Dataset

INTERCEPT_NAME = "_intercept"


def load_csv(path: str, response: str, intercept: bool = False) -> Dataset:
    """Read a dataset from a headered CSV file.

    Covariates are every non-response column, in header order; the
    intercept flag prepends a constant-1 column named "_intercept". The
    response column must parse to exactly 0 or 1, and no column name may
    repeat, "_intercept" included when the flag is set.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise ParseError(f"{path}: file is empty")
    header = [name.strip() for name in rows[0]]
    lead = int(intercept)
    names = [INTERCEPT_NAME] * lead + header
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ParseError(f"{path}: column {repeated[0]!r} is named more than once")
    if response not in header:
        raise MissingColumnError(
            f"{path}: response column {response!r} not found (columns: {', '.join(header)})"
        )
    resp_idx = header.index(response)
    del names[lead + resp_idx]
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: no data rows")

    cells = _cells(body, len(header))
    if cells is None or not np.all((cells[:, resp_idx] == 0.0) | (cells[:, resp_idx] == 1.0)):
        raise _first_bad_row(path, body, header, resp_idx)
    # Column-major, as Dataset keeps it, with the intercept column in place.
    x = np.empty((len(body), len(names)), order="F")
    x[:, :lead] = 1.0
    x[:, lead:] = np.delete(cells, resp_idx, axis=1)
    return Dataset(x=x, y=cells[:, resp_idx], columns=tuple(names))


def _first_bad_row(path: str, body, header: list, resp_idx: int) -> Exception:
    """The error for the first bad row or cell in file order, once the fast
    parse has failed: a row of the wrong length, a covariate that ``float``
    cannot read, or a response that is not 0 or 1."""
    for r, row in enumerate(body, start=2):
        if len(row) != len(header):
            return ParseError(f"{path}: row {r} has {len(row)} fields, header has {len(header)}")
        for i, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                if i != resp_idx:
                    return ParseError(f"{path}: row {r}, column {header[i]!r}: "
                                      f"cannot parse {cell!r} as a number")
        cell = row[resp_idx]
        try:
            if float(cell) not in (0.0, 1.0):
                return NonBinaryResponseError(f"{path}: row {r}: response value {cell} "
                                              "is not 0 or 1")
        except ValueError:
            return NonBinaryResponseError(f"{path}: row {r}: response {cell!r} is not 0 or 1")


def _cells(body, width: int):
    """Every cell of the data rows as one (rows, width) float array, each
    cell through ``float``; None when a row is not ``width`` long or a cell
    is not a number."""
    if any(len(row) != width for row in body):
        return None
    try:
        cells = np.fromiter(map(float, chain.from_iterable(body)), float,
                            count=len(body) * width)
    except ValueError:
        return None
    return cells.reshape(len(body), width)


def _plain(value):
    """The report in ``json``'s own types: arrays and tuples become lists
    and numpy scalars Python scalars. A path argument that is not UTF-8
    arrives with surrogate escapes; its undecodable bytes become backslash
    escapes."""
    if isinstance(value, dict):
        return {key: _plain(val) for key, val in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(val) for val in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, str):
        return value.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    return value


def dumps(value) -> str:
    """Serialize to JSON with stable key order and round-trip floats."""
    try:
        return json.dumps(_plain(value), indent=2, ensure_ascii=False, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise DataIOError(f"cannot serialize the report: {exc}") from None


def emit_report(report: dict, path: str | None) -> None:
    """Write the report as JSON to a file, or to stdout when path is None."""
    text = dumps(report) + "\n"
    if path is None:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc
