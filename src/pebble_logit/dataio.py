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
    response column must parse to exactly 0 or 1.
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
    if response not in header:
        raise MissingColumnError(
            f"{path}: response column {response!r} not found (columns: {', '.join(header)})"
        )
    resp_idx = header.index(response)
    cov_idx = [i for i in range(len(header)) if i != resp_idx]
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: no data rows")

    x = np.empty((len(body), len(cov_idx)))
    y = np.empty(len(body))
    for r, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {r} has {len(row)} fields, header has {len(header)}"
            )
        for c, i in enumerate(cov_idx):
            try:
                x[r - 2, c] = float(row[i])
            except ValueError:
                raise ParseError(
                    f"{path}: row {r}, column {header[i]!r}: "
                    f"cannot parse {row[i]!r} as a number"
                ) from None
        try:
            val = float(row[resp_idx])
        except ValueError:
            raise NonBinaryResponseError(
                f"{path}: row {r}: response {row[resp_idx]!r} is not 0 or 1"
            ) from None
        if val not in (0.0, 1.0):
            raise NonBinaryResponseError(
                f"{path}: row {r}: response value {row[resp_idx]} is not 0 or 1"
            )
        y[r - 2] = val

    names = [header[i] for i in cov_idx]
    if intercept:
        x = np.column_stack([np.ones(len(body)), x])
        names = [INTERCEPT_NAME] + names
    return Dataset(x=x, y=y, columns=tuple(names))


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
