"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``kind`` (used for the CLI's
``ERROR:<kind>:`` prefix) and the exit code of the class of failure it
belongs to: 2 usage, 3 data, 4 numeric, 5 io.

A bad argument to a library function (a bandwidth or jitter variance that
is not finite and > 0, too few bootstrap replicates, an alpha or a
``Scenario`` field out of range) raises :class:`UsageError`, which is also
a ``ValueError``.
"""

from __future__ import annotations


class PebbleError(Exception):
    kind = "error"
    exit_code = 1


class UsageError(PebbleError, ValueError):
    kind = "usage"
    exit_code = 2


class DataError(PebbleError):
    exit_code = 3


class InvalidDataError(DataError):
    kind = "invalid-data"


class DegenerateResponseError(InvalidDataError):
    """Response vector is constant (all 0 or all 1)."""

    kind = "degenerate-response"


class ParseError(DataError):
    kind = "parse"


class MissingColumnError(DataError):
    kind = "missing-column"


class NonBinaryResponseError(DataError):
    kind = "non-binary-response"


class NumericError(PebbleError):
    exit_code = 4


class SingularMatrixError(NumericError):
    kind = "singular-matrix"


class SeparationError(NumericError):
    """The fitting problem has no finite solution (complete or
    quasi-complete separation, or a Newton iteration that diverged)."""

    kind = "separation"


class TooManyFailuresError(NumericError):
    kind = "too-many-failures"


class EmptySampleError(NumericError):
    kind = "empty-sample"


class DataIOError(PebbleError):
    kind = "io"
    exit_code = 5
