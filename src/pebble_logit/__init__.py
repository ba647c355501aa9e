"""Perturbation-bootstrap inference for logistic regression.

The package fits the logistic MLE, builds smoothed studentized pivots on
the data and bootstrap sides, and inverts their bootstrap quantiles into
second-order-accurate confidence intervals and regions, alongside the
usual normal-approximation baseline and a Monte Carlo coverage harness.

The public API is what an analysis needs: fit, smoothing set-up,
bootstrap ensemble, intervals, the coverage harness and the error types.
Everything else lives in the submodules.
"""

from .errors import (
    DataIOError,
    DegenerateResponseError,
    EmptySampleError,
    InvalidDataError,
    MissingColumnError,
    NonBinaryResponseError,
    NonPositiveVarianceError,
    ParseError,
    PebbleError,
    SeparationError,
    SingularMatrixError,
    TooManyFailuresError,
    UsageError,
)
from .inference import (
    BootstrapEnsemble,
    IntervalSet,
    make_intervals,
    normal_intervals,
    run_pebble,
)
from .linalg import mvn_diag_sample
from .model import Dataset
from .pivots import SmoothingConfig, default_bn, default_d_var
from .rng import RandomStream
from .simulation import CoverageReport, Scenario, run_coverage_study
from .solver import FittedModel, fit_mle

__version__ = "0.1.0"

__all__ = [
    "BootstrapEnsemble",
    "CoverageReport",
    "DataIOError",
    "Dataset",
    "DegenerateResponseError",
    "EmptySampleError",
    "FittedModel",
    "IntervalSet",
    "InvalidDataError",
    "MissingColumnError",
    "NonBinaryResponseError",
    "NonPositiveVarianceError",
    "ParseError",
    "PebbleError",
    "RandomStream",
    "Scenario",
    "SeparationError",
    "SingularMatrixError",
    "SmoothingConfig",
    "TooManyFailuresError",
    "UsageError",
    "default_bn",
    "default_d_var",
    "fit_mle",
    "make_intervals",
    "mvn_diag_sample",
    "normal_intervals",
    "run_coverage_study",
    "run_pebble",
]
