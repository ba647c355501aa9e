"""Perturbation-bootstrap inference for logistic regression.

The package fits the logistic MLE, builds smoothed studentized pivots on
the data and bootstrap sides, and inverts their bootstrap quantiles into
second-order-accurate confidence intervals and regions, alongside the
usual normal-approximation baseline and a Monte Carlo coverage harness.

The public API is what an analysis needs: fit, bootstrap ensemble (which
carries its smoothing), intervals, the coverage harness and the error
types.
Everything else lives in the submodules.
"""

from .errors import (
    DataIOError,
    DegenerateResponseError,
    EmptySampleError,
    InvalidDataError,
    MissingColumnError,
    NonBinaryResponseError,
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
from .model import Dataset
from .pivots import SmoothingConfig
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
    "ParseError",
    "PebbleError",
    "RandomStream",
    "Scenario",
    "SeparationError",
    "SingularMatrixError",
    "SmoothingConfig",
    "TooManyFailuresError",
    "UsageError",
    "fit_mle",
    "make_intervals",
    "normal_intervals",
    "run_coverage_study",
    "run_pebble",
]
