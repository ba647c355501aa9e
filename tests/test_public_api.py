"""The public surface is pinned: ``pebble_logit.__all__`` must be exactly the
names below, which are the names the README lists. A change that adds or
drops a public name edits this tuple and the README together."""

import re
from pathlib import Path

import pebble_logit

PUBLIC_NAMES = (
    "BootstrapEnsemble",
    "CoverageReport",
    "DataIOError",
    "Dataset",
    "DegenerateResponseError",
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
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_pinned():
    assert tuple(pebble_logit.__all__) == PUBLIC_NAMES


def test_readme_lists_the_same_names():
    # The list follows the README's "`pebble_logit.__all__` is exactly" line
    # and ends at the first blank line.
    text = README.read_text(encoding="utf-8")
    start = text.index("`pebble_logit.__all__` is exactly")
    listed = re.findall(r"`(\w+)`", text[start:text.index("\n\n", start)])
    assert sorted(listed) == sorted(PUBLIC_NAMES)
