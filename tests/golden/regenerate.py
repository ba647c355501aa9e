"""Golden reports: the seeded CLI runs whose report files sit beside this
script, and how to rebuild them.

Every case runs ``pebble`` in process, in a directory that holds the
seed-1 ``ci_small.csv`` and ``ci_large.csv`` of ``bench/workloads.py``,
with a relative ``--data``, so a report does not depend on where it was
made. ``stack.json`` records the numeric stack the files were made on:
numpy, its BLAS/LAPACK and the SIMD target of its float64 ``exp``,
``log1p``, ``tan``, ``cos`` and ``sin`` loops. ``tests/test_golden.py`` checks them.

After a change that moves seeded outputs by design, rebuild the files from
the repository root and record what moved:

    PYTHONPATH=src python3 tests/golden/regenerate.py

It prints, for every report that changed, the fields that moved and the
largest relative gap between old and new floats.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from pebble_logit.cli import main

GOLDEN = Path(__file__).resolve().parent
WORKLOADS = GOLDEN.parents[1] / "bench" / "workloads.py"
CSV_SEED = 1

_SMALL = ["--data", "ci_small.csv", "--response", "y", "--intercept"]
_LARGE = ["--data", "ci_large.csv", "--response", "y", "--intercept"]
_BOOT = ["--boot", "1000", "--seed", "1"]
_SIMULATE = ["simulate", "--n", "100", "--p", "3", "--reps", "20", "--boot", "200", "--seed", "7"]
_DVAR = ["ci", *_SMALL, "--boot", "300", "--seed", "5", "--bn", "0.2", "--dvar"]

# (golden file stem, argv). Cases that share a stem must give the same bytes.
CASES = [
    ("fit_ci_small", ["fit", *_SMALL]),
    ("fit_ci_large", ["fit", *_LARGE]),
    ("ci_ci_small", ["ci", *_SMALL, *_BOOT]),
    ("ci_ci_large", ["ci", *_LARGE, *_BOOT]),
    ("region_ci_small", ["region", *_SMALL, *_BOOT]),
    ("region_ci_large", ["region", *_LARGE, *_BOOT]),
    ("simulate", _SIMULATE),
    ("simulate", [*_SIMULATE, "--workers", "2"]),
    ("ci_dvar_one", [*_DVAR, "0.5"]),
    ("ci_dvar_four", [*_DVAR, "0.5,0.25,1,2"]),
]


def write_inputs(directory: Path) -> None:
    """The seed-1 ``ci_small`` and ``ci_large`` CSVs of ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("_golden_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, design in (("ci_small", workloads.CI_SMALL), ("ci_large", workloads.CI_LARGE)):
        x, y = workloads.make_csv_data(design, CSV_SEED)
        (directory / f"{name}.csv").write_text(workloads.csv_text(x, y), encoding="utf-8")


def run_case(argv: list[str]) -> bytes:
    """Report bytes of one ``pebble`` call in the current directory."""
    out = Path("report.json")
    code = main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"pebble {' '.join(argv)} exited {code}")
    try:
        return out.read_bytes()
    finally:
        out.unlink()


def numeric_stack() -> dict:
    """numpy's version, the BLAS/LAPACK it was built against, and the SIMD
    target numpy dispatches its float64 ``exp``, ``log1p``, ``tan``, ``cos``
    and ``sin`` loops to on this CPU; the fitted probabilities, the
    objective, the weights and the bootstrap jitter go through them, and
    their last bits differ between targets."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    keys = ("name", "version", "openblas configuration")
    simd = opt_func_info(func_name="^(exp|log1p|tan|cos|sin)$", signature="float64")
    return {
        "numpy": np.__version__,
        **{lib: {k: deps[lib].get(k) for k in keys} for lib in ("blas", "lapack")},
        "simd": {func: {sig: target["current"] for sig, target in loops.items()}
                 for func, loops in simd.items()},
    }


def _is_float_pair(a, b) -> bool:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return numbers and (isinstance(a, float) or isinstance(b, float))


def diff(expected, actual, path: str = "$"):
    """Yield (path, gap) for every leaf where two parsed reports differ.

    ``gap`` is the relative difference |a - b| / max(|a|, |b|) when both
    leaves are numbers and one of them is a float; it is None for any other
    difference: a key, a length, a type, a string, an integer or a bool.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if list(expected) != list(actual):
            yield path, None
            return
        for key in expected:
            yield from diff(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield path, None
            return
        for i, (a, b) in enumerate(zip(expected, actual)):
            yield from diff(a, b, f"{path}[{i}]")
    elif _is_float_pair(expected, actual):
        if expected != actual:
            yield path, abs(expected - actual) / max(abs(expected), abs(actual))
    elif type(expected) is not type(actual) or expected != actual:
        yield path, None


def regenerate() -> None:
    old = {p.stem: p.read_bytes() for p in GOLDEN.glob("*.json") if p.stem != "stack"}
    made: dict[str, bytes] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for stem, argv in CASES:
                report = run_case(argv)
                if made.setdefault(stem, report) != report:
                    raise RuntimeError(f"{stem}: pebble {' '.join(argv)} gave other bytes")
        finally:
            os.chdir(cwd)
    for stem, report in made.items():
        (GOLDEN / f"{stem}.json").write_bytes(report)
        if stem not in old:
            print(f"{stem}: new")
        elif old[stem] != report:
            gaps = list(diff(json.loads(old[stem]), json.loads(report)))
            moved = [g for _, g in gaps if g is not None]
            fixed = [k for k, g in gaps if g is None]
            print(f"{stem}: {len(gaps)} fields moved, largest float gap "
                  f"{max(moved, default=0.0):.2e}; non-float changes: {fixed or 'none'}")
            for key, gap in gaps:
                print(f"  {key}: {'changed' if gap is None else f'{gap:.2e}'}")
    (GOLDEN / "stack.json").write_text(json.dumps(numeric_stack(), indent=2) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    regenerate()
