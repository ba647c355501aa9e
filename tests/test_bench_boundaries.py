"""The benchmark's traced boundaries still exist.

``bench/run.py`` traces the calls between pebble_logit modules by
replacing names it looks up at run time. A renamed or deleted private name
only drops its metric from a traced run, so this test runs one ``pebble ci``
call and one coverage experiment under the benchmark's own wrappers and
checks that every traced name was found and crossed. It reads ``bench/``
and changes nothing there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from pebble_logit.cli import main
from pebble_logit.simulation import Scenario, run_coverage_study

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Every name install_wrappers traces: spans, then the two call counts.
TRACED_SPANS = (
    "dataio.load_csv", "dataio.emit_report", "solver.fit_mle",
    "inference.run_pebble", "inference.make_intervals", "inference.normal_intervals",
    "inference.region_contains", "simulation.generate_dataset", "simulation.experiment",
    "perturb.solve", "pivots.star_bundle", "perturb.draw", "rng.rekey",
)
TRACED_COUNTS = ("solver.newton", "pivots.linalg")


def _load_bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_is_crossed(monkeypatch, tmp_path):
    bench_run = _load_bench_run(monkeypatch)
    from tracing import Tracer

    rng = np.random.default_rng(5)
    x = rng.standard_normal((80, 2))
    y = (rng.random(80) < 1.0 / (1.0 + np.exp(-(x @ [0.8, -0.5])))).astype(int)
    data = tmp_path / "data.csv"
    data.write_text("x1,x2,y\n" + "".join(f"{a},{b},{c}\n" for (a, b), c in zip(x, y)),
                    encoding="utf-8")

    tracer = Tracer()
    bench_run.install_wrappers(tracer)
    try:
        code = main(["ci", "--data", str(data), "--response", "y", "--intercept",
                     "--boot", "100", "--out", str(tmp_path / "ci.json")])
        run_coverage_study(Scenario(n=60, p=2, reps=1, boot=100, seed=77))
    finally:
        tracer.unwrap_all()

    assert code == 0
    assert tracer.missing == []
    totals = tracer.totals()
    assert [name for name in TRACED_SPANS if totals.get(name, {}).get("calls", 0) < 1] == []
    assert [name for name in TRACED_COUNTS if tracer.counts[name] < 1] == []
