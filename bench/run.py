#!/usr/bin/env python3
"""pebble-logit benchmark.

    python3 bench/run.py --workload ci_small --seed 1 --seconds 20 --trace 0

Runs one workload in a closed loop (one operation at a time, from this
single process) for ``--seconds`` seconds, checks every output against
reference.py and the properties in checks.py, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing. With ``--trace 1`` a fixed number of the same operations run in
process, each once untraced and once traced through spans around the calls
between pebble_logit modules (tracing.py), and the metrics are the
per-layer ones.
Workloads, metrics and reference figures are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = "import pebble_logit.cli"

# Nominal in-process seconds per operation, used only to fix how many
# operations a traced run makes from --seconds, so that its counts repeat
# exactly for a given seed and run length.
TRACE_NOMINAL_OP_S = {"ci_small": 0.5, "ci_large": 3.5, "coverage_200_8": 1.0}

perf = time.perf_counter


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, str]:
    """Run a child to completion; returns (exit code, stderr tail)."""
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {CHILD_TIMEOUT_S} s"
    return proc.returncode, proc.stderr.decode(errors="replace")[-2000:]


def setup(write_inputs, env: dict) -> tuple[float, float]:
    """Write the inputs and cold-import the package in a fresh interpreter,
    SETUP_REPS times; returns the medians of (whole set-up, import)."""
    whole, imports = [], []
    for _ in range(SETUP_REPS):
        t0 = perf()
        write_inputs()
        t1 = perf()
        rc, err = run_child([sys.executable, "-c", IMPORT_PROBE], env)
        t2 = perf()
        if rc != 0:
            raise RuntimeError(f"importing pebble_logit failed:\n{err}")
        whole.append(t2 - t0)
        imports.append(t2 - t1)
    return statistics.median(whole), statistics.median(imports)


def scipy_stats_import_s(env: dict) -> float:
    """Cumulative import time of scipy.stats under -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=True)
    for line in proc.stderr.decode().splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) == "scipy.stats":
            return int(m.group(1)) / 1e6
    return 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Loop:
    """Closed-loop bookkeeping: counts, per-operation wall times, failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"bench: operation failed: {message}", file=sys.stderr)


# --------------------------------------------------------------- ci_* ---

def _check_ci(design, outputs: list[bytes], x, y, loop: Loop) -> None:
    import checks
    from workloads import CI_LARGE

    if not outputs:
        loop.problems.append("no ci call succeeded")
        return
    loop.problems += checks.byte_identical(outputs)
    report = json.loads(outputs[0])
    alpha = report["config"]["alpha"]
    loop.problems += checks.beta_matches_reference(report, x, y)
    loop.problems += checks.score_near_zero(report, x, y)
    loop.problems += checks.normal_intervals_match(report, x, alpha)
    loop.problems += checks.pebble_intervals_ordered(report)
    loop.problems += checks.failed_replicates_reported(report, design.boot)
    if design is CI_LARGE:
        loop.problems += checks.pebble_near_wald(report, x, y, alpha, design.boot)


def run_ci(design, args, work: Path, env: dict) -> dict:
    from workloads import RESPONSE, csv_text, make_csv_data

    csv, out = work / "data.csv", work / "report.json"
    data = {}

    def write_inputs():
        data["x"], data["y"] = make_csv_data(design, args.seed)
        csv.write_text(csv_text(data["x"], data["y"]), encoding="utf-8")

    setup_s, import_s = setup(write_inputs, env)
    argv = ["ci", "--data", str(csv), "--response", RESPONSE, "--intercept",
            "--boot", str(design.boot), "--seed", str(args.seed), "--out", str(out)]
    loop = Loop()
    outputs: list[bytes] = []

    if args.trace:
        import pebble_logit.cli as cli

        def op(_index: int) -> None:
            out.unlink(missing_ok=True)
            loop.attempted += 1
            rc = cli.main(argv)
            if rc != 0:
                loop.fail(f"pebble ci returned {rc}")
            else:
                outputs.append(out.read_bytes())

        traced = _trace_phases(op, args, env, import_s)
    else:
        cmd = [sys.executable, "-m", "pebble_logit.cli"] + argv
        deadline = perf() + args.seconds
        while True:
            out.unlink(missing_ok=True)
            t0 = perf()
            rc, err = run_child(cmd, env)
            wall = perf() - t0
            loop.attempted += 1
            if rc != 0:
                loop.fail(f"pebble ci exited {rc}: {err.strip()}")
            else:
                loop.walls.append(wall)
                outputs.append(out.read_bytes())
            if perf() >= deadline:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    _check_ci(design, outputs, data["x"], data["y"], loop)
    if args.trace:
        return _trace_result(loop, traced)
    return _e2e_result(loop, setup_s, peak_mb)


# ------------------------------------------------------ coverage_200_8 ---

def run_coverage(args, env: dict) -> dict:
    import workloads as wl

    setup_s, import_s = setup(lambda: None, env)
    from pebble_logit.simulation import Scenario, run_coverage_study

    loop = Loop()
    studies: list[tuple[int, str]] = []

    def scenario(op_index: int) -> Scenario:
        return Scenario(n=wl.COVERAGE_N, p=wl.COVERAGE_P, reps=wl.EXPERIMENTS_PER_OP,
                        boot=wl.COVERAGE_BOOT, alpha=wl.COVERAGE_ALPHA,
                        seed=wl.coverage_seed(args.seed, op_index))

    def op(op_index: int) -> bool:
        loop.attempted += 1
        try:
            report = run_coverage_study(scenario(op_index), workers=1)
        except Exception as exc:  # a failed study is counted, not fatal
            loop.fail(f"study {op_index}: {type(exc).__name__}: {exc}")
            return False
        studies.append((op_index, json.dumps(report.as_dict())))
        return True

    if args.trace:
        traced = _trace_phases(op, args, env, import_s)
    else:
        deadline = perf() + args.seconds
        i = 0
        while True:
            t0 = perf()
            ok = op(i)
            wall = perf() - t0
            if ok:
                loop.walls.append(wall)
            i += 1
            if perf() >= deadline:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if studies:  # replay the first study: same scenario, same bytes
            first = studies[0][0]
            replay = run_coverage_study(scenario(first), workers=1)
            studies.append((first, json.dumps(replay.as_dict())))

    _check_coverage(studies, scenario, loop)
    if args.trace:
        return _trace_result(loop, traced)
    return _e2e_result(loop, setup_s, peak_mb)


def _check_coverage(studies, scenario, loop: Loop) -> None:
    import checks
    import reference
    import workloads as wl
    from pebble_logit.rng import RandomStream
    from pebble_logit.simulation import generate_dataset

    if not studies:
        loop.problems.append("no coverage study succeeded")
        return
    by_index: dict[int, list[str]] = {}
    for op_index, text in studies:
        by_index.setdefault(op_index, []).append(text)
    for texts in by_index.values():
        loop.problems += checks.byte_identical([t.encode() for t in texts])
    for op_index in sorted(by_index):
        study = json.loads(by_index[op_index][0])
        scn = scenario(op_index)
        loop.problems += checks.study_complete(study, scn.reps)
        datasets = []
        for e in range(scn.reps):
            ds, _, _ = generate_dataset(scn, e, RandomStream(scn.seed).derive("experiment", e))
            datasets.append((ds.x, ds.y))
        recomputed = reference.wald_coverage(datasets, scn.beta_true, scn.alpha)
        loop.problems += checks.normal_coverage_matches(study, recomputed)
    middles = [json.loads(by_index[i][0])["pebble"]["beta_avg_middle"] for i in sorted(by_index)]
    loop.problems += checks.pebble_coverage_in_band(
        middles, wl.EXPERIMENTS_PER_OP, 1.0 - wl.COVERAGE_ALPHA)


# -------------------------------------------------------------- tracing ---

def _trace_op_count(name: str, seconds: int) -> int:
    return max(2, int(seconds / 2 / TRACE_NOMINAL_OP_S[name]))


def _trace_phases(op, args, env: dict, import_s: float) -> dict:
    """Run ``op(i)`` for a fixed range of i, each once untraced and then
    once traced, so that a slow stretch of the host hits both alike;
    returns the tracer, the wall times of both passes and the import
    figures."""
    from tracing import Tracer

    ops = _trace_op_count(args.workload, args.seconds)
    tracer = Tracer()
    untraced, traced = [], []
    for i in range(ops):
        t0 = perf()
        op(i)
        untraced.append(perf() - t0)
        install_wrappers(tracer)
        try:
            t0 = perf()
            tracer.span("op", op, i)
            traced.append(perf() - t0)
        finally:
            tracer.unwrap_all()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    return {"tracer": tracer, "untraced": untraced, "traced": traced, "ops": ops,
            "import_s": import_s, "scipy_stats_s": scipy_stats_import_s(env)}


def newton_flops(n: int, p: int, iterations: int) -> float:
    """Computed flops of one replicate solve with k Newton iterations,
    counting the matrix products only: the offset s'nu and the start
    x t (2np each), k + 1 gradients x'p (2np each), and per iteration
    x*w, x'(x*w), the p x p solve and one trial x t."""
    k = iterations
    return 2.0 * n * p * (k + 3) + k * (3.0 * n * p + 2.0 * n * p * p + 2.0 * p**3 / 3.0)


def install_wrappers(tracer) -> None:
    """Wrap each call one pebble_logit module makes into another."""
    import pebble_logit.cli as cli
    import pebble_logit.inference as inference
    import pebble_logit.perturb as perturb
    import pebble_logit.pivots as pivots
    import pebble_logit.rng as rng
    import pebble_logit.simulation as simulation

    s = tracer.samples
    c = tracer.counts

    def on_fit(args, fitted):
        s["solver.fit_mle.iterations"].append(fitted.iterations)

    def on_newton(args, result):
        x = args[0]
        s["solver.newton.iterations"].append(result[1])
        c["perturb.solve.flops"] += newton_flops(x.shape[0], x.shape[1], result[1])

    def on_run_pebble(args, ensemble):
        c["inference.replicates"] += ensemble.b
        c["inference.replicates_failed"] += ensemble.failed_replicates

    tracer.wrap(cli, "load_csv", "dataio.load_csv")
    tracer.wrap(cli, "emit_report", "dataio.emit_report")
    for module in (cli, simulation):
        tracer.wrap(module, "fit_mle", "solver.fit_mle", on_result=on_fit)
        tracer.wrap(module, "run_pebble", "inference.run_pebble", on_result=on_run_pebble)
        tracer.wrap(module, "make_intervals", "inference.make_intervals")
        tracer.wrap(module, "normal_intervals", "inference.normal_intervals")
    tracer.wrap(simulation, "region_contains", "inference.region_contains")
    tracer.wrap(simulation, "generate_dataset", "simulation.generate_dataset")
    tracer.wrap(simulation, "_run_experiment", "simulation.experiment")
    tracer.wrap(inference, "_solve_replicate", "perturb.solve")
    tracer.wrap(inference, "_star_bundle", "pivots.star_bundle")
    tracer.wrap(perturb.WeightSpec, "draw", "perturb.draw")
    tracer.wrap(rng.ScratchStream, "rekey", "rng.rekey")
    tracer.wrap(perturb, "_newton_lin", "solver.newton", count=True, on_result=on_newton)
    tracer.wrap(pivots, "sym_inv_sqrt", "pivots.linalg", count=True)
    tracer.wrap(pivots, "sym_inverse", "pivots.linalg", count=True)


# Span-derived per-layer metrics: name -> (span name, field).
SPAN_METRICS = {
    "op.self_s": ("op", "self_s"),
    "dataio.load_csv.s": ("dataio.load_csv", "s"),
    "dataio.emit_report.s": ("dataio.emit_report", "s"),
    "solver.fit_mle.s": ("solver.fit_mle", "s"),
    "perturb.draw.s": ("perturb.draw", "s"),
    "perturb.solve.s": ("perturb.solve", "s"),
    "pivots.star_bundle.s": ("pivots.star_bundle", "s"),
    "rng.rekey.s": ("rng.rekey", "s"),
    "inference.run_pebble.s": ("inference.run_pebble", "s"),
    "inference.run_pebble.self_s": ("inference.run_pebble", "self_s"),
    "inference.make_intervals.s": ("inference.make_intervals", "s"),
    "inference.normal_intervals.s": ("inference.normal_intervals", "s"),
    "inference.region_contains.s": ("inference.region_contains", "s"),
    "simulation.generate_dataset.s": ("simulation.generate_dataset", "s"),
}


def per_layer_metrics(traced: dict) -> dict:
    """Per-layer figures, per operation unless the name says otherwise.
    A metric whose boundary no longer exists is left out."""
    tracer = traced["tracer"]
    ops = traced["ops"]
    totals = tracer.totals()
    missing = set(tracer.missing)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m = {
        "import.s": metric(traced["import_s"], "s"),
        "import.scipy_stats.s": metric(traced["scipy_stats_s"], "s"),
    }
    for key, (span, field) in SPAN_METRICS.items():
        if span not in missing:
            m[key] = metric(totals.get(span, zero)[field] / ops, "s")

    def calls(span):
        return totals.get(span, zero)["calls"]

    s, c = tracer.samples, tracer.counts
    if "solver.fit_mle" not in missing:
        fits = s["solver.fit_mle.iterations"]
        m["solver.fit_mle.iterations"] = metric(sum(fits) / max(len(fits), 1), "count")
    if "solver.newton" not in missing:
        its = s["solver.newton.iterations"]
        m["solver.newton.iterations.mean"] = metric(sum(its) / max(len(its), 1), "count")
        m["solver.newton.iterations.max"] = metric(max(its, default=0), "count")
    if "perturb.draw" not in missing:
        m["perturb.draw.calls"] = metric(calls("perturb.draw") / ops, "count")
    if "perturb.solve" not in missing:
        m["perturb.solve.calls"] = metric(calls("perturb.solve") / ops, "count")
        solve_s = totals.get("perturb.solve", zero)["s"]
        if "solver.newton" not in missing:
            gflops = c["perturb.solve.flops"] / solve_s / 1e9 if solve_s > 0 else 0.0
            m["perturb.solve.gflops"] = metric(gflops, "GFLOP/s")
    if "pivots.linalg" not in missing:
        m["pivots.linalg.calls"] = metric(c["pivots.linalg"] / ops, "count")
    if "inference.run_pebble" not in missing:
        run_s = totals.get("inference.run_pebble", zero)["s"]
        reps = c["inference.replicates"]
        m["inference.replicates_per_s"] = metric(reps / run_s if run_s > 0 else 0.0, "1/s")
        m["inference.replicates_failed"] = metric(c["inference.replicates_failed"] / ops, "count")
    if "simulation.experiment" not in missing:
        m["simulation.experiment.s.p50"] = metric(_span_median(tracer, "simulation.experiment"), "s")

    traced_wall = sum(traced["traced"])
    self_sum = sum(v["self_s"] for v in totals.values())
    u_med = statistics.median(traced["untraced"])
    overhead = statistics.median(t - u for t, u in zip(traced["traced"], traced["untraced"]))
    m["trace.op_wall.s"] = metric(statistics.median(traced["traced"]), "s")
    m["trace.untraced_op_wall.s"] = metric(u_med, "s")
    m["trace.overhead.s"] = metric(overhead, "s")
    m["trace.overhead.share"] = metric(overhead / u_med, "ratio")
    m["trace.self_sum.share"] = metric(self_sum / traced_wall, "ratio")
    return m


def _span_median(tracer, name: str) -> float:
    if name not in tracer.names:
        return 0.0
    i = tracer.names.index(name)
    durs = [end - start for nid, start, end, _ in tracer.spans if nid == i]
    return statistics.median(durs) if durs else 0.0


# -------------------------------------------------------------- results ---

def _e2e_result(loop: Loop, setup_s: float, peak_mb: float) -> dict:
    wall = statistics.median(loop.walls) if loop.walls else 0.0
    return {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall, "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        },
        "_problems": loop.problems,
        "_walls": loop.walls,
    }


def _trace_result(loop: Loop, traced: dict) -> dict:
    return {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": per_layer_metrics(traced),
        "_problems": loop.problems,
    }


# ----------------------------------------------------------------- main ---

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=["ci_small", "ci_large", "coverage_200_8"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (SRC / "pebble_logit" / "__init__.py").is_file():
        print(f"bench: no pebble_logit package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = _child_env()

    import workloads as wl

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        if args.workload == "coverage_200_8":
            result = run_coverage(args, env)
        else:
            design = wl.CI_SMALL if args.workload == "ci_small" else wl.CI_LARGE
            result = run_ci(design, args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result.pop("_problems"):
        print(f"bench: check failed: {problem}", file=sys.stderr)
    extra = {"op_walls_s": result.pop("_walls", None)}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, **extra}, indent=1) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
