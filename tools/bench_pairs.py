#!/usr/bin/env python3
"""Alternating parent/change runs of the repository benchmark.

    python3 tools/bench_pairs.py --parent <rev> --seed 1 --seed 2 \\
        --claim coverage_200_8:wall_s --out BENCH_<n>.json

For every seed and every workload of ``BENCHMARK.json`` this runs ten
pairs of
``python3 bench/run.py --workload <w> --seed <s> --seconds <t> --trace 0``,
with t the benchmark's ``run_seconds``, one on a checkout of the parent
commit and one on this checkout (the change). Pair i runs the parent first when i is even and the change first
when i is odd. The parent is unpacked with ``git archive`` into a temporary
directory, so nothing is added to the repository's git state; its
``bench/`` must equal the change's, or the two sides would not run the
same benchmark.

It writes one JSON file: per workload and end-to-end metric, each side's
median and quartiles, the relative change of the medians, the number of
pairs the change won, and whether the change stays within the metric's
bound. A metric named by ``--claim`` also gets the gain rule: the change
wins at least nine tenths of the pairs (ties count for neither side) and
the gap between the medians exceeds the parent's interquartile range.
Every run is kept under ``runs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
GAIN_SHARE = 0.9


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` with ``git archive``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; its result line, plus the exit code."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"exit": proc.returncode, **result}


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", blas.get("name"))}


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(runs: list[dict], metric: dict, claimed: bool) -> dict:
    """One metric of one workload over all of its pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    by_pair: dict[int, dict[str, float]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run[name]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    if len(pairs) < 2:
        return {"pairs": len(pairs), "note": "fewer than 2 pairs with both runs correct"}
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    lower_in = sum(p["change"] < p["parent"] for p in pairs)
    won = lower_in if lower else sum(p["change"] > p["parent"] for p in pairs)
    out = {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_vs_parent": round(rel, 4),
        "bound": metric["bound"],
        "pairs_change_lower": f"{lower_in} of {len(pairs)}",
        "within_bound": (rel <= metric["bound"]) if lower else (-rel <= metric["bound"]),
    }
    if claimed:
        q = statistics.quantiles(parent, n=4, method="inclusive")
        gap = (p_med - c_med) if lower else (c_med - p_med)
        out["gain"] = {
            "rule": f"change better in >= {GAIN_SHARE:g} of pairs and median gap > parent IQR",
            "median_gap": round(gap, 4),
            "parent_iqr": round(q[2] - q[0], 4),
            "met": won >= GAIN_SHARE * len(pairs) and gap > q[2] - q[0],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="workload seed; repeat for several")
    parser.add_argument("--claim", action="append", default=[],
                        help="workload:metric whose gain is tested, e.g. coverage_200_8:wall_s")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    parent_rev = git("rev-parse", args.parent)
    same = subprocess.run(["git", "diff", "--quiet", parent_rev, "--", "bench", "BENCHMARK.json"],
                          cwd=ROOT).returncode == 0
    if not same:
        print("bench_pairs: bench/ or BENCHMARK.json differs between the parent and this "
              "checkout; both sides must run the same benchmark", file=sys.stderr)
        return 2

    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        unpack(parent_rev, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for seed in args.seed:
            for workload in workloads:
                for pair in range(PAIRS):
                    order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                    for i, side in enumerate(order):
                        result = run_once(roots[side], workload, seed, seconds)
                        row = {"seed": seed, "workload": workload, "pair": pair, "side": side,
                               "first": i == 0, "exit": result["exit"],
                               "correct": result["correct"], "attempted": result["attempted"],
                               "failed": result["failed"]}
                        row.update({k: v["value"] for k, v in result["metrics"].items()})
                        runs.append(row)
                        print(json.dumps(row), file=sys.stderr)

    ok = [r for r in runs if r["exit"] == 0 and r["correct"]]
    summary = {
        f"seed {seed}": {
            w: {m["name"]: summarize([r for r in ok if r["seed"] == seed and r["workload"] == w],
                                     m, (w, m["name"]) in claims)
                for m in spec["end_to_end"]}
            for w in workloads}
        for seed in args.seed
    }
    record = {
        "what": "Alternating parent/change runs of the repository benchmark, "
                "made by tools/bench_pairs.py.",
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds} "
                   "--trace 0",
        "seeds": args.seed,
        "order": "pair i runs the parent first when i is even and the change first when i is odd",
        "commits": {"parent": parent_rev, "change_base": git("rev-parse", "HEAD"),
                    "change_src_sha256": src_digest(ROOT / "src"),
                    "note": "the change is this checkout's working tree; change_src_sha256 "
                            "hashes its src/ files (path and bytes, in path order)"},
        "machine": {"cpu": cpu_name(), "cpus": len(os.sched_getaffinity(0)),
                    "os": platform.platform()},
        "versions": versions(),
        "claims": sorted(f"{w}:{m}" for w, m in claims),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = [r for r in runs if r not in ok]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
