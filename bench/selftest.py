#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Makes one real output of each kind (a `pebble ci` report on each ci_*
input and a two-experiment coverage study), shows that every check passes
on it, then feeds each check a corrupted copy and shows that it fails.
Exits 1 if any check passes a corrupted output or fails a good one.
Takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402


def ci_report(design, seed: int, boot: int, tmp: Path) -> tuple[dict, bytes, object, object]:
    import pebble_logit.cli as cli

    x, y = wl.make_csv_data(design, seed)
    csv, out = tmp / f"in-{design.n}.csv", tmp / f"out-{design.n}.json"
    csv.write_text(wl.csv_text(x, y), encoding="utf-8")
    rc = cli.main(["ci", "--data", str(csv), "--response", wl.RESPONSE, "--intercept",
                   "--boot", str(boot), "--seed", str(seed), "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"pebble ci failed with exit code {rc}")
    raw = out.read_bytes()
    return json.loads(raw), raw, x, y


def coverage_study(seed: int):
    from pebble_logit.rng import RandomStream
    from pebble_logit.simulation import Scenario, generate_dataset, run_coverage_study

    scn = Scenario(n=wl.COVERAGE_N, p=wl.COVERAGE_P, reps=wl.EXPERIMENTS_PER_OP,
                   boot=wl.COVERAGE_BOOT, alpha=wl.COVERAGE_ALPHA, seed=seed)
    study = run_coverage_study(scn, workers=1).as_dict()
    datasets = []
    for e in range(scn.reps):
        ds, _, _ = generate_dataset(scn, e, RandomStream(scn.seed).derive("experiment", e))
        datasets.append((ds.x, ds.y))
    return study, reference.wald_coverage(datasets, scn.beta_true, scn.alpha)


def corrupt(report: dict, edit) -> dict:
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        small, raw, xs, ys = ci_report(wl.CI_SMALL, 0, wl.CI_SMALL.boot, Path(tmp))
        large, _, xl, yl = ci_report(wl.CI_LARGE, 0, wl.CI_LARGE.boot, Path(tmp))
    study, recomputed = coverage_study(wl.coverage_seed(0, 0))
    alpha = small["config"]["alpha"]
    boot = wl.CI_SMALL.boot
    reps = wl.EXPERIMENTS_PER_OP

    def set_entry(key, j, field, fn):
        def edit(r):
            r[key][j][field] = fn(r[key][j][field])
        return edit

    def se0(r):
        lo, hi = r["normal_intervals"][0]["two_sided"]
        return (hi - lo) / (2.0 * NormalDist().inv_cdf(1.0 - alpha / 2.0))

    cases = [
        ("beta_hat off IRLS by 1e-4", lambda r: checks.beta_matches_reference(r, xs, ys),
         small, lambda r: r["beta_hat"].__setitem__(0, r["beta_hat"][0] + 1e-4)),
        ("beta_hat moved off the score root", lambda r: checks.score_near_zero(r, xs, ys),
         small, lambda r: r["beta_hat"].__setitem__(1, r["beta_hat"][1] + 1e-5)),
        ("normal interval hi moved by 1e-6 se",
         lambda r: checks.normal_intervals_match(r, xs, alpha), small,
         lambda r: r["normal_intervals"][0]["two_sided"].__setitem__(
             1, r["normal_intervals"][0]["two_sided"][1] + 1e-6 * se0(r))),
        ("normal one-sided upper moved", lambda r: checks.normal_intervals_match(r, xs, alpha),
         small, set_entry("normal_intervals", 1, "upper", lambda v: v + 1e-3)),
        ("PEBBLE lo and hi swapped", checks.pebble_intervals_ordered, small,
         set_entry("intervals", 0, "two_sided", lambda v: v[::-1])),
        ("PEBBLE upper above hi", checks.pebble_intervals_ordered, small,
         lambda r: r["intervals"][1].__setitem__(
             "upper", r["intervals"][1]["two_sided"][1] + 1e-12)),
        ("PEBBLE lower below lo", checks.pebble_intervals_ordered, small,
         lambda r: r["intervals"][2].__setitem__(
             "lower", r["intervals"][2]["two_sided"][0] - 1e-12)),
        ("region radius negative", checks.pebble_intervals_ordered, small,
         lambda r: r.__setitem__("region_radius", -1.0)),
        ("failed_replicates missing", lambda r: checks.failed_replicates_reported(r, boot),
         small, lambda r: r.pop("failed_replicates")),
        ("failed_replicates at 1% of B", lambda r: checks.failed_replicates_reported(r, boot),
         small, lambda r: r.__setitem__("failed_replicates", boot // 100)),
        ("PEBBLE interval 3 Wald half-widths off",
         lambda r: checks.pebble_near_wald(r, xl, yl, alpha, wl.CI_LARGE.boot), large,
         set_entry("intervals", 4, "two_sided",
                   lambda v: [v[0] + 1.5 * (v[1] - v[0]), v[1] + 1.5 * (v[1] - v[0])])),
        ("PEBBLE interval three times as wide",
         lambda r: checks.pebble_near_wald(r, xl, yl, alpha, wl.CI_LARGE.boot), large,
         set_entry("intervals", 7, "two_sided",
                   lambda v: [v[0] - (v[1] - v[0]), v[1] + (v[1] - v[0])])),
        ("experiment dropped", lambda s: checks.study_complete(s, reps), study,
         lambda s: s.update(experiments_used=reps - 1, failed_experiments=1)),
        ("bootstrap_failures missing", lambda s: checks.study_complete(s, reps), study,
         lambda s: s.pop("bootstrap_failures")),
        ("coverage above 1", lambda s: checks.study_complete(s, reps), study,
         lambda s: s["pebble"].__setitem__("beta_avg_upper", 1.5)),
        ("zero width", lambda s: checks.study_complete(s, reps), study,
         lambda s: s["pebble"].__setitem__("beta_min_middle_width", 0.0)),
        ("Normal coverage off by one indicator",
         lambda s: checks.normal_coverage_matches(s, recomputed), study,
         lambda s: s["normal"].__setitem__(
             "beta_avg_middle", s["normal"]["beta_avg_middle"] - 1.0 / (reps * wl.COVERAGE_P))),
        ("Normal region coverage off", lambda s: checks.normal_coverage_matches(s, recomputed),
         study, lambda s: s["normal"].__setitem__(
             "beta_lower_region", abs(s["normal"]["beta_lower_region"] - 1.0 / reps))),
        ("Normal width off by 1e-6",
         lambda s: checks.normal_coverage_matches(s, recomputed), study,
         lambda s: s["normal"].__setitem__(
             "beta_avg_middle_width", s["normal"]["beta_avg_middle_width"] * (1 + 1e-6))),
    ]

    bad = 0
    for label, check, good, edit in cases:
        passes_good = check(good) == []
        fails_bad = check(corrupt(good, edit)) != []
        ok = passes_good and fails_bad
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}"
              f"{'' if passes_good else ' (check fails the good output)'}"
              f"{'' if fails_bad else ' (check passes the corrupted output)'}")

    # Whole-list checks.
    flipped = bytearray(raw)
    flipped[len(flipped) // 2] ^= 1
    list_cases = [
        ("one byte of a repeated report flipped", checks.byte_identical([raw, raw]),
         checks.byte_identical([raw, bytes(flipped)])),
        ("PEBBLE coverage 0.70 over 40 experiments",
         checks.pebble_coverage_in_band([0.9] * 20, reps, 0.9),
         checks.pebble_coverage_in_band([0.7] * 20, reps, 0.9)),
    ]
    for label, good, corrupted in list_cases:
        ok = good == [] and corrupted != []
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    print(f"{len(cases) + len(list_cases) - bad} of {len(cases) + len(list_cases)} checks "
          "pass the good output and fail the corrupted one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
