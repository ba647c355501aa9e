"""Command-line surface: fit, ci, region, simulate.

Every command reads CSV, writes a JSON report (file or stdout), and maps
failures to stable exit codes: 0 ok, 2 usage, 3 data error, 4 numeric
failure, 5 io - always with a single-line ``ERROR:<kind>:`` message on
stderr. ``--level`` is the confidence level (0.90 means alpha = 0.1);
``--seed`` accepts decimal digits or 0x-prefixed hex in [0, 2^64).

The commands look up ``load_csv``, ``fit_mle``, ``run_pebble`` and the
other library calls as module globals when they run, so a caller may
replace them here.
"""

from __future__ import annotations

import argparse
import re
import sys

from .dataio import emit_report, load_csv
from .errors import PebbleError, UsageError
from .inference import make_intervals, normal_intervals, run_pebble
from .rng import RandomStream
from .simulation import Scenario, run_coverage_study
from .solver import fit_mle

_SEED = re.compile(r"\s*(?:0[xX]([0-9a-fA-F]+)|([0-9]+))\s*")


def _alpha_from_level(level: float) -> float:
    if not 0.5 <= level < 1.0:
        raise UsageError(f"--level must lie in [0.5, 1), got {level}")
    return 1.0 - level


def _parse_seed_opt(seed: str) -> int:
    match = _SEED.fullmatch(seed)
    if match is None:
        raise UsageError(f"--seed {seed!r} is not a decimal or 0x-hex integer")
    hex_digits, digits = match.groups()
    return int(hex_digits, 16) if hex_digits is not None else int(digits)


def _parse_dvar(dvar: str | None) -> list[float] | None:
    if dvar is None:
        return None
    try:
        return [float(v) for v in dvar.split(",")]
    except ValueError:
        raise UsageError(f"--dvar {dvar!r} is not numeric") from None


def _interval_entries(iv, columns):
    entries = []
    for j in range(iv.two_sided.shape[0]):
        entries.append({
            "coord": j,
            "name": columns[j] if columns else f"x{j}",
            "two_sided": [iv.two_sided[j, 0], iv.two_sided[j, 1]],
            "upper": iv.upper[j],
            "lower": iv.lower[j],
        })
    return entries


def fit(args):
    """Fit the logistic MLE and report coefficients."""
    data = load_csv(args.data, args.response, args.intercept)
    fitted = fit_mle(data)
    report = {
        "beta_hat": fitted.beta_hat,
        "columns": list(data.columns),
        "iterations": fitted.iterations,
        "final_score_norm": fitted.final_score_norm,
        "config": {"command": "fit", "data": args.data, "response": args.response,
                   "intercept": args.intercept, "n": data.n, "p": data.p},
    }
    emit_report(report, args.out)


def _run_ensemble(args):
    alpha = _alpha_from_level(args.level)
    # The root stream checks the seed's domain before any data is read.
    stream = RandomStream(_parse_seed_opt(args.seed))
    d_var = _parse_dvar(args.dvar)
    data = load_csv(args.data, args.response, args.intercept)
    fitted = fit_mle(data)
    ensemble = run_pebble(data, fitted, args.boot, stream, args.bn, d_var)
    config = {
        "data": args.data, "response": args.response, "intercept": args.intercept,
        "level": args.level, "alpha": alpha, "boot": args.boot, "seed": stream.seed,
        "bn": ensemble.smoothing.bn, "d_var": ensemble.smoothing.d_var,
        "n": data.n, "p": data.p,
    }
    return data, fitted, ensemble, alpha, config


def ci(args):
    """Bootstrap confidence intervals for every coefficient."""
    data, fitted, ensemble, alpha, config = _run_ensemble(args)
    iv = make_intervals(fitted, ensemble, alpha)
    niv = normal_intervals(fitted, alpha)
    config["command"] = "ci"
    report = {
        "beta_hat": fitted.beta_hat,
        "intervals": _interval_entries(iv, data.columns),
        "normal_intervals": _interval_entries(niv, data.columns),
        "region_radius": iv.region_radius,
        "config": config,
        "failed_replicates": ensemble.failed_replicates,
    }
    emit_report(report, args.out)


def region(args):
    """Bootstrap confidence-region radius for the coefficient vector."""
    data, fitted, ensemble, alpha, config = _run_ensemble(args)
    iv = make_intervals(fitted, ensemble, alpha)
    config["command"] = "region"
    report = {
        "beta_hat": fitted.beta_hat,
        "region_radius": iv.region_radius,
        "normal_region_radius": normal_intervals(fitted, alpha).region_radius,
        "config": config,
        "failed_replicates": ensemble.failed_replicates,
    }
    emit_report(report, args.out)


def simulate(args):
    """Monte Carlo coverage study on synthetic data."""
    alpha = _alpha_from_level(args.level)
    seed_value = _parse_seed_opt(args.seed)
    scn = Scenario(n=args.n, p=args.p, reps=args.reps, boot=args.boot, alpha=alpha,
                   seed=seed_value)
    report = run_coverage_study(scn, workers=args.workers)
    emit_report(report.as_dict(), args.out)


_DATA_OPTIONS = {
    "--data": dict(required=True, help="CSV file with header row."),
    "--response": dict(required=True, help="Name of the 0/1 response column."),
    "--intercept": dict(action="store_true", help="Prepend a constant-1 column."),
}
_LEVEL_BOOT_SEED = {
    "--level": dict(type=float, default=0.90, help="Confidence level (1 - alpha). "
                                                   "Default: %(default)s."),
    "--boot": dict(type=int, default=1000, help="Number of bootstrap replicates. "
                                                "Default: %(default)s."),
    "--seed": dict(default="0", help="Master seed, decimal or 0x-hex. Default: %(default)s."),
}
_OUT = {"--out": dict(help="Output JSON path (default stdout).")}
_SMOOTHING = {
    "--bn": dict(type=float, help="Smoothing bandwidth override."),
    "--dvar": dict(help="Jitter variance override: one value or a comma list."),
}
_COMMANDS = {
    fit: {**_DATA_OPTIONS, **_OUT},
    ci: {**_DATA_OPTIONS, **_LEVEL_BOOT_SEED, **_SMOOTHING, **_OUT},
    region: {**_DATA_OPTIONS, **_LEVEL_BOOT_SEED, **_SMOOTHING, **_OUT},
    simulate: {
        "--n": dict(type=int, required=True, help="Observations per dataset."),
        "--p": dict(type=int, required=True, help="Number of covariates (<= 8)."),
        "--reps": dict(type=int, default=1000, help="Monte Carlo experiments. "
                                                    "Default: %(default)s."),
        **_LEVEL_BOOT_SEED,
        "--workers": dict(type=int, default=1, help="Experiment processes. "
                                                    "Default: %(default)s."),
        **_OUT,
    },
}
# Options that take a value: every one but the --intercept flag.
_VALUE_OPTIONS = {name for options in _COMMANDS.values()
                  for name, spec in options.items() if "action" not in spec}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit, so that
    ``main`` maps every failure in one place."""

    def error(self, message):
        raise UsageError(message)


def _parser() -> _Parser:
    # No abbreviated flags (--dat) and no -h: the only spellings are the
    # full option names.
    parser = _Parser(prog="pebble", allow_abbrev=False, add_help=False,
                     description="Perturbation-bootstrap inference for logistic regression.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for run, options in _COMMANDS.items():
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False, add_help=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        for name, spec in options.items():
            sub.add_argument(name, **spec)
        sub.set_defaults(run=run)
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Write each value-taking option and the token after it as one
    ``--opt=value`` token, so that a value starting with '-' (``--bn -inf``,
    ``--seed -1``) is read as the option's value, as it always has been,
    and not as an option of its own."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--":
            return out + argv[i:]
        if argv[i] in _VALUE_OPTIONS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_attach_values(argv))
        args.run(args)
    except SystemExit as exc:  # --help, after printing its text
        return exc.code
    except (PebbleError, OSError) as exc:
        kind, code = (exc.kind, exc.exit_code) if isinstance(exc, PebbleError) else ("io", 5)
        # A message may quote user text (a path, a column name); escaping
        # its line breaks keeps the report to one ERROR: line.
        message = str(exc).replace("\n", "\\n").replace("\r", "\\r")
        print(f"ERROR:{kind}:{message}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
