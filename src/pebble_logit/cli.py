"""Command-line surface: fit, ci, region, simulate.

Every command reads CSV, writes a JSON report (file or stdout), and maps
failures to stable exit codes: 0 ok, 2 usage, 3 data error, 4 numeric
failure, 5 io - always with a single-line ``ERROR:<kind>:`` message on
stderr. ``--level`` is the confidence level (0.90 means alpha = 0.1);
``--seed`` accepts decimal or 0x-prefixed hex.
"""

from __future__ import annotations

import sys

import click

from .dataio import emit_report, load_csv
from .errors import PebbleError, UsageError
from .inference import make_intervals, normal_intervals, run_pebble
from .rng import parse_seed
from .simulation import Scenario, run_coverage_study
from .solver import fit_mle


@click.group(name="pebble")
def cli():
    """Perturbation-bootstrap inference for logistic regression."""


_data_options = [
    click.option("--data", "data_path", required=True, help="CSV file with header row."),
    click.option("--response", required=True, help="Name of the 0/1 response column."),
    click.option("--intercept", is_flag=True, help="Prepend a constant-1 column."),
]

_boot_options = [
    click.option("--level", default=0.90, show_default=True,
                 help="Confidence level (1 - alpha)."),
    click.option("--boot", default=1000, show_default=True,
                 help="Number of bootstrap replicates."),
    click.option("--seed", default="0", show_default=True,
                 help="Master seed, decimal or 0x-hex."),
    click.option("--bn", type=float, default=None, help="Smoothing bandwidth override."),
    click.option("--dvar", default=None,
                 help="Jitter variance override: one value or a comma list."),
]


def _add(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


def _alpha_from_level(level: float) -> float:
    if not 0.5 <= level < 1.0:
        raise UsageError(f"--level must lie in [0.5, 1), got {level}")
    return 1.0 - level

def _parse_seed_opt(seed: str) -> int:
    try:
        return parse_seed(seed)
    except ValueError:
        raise UsageError(f"--seed {seed!r} is not a decimal or 0x-hex integer") from None


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


@cli.command()
@_add(_data_options)
@click.option("--out", default=None, help="Output JSON path (default stdout).")
def fit(data_path, response, intercept, out):
    """Fit the logistic MLE and report coefficients."""
    data = load_csv(data_path, response, intercept)
    fitted = fit_mle(data)
    report = {
        "beta_hat": fitted.beta_hat,
        "columns": list(data.columns),
        "iterations": fitted.iterations,
        "final_score_norm": fitted.final_score_norm,
        "config": {"command": "fit", "data": data_path, "response": response,
                   "intercept": intercept, "n": data.n, "p": data.p},
    }
    emit_report(report, out)


def _run_ensemble(data_path, response, intercept, level, boot, seed, bn, dvar):
    alpha = _alpha_from_level(level)
    seed_value = _parse_seed_opt(seed)
    d_var = _parse_dvar(dvar)
    data = load_csv(data_path, response, intercept)
    fitted = fit_mle(data)
    ensemble = run_pebble(data, fitted, boot, seed_value, bn, d_var)
    config = {
        "data": data_path, "response": response, "intercept": intercept,
        "level": level, "alpha": alpha, "boot": boot, "seed": seed_value,
        "bn": ensemble.smoothing.bn, "d_var": ensemble.smoothing.d_var,
        "n": data.n, "p": data.p,
    }
    return data, fitted, ensemble, alpha, config


@cli.command()
@_add(_data_options)
@_add(_boot_options)
@click.option("--out", default=None, help="Output JSON path (default stdout).")
def ci(data_path, response, intercept, level, boot, seed, bn, dvar, out):
    """Bootstrap confidence intervals for every coefficient."""
    data, fitted, ensemble, alpha, config = _run_ensemble(
        data_path, response, intercept, level, boot, seed, bn, dvar
    )
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
    emit_report(report, out)


@cli.command()
@_add(_data_options)
@_add(_boot_options)
@click.option("--out", default=None, help="Output JSON path (default stdout).")
def region(data_path, response, intercept, level, boot, seed, bn, dvar, out):
    """Bootstrap confidence-region radius for the coefficient vector."""
    data, fitted, ensemble, alpha, config = _run_ensemble(
        data_path, response, intercept, level, boot, seed, bn, dvar
    )
    iv = make_intervals(fitted, ensemble, alpha)
    config["command"] = "region"
    report = {
        "beta_hat": fitted.beta_hat,
        "region_radius": iv.region_radius,
        "normal_region_radius": normal_intervals(fitted, alpha).region_radius,
        "config": config,
        "failed_replicates": ensemble.failed_replicates,
    }
    emit_report(report, out)


@cli.command()
@click.option("--n", "n_obs", required=True, type=int, help="Observations per dataset.")
@click.option("--p", "n_cov", required=True, type=int, help="Number of covariates (<= 8).")
@click.option("--reps", default=1000, show_default=True, help="Monte Carlo experiments.")
@click.option("--level", default=0.90, show_default=True)
@click.option("--boot", default=1000, show_default=True)
@click.option("--seed", default="0", show_default=True)
@click.option("--workers", default=1, show_default=True, help="Experiment processes.")
@click.option("--out", default=None, help="Output JSON path (default stdout).")
def simulate(n_obs, n_cov, reps, level, boot, seed, workers, out):
    """Monte Carlo coverage study on synthetic data."""
    alpha = _alpha_from_level(level)
    seed_value = _parse_seed_opt(seed)
    scn = Scenario(n=n_obs, p=n_cov, reps=reps, boot=boot, alpha=alpha, seed=seed_value)
    report = run_coverage_study(scn, workers=workers)
    emit_report(report.as_dict(), out)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        print(f"ERROR:usage:{exc.format_message()}", file=sys.stderr)
        return 2
    except PebbleError as exc:
        print(f"ERROR:{exc.kind}:{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ERROR:io:{exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
