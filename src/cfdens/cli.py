"""Command-line entry point: cfdens {fit,decompose,marginal,simulate}."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_outcome_basis
from .config import RunConfig, load_config
from .counterfactual import counterfactual_density, effect_bands
from .dataio import load_dataset, write_curve_table
from .density_regression import fit_group
from .errors import ConfigError
from .measure_grid import GridSpec
from .sim_benchmark import DgpSpec, run_study


def _write_manifest(out_dir: Path, config: RunConfig, command: str, seed: int):
    lines = [
        f"command = {command}",
        f"seed = {seed}",
        f"cfdens_version = {__version__}",
        f"numpy_version = {np.__version__}",
        "--- config ---",
        config.raw_text.rstrip("\n"),
        "",
    ]
    (out_dir / "manifest.txt").write_text("\n".join(lines), encoding="utf-8")


def _fit_groups(config: RunConfig):
    tables = dict(zip(("treated", "control"), load_dataset(config.data_path, config)))
    grid = GridSpec.from_measure(config.measure, config.n_bins)
    outcome_basis = build_outcome_basis(config.measure, grid, config.basis_count,
                                        config.basis_degree)
    models = {label: fit_group(table, config.effects, outcome_basis)
              for label, table in tables.items()}
    samples = {label: table.sample for label, table in tables.items()}
    return models, samples, grid


def _cmd_fit(config: RunConfig, out_dir: Path, seed: int) -> None:
    models, samples, grid = _fit_groups(config)
    for label in ("treated", "control"):
        model = models[label]
        marginal = counterfactual_density(model, samples[label])
        write_curve_table(out_dir / f"density_{label}.csv", grid, marginal.values[None])
        summary = [
            f"group = {label}",
            f"coefficients = {model.n_coefficients}",
            f"iterations = {model.iterations}",
            # always true, as a fit that does not converge raises; bench/checks.py reads it
            "converged = True",
            f"final_deviance = {model.deviance_trace[-1]:.17g}",
            "theta = " + ",".join("%.17g" % t for t in model.theta),
            f"smoothing_parameter = {model.smoothing_parameter:.17g}",
            f"null_space_parameter = {model.null_space_parameter:.17g}",
            "",
        ]
        (out_dir / f"model_{label}.txt").write_text("\n".join(summary), encoding="utf-8")


def _cmd_effects(config: RunConfig, out_dir: Path, seed: int, command: str) -> None:
    """``decompose`` or ``marginal``: one ``effect_bands`` pass, ``<kind>[_<j>].csv`` per effect."""
    if command == "decompose":
        effects, densities = [("de", None), ("ce", None), ("te", None)], {}
    elif config.marginal_covariates:
        effects = [(kind, j) for j in config.marginal_covariates for kind in ("ce_j", "de_j")]
        densities = None
    else:
        raise ConfigError("marginal command needs marginal.covariates in the config")
    models, samples, grid = _fit_groups(config)
    bands = effect_bands((models["treated"], models["control"]),
                         (samples["treated"], samples["control"]),
                         effects, config.alpha, config.draws, seed, densities)
    for name, density in (densities or {}).items():
        write_curve_table(out_dir / f"{name}.csv", density.grid, density.values[None])
    for (kind, j_name), band in bands.items():
        stem = kind if j_name is None else f"{kind[:-2]}_{j_name}"
        write_curve_table(out_dir / f"{stem}.csv", grid, band.values)


def _cmd_simulate(config: RunConfig, out_dir: Path, seed: int) -> None:
    report = run_study(
        DgpSpec(),
        n_values=config.sim_n,
        replications=config.sim_replications,
        estimators=tuple(config.sim_estimators),
        seed=seed,
        n_bins=config.n_bins,
        spline_count=config.basis_count,
        degree=config.basis_degree,
    )
    (out_dir / "mc_report.csv").write_text(report.to_table(), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfdens",
        description="Counterfactual density decomposition in Bayes Hilbert spaces",
    )
    parser.add_argument("command", choices=["fit", "decompose", "marginal", "simulate"])
    parser.add_argument("--config", required=True, help="key-value configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config.seed
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "fit":
            _cmd_fit(config, out_dir, seed)
        elif args.command == "simulate":
            _cmd_simulate(config, out_dir, seed)
        else:
            _cmd_effects(config, out_dir, seed, args.command)
        _write_manifest(out_dir, config, args.command, seed)
    except Exception as exc:  # single-line diagnostics, nonzero exit
        print(f"cfdens: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
