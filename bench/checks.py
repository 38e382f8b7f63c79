"""Checks of the CLI outputs against properties of the method and the true law.

Every check returns a list of failure messages (empty when it passes).  The
tables are read here with the ``csv`` module, not with ``cfdens``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import truth

CURVE_HEADER = ["grid_point", "cell_type", "value", "valid_flag", "draw_index"]
#: densities integrate to 1 within this, as ``measure_grid.INTEGRAL_TOL`` demands
INTEGRAL_TOL = 1e-8
#: te = de * ce holds to a few roundings; below the smallest normal float the
#: comparison is absolute (a subnormal ratio keeps only a few digits)
PRODUCT_RTOL = 1e-12
#: an estimate's TV distance from the truth may be this many times the
#: expected TV distance of a raw histogram of the model group's rows
TV_FACTOR = 2.0
#: coefficients of the model of configs/synthetic_mixed.cfg: covariate
#: columns 1 + 2 (edu) + 8 (age) times 13 outcome columns
N_COEFFICIENTS = 143


def read_curves(path: Path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{draw: (values, valid)} of a long-format curve table, checking its grid."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if header != CURVE_HEADER:
        raise ValueError(f"{path.name}: header {header}")
    draws: dict[int, list] = {}
    for row in rows:
        draws.setdefault(int(row[4]), []).append(row)
    types = ["bin"] * truth.N_BINS + ["atom"] * len(truth.ATOMS)
    out = {}
    for draw, cells in draws.items():
        points = np.array([float(c[0]) for c in cells])
        if [c[1] for c in cells] != types or not np.allclose(points, truth.CENTERS, rtol=1e-12):
            raise ValueError(f"{path.name}: draw {draw} is not on the configured grid")
        out[draw] = (
            np.array([float(c[2]) for c in cells]),
            np.array([c[3] == "1" for c in cells]),
        )
    return out


def read_sample(data_path: Path, group: str):
    """(edu, age, weight) arrays of one group of a dataset."""
    with open(data_path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["group"] == group]
    return (
        np.array([r["edu"] for r in rows]),
        np.array([float(r["age"]) for r in rows]),
        np.array([float(r["weight"]) for r in rows]),
    )


def check_density(name: str, curves, true_density, model_weights) -> list[str]:
    """A point-estimate density: one draw, nonnegative, unit integral, close to the truth."""
    if set(curves) != {0}:
        return [f"{name}: draws {sorted(curves)}, expected only 0"]
    values, valid = curves[0]
    errors = []
    if not valid.all():
        errors.append(f"{name}: a density cell is flagged invalid")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        errors.append(f"{name}: negative or non-finite density values")
    total = float(np.dot(values, truth.WIDTHS))
    if abs(total - 1.0) > INTEGRAL_TOL:
        errors.append(f"{name}: integrates to {total!r}")
    errors += check_tv(name, values, true_density, model_weights)
    return errors


def check_tv(name: str, values, true_density, model_weights) -> list[str]:
    distance = truth.tv(values, true_density)
    bound = TV_FACTOR * truth.histogram_tv(true_density, model_weights)
    if not distance < bound:
        return [f"{name}: TV {distance:.4f} from the truth, bound {bound:.4f}"]
    return []


def check_draws(name: str, curves, draws: int) -> list[str]:
    if sorted(curves) != list(range(draws + 1)):
        return [f"{name}: draws {min(curves)}..{max(curves)} ({len(curves)}), expected 0..{draws}"]
    errors = []
    for draw, (values, valid) in curves.items():
        if np.any(np.isfinite(values) != valid) or np.any(values[valid] <= 0):
            errors.append(f"{name}: draw {draw} has a valid flag that disagrees with its value")
    return errors


def check_effect_product(de, ce, te) -> list[str]:
    """te = de * ce on every cell valid in all three curves, draw by draw."""
    errors = []
    for draw in te:
        (d, dv), (c, cv), (t, tv) = de[draw], ce[draw], te[draw]
        both = dv & cv & tv
        if not np.allclose(t[both], d[both] * c[both], rtol=PRODUCT_RTOL,
                           atol=np.finfo(float).tiny):
            worst = np.max(np.abs(t[both] - d[both] * c[both]) / np.abs(t[both]))
            errors.append(f"te != de*ce at draw {draw} (relative {worst:.3g})")
    return errors


def check_marginal(name: str, curves, f00, true_numerator, model_weights, draws) -> list[str]:
    """A marginal contribution: draws 0..B; ratio x f00 at draw 0 is a sub-density."""
    errors = check_draws(name, curves, draws)
    ratio, valid = curves[0]
    numerator = np.where(valid, ratio * f00, 0.0)
    mass = float(np.dot(numerator, truth.WIDTHS))
    if mass > 1.0 + INTEGRAL_TOL or (valid.all() and abs(mass - 1.0) > INTEGRAL_TOL):
        errors.append(f"{name}: ratio x f00 has mass {mass!r} on {valid.sum()} valid cells")
    errors += check_tv(f"{name} numerator", numerator, true_numerator, model_weights)
    return errors


def check_model_summary(path: Path) -> list[str]:
    fields = dict(
        line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines() if line
    )
    if fields.get("converged") != "True" or fields.get("coefficients") != str(N_COEFFICIENTS):
        return [f"{path.name}: converged={fields.get('converged')} "
                f"coefficients={fields.get('coefficients')}"]
    return []


def check_mixed(data_path: Path, fit_dir: Path | None, decompose_dir: Path | None,
                marginal_dir: Path | None, draws: int, marginal_covariates=()) -> list[str]:
    """All checks of fit, decompose and marginal outputs on a mixed-income dataset."""
    samples = {g: read_sample(data_path, g) for g in (truth.TREATED, truth.CONTROL)}
    weights = {g: s[2] for g, s in samples.items()}
    true_f = {
        f"f{k}{l}": truth.counterfactual_density(gk, *samples[gl])
        for k, gk in (("1", truth.TREATED), ("0", truth.CONTROL))
        for l, gl in (("1", truth.TREATED), ("0", truth.CONTROL))
    }
    model_group = {"1": truth.TREATED, "0": truth.CONTROL}
    errors: list[str] = []
    if fit_dir is not None:
        for label, target in (("treated", "f11"), ("control", "f00")):
            curves = read_curves(fit_dir / f"density_{label}.csv")
            errors += check_density(
                f"density_{label}", curves, true_f[target], weights[model_group[target[1]]]
            )
            errors += check_model_summary(fit_dir / f"model_{label}.txt")
    if decompose_dir is not None:
        for name, true_density in true_f.items():
            curves = read_curves(decompose_dir / f"{name}.csv")
            errors += check_density(name, curves, true_density, weights[model_group[name[1]]])
        effects = {k: read_curves(decompose_dir / f"{k}.csv") for k in ("de", "ce", "te")}
        draw_errors = [e for k, curves in effects.items() for e in check_draws(k, curves, draws)]
        errors += draw_errors or check_effect_product(effects["de"], effects["ce"], effects["te"])
    if marginal_dir is not None and decompose_dir is not None:
        f00 = read_curves(decompose_dir / "f00.csv")[0][0]
        for j in marginal_covariates:
            # ce_j: control law over control x_-j and treated x_j;
            # de_j: treated law over treated x_-j and control x_j
            for kind, model, rest, other in (
                ("ce", truth.CONTROL, truth.CONTROL, truth.TREATED),
                ("de", truth.TREATED, truth.TREATED, truth.CONTROL),
            ):
                true_num = truth.product_measure_density(model, samples[rest], samples[other], j)
                curves = read_curves(marginal_dir / f"{kind}_{j}.csv")
                errors += check_marginal(
                    f"{kind}_{j}", curves, f00, true_num, weights[model], draws
                )
    return errors


def check_mc_report(path: Path, seed: int, n_values, replications: int,
                    estimators) -> tuple[list[str], int]:
    """Checks of ``mc_report.csv``; also returns the excluded (estimator, replication) pairs."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    errors = []
    if f"# seed={seed} replications={replications}" not in comments:
        errors.append(f"mc_report: header {comments}")
    targets = ("f11", "f10", "f01", "f00", "cond1", "cond0")
    table = {(r["estimator"], int(r["n"]), r["target"]): r for r in rows}
    expected = {(e, n, t) for e in estimators for n in n_values for t in targets}
    if set(table) != expected or len(rows) != len(expected):
        return errors + ["mc_report: rows do not cover every (estimator, n, target)"], 0
    excluded = 0
    for (est, n, target), r in table.items():
        used, dropped = int(r["replications"]), int(r["excluded"])
        if used + dropped != replications:
            errors.append(f"mc_report: {est} n={n} {target}: {used} + {dropped} replications")
        if target == targets[0]:
            excluded += dropped
        if used and not 0.0 < float(r["mean_tv"]) < 1.0:
            errors.append(f"mc_report: {est} n={n} {target}: mean TV {r['mean_tv']}")
    lo, hi = min(n_values), max(n_values)
    for est in estimators:
        for target in targets:
            first, last = table[(est, lo, target)], table[(est, hi, target)]
            if int(first["replications"]) and int(last["replications"]) and not (
                float(last["mean_tv"]) < float(first["mean_tv"])
            ):
                errors.append(f"mc_report: {est} {target}: TV at n={hi} is not below n={lo}")
    return errors, excluded
