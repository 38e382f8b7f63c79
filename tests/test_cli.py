import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfdens.cli import _fit_groups, main
from cfdens.config import load_config, parse_config
from cfdens.dataio import (
    format_curve_table,
    load_dataset,
    read_curve_table,
    write_curve_table,
)
from cfdens.errors import ConfigError, DataError

from conftest import unit_grid

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "synthetic_mixed.csv"

SMALL_CONFIG = f"""
measure.interval = 10, 9990
measure.atoms = 0:1, 10000:1
measure.cap = 9990
measure.cap_atom = 10000
grid.bins = 20
basis.count = 8
basis.degree = 3
effect.edu = categorical(levels=low|mid|high, reference=low)
effect.age = smooth(count=6, degree=2)
penalty = 0
uncertainty.alpha = 0.05
uncertainty.draws = 3
uncertainty.seed = 42
data.path = {DATA}
data.outcome_column = income
data.group_column = group
data.treated_label = E
data.control_label = W
data.weight_column = weight
marginal.covariates = edu
simulate.n = 200
simulate.replications = 2
simulate.estimators = kde
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


# ------------------------------------------------------------------ config

def test_parse_config_values():
    cfg = parse_config(SMALL_CONFIG)
    assert cfg.measure.continuous_interval == (10.0, 9990.0)
    assert cfg.measure.atoms == ((0.0, 1.0), (10000.0, 1.0))
    assert cfg.cap == 9990.0 and cfg.cap_atom == 10000.0
    assert cfg.n_bins == 20
    # intercept is prepended automatically
    assert [e.kind for e in cfg.effects] == ["intercept", "categorical", "smooth"]
    assert cfg.effects[1].levels == ("low", "mid", "high")
    assert cfg.effects[2].knot_count == 6 and cfg.effects[2].degree == 2
    assert cfg.marginal_covariates == ["edu"]
    assert cfg.sim_n == [200] and cfg.sim_estimators == ["kde"]


def test_parse_config_defaults():
    cfg = parse_config("measure.interval = 0, 1")
    assert cfg.n_bins == 50 and cfg.basis_count == 12 and cfg.basis_degree == 3
    assert cfg.alpha == 0.05 and cfg.draws == 100
    assert cfg.sim_n == [500, 1000, 5000] and cfg.sim_replications == 200


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("measure.interval = 0, 1\nnot a key value line")
    with pytest.raises(ConfigError):
        parse_config("measure.interval = 0, 1\neffect.x = mystery(a=1)")
    with pytest.raises(ConfigError):
        parse_config("measure.interval = 0, 1\nuncertainty.alpha = 1.5")


def test_parse_config_rejects_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'uncertainty.draw'"):
        parse_config(SMALL_CONFIG + "uncertainty.draw = 5\n")


@pytest.mark.parametrize("line, key", [
    ("measure.interval = 10, 9990   # continuous support", "measure.interval"),
    ("measure.atoms = 0:1, 10000:x", "measure.atoms"),
    ("grid.bins = 2.5", "grid.bins"),
    ("uncertainty.alpha = five percent", "uncertainty.alpha"),
    ("simulate.n = 200, many", "simulate.n"),
    ("effect.age = smooth(count=six)", "effect.age count"),
])
def test_parse_config_names_the_key_of_an_unparseable_number(line, key):
    with pytest.raises(ConfigError, match=f"^{key}: cannot parse"):
        parse_config(SMALL_CONFIG + line + "\n")


def test_readme_config_example_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.measure.continuous_interval == (10.0, 9990.0)
    assert cfg.weight_column == "weight"
    assert cfg.marginal_covariates == ["edu", "age"]


def test_every_shipped_config_loads():
    paths = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("bench/configs/*.cfg"))
    assert len(paths) >= 5
    for path in paths:
        load_config(path)


def test_parse_config_rejects_a_nonzero_penalty():
    assert parse_config(SMALL_CONFIG).n_bins == 20  # "penalty = 0" still loads
    with pytest.raises(ConfigError, match="penalty"):
        parse_config(SMALL_CONFIG.replace("penalty = 0", "penalty = 2"))


# ------------------------------------------------------------------ dataio

def _write_csv(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


BASE_CFG = (
    "measure.interval = 0, 100\n"
    "measure.cap = 100\nmeasure.cap_atom = 200\nmeasure.atoms = 200:1\n"
    "effect.g = categorical(levels=u|v, reference=u)\n"
    "data.outcome_column = y\ndata.group_column = grp\n"
    "data.treated_label = E\ndata.control_label = W\n"
)


def test_load_dataset_splits_groups(tmp_path):
    cfg = parse_config(BASE_CFG)
    path = _write_csv(tmp_path, "grp,y,g\nE,10,u\nE,20,v\nW,30,u\n")
    treated, control = load_dataset(path, cfg)
    assert len(treated) == 2 and len(control) == 1
    assert treated.group == "E"
    # missing weight column means unit weights
    assert np.array_equal(treated.weights, [1.0, 1.0])


def test_load_dataset_caps_to_atom(tmp_path):
    cfg = parse_config(BASE_CFG)
    path = _write_csv(tmp_path, "grp,y,g\nE,150,u\nW,30,u\n")
    treated, _ = load_dataset(path, cfg)
    assert treated.outcomes[0] == 200.0


def test_load_dataset_unknown_group(tmp_path):
    cfg = parse_config(BASE_CFG)
    path = _write_csv(tmp_path, "grp,y,g\nE,10,u\nX,20,u\nW,5,u\n")
    with pytest.raises(DataError, match="row 3"):
        load_dataset(path, cfg)


def test_load_dataset_missing_column(tmp_path):
    cfg = parse_config(BASE_CFG)
    path = _write_csv(tmp_path, "grp,g\nE,u\n")
    with pytest.raises(DataError, match="missing columns"):
        load_dataset(path, cfg)


def test_load_dataset_unparseable_outcome(tmp_path):
    cfg = parse_config(BASE_CFG)
    path = _write_csv(tmp_path, "grp,y,g\nE,abc,u\nW,5,u\n")
    with pytest.raises(DataError, match="row 2"):
        load_dataset(path, cfg)


def test_curve_table_round_trip(tmp_path):
    grid = unit_grid(7)
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 2.0, 7)
    valid = np.array([True] * 6 + [False])
    shown = values.copy()
    shown[~valid] = np.nan
    path = tmp_path / "curve.csv"
    write_curve_table(path, grid, [(0, shown, valid)])
    points, draws = read_curve_table(path)
    got_values, got_valid = draws[0]
    assert np.array_equal(got_valid, valid)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(got_values[valid], values[valid])
    assert np.all(np.isnan(got_values[~valid]))
    assert points == [float("%.17g" % c) for c in grid.centers]


def test_curve_table_header_and_cell_types(mixed_grid):
    values = np.ones(mixed_grid.n_cells)
    text = format_curve_table(mixed_grid, [(0, values, values > 0)])
    lines = text.splitlines()
    assert lines[0] == "grid_point,cell_type,value,valid_flag,draw_index"
    assert lines[1].split(",")[1] == "bin"
    assert lines[-1].split(",")[1] == "atom"


# --------------------------------------------------------------------- CLI

def test_cli_fit_outputs(config_file, tmp_path):
    out = tmp_path / "fit_out"
    assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
    for name in ("density_treated.csv", "density_control.csv",
                 "model_treated.txt", "model_control.txt", "manifest.txt"):
        assert (out / name).exists(), name
    points, draws = read_curve_table(out / "density_treated.csv")
    values, valid = draws[0]
    assert len(values) == 22  # 20 bins + 2 atoms
    assert np.all(valid)
    manifest = (out / "manifest.txt").read_text()
    assert "command = fit" in manifest and "seed = 42" in manifest


def test_cli_decompose_outputs_and_determinism(config_file, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["decompose", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["decompose", "--config", str(config_file), "--out", str(out2)]) == 0
    for name in ("f11", "f10", "f01", "f00", "de", "ce", "te"):
        assert (out1 / f"{name}.csv").exists()
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
    assert (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()
    _, draws = read_curve_table(out1 / "de.csv")
    assert sorted(draws) == [0, 1, 2, 3]  # point estimate plus 3 draws


def test_cli_decompose_seed_changes_draws(config_file, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["decompose", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["decompose", "--config", str(config_file), "--out", str(out2),
                 "--seed", "43"]) == 0
    _, d1 = read_curve_table(out1 / "de.csv")
    _, d2 = read_curve_table(out2 / "de.csv")
    # same point estimate, different draws
    assert np.array_equal(d1[0][0], d2[0][0], equal_nan=True)
    assert not np.array_equal(d1[1][0], d2[1][0], equal_nan=True)


def test_cli_marginal_outputs(config_file, tmp_path):
    out = tmp_path / "m"
    assert main(["marginal", "--config", str(config_file), "--out", str(out)]) == 0
    for name in ("ce_edu.csv", "de_edu.csv"):
        assert (out / name).exists()
    _, draws = read_curve_table(out / "ce_edu.csv")
    assert sorted(draws) == [0, 1, 2, 3]


def test_cli_simulate_outputs_and_determinism(config_file, tmp_path):
    out1, out2 = tmp_path / "sim1", tmp_path / "sim2"
    assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
    assert (out1 / "mc_report.csv").read_bytes() == (out2 / "mc_report.csv").read_bytes()
    text = (out1 / "mc_report.csv").read_text()
    assert "estimator,n,target,mean_tv" in text
    assert "kde,200,f11" in text


# ------------------------------------------------ invariances of the CLI fit

def _cli_thetas(tmp_path, edit_rows=None, edit_config=None):
    """theta-hat of both CLI fits on a copy of the bundled data, edited."""
    with open(DATA, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if edit_rows:
        rows = edit_rows(rows)
    data = tmp_path / "data.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    text = (ROOT / "configs" / "synthetic_mixed.cfg").read_text(encoding="utf-8")
    text = text.replace("data.path = data/synthetic_mixed.csv", f"data.path = {data}")
    if edit_config:
        text = edit_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    models, _, _ = _fit_groups(load_config(cfg))
    return np.concatenate([models["treated"].theta, models["control"].theta])


@pytest.fixture(scope="module")
def bundled_thetas(tmp_path_factory):
    return _cli_thetas(tmp_path_factory.mktemp("bundled"))


def test_cli_fit_invariant_to_weight_scale(bundled_thetas, tmp_path):
    def rescale(rows):
        return [{**r, "weight": repr(float(r["weight"]) * 3.7)} for r in rows]

    theta = _cli_thetas(tmp_path, edit_rows=rescale)
    assert np.max(np.abs(theta - bundled_thetas)) <= 1e-8


def test_cli_fit_invariant_to_row_permutation(bundled_thetas, tmp_path):
    def permute(rows):
        return [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]

    theta = _cli_thetas(tmp_path, edit_rows=permute)
    assert np.max(np.abs(theta - bundled_thetas)) <= 1e-8


def test_cli_fit_invariant_to_relabeled_levels(bundled_thetas, tmp_path):
    # the new labels sort in another order than the old ones
    labels = {"low": "c", "mid": "a", "high": "b"}

    def relabel(rows):
        return [{**r, "edu": labels[r["edu"]]} for r in rows]

    def remap(text):
        return text.replace("levels=low|mid|high, reference=low", "levels=c|a|b, reference=c")

    theta = _cli_thetas(tmp_path, edit_rows=relabel, edit_config=remap)
    assert np.max(np.abs(theta - bundled_thetas)) <= 1e-8


def test_cli_missing_config_fails_cleanly(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "nope.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cfdens: error:")
    assert "\n" == err[err.index("\n"):]  # single diagnostic line


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    submodules = ["scipy.interpolate", "scipy.linalg", "scipy.special", "scipy.stats",
                  "scipy.sparse"]
    code = (
        "import sys, numpy as np, cfdens.cli\n"
        f"submodules = {submodules!r}\n"
        "print('scipy.stats' in sys.modules)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
        "from cfdens import (DgpSpec, GridSpec, ObservationTable, PartialEffectSpec,\n"
        "    ReferenceMeasure, build_covariate_basis, build_outcome_basis, fit_table,\n"
        "    sample_theta, true_counterfactual)\n"
        "measure = ReferenceMeasure(continuous_interval=(0.0, 1.0))\n"
        "grid = GridSpec.from_measure(measure, 10)\n"
        "basis = build_outcome_basis(measure, grid, spline_count=5, degree=2)\n"
        "intercept = [build_covariate_basis(PartialEffectSpec.intercept(), [None])]\n"
        "data = ObservationTable(np.linspace(0.05, 0.95, 40), {}, None)\n"
        "sample_theta(fit_table(data, intercept, basis), 0.05, 3, 0)\n"
        "print('scipy.stats' in sys.modules)\n"
        "true_counterfactual(DgpSpec(), 1, 0, grid)\n"
        "print([m for m in submodules if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["False", "[]", "False", "[]"]


def test_categorical_levels_are_checked_without_numpy_ma():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, numpy as np, cfdens.cli\n"
        "from cfdens.basis import PartialEffectSpec, build_covariate_basis, covariate_matrix\n"
        "spec = PartialEffectSpec.categorical('edu', ['low', 'mid', 'high'], 'low')\n"
        "basis = build_covariate_basis(spec, np.array(['low', 'mid', 'high', 'mid']))\n"
        "covariate_matrix([basis], {'edu': np.array(['high', 'low'])}, 2)\n"
        "print('numpy.ma' in sys.modules)\n"
        "from cfdens.measure_grid import GridSpec, ReferenceMeasure\n"
        "from cfdens.sim_benchmark import DgpSpec, kde_conditional, silverman_bandwidth, simulate\n"
        "silverman_bandwidth(np.linspace(0.0, 1.0, 9))\n"
        "grid = GridSpec.from_measure(ReferenceMeasure(continuous_interval=(0.0, 1.0)), 10)\n"
        "kde_conditional(simulate(DgpSpec(), 1, 200, seed=0), grid)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["False", "False"]
