import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfdens import counterfactual
from cfdens.cli import _fit_groups, main
from cfdens.config import FIELDS, OTHER_KEYS, RunConfig, load_config, parse_config
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

def test_parse_config_values(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    # a UTF-8 file with a byte-order mark loads to the same config
    bom = tmp_path / "bom.cfg"
    bom.write_text(SMALL_CONFIG, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf") and load_config(bom) == cfg
    assert cfg.measure.continuous_interval == (10.0, 9990.0)
    assert cfg.measure.atoms == ((0.0, 1.0), (10000.0, 1.0))
    assert cfg.cap == 9990.0 and cfg.cap_atom == 10000.0
    assert cfg.n_bins == 20
    # intercept is prepended automatically
    assert [e.kind for e in cfg.effects] == ["intercept", "categorical", "smooth"]
    assert cfg.effects[1].levels == ("low", "mid", "high")
    # levels are stripped, as every other value is
    spaced = SMALL_CONFIG.replace("levels=low|mid|high", "levels=low | mid | high")
    assert spaced != SMALL_CONFIG
    assert parse_config(spaced).effects[1].levels == ("low", "mid", "high")
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
    # a band at a level below 50 % is not a confidence band
    with pytest.raises(ConfigError, match=r"^uncertainty.alpha must be in \(0, 0.5\], got 0.6$"):
        parse_config("measure.interval = 0, 1\nuncertainty.alpha = 0.6")
    assert parse_config("measure.interval = 0, 1\nuncertainty.alpha = 0.5").alpha == 0.5
    with pytest.raises(ConfigError, match="^line 2: effect key needs a covariate name$"):
        parse_config("measure.interval = 0, 1\neffect. = categorical(levels=a|b, reference=a)")
    # bins and splines cover an interval; atoms alone, or no measure, need neither
    assert parse_config("measure.atoms = 0:1, 1:1\ngrid.bins = 0\nbasis.count = 1").n_bins == 0
    assert RunConfig(n_bins=0, basis_count=1).measure is None


def test_parse_config_rejects_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'uncertainty.draw'"):
        parse_config(SMALL_CONFIG + "uncertainty.draw = 5\n")


@pytest.mark.parametrize("line, key", [
    ("measure.interval = 10, 9990   # continuous support", "measure.interval"),
    ("measure.atoms = 0:1, 10000:x", "measure.atoms"),
    ("grid.bins = 2.5", "grid.bins"),
    ("grid.bins = 30.0", "grid.bins"),
    ("uncertainty.alpha = five percent", "uncertainty.alpha"),
    ("simulate.n = 200, many", "simulate.n"),
    ("effect.age = smooth(count=six)", "effect.age count"),
])
def test_parse_config_names_the_key_of_an_unparseable_number(line, key):
    # the line replaces the one that sets the same key
    name = line.split("=", 1)[0]
    text = "\n".join(line if old.startswith(name) else old for old in SMALL_CONFIG.split("\n"))
    # a key of integers says so
    what = "an integer" if key in ("grid.bins", "simulate.n", "effect.age count") else "a number"
    with pytest.raises(ConfigError, match=f"^{key}: cannot parse '[^']*' as {what}$"):
        parse_config(text)


def test_parse_config_rejects_a_duplicate_key():
    # SMALL_CONFIG opens with an empty line and sets grid.bins on line 6
    with pytest.raises(ConfigError, match="^line 25: key 'grid.bins' already set on line 6$"):
        parse_config(SMALL_CONFIG + "grid.bins = 30\n")


def test_readme_config_example_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.measure.continuous_interval == (10.0, 9990.0)
    assert cfg.weight_column == "weight"
    assert cfg.marginal_covariates == ["edu", "age"]


def test_readme_names_every_config_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [key for key in [*FIELDS, *OTHER_KEYS]
               if not re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", readme)]
    assert missing == []


def test_every_shipped_config_loads():
    paths = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("bench/configs/*.cfg"))
    assert len(paths) >= 5
    for path in paths:
        load_config(path)


def test_the_full_study_config_sets_the_whole_ladder():
    cfg = load_config(ROOT / "configs" / "simulation_full.cfg")
    assert cfg.sim_n == [500, 1000, 5000, 10_000, 20_000, 100_000]
    assert cfg.sim_replications == 1000


@pytest.mark.parametrize("drop", ["measure.cap_atom", "measure.cap "],
                         ids=["no-cap-atom", "no-cap"])
def test_parse_config_needs_the_cap_and_its_atom_together(drop):
    text = "\n".join(line for line in SMALL_CONFIG.split("\n") if not line.startswith(drop))
    with pytest.raises(ConfigError, match="^measure.cap and measure.cap_atom must be set together$"):
        parse_config(text)


def test_parse_config_rejects_a_cap_atom_that_is_not_an_atom():
    text = SMALL_CONFIG.replace("measure.cap_atom = 10000", "measure.cap_atom = 5000")
    with pytest.raises(ConfigError, match="^measure.cap_atom = 5000 is not in measure.atoms$"):
        parse_config(text)


@pytest.mark.parametrize("names, message", [
    ("edu, edu", "^marginal.covariates lists 'edu' twice$"),
    ("age, edu, age", "^marginal.covariates lists 'age' twice$"),
    ("wage", "^marginal.covariates: no key effect.wage$"),
    ("edu, (intercept)", r"^marginal.covariates: no key effect.\(intercept\)$"),
], ids=["twice", "twice-apart", "no-effect", "intercept"])
def test_parse_config_rejects_a_marginal_covariate_that_is_repeated_or_not_an_effect(
        names, message):
    text = SMALL_CONFIG.replace("marginal.covariates = edu", f"marginal.covariates = {names}")
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize("line, message", [
    ("simulate.estimators = bayes, bayes", "^simulate.estimators lists 'bayes' twice$"),
    ("simulate.estimators = kde, bayes, kde", "^simulate.estimators lists 'kde' twice$"),
    ("simulate.estimators = kdee",
     r"^simulate.estimators: unknown estimator 'kdee' \(one of bayes, kde\)$"),
    ("simulate.n = 200, 200", "^simulate.n lists 200 twice$"),
    ("simulate.n = 100, 0", "^simulate.n: 0 is not positive$"),
    ("simulate.n = -5", "^simulate.n: -5 is not positive$"),
    # any key's line can stand in for the one that sets it
    ("effect.age = smooth(cout=5, degre=1)", "^effect 'age': smooth has no argument 'cout'$"),
    ("effect.edu = categorical(levels=low|mid|high, ref=low)",
     "^effect 'edu': categorical has no argument 'ref'$"),
    ("effect.age = smooth(count=9, count=5)", "^effect 'age': argument 'count' given twice$"),
    ("effect.edu = categorical(levels=low|mid|high|high, reference=low)",
     "^categorical 'edu' lists 'high' twice$"),
    ("effect.edu = categorical(levels=low||high, reference=low)",
     "^categorical 'edu' lists an empty level$"),
    ("measure.atoms = 0:1:7, 10000:1", "^measure.atoms: '0:1:7' is not location:weight$"),
    ("uncertainty.seed = -1", "^uncertainty.seed must be >= 0, got -1$"),
    ("uncertainty.draws = -1", "^uncertainty.draws must be >= 0, got -1$"),
    ("simulate.replications = 0", "^simulate.replications must be >= 1, got 0$"),
    ("simulate.estimators = ", "^simulate.estimators lists no estimator$"),
    ("effect.age = smooth(count=3, degree=3)",
     r"^smooth 'age' needs count >= degree \+ 1, got count=3, degree=3$"),
    ("effect.age = smooth(count=9, degree=0)",
     "^smooth 'age' needs degree >= 1, got count=9, degree=0$"),
    ("grid.bins = 0", "^grid.bins must be >= 1, got 0$"),
    ("grid.bins = -2", "^grid.bins must be >= 1, got -2$"),
    ("basis.count = 3", r"^basis.count must be >= 3 and > basis.degree, got count=3, degree=3$"),
    ("basis.count = 2\nbasis.degree = 1",
     r"^basis.count must be >= 3 and > basis.degree, got count=2, degree=1$"),
    ("basis.count = 1\nbasis.degree = 0",
     r"^basis.count must be >= 3 and > basis.degree, got count=1, degree=0$"),
], ids=["estimator-twice", "estimator-twice-apart", "unknown-estimator", "n-twice", "n-zero",
        "n-negative", "effect-unknown-argument", "effect-unknown-categorical-argument",
        "effect-argument-twice", "level-twice", "level-empty", "atom-two-colons",
        "seed-negative", "draws-negative", "replications-zero", "no-estimator",
        "smooth-count-too-small", "smooth-degree-zero", "bins-zero", "bins-negative",
        "basis-count-not-above-degree", "basis-count-two", "basis-count-one"])
def test_parse_config_rejects_a_repeated_or_invalid_simulate_item(line, message):
    # each line of the row stands in for the line that sets its key
    new = {l.split(" = ")[0]: l for l in line.split("\n")}
    text = "\n".join(new.get(l.split(" = ")[0], l) for l in SMALL_CONFIG.splitlines())
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_parse_config_rejects_equal_group_labels():
    text = SMALL_CONFIG.replace("data.control_label = W", "data.control_label = E")
    with pytest.raises(ConfigError,
                       match="^data.treated_label and data.control_label are both 'E'$"):
        parse_config(text)


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


MALFORMED_CFG = BASE_CFG + "effect.a = smooth(count=5, degree=2)\ndata.weight_column = w\n"
TREATED_ROW = {"grp": "E", "y": "10", "g": "u", "a": "30", "w": "1.5"}
CONTROL_ROW = {"grp": "W", "y": "30", "g": "v", "a": "40", "w": "0.5"}


def _csv_text(header, *rows):
    """The CSV of ``header`` and rows, each a line or a dict laid out in the header's order."""
    lines = [row if isinstance(row, str) else ",".join(row[n] for n in header.split(","))
             for row in rows]
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize("header, row, fields", [
    ("grp,y,g,a,w", "E,20,v,1.0", 4),  # a covariate short
    ("grp,g,a,w,y", "E,v,41,1.0", 4),  # no outcome
    ("grp,g,a,y,w", "E,v,41,20", 4),  # no weight
    ("grp,y,g,a,w", "E,20,v,41,1.0,7", 6),  # an extra field
], ids=["short-covariate", "no-outcome", "no-weight", "extra-field"])
def test_load_dataset_names_a_row_with_another_field_count(tmp_path, header, row, fields):
    path = _write_csv(tmp_path, _csv_text(header, TREATED_ROW, row, CONTROL_ROW))
    with pytest.raises(DataError, match=f"^row 3: {fields} fields, the header has 5$"):
        load_dataset(path, parse_config(MALFORMED_CFG))


def test_load_dataset_names_the_row_and_column_of_an_unparseable_smooth_covariate(tmp_path):
    text = _csv_text("grp,y,g,a,w", TREATED_ROW, {**TREATED_ROW, "a": "n/a"}, CONTROL_ROW)
    with pytest.raises(DataError, match="^row 3: cannot parse 'n/a' in column 'a' as a number$"):
        load_dataset(_write_csv(tmp_path, text), parse_config(MALFORMED_CFG))


@pytest.mark.parametrize("column", ["y", "w", "a"])
@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_load_dataset_names_the_row_and_column_of_a_non_finite_number(tmp_path, column, text):
    rows = (TREATED_ROW, {**TREATED_ROW, column: text}, CONTROL_ROW)
    with pytest.raises(DataError, match=f"^row 3: '{text}' in column '{column}' is not a "
                                        "finite number$"):
        load_dataset(_write_csv(tmp_path, _csv_text("grp,y,g,a,w", *rows)),
                     parse_config(MALFORMED_CFG))


def test_load_dataset_names_the_row_of_an_outcome_outside_the_measure(tmp_path):
    def load(outcome):
        rows = (TREATED_ROW, {**TREATED_ROW, "y": outcome}, CONTROL_ROW)
        return load_dataset(_write_csv(tmp_path, _csv_text("grp,y,g,a,w", *rows)),
                            parse_config(MALFORMED_CFG))

    with pytest.raises(DataError, match=r"^row 3: outcome -5.0 outside the interval "
                                        r"\[0.0, 100.0\]$"):
        load("-5")
    assert load("0")[0].outcomes[1] == 0.0  # the interval is closed


def test_load_dataset_names_the_row_and_column_of_a_non_positive_weight(tmp_path):
    lines = DATA.read_text(encoding="utf-8").splitlines()
    for k, weight in ((5, "0"), (7, "-2")):  # rows 6 and 8; the header is row 1
        lines[k] = lines[k].rsplit(",", 1)[0] + "," + weight
    path = _write_csv(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DataError, match="^row 6: weight '0' in column 'weight' is not positive$"):
        load_dataset(path, load_config(ROOT / "configs" / "synthetic_mixed.cfg"))


def test_load_dataset_skips_blank_lines(tmp_path):
    text = _csv_text("grp,y,g,a,w", TREATED_ROW, "", CONTROL_ROW, "")
    treated, control = load_dataset(_write_csv(tmp_path, text), parse_config(MALFORMED_CFG))
    assert len(treated) == len(control) == 1


def test_load_dataset_matches_a_dict_reader_reference(tmp_path):
    config = load_config(ROOT / "configs" / "synthetic_mixed.cfg")
    with open(DATA, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    tables = load_dataset(DATA, config)
    for table, label in zip(tables, (config.treated_label, config.control_label)):
        group = [r for r in rows if r["group"] == label]
        incomes = [float(r["income"]) for r in group]
        assert table.group == label
        assert np.array_equal(table.outcomes,
                              [config.cap_atom if y > config.cap else y for y in incomes])
        assert np.array_equal(table.weights, [float(r["weight"]) for r in group])
        assert table.covariates["age"].dtype == np.float64
        assert np.array_equal(table.covariates["age"], [float(r["age"]) for r in group])
        assert table.covariates["edu"].dtype.kind == "U"
        assert table.covariates["edu"].tolist() == [r["edu"] for r in group]
    assert sum(map(len, tables)) == len(rows)
    # a byte-order mark, as in Excel's "CSV UTF-8", leaves the header and the tables as they are
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + DATA.read_bytes())
    for table, copy in zip(tables, load_dataset(bom, config)):
        assert table.group == copy.group
        for name in ("outcomes", "weights"):
            assert np.array_equal(getattr(table, name), getattr(copy, name))
        assert table.covariates.keys() == copy.covariates.keys()
        for name, values in table.covariates.items():
            assert np.array_equal(values, copy.covariates[name])


def _flags(path):
    return [line.split(",")[3] for line in path.read_text().splitlines()[1:]]


def test_curve_table_round_trip(tmp_path):
    # row d of the array is draw d of the table, flagged valid exactly where finite
    grid = unit_grid(7)
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 2.0, (3, 7))
    valid = np.ones((3, 7), dtype=bool)
    valid[0, 6] = valid[1, 2] = False
    path = tmp_path / "curve.csv"
    write_curve_table(path, grid, np.where(valid, values, np.nan))
    assert _flags(path) == [str(int(ok)) for ok in valid.ravel()]
    points, draws = read_curve_table(path)
    assert sorted(draws) == [0, 1, 2]
    for d, (got_values, got_valid) in draws.items():
        assert np.array_equal(got_valid, valid[d])
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(got_values[valid[d]], values[d, valid[d]])
        assert np.all(np.isnan(got_values[~valid[d]]))
    assert points == [float("%.17g" % c) for c in grid.centers]
    # a density row, zero cells included, is valid on every cell
    write_curve_table(path, grid, np.array([[0.0, 0.5, 1.0, 2.0, 2.5, 1.0, 0.0]]))
    assert _flags(path) == ["1"] * 7


def test_curve_table_header_and_cell_types(mixed_grid):
    values = np.ones(mixed_grid.n_cells)
    text = format_curve_table(mixed_grid, values[None])
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


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls, original = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("command, set_ups", [("decompose", 4), ("marginal", 9)])
def test_a_command_draws_once_per_group_and_sets_up_each_average_once(
        monkeypatch, tmp_path, command, set_ups):
    # decompose: f11, f10, f01, f00; marginal: f00 and, for each of edu and age,
    # the x_{-j} and x_j sides of the two product-measure numerators
    text = (ROOT / "configs" / "synthetic_mixed.cfg").read_text(encoding="utf-8")
    text = text.replace("data.path = data/synthetic_mixed.csv", f"data.path = {DATA}")
    text = text.replace("uncertainty.draws = 100", "uncertainty.draws = 3")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    draws = _spy(monkeypatch, counterfactual, "sample_theta")
    matrices = _spy(monkeypatch, counterfactual, "covariate_matrix")
    seed = 7
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", str(seed)]) == 0
    assert sorted(kwargs["seed"] for _, kwargs in draws) == [seed * 2 + 1, seed * 2 + 2]
    assert len({id(args[0]) for args, _ in draws}) == 2
    keys = [(tuple(map(id, bases)), tuple((n, c.tobytes()) for n, c in sorted(columns.items())))
            for (bases, columns, _), _ in matrices]
    assert len(keys) == set_ups and len(set(keys)) == set_ups


def test_cli_simulate_outputs_and_determinism(config_file, tmp_path):
    out1, out2 = tmp_path / "sim1", tmp_path / "sim2"
    assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
    assert (out1 / "mc_report.csv").read_bytes() == (out2 / "mc_report.csv").read_bytes()
    text = (out1 / "mc_report.csv").read_text()
    assert "estimator,n,target,mean_tv" in text
    assert "kde,200,f11" in text
    # the config alone sets the study's size, so the manifest records it
    assert "\nsimulate.n = 200\n" in (out1 / "manifest.txt").read_text()


def test_cli_simulate_has_no_full_scale_flag(config_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config_file), "--out", str(tmp_path), "--full-scale"])
    assert exc.value.code == 2


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


def test_cli_fit_invariant_to_the_spelling_of_a_smooth_covariate(tmp_path):
    def run(edit_rows=None):
        with open(DATA, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        out = tmp_path / ("edited" if edit_rows else "bundled")
        out.mkdir()
        data = out / "data.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(edit_rows(rows) if edit_rows else rows)
        text = (ROOT / "configs" / "synthetic_mixed.cfg").read_text(encoding="utf-8")
        cfg = out / "run.cfg"
        cfg.write_text(text.replace("data.path = data/synthetic_mixed.csv", f"data.path = {data}"),
                       encoding="utf-8")
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        return [(out / f"model_{label}.txt").read_bytes() for label in ("treated", "control")]

    def respell(rows):
        # the same numbers written with a leading " " or "+" on alternate rows
        return [{**r, "age": ("", " ", "", "+")[i % 4] + r["age"]} for i, r in enumerate(rows)]

    assert run(respell) == run()


def test_cli_missing_config_fails_cleanly(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "nope.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cfdens: error:")
    assert "\n" == err[err.index("\n"):]  # single diagnostic line


@pytest.mark.parametrize("command", ["fit", "decompose", "simulate"])
def test_cli_negative_seed_fails_before_any_output(config_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(config_file), "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "cfdens: error: --seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("basis.degree = -2", "outcome basis degree must be >= 0, got -2"),
    ("measure.atoms = 0:nan, 10000:1", "atom weight at 0.0 must be finite and positive, got nan"),
    ("measure.atoms = nan:1, 10000:1", "atom location must be finite, got nan"),
    ("measure.interval = 10, inf", "interval bounds must be finite with a < b, got (10.0, inf)"),
    ("grid.bins = 0", "grid.bins must be >= 1, got 0"),
], ids=["degree-negative", "atom-weight-nan", "atom-location-nan", "interval-inf", "bins-zero"])
def test_cli_negative_degree_or_non_finite_measure_fails_before_fitting(tmp_path, capsys,
                                                                          line, message):
    key = line.split(" = ")[0]
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(line if l.startswith(key + " =") else l
                                for l in SMALL_CONFIG.splitlines()), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"cfdens: error: {message}\n"
    assert not (out / "model_treated.txt").exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    submodules = ["scipy.interpolate", "scipy.linalg", "scipy.special", "scipy.stats",
                  "scipy.sparse"]
    code = (
        "import sys, numpy as np, cfdens.cli\n"
        f"submodules = {submodules!r}\n"
        "print('scipy' in sys.modules)\n"
        "print('scipy.stats' in sys.modules)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
        "from cfdens import (DgpSpec, GridSpec, ObservationTable, PartialEffectSpec,\n"
        "    ReferenceMeasure, bin_and_pool, build_covariate_basis, build_outcome_basis, fit,\n"
        "    sample_theta, true_counterfactual)\n"
        "measure = ReferenceMeasure(continuous_interval=(0.0, 1.0))\n"
        "grid = GridSpec.from_measure(measure, 10)\n"
        "basis = build_outcome_basis(measure, grid, spline_count=5, degree=2)\n"
        "intercept = [build_covariate_basis(PartialEffectSpec.intercept(), [None])]\n"
        "data = ObservationTable(np.linspace(0.05, 0.95, 40), {}, None)\n"
        "sample_theta(fit(bin_and_pool(data, grid), intercept, basis), 0.05, 3, 0)\n"
        "print('scipy.stats' in sys.modules)\n"
        "true_counterfactual(DgpSpec(), 1, 0, grid)\n"
        "print([m for m in submodules if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["False", "False", "[]", "False", "[]"]


def test_the_per_row_reference_path_is_not_in_the_package():
    # the per-row oracles and test-only helpers live in tests/reference.py
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import cfdens, cfdens.cli\n"
        "from cfdens import basis, density_regression\n"
        "owners = {\n"
        "    'cfdens': (cfdens, ('design_row', 'covariate_row', 'predict_density',\n"
        "        'class_probabilities', 'multinomial_loglik', 'bayes_loglik', 'fit_table')),\n"
        "    'basis': (basis, ('design_row', 'covariate_row')),\n"
        "    'density_regression': (density_regression, ('design_row', 'predict_density',\n"
        "        'class_probabilities', 'multinomial_loglik', 'bayes_loglik', 'fit_table',\n"
        "        'density_from_clr_values')),\n"
        "    'PooledHistogram': (density_regression.PooledHistogram, ('combinations',)),\n"
        "    'CovariateSample': (cfdens.CovariateSample, ('row',)),\n"
        "}\n"
        "for owner, (obj, names) in owners.items():\n"
        "    print(owner, [n for n in names if hasattr(obj, n)])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == [
        "cfdens []", "basis []", "density_regression []", "PooledHistogram []",
        "CovariateSample []",
    ]


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    text = (ROOT / "configs" / "synthetic_mixed.cfg").read_text(encoding="utf-8")
    text = text.replace("data.path = data/synthetic_mixed.csv", f"data.path = {DATA}")
    text = text.replace("uncertainty.draws = 100", "uncertainty.draws = 2")
    # one replication runs in this process, not in a worker
    text += "simulate.n = 200\nsimulate.replications = 1\nsimulate.estimators = bayes, kde\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = ["fit", "decompose", "marginal", "simulate"]
    code = (
        "import sys\n"
        "from cfdens.cli import main\n"
        f"for command in {commands!r}:\n"
        f"    args = [command, '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        "    assert main(args) == 0, command\n"
        "    print(command, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == [f"{command} False" for command in commands]


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
