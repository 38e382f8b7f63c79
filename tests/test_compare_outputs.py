"""``scripts/compare_outputs.py``: byte equality per file, and how differing files differ.

Also ``scripts/make_outputs.py``, which writes the run directories that it compares.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs, make_outputs = _script("compare_outputs"), _script("make_outputs")

CURVE = ("grid_point,cell_type,value,valid_flag,draw_index\n"
         "0.25,bin,1.5,1,0\n0.75,bin,0.5,1,0\n")


def _write(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_identical_directories_exit_zero(tmp_path, capsys):
    files = {"f11.csv": CURVE, "fit/model_treated.txt": "iterations = 3\ntheta = 1,2\n"}
    a, b = _write(tmp_path / "a", files), _write(tmp_path / "b", files)
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["same     f11.csv",
                                                       "same     fit/model_treated.txt"]


def test_the_last_line_totals_files_gaps_and_flags(tmp_path, capsys):
    a = _write(tmp_path / "a", {"de.csv": CURVE, "ce.csv": CURVE, "te.csv": CURVE,
                                "model.txt": "theta = 1,2\n", "old.csv": ""})
    b = _write(tmp_path / "b", {
        "de.csv": CURVE.replace("1.5,1,0", "1.5,0,0").replace("0.5,1,0", "0.5,0,0"),
        "ce.csv": CURVE.replace("0.5,1,0", "0.5000001,0,0"),
        "te.csv": CURVE,
        "model.txt": "theta = 1,2.5\n",
    })
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "total    5 files, 4 differ, max rel gap 0.2, valid_flag changed in 3 rows")
    assert compare_outputs.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "total    5 files, 0 differ, max rel gap 0, valid_flag changed in 0 rows")


def test_differing_files_report_gap_flags_rows_and_missing_files(tmp_path, capsys):
    a = _write(tmp_path / "a", {"f11.csv": CURVE, "model.txt": "theta = 1,2\n", "old.csv": ""})
    b = _write(tmp_path / "b", {
        "f11.csv": CURVE.replace("1.5,1,0", "1.5000000000000002,0,0") + "1.0,atom,0,1,0\n",
        "model.txt": "theta = 1,2.5\n",
    })
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("differs  f11.csv: rows 3/4, max rel gap 1.48e-16, "
                      "valid_flag changed in 1 rows, 0 text fields differ")
    assert out[1] == ("differs  model.txt: rows 1/1, max rel gap 0.2, "
                      "valid_flag changed in 0 rows, 0 text fields differ")
    assert out[2] == f"only in {a}: old.csv"


FIT = ["density_control.csv", "density_treated.csv", "manifest.txt", "model_control.txt",
       "model_treated.txt"]
DECOMPOSE = ["ce.csv", "de.csv", "f00.csv", "f01.csv", "f10.csv", "f11.csv", "manifest.txt",
             "te.csv"]
MARGINAL = ["ce_age.csv", "ce_edu.csv", "de_age.csv", "de_edu.csv", "manifest.txt"]


def test_make_outputs_writes_one_directory_per_config_and_command(tmp_path):
    out = tmp_path / "out"
    assert make_outputs.main([str(out)]) == 0
    expected = {"mc_simulate": ["manifest.txt", "mc_report.csv"]}
    for config in ("bundled", "synthetic_mixed", "continuous"):
        expected |= {f"{config}_fit": FIT, f"{config}_decompose": DECOMPOSE}
    for config in ("bundled", "synthetic_mixed"):
        expected[f"{config}_marginal"] = MARGINAL
    assert {d.name: sorted(p.name for p in d.iterdir()) for d in out.iterdir()} == expected
    # the manifests do not depend on where the outputs go
    manifest = (out / "continuous_fit" / "manifest.txt").read_text(encoding="utf-8")
    assert "\ndata.path = .bench_run/continuous.csv\n" in manifest
    assert (out / "mc_simulate" / "manifest.txt").read_text(encoding="utf-8").startswith(
        "command = simulate\nseed = 1\n")


def test_make_outputs_names_the_first_command_that_fails(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(make_outputs, "RUNS", [("configs/missing.cfg", ("fit", "decompose"), ())])
    assert make_outputs.main([str(tmp_path / "out")]) == 1
    last = capfd.readouterr().err.splitlines()[-1]
    assert last.startswith("make_outputs: command failed: ")
    assert last.endswith(f"-m cfdens.cli fit --config {ROOT / 'configs' / 'missing.cfg'} "
                         f"--out {tmp_path / 'out' / 'missing_fit'}")
