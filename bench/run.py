"""Benchmark of the ``cfdens`` command line, end to end or traced layer by layer.

    python3 bench/run.py --workload bundled-bands --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each command runs as its own
process, one at a time, on the sources under ``src/``.  With ``--trace 0`` the
run times a fresh ``import cfdens.cli`` five times (``setup_s``) and then
repeats rounds of the workload's commands while the next round is expected
to end within ``--seconds``; it reports the median round (``commands_s``) and
the highest peak RSS of any command process.  With ``--trace 1`` it runs one
round as is and one round under ``trace_cli.py`` and reports per-layer self
times, call counts and counters, and the tracing overhead.  Every round's
outputs are checked; see ``README.md``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import make_data

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_run"
SETUP_SAMPLES = 5
#: BLAS threads of every command process: never more than the cores, and the
#: continuous fit is no faster with two (12.8 s against 12.3 s with one)
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    config: str
    commands: tuple[str, ...]
    rows_per_group: int = 0  # > 0: data generated by make_data.py


WORKLOADS = {
    "bundled-bands": Workload("bench/configs/bundled.cfg", ("fit", "decompose", "marginal")),
    "continuous-fit": Workload("bench/configs/continuous.cfg", ("fit", "decompose"), 2000),
    "mc-ingest": Workload("bench/configs/mc.cfg", ("simulate",)),
}
#: seed of the generated data, written to the config's data.path.  The run's
#: --seed sets the band draws, as on the bundled data: the Newton iteration
#: count of a fit varies from 27 to 42 between datasets of this size, which
#: would spread fit times by 20 %.
DATA_SEED = 1

#: per-layer self times: (metric, the spans whose self times are summed)
SELF_TIMES = [
    ("basis.design_row_s", ("basis.design_row",)),
    ("basis.covariate_row_s", ("basis.covariate_row",)),
    ("basis.build_covariate_basis_s", ("basis.build_covariate_basis",)),
    ("density_regression.predict_density_s", ("density_regression.predict_density",)),
    ("density_regression.fit_s", ("density_regression.fit",)),
    ("density_regression.fit_smoothed_s", ("density_regression.fit_smoothed",)),
    ("density_regression.bin_and_pool_s", ("density_regression.bin_and_pool",)),
    ("density_regression.sample_theta_s", ("density_regression.sample_theta",)),
    ("measure_grid.density_from_clr_values_s", ("measure_grid.density_from_clr_values",)),
    ("counterfactual.counterfactual_density_s", ("counterfactual.counterfactual_density",)),
    ("counterfactual.unique_rows_s", ("counterfactual.unique_rows",)),
    ("counterfactual.effect_bands_s", ("counterfactual.effect_bands",)),
    ("counterfactual.marginal_effect_s",
     ("counterfactual.marginal_effect_ce_j", "counterfactual.marginal_effect_de_j")),
    ("sim_benchmark.simulate_s", ("sim_benchmark.simulate",)),
    ("sim_benchmark.kde_conditional_s", ("sim_benchmark.kde_conditional",)),
    ("sim_benchmark.run_study_s", ("sim_benchmark.run_study",)),
    ("dataio.load_dataset_s", ("dataio.load_dataset",)),
    ("dataio.write_curve_table_s", ("dataio.write_curve_table",)),
    ("config.load_config_s", ("config.load_config", "config.parse_config")),
    ("cli.main_s", ("cli.main",)),
]
#: per-layer call counts: (metric, span)
CALLS = [
    ("basis.design_row_calls", "basis.design_row"),
    ("density_regression.predict_density_calls", "density_regression.predict_density"),
    ("measure_grid.density_from_clr_values_calls", "measure_grid.density_from_clr_values"),
    ("counterfactual.counterfactual_density_calls", "counterfactual.counterfactual_density"),
    ("sim_benchmark.simulate_calls", "sim_benchmark.simulate"),
]


def read_config(path: Path) -> dict[str, str]:
    pairs = (l.split("=", 1) for l in path.read_text(encoding="utf-8").splitlines()
             if "=" in l and not l.lstrip().startswith("#"))
    return {k.strip(): v.strip() for k, v in pairs}


def command_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], log: Path) -> tuple[float, float, int]:
    """Run one process to its end: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=command_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """One benchmark run: rounds of commands, their checks and the counts."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        self.config_path = ROOT / self.workload.config
        self.config = read_config(self.config_path)
        self.dir = WORK / name
        self.attempted = self.failed = 0
        self.excluded = 0  # excluded (estimator, replication) pairs per round
        self.errors: list[str] = []
        self.reference: Path | None = None

    def ops_per_command(self, command: str) -> int:
        """A command is one operation; simulate adds its (estimator, replication) pairs."""
        if command != "simulate":
            return 1
        n_values = self.config["simulate.n"].split(",")
        estimators = self.config["simulate.estimators"].split(",")
        return 1 + len(n_values) * len(estimators) * int(self.config["simulate.replications"])

    def round(self, index: int, traced: bool) -> tuple[dict[str, float], float, list[Path]]:
        """Run every command once: ({command: wall s}, peak RSS MB, span files)."""
        out = self.dir / f"round{index}"
        walls, rss, spans, done = {}, 0.0, [], {}
        for command in self.workload.commands:
            target = out / command
            target.mkdir(parents=True)
            cli = [command, "--config", str(self.config_path), "--out", str(target),
                   "--seed", str(self.seed)]
            if traced:
                spans.append(out / f"{command}.npz")
                args = [sys.executable, str(BENCH / "trace_cli.py"), str(spans[-1]), *cli]
            else:
                args = [sys.executable, "-m", "cfdens.cli", *cli]
            wall, peak, code = spawn(args, out / f"{command}.log")
            walls[command], rss = wall, max(rss, peak)
            ops = self.ops_per_command(command)
            self.attempted += ops
            if code != 0:
                self.failed += ops
                print(f"{self.name}: {command} exited with {code}; see {out / command}.log",
                      file=sys.stderr)
            else:
                done[command] = target
            print(f"round {index}{' traced' if traced else ''}: {command}_s {wall:.3f} "
                  f"peak_rss_mb {peak:.1f}")
        self.check(index, out, done)
        return walls, rss, spans

    def check(self, index: int, out: Path, done: dict[str, Path]) -> None:
        """Full checks on the first round; later rounds must repeat it byte for byte."""
        if self.reference is None:
            self.reference = out
            try:
                self.errors += self.check_outputs(done)
            except (OSError, ValueError, KeyError) as exc:  # a missing or malformed output
                self.errors.append(f"round {index}: {exc!r}")
            return
        for command, target in done.items():
            ref = self.reference / command
            names = sorted(p.name for p in ref.iterdir())
            if names != sorted(p.name for p in target.iterdir()):
                self.errors.append(f"round {index}: {command} wrote other files")
                continue
            _, mismatch, missing = filecmp.cmpfiles(ref, target, names, shallow=False)
            if mismatch or missing:
                self.errors.append(f"round {index}: {command} outputs differ: {mismatch}")
        if "simulate" in done:
            self.failed += self.excluded

    def check_outputs(self, done: dict[str, Path]) -> list[str]:
        if "simulate" in done:
            errors, self.excluded = checks.check_mc_report(
                done["simulate"] / "mc_report.csv", self.seed,
                [int(n) for n in self.config["simulate.n"].split(",")],
                int(self.config["simulate.replications"]),
                [e.strip() for e in self.config["simulate.estimators"].split(",")],
            )
            self.failed += self.excluded
            return errors
        covariates = [c.strip() for c in self.config.get("marginal.covariates", "").split(",")
                      if c.strip()]
        return checks.check_mixed(
            ROOT / self.config["data.path"], done.get("fit"), done.get("decompose"),
            done.get("marginal"), int(self.config["uncertainty.draws"]), covariates,
        )


def machine() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: {len(os.sched_getaffinity(0))} cores, {blas['name']} {blas['version']} "
            f"with {BLAS_THREADS} thread, python {sys.version.split()[0]}, numpy {np.__version__}")


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import ``cfdens.cli`` and exit."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "cfdens")],
                   check=True, cwd=ROOT, env=command_env())
    log = WORK / "setup.log"
    times = []
    for _ in range(SETUP_SAMPLES):
        wall, _, code = spawn([sys.executable, "-c", "import cfdens.cli"], log)
        if code != 0:
            raise RuntimeError(f"import cfdens.cli failed; see {log}")
        times.append(wall)
    print("setup_s samples " + " ".join(f"{t:.3f}" for t in times))
    return times


def layer_metrics(span_files: list[Path], trace_path: Path) -> dict[str, dict]:
    """Self times, call counts and counters of the spans; writes the merged trace."""
    names: list[str] = []
    parts = {"name": [], "start": [], "end": [], "parent": [], "command": []}
    newton_iterations = output_bytes = fit_peak_bytes = 0
    for command_id, path in enumerate(span_files):
        with np.load(path) as spans:
            for name in spans["names"].tolist():
                if name not in names:
                    names.append(name)
            ids = np.array([names.index(n) for n in spans["names"].tolist()], dtype=np.int32)
            offset = sum(len(p) for p in parts["start"])
            parent = spans["parent"].astype(np.int64)
            parts["name"].append(ids[spans["name"]])
            parts["start"].append(spans["start"])
            parts["end"].append(spans["end"])
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["command"].append(np.full(len(parent), command_id, dtype=np.int32))
            newton_iterations += int(spans["newton_iterations"])
            output_bytes += int(spans["output_bytes"])
            fit_peak_bytes = max(fit_peak_bytes, int(spans["fit_peak_bytes"]))
    merged = {k: np.concatenate(v) for k, v in parts.items()}
    np.savez(trace_path, names=np.array(names),
             commands=np.array([p.stem for p in span_files]), **merged)
    duration = merged["end"] - merged["start"]
    has_parent = merged["parent"] >= 0
    children = np.bincount(merged["parent"][has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    self_time = np.bincount(merged["name"], weights=duration - children, minlength=len(names))
    calls = np.bincount(merged["name"], minlength=len(names))

    def total(values, span_names):
        return float(sum(values[names.index(n)] for n in span_names if n in names))

    metrics = {name: {"value": total(self_time, spans), "unit": "s"} for name, spans in SELF_TIMES}
    for name, span in CALLS:
        metrics[name] = {"value": int(total(calls, (span,))), "unit": "count"}
    metrics["density_regression.newton_iterations"] = {"value": newton_iterations, "unit": "count"}
    metrics["density_regression.fit_peak_mb"] = {"value": fit_peak_bytes / 2**20, "unit": "MB"}
    metrics["dataio.output_bytes"] = {"value": output_bytes, "unit": "bytes"}
    metrics["trace.spans"] = {"value": len(duration), "unit": "count"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the cfdens command line")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cfdens" / "cli.py").is_file():
        print(f"bench: no cfdens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(machine())
    run = Run(args.workload, args.seed)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    if run.workload.rows_per_group:
        make_data.write_dataset(ROOT / run.config["data.path"], DATA_SEED,
                                run.workload.rows_per_group)

    if args.trace:
        plain, _, _ = run.round(1, traced=False)
        traced, _, span_files = run.round(2, traced=True)
        metrics = layer_metrics([p for p in span_files if p.is_file()], run.dir / "trace.npz")
        metrics["trace.overhead_s"] = {
            "value": sum(traced.values()) - sum(plain.values()), "unit": "s"
        }
    else:
        setup = measure_setup()
        rounds, peak = [], 0.0
        while True:
            walls, rss, _ = run.round(len(rounds) + 1, traced=False)
            rounds.append(sum(walls.values()))
            peak = max(peak, rss)
            if sum(rounds) + statistics.median(rounds) > args.seconds:
                break
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "commands_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    for error in run.errors:
        print(f"{args.workload}: check failed: {error}", file=sys.stderr)
    correct = not run.errors
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
