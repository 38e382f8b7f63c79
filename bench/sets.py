"""Run sets of benchmark runs and compare two sets.

    python3 bench/sets.py run --seeds 1-10 --out set_a.json [--workload NAME ...]
    python3 bench/sets.py compare set_a.json set_b.json

``run`` calls ``bench/run.py`` once per (workload, seed), one run at a time,
from the root of the checkout it belongs to, and stores every result line.
``compare`` prints, per workload and metric, each set's median and its
spread (the distance between the first and third quartile over the median),
and the change of the median against the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_sets(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
            results.append({"workload": workload, "seed": seed, "result": result})
            if result is None:
                print(workload, seed, "no result", flush=True)
                continue
            summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(workload, seed, f"correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} {summary}", flush=True)
    Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if all(r["result"] and r["result"]["correct"] for r in results) else 1


def summarize(path: str) -> dict:
    """{(workload, metric): values}, plus {(workload, 'failed share'): shares}."""
    table: dict[tuple, list] = {}
    for entry in json.loads(Path(path).read_text(encoding="utf-8")):
        result = entry["result"]
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            table.setdefault((entry["workload"], name), []).append(metric["value"])
        table.setdefault((entry["workload"], "failed share"), []).append(
            result["failed"] / result["attempted"]
        )
    return table


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [summarize(p) for p in args.sets]
    header = f"{'workload':16s} {'metric':14s}" + f" {'median':>12s} {'spread':>8s}" * len(sets)
    print(header + (f" {'change':>8s} {'bound':>6s}" if len(sets) > 1 else ""))
    ok = True
    for key in sorted(sets[0]):
        workload, metric = key
        line = f"{workload:16s} {metric:14s}"
        for table in sets:
            values = table.get(key, [])
            if len(values) < 2:
                line += f" {'-':>12s} {'-':>8s}"
                continue
            line += f" {statistics.median(values):12.6g} {spread(values):8.4f}"
        if len(sets) > 1 and key in sets[1] and metric in bounds:
            first, second = (statistics.median(t[key]) for t in sets)
            change = second / first - 1.0
            line += f" {change:+8.4f} {bounds[metric]:6.2f}"
            ok &= change <= bounds[metric]
        elif len(sets) > 1 and metric == "failed share" and key in sets[1]:
            ok &= set(sets[0][key]) == set(sets[1][key])
        print(line)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--out", required=True)
    run.add_argument("--workload", action="append")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("sets", nargs="+")
    args = parser.parse_args()
    return run_sets(args) if args.action == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
