"""Full-scale Monte Carlo benchmark run.

Reproduces the complete simulation study (sample sizes up to 100000, 1000
replications) and writes mc_report.csv.  One replication of both estimators
over the whole n ladder takes about 0.21 s on 2 cores of an Intel Xeon VM
(0.009 s at n = 1000, 0.13 s at n = 100000), so the full study takes about
3.5 minutes there; this is extrapolated from ``run_study`` timed over 10
replications per n in one process.  The
200-replication version used by the test suite runs via
``cfdens simulate --config configs/simulation.cfg``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cfdens.cli import main as cli_main  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/full_scale")
    parser.add_argument("--seed", type=int, default=20260801)
    args = parser.parse_args()
    return cli_main(
        [
            "simulate",
            "--config",
            str(ROOT / "configs" / "simulation.cfg"),
            "--out",
            args.out,
            "--seed",
            str(args.seed),
            "--full-scale",
        ]
    )


if __name__ == "__main__":
    raise SystemExit(main())
