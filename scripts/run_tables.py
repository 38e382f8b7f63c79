"""Full-scale Monte Carlo benchmark run.

Reproduces the complete simulation study (sample sizes up to 100000, 1000
replications) and writes mc_report.csv.  The replications run on one worker
process per available core.  On 2 cores of an Intel Xeon VM one replication
of both estimators over the whole n ladder takes 0.16-0.28 s of wall time
with two workers, so the full study takes about 3-5 minutes there; this is
extrapolated from ``run_study`` timed over 10 replications per n.  The
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
