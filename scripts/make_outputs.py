"""Run the standard set of cfdens commands into one output directory.

    python3 scripts/make_outputs.py OUT

Writes ``OUT/<config>_<command>`` for ``fit``, ``decompose`` and
``marginal`` on ``bench/configs/bundled.cfg`` and
``configs/synthetic_mixed.cfg``, ``fit`` and ``decompose`` on
``bench/configs/continuous.cfg`` with the data of ``bench/make_data.py
--seed 1 --rows 2000``, and ``simulate`` on ``bench/configs/mc.cfg --seed 1``.
Each command runs as its own ``python -m cfdens.cli`` process on the sources
under ``src/``, with one BLAS thread.  The generated data goes to a temporary
directory, which is the continuous commands' working directory, so that their
manifests keep ``data.path = .bench_run/continuous.csv`` whatever ``OUT`` is
and nothing is written inside the source tree.  Two such directories compare
with ``scripts/compare_outputs.py``.  The exit status is 0 when every command
succeeds; otherwise the script names the first command that failed and exits 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (config, its commands, extra arguments), run in this order into <config stem>_<command>
RUNS = [
    ("bench/configs/bundled.cfg", ("fit", "decompose", "marginal"), ()),
    ("configs/synthetic_mixed.cfg", ("fit", "decompose", "marginal"), ()),
    ("bench/configs/continuous.cfg", ("fit", "decompose"), ()),
    ("bench/configs/mc.cfg", ("simulate",), ("--seed", "1")),
]


def make_outputs(out: Path) -> str | None:
    """Run every command of ``RUNS`` into ``out``; the first failing command, or None."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    out = out.resolve()
    with tempfile.TemporaryDirectory() as work:
        data = Path(work) / ".bench_run" / "continuous.csv"
        data.parent.mkdir()
        # continuous.cfg reads data.path = .bench_run/continuous.csv from its working directory
        commands = [([sys.executable, str(ROOT / "bench" / "make_data.py"), "--seed", "1",
                      "--rows", "2000", "--out", str(data)], ROOT)]
        for config, names, extra in RUNS:
            cwd = work if config == "bench/configs/continuous.cfg" else ROOT
            commands += [([sys.executable, "-m", "cfdens.cli", command, "--config",
                           str(ROOT / config), "--out",
                           str(out / f"{Path(config).stem}_{command}"), *extra], cwd)
                         for command in names]
        for args, cwd in commands:
            if subprocess.run(args, cwd=cwd, env=env).returncode != 0:
                return " ".join(args)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    failed = make_outputs(args.out)
    if failed is not None:
        print(f"make_outputs: command failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
