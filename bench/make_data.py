"""Generate a mixed-type income dataset with a continuous (unrounded) age.

Same law as ``scripts/make_synthetic_data.py`` (see ``truth.py``), with age
kept at full precision so that every row is its own covariate combination.

    python3 bench/make_data.py --seed 7 --rows 2000 --out data.csv
"""

from __future__ import annotations

import argparse
import csv

import numpy as np

import truth


def make_rows(rng: np.random.Generator, group: str, n: int) -> list[tuple]:
    law = truth.GROUPS[group]
    edu = rng.choice(truth.EDU_LEVELS, size=n, p=law["edu_probs"])
    age = rng.uniform(*truth.AGE_RANGE, size=n)
    is_zero = rng.random(n) < law["zero_prob"]
    raw = np.exp(rng.normal(truth.log_mean(group, edu, age), truth.LOG_SD))
    income = np.round(np.clip(raw, truth.FLOOR, truth.TOP_CODE), 2)
    income = np.where(income > truth.CAP, truth.TOP_CODE, income)
    income = np.where(is_zero, 0.0, income)
    weight = np.round(rng.uniform(0.5, 2.0, size=n), 3)
    return [
        (group, e, repr(float(a)), repr(float(y)), repr(float(w)))
        for e, a, y, w in zip(edu, age, income, weight)
    ]


def write_dataset(path, seed: int, rows_per_group: int) -> None:
    rng = np.random.default_rng(seed)
    rows = make_rows(rng, truth.TREATED, rows_per_group) + make_rows(
        rng, truth.CONTROL, rows_per_group
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "edu", "age", "income", "weight"])
        writer.writerows(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True, help="rows per group")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_dataset(args.out, args.seed, args.rows)


if __name__ == "__main__":
    main()
