"""Law of the synthetic mixed-type income data, and its exact grid masses.

This is the law of ``scripts/make_synthetic_data.py``: per group a
categorical education level, an age uniform on (20, 65), and an income that
is 0 with the group's zero probability and otherwise lognormal with
log-mean ``scale + bump[edu] + 0.004 (age - 40)`` and log-sd 0.55, floored at
10.5 and top-coded (values above 9990 land on the atom at 10000).  The
benchmark checks the program's fitted densities against the masses computed
here, so this module imports nothing from ``cfdens``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

GROUPS = {
    "E": {"edu_probs": (0.45, 0.4, 0.15), "zero_prob": 0.20, "scale": 7.6},
    "W": {"edu_probs": (0.3, 0.4, 0.3), "zero_prob": 0.12, "scale": 7.9},
}
TREATED, CONTROL = "E", "W"
EDU_LEVELS = ("low", "mid", "high")
EDU_BUMP = {"low": 0.0, "mid": 0.25, "high": 0.6}
AGE_RANGE = (20.0, 65.0)
AGE_SLOPE, AGE_CENTER = 0.004, 40.0
LOG_SD = 0.55
FLOOR, CAP, TOP_CODE = 10.5, 9990.0, 12000.0

#: the grid of configs/synthetic_mixed.cfg: 30 bins on (10, 9990), then the
#: atoms at 0 and 10000 with weight 1
INTERVAL = (10.0, 9990.0)
N_BINS = 30
ATOMS = (0.0, 10000.0)
EDGES = np.linspace(INTERVAL[0], INTERVAL[1], N_BINS + 1)
WIDTHS = np.concatenate([np.diff(EDGES), np.ones(len(ATOMS))])
CENTERS = np.concatenate([0.5 * (EDGES[:-1] + EDGES[1:]), ATOMS])
N_CELLS = len(WIDTHS)


def log_mean(group: str, edu, age) -> np.ndarray:
    bump = np.array([EDU_BUMP[e] for e in np.asarray(edu).ravel()]).reshape(np.shape(edu))
    return GROUPS[group]["scale"] + bump + AGE_SLOPE * (np.asarray(age, dtype=float) - AGE_CENTER)


def cell_masses(group: str, mu: np.ndarray) -> np.ndarray:
    """Probability of each grid cell for incomes with log-means ``mu``: (..., N_CELLS).

    The floor puts the lower lognormal tail into the first bin, and the top
    code puts the upper tail beyond the cap on the atom at 10000.
    """
    mu = np.asarray(mu, dtype=float)[..., None]
    cdf = ndtr((np.log(EDGES[1:-1]) - mu) / LOG_SD)
    zeros = np.zeros(mu.shape)
    ones = np.ones(mu.shape)
    positive = np.diff(np.concatenate([zeros, cdf, ones], axis=-1), axis=-1)
    cap_cdf = ndtr((np.log(CAP) - mu) / LOG_SD)
    positive[..., -1] = cap_cdf[..., 0] - cdf[..., -1]
    zero_prob = GROUPS[group]["zero_prob"]
    return np.concatenate(
        [(1.0 - zero_prob) * positive, np.full(mu.shape, zero_prob),
         (1.0 - zero_prob) * (1.0 - cap_cdf)],
        axis=-1,
    )


def counterfactual_density(model_group: str, edu, age, weights) -> np.ndarray:
    """True f_kl: group k's law averaged over the weighted rows (edu, age) of group l."""
    w = np.asarray(weights, dtype=float)
    masses = cell_masses(model_group, log_mean(model_group, edu, age))
    return (w / w.sum()) @ masses / WIDTHS


def product_measure_density(model_group: str, rest, j_rows, j_name: str) -> np.ndarray:
    """True numerator of a marginal effect: group k's law over F(x_-j) x F(x_j).

    ``rest`` and ``j_rows`` are (edu, age, weights) triples of the two samples;
    covariate ``j_name`` is taken from ``j_rows`` and the other from ``rest``.
    """
    (edu_r, age_r, w_r), (edu_j, age_j, w_j) = rest, j_rows
    w = np.outer(np.asarray(w_r) / np.sum(w_r), np.asarray(w_j) / np.sum(w_j))
    if j_name == "edu":
        edu, age = np.broadcast_arrays(np.asarray(edu_j)[None, :], np.asarray(age_r)[:, None])
    elif j_name == "age":
        edu, age = np.broadcast_arrays(np.asarray(edu_r)[:, None], np.asarray(age_j)[None, :])
    else:
        raise ValueError(f"unknown covariate {j_name!r}")
    masses = cell_masses(model_group, log_mean(model_group, edu, age))
    return np.einsum("ab,abg->g", w, masses) / WIDTHS


def histogram_tv(density: np.ndarray, weights) -> float:
    """Expected TV distance of a weighted histogram of these rows from ``density``.

    Each cell mass p is estimated with standard error sqrt(p (1 - p) / n_eff),
    n_eff = (sum w)^2 / sum w^2, and E|N(0, s^2)| = s sqrt(2 / pi).
    """
    w = np.asarray(weights, dtype=float)
    n_eff = w.sum() ** 2 / np.sum(w * w)
    p = density * WIDTHS
    return float(0.5 * np.sum(np.sqrt(2.0 * p * (1.0 - p) / (np.pi * n_eff))))


def tv(values: np.ndarray, truth: np.ndarray) -> float:
    return float(0.5 * np.sum(np.abs(values - truth) * WIDTHS))
