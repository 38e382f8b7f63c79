"""Beta-mixture data generator, KDE benchmark, and Monte Carlo study harness.

The generator draws three binary covariates from a multinomial over the eight
cells (last covariate varying fastest) and the outcome from a cell-specific
beta distribution on [0, 1].  The study harness fits the density regression
and a per-cell Gaussian KDE with Silverman bandwidth, scores both against the
analytic counterfactual mixtures by total variation distance, and aggregates
over seeded replications.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .basis import PartialEffectSpec, build_covariate_basis, build_outcome_basis, covariate_matrix
from .counterfactual import CovariateSample, counterfactual_density
from .density_regression import (
    FittedDensityModel,
    ObservationTable,
    bin_and_pool,
    fit_smoothed,
    predict_densities,
)
from .errors import ConfigError, DataError, DomainError
from .measure_grid import GridDensity, GridSpec, ReferenceMeasure, tv_distance

TREATED_CELL_PROBS = np.full(8, 0.125)
#: control class probabilities; the published vector prints 0.008 for cell 6
#: and sums to 0.928, while 0.08 makes it sum to exactly 1 -- the default
#: reads 0.008 as a typo for 0.08 (the benchmark reproduces only under 0.08)
CONTROL_CELL_PROBS = np.array([0.25, 0.2, 0.14, 0.125, 0.095, 0.08, 0.06, 0.05])
CONTROL_CELL_PROBS_PRINTED = np.array([0.25, 0.2, 0.14, 0.125, 0.095, 0.008, 0.06, 0.05])
TREATED_ALPHA = np.array([1, 5, 5, 9, 2, 6, 6, 10], dtype=float)
TREATED_BETA = TREATED_ALPHA.copy()
CONTROL_ALPHA = np.array([1, 10, 2, 11, 2, 11, 3, 12], dtype=float)
CONTROL_BETA = np.array([1, 2, 10, 11, 2, 3, 11, 12], dtype=float)

COVARIATE_NAMES = ("x1", "x2", "x3")


@dataclass(frozen=True)
class DgpSpec:
    """Two-group beta-mixture data generating process on [0, 1].

    Cell c of the eight covariate cells corresponds to binary covariates
    (x1, x2, x3) with x3 varying fastest.  Class probabilities are normalized
    before sampling; any renormalization applied is recorded in the report
    header.  Pass ``control_probs=CONTROL_CELL_PROBS_PRINTED`` for the
    sum-to-0.928 variant of the control vector.
    """

    treated_probs: np.ndarray = field(default_factory=lambda: TREATED_CELL_PROBS.copy())
    control_probs: np.ndarray = field(default_factory=lambda: CONTROL_CELL_PROBS.copy())
    treated_alpha: np.ndarray = field(default_factory=lambda: TREATED_ALPHA.copy())
    treated_beta: np.ndarray = field(default_factory=lambda: TREATED_BETA.copy())
    control_alpha: np.ndarray = field(default_factory=lambda: CONTROL_ALPHA.copy())
    control_beta: np.ndarray = field(default_factory=lambda: CONTROL_BETA.copy())

    def __post_init__(self):
        for name in ("treated_alpha", "treated_beta", "control_alpha", "control_beta"):
            if np.any(getattr(self, name) <= 0):
                raise DomainError(f"{name} must be positive")
        for name in ("treated_probs", "control_probs"):
            if np.any(getattr(self, name) <= 0):
                raise DomainError(f"{name} must be positive")

    def probs(self, group: int) -> np.ndarray:
        raw = self.treated_probs if group == 1 else self.control_probs
        return raw / raw.sum()

    def shape_params(self, group: int) -> tuple[np.ndarray, np.ndarray]:
        if group == 1:
            return self.treated_alpha, self.treated_beta
        return self.control_alpha, self.control_beta

    def renormalization_note(self) -> str:
        parts = []
        for name, raw in (("treated", self.treated_probs), ("control", self.control_probs)):
            total = raw.sum()
            if abs(total - 1.0) > 1e-12:
                parts.append(f"{name} class probabilities renormalized by {total:.6g}")
        return "; ".join(parts)


def cell_covariates(cell: int) -> dict[str, str]:
    """Binary covariates for a cell index, last covariate fastest."""
    return {
        "x1": str((cell >> 2 & 1) + 1),
        "x2": str((cell >> 1 & 1) + 1),
        "x3": str((cell & 1) + 1),
    }


def simulate(spec: DgpSpec, group: int, n: int, seed: int) -> ObservationTable:
    """Draw ``n`` rows for one group; deterministic given the seed."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    probs = spec.probs(group)
    cells = rng.choice(8, size=n, p=probs)
    a, b = spec.shape_params(group)
    outcomes = rng.beta(a[cells], b[cells])
    levels = np.array(["1", "2"])  # as in cell_covariates
    covs = {name: levels[cells >> (2 - k) & 1] for k, name in enumerate(COVARIATE_NAMES)}
    return ObservationTable(
        outcomes=outcomes, covariates=covs, weights=np.ones(n),
        group="treated" if group == 1 else "control",
    )


def _beta_pdf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """The Beta(a, b) density at points x in (0, 1)."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return np.exp(log_norm + (a - 1) * np.log(x) + (b - 1) * np.log1p(-x))


def true_conditional(spec: DgpSpec, group: int, cell: int, grid: GridSpec) -> GridDensity:
    """Analytic cell density evaluated at bin centers, normalized on the grid."""
    a, b = spec.shape_params(group)
    values = _beta_pdf(grid.centers, a[cell], b[cell])
    return GridDensity.from_unnormalized(grid, values)


def true_counterfactual(spec: DgpSpec, model_group: int, cov_group: int, grid: GridSpec) -> GridDensity:
    """Beta-mixture counterfactual density on the grid."""
    probs = spec.probs(cov_group)
    a, b = spec.shape_params(model_group)
    values = np.zeros(grid.n_cells)
    for c in range(8):
        values += probs[c] * _beta_pdf(grid.centers, a[c], b[c])
    return GridDensity.from_unnormalized(grid, values)


def _quartiles(samples: np.ndarray) -> tuple[float, float]:
    """``np.percentile(samples, [75, 25])``, bit for bit, from one partition.

    The same linear interpolation as numpy's, without ``np.percentile``,
    which imports ``numpy.ma``.
    """
    n = len(samples)
    positions = [(q * (n - 1), int(q * (n - 1))) for q in (0.75, 0.25)]
    kth = sorted({k for _, i in positions for k in (i, min(i + 1, n - 1))})
    ordered = np.partition(samples, kth)
    out = []
    for v, i in positions:
        a, b, t = float(ordered[i]), float(ordered[min(i + 1, n - 1)]), v - i
        # numpy's _lerp: interpolate from the nearer end
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out[0], out[1]


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    sd = float(np.std(samples, ddof=1)) if n > 1 else 0.0
    q75, q25 = _quartiles(samples)
    scale = min(sd, (q75 - q25) / 1.34)
    return 0.9 * scale * n ** (-0.2)


def kde_density(samples: np.ndarray, grid: GridSpec, bandwidth: float | None = None) -> GridDensity:
    """Gaussian-kernel density at bin centers, renormalized on the grid."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise DataError("cannot run KDE on an empty sample")
    h = silverman_bandwidth(samples) if bandwidth is None else bandwidth
    if h <= 0:
        span = grid.edges[-1] - grid.edges[0] if grid.n_continuous else 1.0
        h = 1e-6 * span
    # bin centres in row blocks of ~32768 kernel values, so the temporaries
    # stay in cache; each row still sums one contiguous vector, so the result
    # is the unblocked formula's, bit for bit
    block = max(1, 32768 // len(samples))
    values = np.empty(len(grid.centers))
    for lo in range(0, len(values), block):
        z = (grid.centers[lo:lo + block, None] - samples[None, :]) / h
        values[lo:lo + block] = np.exp(-0.5 * z * z).sum(axis=1)
    if not values.any():
        # e.g. one observation off every bin centre, under the h <= 0 floor
        raise DataError(f"KDE bandwidth {h:g} leaves no kernel mass on the grid")
    values /= len(samples) * h * np.sqrt(2 * np.pi)
    return GridDensity.from_unnormalized(grid, values)


def kde_conditional(data: ObservationTable, grid: GridSpec) -> dict[tuple, GridDensity]:
    """Per-covariate-cell KDE over the table's distinct covariate combinations."""
    names = sorted(data.covariates)
    first, inverse = data.distinct_rows(names)
    out = {}
    for k, i in enumerate(first):
        key = tuple((n, data.covariates[n][i]) for n in names)
        out[key] = kde_density(data.outcomes[inverse == k], grid)
    return out


COUNTERFACTUAL_TARGETS = ("f11", "f10", "f01", "f00")
CONDITIONAL_TARGETS = ("cond1", "cond0")
_KL = {"f11": (1, 1), "f10": (1, 0), "f01": (0, 1), "f00": (0, 0)}


@dataclass(frozen=True)
class McReport:
    """Mean TV distances per (estimator, n, target) with Monte Carlo errors."""

    rows: tuple[dict, ...]
    seed: int
    replications: int
    header_note: str = ""

    def lookup(self, estimator: str, n: int, target: str) -> dict:
        for r in self.rows:
            if r["estimator"] == estimator and r["n"] == n and r["target"] == target:
                return r
        raise KeyError((estimator, n, target))

    def to_table(self) -> str:
        lines = []
        if self.header_note:
            lines.append(f"# {self.header_note}")
        lines.append(f"# seed={self.seed} replications={self.replications}")
        lines.append("estimator,n,target,mean_tv,mc_se,replications,excluded")
        for r in self.rows:
            lines.append(
                f"{r['estimator']},{r['n']},{r['target']},"
                f"{r['mean_tv']:.17g},{r['mc_se']:.17g},{r['used']},{r['excluded']}"
            )
        return "\n".join(lines) + "\n"


def fit_bayes_group(data: ObservationTable, grid: GridSpec,
                    spline_count: int = 12, degree: int = 3) -> FittedDensityModel:
    """Fit the benchmark's additive model with the estimator of the CLI.

    An intercept and a dummy per binary covariate, fitted by ``fit_smoothed``:
    the double-penalty P-spline fit, whose difference penalty along the
    outcome and null-space penalty are both selected from the data.
    """
    measure = ReferenceMeasure(continuous_interval=(0.0, 1.0))
    outcome_basis = build_outcome_basis(measure, grid, spline_count, degree)
    pooled = bin_and_pool(data, grid)
    # a categorical basis reads its training values only to check their levels,
    # so the pooled combinations, one per distinct row, stand in for all rows
    cov_bases = [build_covariate_basis(PartialEffectSpec.intercept(), [None])] + [
        build_covariate_basis(PartialEffectSpec.categorical(n, ("1", "2"), "1"),
                              [c[n] for c in pooled.combinations])
        for n in COVARIATE_NAMES
    ]
    return fit_smoothed(pooled, cov_bases, outcome_basis)


def _bayes_estimates(datas, samples, grid, spline_count, degree):
    """Counterfactual and per-cell conditional densities of the fitted models."""
    models = {g: fit_bayes_group(datas[g], grid, spline_count, degree) for g in (1, 0)}
    cf = {tgt: counterfactual_density(models[k], samples[l]) for tgt, (k, l) in _KL.items()}
    cells = {n: np.array([cell_covariates(c)[n] for c in range(8)]) for n in COVARIATE_NAMES}
    cond = {}
    for g in (1, 0):
        bx = covariate_matrix(list(models[g].covariate_bases), cells, 8)
        for c, values in enumerate(predict_densities(models[g], bx)):
            cond[(g, c)] = GridDensity(grid, values)
    return cf, cond


def _kde_estimates(datas, samples, grid):
    """Counterfactual and per-cell conditional densities of the per-cell KDE."""
    keys = [tuple(sorted(cell_covariates(c).items())) for c in range(8)]
    cond, cell_w = {}, {}
    for g in (1, 0):
        kdes = kde_conditional(datas[g], grid)
        for c, key in enumerate(keys):
            if key not in kdes:
                raise DataError(f"empty covariate cell {key} for KDE group {g}")
            cond[(g, c)] = kdes[key]
        combos, wts = samples[g].unique_rows(sorted(COVARIATE_NAMES))
        cell_w[g] = {tuple(sorted(c.items())): w for c, w in zip(combos, wts)}
    cf = {}
    for tgt, (k, l) in _KL.items():
        values = np.zeros(grid.n_cells)
        for c, key in enumerate(keys):
            values += cell_w[l].get(key, 0.0) * cond[(k, c)].values
        cf[tgt] = GridDensity.from_unnormalized(grid, values)
    return cf, cond


def _replication_scores(spec, n, seed, grid, estimators, truths_cf, truths_cond,
                        spline_count, degree):
    """TV scores of every estimator on one simulated replication (None if it failed)."""
    datas = {1: simulate(spec, 1, n, seed), 0: simulate(spec, 0, n, seed + 500_000_000)}
    samples = {g: CovariateSample.from_table(d) for g, d in datas.items()}
    scores = {}
    for est in estimators:
        try:
            if est == "bayes":
                cf, cond = _bayes_estimates(datas, samples, grid, spline_count, degree)
            elif est == "kde":
                cf, cond = _kde_estimates(datas, samples, grid)
            else:
                raise ConfigError(f"unknown estimator '{est}'")
        except (DataError, RuntimeError):
            scores[est] = None
            continue
        scores[est] = {tgt: tv_distance(cf[tgt], truths_cf[tgt]) for tgt in COUNTERFACTUAL_TARGETS}
        for g, tgt in ((1, "cond1"), (0, "cond0")):
            tvs = [tv_distance(cond[(g, c)], truths_cond[(g, c)]) for c in range(8)]
            scores[est][tgt] = float(np.mean(tvs))
    return scores


def _map_replications(spec, tasks, seed, args) -> dict:
    """``_replication_scores`` of every (n, r) task, on up to one worker per core.

    One worker runs the tasks in this process.  More run in a process pool
    forked from this one.  The first failure cancels the tasks not yet started and is raised with its
    own class; a worker that dies raises ``BrokenProcessPool``.  Every worker
    is joined before this returns or raises.
    """
    # one worker where the platform cannot tell which cores this process may
    # use (macOS, Windows), which also keeps it off the fork start method there
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cores)
    if workers <= 1:
        return {(n, r): _replication_scores(spec, n, seed + r, *args) for n, r in tasks}
    # imported here, so that importing cfdens loads no process-pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # fork, not the platform default: a forked worker inherits the imported
    # modules, and the pool forks every worker before it starts its own threads
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {pool.submit(_replication_scores, spec, n, seed + r, *args): (n, r)
                   for n, r in tasks}
        return {futures[f]: f.result() for f in as_completed(futures)}
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_study(
    spec: DgpSpec,
    n_values,
    replications: int,
    estimators=("bayes", "kde"),
    seed: int = 0,
    n_bins: int = 50,
    spline_count: int = 12,
    degree: int = 3,
) -> McReport:
    """Monte Carlo study over sample sizes; per-replication seeds are seed + index.

    Each replication simulates both groups once and scores every estimator on
    that data.  Replications where an estimator fails (e.g. an empty covariate
    cell for the KDE) are excluded for that estimator and counted in the
    report.  ``spline_count`` and ``degree`` set the Bayes outcome basis.
    """
    if replications < 1:
        raise DomainError("replications must be >= 1")
    measure = ReferenceMeasure(continuous_interval=(0.0, 1.0))
    grid = GridSpec.from_measure(measure, n_bins)
    truths_cf = {tgt: true_counterfactual(spec, k, l, grid) for tgt, (k, l) in _KL.items()}
    truths_cond = {
        (g, c): true_conditional(spec, g, c, grid) for g in (1, 0) for c in range(8)
    }
    # the largest n first, so that the longest replications do not finish last
    tasks = sorted({(n, r) for n in n_values for r in range(replications)},
                   key=lambda task: (-task[0], task[1]))
    args = (grid, estimators, truths_cf, truths_cond, spline_count, degree)
    scores_by_task = _map_replications(spec, tasks, seed, args)
    targets = COUNTERFACTUAL_TARGETS + CONDITIONAL_TARGETS
    rows = []
    for n in n_values:
        acc = {est: {t: [] for t in targets} for est in estimators}
        excluded = {est: 0 for est in estimators}
        for r in range(replications):
            for est, est_scores in scores_by_task[(n, r)].items():
                if est_scores is None:
                    excluded[est] += 1
                    continue
                for t in targets:
                    acc[est][t].append(est_scores[t])
        for est in estimators:
            for t in targets:
                vals = np.asarray(acc[est][t])
                used = len(vals)
                rows.append(
                    {
                        "estimator": est,
                        "n": int(n),
                        "target": t,
                        "mean_tv": float(vals.mean()) if used else float("nan"),
                        "mc_se": float(vals.std(ddof=1) / np.sqrt(used)) if used > 1 else float("nan"),
                        "used": used,
                        "excluded": excluded[est],
                    }
                )
    return McReport(
        rows=tuple(rows),
        seed=seed,
        replications=replications,
        header_note=spec.renormalization_note(),
    )
