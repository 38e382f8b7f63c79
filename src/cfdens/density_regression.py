"""Additive density regression fitted through the multinomial/Poisson trick.

Observations are binned on the outcome grid and pooled by unique covariate
combination.  The Poisson model with a free intercept per combination and a
log bin-width offset is maximized with the nuisance intercepts profiled out,
which reduces to Newton scoring on the multinomial log-likelihood.  Weighted
(non-integer) counts are handled as a quasi-likelihood.

Two estimators share one path, ``_fit``, whose Newton loop ``_newton`` alone
decides that a run failed.  ``fit`` is its run with no penalty, from zero.
``fit_smoothed`` is the double-penalty P-spline fit: a second-order difference
penalty along the outcome direction plus a penalty on its null space.  Both
strengths are selected inside the same loop, where each iteration takes one
safeguarded Newton step in their logarithms on the Laplace-approximate REML
criterion of the current quadratic model (Wood 2011) and then a Newton step in
the coefficients.  It starts with the intercept's outcome block at a penalized
fit of the pooled log-histogram.  The CLI and the Monte Carlo study use
``fit_smoothed`` through ``fit_group``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import CovariateBasis, OutcomeBasis, build_covariate_basis, covariate_matrix
from .errors import (ConfigError, ConvergenceError, DataError, DomainError, NumericError,
                     StructuralError)
from .measure_grid import GridSpec

MAX_ITER = 100
DEVIANCE_RTOL = 1e-8


@dataclass(frozen=True)
class CovariateSample:
    """Weighted covariate vectors from one group (empirical distribution).

    The distinct covariate combinations are computed once per tuple of names
    and cached, so the covariate arrays must not be mutated after
    construction.
    """

    covariates: dict[str, np.ndarray]
    weights: np.ndarray
    _distinct: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        covs = {k: np.asarray(v) for k, v in self.covariates.items()}
        object.__setattr__(self, "covariates", covs)
        weights = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise StructuralError("sample weights must be finite and positive")
        object.__setattr__(self, "weights", weights / weights.sum())
        n = len(weights)
        for name, v in covs.items():
            if len(v) != n:
                raise StructuralError(f"covariate '{name}' length mismatch")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.covariates))

    def distinct_rows(self, names) -> tuple[np.ndarray, np.ndarray]:
        """``distinct_rows`` over ``names``, computed once per tuple of names.

        The cached arrays are read-only.
        """
        key = tuple(names)
        if key not in self._distinct:
            first, inverse = distinct_rows(self.covariates, key, len(self))
            first.flags.writeable = inverse.flags.writeable = False
            self._distinct[key] = first, inverse
        return self._distinct[key]

    def unique_rows(self, names=None) -> tuple[list[dict], np.ndarray]:
        """Distinct covariate combinations (over ``names``) with pooled weights."""
        names = self.names if names is None else tuple(names)
        first, weights = self.pooled(names)
        return [{n: self.covariates[n][i] for n in names} for i in first], weights

    def pooled(self, names) -> tuple[np.ndarray, np.ndarray]:
        """One row index per distinct combination over ``names``, and pooled weights.

        Combinations are ordered by their integer codes; each pooled weight
        adds its rows' weights in row order.
        """
        first, inverse = self.distinct_rows(names)
        return first, np.bincount(inverse, weights=self.weights)


@dataclass(frozen=True)
class ObservationTable:
    """Rows (outcome, covariates, weight) for one treatment group.

    ``sample`` holds the covariate rows and weights and ranks their combinations.
    """

    outcomes: np.ndarray
    covariates: dict[str, np.ndarray]
    weights: np.ndarray
    group: str = ""
    sample: CovariateSample = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        object.__setattr__(self, "outcomes", outcomes)
        n = len(outcomes)
        for name, v in self.covariates.items():
            if len(v) != n:
                raise DataError(f"covariate '{name}' has {len(v)} rows, expected {n}")
        weights = np.ones(n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if len(weights) != n:
            raise DataError("weights length does not match outcomes")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise DataError("weights must be finite and positive")
        sample = CovariateSample(self.covariates, weights)
        object.__setattr__(self, "covariates", sample.covariates)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sample", sample)

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class PooledHistogram:
    """Weighted histogram counts per distinct covariate combination.

    ``columns`` holds each covariate's value at the first row of each
    combination, in the order of ``counts``.
    """

    grid: GridSpec
    columns: dict[str, np.ndarray]
    counts: np.ndarray  # (I, n_cells)
    totals: np.ndarray  # (I,) row-weight sums
    n_rows: int = 0  # observations pooled

    @property
    def n_combinations(self) -> int:
        return len(self.counts)


def distinct_rows(covariates: dict, names, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct combination over ``names``, and each row's combination.

    Combinations come in the sorted order of their values, first name most
    significant, whatever the order of the rows.  Each step ranks the combined
    codes ``inverse * L + codes`` by a sort.
    """
    inverse, size = np.zeros(n_rows, dtype=np.intp), 1
    for n in names:
        levels, codes = np.unique(covariates[n], return_inverse=True)
        # recoding each time keeps the combined code below n_rows * L
        unique, inverse = np.unique(inverse * len(levels) + codes.ravel(), return_inverse=True)
        size = len(unique)
    first = np.full(size, n_rows, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(n_rows))
    return first, inverse


def bin_and_pool(data: ObservationTable, grid: GridSpec) -> PooledHistogram:
    """Bin outcomes on the grid and pool rows sharing a covariate combination.

    Combinations come in ``distinct_rows`` order over the sorted covariate
    names, so the histogram does not depend on the order of the rows.
    """
    cells = grid.cell_indices(data.outcomes)
    if np.any(cells < 0):
        i = int(np.argmax(cells < 0))
        raise DataError(f"row {i}: {grid.domain_error(float(data.outcomes[i]))}")
    names = sorted(data.covariates)
    first, inverse = data.sample.distinct_rows(names)
    counts = np.bincount(inverse * grid.n_cells + cells, weights=data.weights,
                         minlength=len(first) * grid.n_cells).reshape(len(first), grid.n_cells)
    return PooledHistogram(
        grid=grid,
        columns={n: data.covariates[n][first] for n in names},
        counts=counts,
        totals=counts.sum(axis=1),
        n_rows=len(data),
    )


@dataclass(frozen=True)
class FittedDensityModel:
    """Estimated coefficients with bases and profiled Fisher information.

    ``fisher_information`` is the Hessian of the penalized objective at the
    estimate (the Fisher information plus the selected penalties), so Wald
    draws use the Bayesian posterior covariance of a penalized fit.
    ``smoothing_parameter`` and ``null_space_parameter`` are the strengths of
    the difference penalty and of its null-space penalty (both 0 for ``fit``);
    ``deviance_trace`` covers every Newton step.
    """

    theta: np.ndarray
    outcome_basis: OutcomeBasis
    covariate_bases: tuple[CovariateBasis, ...]
    fisher_information: np.ndarray = field(repr=False)
    deviance_trace: tuple[float, ...] = ()
    smoothing_parameter: float = 0.0
    null_space_parameter: float = 0.0

    @property
    def grid(self) -> GridSpec:
        return self.outcome_basis.grid

    @property
    def iterations(self) -> int:
        """Newton steps taken: one per entry of ``deviance_trace`` after the first."""
        return len(self.deviance_trace) - 1

    @property
    def n_coefficients(self) -> int:
        return len(self.theta)


def _pooled_matrix(pooled: PooledHistogram, covariate_bases) -> np.ndarray:
    """B_x of the fit: one row b(x) per covariate combination of ``pooled``."""
    return covariate_matrix(list(covariate_bases), pooled.columns, pooled.n_combinations)


def _eta(bx: np.ndarray, theta: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """eta = B_x Theta B_T' (rows x cells), with Theta the coefficients as d_x x d_T."""
    return (bx @ theta.reshape(bx.shape[1], -1)) @ bt.T


def _normalise(eta: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Densities of the rows of ``eta`` (width-weighted softmax) and their log normalisers.

    A normaliser that is not finite and positive raises ``NumericError``.
    """
    top = eta.max(axis=1)
    dens = np.exp(eta - top[:, None])
    norm = dens @ widths
    if not np.all(np.isfinite(norm) & (norm > 0)):
        raise NumericError("density normaliser is not finite and positive")
    dens /= norm[:, None]
    return dens, top + np.log(norm)


def _deviance(eta: np.ndarray, pooled: PooledHistogram) -> tuple[np.ndarray, float]:
    """The densities of the rows of ``eta`` and the deviance -2 loglik."""
    dens, lognorm = _normalise(eta, pooled.grid.widths)
    return dens, -2.0 * float(np.sum(pooled.counts * eta) - np.dot(pooled.totals, lognorm))


#: rows per block of the information product: a block's temporaries stay small
#: enough for the allocator to reuse, where whole-height ones are mapped afresh
#: on every call (twice the time at 2000 rows)
INFORMATION_ROW_BLOCK = 256


def _column_pairs(d: int):
    """Column pairs j <= k of d columns, and the (d, d) map from (j, k) to its pair."""
    first, second = np.triu_indices(d)
    pair = np.empty((d, d), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(len(first))
    return first, second, pair


def _information_kernel(pooled, bx, bt):
    """``kernel(theta, dens=None)``: score and profiled Fisher information at ``theta``.

    For design rows z_ig = b_i kron B_T[g], totals t and cell probabilities P,
    the score is vec(B_x' (N - t P) B_T) and the information
    sum_i t_i [sum_g p_ig z_ig z_ig' - zbar_i zbar_i'], zbar_i = b_i kron m_i,
    m_i = B_T' p_i.  Its entry [(a, k), (b, l)] is

        sum_i b_ia b_ib [sum_g E_ig B_gk B_gl - t_i m_ik m_il],  E = t P,

    symmetric in (a, b) and in (k, l).  So one product (a GEMM per block of
    rows) of the row-wise products of B_x and of B_T over the column pairs
    a <= b and k <= l (Currie, Durban & Eilers 2006) gives both terms of every
    entry, with no (I, n_cells, R) array.  The pair products and the map from
    entries to pairs depend on B_x and B_T alone and are formed here, once per
    fit; an entry and its transpose read the same product, so the information
    is exactly symmetric.  ``dens`` is ``_normalise`` of B_x Theta B_T' at
    ``theta`` when the caller already has it.
    """
    x_first, x_second, x_pair = _column_pairs(bx.shape[1])
    t_first, t_second, t_pair = _column_pairs(bt.shape[1])
    rows_x = bx[:, x_first] * bx[:, x_second]
    rows_t = bt[:, t_first] * bt[:, t_second]
    n_coef = bx.shape[1] * bt.shape[1]
    # information entry [(a, k), (b, l)] is product entry [x_pair[a, b], t_pair[k, l]]
    entries = (x_pair[:, None, :, None] * len(t_first) + t_pair[None, :, None, :]).reshape(
        n_coef, n_coef)
    widths, counts, totals = pooled.grid.widths, pooled.counts, pooled.totals[:, None]

    def kernel(theta, dens=None):
        if dens is None:
            dens = _normalise(_eta(bx, theta, bt), widths)[0]
        probs = dens * widths
        expected = totals * probs
        score = (bx.T @ (counts - expected) @ bt).ravel()
        m = probs @ bt
        tm = totals * m
        pairs = np.zeros((len(x_first), len(t_first)))
        for start in range(0, len(bx), INFORMATION_ROW_BLOCK):
            rows = slice(start, start + INFORMATION_ROW_BLOCK)
            pairs += rows_x[rows].T @ (expected[rows] @ rows_t
                                       - tm[rows, t_first] * m[rows, t_second])
        return score, pairs.ravel()[entries]

    return kernel


#: past this max|theta| a run is drifting to an estimate at infinity
DIVERGENCE_CAP = 1e5
#: a run stops only once its last accepted step moves no coefficient by more than
#: this times 1 + max|theta|: where the estimate lies at infinity the deviance
#: stalls while the steps do not shrink
STEP_RTOL = 1e-6
#: |lambda_j theta'S_j theta - edf_j| is the slope of the REML criterion in
#: log lambda_j; it vanishes at a finite optimum and as lambda_j -> infinity
SELECTION_TOL = 1e-5
#: the largest move of one log lambda_j in one iteration
MAX_LOG_LAMBDA_STEP = 5.0
#: step halvings of the line searches in theta and in log lambda
MAX_HALVINGS = 40


def _solve(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular information matrix: {exc}") from exc


def _log_det(hessian):
    """log|H| from the Cholesky factor of H, or None where H is not positive definite."""
    try:
        return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(hessian)))))
    except np.linalg.LinAlgError:
        return None


def _select(info, b, lams, weights):
    """One safeguarded Newton step in rho = log lambda on the REML of the working model.

    At the current theta the penalized deviance is the quadratic with
    Hessian H = I + sum_j lambda_j S_j and minimizer theta_lambda = H^-1 b,
    b = I theta + score.  Its Laplace-approximate REML criterion

        V(rho) = -b'theta_lambda + log|H| - sum_j rank(S_j) rho_j

    has, with M_j = lambda_j H^-1 S_j and u_j = lambda_j S_j theta_lambda
    (Wood 2011),

        dV/drho_j = theta_lambda'u_j - edf_j,  edf_j = tr(Pi_j H^-1 I)
        d2V/drho_j drho_k = delta_jk (theta_lambda'u_j + tr M_j)
                            - 2 u_j'H^-1 u_k - tr(M_j M_k)

    from d theta_lambda / d rho_k = -H^-1 u_k.  The penalties are diagonal,
    S_j = diag(``weights[j]``) with disjoint nonzero entries, so rank(S_j)
    counts them, Pi_j is their indicator and all but H^-1 costs O(R^2).  The
    step is Newton's along the eigenvectors of positive curvature and as long
    as allowed along the others, where the quadratic model has no minimum; it
    moves no rho_j by more than ``MAX_LOG_LAMBDA_STEP`` and is halved until V
    does not increase.  Each trial lambda costs one Cholesky factor and one
    solve, which gives theta_lambda there.

    Returns (lambdas, theta_lambda at them, settled), settled when every
    |dV/drho_j| <= ``SELECTION_TOL`` at the current lambdas, which are then kept.
    """
    ranks = np.count_nonzero(weights, axis=1)
    hessian = info + np.diag(lams @ weights)
    inverse = _solve(hessian, np.eye(len(b)))
    target = inverse @ b
    # diag(H^-1 I) from the symmetric I: tr(Pi_j H^-1 I) has no cancellation at large lambda_j
    edfs = (weights > 0) @ np.sum(inverse * info, axis=1)
    scaled = lams[:, None] * weights
    us = scaled * target
    quads = us @ target
    grad = quads - edfs
    if np.all(np.abs(grad) <= SELECTION_TOL):
        return lams, target, True
    curv = (np.diag(quads + scaled @ np.diag(inverse)) - 2.0 * us @ inverse @ us.T
            - scaled @ (inverse * inverse) @ scaled.T)
    eigvals, eigvecs = np.linalg.eigh(curv)
    along = eigvecs.T @ grad
    convex = eigvals > 1e-12
    delta = -eigvecs @ np.where(convex, along / np.where(convex, eigvals, 1.0),
                                np.sign(along) * MAX_LOG_LAMBDA_STEP)
    delta *= min(1.0, MAX_LOG_LAMBDA_STEP / np.max(np.abs(delta)))
    log_det = _log_det(hessian)
    if log_det is None:
        raise NumericError("penalized information matrix is not positive definite")
    value = -b @ target + log_det - ranks @ np.log(lams)
    for _ in range(MAX_HALVINGS):
        trial = lams * np.exp(delta)
        trial_hessian = info + np.diag(trial @ weights)
        log_det = _log_det(trial_hessian)
        if log_det is not None:
            trial_target = _solve(trial_hessian, b)
            trial_value = -b @ trial_target + log_det - ranks @ np.log(trial)
            if trial_value <= value + 1e-13 * (abs(value) + 1.0):
                return trial, trial_target, False
        delta *= 0.5
    return lams, target, False


def _newton(theta0, pooled, bx, bt, weights):
    """Newton scoring on the penalized multinomial deviance, selecting its penalties.

    ``weights`` holds J nonnegative rows over all coefficients: the penalties
    are diagonal, S_j = diag(``weights[j]``), with disjoint nonzero entries.
    The objective is ``-2 loglik + sum_j lambda_j theta'S_j theta``.  Each
    iteration computes the score and information once.  Unless the selection
    has settled, ``_select`` then takes one safeguarded Newton step in
    log lambda, from lambda_j = 1, on the Laplace-approximate REML of the
    quadratic model of the deviance at theta (Wood 2011); its stationary
    point is the Fellner--Schall fixed point lambda_j theta'S_j theta = edf_j.
    Last comes a step-halved Newton step in theta at the updated lambdas,
    towards the minimizer of that quadratic model.  The run stops once the
    selection has settled, the step moves the deviance by less than
    ``DEVIANCE_RTOL`` and no coefficient by more than ``STEP_RTOL`` times
    1 + max|theta|; with no rows (J = 0) it is plain Newton scoring.

    Returns (theta, trace, lambdas, H), with H recomputed at the returned theta.
    Raises ``NumericError`` once max|theta| passes ``DIVERGENCE_CAP`` and
    ``ConvergenceError`` when ``MAX_ITER`` iterations do not converge.
    """
    kernel = _information_kernel(pooled, bx, bt)
    lams = np.ones(len(weights))

    def penalized(fit_dev, theta):
        return fit_dev + float(lams @ weights @ theta ** 2)

    theta = np.asarray(theta0, dtype=float).copy()
    # each candidate is normalised once: the accepted one's densities and
    # -2 loglik serve the next iteration's kernel and line search
    dens, fit_dev = _deviance(_eta(bx, theta, bt), pooled)
    dev = penalized(fit_dev, theta)
    trace = [dev]
    for _ in range(MAX_ITER):
        score, info = kernel(theta, dens)
        settled = True
        if len(weights):
            lams, target, settled = _select(info, info @ theta + score, lams, weights)
            step = target - theta
            dev = penalized(fit_dev, theta)
        else:
            step = _solve(info, score)
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = theta + scale * step
            cand_dens, cand_fit = _deviance(_eta(bx, cand, bt), pooled)
            cand_dev = penalized(cand_fit, cand)
            if cand_dev <= dev + 1e-13 * (abs(dev) + 1.0):
                break
            scale *= 0.5
        else:
            cand, cand_dens, cand_fit, cand_dev = theta, dens, fit_dev, dev
        rel_change = abs(dev - cand_dev) / (abs(dev) + 0.1)
        moved = np.max(np.abs(cand - theta))
        theta, dens, fit_dev, dev = cand, cand_dens, cand_fit, cand_dev
        trace.append(dev)
        if np.max(np.abs(theta)) > DIVERGENCE_CAP:
            raise NumericError(
                f"coefficients diverging past {DIVERGENCE_CAP:g} (likely separation)"
            )
        if (settled and rel_change < DEVIANCE_RTOL
                and moved <= STEP_RTOL * (1.0 + np.max(np.abs(theta)))):
            return theta, trace, lams, kernel(theta, dens)[1] + np.diag(lams @ weights)
    raise ConvergenceError(f"did not converge in {MAX_ITER} iterations", trace=trace)


def _warm_start(pooled, covariate_bases, bt, block):
    """Coefficients zero but for the intercept's outcome block, fitted to the pooled log-histogram.

    The block minimizes sum_g c_g (log(c_g / w_g) - c - B_T[g] a)^2 + a'S a over
    (c, a), for the pooled counts c_g, cell widths w_g and the diagonal
    penalty S = diag(sum_j W_j) at every lambda_j = 1: the first step of the
    Poisson log-linear fit from the saturated one, which weighs each cell as
    the likelihood does.  Without an intercept or without penalty rows all
    coefficients are zero.
    """
    d_t = bt.shape[1]
    theta = np.zeros(sum(cb.n_columns for cb in covariate_bases) * d_t)
    kinds = [cb.spec.kind for cb in covariate_bases]
    if "intercept" not in kinds or not len(block):
        return theta
    offset = d_t * sum(cb.n_columns for cb in covariate_bases[:kinds.index("intercept")])
    counts = pooled.counts.sum(axis=0)
    seen = counts > 0
    logs = np.zeros(len(counts))
    logs[seen] = np.log(counts[seen] / pooled.grid.widths[seen])
    design = np.hstack([np.ones((len(counts), 1)), bt])
    normal = design.T @ (counts[:, None] * design)
    normal[1:, 1:] += np.diag(block.sum(axis=0))
    theta[offset:offset + d_t] = _solve(normal, design.T @ (counts * logs))[1:]
    return theta


def _fit(pooled, covariate_bases, outcome_basis, rotation, block):
    """Run ``_newton`` on weights rescaled to sum to the row count.

    The likelihood treats weights as counts, so the rescaling keeps the Hessian
    and the selected lambdas (lambda = 1 weighs one row) free of their scale.
    It runs from ``_warm_start`` on B_T V, for the ``rotation`` V, with the
    rows of ``block`` (J x d_T) as penalties on every covariate column, and
    maps phi and H back once.
    """
    if not np.any(pooled.counts > 0):
        raise DataError("no positive counts to fit")
    scale = pooled.n_rows / pooled.totals.sum()
    pooled = replace(pooled, counts=pooled.counts * scale, totals=pooled.totals * scale)
    bx, bt = _pooled_matrix(pooled, covariate_bases), outcome_basis.matrix @ rotation
    phi, trace, lams, hessian = _newton(_warm_start(pooled, covariate_bases, bt, block),
                                        pooled, bx, bt, np.tile(block, bx.shape[1]))
    back = np.kron(np.eye(bx.shape[1]), rotation)
    theta, hessian = back @ phi, back @ hessian @ back.T
    lam, lam0 = np.pad(lams, (0, 2 - len(lams)))  # 0 and 0 where no penalty rows
    return FittedDensityModel(
        theta=theta,
        outcome_basis=outcome_basis,
        covariate_bases=tuple(covariate_bases),
        fisher_information=hessian,
        deviance_trace=tuple(trace),
        smoothing_parameter=float(lam),
        null_space_parameter=float(lam0),
    )


def fit(
    pooled: PooledHistogram,
    covariate_bases,
    outcome_basis: OutcomeBasis,
) -> FittedDensityModel:
    """Maximize the profiled Poisson (= multinomial) likelihood by Newton scoring.

    Plain Newton scoring from zero (``_fit`` with the identity rotation and no
    penalty rows), so the estimate is the exact maximizer and the stored
    Hessian is the information at it (for weights rescaled to sum to the row
    count).  Where that maximizer lies at infinity (a covariate subgroup with
    an empty span of outcome cells) the coefficients drift with steps that do
    not shrink, so the run raises: a ``NumericError`` once they pass
    ``DIVERGENCE_CAP`` or the information turns singular, else a
    ``ConvergenceError``.  ``fit_smoothed`` has an interior estimate there.
    """
    d_t = outcome_basis.n_columns
    return _fit(pooled, covariate_bases, outcome_basis, np.eye(d_t), np.zeros((0, d_t)))


def _outcome_penalty(outcome_basis: OutcomeBasis) -> np.ndarray:
    """D'D on the outcome columns: the block of ``difference_penalty`` for one covariate column."""
    n_splines = outcome_basis.spline_count
    raw = np.diff(np.eye(n_splines), n=2, axis=0)
    # the basis keeps every raw column but the last, and the splines come first
    kept = min(n_splines, outcome_basis.n_columns)
    diff = np.zeros((len(raw), outcome_basis.n_columns))
    diff[:, :kept] = raw[:, :kept]
    return diff.T @ diff


def difference_penalty(covariate_bases, outcome_basis: OutcomeBasis) -> np.ndarray:
    """Second-order difference penalty ``S = I_{d_x} kron D'D`` on the coefficients.

    D takes second differences of the raw outcome B-spline coefficients, with
    the column the outcome basis drops held at zero; atom indicator columns
    are not penalized.  The null space of S holds, per effect, the tilt
    ``sum_k k B_k(y)`` (linear in y away from the clamped boundary knots),
    the atom columns, and with atoms present the level of the continuous part.
    """
    d_x = sum(cb.n_columns for cb in covariate_bases)
    return np.kron(np.eye(d_x), _outcome_penalty(outcome_basis))


def fit_smoothed(
    pooled: PooledHistogram,
    covariate_bases,
    outcome_basis: OutcomeBasis,
) -> FittedDensityModel:
    """Double-penalty P-spline fit with both penalties selected from the data.

    Maximizes ``loglik - lambda/2 theta'S theta - lambda_0/2 theta'S_0 theta``
    for the difference penalty S of ``difference_penalty`` and S_0 = U_0 U_0'
    on its null space U_0, the "double penalty" of Marra & Wood (2011).  Every
    direction is then held, so a covariate subgroup with an empty span of
    outcome cells still gets an interior estimate.  ``_newton`` selects lambda
    and lambda_0 by REML in its one loop, within ``MAX_ITER`` iterations.
    """
    eigvals, eigvecs = np.linalg.eigh(_outcome_penalty(outcome_basis))
    penalized = eigvals > 1e-10 * eigvals.max()
    if not penalized.any():
        raise ConfigError("the outcome basis has no spline coefficients to penalize")
    weights = np.array([np.where(penalized, eigvals, 0.0), (~penalized).astype(float)])
    return _fit(pooled, covariate_bases, outcome_basis, eigvecs, weights)


def fit_group(table: ObservationTable, effects,
              outcome_basis: OutcomeBasis) -> FittedDensityModel:
    """``fit_smoothed`` on ``table`` pooled on the outcome grid, one basis per effect.

    A smooth basis is centred over the table's rows, so it is built from
    them; a categorical basis only checks its levels, so the pooled column
    stands in for the rows.
    """
    pooled = bin_and_pool(table, outcome_basis.grid)
    bases = []
    for spec in effects:
        name = spec.covariate_name
        if spec.kind != "intercept" and name not in table.covariates:
            raise DataError(f"missing covariate '{name}'")
        source = table.covariates if spec.kind == "smooth" else pooled.columns
        bases.append(build_covariate_basis(spec, source.get(name, [None])))
    return fit_smoothed(pooled, bases, outcome_basis)


def predict_densities(
    model: FittedDensityModel,
    bx: np.ndarray,
    theta: np.ndarray | None = None,
) -> np.ndarray:
    """Conditional densities (I x n_cells), one per row of the I x d_x matrix B_x.

    The package's one prediction path: eta = B_x Theta B_T', with Theta the
    coefficients as a d_x x d_T matrix, then a width-weighted softmax per
    row.  A normaliser that is not finite and positive raises ``NumericError``.
    """
    th = model.theta if theta is None else theta
    return _normalise(_eta(bx, th, model.outcome_basis.matrix), model.grid.widths)[0]


def sample_theta(
    model: FittedDensityModel,
    alpha: float,
    B: int,
    seed: int,
) -> np.ndarray:
    """Draw B coefficient vectors, the rows of a B x R array, from the Wald region.

    Rejection sampling from N(theta_hat, I^{-1}) restricted to
    {theta : (theta - theta_hat)' I (theta - theta_hat) <= chi2_{R,1-alpha}},
    which holds 1 - alpha >= 1/2 of the mass for alpha in (0, 0.5]: a band at
    a lower level is no confidence band, and rejection takes at most 2B
    proposals in expectation.  Deterministic given the seed.
    """
    if not 0 < alpha <= 0.5:
        raise DomainError(f"alpha must be in (0, 0.5], got {alpha}")
    if B < 0:
        raise DomainError(f"B must be >= 0, got {B}")
    R = model.n_coefficients
    if B == 0:
        return np.zeros((0, R))
    try:
        L = np.linalg.cholesky(model.fisher_information + 1e-10 * np.eye(R))
    except np.linalg.LinAlgError as exc:
        raise NumericError("Fisher information not positive definite") from exc
    # z ~ N(0, I_R); theta = theta_hat + L^{-T} z has the target covariance and
    # Mahalanobis norm ||z||^2, so the ellipsoid test reduces to a chi2 bound.
    bound = wald_ellipsoid_radius(model, alpha)
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    while len(accepted) < B:
        z = rng.standard_normal(R)
        if float(z @ z) <= bound:
            accepted.append(z)
    return model.theta + np.linalg.solve(L.T, np.array(accepted).T).T


def wald_ellipsoid_radius(model: FittedDensityModel, alpha: float) -> float:
    """The chi2 quantile with R degrees of freedom and upper tail ``alpha``.

    For integer R the upper tail Q(R/2, x/2) is a finite sum of positive
    terms (Abramowitz & Stegun 26.4.4-5), taken in log space, plus an erfc
    head when R is odd.  It decreases in x, so the quantile is found by
    doubling and then bisecting to the last bit.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    R = model.n_coefficients
    powers = np.arange(R // 2) + 0.5 * (R % 2)
    log_gamma = np.array([math.lgamma(p + 1) for p in powers])

    def upper_tail(x):
        h = x / 2
        head = math.erfc(math.sqrt(h)) if R % 2 else 0.0
        return head + float(np.exp(powers * math.log(h) - h - log_gamma).sum())

    lo, hi = 0.0, float(R)
    while upper_tail(hi) > alpha:
        lo, hi = hi, 2 * hi
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if upper_tail(mid) > alpha else (lo, mid)
    return hi
