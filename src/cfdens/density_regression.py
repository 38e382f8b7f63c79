"""Additive density regression fitted through the multinomial/Poisson trick.

Observations are binned on the outcome grid and pooled by unique covariate
combination.  The Poisson model with a free intercept per combination and a
log bin-width offset is maximized with the nuisance intercepts profiled out,
which reduces to Newton scoring on the multinomial log-likelihood.  Weighted
(non-integer) counts are handled as a quasi-likelihood.

Two estimators share one Newton loop, ``_newton``, which alone decides that a
run failed.  ``fit`` is the plain maximum likelihood estimate.  ``fit_smoothed``
is the double-penalty P-spline fit: a second-order difference penalty along
the outcome direction plus a penalty on its null space, both strengths
selected inside the same loop by the generalized Fellner--Schall update.  The
CLI and the Monte Carlo study use ``fit_smoothed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import CovariateBasis, OutcomeBasis, covariate_matrix, design_row
from .errors import ConfigError, ConvergenceError, DataError, DomainError, NumericError
from .measure_grid import ClrFunction, GridDensity, GridSpec, density_from_clr_values

MAX_ITER = 100
DEVIANCE_RTOL = 1e-8


@dataclass(frozen=True)
class ObservationTable:
    """Rows (outcome, covariates, weight) for one treatment group.

    The distinct covariate combinations are computed once per tuple of names
    and cached, so the covariate arrays must not be mutated after
    construction.
    """

    outcomes: np.ndarray
    covariates: dict[str, np.ndarray]
    weights: np.ndarray
    group: str = ""
    _distinct: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        object.__setattr__(self, "outcomes", outcomes)
        n = len(outcomes)
        covs = {k: np.asarray(v) for k, v in self.covariates.items()}
        object.__setattr__(self, "covariates", covs)
        for name, v in covs.items():
            if len(v) != n:
                raise DataError(f"covariate '{name}' has {len(v)} rows, expected {n}")
        if self.weights is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(self.weights, dtype=float)
        if len(weights) != n:
            raise DataError("weights length does not match outcomes")
        if np.any(weights <= 0):
            raise DataError("weights must be positive")
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.outcomes)

    def distinct_rows(self, names) -> tuple[np.ndarray, np.ndarray]:
        """``distinct_rows`` of this table over ``names``, from the cache."""
        return cached_distinct_rows(self._distinct, self.covariates, names, len(self))


@dataclass(frozen=True)
class PooledHistogram:
    """Weighted histogram counts per unique covariate combination."""

    grid: GridSpec
    combinations: tuple[dict, ...]
    counts: np.ndarray  # (I, n_cells)
    totals: np.ndarray  # (I,) row-weight sums
    n_rows: int = 0  # observations pooled

    @property
    def n_combinations(self) -> int:
        return len(self.combinations)


def distinct_rows(covariates: dict, names, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct combination over ``names``, and each row's combination.

    Combinations come in the sorted order of their values, first name most
    significant, whatever the order of the rows.  Each step ranks the combined
    codes ``inverse * L + codes``: by a table of the codes present where it
    has at most ``4 * n_rows`` entries, else by a sort.
    """
    inverse, size = np.zeros(n_rows, dtype=np.intp), 1
    for n in names:
        levels, codes = np.unique(covariates[n], return_inverse=True)
        # recoding each time keeps the combined code below n_rows * L
        combined = inverse * len(levels) + codes.ravel()
        if size * len(levels) <= 4 * n_rows:
            present = np.zeros(size * len(levels), dtype=bool)
            present[combined] = True
            inverse = (np.cumsum(present, dtype=np.intp) - 1)[combined]
            size = int(np.count_nonzero(present))
        else:
            unique, inverse = np.unique(combined, return_inverse=True)
            size = len(unique)
    first = np.full(size, n_rows, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(n_rows))
    return first, inverse


def cached_distinct_rows(cache: dict, covariates: dict, names,
                         n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``distinct_rows`` over ``names``, computed once per ``cache`` and tuple of names.

    The cached arrays are read-only.
    """
    key = tuple(names)
    if key not in cache:
        first, inverse = distinct_rows(covariates, key, n_rows)
        first.flags.writeable = inverse.flags.writeable = False
        cache[key] = first, inverse
    return cache[key]


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
    first, inverse = data.distinct_rows(names)
    counts = np.bincount(inverse * grid.n_cells + cells, weights=data.weights,
                         minlength=len(first) * grid.n_cells).reshape(len(first), grid.n_cells)
    return PooledHistogram(
        grid=grid,
        combinations=tuple({n: data.covariates[n][i] for n in names} for i in first),
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
    ``iterations`` and ``deviance_trace`` cover every Newton step.
    """

    theta: np.ndarray
    outcome_basis: OutcomeBasis
    covariate_bases: tuple[CovariateBasis, ...]
    grid: GridSpec
    fisher_information: np.ndarray = field(repr=False)
    deviance_trace: tuple[float, ...] = ()
    converged: bool = True
    iterations: int = 0
    smoothing_parameter: float = 0.0
    null_space_parameter: float = 0.0

    @property
    def n_coefficients(self) -> int:
        return len(self.theta)


def _pooled_matrix(pooled: PooledHistogram, covariate_bases) -> np.ndarray:
    """B_x of the fit: one row b(x) per covariate combination of ``pooled``."""
    columns = {n: np.array([c[n] for c in pooled.combinations]) for n in pooled.combinations[0]}
    return covariate_matrix(list(covariate_bases), columns, pooled.n_combinations)


def _eta(bx: np.ndarray, theta: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """eta = B_x Theta B_T' (rows x cells), with Theta the coefficients as d_x x d_T."""
    return (bx @ theta.reshape(bx.shape[1], -1)) @ bt.T


def _softmax(eta: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Densities from each row of ``eta`` by a width-weighted softmax; checks the normaliser."""
    unnorm = np.exp(eta - eta.max(axis=1, keepdims=True))
    norm = unnorm @ widths
    if not np.all(np.isfinite(norm) & (norm > 0)):
        raise NumericError("density normaliser is not finite and positive")
    return unnorm / norm[:, None]


def class_probabilities(
    theta: np.ndarray,
    design_block: np.ndarray,
    grid: GridSpec,
) -> np.ndarray:
    """Cell probabilities for one combination: width-weighted softmax."""
    return _softmax((design_block @ theta)[None], grid.widths)[0] * grid.widths


def multinomial_loglik(
    theta: np.ndarray,
    pooled: PooledHistogram,
    covariate_bases,
    outcome_basis: OutcomeBasis,
) -> float:
    """Grid-based (multinomial) log-likelihood, dropping the bin-width constants."""
    bx = _pooled_matrix(pooled, covariate_bases)
    return _loglik(_eta(bx, theta, outcome_basis.matrix), pooled)


def _loglik(eta: np.ndarray, pooled: PooledHistogram) -> float:
    lognorm = _log_quadrature_norm(eta, pooled.grid.widths)
    return float(np.sum(pooled.counts * eta) - np.dot(pooled.totals, lognorm))


def _log_quadrature_norm(eta: np.ndarray, widths: np.ndarray) -> np.ndarray:
    m = eta.max(axis=-1, keepdims=True)
    return (m + np.log(np.sum(widths * np.exp(eta - m), axis=-1, keepdims=True)))[..., 0]


def bayes_loglik(
    theta: np.ndarray,
    data: ObservationTable,
    covariate_bases,
    outcome_basis: OutcomeBasis,
    quadrature_points: int = 10_000,
) -> float:
    """Bayes space log-likelihood with exact outcome evaluation.

    The normalizing integral uses a fine midpoint quadrature independent of
    the fitting grid; used for diagnostics, not for fitting.
    """
    grid = outcome_basis.grid
    points, widths = list(grid.atom_locations), list(grid.widths[grid.n_continuous:])
    if outcome_basis.interval is not None:
        a, b = outcome_basis.interval
        points[:0] = np.linspace(a, b, 2 * quadrature_points + 1)[1::2]
        widths[:0] = [(b - a) / quadrature_points] * quadrature_points

    bx = covariate_matrix(list(covariate_bases), data.covariates, len(data))
    coef = bx @ theta.reshape(-1, outcome_basis.n_columns)
    eta_y = np.sum(coef * outcome_basis.evaluate_many(data.outcomes), axis=1)
    # rows in blocks, so the rows x quadrature-points array stays small
    step, eval_basis = max(1, (1 << 20) // len(points)), outcome_basis.evaluate_many(points)
    lognorm = [
        _log_quadrature_norm(coef[i: i + step] @ eval_basis.T, np.array(widths))
        for i in range(0, len(data), step)
    ]
    return float(data.weights @ (eta_y - np.concatenate(lognorm)))


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
    """``kernel(theta, eta=None)``: score and profiled Fisher information at ``theta``.

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
    is exactly symmetric.  ``eta`` is B_x Theta B_T' at ``theta`` when the
    caller already has it.
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

    def kernel(theta, eta=None):
        if eta is None:
            eta = _eta(bx, theta, bt)
        probs = _softmax(eta, widths) * widths
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
#: |lambda_j theta'S_j theta - edf_j| is twice the slope of the Laplace-approximate
#: REML criterion in log lambda_j; it vanishes at a finite optimum and as
#: lambda_j -> infinity
SELECTION_TOL = 1e-5
#: the selection converges linearly, slowly where REML is flat in lambda
MAX_SELECTION_ITER = 1000


def _solve(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular information matrix: {exc}") from exc


def _newton(theta0, pooled, bx, bt, penalties=(), max_iter=MAX_ITER):
    """Newton scoring on the penalized multinomial deviance, selecting its penalties.

    The objective is ``-2 loglik + sum_j lambda_j theta'S_j theta`` over the
    pairs (S_j, Pi_j) of ``penalties``, Pi_j the projector onto range(S_j).
    Each iteration computes the score and information I once, then, unless
    the selection has settled, takes the generalized Fellner--Schall update
    (Wood & Fasiolo 2017) from lambda_j = 1

        lambda_j <- edf_j / theta'S_j theta,  edf_j = tr(Pi_j H^-1 I),  H = I + sum_j lambda_j S_j

    (rank S_j - lambda_j tr(H^-1 S_j) for disjoint ranges, without its
    cancellation at large lambda_j), and then a step-halved Newton step at the
    updated lambdas.  It stops once every |lambda_j theta'S_j theta - edf_j| <=
    ``SELECTION_TOL`` and the step moves the deviance by less than
    ``DEVIANCE_RTOL``; with no penalties it is plain Newton scoring.

    Returns (theta, trace, lambdas, H), with H recomputed at the returned theta.
    Raises ``NumericError`` once max|theta| passes ``DIVERGENCE_CAP`` and
    ``ConvergenceError`` when ``max_iter`` iterations do not converge.
    """

    def fit_deviance(th):
        """eta at ``th`` and the unpenalized deviance -2 loglik."""
        eta = _eta(bx, th, bt)
        return eta, -2.0 * _loglik(eta, pooled)

    kernel = _information_kernel(pooled, bx, bt)
    theta = np.asarray(theta0, dtype=float).copy()
    lams = np.ones(len(penalties))
    total = sum((lam * S for lam, (S, _) in zip(lams, penalties)), np.zeros((len(theta),) * 2))
    # eta and -2 loglik of the current theta carry over to the next iteration
    eta, fit_dev = fit_deviance(theta)
    dev = fit_dev + float(theta @ total @ theta)
    trace = [dev]
    for _ in range(max_iter):
        score, info = kernel(theta, eta)
        settled = True
        if penalties:
            quads = np.array([theta @ S @ theta for S, _ in penalties])
            # edf_j = tr(Pi_j X) for X = H^-1 I: the entrywise sum of Pi_j * X'
            reduced = _solve(info + total, info).T
            edfs = np.array([np.sum(proj * reduced) for _, proj in penalties])
            settled = bool(np.all(np.abs(lams * quads - edfs) <= SELECTION_TOL))
            if not settled and theta.any():  # at a zero start theta'S theta is 0
                if not (np.all(edfs > 0) and np.all(quads > 0)):
                    raise NumericError(
                        f"degenerate smoothing-parameter update (edf {edfs}, "
                        f"theta'S theta {quads})"
                    )
                lams = edfs / quads
                total = sum(lam * S for lam, (S, _) in zip(lams, penalties))
                dev = fit_dev + float(theta @ total @ theta)
        step = _solve(info + total, score - total @ theta)
        scale = 1.0
        for _ in range(40):
            cand = theta + scale * step
            cand_eta, cand_fit = fit_deviance(cand)
            cand_dev = cand_fit + float(cand @ total @ cand)
            if cand_dev <= dev + 1e-13 * (abs(dev) + 1.0):
                break
            scale *= 0.5
        else:
            cand, cand_eta, cand_fit, cand_dev = theta, eta, fit_dev, dev
        rel_change = abs(dev - cand_dev) / (abs(dev) + 0.1)
        theta, eta, fit_dev, dev = cand, cand_eta, cand_fit, cand_dev
        trace.append(dev)
        if np.max(np.abs(theta)) > DIVERGENCE_CAP:
            raise NumericError(
                f"coefficients diverging past {DIVERGENCE_CAP:g} (likely separation)"
            )
        if settled and rel_change < DEVIANCE_RTOL:
            return theta, trace, lams, kernel(theta, eta)[1] + total
    raise ConvergenceError(f"did not converge in {max_iter} iterations", trace=trace)


def _fit(pooled, covariate_bases, outcome_basis, penalties=(), max_iter=MAX_ITER):
    """Run ``_newton`` from zero on weights rescaled to sum to the row count.

    The likelihood treats weights as counts, so the rescaling keeps the Hessian
    and the selected lambdas (lambda = 1 weighs one row) free of their scale.
    """
    if not np.any(pooled.counts > 0):
        raise DataError("no positive counts to fit")
    scale = pooled.n_rows / pooled.totals.sum()
    pooled = replace(pooled, counts=pooled.counts * scale, totals=pooled.totals * scale)
    bx, bt = _pooled_matrix(pooled, covariate_bases), outcome_basis.matrix
    theta, trace, lams, hessian = _newton(
        np.zeros(bx.shape[1] * bt.shape[1]), pooled, bx, bt, penalties, max_iter
    )
    lam, lam0 = lams if penalties else (0.0, 0.0)
    return FittedDensityModel(
        theta=theta,
        outcome_basis=outcome_basis,
        covariate_bases=tuple(covariate_bases),
        grid=pooled.grid,
        fisher_information=hessian,
        deviance_trace=tuple(trace),
        iterations=len(trace) - 1,
        smoothing_parameter=float(lam),
        null_space_parameter=float(lam0),
    )


def fit(
    pooled: PooledHistogram,
    covariate_bases,
    outcome_basis: OutcomeBasis,
) -> FittedDensityModel:
    """Maximize the profiled Poisson (= multinomial) likelihood by Newton scoring.

    Plain Newton scoring from zero, with no penalty, so the estimate is the
    exact maximizer and the stored Hessian is the information at it (for
    weights rescaled to sum to the row count).  Where that maximizer lies at
    infinity (a covariate subgroup with an empty span of outcome cells) the
    coefficients drift: the run raises ``NumericError`` once they pass
    ``DIVERGENCE_CAP``, or stops at a boundary estimate once the deviance
    stalls.  ``fit_smoothed`` has an interior estimate there.
    """
    return _fit(pooled, covariate_bases, outcome_basis)


def difference_penalty(covariate_bases, outcome_basis: OutcomeBasis) -> np.ndarray:
    """Second-order difference penalty ``S = I_{d_x} kron D'D`` on the coefficients.

    D takes second differences of the raw outcome B-spline coefficients, with
    the column the outcome basis drops held at zero; atom indicator columns
    are not penalized.  The null space of S holds, per effect, the tilt
    ``sum_k k B_k(y)`` (linear in y away from the clamped boundary knots),
    the atom columns, and with atoms present the level of the continuous part.
    """
    n_splines = outcome_basis.spline_count
    raw = np.diff(np.eye(n_splines), n=2, axis=0)
    diff = np.zeros((len(raw), outcome_basis.n_columns))
    for col, k in enumerate(outcome_basis.kept):
        if k < n_splines:
            diff[:, col] = raw[:, k]
    d_x = sum(cb.n_columns for cb in covariate_bases)
    return np.kron(np.eye(d_x), diff.T @ diff)


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
    and lambda_0 in its one loop, within ``MAX_SELECTION_ITER`` iterations.
    """
    S = difference_penalty(covariate_bases, outcome_basis)
    eigvals, eigvecs = np.linalg.eigh(S)
    penalized = eigvals > 1e-10 * eigvals.max()
    if not penalized.any():
        raise ConfigError("the outcome basis has no spline coefficients to penalize")
    u_pen, u_null = eigvecs[:, penalized], eigvecs[:, ~penalized]
    null = u_null @ u_null.T
    return _fit(pooled, covariate_bases, outcome_basis,
                ((S, u_pen @ u_pen.T), (null, null)), MAX_SELECTION_ITER)


def fit_table(
    data: ObservationTable,
    covariate_bases,
    outcome_basis: OutcomeBasis,
) -> FittedDensityModel:
    """Convenience: bin, pool, and fit in one call."""
    return fit(bin_and_pool(data, outcome_basis.grid), covariate_bases, outcome_basis)


def predict_density(
    model: FittedDensityModel,
    x: dict,
    theta: np.ndarray | None = None,
) -> GridDensity:
    """Conditional density at covariates ``x`` (optionally with other coefficients)."""
    th = model.theta if theta is None else theta
    eta = design_row(list(model.covariate_bases), model.outcome_basis, x) @ th
    return density_from_clr_values(model.grid, eta)


def predict_densities(
    model: FittedDensityModel,
    bx: np.ndarray,
    theta: np.ndarray | None = None,
) -> np.ndarray:
    """Conditional densities (I x n_cells), one per row of the I x d_x matrix B_x.

    The array form of ``predict_density``: eta = B_x Theta B_T', with Theta
    the coefficients as a d_x x d_T matrix, then a width-weighted softmax per
    row.  A normaliser that is not finite and positive raises ``NumericError``.
    """
    th = model.theta if theta is None else theta
    return _softmax(_eta(bx, th, model.outcome_basis.matrix), model.grid.widths)


def predict_partial(model: FittedDensityModel, j: int, x_j) -> ClrFunction:
    """clr contribution of effect ``j`` alone at covariate value ``x_j``."""
    bases = model.covariate_bases
    if not 0 <= j < len(bases):
        raise DataError(f"effect index {j} out of range")
    first = sum(b.n_columns for b in bases[:j])
    coef = model.theta.reshape(-1, model.outcome_basis.n_columns)[first: first + bases[j].n_columns]
    return ClrFunction(model.grid, model.outcome_basis.matrix @ (bases[j].evaluate(x_j) @ coef))


def sample_theta(
    model: FittedDensityModel,
    alpha: float,
    B: int,
    seed: int,
) -> list[np.ndarray]:
    """Draw coefficients from the Gaussian truncated to the Wald ellipsoid.

    Rejection sampling from N(theta_hat, I^{-1}) restricted to
    {theta : (theta - theta_hat)' I (theta - theta_hat) <= chi2_{R,1-alpha}}.
    Deterministic given the seed.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if B == 0:
        return []
    R = model.n_coefficients
    try:
        L = np.linalg.cholesky(model.fisher_information + 1e-10 * np.eye(R))
    except np.linalg.LinAlgError as exc:
        raise NumericError("Fisher information not positive definite") from exc
    if 1.0 - alpha < 1e-6:
        # degenerate region: the ellipsoid shrinks to the point estimate
        return [model.theta.copy() for _ in range(B)]
    # z ~ N(0, I_R); theta = theta_hat + L^{-T} z has the target covariance and
    # Mahalanobis norm ||z||^2, so the ellipsoid test reduces to a chi2 bound.
    bound = wald_ellipsoid_radius(model, alpha)
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    while len(accepted) < B:
        z = rng.standard_normal(R)
        if float(z @ z) <= bound:
            accepted.append(z)
    return list(model.theta + np.linalg.solve(L.T, np.array(accepted).T).T)


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
