"""Per-row references and test-only helpers, kept out of the package.

The package predicts in one array form, eta = B_x Theta B_T'.  The functions
here build the same quantities one covariate combination at a time, from the
Kronecker design block b(x) kron B_T, and normalise with their own
width-weighted softmax, so they serve the tests as oracles for that form that
share none of its private helpers.  No command imports this module.
"""

import numpy as np

from cfdens.basis import covariate_matrix
from cfdens.density_regression import bin_and_pool, fit
from cfdens.measure_grid import density_from_clr_values


def _log_normaliser(eta, widths) -> np.ndarray:
    """log sum_g widths_g exp(eta_g) along the last axis of ``eta``."""
    top = eta.max(axis=-1)
    return top + np.log(np.exp(eta - top[..., None]) @ widths)


def covariate_row(covariate_bases, x: dict) -> np.ndarray:
    """Concatenated covariate coefficients b(x) across all effects."""
    return covariate_matrix(covariate_bases, {k: [v] for k, v in x.items()}, 1)[0]


def design_row(covariate_bases, outcome_basis, x: dict) -> np.ndarray:
    """Tensor-product design block for one covariate vector.

    Row g is b(x) kron b_T(cell g); shape (n_cells, R) with
    R = sum_j d_j * d_T.  The per-row reference of ``predict_density``.
    """
    bx = covariate_row(covariate_bases, x)
    return np.kron(bx[None, :], outcome_basis.matrix)


def combinations(pooled) -> tuple[dict, ...]:
    """One dict of covariate values per combination of ``pooled``, read from its columns."""
    return tuple({n: v[k] for n, v in pooled.columns.items()}
                 for k in range(pooled.n_combinations))


def row(sample, i: int) -> dict:
    """The covariate values of row ``i`` of a ``CovariateSample``."""
    return {k: v[i] for k, v in sample.covariates.items()}


def fit_table(data, covariate_bases, outcome_basis):
    """Bin, pool, and ``fit`` in one call."""
    return fit(bin_and_pool(data, outcome_basis.grid), covariate_bases, outcome_basis)


def predict_density(model, x: dict, theta=None):
    """Conditional density at covariates ``x`` (optionally with other coefficients)."""
    th = model.theta if theta is None else theta
    eta = design_row(list(model.covariate_bases), model.outcome_basis, x) @ th
    return density_from_clr_values(model.grid, eta)


def class_probabilities(theta, design_block, grid) -> np.ndarray:
    """Cell probabilities for one combination: width-weighted softmax."""
    eta = design_block @ theta
    return grid.widths * np.exp(eta - _log_normaliser(eta, grid.widths))


def multinomial_loglik(theta, pooled, covariate_bases, outcome_basis) -> float:
    """Grid-based (multinomial) log-likelihood, dropping the bin-width constants."""
    eta = np.array([design_row(covariate_bases, outcome_basis, x) @ theta
                    for x in combinations(pooled)])
    return float(np.sum(pooled.counts * eta)
                 - pooled.totals @ _log_normaliser(eta, pooled.grid.widths))


def bayes_loglik(theta, data, covariate_bases, outcome_basis,
                 quadrature_points: int = 10_000) -> float:
    """Bayes space log-likelihood with exact outcome evaluation.

    The normalizing integral uses a fine midpoint quadrature independent of
    the fitting grid.
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
    lognorm = [_log_normaliser(coef[i: i + step] @ eval_basis.T, np.array(widths))
               for i in range(0, len(data), step)]
    return float(data.weights @ (eta_y - np.concatenate(lognorm)))
