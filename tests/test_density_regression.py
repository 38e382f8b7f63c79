import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import minimize, minimize_scalar
from scipy.special import chdtri

from cfdens.basis import (
    PartialEffectSpec,
    build_covariate_basis,
    build_outcome_basis,
)
from cfdens import density_regression
from cfdens.config import load_config
from cfdens.dataio import load_dataset
from cfdens.density_regression import (
    ObservationTable,
    bin_and_pool,
    difference_penalty,
    fit,
    fit_group,
    fit_smoothed,
    sample_theta,
    wald_ellipsoid_radius,
)
from cfdens.errors import ConfigError, ConvergenceError, DataError, DomainError, NumericError
from cfdens.measure_grid import GridDensity, GridSpec, ReferenceMeasure, integrate, tv_distance
from cfdens.sim_benchmark import DgpSpec, fit_bayes_group, simulate

from conftest import UNIT_MEASURE, unit_grid
from reference import (
    bayes_loglik,
    class_probabilities,
    combinations,
    covariate_row,
    design_row,
    fit_table,
    multinomial_loglik,
    predict_density,
)

ROOT = Path(__file__).resolve().parent.parent


def _intercept_basis():
    return [build_covariate_basis(PartialEffectSpec.intercept(), [None])]


def _binary_bases(values):
    return _intercept_basis() + [
        build_covariate_basis(
            PartialEffectSpec.categorical("t", ["a", "b"], reference="a"), values
        )
    ]


def _table(outcomes, t=None, weights=None):
    outcomes = np.asarray(outcomes, dtype=float)
    covs = {} if t is None else {"t": np.asarray(t)}
    return ObservationTable(outcomes=outcomes, covariates=covs, weights=weights)


# ----------------------------------------------------------------- pooling

@pytest.mark.parametrize("weight", [np.nan, np.inf, 0.0])
def test_observation_table_rejects_a_weight_that_is_not_finite_and_positive(weight):
    with pytest.raises(DataError, match="^weights must be finite and positive$"):
        _table([0.2, 0.5], weights=[1.0, weight])


def test_bin_and_pool_single_row():
    grid = unit_grid(10)
    pooled = bin_and_pool(_table([0.35], t=["a"]), grid)
    assert pooled.n_combinations == 1
    assert pooled.counts[0, 3] == 1.0
    assert pooled.counts.sum() == 1.0


def test_bin_and_pool_accumulates_weights():
    grid = unit_grid(10)
    pooled = bin_and_pool(
        _table([0.35, 0.36, 0.95], t=["a", "a", "a"], weights=[1.0, 2.5, 1.0]), grid
    )
    assert pooled.counts[0, 3] == 3.5
    assert pooled.counts[0, 9] == 1.0
    assert pooled.totals[0] == 4.5


def test_bin_and_pool_splits_combinations():
    grid = unit_grid(10)
    pooled = bin_and_pool(_table([0.1, 0.1, 0.9], t=["a", "b", "a"]), grid)
    assert pooled.n_combinations == 2
    totals = {tuple(c.items()): t for c, t in zip(combinations(pooled), pooled.totals)}
    assert totals[(("t", "a"),)] == 2.0
    assert totals[(("t", "b"),)] == 1.0


def test_bin_and_pool_out_of_domain_names_row():
    grid = unit_grid(10)
    with pytest.raises(DataError, match="row 1"):
        bin_and_pool(_table([0.5, 1.5]), grid)


def test_bin_and_pool_atom_outcomes(mixed_measure, mixed_grid):
    from cfdens.measure_grid import GridSpec

    pooled = bin_and_pool(_table([0.0, 10000.0, 500.0]), mixed_grid)
    assert pooled.counts[0, 30] == 1.0
    assert pooled.counts[0, 31] == 1.0


def _pool_by_rows(data, grid):
    """Per-row reference: rows pooled in a dictionary, each in its cell by a scan.

    The cell is the atom on an exact match, else the left-closed bin, with the
    top edge in the last bin.
    """
    pooled = {}
    for i in range(len(data)):
        key = tuple(sorted((n, v[i]) for n, v in data.covariates.items()))
        counts = pooled.setdefault(key, np.zeros(grid.n_cells))
        y = data.outcomes[i]
        if y in grid.atom_locations:
            cell = grid.n_continuous + grid.atom_locations.index(y)
        else:
            cell = next(g for g in range(grid.n_continuous)
                        if y < grid.edges[g + 1] or g == grid.n_continuous - 1)
        counts[cell] += data.weights[i]
    return pooled


def test_bin_and_pool_matches_per_row_loop(mixed_measure, mixed_grid):
    rng = np.random.default_rng(8)
    n = 500
    lo, hi = mixed_measure.continuous_interval
    outcomes = rng.uniform(lo, hi, n)
    kind = rng.random(n)
    outcomes[kind < 0.15] = 0.0
    outcomes[kind > 0.9] = 10000.0
    outcomes[::41] = hi  # the top edge lies in the closed last bin
    interior = rng.integers(1, mixed_grid.n_continuous, len(outcomes[7::41]))
    outcomes[7::41] = mixed_grid.edges[interior]  # an interior edge opens its bin
    covariates = {"edu": rng.choice(["low", "mid", "high"], n),
                  "age": rng.integers(20, 30, n).astype(float)}
    weights = rng.uniform(0.5, 2.0, n)

    def table(rows):
        return ObservationTable(outcomes[rows], {k: v[rows] for k, v in covariates.items()},
                                weights[rows])

    reference = _pool_by_rows(table(np.arange(n)), mixed_grid)
    pooled = bin_and_pool(table(np.arange(n)), mixed_grid)
    permuted = bin_and_pool(table(rng.permutation(n)), mixed_grid)
    assert pooled.n_rows == permuted.n_rows == n
    assert len(combinations(pooled)) == len(reference)
    assert [sorted(c.items()) for c in combinations(pooled)] == [
        sorted(c.items()) for c in combinations(permuted)
    ]
    for combo, counts, total, permuted_counts in zip(
        combinations(pooled), pooled.counts, pooled.totals, permuted.counts
    ):
        expected = reference[tuple(sorted(combo.items()))]
        # the same rows are added in the same order
        assert np.array_equal(counts, expected)
        assert total == pytest.approx(expected.sum(), rel=1e-12)
        np.testing.assert_allclose(permuted_counts, expected, rtol=1e-12)
    assert pooled.counts[:, mixed_grid.n_continuous - 1].sum() > 0


def test_pooled_columns_hold_each_combination():
    config = load_config(ROOT / "configs" / "synthetic_mixed.cfg")
    treated, _ = load_dataset(ROOT / config.data_path, config)
    pooled = bin_and_pool(treated, GridSpec.from_measure(config.measure, config.n_bins))
    assert list(pooled.columns) == ["age", "edu"]
    for k, combination in enumerate(combinations(pooled)):
        assert combination == {n: column[k] for n, column in pooled.columns.items()}
    distinct = set(zip(treated.covariates["age"].tolist(), treated.covariates["edu"].tolist()))
    assert sorted(zip(*(c.tolist() for c in pooled.columns.values()))) == sorted(distinct)
    bases = [build_covariate_basis(spec, treated.covariates.get(spec.covariate_name, [None]))
             for spec in config.effects]
    # one row at a time, the smooth's matrix product may round differently
    np.testing.assert_allclose(density_regression._pooled_matrix(pooled, bases),
                               np.stack([covariate_row(bases, c) for c in combinations(pooled)]),
                               rtol=0, atol=1e-14)


def test_fit_group_is_fit_smoothed_with_bases_from_the_rows():
    config = load_config(ROOT / "configs" / "synthetic_mixed.cfg")
    treated, _ = load_dataset(ROOT / config.data_path, config)
    grid = GridSpec.from_measure(config.measure, config.n_bins)
    outcome_basis = build_outcome_basis(config.measure, grid, config.basis_count,
                                        config.basis_degree)
    bases = [build_covariate_basis(spec, treated.covariates.get(spec.covariate_name, [None]))
             for spec in config.effects]
    reference = fit_smoothed(bin_and_pool(treated, grid), bases, outcome_basis)
    model = fit_group(treated, config.effects, outcome_basis)
    assert np.array_equal(model.theta, reference.theta)
    assert model.covariate_bases[2]._range == reference.covariate_bases[2]._range


def test_fit_group_names_a_missing_covariate():
    basis = build_outcome_basis(UNIT_MEASURE, unit_grid(10), spline_count=5, degree=2)
    effects = [PartialEffectSpec.intercept(), PartialEffectSpec.smooth("age", 5, 2)]
    with pytest.raises(DataError, match="missing covariate 'age'"):
        fit_group(_table([0.2, 0.4], t=["a", "b"]), effects, basis)


def _distinct_rows_by_sorting(covariates, names, n_rows):
    """Reference: one np.unique of the combined codes per covariate."""
    first, inverse = np.zeros(1, dtype=np.intp), np.zeros(n_rows, dtype=np.intp)
    for n in names:
        levels, codes = np.unique(covariates[n], return_inverse=True)
        _, first, inverse = np.unique(inverse * len(levels) + codes.ravel(),
                                      return_index=True, return_inverse=True)
    return first, inverse


def _random_columns(rng, n):
    return {
        "s": rng.choice(np.array(["low", "mid", "high"]), n),
        "f": rng.normal(size=n).round(int(rng.integers(0, 3))),
        "u": rng.normal(size=n),  # all distinct
        "i": rng.integers(0, int(rng.integers(1, 40)), n),
        "o": np.array([("x", "y", "z")[k] for k in rng.integers(0, 3, n)], dtype=object),
    }


@pytest.mark.parametrize("n", [0, 1, 2, 7, 60, 400])
def test_distinct_rows_matches_sorting_each_step(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        columns = _random_columns(rng, n)
        names = list(rng.permutation(list(columns)))[: int(rng.integers(0, len(columns) + 1))]
        first, inverse = density_regression.distinct_rows(columns, names, n)
        ref_first, ref_inverse = _distinct_rows_by_sorting(columns, names, n)
        assert first.dtype == ref_first.dtype and inverse.dtype == ref_inverse.dtype
        assert np.array_equal(first, ref_first) and np.array_equal(inverse, ref_inverse)


def test_distinct_rows_of_all_distinct_floats_stays_small():
    n = 20_000
    rng = np.random.default_rng(3)
    columns = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    tracemalloc.start()
    try:
        first, inverse = density_regression.distinct_rows(columns, ["a", "b"], n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == n and np.array_equal(np.sort(inverse), np.arange(n))
    assert peak < 50e6


def test_table_pools_its_combinations_once_and_shares_them_with_its_sample(monkeypatch):
    calls = []
    distinct_rows = density_regression.distinct_rows
    monkeypatch.setattr(density_regression, "distinct_rows",
                        lambda *args: calls.append(args[1]) or distinct_rows(*args))
    rng = np.random.default_rng(4)
    table = ObservationTable(rng.uniform(size=50), _random_columns(rng, 50), None)
    sample = table.sample
    first, inverse = sample.distinct_rows(["s", "i"])
    assert sample.distinct_rows(("s", "i"))[1] is inverse
    assert sample.pooled(["s", "i"])[0] is first
    # binning ranks the rows over the sorted names once, for the sample too
    names = sorted(table.covariates)
    pooled = bin_and_pool(table, unit_grid(5))
    rows = sample.distinct_rows(names)[0]
    assert all(np.array_equal(pooled.columns[n], table.covariates[n][rows]) for n in names)
    assert calls == [("s", "i"), tuple(names)]
    with pytest.raises(ValueError):
        inverse[0] = 1  # cached arrays are read-only
    sample.distinct_rows(["i", "s"])
    assert calls == [("s", "i"), tuple(names), ("i", "s")]
    # the cache is part of neither the table's value nor the sample's
    assert "_distinct" not in repr(table) and table == replace(table)
    assert "_distinct" not in repr(sample)
    assert [f.name for f in fields(sample) if f.compare] == ["covariates", "weights"]


# ---------------------------------------------------- class probabilities

def test_class_probabilities_zero_theta_proportional_to_widths():
    grid = unit_grid(4)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=4, degree=1)
    block = np.kron(np.ones((1, 1)), basis.matrix)
    probs = class_probabilities(np.zeros(basis.n_columns), block, grid)
    assert np.allclose(probs, 0.25)
    assert probs.sum() == pytest.approx(1.0)


# ----------------------------------------------------------------- fitting

def test_fit_intercept_only_matches_histogram():
    grid = unit_grid(3)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=3, degree=1)
    outcomes = np.concatenate([
        np.full(10, grid.centers[0]),
        np.full(30, grid.centers[1]),
        np.full(60, grid.centers[2]),
    ])
    model = fit_table(_table(outcomes), _intercept_basis(), basis)
    block = np.kron(np.ones((1, 1)), basis.matrix)
    probs = class_probabilities(model.theta, block, grid)
    assert np.allclose(probs, [0.1, 0.3, 0.6], atol=1e-6)


def test_fit_saturated_binary_matches_per_group_histograms():
    rng = np.random.default_rng(5)
    grid = unit_grid(4)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=4, degree=1)
    n = 400
    t = np.where(rng.random(n) < 0.5, "a", "b")
    outcomes = np.where(t == "a", rng.beta(1.3, 1.6, n), rng.beta(1.8, 1.2, n))
    table = _table(outcomes, t=t)
    model = fit_table(table, _binary_bases(t), basis)
    pooled = bin_and_pool(table, grid)

    for combo, counts in zip(combinations(pooled), pooled.counts):
        assert np.all(counts > 0), "saturated check needs every cell occupied"
        block = design_row(list(model.covariate_bases), basis, combo)
        probs = class_probabilities(model.theta, block, grid)
        assert np.allclose(probs, counts / counts.sum(), atol=1e-6)


def test_fit_matches_direct_multinomial_maximizer():
    rng = np.random.default_rng(17)
    grid = unit_grid(4)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=4, degree=1)
    n = 20_000
    t = np.where(rng.random(n) < 0.5, "a", "b")
    outcomes = np.where(t == "a", rng.beta(1.3, 1.6, n), rng.beta(1.8, 1.2, n))
    table = _table(outcomes, t=t)
    cov_bases = _binary_bases(t)
    model = fit_table(table, cov_bases, basis)
    pooled = bin_and_pool(table, grid)

    blocks = np.stack(
        [design_row(cov_bases, basis, c) for c in combinations(pooled)]
    )

    def negll(theta):
        return -multinomial_loglik(theta, pooled, cov_bases, basis)

    def neggrad(theta):
        grad = np.zeros_like(theta)
        for block, counts, total in zip(blocks, pooled.counts, pooled.totals):
            probs = class_probabilities(theta, block, grid)
            grad += block.T @ (counts - total * probs)
        return -grad

    res = minimize(negll, np.zeros(model.n_coefficients), jac=neggrad,
                   method="BFGS", options={"gtol": 1e-10, "maxiter": 2000})
    # gradient scale is O(n); a stationary point to 1e-4 pins theta far
    # below the 1e-6 comparison tolerance
    assert np.max(np.abs(res.jac)) < 1e-4
    assert np.max(np.abs(model.theta - res.x)) < 1e-6


def test_fit_hessian_is_the_information_at_the_estimate():
    rng = np.random.default_rng(21)
    t = np.where(rng.random(300) < 0.4, "a", "b")
    grid = unit_grid(10)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=2)
    bases = _binary_bases(t)
    pooled = bin_and_pool(_table(rng.beta(2, 2, 300), t=t), grid)
    model = fit(pooled, bases, basis)
    bx = density_regression._pooled_matrix(pooled, bases)
    info = density_regression._information_kernel(pooled, bx, basis.matrix)(model.theta)[1]
    assert np.array_equal(model.fisher_information, info)
    assert model.smoothing_parameter == model.null_space_parameter == 0.0


def test_fit_deviance_trace_nonincreasing():
    rng = np.random.default_rng(9)
    grid = unit_grid(20)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=8, degree=3)
    table = _table(rng.beta(2, 3, 500))
    model = fit_table(table, _intercept_basis(), basis)
    trace = np.asarray(model.deviance_trace)
    assert np.all(np.diff(trace) <= 1e-9 * (np.abs(trace[:-1]) + 1.0))


def test_fit_theta_at_local_maximum():
    rng = np.random.default_rng(4)
    grid = unit_grid(10)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=2)
    table = _table(rng.beta(2, 4, 400))
    cov_bases = _intercept_basis()
    model = fit_table(table, cov_bases, basis)
    pooled = bin_and_pool(table, grid)

    def objective(theta):
        return multinomial_loglik(theta, pooled, cov_bases, basis)

    best = objective(model.theta)
    for _ in range(100):
        perturbed = model.theta + rng.normal(scale=1e-3, size=model.n_coefficients)
        assert objective(perturbed) <= best + 1e-10


def test_fit_invariant_to_row_permutation():
    rng = np.random.default_rng(21)
    grid = unit_grid(10)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=2)
    n = 300
    t = np.where(rng.random(n) < 0.4, "a", "b")
    outcomes = rng.beta(2, 2, n)
    model1 = fit_table(_table(outcomes, t=t), _binary_bases(t), basis)
    perm = rng.permutation(n)
    model2 = fit_table(_table(outcomes[perm], t=t[perm]), _binary_bases(t[perm]), basis)
    assert np.max(np.abs(model1.theta - model2.theta)) < 1e-10


def test_fit_raises_where_the_estimate_lies_at_infinity():
    # level b has no rows in the upper half of (0, 1): its log-density there
    # drifts to -inf with steps that do not shrink while the deviance stalls
    rng = np.random.default_rng(0)
    outcomes = np.concatenate([rng.uniform(0.0, 1.0, 150), rng.uniform(0.0, 0.5, 150)])
    t = np.array(["a"] * 150 + ["b"] * 150)
    grid = unit_grid(10)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=2)
    with pytest.raises((NumericError, ConvergenceError)):
        fit(bin_and_pool(_table(outcomes, t=t), grid), _binary_bases(t), basis)


def test_fit_weighted_rows_equal_duplicated_rows():
    grid = unit_grid(5)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=5, degree=1)
    outcomes = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    m_weighted = fit_table(
        _table(outcomes, weights=[2.0, 1.0, 3.0, 1.0, 1.0]), _intercept_basis(), basis
    )
    duplicated = np.array([0.1, 0.1, 0.3, 0.5, 0.5, 0.5, 0.7, 0.9])
    m_dup = fit_table(_table(duplicated), _intercept_basis(), basis)
    assert np.max(np.abs(m_weighted.theta - m_dup.theta)) < 1e-8


# ------------------------------------------------ smoothing-parameter selection

def test_difference_penalty_null_space_and_atoms(mixed_measure, mixed_grid):
    grid = unit_grid(20)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=8, degree=3)
    bases = _binary_bases(["a", "b"])
    S = difference_penalty(bases, basis)
    d_T = basis.n_columns  # 7: the last spline column is dropped
    assert S.shape == (2 * d_T, 2 * d_T)
    assert np.linalg.matrix_rank(S) == 2 * (8 - 2)
    # the tilt k -> k - 7 (zero at the dropped column) is free in each effect
    tilt = np.arange(d_T) - 7.0
    for j in range(2):
        v = np.zeros(2 * d_T)
        v[j * d_T:(j + 1) * d_T] = tilt
        assert np.allclose(S @ v, 0.0, atol=1e-12)

    mixed = build_outcome_basis(mixed_measure, mixed_grid, spline_count=8, degree=3)
    S_mixed = difference_penalty(_intercept_basis(), mixed)
    # all 8 splines are kept (the dropped column is an atom) and the kept
    # atom indicator is unpenalized
    assert np.allclose(S_mixed[8:, :], 0.0) and np.allclose(S_mixed[:, 8:], 0.0)
    assert np.linalg.matrix_rank(S_mixed) == 8 - 2


def test_fit_smoothed_rejects_basis_without_splines():
    measure = ReferenceMeasure(continuous_interval=None, atoms=((0.0, 1.0), (1.0, 1.0)))
    grid = GridSpec.from_measure(measure, 0)
    basis = build_outcome_basis(measure, grid, spline_count=0)
    pooled = bin_and_pool(_table([0.0, 1.0, 1.0]), grid)
    with pytest.raises(ConfigError, match="no spline coefficients"):
        fit_smoothed(pooled, _intercept_basis(), basis)


def test_fit_smoothed_lambda_is_fellner_schall_fixed_point():
    data = simulate(DgpSpec(), 0, 1000, seed=14)
    model = fit_bayes_group(data, unit_grid(50))
    lam = model.smoothing_parameter
    S = difference_penalty(model.covariate_bases, model.outcome_basis)
    H = model.fisher_information
    edf = np.linalg.matrix_rank(S) - lam * np.trace(np.linalg.solve(H, S))
    assert 0 < lam < np.inf
    assert lam * (model.theta @ S @ model.theta) == pytest.approx(edf, rel=1e-4)
    assert model.iterations == len(model.deviance_trace) - 1


def test_model_grid_and_iterations_are_read_from_their_sources():
    grid = unit_grid(20)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=3)
    pooled = bin_and_pool(_table(np.random.default_rng(1).beta(2, 3, size=200)), grid)
    model = fit_smoothed(pooled, _intercept_basis(), basis)
    assert model.grid is basis.grid and model.iterations >= 2
    assert replace(model, deviance_trace=model.deviance_trace[:2]).iterations == 1


@pytest.mark.parametrize("seed", [2, 5, 9])
def test_fit_smoothed_converges_on_uniform_outcomes(seed):
    # flat outcomes put both optima near the boundary of the REML criterion;
    # seed 5 does not converge without the halving of the step in log lambda
    grid = unit_grid(50)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
    pooled = bin_and_pool(_table(np.random.default_rng(seed).uniform(size=1000)), grid)
    model = fit_smoothed(pooled, _intercept_basis(), basis)
    S = difference_penalty(model.covariate_bases, model.outcome_basis)
    edf = np.linalg.matrix_rank(S) - model.smoothing_parameter * np.trace(
        np.linalg.solve(model.fisher_information, S))
    assert model.smoothing_parameter * (model.theta @ S @ model.theta) == pytest.approx(
        edf, abs=1e-4)


def test_fit_smoothed_selects_the_lambdas_of_a_monte_carlo_replication():
    # the Fellner-Schall selection's values, to its own tolerance
    model = fit_bayes_group(simulate(DgpSpec(), 1, 1000, seed=2), unit_grid(50))
    assert model.smoothing_parameter == pytest.approx(3.0752199, rel=1e-5)
    assert model.null_space_parameter == pytest.approx(0.0348083, rel=1e-5)


def test_fit_smoothed_log_linear_truth_reaches_null_space_fit():
    # f(y) ~ exp(b y) lies in the null space of the difference penalty up to
    # the bend of the free tilt over the clamped boundary knots, which is far
    # too small to detect at this n; the selection must then let lambda grow
    # without bound and return the fit of that tilt under the null-space
    # penalty lambda_0 a^2 alone.  Outcomes are the n quantiles of f, a
    # sample without sampling noise: with random draws the optimal lambda is
    # finite whenever the noise in the penalized directions exceeds its
    # expectation, which happens for about every other sample.
    b, n = 1.0, 1000
    grid = unit_grid(50)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
    u = (np.arange(n) + 0.5) / n
    pooled = bin_and_pool(_table(np.log1p(u * np.expm1(b)) / b), grid)
    model = fit_smoothed(pooled, _intercept_basis(), basis)
    assert model.smoothing_parameter > 1e6

    (tilt,) = null_space(difference_penalty(_intercept_basis(), basis)).T
    lam0 = model.null_space_parameter
    best = minimize_scalar(
        lambda a: -2.0 * multinomial_loglik(a * tilt, pooled, _intercept_basis(), basis)
        + lam0 * a**2
    )
    fitted = predict_density(model, {}).values
    tilt_fit = predict_density(model, {}, theta=best.x * tilt).values
    assert np.max(np.abs(np.log(fitted) - np.log(tilt_fit))) < 1e-4
    truth = GridDensity.from_unnormalized(grid, np.exp(b * grid.centers))
    assert tv_distance(predict_density(model, {}), truth) < 0.01


def test_fit_smoothed_raises_when_selection_does_not_settle(monkeypatch):
    data = simulate(DgpSpec(), 1, 500, seed=3)
    grid = unit_grid(50)
    model = fit_bayes_group(data, grid)
    monkeypatch.setattr(density_regression, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="did not converge"):
        fit_smoothed(bin_and_pool(data, grid), model.covariate_bases, model.outcome_basis)


# ------------------------------------------------------- likelihood bridge

def test_bayes_loglik_zero_theta_is_uniform_loglik():
    grid = unit_grid(10)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=2)
    table = _table([0.2, 0.5, 0.9])
    got = bayes_loglik(np.zeros(basis.n_columns), table, _intercept_basis(), basis)
    assert got == pytest.approx(3 * np.log(1.0), abs=1e-10)


def test_grid_loglik_approaches_exact_loglik():
    rng = np.random.default_rng(12)
    table = _table(rng.beta(2, 3, 400))
    gaps = []
    for n_bins in (25, 50, 100, 200):
        grid = unit_grid(n_bins)
        basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
        theta = np.linspace(-0.8, 0.8, basis.n_columns)
        pooled = bin_and_pool(table, grid)
        mn = multinomial_loglik(theta, pooled, _intercept_basis(), basis)
        ex = bayes_loglik(theta, table, _intercept_basis(), basis, quadrature_points=4000)
        gaps.append(abs(mn - ex))
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])), gaps


# ---------------------------------------------------------------- predict

def test_predict_density_is_valid_density():
    rng = np.random.default_rng(1)
    grid = unit_grid(20)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=8, degree=3)
    table = _table(rng.beta(2, 2, 200))
    model = fit_table(table, _intercept_basis(), basis)
    dens = predict_density(model, {})
    assert np.all(dens.values > 0)
    assert integrate(dens.values, grid) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=11, max_size=11))
def test_property_predicted_density_valid_for_any_theta(theta):
    grid = unit_grid(50)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
    # one row: the plain fit's estimate lies at infinity
    model = fit_smoothed(bin_and_pool(_table([0.5]), grid), _intercept_basis(), basis)
    dens = predict_density(model, {}, theta=np.array(theta))
    assert np.all(dens.values >= 0)
    assert integrate(dens.values, grid) == pytest.approx(1.0, abs=1e-8)


# -------------------------------------------------- grid-refinement stability

def test_fitted_density_stable_under_grid_refinement():
    spec = DgpSpec()
    data = simulate(spec, 1, 5000, seed=42)
    coarse = fit_bayes_group(data, unit_grid(50))
    fine = fit_bayes_group(data, unit_grid(200))
    x = {"x1": "1", "x2": "1", "x3": "2"}
    f_coarse = predict_density(coarse, x)
    f_fine = predict_density(fine, x)
    # aggregate the fine grid 4-to-1 (equal widths: cell mean) and compare
    agg = f_fine.values.reshape(50, 4).mean(axis=1)
    f_agg = GridDensity.from_unnormalized(unit_grid(50), agg)
    assert tv_distance(f_coarse, f_agg) < 0.01


# ------------------------------------------------------------- uncertainty

def _small_model(seed=3):
    rng = np.random.default_rng(seed)
    grid = unit_grid(5)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=4, degree=1)
    table = _table(rng.beta(2, 2, 500))
    return fit_table(table, _intercept_basis(), basis)


def test_sample_theta_zero_draws():
    model = _small_model()
    assert sample_theta(model, alpha=0.05, B=0, seed=1).shape == (0, model.n_coefficients)


def test_sample_theta_deterministic():
    model = _small_model()
    d1 = sample_theta(model, alpha=0.05, B=20, seed=7)
    d2 = sample_theta(model, alpha=0.05, B=20, seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(d1, d2))
    d3 = sample_theta(model, alpha=0.05, B=20, seed=8)
    assert not np.array_equal(d1[0], d3[0])


def test_sample_theta_matches_one_solve_per_draw():
    model = _small_model()
    bound = wald_ellipsoid_radius(model, alpha=0.05)
    L = np.linalg.cholesky(model.fisher_information + 1e-10 * np.eye(model.n_coefficients))
    rng, want = np.random.default_rng(7), []
    while len(want) < 20:
        z = rng.standard_normal(model.n_coefficients)
        if z @ z <= bound:
            want.append(model.theta + np.linalg.solve(L.T, z))
    got = sample_theta(model, alpha=0.05, B=20, seed=7)
    assert got.shape == (20, model.n_coefficients)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sample_theta_draws_inside_ellipsoid():
    model = _small_model()
    info = model.fisher_information
    # alpha = 0.5 is the largest alpha accepted
    for alpha, B in ((0.05, 200), (0.5, 200), (0.05, 3)):
        bound = wald_ellipsoid_radius(model, alpha=alpha)
        draws = sample_theta(model, alpha=alpha, B=B, seed=11)
        assert isinstance(draws, np.ndarray) and draws.shape == (B, model.n_coefficients)
        for draw in draws:
            dev = draw - model.theta
            assert dev @ info @ dev <= bound * (1.0 + 1e-8)


def test_sample_theta_mean_near_point_estimate():
    model = _small_model()
    draws = sample_theta(model, alpha=0.05, B=4000, seed=13)
    se = np.sqrt(np.diag(np.linalg.inv(model.fisher_information)))
    mc_se = se / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - model.theta) < 3.5 * mc_se)


def test_sample_theta_rejects_non_positive_definite_information():
    model = _small_model()
    indefinite = replace(model, fisher_information=-np.eye(model.n_coefficients))
    with pytest.raises(NumericError, match="not positive definite"):
        sample_theta(indefinite, alpha=0.05, B=1, seed=1)


def test_sample_theta_rejects_bad_alpha():
    # the region holds 1 - alpha of the mass: a band below 50 % is not a confidence
    # band, and near alpha = 1 rejection needs B / (1 - alpha) proposals
    for alpha in (0.0, 0.6, 1.0 - 1e-9):
        with pytest.raises(DomainError, match=r"alpha must be in \(0, 0.5\]"):
            sample_theta(_small_model(), alpha=alpha, B=1, seed=1)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
def test_wald_ellipsoid_radius_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(DomainError):
        wald_ellipsoid_radius(SimpleNamespace(n_coefficients=3), alpha)


def test_wald_ellipsoid_radius_matches_chdtri():
    for R in range(1, 401):
        model = SimpleNamespace(n_coefficients=R)
        for alpha in (0.01, 0.05, 0.1, 0.5):
            want = chdtri(R, alpha)
            assert abs(wald_ellipsoid_radius(model, alpha) - want) <= 1e-12 * want
