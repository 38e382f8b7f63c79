"""The array-form fit against Kronecker-block references built from design_row.

The fit works on the covariate basis B_x and the outcome basis B_T: the score
is B_x' (N - t p) B_T and the information comes from row-tensor products, so
the (combinations, cells, coefficients) design array is never formed.  The
references here stack one ``design_row`` block per covariate combination and
sum the per-combination score and information, with their own softmax.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfdens import density_regression
from cfdens.basis import PartialEffectSpec, build_covariate_basis, build_outcome_basis, design_row
from cfdens.config import load_config
from cfdens.dataio import load_dataset
from cfdens.density_regression import ObservationTable, bin_and_pool, fit, fit_smoothed
from cfdens.errors import NumericError
from cfdens.measure_grid import GridSpec
from cfdens.sim_benchmark import DgpSpec, fit_bayes_group, simulate

from conftest import UNIT_MEASURE, unit_grid


def _reference_score_information(theta, pooled, covariate_bases, outcome_basis):
    widths = pooled.grid.widths
    score, info = np.zeros(len(theta)), np.zeros((len(theta), len(theta)))
    for combo, counts, total in zip(pooled.combinations, pooled.counts, pooled.totals):
        block = design_row(covariate_bases, outcome_basis, combo)
        eta = block @ theta
        probs = widths * np.exp(eta - eta.max())
        probs /= probs.sum()
        zbar = block.T @ probs
        score += block.T @ (counts - total * probs)
        info += total * (block.T @ (probs[:, None] * block) - np.outer(zbar, zbar))
    return score, info


def test_score_and_information_match_kronecker_blocks(mixed_measure, mixed_grid):
    rng = np.random.default_rng(21)
    n = 400
    edu = rng.choice(["low", "mid", "high"], n)
    age = rng.integers(20, 45, n).astype(float)
    outcomes = rng.uniform(10.0, 9990.0, n)
    kind = rng.random(n)
    outcomes[kind < 0.1] = 0.0
    outcomes[kind > 0.95] = 10000.0
    data = ObservationTable(outcomes, {"edu": edu, "age": age}, rng.uniform(0.5, 2.0, n))
    covariate_bases = [
        build_covariate_basis(PartialEffectSpec.intercept(), [None]),
        build_covariate_basis(PartialEffectSpec.categorical("edu", ["low", "mid", "high"], "low"),
                              edu),
        build_covariate_basis(PartialEffectSpec.smooth("age", knot_count=6), age),
    ]
    outcome_basis = build_outcome_basis(mixed_measure, mixed_grid, spline_count=8)
    pooled = bin_and_pool(data, mixed_grid)
    assert pooled.n_combinations >= 40
    bx = density_regression._pooled_matrix(pooled, covariate_bases)
    theta = 0.3 * rng.standard_normal(bx.shape[1] * outcome_basis.n_columns)

    score, info = density_regression._information_kernel(pooled, bx, outcome_basis.matrix)(theta)
    ref_score, ref_info = _reference_score_information(theta, pooled, covariate_bases,
                                                       outcome_basis)
    assert np.max(np.abs(score - ref_score)) <= 1e-12 * np.max(np.abs(ref_score))
    assert np.max(np.abs(info - ref_info)) <= 1e-12 * np.max(np.abs(ref_info))


@pytest.mark.parametrize("fitter", [fit, fit_smoothed])
def test_fit_raises_on_non_finite_normaliser(fitter):
    grid = unit_grid(10)
    outcome_basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=5, degree=2)
    matrix = outcome_basis.matrix.copy()
    matrix[3, 0] = np.nan
    pooled = bin_and_pool(
        ObservationTable(np.random.default_rng(2).uniform(size=50), {}, None), grid
    )
    intercept = [build_covariate_basis(PartialEffectSpec.intercept(), [None])]
    with pytest.raises(NumericError, match="normaliser"):
        fitter(pooled, intercept, replace(outcome_basis, matrix=matrix))


ROOT = Path(__file__).resolve().parent.parent


def _intercept_design():
    grid = unit_grid(20)
    data = ObservationTable(np.random.default_rng(4).beta(2.0, 3.0, 300), {}, None)
    intercept = [build_covariate_basis(PartialEffectSpec.intercept(), [None])]
    return bin_and_pool(data, grid), intercept, build_outcome_basis(UNIT_MEASURE, grid, 6)


def _monte_carlo_design():
    grid = unit_grid(50)
    data = simulate(DgpSpec(), 1, 500, seed=5)
    model = fit_bayes_group(data, grid)
    return bin_and_pool(data, grid), list(model.covariate_bases), model.outcome_basis


def _bundled_design():
    config = load_config(ROOT / "configs" / "synthetic_mixed.cfg")
    treated, _ = load_dataset(ROOT / config.data_path, config)
    grid = GridSpec.from_measure(config.measure, config.n_bins)
    outcome_basis = build_outcome_basis(config.measure, grid, config.basis_count,
                                        config.basis_degree)
    covariate_bases = [
        build_covariate_basis(s, treated.covariates[s.covariate_name]
                              if s.kind != "intercept" else [None])
        for s in config.effects
    ]
    return bin_and_pool(treated, grid), covariate_bases, outcome_basis


DESIGNS = {"intercept": _intercept_design, "monte-carlo": _monte_carlo_design,
           "bundled": _bundled_design}


@pytest.mark.parametrize("block", [7, density_regression.INFORMATION_ROW_BLOCK])
@pytest.mark.parametrize("design", DESIGNS)
def test_information_kernel_matches_kronecker_blocks(design, block, monkeypatch):
    monkeypatch.setattr(density_regression, "INFORMATION_ROW_BLOCK", block)
    pooled, covariate_bases, outcome_basis = DESIGNS[design]()
    bx, bt = density_regression._pooled_matrix(pooled, covariate_bases), outcome_basis.matrix
    theta = 0.3 * np.random.default_rng(8).standard_normal(bx.shape[1] * bt.shape[1])

    kernel = density_regression._information_kernel(pooled, bx, bt)
    score, info = kernel(theta)
    ref_score, ref_info = _reference_score_information(theta, pooled, covariate_bases,
                                                       outcome_basis)
    assert np.max(np.abs(score - ref_score)) <= 1e-12 * np.max(np.abs(ref_score))
    assert np.max(np.abs(info - ref_info)) <= 1e-12 * np.max(np.abs(ref_info))
    assert np.array_equal(info, info.T)
    with_eta = kernel(theta, density_regression._eta(bx, theta, bt))
    assert np.array_equal(with_eta[0], score) and np.array_equal(with_eta[1], info)


@pytest.mark.parametrize("design", ["monte-carlo", "bundled"])
def test_fit_smoothed_with_the_reference_kernel_takes_the_same_steps(design, monkeypatch):
    pooled, covariate_bases, outcome_basis = DESIGNS[design]()
    model = fit_smoothed(pooled, covariate_bases, outcome_basis)

    def reference_kernel(pooled, bx, bt):
        return lambda theta, eta=None: _reference_score_information(
            theta, pooled, covariate_bases, outcome_basis)

    monkeypatch.setattr(density_regression, "_information_kernel", reference_kernel)
    ref = fit_smoothed(pooled, covariate_bases, outcome_basis)
    assert model.iterations == ref.iterations
    assert np.max(np.abs(model.theta - ref.theta)) <= 1e-10
