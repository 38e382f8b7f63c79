"""The batched prediction path against per-row references built from predict_density.

Counterfactual densities, effect bands and product-measure marginals all go
through one kernel, softmax(B_x Theta B_T'), evaluated once per distinct
covariate row.  Each test here rebuilds the same quantity one covariate row
(or one pair of rows) at a time with ``predict_density``, which evaluates the
Kronecker design row of a single covariate vector.
"""

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfdens import counterfactual
from cfdens.basis import PartialEffectSpec, build_covariate_basis, build_outcome_basis
from cfdens.config import load_config
from cfdens.counterfactual import (
    CovariateSample,
    RatioFunction,
    _product_measure_average,
    counterfactual_density,
    distribution_effect,
    effect_bands,
    marginal_effect_ce_j,
    marginal_effect_de_j,
)
from cfdens.dataio import load_dataset
from cfdens.density_regression import (
    ObservationTable,
    bin_and_pool,
    fit_smoothed,
    sample_theta,
)
from cfdens.errors import NumericError
from cfdens.measure_grid import GridDensity, GridSpec

from conftest import UNIT_MEASURE, unit_grid
from reference import fit_table, predict_density, row

ROOT = Path(__file__).resolve().parent.parent
TINY = np.finfo(float).tiny


def _pool(sample, names):
    """Distinct rows over ``names`` with pooled weights, by a dictionary."""
    pooled = {}
    for i in range(len(sample)):
        key = tuple(sample.covariates[n][i] for n in names)
        pooled[key] = pooled.get(key, 0.0) + sample.weights[i]
    return [(dict(zip(names, key)), w) for key, w in pooled.items()]


def _names(model):
    return sorted(
        cb.spec.covariate_name for cb in model.covariate_bases if cb.spec.kind != "intercept"
    )


def _reference_average(model, sample, theta=None):
    return sum(
        w * predict_density(model, x, theta=theta).values
        for x, w in _pool(sample, _names(model))
    )


def _reference_product(model, sample_rest, sample_j, j_name, theta=None):
    rest = _pool(sample_rest, [n for n in _names(model) if n != j_name])
    values = 0.0
    for x_rest, w_rest in rest:
        for x_j, w_j in _pool(sample_j, [j_name]):
            values = values + w_rest * w_j * predict_density(
                model, {**x_rest, **x_j}, theta=theta
            ).values
    return values


def _reference_ratio(grid, num, den):
    return distribution_effect(GridDensity(grid, num), GridDensity(grid, den))


def _assert_matches(got, ref):
    """Equal within 1e-10 relative (absolute below the normal range), same flags."""
    assert np.array_equal(got.valid, ref.valid)
    a, b = got.values[got.valid], ref.values[ref.valid]
    gap = np.abs(a - b)
    assert np.all((gap <= 1e-10 * np.maximum(np.abs(a), np.abs(b))) | (gap <= TINY))


@pytest.fixture(scope="module")
def bundled():
    config = load_config(ROOT / "configs" / "synthetic_mixed.cfg")
    treated, control = load_dataset(ROOT / config.data_path, config)
    grid = GridSpec.from_measure(config.measure, config.n_bins)
    outcome_basis = build_outcome_basis(
        config.measure, grid, config.basis_count, config.basis_degree
    )
    models = []
    for table in (treated, control):
        cov_bases = [
            build_covariate_basis(
                s, table.covariates[s.covariate_name] if s.kind != "intercept" else [None]
            )
            for s in config.effects
        ]
        models.append(fit_smoothed(bin_and_pool(table, grid), cov_bases, outcome_basis))
    samples = (treated.sample, control.sample)
    return tuple(models), samples, grid


def test_counterfactuals_match_per_row_reference(bundled):
    models, samples, grid = bundled
    for model in models:
        for sample in samples:
            got = counterfactual_density(model, sample).values
            ref = _reference_average(model, sample)
            assert np.all(np.abs(got - ref) <= np.maximum(1e-10 * ref, TINY))


@pytest.mark.parametrize(
    "kind, j_name",
    [("de", None), ("ce", None), ("te", None),
     ("ce_j", "edu"), ("ce_j", "age"), ("de_j", "edu"), ("de_j", "age")],
)
def test_effect_bands_match_per_row_reference(bundled, kind, j_name):
    (model_1, model_0), (sample_1, sample_0), grid = bundled
    B, seed = 3, 5
    bands = effect_bands((model_1, model_0), (sample_1, sample_0), [(kind, j_name)], 0.05, B,
                         seed)[(kind, j_name)]
    # effect_bands draws each group's coefficients with these derived seeds
    thetas = [(None, None)] + list(zip(
        sample_theta(model_1, 0.05, B, seed=seed * 2 + 1),
        sample_theta(model_0, 0.05, B, seed=seed * 2 + 2),
    ))
    assert bands.values.shape == bands.valid.shape == (B + 1, grid.n_cells)
    for values, valid, (theta_1, theta_0) in zip(bands.values, bands.valid, thetas):
        f00 = _reference_average(model_0, sample_0, theta_0)
        if kind == "de":
            num = _reference_average(model_1, sample_1, theta_1)
            den = _reference_average(model_0, sample_1, theta_0)
        elif kind == "ce":
            num, den = _reference_average(model_0, sample_1, theta_0), f00
        elif kind == "te":
            num, den = _reference_average(model_1, sample_1, theta_1), f00
        elif kind == "ce_j":
            num = _reference_product(model_0, sample_0, sample_1, j_name, theta_0)
            den = f00
        else:
            num = _reference_product(model_1, sample_1, sample_0, j_name, theta_1)
            den = f00
        _assert_matches(RatioFunction(grid, values, valid), _reference_ratio(grid, num, den))


# ------------------------------------------------ exact product-measure average

def _smooth_model(seed=0):
    """Intercept + binary u + smooth z, with hand-set coefficients."""
    rng = np.random.default_rng(seed)
    grid = unit_grid(12)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=7, degree=3)
    n = 200
    u = np.where(rng.random(n) < 0.5, "a", "b")
    z = rng.uniform(0.0, 1.0, n)
    table = ObservationTable(
        outcomes=rng.beta(2, 2, n), covariates={"u": u, "z": z}, weights=None
    )
    cov_bases = [
        build_covariate_basis(PartialEffectSpec.intercept(), [None]),
        build_covariate_basis(PartialEffectSpec.categorical("u", ["a", "b"], "a"), u),
        build_covariate_basis(PartialEffectSpec.smooth("z", knot_count=6), z),
    ]
    model = fit_table(table, cov_bases, basis)
    return replace(model, theta=rng.normal(0.0, 0.7, model.n_coefficients)), grid


def _smooth_sample(rng, n):
    return CovariateSample(
        covariates={"u": np.where(rng.random(n) < 0.4, "a", "b"),
                    "z": rng.uniform(-0.1, 1.1, n)},
        weights=rng.uniform(0.5, 2.0, n),
    )


def _pairs_reference(model, sample_rest, sample_j, j_name):
    """Brute force over every (row of sample_rest, row of sample_j) pair."""
    values = 0.0
    for i in range(len(sample_rest)):
        for k in range(len(sample_j)):
            x = {**row(sample_rest, i), j_name: sample_j.covariates[j_name][k]}
            values = values + (
                sample_rest.weights[i] * sample_j.weights[k] * predict_density(model, x).values
            )
    return values


@pytest.mark.parametrize("pair_block", [counterfactual.PAIR_BLOCK, 7])
def test_product_measure_exact_against_pair_enumeration(monkeypatch, pair_block):
    monkeypatch.setattr(counterfactual, "PAIR_BLOCK", pair_block)
    model_1, grid = _smooth_model(seed=1)
    model_0, _ = _smooth_model(seed=2)
    rng = np.random.default_rng(3)
    s1, s0 = _smooth_sample(rng, 45), _smooth_sample(rng, 50)
    assert len(np.unique(s1.covariates["z"])) >= 40
    assert len(np.unique(s0.covariates["z"])) >= 40
    f00 = _reference_average(model_0, s0)
    # the smooth covariate as j (on the x_j side) and as the rest (on the x_{-j} side)
    for j_name in ("z", "u"):
        got = marginal_effect_ce_j(model_0, s0, s1, j_name)
        _assert_matches(got, _reference_ratio(grid, _pairs_reference(model_0, s0, s1, j_name), f00))
        got = marginal_effect_de_j(model_1, model_0, s1, s0, j_name)
        _assert_matches(got, _reference_ratio(grid, _pairs_reference(model_1, s1, s0, j_name), f00))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_product_measure_rejects_nonfinite_normaliser(bad):
    model, _ = _smooth_model()
    rng = np.random.default_rng(4)
    s1, s0 = _smooth_sample(rng, 10), _smooth_sample(rng, 10)
    theta = model.theta.copy()
    theta[3] = bad
    average = _product_measure_average(model, s0, s1, "z")
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="not finite"):
        average(theta)


def _cancelling_model(c):
    """``_smooth_model`` with the intercept at c (y - 1/2) and u = b at minus that.

    The intercept is on the x_{-j} side and u on the x_j side, so for j = u the
    two parts of eta cancel by about c times the span of the bin centres.
    """
    model, grid = _smooth_model(seed=5)
    coef = model.theta.reshape(-1, model.outcome_basis.n_columns).copy()
    coef[0] = np.linalg.lstsq(model.outcome_basis.matrix, c * (grid.centers - 0.5), rcond=None)[0]
    coef[1] = -coef[0]
    return replace(model, theta=coef.ravel())


@pytest.mark.parametrize("c", [10, 100, 300, 600])
def test_factorized_average_exact_under_cancellation(c):
    model = _cancelling_model(c)
    rng = np.random.default_rng(6)
    s1, s0 = _smooth_sample(rng, 45), _smooth_sample(rng, 50)
    got = _product_measure_average(model, s0, s1, "u")(None).values
    ref = _reference_product(model, s0, s1, "u")
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("c", [800, 1500])
def test_factorized_average_raises_beyond_the_float_range(c):
    model = _cancelling_model(c)
    rng = np.random.default_rng(6)
    s1, s0 = _smooth_sample(rng, 45), _smooth_sample(rng, 50)
    # the per-pair softmax is still exact here
    assert np.all(np.isfinite(_reference_product(model, s0, s1, "u")))
    average = _product_measure_average(model, s0, s1, "u")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="underflows"):
            average(None)
