from dataclasses import replace

import numpy as np
import pytest

from cfdens.basis import (
    PartialEffectSpec,
    build_covariate_basis,
    build_outcome_basis,
)
from cfdens.counterfactual import (
    CovariateSample,
    RatioFunction,
    counterfactual_density,
    covariate_effect,
    distribution_effect,
    effect_bands,
    marginal_effect_ce_j,
    marginal_effect_ce_j_fast,
    marginal_effect_de_j,
    total_effect,
)
from cfdens.density_regression import (
    ObservationTable,
    bin_and_pool,
    fit_smoothed,
    wald_ellipsoid_radius,
)
from cfdens.errors import ConfigError, DomainError, StructuralError
from cfdens.measure_grid import GridDensity, clr, integrate, tv_distance, uniform_density
from cfdens.sim_benchmark import (
    DgpSpec,
    cell_covariates,
    fit_bayes_group,
    simulate,
    true_counterfactual,
)

from conftest import UNIT_MEASURE, beta_on_grid, unit_grid
from reference import fit_table, predict_density, row


def _saturated_binary_model(rng_seed=0, n_bins=10):
    """Intercept + binary covariate with a freely settable saturated basis."""
    rng = np.random.default_rng(rng_seed)
    grid = unit_grid(n_bins)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=n_bins, degree=1)
    assert basis.n_columns == n_bins - 1  # spans all zero-integral grid functions
    n = 60
    t = np.where(rng.random(n) < 0.5, "a", "b")
    table = ObservationTable(outcomes=rng.beta(2, 2, n), covariates={"t": t}, weights=None)
    cov_bases = [
        build_covariate_basis(PartialEffectSpec.intercept(), [None]),
        build_covariate_basis(PartialEffectSpec.categorical("t", ["a", "b"], "a"), t),
    ]
    return fit_table(table, cov_bases, basis), grid, basis


def _with_level_densities(model, basis, f_a: GridDensity, f_b: GridDensity):
    """Coefficients making predict(t=a) = f_a and predict(t=b) = f_b exactly."""
    d = basis.n_columns
    theta = np.zeros(2 * d)
    theta[:d] = np.linalg.lstsq(basis.matrix, clr(f_a).values, rcond=None)[0]
    theta[d:] = np.linalg.lstsq(basis.matrix, clr(f_b).values - basis.matrix @ theta[:d],
                                rcond=None)[0]
    return replace(model, theta=theta)


def _two_binary_model(scale_u=0.4, scale_v=0.3, seed=0, n_bins=10):
    """Additive model in two binary covariates with hand-set coefficients."""
    rng = np.random.default_rng(seed)
    grid = unit_grid(n_bins)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=n_bins, degree=1)
    n = 80
    u = np.where(rng.random(n) < 0.5, "a", "b")
    v = np.where(rng.random(n) < 0.5, "a", "b")
    table = ObservationTable(
        outcomes=rng.beta(2, 2, n), covariates={"u": u, "v": v}, weights=None
    )
    cov_bases = [
        build_covariate_basis(PartialEffectSpec.intercept(), [None]),
        build_covariate_basis(PartialEffectSpec.categorical("u", ["a", "b"], "a"), u),
        build_covariate_basis(PartialEffectSpec.categorical("v", ["a", "b"], "a"), v),
    ]
    # the plain fit's estimate lies at infinity on 80 rows over 4 cells x 10 bins
    model = fit_smoothed(bin_and_pool(table, grid), cov_bases, basis)
    d = basis.n_columns
    base = np.log(2.0 * grid.centers + 0.3)
    base -= integrate(base, grid) / grid.total_measure
    theta = np.zeros(3 * d)
    theta[:d] = np.linalg.lstsq(basis.matrix, base, rcond=None)[0]
    theta[d: 2 * d] = np.linalg.lstsq(
        basis.matrix, scale_u * (grid.centers - 0.5), rcond=None
    )[0]
    theta[2 * d:] = np.linalg.lstsq(
        basis.matrix, -scale_v * np.sin(3.0 * grid.centers), rcond=None
    )[0]
    return replace(model, theta=theta), grid


def _sample(u, v, weights):
    return CovariateSample(
        covariates={"u": np.array(u), "v": np.array(v)}, weights=np.array(weights)
    )


# --------------------------------------------------------- covariate samples

def test_sample_normalizes_weights():
    s = _sample(["a", "b"], ["a", "a"], [2.0, 6.0])
    assert np.allclose(s.weights, [0.25, 0.75])


def test_sample_rejects_nonpositive_weights():
    with pytest.raises(StructuralError):
        _sample(["a"], ["a"], [0.0])


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_sample_rejects_a_non_finite_weight(weight):
    with pytest.raises(StructuralError, match="finite and positive"):
        _sample(["a", "b"], ["a", "a"], [1.0, weight])


def test_unique_rows_pools_weights():
    s = _sample(["a", "a", "b"], ["x", "x", "x"], [1.0, 1.0, 2.0])
    combos, wts = s.unique_rows(["u"])
    lookup = {c["u"]: w for c, w in zip(combos, wts)}
    assert lookup["a"] == pytest.approx(0.5)
    assert lookup["b"] == pytest.approx(0.5)


# -------------------------------------------------- counterfactual densities

def test_counterfactual_is_exact_mixture():
    model, grid, basis = _saturated_binary_model()
    f_a = uniform_density(grid)
    f_b = beta_on_grid(grid, 2, 2)
    model = _with_level_densities(model, basis, f_a, f_b)
    sample = CovariateSample(covariates={"t": np.array(["a", "b"])},
                             weights=np.array([0.25, 0.75]))
    got = counterfactual_density(model, sample)
    expected = 0.25 * f_a.values + 0.75 * f_b.values
    assert np.max(np.abs(got.values - expected)) < 1e-12


def test_counterfactual_linear_in_weights():
    model, grid, basis = _saturated_binary_model()
    s1 = CovariateSample(covariates={"t": np.array(["a", "b"])}, weights=np.array([0.3, 0.7]))
    s2 = CovariateSample(covariates={"t": np.array(["a", "b"])}, weights=np.array([0.6, 0.4]))
    f1 = counterfactual_density(model, s1).values
    f2 = counterfactual_density(model, s2).values
    mixed = CovariateSample(covariates={"t": np.array(["a", "b"])},
                            weights=np.array([0.45, 0.55]))
    assert np.max(np.abs(counterfactual_density(model, mixed).values - 0.5 * (f1 + f2))) < 1e-12


def test_counterfactual_requires_model_covariates():
    model, grid, basis = _saturated_binary_model()
    sample = CovariateSample(covariates={"other": np.array(["x"])}, weights=np.array([1.0]))
    with pytest.raises(StructuralError, match="lacks covariates"):
        counterfactual_density(model, sample)


def test_counterfactual_close_to_analytic_mixture():
    spec = DgpSpec()
    data1 = simulate(spec, 1, 20_000, seed=30)
    data0 = simulate(spec, 0, 20_000, seed=31)
    grid = unit_grid(50)
    model1 = fit_bayes_group(data1, grid)
    sample0 = data0.sample
    f10 = counterfactual_density(model1, sample0)
    assert tv_distance(f10, true_counterfactual(spec, 1, 0, grid)) < 0.03


# ------------------------------------------------------------------- ratios

def test_te_equals_de_times_ce():
    model, grid = _two_binary_model()
    model0, _ = _two_binary_model(scale_u=0.2, scale_v=0.5, seed=1)
    s1 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.15, 0.35, 0.3, 0.2])
    s0 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.4, 0.1, 0.1, 0.4])
    f11 = counterfactual_density(model, s1)
    f01 = counterfactual_density(model0, s1)
    f00 = counterfactual_density(model0, s0)
    de = distribution_effect(f11, f01)
    ce = covariate_effect(f01, f00)
    te = total_effect(f11, f00)
    mask = de.valid & ce.valid & te.valid
    assert np.max(np.abs(te.values[mask] - de.values[mask] * ce.values[mask])) < 1e-12


def test_identical_numerator_denominator_gives_unit_ratio():
    grid = unit_grid(20)
    f = beta_on_grid(grid, 2, 3)
    de = distribution_effect(f, f)
    assert np.all(de.valid)
    assert np.allclose(de.values, 1.0, atol=1e-14)


def test_ratio_uniform_vs_beta22_at_midpoint():
    # odd bin count puts a cell center exactly at 0.5 where Beta(2,2) = 1.5
    grid = unit_grid(25)
    ratio = distribution_effect(uniform_density(grid), beta_on_grid(grid, 2, 2))
    mid = 12
    assert grid.centers[mid] == 0.5
    assert ratio.values[mid] == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_ratio_masks_tiny_denominator():
    grid = unit_grid(4)
    num = uniform_density(grid)
    den = GridDensity(grid, np.array([0.0, 2.0, 1.0, 1.0]))
    ratio = distribution_effect(num, den)
    assert not ratio.valid[0]
    assert np.isnan(ratio.values[0])
    assert np.all(ratio.valid[1:])
    assert np.all(ratio.values[1:] > 0)


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_ratio_function_holds_g_or_d_by_g_values(shape):
    values = np.full(shape, 2.0)
    values[..., 1] = np.nan
    ratio = RatioFunction(unit_grid(4), values)
    assert ratio.values.shape == shape
    assert np.array_equal(ratio.valid, np.isfinite(values))


@pytest.mark.parametrize("values", [
    np.array(1.0), np.ones((2, 3, 4)), np.ones(5), np.ones((3, 5)), np.ones((4, 3)),
    np.array([1.0, 0.0, 1.0, 1.0]),
    np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -2.0, np.nan, 1.0]]),
    np.array([[1.0, np.nan, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0]]),
    np.array([[1.0, 1.0, 1.0, 1.0], [-np.inf, 1.0, 1.0, 1.0]]),
])
def test_ratio_function_rejects_a_bad_shape_or_value(values):
    with pytest.raises(StructuralError):
        RatioFunction(unit_grid(4), values)


def test_total_effect_swaps_to_reciprocal():
    grid = unit_grid(20)
    f1, f0 = beta_on_grid(grid, 2, 3), beta_on_grid(grid, 3, 2)
    fwd = total_effect(f1, f0)
    bwd = total_effect(f0, f1)
    assert np.allclose(fwd.values * bwd.values, 1.0, atol=1e-12)


# --------------------------------------------------------- marginal effects

def test_ce_j_matches_brute_force_enumeration():
    model, grid = _two_binary_model()
    s1 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.15, 0.35, 0.3, 0.2])
    s0 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.4, 0.1, 0.1, 0.4])
    got = marginal_effect_ce_j(model, s0, s1, "v")

    # independent enumeration over all (row of s0, row of s1) pairs
    num = np.zeros(grid.n_cells)
    for i in range(len(s0)):
        for k in range(len(s1)):
            x = {"u": s0.covariates["u"][i], "v": s1.covariates["v"][k]}
            num += s0.weights[i] * s1.weights[k] * predict_density(model, x).values
    den = np.zeros(grid.n_cells)
    for i in range(len(s0)):
        den += s0.weights[i] * predict_density(model, row(s0, i)).values
    expected = num / den
    assert np.all(got.valid)
    assert np.max(np.abs(got.values - expected)) < 1e-10


def test_de_j_matches_brute_force_enumeration():
    model1, grid = _two_binary_model(scale_u=0.5, scale_v=0.2, seed=2)
    model0, _ = _two_binary_model(scale_u=0.2, scale_v=0.4, seed=3)
    s1 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.15, 0.35, 0.3, 0.2])
    s0 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.4, 0.1, 0.1, 0.4])
    got = marginal_effect_de_j(model1, model0, s1, s0, "u")

    num = np.zeros(grid.n_cells)
    for i in range(len(s1)):
        for k in range(len(s0)):
            x = {"v": s1.covariates["v"][i], "u": s0.covariates["u"][k]}
            num += s1.weights[i] * s0.weights[k] * predict_density(model1, x).values
    den = np.zeros(grid.n_cells)
    for i in range(len(s0)):
        den += s0.weights[i] * predict_density(model0, row(s0, i)).values
    expected = num / den
    assert np.all(got.valid)
    assert np.max(np.abs(got.values - expected)) < 1e-10


def test_ce_j_unit_when_marginals_match_under_independence():
    model, grid = _two_binary_model()
    # independent covariates in the reference sample, same x_v marginal in both
    p_u, q_v = np.array([0.6, 0.4]), np.array([0.3, 0.7])
    w0 = np.outer(p_u, q_v).ravel()
    s0 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], w0)
    s1 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"],
                 np.outer([0.1, 0.9], q_v).ravel())
    ce_v = marginal_effect_ce_j(model, s0, s1, "v")
    assert np.all(np.abs(ce_v.values[ce_v.valid] - 1.0) < 1e-12)


def test_ce_j_reduces_to_ce_for_single_covariate():
    model, grid, basis = _saturated_binary_model()
    s1 = CovariateSample(covariates={"t": np.array(["a", "b"])}, weights=np.array([0.2, 0.8]))
    s0 = CovariateSample(covariates={"t": np.array(["a", "b"])}, weights=np.array([0.7, 0.3]))
    ce_t = marginal_effect_ce_j(model, s0, s1, "t")
    f01 = counterfactual_density(model, s1)
    f00 = counterfactual_density(model, s0)
    ce = covariate_effect(f01, f00)
    mask = ce.valid & ce_t.valid
    assert np.max(np.abs(ce_t.values[mask] - ce.values[mask])) < 1e-10


def test_ce_j_fast_path_close_to_reference():
    model, grid = _two_binary_model(scale_u=0.4, scale_v=0.3)
    s1 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.15, 0.35, 0.3, 0.2])
    s0 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.4, 0.1, 0.1, 0.4])
    ref = marginal_effect_ce_j(model, s0, s1, "v")
    fast = marginal_effect_ce_j_fast(model, s0, s1, "v")
    mask = ref.valid & fast.valid
    gap = 0.5 * np.sum(np.abs(ref.values[mask] - fast.values[mask]) * grid.widths[mask])
    assert gap < 1e-3


def test_ce_j_fast_path_exact_when_other_effect_vanishes():
    model, grid = _two_binary_model(scale_u=0.0, scale_v=0.6)
    s1 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.15, 0.35, 0.3, 0.2])
    s0 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.4, 0.1, 0.1, 0.4])
    ref = marginal_effect_ce_j(model, s0, s1, "v")
    fast = marginal_effect_ce_j_fast(model, s0, s1, "v")
    mask = ref.valid & fast.valid
    assert np.max(np.abs(ref.values[mask] - fast.values[mask])) < 1e-12


def test_marginal_effect_unknown_covariate():
    model, grid = _two_binary_model()
    s = _sample(["a"], ["a"], [1.0])
    with pytest.raises(ConfigError):
        marginal_effect_ce_j(model, s, s, "zzz")


# -------------------------------------------------------------------- bands

def _band_inputs():
    spec = DgpSpec()
    data1 = simulate(spec, 1, 1500, seed=50)
    data0 = simulate(spec, 0, 1500, seed=51)
    grid = unit_grid(25)
    models = (fit_bayes_group(data1, grid), fit_bayes_group(data0, grid))
    samples = (data1.sample, data0.sample)
    return models, samples, grid


def test_effect_bands_counts_and_grids():
    models, samples, grid = _band_inputs()
    bands = effect_bands(models, samples, [("de", None)], alpha=0.05, B=4, seed=4)[("de", None)]
    assert isinstance(bands, RatioFunction)
    assert bands.values.shape == bands.valid.shape == (5, grid.n_cells)
    assert bands.grid.same_as(grid)
    # row 0 is the point DE = f11 / f01: both models over the treated covariates
    point = distribution_effect(counterfactual_density(models[0], samples[0]),
                                counterfactual_density(models[1], samples[0]))
    assert np.array_equal(bands.values[0], point.values, equal_nan=True)
    assert np.array_equal(bands.valid[0], point.valid)
    assert np.array_equal(np.isnan(bands.values), ~bands.valid)


def test_effect_bands_deterministic():
    models, samples, grid = _band_inputs()
    b1 = effect_bands(models, samples, [("te", None)], alpha=0.05, B=3, seed=9)[("te", None)]
    b2 = effect_bands(models, samples, [("te", None)], alpha=0.05, B=3, seed=9)[("te", None)]
    for d1, d2 in zip(b1.values[1:], b2.values[1:]):
        assert np.array_equal(d1, d2, equal_nan=True)


def test_effect_bands_reject_alpha_near_one():
    # the region of the draws holds 1 - alpha of the mass: alpha is in (0, 0.5]
    models, samples, grid = _band_inputs()
    with pytest.raises(DomainError, match="alpha must be in"):
        effect_bands(models, samples, [("ce", None)], alpha=1.0 - 1e-9, B=3, seed=2)


def test_de_times_ce_is_te_on_every_band_draw():
    # each draw's three ratios come from the same f11, f01 and f00 curves
    models, samples, grid = _band_inputs()
    effects = [("de", None), ("ce", None), ("te", None)]
    bands = effect_bands(models, samples, effects, alpha=0.05, B=6, seed=3)
    de, ce, te = (bands[effect] for effect in effects)
    assert te.values.shape == (7, grid.n_cells)
    for d, c, t, valid in zip(de.values, ce.values, te.values, de.valid & ce.valid & te.valid):
        assert valid.sum() > grid.n_cells // 2
        product = d[valid] * c[valid]
        assert np.all(np.abs(product - t[valid]) <= 1e-12 * t[valid])


def test_effect_bands_marginal_requires_name():
    models, samples, grid = _band_inputs()
    with pytest.raises(ConfigError):
        effect_bands(models, samples, [("ce_j", None)], alpha=0.05, B=1, seed=1)


def test_effect_bands_unknown_kind():
    models, samples, grid = _band_inputs()
    with pytest.raises(ConfigError):
        effect_bands(models, samples, [("nope", None)], alpha=0.05, B=1, seed=1)


def test_de_band_spread_covers_truth_at_grid_median():
    # pointwise spread of 100 coefficient draws of DE at the grid median
    # should cover the analytic DE in at least 80 of 100 repetitions
    spec = DgpSpec()
    grid = unit_grid(50)
    mid = grid.n_cells // 2
    f11_true = true_counterfactual(spec, 1, 1, grid).values[mid]
    f01_true = true_counterfactual(spec, 0, 1, grid).values[mid]
    true_de = f11_true / f01_true
    covered = 0
    for rep in range(100):
        data1 = simulate(spec, 1, 5000, seed=700_000 + rep)
        data0 = simulate(spec, 0, 5000, seed=800_000 + rep)
        models = (fit_bayes_group(data1, grid), fit_bayes_group(data0, grid))
        samples = (data1.sample, data0.sample)
        de = ("de", None)
        bands = effect_bands(models, samples, [de], alpha=0.05, B=100, seed=rep)[de]
        vals = bands.values[1:, mid][bands.valid[1:, mid]]
        if len(vals) and min(vals) <= true_de <= max(vals):
            covered += 1
    assert covered >= 80, f"covered {covered} of 100"
