import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from cfdens.basis import (
    PartialEffectSpec,
    _bspline_design,
    build_covariate_basis,
    build_outcome_basis,
)
from cfdens.errors import ConfigError, DataError
from cfdens.measure_grid import GridSpec, ReferenceMeasure, integrate

from conftest import UNIT_MEASURE, unit_grid
from reference import covariate_row, design_row


# ------------------------------------------------------------ outcome basis

def test_outcome_basis_continuous_column_count():
    grid = unit_grid(50)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
    # 12 spline columns, no atoms, one dropped
    assert basis.n_columns == 11
    assert basis.matrix.shape == (50, 11)


def test_outcome_basis_mixed_column_count(mixed_measure, mixed_grid):
    basis = build_outcome_basis(mixed_measure, mixed_grid, spline_count=12, degree=3)
    # 12 splines + 2 atom indicators, one dropped
    assert basis.n_columns == 13


def test_outcome_basis_single_atom_is_degenerate():
    measure = ReferenceMeasure(atoms=((0.0, 1.0),))
    grid = GridSpec.from_measure(measure, 0)
    basis = build_outcome_basis(measure, grid, spline_count=12)
    assert basis.n_columns == 0


def test_outcome_basis_columns_have_zero_integral(mixed_measure, mixed_grid):
    basis = build_outcome_basis(mixed_measure, mixed_grid, spline_count=12, degree=3)
    for m in range(basis.n_columns):
        assert abs(integrate(basis.matrix[:, m], mixed_grid)) < 1e-8


def test_outcome_basis_full_rank(mixed_measure, mixed_grid):
    basis = build_outcome_basis(mixed_measure, mixed_grid, spline_count=12, degree=3)
    assert np.linalg.matrix_rank(basis.matrix) == basis.n_columns


def test_outcome_basis_rejects_count_not_exceeding_degree():
    grid = unit_grid(50)
    with pytest.raises(ConfigError):
        build_outcome_basis(UNIT_MEASURE, grid, spline_count=3, degree=3)
    # a negative degree would drop the clamped knots (-2) or mis-shape the design (-1)
    for degree in (-1, -2):
        with pytest.raises(ConfigError,
                           match=f"^outcome basis degree must be >= 0, got {degree}$"):
            build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=degree)
    steps = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=0)
    assert steps.n_columns == 11


def test_evaluate_at_matches_grid_centers():
    grid = unit_grid(50)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
    for g in (0, 17, 49):
        got = basis.evaluate_many([float(grid.centers[g])])[0]
        assert np.allclose(got, basis.matrix[g], atol=1e-12)


def test_evaluate_at_atom(mixed_measure, mixed_grid):
    basis = build_outcome_basis(mixed_measure, mixed_grid, spline_count=12, degree=3)
    got = basis.evaluate_many([0.0])[0]
    assert np.allclose(got, basis.matrix[30], atol=1e-12)


def test_evaluate_many_at_cell_points_is_the_basis_matrix(mixed_measure, mixed_grid):
    basis = build_outcome_basis(mixed_measure, mixed_grid, spline_count=12, degree=3)
    points = np.concatenate([mixed_grid.centers[:mixed_grid.n_continuous],
                             mixed_grid.atom_locations])
    assert np.allclose(basis.evaluate_many(points), basis.matrix, atol=1e-12)


def test_evaluate_many_rejects_points_off_the_atoms():
    measure = ReferenceMeasure(atoms=((0.0, 1.0), (1.0, 1.0)))
    basis = build_outcome_basis(measure, GridSpec.from_measure(measure, 0), spline_count=12)
    with pytest.raises(DataError, match="0.5 matches no atom"):
        basis.evaluate_many([1.0, 0.5])


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_bspline_design_matches_scipy(degree):
    lo, hi = -1.3, 2.7
    rng = np.random.default_rng(degree)
    x = np.concatenate([[lo, hi, lo - 0.5, hi + 0.5], rng.uniform(lo, hi, 200)])
    for count in range(max(4, degree + 1), 13):
        interior = np.linspace(lo, hi, count - degree + 1)[1:-1]
        knots = np.concatenate([[lo] * (degree + 1), interior, [hi] * (degree + 1)])
        want = BSpline.design_matrix(np.clip(x, lo, hi), knots, degree).toarray()
        got = _bspline_design(x, lo, hi, count, degree)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-14)


# ---------------------------------------------------------- covariate bases

def test_intercept_basis():
    cb = build_covariate_basis(PartialEffectSpec.intercept(), [None])
    assert cb.n_columns == 1
    assert np.array_equal(cb.evaluate(None), [1.0])


def test_categorical_dummy_coding():
    spec = PartialEffectSpec.categorical("region", ["W", "E"], reference="W")
    cb = build_covariate_basis(spec, ["W", "E", "E"])
    assert cb.n_columns == 1
    assert np.array_equal(cb.evaluate("W"), [0.0])
    assert np.array_equal(cb.evaluate("E"), [1.0])


def test_categorical_three_levels():
    spec = PartialEffectSpec.categorical("edu", ["low", "mid", "high"], reference="low")
    cb = build_covariate_basis(spec, ["low", "mid", "high"])
    assert cb.n_columns == 2
    assert np.array_equal(cb.evaluate("low"), [0.0, 0.0])
    assert np.array_equal(cb.evaluate("mid"), [1.0, 0.0])
    assert np.array_equal(cb.evaluate("high"), [0.0, 1.0])


def test_categorical_unseen_level_errors():
    spec = PartialEffectSpec.categorical("region", ["W", "E"], reference="W")
    cb = build_covariate_basis(spec, ["W", "E"])
    with pytest.raises(DataError, match="unseen level"):
        cb.evaluate("N")


def test_categorical_training_values_outside_levels():
    spec = PartialEffectSpec.categorical("region", ["W", "E"], reference="W")
    with pytest.raises(DataError):
        build_covariate_basis(spec, ["W", "N"])


def test_categorical_unseen_levels_error_names_the_first_in_sorted_order():
    spec = PartialEffectSpec.categorical("region", ["W", "E"], reference="W")
    with pytest.raises(DataError, match="unseen level 'N' for covariate 'region'"):
        build_covariate_basis(spec, ["W", "S", "N", "E", "S"])


def test_smooth_training_values_all_equal_errors():
    # B-splines over [40, 40] are all zero, so the effect would vanish silently
    spec = PartialEffectSpec.smooth("age", knot_count=9, degree=3)
    with pytest.raises(DataError, match="^smooth covariate 'age' takes only the value 40$"):
        build_covariate_basis(spec, np.full(30, 40.0))


def test_smooth_column_count_and_centering():
    rng = np.random.default_rng(0)
    ages = rng.uniform(20, 65, size=200)
    spec = PartialEffectSpec.smooth("age", knot_count=9, degree=3)
    cb = build_covariate_basis(spec, ages)
    assert cb.n_columns == 8
    rows = np.vstack([cb.evaluate(a) for a in ages])
    # reparameterized columns average to zero over the training sample
    assert np.max(np.abs(rows.mean(axis=0))) < 1e-8


def test_smooth_clamps_outside_training_range():
    spec = PartialEffectSpec.smooth("age", knot_count=6, degree=2)
    cb = build_covariate_basis(spec, np.linspace(20, 65, 100))
    assert np.allclose(cb.evaluate(10.0), cb.evaluate(20.0))
    assert np.allclose(cb.evaluate(99.0), cb.evaluate(65.0))


def test_spec_validation():
    with pytest.raises(ConfigError):
        PartialEffectSpec.categorical("x", ["only"], reference="only")
    with pytest.raises(ConfigError):
        PartialEffectSpec.categorical("x", ["a", "b"], reference="c")
    with pytest.raises(ConfigError):
        PartialEffectSpec.smooth("x", knot_count=3, degree=3)


# -------------------------------------------------------------- design rows

def _toy_bases():
    intercept = build_covariate_basis(PartialEffectSpec.intercept(), [None])
    binary = build_covariate_basis(
        PartialEffectSpec.categorical("t", ["a", "b"], reference="a"), ["a", "b"]
    )
    return [intercept, binary]


def test_design_row_dimensions():
    grid = unit_grid(50)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
    bases = _toy_bases()
    block = design_row(bases, basis, {"t": "b"})
    # R = sum_j d_j * d_T = (1 + 1) * 11
    assert block.shape == (50, 22)


def test_design_row_reference_level_zeroes_effect_block():
    grid = unit_grid(20)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=2)
    bases = _toy_bases()
    block = design_row(bases, basis, {"t": "a"})
    d_T = basis.n_columns
    assert np.allclose(block[:, :d_T], basis.matrix)
    assert np.all(block[:, d_T:] == 0.0)


def test_design_row_missing_covariate():
    grid = unit_grid(20)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=6, degree=2)
    with pytest.raises(DataError, match="missing covariate"):
        design_row(_toy_bases(), basis, {})


def test_covariate_row_concatenates_in_effect_order():
    bases = _toy_bases()
    assert np.array_equal(covariate_row(bases, {"t": "b"}), [1.0, 1.0])
    assert np.array_equal(covariate_row(bases, {"t": "a"}), [1.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=22, max_size=22),
       st.sampled_from(["a", "b"]))
def test_property_linear_predictor_has_zero_integral(theta, level):
    grid = unit_grid(50)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
    eta = design_row(_toy_bases(), basis, {"t": level}) @ np.array(theta)
    assert abs(integrate(eta, grid)) < 1e-8
