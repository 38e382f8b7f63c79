import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdens.counterfactual import RatioFunction
from cfdens.errors import DomainError, StructuralError
from cfdens.measure_grid import (
    ClrFunction,
    GridDensity,
    GridSpec,
    ReferenceMeasure,
    clr,
    clr_inverse,
    density_from_clr_values,
    inner_product_b2,
    integrate,
    ominus,
    oplus,
    odot,
    tv_distance,
    uniform_density,
)

from conftest import beta_on_grid, unit_grid


# ---------------------------------------------------------------- measures

def test_measure_requires_interval_or_atoms():
    with pytest.raises(DomainError):
        ReferenceMeasure()


def test_measure_rejects_bad_interval():
    with pytest.raises(DomainError):
        ReferenceMeasure(continuous_interval=(1.0, 1.0))


def test_measure_rejects_duplicate_atoms():
    with pytest.raises(DomainError):
        ReferenceMeasure(continuous_interval=(0, 1), atoms=((2.0, 1.0), (2.0, 1.0)))


def test_measure_rejects_nonpositive_atom_weight():
    with pytest.raises(DomainError):
        ReferenceMeasure(atoms=((0.0, 0.0),))


@pytest.mark.parametrize("interval, atoms, message", [
    ((10.0, np.inf), (), r"interval bounds must be finite with a < b, got \(10.0, inf\)"),
    ((-np.inf, 10.0), (), r"interval bounds must be finite with a < b, got \(-inf, 10.0\)"),
    ((10.0, np.nan), (), r"interval bounds must be finite with a < b, got \(10.0, nan\)"),
    (None, ((np.nan, 1.0), (1e4, 1.0)), "atom location must be finite, got nan"),
    (None, ((-np.inf, 1.0),), "atom location must be finite, got -inf"),
    (None, ((0.0, np.nan), (1e4, 1.0)), "atom weight at 0.0 must be finite and positive, got nan"),
    (None, ((0.0, np.inf), (1e4, 1.0)), "atom weight at 0.0 must be finite and positive, got inf"),
], ids=["upper-inf", "lower-inf", "upper-nan", "location-nan", "location-inf", "weight-nan",
        "weight-inf"])
def test_measure_rejects_a_non_finite_bound_location_or_weight(interval, atoms, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        ReferenceMeasure(continuous_interval=interval, atoms=atoms)


# ------------------------------------------------------------------- grids

def test_grid_from_measure_layout(mixed_measure):
    grid = GridSpec.from_measure(mixed_measure, 30)
    assert grid.n_continuous == 30
    assert grid.n_atoms == 2
    assert grid.n_cells == 32
    assert grid.cell_types() == ["bin"] * 30 + ["atom"] * 2
    # atom cells carry the atom weight as width
    assert grid.widths[30] == 1.0 and grid.widths[31] == 1.0
    assert grid.centers[30] == 0.0 and grid.centers[31] == 10000.0
    assert grid.total_measure == pytest.approx(9980.0 + 2.0)


def test_grid_rejects_atom_on_edge():
    measure = ReferenceMeasure(continuous_interval=(0.0, 1.0), atoms=((0.5, 1.0),))
    with pytest.raises(DomainError):
        GridSpec.from_measure(measure, 2)  # 0.5 is an interior edge


def test_cell_index_left_closed():
    grid = unit_grid(10)
    assert grid.cell_index(0.0) == 0
    # a bin edge belongs to the bin on its right
    assert grid.cell_index(0.1) == 1
    assert grid.cell_index(0.0999999) == 0
    # the last bin is closed on the right
    assert grid.cell_index(1.0) == 9


def test_cell_index_atoms_take_precedence(mixed_grid):
    assert mixed_grid.cell_index(0.0) == 30
    assert mixed_grid.cell_index(10000.0) == 31
    assert mixed_grid.cell_index(10.0) == 0


def test_cell_index_out_of_domain(mixed_grid):
    with pytest.raises(DomainError):
        mixed_grid.cell_index(5.0)  # between the atom at 0 and the interval


def test_same_as_is_bitwise():
    g1, g2 = unit_grid(10), unit_grid(10)
    assert g1.same_as(g2)
    assert not g1.same_as(unit_grid(11))


# --------------------------------------------------------------- integrate

def test_integrate_constants(grid50):
    assert integrate(np.ones(50), grid50) == pytest.approx(1.0, abs=1e-14)
    assert integrate(np.zeros(50), grid50) == 0.0


def test_integrate_linear_exact(grid50):
    # midpoint quadrature is exact for linear integrands
    assert integrate(grid50.centers, grid50) == pytest.approx(0.5, abs=1e-13)


def test_integrate_shape_mismatch(grid50):
    with pytest.raises(StructuralError):
        integrate(np.ones(49), grid50)


def test_integrate_atoms_weighted():
    measure = ReferenceMeasure(atoms=((0.0, 2.0), (1.0, 3.0)))
    grid = GridSpec.from_measure(measure, 0)
    assert integrate(np.array([1.0, 1.0]), grid) == pytest.approx(5.0)


# ---------------------------------------------------------------- densities

def test_density_rejects_negative(grid50):
    values = np.full(50, 1.0)
    values[0] = -0.1
    with pytest.raises(DomainError):
        GridDensity(grid50, values)


def test_density_rejects_non_unit_integral(grid50):
    with pytest.raises(DomainError):
        GridDensity(grid50, np.full(50, 1.5))


#: a value that meets each record's invariant in every cell of ``unit_grid``
RECORDS = {GridDensity: 1.0, ClrFunction: 0.0, RatioFunction: 2.0}


@pytest.mark.parametrize("cls, shape", [
    *((cls, shape) for cls in RECORDS for shape in [(2, 3, 4), (5,), (3, 5), (4, 3)]),
    (GridDensity, (3, 4)), (ClrFunction, (3, 4)),
], ids=lambda v: getattr(v, "__name__", None) or "x".join(map(str, v)))
def test_grid_values_reject_a_shape_that_does_not_fit_the_class(cls, shape):
    # only a ratio holds D x G values (its band draws); each message names the class
    message = (f"^{cls.__name__} values of shape {re.escape(str(shape))} "
               "do not match the 4 grid cells$")
    with pytest.raises(StructuralError, match=message):
        cls(unit_grid(4), np.full(shape, RECORDS[cls]))


@pytest.mark.parametrize("cls", list(RECORDS))
def test_grid_values_are_one_record_of_grid_and_values(cls):
    grid, values = unit_grid(4), np.full(4, RECORDS[cls])
    record = cls(grid, values)
    assert [f.name for f in dataclasses.fields(cls)] == ["grid", "values"]
    assert record == cls(grid, values)
    assert all(record != c(grid, np.full(4, v)) for c, v in RECORDS.items() if c is not cls)
    assert repr(record) == f"{cls.__name__}(grid={grid!r})"
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and np.array_equal(copy.values, values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.values = values
    # replace builds the record again, so the checks run
    with pytest.raises(StructuralError, match=f"^{cls.__name__} values of shape"):
        dataclasses.replace(record, values=np.full(5, RECORDS[cls]))


def test_from_unnormalized(grid50):
    f = GridDensity.from_unnormalized(grid50, np.full(50, 7.0))
    assert integrate(f.values, grid50) == pytest.approx(1.0, abs=1e-12)


def test_uniform_density_is_constant(mixed_grid):
    u = uniform_density(mixed_grid)
    assert np.allclose(u.values, 1.0 / mixed_grid.total_measure)
    assert integrate(u.values, mixed_grid) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------- clr

def test_clr_uniform_is_zero(grid50):
    assert np.allclose(clr(uniform_density(grid50)).values, 0.0, atol=1e-14)


def test_clr_of_linear_density(grid50):
    # clr(2y) = log(y) + 1 up to quadrature error in the log-mean
    f = GridDensity.from_unnormalized(grid50, 2.0 * grid50.centers)
    expected = np.log(grid50.centers) + 1.0
    assert np.max(np.abs(clr(f).values - expected)) < 0.01


def test_clr_rejects_zero_cell(grid50):
    values = np.ones(50)
    values[7] = 0.0
    f = GridDensity.from_unnormalized(grid50, values)
    with pytest.raises(DomainError, match="cell 7"):
        clr(f)


def test_clr_inverse_zero_is_uniform(grid50):
    g = ClrFunction(grid50, np.zeros(50))
    assert np.allclose(clr_inverse(g).values, uniform_density(grid50).values)


def test_clr_inverse_recovers_linear_density(grid50):
    # exp(log y + 1) renormalizes to the density 2y; center the input so it
    # satisfies the zero-integral invariant
    raw = np.log(grid50.centers) + 1.0
    raw = raw - integrate(raw, grid50) / grid50.total_measure
    f = clr_inverse(ClrFunction(grid50, raw))
    expected = GridDensity.from_unnormalized(grid50, 2.0 * grid50.centers)
    assert np.max(np.abs(f.values - expected.values)) < 1e-12


def test_density_from_clr_values_ignores_constants(grid50):
    vals = np.log(grid50.centers + 0.3)
    f1 = density_from_clr_values(grid50, vals)
    f2 = density_from_clr_values(grid50, vals + 123.0)
    assert np.allclose(f1.values, f2.values, atol=1e-12)


def test_clr_rejects_nonzero_integral(grid50):
    with pytest.raises(DomainError):
        ClrFunction(grid50, np.ones(50))


# ------------------------------------------------------------ vector space

def test_oplus_betas(grid50):
    f = oplus(beta_on_grid(grid50, 2, 1), beta_on_grid(grid50, 1, 2))
    expected = beta_on_grid(grid50, 2, 2)
    assert np.max(np.abs(f.values - expected.values)) < 1e-12


def test_odot_neutral_on_uniform(grid50):
    u = uniform_density(grid50)
    assert np.allclose(odot(2.0, u).values, u.values)


def test_odot_powers_beta(grid50):
    f = odot(2.0, beta_on_grid(grid50, 2, 1))
    expected = beta_on_grid(grid50, 3, 1)
    assert np.max(np.abs(f.values - expected.values)) < 1e-12


def test_ominus_inverts_oplus(grid50):
    rng = np.random.default_rng(3)
    f1 = GridDensity.from_unnormalized(grid50, rng.uniform(0.2, 2.0, 50))
    f2 = GridDensity.from_unnormalized(grid50, rng.uniform(0.2, 2.0, 50))
    back = ominus(oplus(f1, f2), f2)
    assert np.max(np.abs(back.values - f1.values)) < 1e-12


def test_grid_mismatch_raises():
    f1 = uniform_density(unit_grid(10))
    f2 = uniform_density(unit_grid(20))
    with pytest.raises(StructuralError):
        oplus(f1, f2)


# ------------------------------------------------------------ inner product

def test_inner_product_with_uniform_is_zero(grid50):
    f = beta_on_grid(grid50, 2, 3)
    assert inner_product_b2(uniform_density(grid50), f) == pytest.approx(0.0, abs=1e-12)


def test_inner_product_analytic_value():
    # <Beta(2,1), Beta(1,2)> = 1 - pi^2/6 analytically; the log singularities
    # at the endpoints dominate the quadrature error, hence the fine grid
    grid = unit_grid(5000)
    got = inner_product_b2(beta_on_grid(grid, 2, 1), beta_on_grid(grid, 1, 2))
    assert got == pytest.approx(1.0 - np.pi**2 / 6.0, abs=5e-3)


def test_inner_product_nonnegative_norm(grid50):
    rng = np.random.default_rng(11)
    f = GridDensity.from_unnormalized(grid50, rng.uniform(0.1, 2.0, 50))
    assert inner_product_b2(f, f) >= 0.0
    assert inner_product_b2(uniform_density(grid50), uniform_density(grid50)) == 0.0


# ------------------------------------------------------------------------ tv

def test_tv_self_is_zero(grid50):
    f = beta_on_grid(grid50, 2, 2)
    assert tv_distance(f, f) == 0.0


def test_tv_uniform_vs_beta22():
    # analytic value sqrt(3)/9
    grid = unit_grid(2000)
    got = tv_distance(uniform_density(grid), beta_on_grid(grid, 2, 2))
    assert got == pytest.approx(np.sqrt(3.0) / 9.0, abs=1e-3)


def test_tv_disjoint_atoms_is_one():
    measure = ReferenceMeasure(atoms=((0.0, 1.0), (1.0, 1.0)))
    grid = GridSpec.from_measure(measure, 0)
    f1 = GridDensity(grid, np.array([1.0, 0.0]))
    f2 = GridDensity(grid, np.array([0.0, 1.0]))
    assert tv_distance(f1, f2) == pytest.approx(1.0)


# ------------------------------------------------------------ property tests

positive_cells = st.lists(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False), min_size=50, max_size=50
)


@settings(max_examples=50, deadline=None)
@given(positive_cells)
def test_property_clr_roundtrip(cells):
    grid = unit_grid(50)
    f = GridDensity.from_unnormalized(grid, np.array(cells))
    back = clr_inverse(clr(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(positive_cells, positive_cells)
def test_property_clr_maps_oplus_to_sum(c1, c2):
    grid = unit_grid(50)
    f1 = GridDensity.from_unnormalized(grid, np.array(c1))
    f2 = GridDensity.from_unnormalized(grid, np.array(c2))
    lhs = clr(oplus(f1, f2)).values
    rhs = clr(f1).values + clr(f2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(positive_cells, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_property_clr_maps_odot_to_scaling(cells, scalar):
    grid = unit_grid(50)
    f = GridDensity.from_unnormalized(grid, np.array(cells))
    lhs = clr(odot(scalar, f)).values
    rhs = scalar * clr(f).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(positive_cells)
def test_property_uniform_is_neutral(cells):
    grid = unit_grid(50)
    f = GridDensity.from_unnormalized(grid, np.array(cells))
    assert np.max(np.abs(oplus(f, uniform_density(grid)).values - f.values)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(positive_cells, positive_cells, positive_cells)
def test_property_tv_is_a_metric(c1, c2, c3):
    grid = unit_grid(50)
    f1 = GridDensity.from_unnormalized(grid, np.array(c1))
    f2 = GridDensity.from_unnormalized(grid, np.array(c2))
    f3 = GridDensity.from_unnormalized(grid, np.array(c3))
    d12, d21 = tv_distance(f1, f2), tv_distance(f2, f1)
    assert d12 == d21
    assert 0.0 <= d12 <= 1.0 + 1e-12
    assert tv_distance(f1, f3) <= d12 + tv_distance(f2, f3) + 1e-12
