"""Outcome and covariate bases for the additive density regression model.

The outcome basis spans a subspace of the zero-integral clr space: B-spline
columns over the continuous part and one indicator column per atom, each
centered to zero measure-integral, with one linearly dependent column dropped
(the raw columns form a partition of unity).  Covariate bases produce the
per-observation coefficient vectors that multiply the outcome basis in the
tensor-product design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .measure_grid import GridSpec, ReferenceMeasure, integrate


@dataclass(frozen=True)
class PartialEffectSpec:
    """One additive term: intercept, categorical dummies, or a smooth."""

    kind: str  # "intercept" | "categorical" | "smooth"
    covariate_name: str = ""
    levels: tuple[str, ...] = ()
    reference_level: str = ""
    knot_count: int = 0
    degree: int = 3

    def __post_init__(self):
        if self.kind == "categorical":
            if len(self.levels) < 2:
                raise ConfigError(f"categorical '{self.covariate_name}' needs >= 2 levels")
            if self.reference_level not in self.levels:
                raise ConfigError(
                    f"reference level '{self.reference_level}' not among levels"
                )
        elif self.kind == "smooth":
            if self.degree < 1:
                raise ConfigError("smooth degree must be >= 1")
            if self.knot_count < self.degree + 1:
                raise ConfigError("smooth needs knot_count >= degree + 1")
        elif self.kind != "intercept":
            raise ConfigError(f"unknown effect kind '{self.kind}'")

    @classmethod
    def intercept(cls) -> "PartialEffectSpec":
        return cls(kind="intercept", covariate_name="(intercept)")

    @classmethod
    def categorical(cls, name, levels, reference) -> "PartialEffectSpec":
        return cls(
            kind="categorical",
            covariate_name=name,
            levels=tuple(str(l) for l in levels),
            reference_level=str(reference),
        )

    @classmethod
    def smooth(cls, name, knot_count, degree=3) -> "PartialEffectSpec":
        return cls(kind="smooth", covariate_name=name, knot_count=knot_count, degree=degree)


def _bspline_design(x: np.ndarray, lo: float, hi: float, count: int, degree: int) -> np.ndarray:
    """Design matrix of ``count`` B-splines with equally spaced knots on [lo, hi].

    The Cox--de Boor recursion (de Boor 1978) over clamped knots, one degree
    at a time for all points; x is clipped to [lo, hi].
    """
    n_interior = count - degree - 1
    if n_interior < 0:
        raise ConfigError(f"need count > degree, got count={count}, degree={degree}")
    interior = np.linspace(lo, hi, n_interior + 2)[1:-1]
    t = np.concatenate([[lo] * (degree + 1), interior, [hi] * (degree + 1)])
    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    # degree 0: the span holding x, with the last span closed so x = hi is covered
    span = np.minimum(np.searchsorted(t, x, side="right") - 1, count - 1)
    design = (np.arange(len(t) - 1) == span[:, None]).astype(float)
    x = x[:, None]
    for k in range(1, degree + 1):
        # zero-width spans (repeated knots) carry zero weight
        left, right = t[k:-1] - t[:-k - 1], t[k + 1:] - t[1:-k]
        w_left = np.divide(x - t[:-k - 1], left, out=np.zeros((len(x), len(left))), where=left > 0)
        w_right = np.divide(t[k + 1:] - x, right, out=np.zeros((len(x), len(right))),
                            where=right > 0)
        design = w_left * design[:, :-1] + w_right * design[:, 1:]
    return design


@dataclass(frozen=True)
class OutcomeBasis:
    """Centered basis over the outcome grid, evaluable at arbitrary points.

    ``matrix`` holds the kept columns at the grid cells (n_cells x d_T).
    ``centering`` holds the measure-means subtracted from the raw columns so
    the basis can be evaluated off-grid consistently.
    """

    grid: GridSpec
    matrix: np.ndarray = field(repr=False)
    centering: np.ndarray = field(repr=False)
    spline_count: int
    degree: int
    interval: tuple[float, float] | None
    kept: tuple[int, ...]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def evaluate_many(self, ys) -> np.ndarray:
        """Centered kept columns (len(ys) x n_columns), one row per outcome value."""
        ys = np.asarray(ys, dtype=float)
        atoms = ys[:, None] == np.array(self.grid.atom_locations, dtype=float)
        on_atom = atoms.any(axis=1)
        if self.interval is None:
            if not on_atom.all():
                raise DataError(f"outcome {ys[~on_atom][0]} matches no atom")
            raw = atoms.astype(float)
        else:
            lo, hi = self.interval
            spl = _bspline_design(ys, lo, hi, self.spline_count, self.degree)
            raw = np.hstack([np.where(on_atom[:, None], 0.0, spl), atoms])
        return (raw - self.centering)[:, list(self.kept)]


def build_outcome_basis(
    measure: ReferenceMeasure,
    grid: GridSpec,
    spline_count: int,
    degree: int = 3,
) -> OutcomeBasis:
    """Build the clr-constrained outcome basis on a grid.

    B-spline columns are evaluated at bin centers and atoms contribute
    indicator columns; each column is centered to zero measure-integral and
    the last column is dropped to remove the single partition-of-unity
    dependency.
    """
    has_cont = measure.continuous_interval is not None
    if has_cont and spline_count <= degree:
        raise ConfigError(f"spline_count must exceed degree, got {spline_count} <= {degree}")
    cols = []
    if has_cont:
        a, b = measure.continuous_interval
        spl = np.zeros((grid.n_cells, spline_count))
        spl[: grid.n_continuous] = _bspline_design(
            grid.centers[: grid.n_continuous], a, b, spline_count, degree
        )
        cols.append(spl)
    if grid.n_atoms:
        ind = np.zeros((grid.n_cells, grid.n_atoms))
        for d in range(grid.n_atoms):
            ind[grid.n_continuous + d, d] = 1.0
        cols.append(ind)
    raw = np.hstack(cols)
    mu_total = grid.total_measure
    centering = np.array([integrate(raw[:, m], grid) for m in range(raw.shape[1])]) / mu_total
    centered = raw - centering
    kept = tuple(range(raw.shape[1] - 1))
    matrix = centered[:, list(kept)]
    expected = len(kept)
    if expected and np.linalg.matrix_rank(matrix) != expected:
        raise NumericError(
            f"outcome basis rank-deficient: rank {np.linalg.matrix_rank(matrix)} "
            f"of {expected} columns"
        )
    return OutcomeBasis(
        grid=grid,
        matrix=matrix,
        centering=centering,
        spline_count=spline_count if has_cont else 0,
        degree=degree,
        interval=measure.continuous_interval,
        kept=kept,
    )


@dataclass(frozen=True)
class CovariateBasis:
    """Evaluates one partial effect's covariate coefficients.

    Categorical effects use dummy coding (reference level -> zero vector);
    smooth effects use B-splines reparameterized to sum to zero over the
    training sample.
    """

    spec: PartialEffectSpec
    n_columns: int
    # smooth internals
    _range: tuple[float, float] | None = None
    _transform: np.ndarray | None = field(default=None, repr=False)

    def evaluate(self, value) -> np.ndarray:
        return self.evaluate_many([value])[0]

    def evaluate_many(self, values) -> np.ndarray:
        """Coefficient rows (len(values) x n_columns), one per covariate value."""
        values = np.asarray(values)
        if self.spec.kind == "intercept":
            return np.ones((len(values), 1))
        if self.spec.kind == "categorical":
            values = _check_levels(self.spec, values)
            non_ref = [l for l in self.spec.levels if l != self.spec.reference_level]
            return (values[:, None] == np.array(non_ref)).astype(float)
        lo, hi = self._range
        design = _bspline_design(values.astype(float), lo, hi, self.spec.knot_count,
                                 self.spec.degree)
        return design @ self._transform


def _check_levels(spec: PartialEffectSpec, values: np.ndarray) -> np.ndarray:
    """A categorical effect's values as strings; a value outside its levels raises."""
    values = np.asarray(values).astype(str)
    # a set difference, not np.unique: on strings that imports numpy.ma
    unseen = set(values.tolist()) - set(spec.levels)
    if unseen:
        raise DataError(f"unseen level '{min(unseen)}' for covariate '{spec.covariate_name}'")
    return values


def build_covariate_basis(spec: PartialEffectSpec, training_values) -> CovariateBasis:
    """Construct the covariate basis for one effect from its training sample."""
    if spec.kind == "intercept":
        return CovariateBasis(spec=spec, n_columns=1)
    training_values = np.asarray(training_values)
    if not len(training_values):
        raise DataError(f"no training values for covariate '{spec.covariate_name}'")
    if spec.kind == "categorical":
        _check_levels(spec, training_values)
        return CovariateBasis(spec=spec, n_columns=len(spec.levels) - 1)
    vals = training_values.astype(float)
    lo, hi = float(vals.min()), float(vals.max())
    design = _bspline_design(vals, lo, hi, spec.knot_count, spec.degree)
    means = design.mean(axis=0)
    # orthonormal null space of the means: columns of B @ transform average to zero
    transform = np.linalg.svd(means[None, :])[2][1:].T
    return CovariateBasis(
        spec=spec,
        n_columns=spec.knot_count - 1,
        _range=(lo, hi),
        _transform=transform,
    )


def covariate_row(covariate_bases: list[CovariateBasis], x: dict) -> np.ndarray:
    """Concatenated covariate coefficients b(x) across all effects."""
    return covariate_matrix(covariate_bases, {k: [v] for k, v in x.items()}, 1)[0]


def covariate_matrix(covariate_bases: list[CovariateBasis], covariates: dict, n_rows: int):
    """The n_rows x d_x matrix B_x of rows b(x_i), from arrays of covariate values."""
    parts = []
    for cb in covariate_bases:
        name = cb.spec.covariate_name
        if cb.spec.kind != "intercept" and name not in covariates:
            raise DataError(f"missing covariate '{name}'")
        parts.append(cb.evaluate_many(covariates.get(name, np.empty(n_rows))))
    return np.hstack(parts)


def design_row(
    covariate_bases: list[CovariateBasis],
    outcome_basis: OutcomeBasis,
    x: dict,
) -> np.ndarray:
    """Tensor-product design block for one covariate vector.

    Row g is b(x) kron b_T(cell g); shape (n_cells, R) with
    R = sum_j d_j * d_T.  The per-row reference of ``predict_density``.
    """
    bx = covariate_row(covariate_bases, x)
    return np.kron(bx[None, :], outcome_basis.matrix)

