"""Plug-in counterfactual densities and multiplicative effect decompositions.

Counterfactual densities average a group's fitted conditional densities over
another group's empirical covariate distribution.  Effects are pointwise
ratios of counterfactual densities; cells whose denominator falls below a
validity floor are masked invalid rather than clipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import covariate_matrix
from .density_regression import (
    FittedDensityModel,
    cached_distinct_rows,
    predict_densities,
    sample_theta,
)
from .errors import ConfigError, NumericError, StructuralError
from .measure_grid import GridDensity, GridSpec, integrate

#: denominator density values below this are masked invalid in ratios
VALIDITY_FLOOR = 1e-12

#: (x_{-j} row, x_j value) pairs that the product-measure average evaluates at once
PAIR_BLOCK = 1 << 15


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
        if np.any(weights <= 0):
            raise StructuralError("sample weights must be positive")
        object.__setattr__(self, "weights", weights / weights.sum())
        n = len(weights)
        for name, v in covs.items():
            if len(v) != n:
                raise StructuralError(f"covariate '{name}' length mismatch")

    @classmethod
    def from_table(cls, table) -> "CovariateSample":
        """The table's rows; the sample shares the table's cache of combinations."""
        sample = cls(covariates=dict(table.covariates), weights=table.weights.copy())
        object.__setattr__(sample, "_distinct", table._distinct)
        return sample

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.covariates))

    def row(self, i: int) -> dict:
        return {k: v[i] for k, v in self.covariates.items()}

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
        first, inverse = cached_distinct_rows(self._distinct, self.covariates, names, len(self))
        return first, np.bincount(inverse, weights=self.weights)


@dataclass(frozen=True)
class RatioFunction:
    """Pointwise ratio of two densities with a validity mask."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)
        if values.shape != (self.grid.n_cells,) or valid.shape != (self.grid.n_cells,):
            raise StructuralError("ratio values/mask do not match grid")
        if np.any(values[valid] <= 0):
            raise StructuralError("ratio must be strictly positive on valid cells")


@dataclass(frozen=True)
class EffectBands:
    """Point estimate plus per-draw ratio curves for uncertainty display."""

    point: RatioFunction
    draws: tuple[RatioFunction, ...]

    def __post_init__(self):
        for d in self.draws:
            if not d.grid.same_as(self.point.grid):
                raise StructuralError("band draw on a different grid")


def _ratio(numerator: GridDensity, denominator: GridDensity) -> RatioFunction:
    if not numerator.grid.same_as(denominator.grid):
        raise StructuralError("ratio of densities on different grids")
    valid = denominator.values >= VALIDITY_FLOOR
    values = np.zeros(numerator.grid.n_cells)
    values[valid] = numerator.values[valid] / denominator.values[valid]
    valid = valid & (values > 0)
    values[~valid] = np.nan
    return RatioFunction(grid=numerator.grid, values=values, valid=valid)


def _rows(covariate_bases, sample: CovariateSample) -> tuple[np.ndarray, np.ndarray]:
    """B_x over ``covariate_bases`` at the distinct rows of ``sample``, with their weights.

    Rows are distinct over the bases' covariates: the intercept alone is one row.
    """
    names = sorted(cb.spec.covariate_name for cb in covariate_bases if cb.spec.kind != "intercept")
    missing = set(names) - set(sample.names)
    if missing:
        raise StructuralError(f"sample lacks covariates {sorted(missing)}")
    first, weights = sample.pooled(names)
    columns = {n: sample.covariates[n][first] for n in names}
    return covariate_matrix(list(covariate_bases), columns, len(first)), weights


def _counterfactual_average(model: FittedDensityModel, sample: CovariateSample):
    """theta -> the model's densities averaged over the sample's covariates.

    B_x and the pooled weights w are built once; each call costs one
    w' softmax(B_x Theta B_T').
    """
    bx, weights = _rows(model.covariate_bases, sample)
    return lambda theta: GridDensity(model.grid, weights @ predict_densities(model, bx, theta))


def counterfactual_density(
    model_k: FittedDensityModel,
    sample_l: CovariateSample,
    theta: np.ndarray | None = None,
) -> GridDensity:
    """Average the fitted conditional density over an empirical covariate sample."""
    return _counterfactual_average(model_k, sample_l)(theta)


def distribution_effect(f11: GridDensity, f01: GridDensity) -> RatioFunction:
    """Effect of changing the conditional density at the treated covariates."""
    return _ratio(f11, f01)


def covariate_effect(f01: GridDensity, f00: GridDensity) -> RatioFunction:
    """Effect of changing the covariate distribution under the control model."""
    return _ratio(f01, f00)


def total_effect(f11: GridDensity, f00: GridDensity) -> RatioFunction:
    """Ratio of the two observed-group marginal densities."""
    return _ratio(f11, f00)


def _product_measure_average(
    model: FittedDensityModel,
    sample_rest: CovariateSample,
    sample_j: CovariateSample,
    j_name: str,
    rest=None,
):
    """theta -> the model's densities averaged over F(x_{-j}) x F(x_j).

    ``rest`` indexes the effects of x_{-j}, by default all but j's.  eta is
    additive: r_a + s_b for a distinct rest row a and x_j value b.  With
    E = exp(r - max) and F = exp(s - max) row-shifted, the pair normalisers are
    Z = (E diag(widths)) F' and the average sums E o [(u v' / Z) F] over the
    rest rows, in blocks of about ``PAIR_BLOCK`` pairs.  Where r and s cancel
    by more than ~700 log units E o F underflows and ``NumericError`` is raised.
    """
    j_idx = _check_covariate(model, j_name)
    bases = model.covariate_bases
    if rest is None:
        rest = [i for i in range(len(bases)) if i != j_idx]
    rest_rows, j_rows = _columns(model, rest), _columns(model, [j_idx])
    bx_rest, u = _rows([bases[i] for i in rest], sample_rest)
    bx_j, v = _rows([bases[j_idx]], sample_j)
    bt, widths = model.outcome_basis.matrix, model.grid.widths
    step = max(1, PAIR_BLOCK // len(v))

    def average(theta):
        coef = (model.theta if theta is None else theta).reshape(-1, bt.shape[1])
        s = bx_j @ coef[j_rows] @ bt.T
        f = np.exp(s - s.max(axis=1, keepdims=True))
        rest_bt = coef[rest_rows] @ bt.T
        values = np.zeros(model.grid.n_cells)
        for start in range(0, len(u), step):
            block = slice(start, start + step)
            r = bx_rest[block] @ rest_bt
            e = np.exp(r - r.max(axis=1, keepdims=True))
            norm = (e * widths) @ f.T
            # with Z >= tiny and u_a v_b <= 1, u v' / Z and its sums over b stay finite
            if not np.all(np.isfinite(norm) & (norm >= np.finfo(float).tiny)):
                raise NumericError("density normaliser is not finite or underflows: "
                                   "the x_{-j} and x_j parts of eta cancel too far")
            values += np.einsum("ag,ag->g", (np.outer(u[block], v) / norm) @ f, e)
        return GridDensity(model.grid, values)

    return average


def _columns(model: FittedDensityModel, effects) -> np.ndarray:
    """Columns of B_x (rows of Theta) that belong to the given effects."""
    offsets = np.cumsum([0] + [cb.n_columns for cb in model.covariate_bases])
    return np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in effects])


def _check_covariate(model: FittedDensityModel, j_name: str) -> int:
    for idx, cb in enumerate(model.covariate_bases):
        if cb.spec.covariate_name == j_name:
            return idx
    raise ConfigError(f"model has no covariate '{j_name}'")


def marginal_effect_ce_j(
    model_0: FittedDensityModel,
    sample_0: CovariateSample,
    sample_1: CovariateSample,
    j_name: str,
    theta_0: np.ndarray | None = None,
) -> RatioFunction:
    """Contribution of covariate j to the covariate effect.

    Numerator integrates the control model over control x_{-j} and treated
    x_j (product measure); denominator is the control counterfactual density.
    """
    # ce_j reads only the control model
    return _effect_function((model_0, model_0), (sample_1, sample_0), "ce_j", j_name)(None, theta_0)


def marginal_effect_de_j(
    model_1: FittedDensityModel,
    model_0: FittedDensityModel,
    sample_1: CovariateSample,
    sample_0: CovariateSample,
    j_name: str,
    theta_1: np.ndarray | None = None,
    theta_0: np.ndarray | None = None,
) -> RatioFunction:
    """Contribution of covariate j to the distribution effect.

    Numerator integrates the treated model over treated x_{-j} and control
    x_j; denominator is the control counterfactual density.
    """
    effect = _effect_function((model_1, model_0), (sample_1, sample_0), "de_j", j_name)
    return effect(theta_1, theta_0)


def marginal_effect_ce_j_fast(
    model_0: FittedDensityModel,
    sample_0: CovariateSample,
    sample_1: CovariateSample,
    j_name: str,
) -> RatioFunction:
    """Interaction-free shortcut: intercept-plus-partial-effect composite.

    Averages clr_inverse(intercept + partial effect of j) over each group's
    marginal of x_j: the product-measure average with the intercept as its
    only x_{-j} effect.  ``marginal_effect_ce_j`` is the definitional
    reference; this one drops the other covariates entirely.
    """
    intercept = [i for i, cb in enumerate(model_0.covariate_bases) if cb.spec.kind == "intercept"]
    return _ratio(*(_product_measure_average(model_0, sample, sample, j_name, rest=intercept)(None)
                    for sample in (sample_1, sample_0)))


EFFECT_KINDS = ("de", "ce", "te", "ce_j", "de_j")


def _effect_function(models, samples, kind, j_name=None):
    """(theta_1, theta_0) -> the ratio curve of one effect.

    Every (model, sample) average the effect needs is set up once, so the
    point estimate and each band draw cost one eta = B_x Theta B_T' per
    average.
    """
    if kind not in EFFECT_KINDS:
        raise ConfigError(f"unknown effect kind '{kind}'")
    # index into (treated, control) of the numerator's model and coefficients
    num = 1 if kind in ("ce", "ce_j") else 0
    if kind in ("ce_j", "de_j"):
        if j_name is None:
            raise ConfigError("marginal effects need a covariate name")
        _check_covariate(models[1], j_name)
        if any(j_name not in sample.names for sample in samples):
            raise ConfigError(f"covariate '{j_name}' missing from a sample")
        numerator = _product_measure_average(models[num], samples[num], samples[1 - num], j_name)
    else:
        numerator = _counterfactual_average(models[num], samples[0])
    denominator = _counterfactual_average(models[1], samples[0 if kind == "de" else 1])
    return lambda *thetas: _ratio(numerator(thetas[num]), denominator(thetas[1]))


def effect_bands(
    models: tuple[FittedDensityModel, FittedDensityModel],
    samples: tuple[CovariateSample, CovariateSample],
    kind: str,
    alpha: float,
    B: int,
    seed: int,
    j_name: str | None = None,
) -> EffectBands:
    """Point estimate plus B ratio curves from Wald-region coefficient draws.

    Coefficients are redrawn independently per group (derived seeds), the
    counterfactual densities rebuilt, and the ratio recomputed per draw.
    """
    effect = _effect_function(models, samples, kind, j_name)
    model_1, model_0 = models
    point = effect(None, None)
    draws_1 = sample_theta(model_1, alpha, B, seed=seed * 2 + 1) if B else []
    draws_0 = sample_theta(model_0, alpha, B, seed=seed * 2 + 2) if B else []
    band_draws = tuple(effect(theta_1, theta_0) for theta_1, theta_0 in zip(draws_1, draws_0))
    return EffectBands(point=point, draws=band_draws)


def mean_functional(f: GridDensity) -> float:
    """Mean of the outcome under the density; atoms contribute location * mass."""
    return integrate(f.grid.centers * f.values, f.grid)
