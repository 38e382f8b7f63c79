"""Plug-in counterfactual densities and multiplicative effect decompositions.

Counterfactual densities average a group's fitted conditional densities over
another group's empirical covariate distribution.  Effects are pointwise
ratios of counterfactual densities; cells whose denominator falls below a
validity floor are NaN (invalid) rather than clipped.
"""

from __future__ import annotations

import numpy as np

from .basis import covariate_matrix
from .density_regression import (
    CovariateSample,
    FittedDensityModel,
    predict_densities,
    sample_theta,
)
from .errors import ConfigError, NumericError, StructuralError
from .measure_grid import GridDensity, GridSpec, GridValues

#: denominator density values below this make a ratio cell NaN (invalid)
VALIDITY_FLOOR = 1e-12

#: (x_{-j} row, x_j value) pairs that the product-measure average evaluates at once
PAIR_BLOCK = 1 << 15

#: Every average that an effect reads: name -> (model k, group of x_{-j}, group
#: of x_j), with 1 the treated and 0 the control group.  f_kl averages model k
#: over the joint covariates of group l (no j); the other two are the
#: product-measure numerators of CE_j and DE_j, one per covariate j.
AVERAGES = {
    "f11": (1, 1, None), "f10": (1, 0, None), "f01": (0, 1, None), "f00": (0, 0, None),
    "f0(0x1)": (0, 0, 1), "f1(1x0)": (1, 1, 0),
}
#: Every effect: kind -> (numerator, denominator), names of ``AVERAGES``
EFFECTS = {
    "de": ("f11", "f01"), "ce": ("f01", "f00"), "te": ("f11", "f00"),
    "ce_j": ("f0(0x1)", "f00"), "de_j": ("f1(1x0)", "f00"),
}


class RatioFunction(GridValues):
    """Pointwise density ratio on ``grid``: G values, or D x G with row 0 the point
    estimate and row d band draw d.  Each is NaN (invalid) or finite and positive."""

    ndims = (1, 2)

    def _check(self):
        if not np.all(np.isnan(self.values) | (self.values > 0) & (self.values < np.inf)):
            raise StructuralError("ratio values must be NaN or finite and positive")

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.values)


def _ratio(numerator: GridDensity, denominator: GridDensity) -> RatioFunction:
    """numerator / denominator, NaN where the denominator is below ``VALIDITY_FLOOR``
    or the ratio is not positive.  The rest is finite: a unit-integral numerator
    is at most 1 / (smallest cell width)."""
    if not numerator.grid.same_as(denominator.grid):
        raise StructuralError("ratio of densities on different grids")
    kept = denominator.values >= VALIDITY_FLOOR
    values = np.full(numerator.grid.n_cells, np.nan)
    values[kept] = numerator.values[kept] / denominator.values[kept]
    values[values <= 0] = np.nan
    return RatioFunction(numerator.grid, values)


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


def counterfactual_density(model_k: FittedDensityModel, sample_l: CovariateSample) -> GridDensity:
    """Average the fitted conditional density over an empirical covariate sample."""
    return _counterfactual_average(model_k, sample_l)(None)


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
    bases = model.covariate_bases
    names = [cb.spec.covariate_name for cb in bases]
    if j_name not in names:
        raise ConfigError(f"model has no covariate '{j_name}'")
    if any(j_name not in sample.names for sample in (sample_rest, sample_j)):
        raise ConfigError(f"covariate '{j_name}' missing from a sample")
    j_idx = names.index(j_name)
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


def marginal_effect_ce_j(
    model_0: FittedDensityModel,
    sample_0: CovariateSample,
    sample_1: CovariateSample,
    j_name: str,
) -> RatioFunction:
    """Contribution of covariate j to the covariate effect: point ``ce_j`` of ``EFFECTS``.

    It reads only the control model.
    """
    evaluate, _ = _decomposition({0: model_0}, {1: sample_1, 0: sample_0}, [("ce_j", j_name)])
    return evaluate({})[1]["ce_j", j_name]


def marginal_effect_de_j(
    model_1: FittedDensityModel,
    model_0: FittedDensityModel,
    sample_1: CovariateSample,
    sample_0: CovariateSample,
    j_name: str,
) -> RatioFunction:
    """Contribution of covariate j to the distribution effect: point ``de_j`` of ``EFFECTS``."""
    evaluate, _ = _decomposition({1: model_1, 0: model_0}, {1: sample_1, 0: sample_0},
                                 [("de_j", j_name)])
    return evaluate({})[1]["de_j", j_name]


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


def _decomposition(models, samples, effects, joint=False):
    """Set up once each average that ``effects`` read, and with ``joint`` every f_kl.

    ``models`` and ``samples`` map group 1 (treated) and 0 (control) to theirs,
    ``effects`` lists (kind, covariate name) pairs, and an average's key is
    (name, j), j None for an f_kl.  Returns ``evaluate(thetas, keys)``, which
    from each group's coefficients (a group left out: the fit) gives the
    density of each average of ``keys`` (default: all) and each effect, and the
    keys that the effects read.
    """
    ratios = {}
    for kind, j_name in effects:
        if kind not in EFFECTS:
            raise ConfigError(f"unknown effect kind '{kind}'")
        ratios[kind, j_name] = [(name, None if AVERAGES[name][2] is None else j_name)
                                for name in EFFECTS[kind]]
    read = list(dict.fromkeys(key for pair in ratios.values() for key in pair))
    joint_keys = [(name, None) for name, (_, _, m) in AVERAGES.items() if joint and m is None]
    averages = {}
    for name, j_name in dict.fromkeys(read + joint_keys):
        k, rest, m = AVERAGES[name]
        averages[name, j_name] = (
            _counterfactual_average(models[k], samples[rest]) if m is None
            else _product_measure_average(models[k], samples[rest], samples[m], j_name))

    def evaluate(thetas, keys=averages):
        curves = {key: averages[key](thetas.get(AVERAGES[key[0]][0])) for key in keys}
        return curves, {effect: _ratio(curves[num], curves[den])
                        for effect, (num, den) in ratios.items()}

    return evaluate, read


def effect_bands(models: tuple[FittedDensityModel, FittedDensityModel],
                 samples: tuple[CovariateSample, CovariateSample],
                 effects, alpha: float, B: int, seed: int, densities: dict | None = None) -> dict:
    """Point estimate and B band draws of each effect, all from one set of draws.

    ``models`` and ``samples`` are (treated, control), and ``effects`` lists
    (kind, covariate name) pairs of ``EFFECTS``, such as ``("de", None)`` or
    ``("ce_j", "edu")``; the result maps each pair to a (B + 1) x G
    ``RatioFunction`` whose row 0 is the point estimate and row d draw d.
    Each group's coefficients are drawn once from its Wald region (seeds
    ``seed*2+1`` treated, ``seed*2+2`` control).  Each average that the
    effects read is set up once and evaluated once at the point estimate and
    per draw, and each effect is a ratio of those curves, so DE * CE = TE holds
    on every draw.  A ``densities`` dict receives the point f_kl by name.
    """
    models, samples = dict(zip((1, 0), models)), dict(zip((1, 0), samples))
    evaluate, read = _decomposition(models, samples, effects, joint=densities is not None)
    curves, point = evaluate({})
    if densities is not None:
        densities.update((name, curve) for (name, j), curve in curves.items() if j is None)
    thetas = zip(sample_theta(models[1], alpha, B, seed=seed * 2 + 1),
                 sample_theta(models[0], alpha, B, seed=seed * 2 + 2))
    rows = [point] + [evaluate({1: theta_1, 0: theta_0}, read)[1] for theta_1, theta_0 in thetas]
    return {effect: RatioFunction(ratio.grid, np.stack([row[effect].values for row in rows]))
            for effect, ratio in point.items()}
