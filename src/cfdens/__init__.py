"""Counterfactual density decomposition via Bayes Hilbert space regression."""

from .measure_grid import (
    ClrFunction,
    GridDensity,
    GridSpec,
    ReferenceMeasure,
    clr,
    clr_inverse,
    inner_product_b2,
    integrate,
    odot,
    ominus,
    oplus,
    tv_distance,
    uniform_density,
)
from .basis import (
    CovariateBasis,
    OutcomeBasis,
    PartialEffectSpec,
    build_covariate_basis,
    build_outcome_basis,
)
from .density_regression import (
    CovariateSample,
    FittedDensityModel,
    ObservationTable,
    PooledHistogram,
    bin_and_pool,
    fit,
    fit_smoothed,
    sample_theta,
)
from .counterfactual import (
    EffectBands,
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
from .sim_benchmark import (
    DgpSpec,
    McReport,
    kde_conditional,
    run_study,
    silverman_bandwidth,
    simulate,
    true_counterfactual,
)

__version__ = "0.1.0"
