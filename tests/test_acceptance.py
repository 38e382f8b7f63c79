"""Acceptance gate: every release criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line for its criterion.  The Monte Carlo
criteria share a session-scoped 200-replication study (a few minutes of
runtime); the end-to-end criteria share a pair of decompose runs on the
bundled synthetic mixed-type dataset.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from cfdens.basis import (
    PartialEffectSpec,
    build_covariate_basis,
    build_outcome_basis,
)
from cfdens.cli import _fit_groups, main
from cfdens.config import load_config
from cfdens.counterfactual import (
    counterfactual_density,
    covariate_effect,
    distribution_effect,
    marginal_effect_ce_j,
    marginal_effect_ce_j_fast,
    marginal_effect_de_j,
    total_effect,
)
from cfdens.dataio import read_curve_table
from cfdens.density_regression import (
    ObservationTable,
    bin_and_pool,
    sample_theta,
    wald_ellipsoid_radius,
)
from cfdens.measure_grid import GridSpec, clr, clr_inverse, integrate, odot, oplus
from cfdens.sim_benchmark import DgpSpec, fit_bayes_group, run_study, simulate

from conftest import UNIT_MEASURE, unit_grid
from reference import (
    bayes_loglik,
    class_probabilities,
    combinations,
    design_row,
    fit_table,
    multinomial_loglik,
    predict_density,
    row,
)
from test_counterfactual import _sample, _two_binary_model

ROOT = Path(__file__).resolve().parent.parent

STUDY_SEED = 20260801
N_VALUES = [500, 1000, 5000]
REPLICATIONS = 200

CF_TARGETS = ("f11", "f10", "f01", "f00")
TABLE1 = {
    "bayes": (0.028, 0.032, 0.038, 0.037),
    "kde": (0.028, 0.032, 0.039, 0.036),
}
TABLE1_TOL = 0.004
TABLE2 = {"bayes": (0.047, 0.056), "kde": (0.066, 0.074)}
TABLE2_RELTOL = 0.15


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    suffix = f" -- {detail}" if detail else ""
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def _mean_tv(report, estimator: str, n: int, target: str) -> float:
    """Mean TV of a report row; no table may be met by dropping failed fits."""
    row = report.lookup(estimator, n, target)
    assert row["used"] == REPLICATIONS and row["excluded"] == 0, (
        f"{estimator}/{target} at n={n}: used {row['used']}, excluded {row['excluded']}"
    )
    return row["mean_tv"]


@pytest.fixture(scope="session")
def mc_report():
    return run_study(
        DgpSpec(),
        n_values=N_VALUES,
        replications=REPLICATIONS,
        estimators=("bayes", "kde"),
        seed=STUDY_SEED,
    )


@pytest.fixture(scope="session")
def decompose_runs(tmp_path_factory):
    """Two identical decompose runs on the bundled synthetic dataset."""
    text = (ROOT / "configs" / "synthetic_mixed.cfg").read_text(encoding="utf-8")
    text = text.replace(
        "data.path = data/synthetic_mixed.csv",
        f"data.path = {ROOT / 'data' / 'synthetic_mixed.csv'}",
    )
    cfg_path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out1 = tmp_path_factory.mktemp("decompose1")
    out2 = tmp_path_factory.mktemp("decompose2")
    assert main(["decompose", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["decompose", "--config", str(cfg_path), "--out", str(out2)]) == 0
    return load_config(cfg_path), out1, out2


# ------------------------------------------------- 1: counterfactual table

@pytest.mark.parametrize("estimator", ["bayes", "kde"])
def test_criterion_1_counterfactual_tv_table(mc_report, estimator):
    got = [_mean_tv(mc_report, estimator, 1000, t) for t in CF_TARGETS]
    gaps = [abs(g - e) for g, e in zip(got, TABLE1[estimator])]
    ok = all(gap <= TABLE1_TOL for gap in gaps)
    detail = ", ".join(
        f"{t}={g:.4f} (target {e:.3f})"
        for t, g, e in zip(CF_TARGETS, got, TABLE1[estimator])
    )
    assert _report(f"1 counterfactual table, {estimator}", ok, detail), detail


# --------------------------------------------------- 2: conditional table

def test_criterion_2_conditional_tv_table(mc_report):
    details = []
    ok = True
    for estimator in ("bayes", "kde"):
        for target, expected in zip(("cond1", "cond0"), TABLE2[estimator]):
            got = _mean_tv(mc_report, estimator, 1000, target)
            rel = abs(got - expected) / expected
            ok &= rel <= TABLE2_RELTOL
            details.append(f"{estimator}/{target}={got:.4f} (target {expected:.3f})")
    for n in N_VALUES:
        for target in ("cond1", "cond0"):
            b = _mean_tv(mc_report, "bayes", n, target)
            k = _mean_tv(mc_report, "kde", n, target)
            ok &= b < k
            if b >= k:
                details.append(f"bayes {target} not below kde at n={n}")
    detail = "; ".join(details)
    assert _report("2 conditional table", ok, detail), detail


# ------------------------------------------------------ 3: monotone trend

def test_criterion_3_tv_decreases_in_n(mc_report):
    bad = []
    for estimator in ("bayes", "kde"):
        for target in CF_TARGETS + ("cond1", "cond0"):
            means = [_mean_tv(mc_report, estimator, n, target) for n in N_VALUES]
            if not all(a > b for a, b in zip(means, means[1:])):
                bad.append(f"{estimator}/{target}: {['%.4f' % m for m in means]}")
    ok = not bad
    assert _report("3 monotone trend", ok, "; ".join(bad) or "all 12 series decrease"), bad


# ------------------------------------------------------- 4: identity suite

def test_criterion_4_identity_suite():
    spec = DgpSpec()
    grid = unit_grid(50)
    data1 = simulate(spec, 1, 1000, seed=90)
    data0 = simulate(spec, 0, 1000, seed=91)
    model1, model0 = fit_bayes_group(data1, grid), fit_bayes_group(data0, grid)
    s1 = data1.sample
    s0 = data0.sample
    f11 = counterfactual_density(model1, s1)
    f01 = counterfactual_density(model0, s1)
    f00 = counterfactual_density(model0, s0)

    de, ce, te = distribution_effect(f11, f01), covariate_effect(f01, f00), total_effect(f11, f00)
    mask = de.valid & ce.valid & te.valid
    gap_te = float(np.max(np.abs(te.values[mask] - de.values[mask] * ce.values[mask])))

    gap_roundtrip = 0.0
    gap_integral = 0.0
    for f in (f11, f01, f00):
        assert np.all(f.values >= 0)
        assert np.all(f.values > 0), "round-trip check needs strictly positive cells"
        gap_integral = max(gap_integral, abs(integrate(f.values, grid) - 1.0))
        gap_roundtrip = max(gap_roundtrip, float(np.max(np.abs(clr_inverse(clr(f)).values - f.values))))

    lin1 = float(np.max(np.abs(clr(oplus(f11, f00)).values - clr(f11).values - clr(f00).values)))
    lin2 = float(np.max(np.abs(clr(odot(1.7, f01)).values - 1.7 * clr(f01).values)))

    ok = gap_te < 1e-12 and gap_roundtrip < 1e-10 and max(lin1, lin2) < 1e-10 and gap_integral < 1e-8
    detail = (f"te=de*ce gap {gap_te:.1e}, clr roundtrip {gap_roundtrip:.1e}, "
              f"clr linearity {max(lin1, lin2):.1e}, unit integral {gap_integral:.1e}")
    assert _report("4 identity suite", ok, detail), detail


# ------------------------------------------------ 5: saturated oracle match

def test_criterion_5_saturated_oracle_equivalence():
    # two binary covariates encoded jointly, so the categorical model is
    # fully saturated; G = 10 with a degree-1 basis spans every cell pattern
    rng = np.random.default_rng(1234)
    grid = unit_grid(10)
    basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=10, degree=1)
    n = 2000
    u = rng.integers(0, 2, n)
    v = rng.integers(0, 2, n)
    shapes = {(0, 0): (1.2, 1.5), (0, 1): (1.8, 1.2), (1, 0): (1.4, 2.0), (1, 1): (2.2, 1.6)}
    y = np.array([rng.beta(*shapes[(a, b)]) for a, b in zip(u, v)])
    cell = np.array([f"{a}{b}" for a, b in zip(u, v)])
    levels = ["00", "01", "10", "11"]
    cov_bases = [
        build_covariate_basis(PartialEffectSpec.intercept(), [None]),
        build_covariate_basis(PartialEffectSpec.categorical("cell", levels, "00"), cell),
    ]
    table = ObservationTable(outcomes=y, covariates={"cell": cell}, weights=None)
    pooled = bin_and_pool(table, grid)
    assert np.all(pooled.counts > 0), "oracle needs every histogram cell occupied"
    model = fit_table(table, cov_bases, basis)

    blocks = np.stack([design_row(cov_bases, basis, c) for c in combinations(pooled)])
    hist_gap = 0.0
    for block, counts in zip(blocks, pooled.counts):
        probs = class_probabilities(model.theta, block, grid)
        hist_gap = max(hist_gap, float(np.max(np.abs(probs - counts / counts.sum()))))

    def negll(theta):
        return -multinomial_loglik(theta, pooled, cov_bases, basis)

    def neggrad(theta):
        g = np.zeros_like(theta)
        for block, counts, total in zip(blocks, pooled.counts, pooled.totals):
            g += block.T @ (counts - total * class_probabilities(theta, block, grid))
        return -g

    res = minimize(negll, np.zeros(model.n_coefficients), jac=neggrad,
                   method="BFGS", options={"gtol": 1e-11, "maxiter": 5000})
    theta_gap = float(np.max(np.abs(model.theta - res.x)))

    ok = hist_gap < 1e-6 and theta_gap < 1e-6
    detail = f"histogram gap {hist_gap:.1e}, theta gap vs direct maximizer {theta_gap:.1e}"
    assert _report("5 saturated oracle", ok, detail), detail


# ------------------------------------- 6: marginal effects vs brute force

def test_criterion_6_marginal_effect_oracles():
    model, grid = _two_binary_model(scale_u=0.4, scale_v=0.3)
    model1, _ = _two_binary_model(scale_u=0.5, scale_v=0.2, seed=2)
    s1 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.15, 0.35, 0.3, 0.2])
    s0 = _sample(["a", "a", "b", "b"], ["a", "b", "a", "b"], [0.4, 0.1, 0.1, 0.4])

    def brute(model_num, s_rest, s_j, j, s_den, model_den):
        other = "u" if j == "v" else "v"
        num = np.zeros(grid.n_cells)
        for i in range(len(s_rest)):
            for k in range(len(s_j)):
                x = {other: s_rest.covariates[other][i], j: s_j.covariates[j][k]}
                num += s_rest.weights[i] * s_j.weights[k] * predict_density(model_num, x).values
        den = np.zeros(grid.n_cells)
        for i in range(len(s_den)):
            den += s_den.weights[i] * predict_density(model_den, row(s_den, i)).values
        return num / den

    gap_ce = gap_de = 0.0
    for j in ("u", "v"):
        ce_j = marginal_effect_ce_j(model, s0, s1, j)
        expected = brute(model, s0, s1, j, s0, model)
        gap_ce = max(gap_ce, float(np.max(np.abs(ce_j.values[ce_j.valid] - expected[ce_j.valid]))))
        de_j = marginal_effect_de_j(model1, model, s1, s0, j)
        expected = brute(model1, s1, s0, j, s0, model)
        gap_de = max(gap_de, float(np.max(np.abs(de_j.values[de_j.valid] - expected[de_j.valid]))))

    ref = marginal_effect_ce_j(model, s0, s1, "v")
    fast = marginal_effect_ce_j_fast(model, s0, s1, "v")
    mask = ref.valid & fast.valid
    gap_fast = 0.5 * float(np.sum(np.abs(ref.values[mask] - fast.values[mask]) * grid.widths[mask]))

    ok = gap_ce < 1e-10 and gap_de < 1e-10 and gap_fast < 1e-3
    detail = f"ce_j gap {gap_ce:.1e}, de_j gap {gap_de:.1e}, fast path tv {gap_fast:.1e}"
    assert _report("6 marginal effect oracles", ok, detail), detail


# -------------------------------------------- 7: likelihood convergence

def test_criterion_7_likelihood_gap_shrinks_with_grid():
    rng = np.random.default_rng(12)
    outcomes = rng.beta(2, 3, 400)
    table = ObservationTable(outcomes=outcomes, covariates={}, weights=None)
    intercept = [build_covariate_basis(PartialEffectSpec.intercept(), [None])]
    gaps = []
    for n_bins in (25, 50, 100, 200):
        grid = unit_grid(n_bins)
        basis = build_outcome_basis(UNIT_MEASURE, grid, spline_count=12, degree=3)
        theta = np.linspace(-0.8, 0.8, basis.n_columns)
        pooled = bin_and_pool(table, grid)
        mn = multinomial_loglik(theta, pooled, intercept, basis)
        ex = bayes_loglik(theta, table, intercept, basis, quadrature_points=4000)
        gaps.append(abs(mn - ex))
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    detail = "gaps over G=25/50/100/200: " + ", ".join(f"{g:.4f}" for g in gaps)
    assert _report("7 likelihood convergence", ok, detail), detail


# -------------------------------------- 8: Wald draws and band curve count

def test_criterion_8_wald_draws_and_band_count(decompose_runs):
    config, out1, _ = decompose_runs

    data = simulate(DgpSpec(), 1, 1000, seed=60)
    model = fit_bayes_group(data, unit_grid(50))
    bound = wald_ellipsoid_radius(model, alpha=0.05)
    info = model.fisher_information
    worst = 0.0
    for draw in sample_theta(model, alpha=0.05, B=100, seed=3):
        dev = draw - model.theta
        worst = max(worst, float(dev @ info @ dev))
    inside = worst <= bound * (1.0 + 1e-8)

    counts_ok = True
    for kind in ("de", "ce", "te"):
        _, draws = read_curve_table(out1 / f"{kind}.csv")
        band_indices = sorted(d for d in draws if d > 0)
        counts_ok &= band_indices == list(range(1, 101))

    ok = inside and counts_ok
    detail = (f"max Mahalanobis {worst:.2f} vs bound {bound:.2f}; "
              f"100 band curves per effect: {counts_ok}")
    assert _report("8 uncertainty construction", ok, detail), detail


# ---------------------------------------------------- 9: byte determinism

def test_criterion_9_byte_identical_reruns(decompose_runs):
    _, out1, out2 = decompose_runs
    names = sorted(p.name for p in out1.iterdir())
    ok = names == sorted(p.name for p in out2.iterdir())
    diff = []
    for name in names:
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            diff.append(name)
    ok = ok and not diff
    detail = "all outputs identical" if ok else f"differing files: {diff}"
    assert _report("9 determinism", ok, detail), detail


# --------------------------------- end-to-end structure on mixed-type data

def test_end_to_end_structural_mixed_outcome(decompose_runs):
    config, out1, _ = decompose_runs
    grid = GridSpec.from_measure(config.measure, config.n_bins)

    for name in ("f11", "f10", "f01", "f00"):
        _, draws = read_curve_table(out1 / f"{name}.csv")
        values, valid = draws[0]
        assert np.all(valid)
        assert np.all(values >= 0)
        assert abs(integrate(values, grid) - 1.0) < 1e-8

    for kind in ("de", "ce", "te"):
        _, draws = read_curve_table(out1 / f"{kind}.csv")
        for values, valid in draws.values():
            # masked cells carry nan, valid cells a positive ratio
            assert np.all(np.isnan(values[~valid]))
            assert np.all(values[valid] > 0)
    _report("end-to-end mixed-type structure", True, "densities valid, masks consistent")


def test_cli_estimates_are_interior(decompose_runs):
    # every direction of the double-penalty fit is held, so the bundled data's
    # covariate subgroups with empty spans of outcome cells get interior
    # estimates: no density at the floating-point boundary, no subnormal ratio
    config, out1, _ = decompose_runs
    models, _, _ = _fit_groups(config)
    for model in models.values():
        assert np.linalg.cond(model.fisher_information) <= 1e4
        assert np.max(np.abs(model.theta)) <= 50

    for name in ("f11", "f10", "f01", "f00"):
        _, draws = read_curve_table(out1 / f"{name}.csv")
        assert np.all(draws[0][0] >= 1e-8)
    effects = {kind: read_curve_table(out1 / f"{kind}.csv")[1] for kind in ("de", "ce", "te")}
    for draws in effects.values():
        for values, valid in draws.values():
            assert np.all(values[valid] >= np.finfo(float).tiny)
    for d, (te, te_valid) in effects["te"].items():
        (de, de_valid), (ce, ce_valid) = effects["de"][d], effects["ce"][d]
        both = te_valid & de_valid & ce_valid
        assert np.all(np.abs(de[both] * ce[both] - te[both]) <= 1e-12 * te[both])
    _report("interior CLI estimates", True, "conditioned, no boundary densities")
