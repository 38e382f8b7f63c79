import ast
import multiprocessing
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.stats import beta, kstest

from cfdens import counterfactual, density_regression, sim_benchmark
from cfdens.basis import PartialEffectSpec, build_covariate_basis
from cfdens.density_regression import ObservationTable
from cfdens.errors import ConfigError, DataError, DomainError
from cfdens.measure_grid import GridDensity, integrate, tv_distance
from cfdens.sim_benchmark import (
    CONTROL_CELL_PROBS,
    CONTROL_CELL_PROBS_PRINTED,
    DgpSpec,
    McReport,
    cell_covariates,
    fit_bayes_group,
    kde_conditional,
    kde_density,
    run_study,
    silverman_bandwidth,
    simulate,
    true_conditional,
    true_counterfactual,
)

from conftest import beta_on_grid, unit_grid


# --------------------------------------------------------------------- DGP

def test_default_control_probs_sum_to_one():
    assert CONTROL_CELL_PROBS.sum() == pytest.approx(1.0, abs=1e-12)
    assert CONTROL_CELL_PROBS_PRINTED.sum() == pytest.approx(0.928, abs=1e-12)


def test_cell_covariates_last_varies_fastest():
    assert cell_covariates(0) == {"x1": "1", "x2": "1", "x3": "1"}
    assert cell_covariates(1) == {"x1": "1", "x2": "1", "x3": "2"}
    assert cell_covariates(4) == {"x1": "2", "x2": "1", "x3": "1"}
    assert cell_covariates(7) == {"x1": "2", "x2": "2", "x3": "2"}


def test_spec_rejects_nonpositive_shapes():
    with pytest.raises(DomainError):
        DgpSpec(treated_alpha=np.array([0, 1, 1, 1, 1, 1, 1, 1], dtype=float))


def test_probs_renormalized():
    spec = DgpSpec(control_probs=CONTROL_CELL_PROBS_PRINTED.copy())
    assert spec.probs(0).sum() == pytest.approx(1.0, abs=1e-14)
    assert "renormalized" in spec.renormalization_note()
    assert DgpSpec().renormalization_note() == ""


def test_simulate_single_row():
    table = simulate(DgpSpec(), 1, 1, seed=0)
    assert len(table) == 1
    assert 0.0 <= table.outcomes[0] <= 1.0


def test_simulate_rejects_empty():
    with pytest.raises(DomainError):
        simulate(DgpSpec(), 1, 0, seed=0)


def test_simulate_deterministic():
    t1 = simulate(DgpSpec(), 0, 100, seed=5)
    t2 = simulate(DgpSpec(), 0, 100, seed=5)
    assert np.array_equal(t1.outcomes, t2.outcomes)
    assert all(np.array_equal(t1.covariates[k], t2.covariates[k]) for k in t1.covariates)


def test_simulate_first_cell_is_uniform():
    # treated cell 1 has unit beta shapes, i.e. uniform outcomes
    table = simulate(DgpSpec(), 1, 40_000, seed=3)
    mask = np.ones(len(table), dtype=bool)
    for name, value in cell_covariates(0).items():
        mask &= table.covariates[name] == value
    stat = kstest(table.outcomes[mask], "uniform")
    assert stat.pvalue > 0.01


def test_simulate_cell_frequencies_match_probs():
    spec = DgpSpec()
    table = simulate(spec, 0, 1_000_000, seed=8)
    probs = spec.probs(0)
    for c in range(8):
        mask = np.ones(len(table), dtype=bool)
        for name, value in cell_covariates(c).items():
            mask &= table.covariates[name] == value
        assert abs(mask.mean() - probs[c]) < 0.003


# -------------------------------------------------------- analytic targets

def test_true_conditional_matches_beta_pdf():
    grid = unit_grid(50)
    spec = DgpSpec()
    got = true_conditional(spec, 1, 3, grid)  # treated cell 4: Beta(9, 9)
    assert tv_distance(got, beta_on_grid(grid, 9, 9)) < 1e-12


def test_beta_pdf_matches_scipy():
    x = unit_grid(50).centers
    spec = DgpSpec()
    for group in (1, 0):
        for a, b in zip(*spec.shape_params(group)):
            want = beta.pdf(x, a, b)
            assert np.max(np.abs(sim_benchmark._beta_pdf(x, a, b) - want) / want) <= 1e-13


def test_true_counterfactual_is_unit_mass():
    grid = unit_grid(50)
    for k in (0, 1):
        for l in (0, 1):
            f = true_counterfactual(DgpSpec(), k, l, grid)
            assert integrate(f.values, grid) == pytest.approx(1.0, abs=1e-12)


def test_true_counterfactual_single_cell_limit():
    # concentrating the class probabilities recovers that cell's beta density
    probs = np.full(8, 1e-12)
    probs[3] = 1.0
    spec = DgpSpec(treated_probs=probs)
    grid = unit_grid(50)
    f = true_counterfactual(spec, 1, 1, grid)
    assert tv_distance(f, true_conditional(spec, 1, 3, grid)) < 1e-9


def test_true_counterfactual_stable_under_grid_refinement():
    spec = DgpSpec()
    coarse = true_counterfactual(spec, 0, 1, unit_grid(50))
    fine = true_counterfactual(spec, 0, 1, unit_grid(5000))
    agg = fine.values.reshape(50, 100).mean(axis=1)
    f_agg = GridDensity.from_unnormalized(unit_grid(50), agg)
    assert tv_distance(coarse, f_agg) < 0.002


# --------------------------------------------------------------------- KDE

def test_silverman_bandwidth_formula():
    # a sample with unit standard deviation and IQR/1.34 above 1
    raw = np.tile([-1.0, 1.0], 50)
    sample = raw / np.std(raw, ddof=1)
    assert silverman_bandwidth(sample) == pytest.approx(0.9 * 100 ** (-0.2), abs=1e-12)


def test_silverman_uses_smaller_of_sd_and_iqr():
    rng = np.random.default_rng(0)
    sample = rng.normal(size=500)
    sample = np.concatenate([sample, [50.0]])  # outlier inflates the sd
    sd = np.std(sample, ddof=1)
    q75, q25 = np.percentile(sample, [75, 25])
    assert silverman_bandwidth(sample) == pytest.approx(
        0.9 * min(sd, (q75 - q25) / 1.34) * len(sample) ** (-0.2)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 101, 400])
def test_quartiles_are_numpy_percentile_exactly(n):
    rng = np.random.default_rng(n)
    samples = [rng.beta(2, 5, n), rng.normal(size=n), np.round(rng.beta(2, 2, n), 1),
               np.full(n, 0.3), np.sort(rng.uniform(size=n))[::-1]]
    for x in samples:
        q75, q25 = np.percentile(x, [75, 25])
        assert sim_benchmark._quartiles(x) == (q75, q25)


def test_kde_density_integrates_to_one():
    rng = np.random.default_rng(1)
    grid = unit_grid(50)
    f = kde_density(rng.beta(2, 2, 300), grid)
    assert integrate(f.values, grid) == pytest.approx(1.0, abs=1e-12)


def test_kde_density_consistent():
    rng = np.random.default_rng(2)
    grid = unit_grid(50)
    f = kde_density(rng.beta(5, 5, 10_000), grid)
    assert tv_distance(f, beta_on_grid(grid, 5, 5)) < 0.05


def test_kde_zero_bandwidth_floor():
    grid = unit_grid(10)
    f = kde_density(np.full(20, 0.55), grid)  # degenerate sample
    assert f.values[5] * grid.widths[5] == pytest.approx(1.0, abs=1e-6)


def test_kde_empty_sample_errors():
    with pytest.raises(DataError):
        kde_density(np.empty(0), unit_grid(10))


def test_kde_single_sample_off_a_bin_centre_errors():
    # h = 0 takes the 1e-6 floor, whose kernel is 0 at every bin centre
    with pytest.raises(DataError, match="no kernel mass"):
        kde_density(np.array([0.503]), unit_grid(50))


def test_run_study_excludes_a_kde_replication_with_a_singleton_cell():
    # at n = 30 replications 0 and 1 have a one-observation cell, 2 an empty one
    report = run_study(DgpSpec(), n_values=[30], replications=3, seed=0)
    for target in sim_benchmark.COUNTERFACTUAL_TARGETS + sim_benchmark.CONDITIONAL_TARGETS:
        kde, bayes = report.lookup("kde", 30, target), report.lookup("bayes", 30, target)
        assert (kde["used"], kde["excluded"]) == (0, 3)
        assert (bayes["used"], bayes["excluded"]) == (3, 0)


def _kde_unblocked(samples, grid, bandwidth=None):
    """Reference: the kernel sums of every bin centre in one (cells, n) array."""
    samples = np.asarray(samples, dtype=float)
    h = silverman_bandwidth(samples) if bandwidth is None else bandwidth
    if h <= 0:
        h = 1e-6 * (grid.edges[-1] - grid.edges[0])
    z = (grid.centers[:, None] - samples[None, :]) / h
    values = np.exp(-0.5 * z * z).sum(axis=1) / (len(samples) * h * np.sqrt(2 * np.pi))
    return GridDensity.from_unnormalized(grid, values)


@pytest.mark.parametrize("n", [1, 2, 60, 1500, 40_000])
def test_kde_density_in_blocks_is_bit_identical(n):
    spread = np.random.default_rng(n).beta(2, 5, n)
    for grid in (unit_grid(50), unit_grid(600)):  # one block or several, the last partial
        # tied at a centre, Silverman's bandwidth is 0 and the h <= 0 floor applies
        tied = np.full(n, grid.centers[7])
        cases = [(spread, 0.05), (tied, None), (tied, 0.0)] + [(spread, None)] * (n > 1)
        for samples, bandwidth in cases:
            out = kde_density(samples, grid, bandwidth)
            assert np.array_equal(out.values, _kde_unblocked(samples, grid, bandwidth).values)


def test_kde_conditional_groups_by_cell():
    table = simulate(DgpSpec(), 1, 4000, seed=9)
    out = kde_conditional(table, unit_grid(25))
    assert len(out) == 8
    for dens in out.values():
        assert integrate(dens.values, unit_grid(25)) == pytest.approx(1.0, abs=1e-10)


def _kde_by_string_masks(data, grid):
    """Reference: each cell's rows found by comparing every covariate value."""
    names = sorted(data.covariates)
    keys = sorted({tuple((n, data.covariates[n][i]) for n in names) for i in range(len(data))})
    out = {}
    for key in keys:
        mask = np.ones(len(data), dtype=bool)
        for n, v in key:
            mask &= data.covariates[n] == v
        out[key] = kde_density(data.outcomes[mask], grid)
    return out


def test_kde_conditional_is_bit_identical_to_string_masks():
    grid = unit_grid(50)
    table = simulate(DgpSpec(), 0, 3000, seed=5)
    rng = np.random.default_rng(5)
    order = rng.permutation(len(table))
    weighted = ObservationTable(table.outcomes[order],
                                {k: v[order] for k, v in table.covariates.items()},
                                rng.uniform(0.2, 3.0, len(table)))
    for data in (table, weighted):
        out, reference = kde_conditional(data, grid), _kde_by_string_masks(data, grid)
        assert list(out) == list(reference)
        for key, dens in out.items():
            assert np.array_equal(dens.values, reference[key].values)


# ------------------------------------------------------------ Bayes estimator

def test_fit_bayes_group_invariant_to_weight_scale_and_row_order():
    rng = np.random.default_rng(6)
    data = simulate(DgpSpec(), 0, 1000, seed=6)
    weights = rng.uniform(0.5, 2.0, len(data))
    perm = rng.permutation(len(data))
    grid = unit_grid(50)

    def fitted(order, w):
        table = ObservationTable(
            outcomes=data.outcomes[order],
            covariates={k: v[order] for k, v in data.covariates.items()},
            weights=w[order],
        )
        return fit_bayes_group(table, grid)

    ident = np.arange(len(data))
    base = fitted(ident, weights)
    for model in (fitted(ident, 1e3 * weights), fitted(ident, 1e-3 * weights),
                  fitted(perm, weights)):
        assert np.max(np.abs(model.theta - base.theta)) < 1e-8
        assert model.smoothing_parameter == pytest.approx(base.smoothing_parameter, rel=1e-8)


def test_fit_bayes_group_checks_levels_on_distinct_rows():
    data = simulate(DgpSpec(), 1, 1000, seed=4)
    model = fit_bayes_group(data, unit_grid(50))
    from_all_rows = [build_covariate_basis(PartialEffectSpec.intercept(), [None])] + [
        build_covariate_basis(PartialEffectSpec.categorical(n, ("1", "2"), "1"),
                              data.covariates[n])
        for n in ("x1", "x2", "x3")
    ]
    assert list(model.covariate_bases) == from_all_rows


def test_fit_bayes_group_names_an_unseen_level_as_before():
    data = simulate(DgpSpec(), 0, 500, seed=4)
    x2 = data.covariates["x2"].copy()
    x2[[3, 100]] = ["7", "3"]
    table = ObservationTable(data.outcomes, dict(data.covariates, x2=x2), data.weights)
    spec = PartialEffectSpec.categorical("x2", ("1", "2"), "1")
    with pytest.raises(DataError) as from_all_rows:
        build_covariate_basis(spec, x2)
    with pytest.raises(DataError) as fitted:
        fit_bayes_group(table, unit_grid(50))
    assert str(fitted.value) == str(from_all_rows.value) == "unseen level '3' for covariate 'x2'"


# ------------------------------------------------------------------- study

def test_run_study_report_shape():
    report = run_study(DgpSpec(), n_values=[300], replications=2,
                       estimators=("kde",), seed=123)
    assert len(report.rows) == 6  # 4 counterfactual + 2 conditional targets
    row = report.lookup("kde", 300, "f11")
    assert row["used"] + row["excluded"] == 2
    assert np.isfinite(row["mean_tv"])
    with pytest.raises(KeyError):
        report.lookup("bayes", 300, "f11")


def test_run_study_deterministic():
    kwargs = dict(n_values=[300], replications=2, estimators=("bayes",), seed=77)
    r1 = run_study(DgpSpec(), **kwargs)
    r2 = run_study(DgpSpec(), **kwargs)
    assert r1.to_table() == r2.to_table()


def _recorder(path):
    """(record, recorded): one line per call, appended by whichever process makes it.

    The study's workers are forked from the test process, so a list in the
    test would not see their calls; a file does.
    """
    def record(value):
        with open(path, "a", encoding="utf-8") as f:
            f.write(repr(value) + "\n")

    def recorded():
        if not path.exists():
            return []
        return [ast.literal_eval(line) for line in path.read_text(encoding="utf-8").splitlines()]

    return record, recorded


def _count_distinct_rows(monkeypatch, path):
    """Record the calls of ``distinct_rows`` under every name that binds it."""
    record, recorded = _recorder(path)
    original = density_regression.distinct_rows

    def counted(*args):
        record(args[1])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cfdens" and getattr(module, "distinct_rows", None) is original:
            monkeypatch.setattr(module, "distinct_rows", counted)
    return recorded


def test_a_replication_pools_each_group_once(monkeypatch, tmp_path):
    recorded = _count_distinct_rows(monkeypatch, tmp_path / "calls")
    spec, grid = DgpSpec(), unit_grid(50)
    truths_cf = {tgt: true_counterfactual(spec, k, l, grid)
                 for tgt, (k, l) in sim_benchmark._KL.items()}
    truths_cond = {(g, c): true_conditional(spec, g, c, grid) for g in (1, 0) for c in range(8)}
    scores = sim_benchmark._replication_scores(spec, 1000, 3, grid, ("bayes", "kde"),
                                               truths_cf, truths_cond, 12, 3)
    calls = recorded()
    assert scores["bayes"] is not None and scores["kde"] is not None
    assert calls == [("x1", "x2", "x3")] * 2


def test_run_study_is_unchanged_without_the_cache(monkeypatch, tmp_path):
    kwargs = dict(n_values=[500, 2000], replications=2, seed=11)
    cached = run_study(DgpSpec(), **kwargs).to_table()

    def uncached(cache, covariates, names, n_rows):
        return density_regression.distinct_rows(covariates, tuple(names), n_rows)

    for module in (density_regression, counterfactual):
        monkeypatch.setattr(module, "cached_distinct_rows", uncached)
    recorded = _count_distinct_rows(monkeypatch, tmp_path / "calls")
    assert run_study(DgpSpec(), **kwargs).to_table() == cached
    calls = recorded()
    assert len(calls) == 2 * 2 * 10  # n values x replications x calls per replication


def test_run_study_rejects_zero_replications():
    with pytest.raises(DomainError):
        run_study(DgpSpec(), n_values=[100], replications=0)


def test_report_table_round_trips_floats():
    report = run_study(DgpSpec(), n_values=[300], replications=2,
                       estimators=("kde",), seed=1)
    text = report.to_table()
    line = [l for l in text.splitlines() if l.startswith("kde,300,f11")][0]
    mean_tv = float(line.split(",")[3])
    assert mean_tv == report.lookup("kde", 300, "f11")["mean_tv"]


def test_run_study_fits_with_the_given_basis_degree(monkeypatch, tmp_path):
    record, recorded = _recorder(tmp_path / "degrees")

    def recording_fit(*args, **kwargs):
        model = fit_bayes_group(*args, **kwargs)
        record(model.outcome_basis.degree)
        return model

    monkeypatch.setattr(sim_benchmark, "fit_bayes_group", recording_fit)
    run_study(DgpSpec(), n_values=[300], replications=2, estimators=("bayes",), seed=3,
              degree=2)
    degrees = recorded()
    assert degrees == [2, 2, 2, 2]  # two groups per replication


def test_run_study_simulates_each_replication_once(monkeypatch, tmp_path):
    record, recorded = _recorder(tmp_path / "calls")

    def counting_simulate(*args, **kwargs):
        record(args[1:])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(sim_benchmark, "simulate", counting_simulate)
    run_study(DgpSpec(), n_values=[300], replications=2, estimators=("bayes", "kde"), seed=3)
    calls = recorded()
    assert len(calls) == 4  # both groups of both replications, shared by the estimators


def _force_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def _simulating_pids(monkeypatch, path):
    """Record the process id of every ``simulate`` call of the study."""
    record, recorded = _recorder(path)

    def recording_simulate(*args, **kwargs):
        record(os.getpid())
        return simulate(*args, **kwargs)

    monkeypatch.setattr(sim_benchmark, "simulate", recording_simulate)
    return recorded


def test_run_study_is_the_same_on_one_or_two_workers(monkeypatch, tmp_path):
    # n = 60 at seed 1: the second replication has an empty control cell,
    # so its KDE is excluded
    kwargs = dict(n_values=[60, 300], replications=2, seed=1)
    tables, pids = [], []
    for cores in (1, 2):
        recorded = _simulating_pids(monkeypatch, tmp_path / f"pids{cores}")
        _force_cores(monkeypatch, cores)
        report = run_study(DgpSpec(), **kwargs)
        tables.append(report.to_table())
        pids.append(recorded())
    assert report.lookup("kde", 60, "f11")["excluded"] == 1
    assert report.lookup("kde", 60, "f11")["used"] == 1
    assert tables[0] == tables[1]
    assert pids[0] == [os.getpid()] * 8  # one worker: every replication in this process
    assert len(pids[1]) == 8 and os.getpid() not in pids[1]
    assert multiprocessing.active_children() == []


def test_run_study_runs_in_process_where_cores_are_unknown(monkeypatch, tmp_path):
    recorded = _simulating_pids(monkeypatch, tmp_path / "pids")
    monkeypatch.delattr(os, "sched_getaffinity")
    run_study(DgpSpec(), n_values=[300], replications=2, estimators=("kde",))
    assert recorded() == [os.getpid()] * 4


def test_run_study_raises_a_worker_error_and_leaves_no_worker(monkeypatch):
    _force_cores(monkeypatch, 2)
    with pytest.raises(ConfigError, match="unknown estimator 'nope'"):
        run_study(DgpSpec(), n_values=[300, 500], replications=2, estimators=("kde", "nope"))
    assert multiprocessing.active_children() == []


def test_run_study_fails_when_a_worker_dies(monkeypatch):
    def dying_simulate(*args, **kwargs):
        os._exit(3)

    _force_cores(monkeypatch, 2)
    monkeypatch.setattr(sim_benchmark, "simulate", dying_simulate)
    with pytest.raises(BrokenProcessPool):
        run_study(DgpSpec(), n_values=[300], replications=2, estimators=("kde",))
    assert multiprocessing.active_children() == []
