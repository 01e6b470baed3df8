import dataclasses
import json
import math

import numpy as np
import pytest

from geomedian import (
    DistributionSpec,
    MetricsTable,
    ScenarioSpec,
    ThetaPattern,
    ar1_shape,
    bh_fdr,
    child_seed,
    draw,
    emit_report,
    fdr_screen,
    global_test_mean,
    global_test_median,
    run_are,
    run_coverage,
    run_fdr,
    run_size_power,
    run_scenario,
    scenario_from_json,
    sci,
    theta_vector,
)
from geomedian import harness
from geomedian.errors import DidNotConverge, InvalidScenario
from geomedian.harness import COLUMNS
from geomedian.streams import NS_HARNESS


def _coverage_spec(**kw):
    base = dict(
        experiment="coverage",
        model="gaussian",
        rho=0.0,
        n=15,
        p=4,
        theta=ThetaPattern("zero"),
        replications=3,
        B=40,
        levels=(0.9,),
        seed=5,
    )
    base.update(kw)
    return ScenarioSpec(**base)


def test_coverage_single_replication_smoke():
    table = run_coverage(_coverage_spec(replications=1))
    assert len(table.rows) == 2
    for row in table.rows:
        assert row["coverage"] in (0.0, 1.0)
        assert row["median_length"] > 0.0


def test_scenario_rerun_is_bitwise_identical():
    a = run_coverage(_coverage_spec(replications=4))
    b = run_coverage(_coverage_spec(replications=4))
    assert a.rows == b.rows


def test_worker_count_does_not_change_results():
    a = run_coverage(_coverage_spec(replications=6), workers=1)
    b = run_coverage(_coverage_spec(replications=6), workers=4)
    assert a.rows == b.rows
    spec = ScenarioSpec(
        experiment="fdr", n=30, p=20, theta=ThetaPattern("zero"),
        replications=6, levels=(0.1,), seed=2,
    )
    assert run_fdr(spec, workers=1).rows == run_fdr(spec, workers=3).rows


def test_harness_agrees_with_the_inference_api():
    # one replication per row, so each row is that replication's verdict;
    # rebuild its sample and ask the public API for the same numbers
    seed, n, p, B, level = 21, 18, 5, 80, 0.9
    spec = _coverage_spec(model="student_t", df=3.0, n=n, p=p, theta=ThetaPattern("sparse3"),
                          replications=1, B=B, levels=(level,), seed=seed)
    theta = theta_vector(spec.theta, p, n)
    dist = DistributionSpec("student_t", theta, ar1_shape(p, 0.0), df=3.0, t_mode=spec.t_mode)
    rep_seed = child_seed(seed, NS_HARNESS, 0)
    sample = draw(dist, n, rep_seed)
    for row in run_coverage(spec).rows:
        band = sci(sample, level, B, rep_seed, method=row["method"])
        assert row["median_length"] == 2.0 * band.q_boot / np.sqrt(n)
        inside = bool(((band.lower <= theta) & (theta <= band.upper)).all())
        assert row["coverage"] == float(inside)

    spec = ScenarioSpec(experiment="size_power", n=n, p=p, replications=1, B=B,
                        levels=(0.05, 0.2), seed=seed, methods=("median", "mean"),
                        # rejections at these strengths differ by method and level
                        kappa_grid=(0.0, 1.0, 1.5), c0=1.0)
    rows = run_size_power(spec).rows
    tests = {"median": global_test_median, "mean": global_test_mean}
    for ki, kappa in enumerate(spec.kappa_grid):
        theta = theta_vector(ThetaPattern("log_sparse", kappa=kappa, c0=1.0), p, n)
        rep_seed = child_seed(seed, NS_HARNESS, ki, 0)
        sample = draw(DistributionSpec("gaussian", theta, ar1_shape(p, 0.0)), n, rep_seed)
        for row in (r for r in rows if r["kappa"] == kappa):
            verdict = tests[row["method"]](sample, np.zeros(p), row["level"], B, rep_seed)
            assert (row["size"] if kappa == 0.0 else row["power"]) == float(verdict.reject)


def test_fdr_harness_agrees_with_the_inference_api():
    # one replication, so each row holds that sample's proportions; the mean
    # route's t-test p-values are recomputed here from their definition
    seed, n, p = 31, 30, 40
    spec = ScenarioSpec(experiment="fdr", model="laplace", n=n, p=p, replications=1,
                        theta=ThetaPattern("ten_percent", scale=1.5), levels=(0.05, 0.3), seed=seed)
    theta = theta_vector(spec.theta, p, n)
    signal = theta != 0.0
    dist = DistributionSpec("laplace", theta, ar1_shape(p, 0.0), t_mode=spec.t_mode)
    sample = draw(dist, n, child_seed(seed, NS_HARNESS, 0))
    x = sample.values
    t_mean = np.sqrt(n) * x.mean(axis=0) / x.std(axis=0, ddof=1)
    p_mean = np.array([math.erfc(abs(t) / math.sqrt(2.0)) for t in t_mean])
    rows = run_fdr(spec).rows
    assert len(rows) == 4
    for row in rows:
        if row["method"] == "median":
            selection = fdr_screen(sample, np.zeros(p), row["level"])
        else:
            selection = bh_fdr(p_mean, row["level"])
        hits = int(signal[selection.rejected].sum())
        assert row["fdr"] == (selection.k_hat - hits) / max(selection.k_hat, 1)
        assert row["fdr_power"] == hits / signal.sum()


def test_bernoulli_stderr_formula():
    table = run_coverage(_coverage_spec(replications=5))
    for row in table.rows:
        rate = row["coverage"]
        assert row["mc_stderr"] == pytest.approx(np.sqrt(rate * (1 - rate) / 5))


def test_size_column_at_zero_kappa_power_elsewhere():
    spec = ScenarioSpec(
        experiment="size_power", n=20, p=8, replications=3, B=30,
        levels=(0.05,), seed=3, methods=("median", "wpl"), kappa_grid=(0.0, 3.0), c0=1.0,
    )
    table = run_size_power(spec)
    by_kappa = {(row["kappa"], row["method"]): row for row in table.rows}
    assert by_kappa[(0.0, "median")]["size"] is not None
    assert by_kappa[(0.0, "median")]["power"] is None
    assert by_kappa[(3.0, "median")]["power"] is not None
    assert by_kappa[(3.0, "median")]["size"] is None


def test_power_monotone_in_signal_strength():
    spec = ScenarioSpec(
        experiment="size_power", n=40, p=30, replications=40, B=60,
        levels=(0.05,), seed=7, methods=("median",), kappa_grid=(0.0, 2.0, 5.0), c0=1.0,
    )
    table = run_size_power(spec)
    rates = [row["size"] if row["kappa"] == 0 else row["power"] for row in table.rows]
    ses = [row["mc_stderr"] for row in table.rows]
    assert rates[1] >= rates[0] - 2.0 * (ses[0] + ses[1])
    assert rates[2] >= rates[1] - 2.0 * (ses[1] + ses[2])


def test_fdr_all_null_control():
    spec = ScenarioSpec(
        experiment="fdr", model="gaussian", n=400, p=100,
        theta=ThetaPattern("zero"), replications=60, levels=(0.1,), seed=11,
    )
    table = run_fdr(spec)
    row = next(r for r in table.rows if r["method"] == "median")
    assert row["fdr"] <= 0.1 + 2.0 * row["mc_stderr"]
    assert row["fdr_power"] is None


def test_fdr_reports_both_methods_per_level():
    spec = ScenarioSpec(
        experiment="fdr", n=50, p=40, theta=ThetaPattern("ten_percent", scale=2.0),
        replications=4, levels=(0.1, 0.2), seed=13,
    )
    table = run_fdr(spec)
    assert len(table.rows) == 4
    assert {row["method"] for row in table.rows} == {"median", "mean"}
    for row in table.rows:
        assert 0.0 <= row["fdr"] <= 1.0
        assert row["fdr_power"] is not None


def test_are_requires_enough_data():
    with pytest.raises(InvalidScenario):
        run_are(ScenarioSpec(experiment="are", replications=5, seed=1, p_grid=(4,), n_grid=(1,)))
    with pytest.raises(InvalidScenario):
        run_are(ScenarioSpec(experiment="are", replications=1, seed=1, p_grid=(4,), n_grid=(10,)))


def test_are_rows_per_grid_point():
    spec = ScenarioSpec(experiment="are", replications=25, seed=9, p_grid=(3, 6), n_grid=(20,))
    table = run_are(spec)
    assert [(row["n"], row["p"]) for row in table.rows] == [(20, 3), (20, 6)]
    for row in table.rows:
        assert row["are_ratio"] > 0
        assert row["mc_stderr"] >= 0


def test_run_scenario_dispatch_and_experiment_check():
    table = run_scenario(_coverage_spec(replications=2))
    assert len(table.rows) == 2
    with pytest.raises(InvalidScenario):
        run_size_power(_coverage_spec())


def test_emit_report_empty_table_is_header_only():
    text = emit_report(MetricsTable(), "csv")
    assert text == ",".join(COLUMNS) + "\n"
    assert emit_report(MetricsTable(), "json") == "[]\n"


def test_emit_report_json_round_trip():
    table = run_coverage(_coverage_spec(replications=2))
    rows = json.loads(emit_report(table, "json"))
    assert rows == table.rows


def test_emit_report_markdown_layout():
    table = run_coverage(_coverage_spec(replications=2))
    lines = emit_report(table, "markdown").strip().splitlines()
    assert lines[0].startswith("| scenario |")
    assert len(lines) == 2 + len(table.rows)


def test_report_schema_matches_documented_columns():
    expected = (
        "scenario", "experiment", "model", "rho", "n", "p", "level", "method",
        "kappa", "coverage", "median_length", "size", "power", "fdr",
        "fdr_power", "are_ratio", "mc_stderr", "runtime_seconds",
    )
    assert COLUMNS == expected
    table = run_coverage(_coverage_spec(replications=2))
    for row in table.rows:
        assert tuple(row.keys()) == expected


def test_metrics_table_validates_ranges():
    table = MetricsTable()
    with pytest.raises(InvalidScenario):
        table.append(scenario="x", coverage=1.5)
    with pytest.raises(InvalidScenario):
        table.append(scenario="x", mc_stderr=-0.1)


def test_scenario_from_json_full_round():
    # every field set away from its default, so a field the parser drops or
    # mistypes shows up in the comparison of whole specs
    obj = {
        "experiment": "size_power",
        "model": "student_t",
        "rho": 0.8,
        "df": 3.0,
        "t_mode": "covariance",
        "n": 50,
        "p": 100,
        "theta": {"kind": "log_sparse", "kappa": 2.0, "c0": 0.7, "scale": 1.5},
        "replications": 10,
        "B": 50,
        "levels": [0.05, 0.1],
        "seed": 21,
        "name": "round-trip",
        "kappa_grid": [0.0, 2.0],
        "c0": 0.25,
        "methods": ["median", "wpl"],
        "p_grid": [10, 20],
        "n_grid": [30],
        "workers": 2,
    }
    assert set(obj) == {f.name for f in dataclasses.fields(ScenarioSpec)}
    assert scenario_from_json(obj) == ScenarioSpec(
        experiment="size_power", model="student_t", rho=0.8, df=3.0, t_mode="covariance",
        n=50, p=100, theta=ThetaPattern("log_sparse", kappa=2.0, c0=0.7, scale=1.5),
        replications=10, B=50, levels=(0.05, 0.1), seed=21, name="round-trip",
        kappa_grid=(0.0, 2.0), c0=0.25, methods=("median", "wpl"), p_grid=(10, 20),
        n_grid=(30,), workers=2,
    )


def test_scenario_from_json_requires_seed_and_rejects_unknown():
    with pytest.raises(InvalidScenario):
        scenario_from_json({"experiment": "coverage"})
    with pytest.raises(InvalidScenario):
        scenario_from_json({"experiment": "coverage", "seed": 1, "bogus": 2})
    with pytest.raises(InvalidScenario):
        scenario_from_json({"seed": 1})


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        ScenarioSpec(experiment="coverage", replications=0)
    with pytest.raises(InvalidScenario):
        ScenarioSpec(experiment="coverage", levels=(1.5,))
    with pytest.raises(InvalidScenario):
        ScenarioSpec(experiment="nope")


@pytest.mark.parametrize(
    "field, message", [({"B": 0}, "B must be >= 1"), ({"model": "cauchy"}, "unknown model 'cauchy'")]
)
def test_scenario_rejects_bad_fields(field, message):
    with pytest.raises(InvalidScenario, match=message):
        _coverage_spec(**field)


@pytest.mark.parametrize("workers", [0, -3])
def test_scenario_rejects_workers_below_one(workers):
    with pytest.raises(InvalidScenario, match="workers must be >= 1"):
        _coverage_spec(workers=workers)


def test_replication_error_keeps_its_type_and_names_the_replication():
    spec = ScenarioSpec(experiment="coverage", n=1, p=3, replications=2, B=10, seed=1)
    with pytest.raises(InvalidScenario) as info:
        run_coverage(spec)
    assert str(info.value) == (
        "scenario 'gaussian-rho0-n1-p3' replication 0: need n >= 2 observations for bootstrap calibration"
    )


def test_replication_error_keeps_its_attributes(monkeypatch):
    def stalled(sample):
        raise DidNotConverge(7, 0.5, replicate=3)

    monkeypatch.setattr(harness, "spatial_median", stalled)
    spec = ScenarioSpec(experiment="are", n=6, p=2, replications=2, seed=1, name="stall")
    with pytest.raises(DidNotConverge) as info:
        run_are(spec)
    err = info.value
    assert (err.iterations, err.grad_norm, err.replicate) == (7, 0.5, 3)
    assert str(err).startswith("scenario 'stall' replication 0: no convergence after 7 iterations")


def test_label_prefers_the_given_name():
    assert _coverage_spec(name="desk run").label() == "desk run"
    assert _coverage_spec().label() == "gaussian-rho0-n15-p4"
    assert ScenarioSpec(experiment="are", model="student_t", df=3.0, p=7).label() == "student_t-rho0-n100-p7-df3"
