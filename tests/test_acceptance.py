"""Acceptance gates for the package, one test per criterion.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  Monte Carlo gates run at desk scale -- 500-1000 replications with 200
bootstrap replicates -- at fixed seeds, with the tolerance windows stated
inline.  Expect the full module to take several minutes.
"""

import json

import numpy as np

from geomedian import (
    ScenarioSpec,
    ThetaPattern,
    are_analytic,
    bahadur_remainder,
    bh_fdr,
    bootstrap_spatial_median,
    child_seed,
    quantile,
    run_are,
    run_coverage,
    run_fdr,
    run_size_power,
    spatial_median,
    validate_sample,
    write_csv,
)
from geomedian.cli import main as cli_main
from geomedian.estimator import SolverConfig, _PointCoords, _solve_batch
from geomedian.simdata import DistributionSpec, draw
from geomedian.data import ar1_shape

from _oracles import all_sign_patterns, is_distance_sum_minimizer, ks_distance, subgradient_minimizer


def _report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_sci_coverage_gaussian():
    spec = ScenarioSpec(
        experiment="coverage", model="gaussian", rho=0.0, n=100, p=100,
        theta=ThetaPattern("sparse3"), replications=500, B=200, levels=(0.9,), seed=1201,
    )
    row = next(r for r in run_coverage(spec).rows if r["method"] == "median")
    cov, width = row["coverage"], row["median_length"]
    ok = 0.865 <= cov <= 0.925 and 0.62 <= width <= 0.68
    _report(
        "criterion 1 (90% simultaneous coverage, gaussian n=100 p=100)",
        ok,
        f"coverage={cov:.3f} (window [0.865, 0.925]), median width={width:.3f} (window [0.62, 0.68])",
    )


def test_criterion_02_heavy_tail_width_advantage():
    spec = ScenarioSpec(
        experiment="coverage", model="student_t", df=3.0, rho=0.0, n=100, p=100,
        theta=ThetaPattern("sparse3"), replications=500, B=200, levels=(0.9,), seed=1002,
    )
    rows = {r["method"]: r for r in run_coverage(spec).rows}
    ratio = rows["mean"]["median_length"] / rows["median"]["median_length"]
    ok = ratio > 1.35
    _report(
        "criterion 2 (t3 width advantage of the median-based intervals)",
        ok,
        f"width_mean/width_median={ratio:.3f} (gate > 1.35); "
        f"widths {rows['median']['median_length']:.3f} vs {rows['mean']['median_length']:.3f}",
    )


def test_criterion_03_test_sizes():
    results = []
    ok = True
    for i, (rho, p) in enumerate([(0.0, 100), (0.0, 1000), (0.8, 100), (0.8, 1000)]):
        spec = ScenarioSpec(
            experiment="size_power", model="gaussian", rho=rho, n=100, p=p,
            replications=1000, B=200, levels=(0.05,), seed=2203 + i,
            methods=("median", "mean", "wpl"), kappa_grid=(0.0,),
        )
        table = run_size_power(spec)
        for row in table.rows:
            results.append(f"rho={rho} p={p} {row['method']}={row['size']:.3f}")
            ok = ok and 0.03 <= row["size"] <= 0.08
    _report(
        "criterion 3 (5% test sizes within [0.03, 0.08])",
        ok,
        "; ".join(results),
    )


def test_criterion_04_sparse_power_ordering():
    spec = ScenarioSpec(
        experiment="size_power", model="gaussian", rho=0.8, n=100, p=2000,
        replications=1000, B=200, levels=(0.05,), seed=1004,
        methods=("median", "wpl"), c0=0.5, kappa_grid=(4.0,),
    )
    table = run_size_power(spec)
    power = {row["method"]: row["power"] for row in table.rows}
    gap = power["median"] - power["wpl"]
    ok = gap >= 0.05
    _report(
        "criterion 4 (sparse-alternative power: median vs pairwise-sign test)",
        ok,
        f"median={power['median']:.3f}, wpl={power['wpl']:.3f}, gap={gap:.3f} (gate >= 0.05)",
    )


def test_criterion_05_fdr_table():
    spec_g = ScenarioSpec(
        experiment="fdr", model="gaussian", rho=0.0, n=50, p=1000,
        theta=ThetaPattern("ten_percent", scale=2.0), replications=500, levels=(0.1,), seed=1005,
    )
    rows_g = {r["method"]: r for r in run_fdr(spec_g).rows}
    fdr_m, power_m = rows_g["median"]["fdr"], rows_g["median"]["fdr_power"]

    spec_t = ScenarioSpec(
        experiment="fdr", model="student_t", df=3.0, rho=0.0, n=50, p=1000,
        theta=ThetaPattern("ten_percent", scale=2.0), replications=500, levels=(0.1,), seed=1006,
    )
    rows_t = {r["method"]: r for r in run_fdr(spec_t).rows}
    contrast = rows_t["median"]["fdr_power"] - rows_t["mean"]["fdr_power"]

    ok = 0.09 <= fdr_m <= 0.16 and power_m >= 0.98 and contrast >= 0.15
    _report(
        "criterion 5 (FDR screening at alpha=0.1, n=50 p=1000)",
        ok,
        f"gaussian FDR={fdr_m:.3f} (window [0.09, 0.16]), power={power_m:.3f} (gate >= 0.98); "
        f"t3 power contrast median-mean={contrast:.3f} (gate >= 0.15)",
    )


def test_criterion_06_relative_efficiency_monte_carlo():
    grid = (10, 50, 200)
    spec_g = ScenarioSpec(experiment="are", model="gaussian", replications=1000, seed=101,
                          p_grid=grid, n_grid=(20,))
    ratios_g = [r["are_ratio"] for r in run_are(spec_g).rows]
    spec_t = ScenarioSpec(experiment="are", model="student_t", df=5.0, replications=1000, seed=101,
                          p_grid=grid, n_grid=(20,))
    ratios_t = [r["are_ratio"] for r in run_are(spec_t).rows]
    ok = (
        ratios_g[0] < ratios_g[1] < ratios_g[2]
        and 0.85 <= ratios_g[2] <= 1.05
        and all(v > 1.1 for v in ratios_t)
    )
    _report(
        "criterion 6 (max-norm efficiency ratio across dimensions)",
        ok,
        f"gaussian={[round(v, 3) for v in ratios_g]} (increasing, last in [0.85, 1.05]); "
        f"t5={[round(v, 3) for v in ratios_t]} (all > 1.1)",
    )


def test_criterion_07_analytic_limits():
    g = are_analytic("gaussian", 10**6)
    t = are_analytic("student_t", 10**6, df=5.0)
    ok = 0.9999 <= g <= 1.0001 and abs(t - 1.5090) < 1e-3
    _report(
        "criterion 7 (closed-form efficiency limits)",
        ok,
        f"gaussian(1e6)={g:.6f} (window [0.9999, 1.0001]); t5(1e6)={t:.6f} (within 1e-3 of 1.5090)",
    )


def test_criterion_08_solver_oracle():
    rng = np.random.default_rng(1008)
    worst = 0.0
    max_resid_excess = 0.0
    redrawn = 0
    done = 0
    while done < 50:
        p = int(rng.integers(1, 4))
        n = int(rng.integers(3, 21))
        if p == 1 and n % 2 == 0:
            n += 1  # unique univariate median
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0)
        fit = spatial_median(validate_sample(x))
        anchored = bool((np.linalg.norm(x - fit.theta_hat, axis=1) <= 1e-9).any())
        if anchored and fit.grad_norm > n * 1e-7:
            # optimum at a data point with unbalanced pull: the estimating
            # equation does not vanish there (the subgradient condition
            # holds instead), so the residual bound targets interior optima
            redrawn += 1
            continue
        oracle = subgradient_minimizer(x)
        worst = max(worst, float(np.abs(fit.theta_hat - oracle).max()))
        max_resid_excess = max(max_resid_excess, fit.grad_norm / (n * 1e-7))
        assert is_distance_sum_minimizer(x, fit.theta_hat)
        done += 1
    ok = worst < 1e-6 and max_resid_excess <= 1.0
    _report(
        "criterion 8 (solver vs subgradient oracle on 50 small instances)",
        ok,
        f"max disagreement={worst:.2e} (gate < 1e-6); max residual / (n*1e-7)={max_resid_excess:.3f}; "
        f"{redrawn} vertex-anchored draws redrawn",
    )


def test_criterion_09_bootstrap_enumeration_oracle():
    rng = np.random.default_rng(5)
    sample = validate_sample(rng.standard_normal((8, 2)) + 1.0)
    fit = spatial_median(sample)
    residuals = sample.values - fit.theta_hat
    signs = all_sign_patterns(8)
    beta, _, _ = _solve_batch(_PointCoords(residuals), signs, SolverConfig())
    exact = np.sort(np.sqrt(8.0) * np.abs(beta).max(axis=1))
    iqr = float(np.quantile(exact, 0.75) - np.quantile(exact, 0.25))
    draws = bootstrap_spatial_median(sample, fit, 10000, seed=77)
    gaps = {
        level: abs(quantile(draws, level) - exact[int(np.ceil(level * 256)) - 1])
        for level in (0.90, 0.95)
    }
    ks = ks_distance(draws.stats, exact)
    ok = all(gap <= 0.05 * iqr for gap in gaps.values()) and ks <= 0.03
    _report(
        "criterion 9 (exhaustive sign enumeration, n=8)",
        ok,
        f"quantile gaps q90={gaps[0.90]:.4f} q95={gaps[0.95]:.4f} (gate <= {0.05 * iqr:.4f}); "
        f"KS={ks:.4f} (gate <= 0.03)",
    )


def test_criterion_10_linear_expansion_remainder_decay():
    p = 50
    reps = 200
    spec = DistributionSpec("gaussian", np.zeros(p), ar1_shape(p, 0.0))
    stats = {}
    for n in (50, 200, 800):
        values = np.empty(reps)
        for r in range(reps):
            sample = draw(spec, n, child_seed(1010, n, r))
            fit = spatial_median(sample)
            values[r] = bahadur_remainder(sample, np.zeros(p), fit)
        stats[n] = (values.mean(), values.std(ddof=1) / np.sqrt(reps))
    ok = True
    for a, b in ((50, 200), (200, 800)):
        ok = ok and stats[a][0] - stats[b][0] > 2.0 * (stats[a][1] + stats[b][1])
    _report(
        "criterion 10 (expansion remainder decays in n)",
        ok,
        "; ".join(f"n={n}: {m:.4f}+-{s:.4f}" for n, (m, s) in stats.items()),
    )


def test_criterion_11_step_up_null_control():
    rng = np.random.default_rng(2)
    hits = 0
    reps = 2000
    for _ in range(reps):
        hits += int(bh_fdr(rng.uniform(size=500), 0.1).k_hat > 0)
    rate = hits / reps
    ok = rate <= 0.105
    _report(
        "criterion 11 (step-up null FDR over 2000 uniform replications)",
        ok,
        f"empirical FDR={rate:.4f} (gate <= 0.105)",
    )


def test_criterion_12_cli_determinism(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    rng = np.random.default_rng(1212)
    write_csv(data_path, rng.standard_normal((14, 3)))
    gen_config = tmp_path / "gen.json"
    gen_config.write_text(json.dumps({
        "model": "student_t", "df": 3.0, "n": 10, "p": 4, "rho": 0.5,
        "theta": {"kind": "sparse3"}, "seed": 5,
    }))
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "experiment": "coverage", "model": "gaussian", "n": 14, "p": 3,
        "theta": {"kind": "zero"}, "replications": 4, "B": 50,
        "levels": [0.9], "seed": 6,
    }))
    data = str(data_path)
    invocations = {
        "estimate": ["estimate", "--in", data],
        "gmom": ["gmom", "--in", data, "--blocks", "4", "--seed", "3"],
        "sci": ["sci", "--in", data, "--level", "0.9", "--boot", "300", "--seed", "7"],
        "test": ["test", "--in", data, "--method", "median", "--alpha", "0.05",
                 "--boot", "300", "--seed", "8"],
        "fdr": ["fdr", "--in", data, "--alpha", "0.1"],
        "are": ["are", "--in", data, "--boot", "300", "--seed", "9"],
        "generate": ["generate", "--config", str(gen_config)],
        "simulate": ["simulate", "--config", str(sim_config), "--format", "csv"],
    }
    failures = []
    for name, argv in invocations.items():
        outputs = []
        for workers in ("1", "4", "1"):
            # the subcommands without a bootstrap or replications take no --workers
            flags = ["--workers", workers] if name in ("sci", "test", "are", "simulate") else []
            assert cli_main(argv + flags) == 0
            outputs.append(capsys.readouterr().out)
        if not outputs[0] == outputs[1] == outputs[2]:
            failures.append(name)
    ok = not failures
    _report(
        "criterion 12 (byte-identical CLI output across runs and worker counts)",
        ok,
        f"checked {len(invocations)} subcommands" + (f"; mismatches: {failures}" if failures else ""),
    )
