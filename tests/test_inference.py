import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from geomedian import (
    DistributionSpec,
    ThetaPattern,
    ar1_shape,
    are_analytic,
    are_bootstrap,
    bh_fdr,
    bootstrap_spatial_median,
    child_seed,
    draw,
    fdr_screen,
    global_test_cq,
    global_test_mean,
    global_test_median,
    global_test_wpl,
    marginal_stats,
    quantile,
    sci,
    spatial_median,
    theta_vector,
    validate_sample,
)
from geomedian.errors import (
    DegenerateSample,
    DimensionMismatch,
    InvalidAlpha,
    InvalidDf,
    InvalidLevel,
    InvalidScenario,
    TooFewDraws,
    ZeroScale,
    ZeroVariance,
)
from geomedian import inference
from geomedian.estimator import SolverConfig, _PointCoords, _solve_batch
from geomedian.inference import _two_sided_p

from _oracles import all_sign_patterns, are_gaussian_even_p


def test_sci_constant_sample_is_degenerate():
    # every replicate would be 0: zero-width intervals are refused, not returned
    sample = validate_sample([[4.0, -2.0]] * 6)
    for method in ("median", "mean"):
        with pytest.raises(DegenerateSample, match="every observation is identical"):
            sci(sample, 0.9, 100, seed=1, method=method)


def test_sci_constant_width_and_level_check():
    rng = np.random.default_rng(2)
    sample = validate_sample(rng.standard_normal((20, 3)))
    result = sci(sample, 0.9, 200, seed=3)
    widths = result.upper - result.lower
    assert_allclose(widths, 2.0 * result.q_boot / np.sqrt(20))
    with pytest.raises(InvalidLevel):
        sci(sample, 1.2, 50, seed=1)


@pytest.mark.parametrize("level", [0, 1, 1.5, -0.1])
@pytest.mark.parametrize("procedure", ["sci", "global_test_median", "global_test_mean"])
def test_level_is_checked_before_the_bootstrap(procedure, level, monkeypatch):
    ran = []
    for name in ("bootstrap_spatial_median", "bootstrap_mean"):
        monkeypatch.setattr(inference, name, lambda *args, **kwargs: ran.append(args))
    sample = validate_sample(np.random.default_rng(7).standard_normal((12, 3)))
    with pytest.raises(InvalidLevel, match=re.escape(f"got {level}")):
        if procedure == "sci":
            sci(sample, level, 50, seed=1)
        else:
            getattr(inference, procedure)(sample, np.zeros(3), level, 50, 1)
    assert ran == []


@pytest.mark.parametrize("alpha", [0, 1, 1.5, -0.1])
def test_fdr_alpha_is_checked_before_the_fit(alpha, monkeypatch):
    ran = []
    monkeypatch.setattr(inference, "spatial_median", lambda *args, **kwargs: ran.append(args))
    sample = validate_sample(np.random.default_rng(8).standard_normal((12, 3)))
    with pytest.raises(InvalidAlpha, match=re.escape(f"got {alpha}")):
        fdr_screen(sample, np.zeros(3), alpha)
    assert ran == []


def test_sci_quantile_matches_enumeration_for_mirror_pairs():
    rng = np.random.default_rng(3)
    half = rng.standard_normal((2, 2))
    sample = validate_sample(np.vstack([half, -half]))
    fit = spatial_median(sample)
    residuals = sample.values - fit.theta_hat
    signs = all_sign_patterns(4)
    beta, _, _ = _solve_batch(_PointCoords(residuals), signs, SolverConfig())
    exact = np.sort(2.0 * np.abs(beta).max(axis=1))
    exact_q90 = exact[int(np.ceil(0.9 * 16)) - 1]
    draws = bootstrap_spatial_median(sample, fit, 8000, seed=4)
    assert abs(quantile(draws, 0.9) - exact_q90) <= 0.05 * (exact[11] - exact[3] + 1e-12) + 1e-9


def test_global_test_median_symmetric_sample_never_rejects():
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    result = global_test_median(validate_sample(data), np.zeros(2), 0.05, 200, seed=5)
    assert result.statistic < 1e-12
    assert not result.reject
    assert result.p_value == 1.0


def test_bootstrap_p_value_convention():
    rng = np.random.default_rng(6)
    sample = validate_sample(rng.standard_normal((15, 2)) + 5.0)
    result = global_test_median(sample, np.zeros(2), 0.05, 99, seed=7)
    assert result.reject
    assert result.p_value == 1.0 / 100.0


def test_sci_test_duality_with_shared_draws():
    rng = np.random.default_rng(8)
    sample = validate_sample(rng.standard_normal((25, 3)))
    level = 0.9
    band = sci(sample, level, 300, seed=9)
    for shift in (0.0, 0.1, 0.3, 0.5, 1.0):
        theta0 = np.zeros(3) + shift
        verdict = global_test_median(sample, theta0, 1.0 - level, 300, seed=9)
        outside = bool(((theta0 < band.lower) | (theta0 > band.upper)).any())
        assert verdict.reject == outside


def test_rejection_monotone_in_distance():
    rng = np.random.default_rng(10)
    sample = validate_sample(rng.standard_normal((20, 2)))
    rejections = [
        global_test_median(sample, np.array([s, 0.0]), 0.05, 200, seed=11).reject
        for s in np.linspace(0.0, 2.0, 9)
    ]
    assert sorted(rejections) == rejections


@pytest.mark.parametrize("test", [global_test_median, global_test_mean])
def test_global_test_needs_two_observations(test):
    # a single observation gives the multiplier bootstrap nothing to
    # calibrate against, exactly as for the intervals
    sample = validate_sample([[1.0, -2.0, 0.5]])
    with pytest.raises(InvalidScenario):
        test(sample, np.zeros(3), 0.05, 100, seed=1)


def test_global_test_mean_constant_sample():
    # the critical value would be 0, so any theta0 off the sample would reject
    sample = validate_sample([[1.0, 2.0]] * 8)
    for theta0 in ([1.0, 2.0], [0.0, 0.0]):
        with pytest.raises(DegenerateSample, match="every observation is identical"):
            global_test_mean(sample, np.array(theta0), 0.05, 100, seed=12)
        with pytest.raises(DegenerateSample, match="every observation is identical"):
            global_test_median(sample, np.array(theta0), 0.05, 100, seed=12)


def _zero_repeat_sample():
    # two zero rows and eight equal rows among twelve: the fit sits on the
    # repeated row, and eight zero residuals put every replicate at the origin
    x = np.random.default_rng(5).standard_normal((12, 8))
    x[:2] = 0.0
    x[2:10] = x[2]
    return validate_sample(x)


@pytest.mark.parametrize(
    "procedure",
    [
        lambda: sci(_zero_repeat_sample(), 0.9, 200, 1),
        lambda: global_test_median(_zero_repeat_sample(), np.zeros(8), 0.05, 200, 1),
    ],
    ids=["sci", "global_test_median"],
)
def test_zero_bootstrap_quantile_is_degenerate(procedure):
    # not a constant sample, yet every replicate statistic is 0: a zero-width
    # band or a zero critical value is refused, not returned
    with pytest.raises(DegenerateSample, match="bootstrap quantile is 0"):
        procedure()


@pytest.mark.parametrize("a", [1e-200, 1e-15, 1e-8, 1e6, 1e150, 1e200])
def test_sci_quantile_scales_with_the_data(a):
    # the golden corpus's scale probe: at x1e-15 the band keeps a positive width
    x = np.random.default_rng(41).standard_normal((30, 5))
    q = sci(validate_sample(x), 0.9, 200, 42).q_boot
    band = sci(validate_sample(a * x), 0.9, 200, 42)
    assert abs(band.q_boot / a - q) <= 1e-9 * q
    assert (band.upper - band.lower > 0).all()


def test_wpl_antipodal_pair():
    sample = validate_sample([[1.0, 0.0], [-1.0, 0.0]])
    result = global_test_wpl(sample, np.zeros(2), 0.05)
    assert_allclose(result.statistic, -1.0)
    assert not result.reject


def test_wpl_orthogonal_signs():
    sample = validate_sample([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    result = global_test_wpl(sample, np.zeros(3), 0.05)
    assert_allclose(result.statistic, 0.0, atol=1e-15)


@pytest.mark.parametrize("a", [1e-200, 1e160, 1e200])
def test_wpl_at_extreme_magnitudes(a):
    # no direction underflows to zero and no norm overflows
    x = np.random.default_rng(41).standard_normal((30, 5)) + 0.3
    unit = global_test_wpl(validate_sample(x), np.zeros(5), 0.05)
    scaled = global_test_wpl(validate_sample(a * x), np.zeros(5), 0.05)
    assert_allclose(scaled.statistic, unit.statistic, rtol=1e-12)
    assert_allclose(scaled.p_value, unit.p_value, rtol=1e-9)


def test_cq_constant_at_null_center():
    sample = validate_sample([[2.0, 2.0]] * 5)
    result = global_test_cq(sample, np.array([2.0, 2.0]), 0.05)
    assert result.statistic == 0.0
    assert not result.reject
    assert result.p_value == 1.0


def test_dimension_mismatch_raised():
    sample = validate_sample(np.eye(3))
    for fn in (global_test_wpl, global_test_cq):
        with pytest.raises(DimensionMismatch):
            fn(sample, np.zeros(2), 0.05)
    with pytest.raises(DimensionMismatch):
        global_test_mean(sample, np.zeros(4), 0.05, 50, seed=0)


def test_marginal_stats_zero_at_center():
    rng = np.random.default_rng(13)
    sample = validate_sample(rng.standard_normal((30, 4)))
    fit = spatial_median(sample)
    assert_allclose(marginal_stats(sample, fit, fit.theta_hat), np.zeros(4), atol=1e-12)


def test_marginal_stats_univariate_reduces_to_zeta():
    sample = validate_sample([[1.0], [2.0], [4.0], [8.0], [9.0]])
    fit = spatial_median(sample)
    assert_allclose(fit.theta_hat, [4.0])
    stats = marginal_stats(sample, fit, np.zeros(1))
    zeta = np.mean([1.0 / 3.0, 1.0 / 2.0, 1.0 / 4.0, 1.0 / 5.0])
    assert_allclose(stats, [np.sqrt(5.0) * 4.0 * zeta], rtol=1e-12)


def test_marginal_stats_match_direct_summation():
    values = np.array(
        [
            [0.2, -1.0, 0.5],
            [1.5, 0.3, -0.7],
            [-0.4, 0.9, 1.1],
            [0.8, -0.2, -1.3],
            [-1.1, 1.4, 0.6],
        ]
    )
    sample = validate_sample(values)
    fit = spatial_median(sample)
    theta0 = np.array([0.1, -0.1, 0.2])

    residuals = values - fit.theta_hat
    norms = [float(np.linalg.norm(r)) for r in residuals]
    zeta = sum(1.0 / v for v in norms) / 5.0
    expected = []
    for j in range(3):
        b_jj = sum((residuals[i, j] / norms[i]) ** 2 for i in range(5)) / 5.0
        expected.append(np.sqrt(5.0) * (fit.theta_hat[j] - theta0[j]) / (np.sqrt(b_jj) / zeta))
    assert_allclose(marginal_stats(sample, fit, theta0), expected, rtol=1e-12)


def test_marginal_stats_zero_scale_coordinate():
    values = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [8.0, 0.0], [9.0, 0.0]])
    sample = validate_sample(values)
    fit = spatial_median(sample)
    with pytest.raises(ZeroScale) as err:
        marginal_stats(sample, fit, np.zeros(2))
    assert err.value.coordinate == 1


@pytest.mark.parametrize("rows", [[[2.5, -1.0]], [[1.0, 2.0]] * 5], ids=["one_row", "identical_rows"])
def test_marginal_stats_undefined_scale_is_degenerate(rows):
    # every residual vanishes, so zeta1_hat and b_diag_hat are NaN, not zero
    sample = validate_sample(rows)
    fit = spatial_median(sample)
    with pytest.raises(DegenerateSample, match="plug-in scale undefined"):
        marginal_stats(sample, fit, np.zeros(2))
    with pytest.raises(DegenerateSample, match="plug-in scale undefined"):
        fdr_screen(sample, np.zeros(2), alpha=0.1)


def test_marginal_stats_scale_invariant():
    rng = np.random.default_rng(14)
    values = rng.standard_normal((40, 5)) + 0.3
    base = marginal_stats(validate_sample(values), spatial_median(validate_sample(values)), np.zeros(5))
    scaled = marginal_stats(
        validate_sample(7.5 * values), spatial_median(validate_sample(7.5 * values)), np.zeros(5)
    )
    assert np.abs(base - scaled).max() < 1e-9


def test_bh_all_ones_rejects_nothing():
    sel = bh_fdr(np.ones(6), 0.1)
    assert sel.k_hat == 0
    assert sel.threshold_p == 0.0
    assert sel.rejected.size == 0


def test_bh_step_up_hand_example():
    sel = bh_fdr([0.01, 0.04, 0.10, 0.90], 0.2)
    assert sel.k_hat == 3
    assert sel.threshold_p == 0.10
    assert sorted(sel.rejected.tolist()) == [0, 1, 2]


def test_bh_ties_share_fate():
    sel = bh_fdr([0.05, 0.05, 0.9], 0.15)
    assert sel.k_hat == 2
    assert sorted(sel.rejected.tolist()) == [0, 1]


def test_bh_threshold_correctness_property():
    rng = np.random.default_rng(15)
    for trial in range(200):
        p = int(rng.integers(1, 40))
        pv = rng.uniform(size=p)
        alpha = float(rng.uniform(0.01, 0.5))
        sel = bh_fdr(pv, alpha)
        ordered = np.sort(pv)
        if sel.k_hat:
            assert ordered[sel.k_hat - 1] <= alpha * sel.k_hat / p
            assert sel.rejected.size == sel.k_hat
        for j in range(sel.k_hat + 1, p + 1):
            assert ordered[j - 1] > alpha * j / p


def test_bh_rejects_bad_inputs():
    with pytest.raises(InvalidAlpha):
        bh_fdr([0.5], 0.0)
    with pytest.raises(InvalidAlpha):
        bh_fdr([1.5], 0.1)


def test_fdr_screen_detects_planted_signal():
    rng = np.random.default_rng(16)
    values = rng.standard_normal((60, 8)) * 0.2
    values[:, 5] += 3.0
    result = fdr_screen(validate_sample(values), np.zeros(8), 0.1)
    assert 5 in result.rejected.tolist()
    assert result.k_hat >= 1
    assert result.threshold_p <= 0.1 * result.k_hat / 8


def test_fdr_screen_null_control_smoke():
    # under the global null the false-discovery proportion is the rejection
    # indicator, so its mean should match the nominal level.  The normal
    # calibration of the extreme marginal statistics is anti-conservative at
    # small n (published FDR tables run above nominal at n=50 as well), so
    # the control is checked at a sample size where the tails have settled.
    rng = np.random.default_rng(17)
    false_any = 0
    reps = 200
    for r in range(reps):
        sample = validate_sample(rng.standard_normal((400, 200)))
        result = fdr_screen(sample, np.zeros(200), 0.1)
        false_any += int(result.k_hat > 0)
    assert false_any / reps <= 0.1 + 3.0 * np.sqrt(0.1 * 0.9 / reps)


def test_p_values_decrease_in_statistic_magnitude():
    z975 = 1.959963984540054
    t = np.array([-40.0, -3.0, -z975, -1.0, 0.0, 0.5, z975, 2.0, 4.0, 9.0, 40.0])
    pv = _two_sided_p(t)
    assert (np.isfinite(pv) & (pv >= 0) & (pv <= 1)).all()
    order = np.argsort(np.abs(t), kind="stable")
    assert (np.diff(pv[order]) <= 0).all()
    assert pv[4] == 1.0
    assert abs(pv[2] - 0.05) <= 1e-15 and abs(pv[6] - 0.05) <= 1e-15
    # the screen reports exactly these p-values for its statistics
    rng = np.random.default_rng(22)
    result = fdr_screen(validate_sample(rng.standard_normal((30, 5)) + 0.4), np.zeros(5), 0.1)
    assert_array_equal(result.p_values, _two_sided_p(result.t_stats))
    # an antipodal pair has pairwise-sign sd exactly 1, so the critical
    # value at level 0.05 is the 0.95 normal quantile
    verdict = global_test_wpl(validate_sample([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), 0.05)
    assert abs(verdict.critical_value - 1.6448536269514722) <= 1e-15


def test_are_bootstrap_constant_sample_is_degenerate():
    sample = validate_sample([[1.0, 1.0]] * 5)
    with pytest.raises(DegenerateSample, match="every observation is identical"):
        are_bootstrap(sample, 50, seed=18)
    # four of five rows on the median: every replicate re-solves to the
    # origin, so the median-target variance is zero without a constant sample
    sample = validate_sample([[1.0, 1.0]] * 4 + [[2.0, 3.0]])
    with pytest.raises(ZeroVariance):
        are_bootstrap(sample, 50, seed=18)


def test_are_bootstrap_gaussian_near_one():
    rng = np.random.default_rng(19)
    sample = validate_sample(rng.standard_normal((80, 60)))
    report = are_bootstrap(sample, 300, seed=20)
    assert 0.7 < report.are_estimate < 1.3


def test_heavy_tail_power_ordering():
    # sparse signal under t3 noise: the median-based max test dominates both
    # the mean-based max test and the pairwise mean baseline
    p, n = 100, 50
    theta = theta_vector(ThetaPattern("log_sparse", kappa=2.5, c0=1.0), p, n)
    dist = DistributionSpec("student_t", theta, ar1_shape(p, 0.0), df=3.0, t_mode="scale")
    theta0 = np.zeros(p)
    reps = 150
    hits = {"median": 0, "mean": 0, "cq": 0}
    for r in range(reps):
        sample = draw(dist, n, child_seed(606, r))
        hits["median"] += int(global_test_median(sample, theta0, 0.05, 200, child_seed(607, r)).reject)
        hits["mean"] += int(global_test_mean(sample, theta0, 0.05, 200, child_seed(607, r)).reject)
        hits["cq"] += int(global_test_cq(sample, theta0, 0.05).reject)
    assert hits["median"] / reps >= hits["mean"] / reps + 0.05
    assert hits["median"] / reps >= hits["cq"] / reps + 0.05


def test_are_bootstrap_heavy_tails_above_one():
    dist = DistributionSpec("student_t", np.zeros(60), ar1_shape(60, 0.0), df=5.0)
    for k in range(3):
        sample = draw(dist, 80, child_seed(611, k))
        assert are_bootstrap(sample, 300, child_seed(612, k)).are_estimate > 1.0


def test_are_analytic_gaussian_p2_is_pi():
    assert_allclose(are_analytic("gaussian", 2), np.pi, rtol=1e-12)


def test_are_analytic_limits():
    assert abs(are_analytic("gaussian", 10**6) - 1.0) < 1e-4
    assert abs(are_analytic("student_t", 10**6, df=5.0) - 128.0 / (27.0 * np.pi)) < 1e-3


@pytest.mark.parametrize("p", [10, 1000, 100000])
def test_are_analytic_gaussian_matches_exact_rational(p):
    exact = are_gaussian_even_p(p)
    assert abs(are_analytic("gaussian", p) - exact) <= 1e-14 * exact


def test_are_analytic_gaussian_decreases_to_its_limit():
    # the closed form p * Gamma((p-1)/2)^2 / (2 * Gamma(p/2)^2) falls toward 1
    # from above as p grows
    grid = [3, 4, 10, 100, 10**4, 10**6]
    values = [are_analytic("gaussian", p) for p in grid]
    assert (np.diff(values) < 0).all()
    assert all(v >= 1.0 - 1e-9 for v in values)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda s: sci(s, 0.9, 50, 1, method="trimmed"), InvalidScenario),
        (lambda s: are_bootstrap(s, 1, 1), TooFewDraws),
        (lambda s: are_analytic("gaussian", 1), InvalidScenario),
    ],
    ids=["calibrate_unknown_method", "are_bootstrap_B_1", "are_analytic_p_1"],
)
def test_bad_procedure_arguments_are_typed_errors(call, error):
    sample = validate_sample(np.random.default_rng(23).standard_normal((10, 3)))
    with pytest.raises(error):
        call(sample)


def test_global_test_dispatch_looks_each_test_up_by_name(monkeypatch):
    # the dispatch must call whatever the module holds under the test's name
    # (a tracer's wrapper, say), with B, seed and workers for bootstrap tests only
    sample = validate_sample(np.random.default_rng(29).standard_normal((10, 3)))
    seen = []
    for method in inference._TEST_METHODS:
        real = getattr(inference, f"global_test_{method}")

        def spy(*args, real=real, method=method):
            seen.append((method, len(args)))
            return real(*args)

        monkeypatch.setattr(inference, f"global_test_{method}", spy)
    for method in inference._TEST_METHODS:
        assert inference._global_test(method, sample, np.zeros(3), 0.1, 50, 4).method == method
    assert seen == [("median", 6), ("mean", 6), ("wpl", 3), ("cq", 3)]
    with pytest.raises(InvalidScenario, match="unknown test method 'trimmed'"):
        inference._global_test("trimmed", sample, np.zeros(3), 0.1, 50, 4)


def test_are_analytic_rejects_bad_df():
    # nan and inf would otherwise return nan silently
    for df in (2.0, np.nan, np.inf):
        with pytest.raises(InvalidDf, match="finite and exceed 2"):
            are_analytic("student_t", 100, df=df)


def test_result_json_shapes():
    rng = np.random.default_rng(21)
    sample = validate_sample(rng.standard_normal((12, 2)))
    band = sci(sample, 0.9, 50, seed=22)
    obj = band.to_json()
    assert set(obj) == {"level", "q_boot", "method", "intervals"}
    assert len(obj["intervals"]) == 2
    verdict = global_test_wpl(sample, np.zeros(2), 0.05).to_json()
    assert set(verdict) == {"method", "statistic", "critical_value", "p_value", "reject"}
    screen = fdr_screen(sample, np.zeros(2), 0.1).to_json()
    assert set(screen) == {"alpha", "k_hat", "threshold_p", "rejected", "p_values"}
