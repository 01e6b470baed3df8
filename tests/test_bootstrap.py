import dataclasses
import json
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomedian import (
    ScenarioSpec,
    bootstrap_mean,
    bootstrap_spatial_median,
    conditional_variance,
    global_test_median,
    quantile,
    run_coverage,
    sci,
    spatial_median,
    validate_sample,
)
from geomedian import bootstrap, estimator
from geomedian.bootstrap import _REPLICATE_CONFIG, BootstrapDraws
from geomedian.data import ar1_shape
from geomedian.errors import DidNotConverge, InvalidLevel, InvalidScenario, TooFewDraws
from geomedian.estimator import SolverConfig, _PointCoords, _solve_batch, _SpanCoords
from geomedian.simdata import DistributionSpec, draw
from geomedian.streams import NS_BOOT_MEAN, NS_BOOT_MEDIAN, rademacher

from _oracles import all_sign_patterns, is_distance_sum_minimizer, ks_distance


def _draws(stats, n_obs=4):
    return BootstrapDraws(stats=np.asarray(stats, dtype=np.float64), n_obs=n_obs)


def test_identical_observations_give_zero_stats():
    sample = validate_sample([[2.0, -1.0]] * 6)
    fit = spatial_median(sample)
    draws = bootstrap_spatial_median(sample, fit, 50, seed=1)
    assert_allclose(draws.stats, 0.0)
    assert not np.signbit(draws.stats).any()


def test_mirror_pair_two_point_law_by_enumeration():
    # residuals r and -r: sign patterns (+,+)/(-,-) leave a symmetric pair
    # with midpoint 0; (+,-)/(-,+) stack both points at +-r, so the
    # re-solved center is +-r itself
    r = np.array([0.7, -0.3])
    residuals = np.stack([r, -r])
    signs = all_sign_patterns(2)
    beta, _, _ = _solve_batch(_PointCoords(residuals), signs, SolverConfig())
    stats = np.sqrt(2.0) * np.abs(beta).max(axis=1)
    assert_allclose(np.sort(stats), [0.0, 0.0, np.sqrt(2) * 0.7, np.sqrt(2) * 0.7], atol=1e-12)

    sample = validate_sample(np.stack([r, -r]))
    fit = spatial_median(sample)
    assert_allclose(fit.theta_hat, 0.0, atol=1e-15)
    draws = bootstrap_spatial_median(sample, fit, 4000, seed=9)
    freq = (draws.stats > 0.5).mean()
    assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / 4000)


def test_spatial_median_bootstrap_matches_enumeration_small_case():
    rng = np.random.default_rng(21)
    sample = validate_sample(rng.standard_normal((6, 2)))
    fit = spatial_median(sample)
    residuals = sample.values - fit.theta_hat
    signs = all_sign_patterns(6)
    beta, _, _ = _solve_batch(_PointCoords(residuals), signs, SolverConfig())
    exact = np.sqrt(6.0) * np.abs(beta).max(axis=1)
    draws = bootstrap_spatial_median(sample, fit, 4000, seed=33)
    assert ks_distance(draws.stats, exact) < 0.05


def test_mean_bootstrap_constant_sample_is_zero():
    sample = validate_sample([[3.0, 3.0]] * 5)
    draws = bootstrap_mean(sample, 64, seed=2)
    assert_allclose(draws.stats, 0.0)
    assert not np.signbit(draws.stats).any()


def test_mean_bootstrap_mirror_pair_closed_form():
    r = np.array([0.4, -1.2])
    center = np.array([5.0, 7.0])
    sample = validate_sample(np.stack([center + r, center - r]))
    draws = bootstrap_mean(sample, 4000, seed=3)
    hi = np.sqrt(2.0) * np.abs(r).max()
    values = np.unique(np.round(draws.stats, 12))
    assert set(values) <= {0.0, round(hi, 12)}
    freq = (draws.stats > hi / 2).mean()
    assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / 4000)


def test_mean_bootstrap_matches_enumeration():
    rng = np.random.default_rng(4)
    sample = validate_sample(rng.standard_normal((10, 3)))
    centered = sample.values - sample.values.mean(axis=0)
    signs = all_sign_patterns(10)
    exact = np.sqrt(10.0) * np.abs(signs @ centered / 10.0).max(axis=1)
    draws = bootstrap_mean(sample, 10000, seed=5)
    assert ks_distance(draws.stats, exact) < 0.03


def test_quantile_order_statistic_convention():
    assert quantile(_draws([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0
    assert quantile(_draws([5.0]), 0.3) == 5.0
    assert quantile(_draws(np.arange(1.0, 101.0)), 0.95) == 95.0


def test_quantile_rejects_bad_level():
    with pytest.raises(InvalidLevel):
        quantile(_draws([1.0, 2.0]), 0.0)
    with pytest.raises(InvalidLevel):
        quantile(_draws([1.0, 2.0]), 1.0)


def test_conditional_variance_examples():
    assert conditional_variance(_draws([3.0, 3.0, 3.0])) == 0.0
    root_n = np.sqrt(4.0)
    assert_allclose(conditional_variance(_draws([0.0, 2.0 * root_n], n_obs=4)), 2.0)
    with pytest.raises(TooFewDraws):
        conditional_variance(_draws([1.0]))


def test_determinism_across_runs_and_workers():
    rng = np.random.default_rng(6)
    for p in (3, 40):  # p > n solves in span coordinates
        sample = validate_sample(rng.standard_normal((12, p)))
        fit = spatial_median(sample)
        a = bootstrap_spatial_median(sample, fit, 600, seed=7, workers=1)
        b = bootstrap_spatial_median(sample, fit, 600, seed=7, workers=3)
        assert np.array_equal(a.stats, b.stats)
        c = bootstrap_mean(sample, 600, seed=7, workers=1)
        d = bootstrap_mean(sample, 600, seed=7, workers=4)
        assert np.array_equal(c.stats, d.stats)


def test_translation_leaves_stats_bitwise_unchanged():
    # exact-dyadic data: the fitted centers and hence the residual matrices
    # agree bit-for-bit before and after the shift
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    shift = np.array([0.25, -0.5])
    s0 = validate_sample(base)
    s1 = validate_sample(base + shift)
    f0 = spatial_median(s0)
    f1 = spatial_median(s1)
    assert np.array_equal(s0.values - f0.theta_hat, s1.values - f1.theta_hat)
    a = bootstrap_spatial_median(s0, f0, 200, seed=8)
    b = bootstrap_spatial_median(s1, f1, 200, seed=8)
    assert np.array_equal(a.stats, b.stats)


def test_sign_flip_closure():
    for p in (2, 30):  # p > n solves in span coordinates
        _check_sign_flip_closure(p)


def _check_sign_flip_closure(p):
    rng = np.random.default_rng(9)
    half = rng.standard_normal((5, p))
    data = np.vstack([half, -half])
    sample = validate_sample(data)
    fit = spatial_median(sample)
    assert np.abs(fit.theta_hat).max() < 1e-14
    flipped = validate_sample(-data)
    fit_flipped = spatial_median(flipped)
    a = bootstrap_spatial_median(sample, fit, 300, seed=10)
    b = bootstrap_spatial_median(flipped, fit_flipped, 300, seed=10)
    assert np.array_equal(a.stats, b.stats)

    # matched multipliers: flipping residuals and multipliers together leaves
    # every multiplied point, hence every statistic, bitwise unchanged
    residuals = sample.values - fit.theta_hat
    signs = rademacher(11, NS_BOOT_MEAN, 0, 8, 10)
    cfg = SolverConfig()
    n = residuals.shape[0]
    beta_a, _, _ = _solve_batch(_PointCoords(residuals.copy()), signs, cfg)
    beta_b, _, _ = _solve_batch(_PointCoords(-residuals), -signs, cfg)
    assert np.array_equal(beta_a, beta_b)
    if p > n:
        span_a, _, _ = _solve_batch(_SpanCoords(residuals.copy()), signs, cfg)
        span_b, _, _ = _solve_batch(_SpanCoords(-residuals), -signs, cfg)
        assert np.array_equal(span_a, span_b)


@pytest.mark.parametrize(
    "model, df, rho",
    [("gaussian", None, 0.0), ("student_t", 3.0, 0.0), ("gaussian", None, 0.8)],
    ids=["gaussian", "t3", "ar1"],
)
def test_span_solve_matches_point_solve(model, df, rho):
    n, p, B = 30, 200, 64
    spec = DistributionSpec(model, np.zeros(p), ar1_shape(p, rho), df=df)
    sample = draw(spec, n, seed=31)
    fit = spatial_median(sample)
    residuals = sample.values - fit.theta_hat
    signs = rademacher(5, NS_BOOT_MEDIAN, 0, B, n)
    cfg = SolverConfig()
    span_beta, span_iters, _ = _solve_batch(_SpanCoords(residuals.copy()), signs, cfg)
    point_beta, point_iters, _ = _solve_batch(_PointCoords(residuals.copy()), signs, cfg)
    assert np.array_equal(span_iters, point_iters)
    span_stats = np.sqrt(n) * np.abs(span_beta).max(axis=1)
    assert_allclose(span_stats, np.sqrt(n) * np.abs(point_beta).max(axis=1), rtol=1e-12, atol=0.0)
    # the bootstrap dispatches this shape to the span solve, under its
    # replicate config
    replicate_beta, _, _ = _solve_batch(_SpanCoords(residuals.copy()), signs, _REPLICATE_CONFIG)
    draws = bootstrap_spatial_median(sample, fit, B, seed=5)
    assert np.array_equal(draws.stats, np.sqrt(n) * np.abs(replicate_beta).max(axis=1))


def _duplicated_rows(rng, p):
    """Two zero rows, one row eight times over and two more rows (n = 12)."""
    return np.vstack([np.zeros((2, p)), np.tile(rng.standard_normal(p), (8, 1)), rng.standard_normal((2, p))])


@pytest.mark.parametrize(
    "values, center, rtol",
    [
        (draw(DistributionSpec("student_t", np.zeros(100), ar1_shape(100, 0.0), df=3.0), 100, seed=41).values,
         None, 1e-6),
        (draw(DistributionSpec("gaussian", np.zeros(200), ar1_shape(200, 0.8)), 30, seed=42).values, None, 1e-6),
        # centred at the shift, so the replicates see the duplicated rows
        # themselves: anchoring and vertex snaps fire, and a few
        # replicates crawl near a vertex, where the certificate leaves up to
        # 4.6e-6 relative in the statistic
        (_duplicated_rows(np.random.default_rng(0), 25) + 0.5, 0.5, 1e-5),
        (np.random.default_rng(43).standard_normal((30, 5)) * 1e-8, None, 1e-6),
    ],
    ids=["t3_100x100", "ar1_30x200_span", "duplicated_rows", "x1e-8"],
)
def test_replicates_meet_the_residual_certificate(values, center, rtol):
    # replicates stop at a coarser iterate change than fits, but each still
    # satisfies the estimating equation to the fits' per-observation bound
    sample = validate_sample(values)
    fit = spatial_median(sample)
    if center is not None:
        fit = dataclasses.replace(fit, theta_hat=np.full(sample.p, center))
    B, seed = 64, 6
    draws = bootstrap_spatial_median(sample, fit, B, seed)
    signs = rademacher(seed, NS_BOOT_MEDIAN, 0, B, sample.n)
    residuals = sample.values - fit.theta_hat
    # the replicate centres, solved as the bootstrap solves them: one batch,
    # in the representation its shape selects
    coords = (_SpanCoords if sample.p > sample.n else _PointCoords)(residuals.copy())
    centres, _, _ = _solve_batch(coords, signs, _REPLICATE_CONFIG)
    assert np.array_equal(draws.stats, np.sqrt(sample.n) * np.abs(centres).max(axis=1))
    for b in range(B):
        assert is_distance_sum_minimizer(signs[b, :, None] * residuals, centres[b], tol=1e-7)
    exact, _, _ = _solve_batch(coords, signs, SolverConfig())
    assert_allclose(draws.stats, np.sqrt(sample.n) * np.abs(exact).max(axis=1), rtol=rtol, atol=0.0)


def test_span_solve_rescues_on_duplicated_rows(monkeypatch):
    # two zero residuals (anchoring at the origin) and one row eight times
    # over, whose signed copies are often the optimum (vertex snap);
    # n = 12 < p = 25
    rng = np.random.default_rng(0)
    p = 25
    residuals = _duplicated_rows(rng, p)
    n = residuals.shape[0]
    signs = rng.choice([-1.0, 1.0], size=(64, n))

    calls = {"vertex": 0}
    for name in calls:
        original = getattr(_SpanCoords, name)

        def spy(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(_SpanCoords, name, spy)

    cfg = SolverConfig()
    span_beta, span_iters, _ = _solve_batch(_SpanCoords(residuals.copy()), signs, cfg)
    point_beta, point_iters, _ = _solve_batch(_PointCoords(residuals.copy()), signs, cfg)
    assert calls["vertex"] > 0  # vertex snaps
    assert span_iters.max() < 256  # no Newton polish involved
    assert np.array_equal(span_iters, point_iters)
    assert_allclose(np.abs(span_beta).max(axis=1), np.abs(point_beta).max(axis=1), rtol=1e-12, atol=0.0)

    multiplied = signs[:, :, None] * residuals
    at_origin = at_vertex = 0
    for b in range(64):
        assert is_distance_sum_minimizer(multiplied[b], span_beta[b])
        at_origin += not span_beta[b].any()
        at_vertex += any(np.array_equal(span_beta[b], multiplied[b, k]) for k in range(2, 10))
    assert at_origin > 0 and at_vertex > 0


@pytest.mark.parametrize("coords", [_PointCoords, _SpanCoords], ids=["point", "span"])
def test_solve_batch_takes_every_sweep_branch(monkeypatch, coords):
    # the origin start sits on the zero row (anchored step);
    # under the first sign row the five copies of v outweigh the rest, so that
    # row snaps to v at t = 12 while all four rows run; the rows then finish
    # at different sweeps and the batch compacts
    v = [1.0, 0.0, 0.0]
    points = np.vstack([np.zeros(3), np.tile(v, (5, 1)), [[0.0, 1.0, 0.5], [-1.0, -1.0, 0.2], [0.3, -0.4, -1.0]]])
    signs = np.array([
        [1, 1, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1, 1, 1, 1, -1],
        [1, 1, 1, -1, -1, -1, -1, 1, 1],
        [-1, -1, -1, 1, 1, 1, 1, -1, 1],
    ], dtype=np.float64)
    m = signs.shape[0]

    sweeps, snaps = [], []
    combine, vertex = coords.combine, coords.vertex

    def combine_spy(self, weights, out=None):
        # one call per sweep, on a stack of one-row slabs; a zero weight
        # marks an anchored point, so that row takes a Vardi-Zhang step with
        # lambda > 0
        rows = weights.reshape(-1, weights.shape[-1])
        sweeps.append((rows.shape[0], int((rows == 0).any(axis=1).sum())))
        return combine(self, weights, out=out)

    def vertex_spy(self, k, sign):
        snaps.append(len(sweeps))
        return vertex(self, k, sign)

    monkeypatch.setattr(coords, "combine", combine_spy)
    monkeypatch.setattr(coords, "vertex", vertex_spy)

    solver = coords(points.copy())
    beta, iters, _ = _solve_batch(solver, signs, SolverConfig())

    rows = [size for size, _ in sweeps]
    assert rows[0] == m and min(rows) < m  # all-active sweeps, then compacted ones
    assert len(set(iters.tolist())) == m  # every row stops at its own sweep
    assert sweeps[0][1] == m  # every row starts anchored at the zero row ...
    assert not np.isclose(beta, 0.0).all(axis=1).any()  # ... and steps off it
    assert snaps and all(rows[t] == m for t in snaps)  # snapped with every row running
    assert np.array_equal(beta[0], v)
    assert iters.max() < 256  # no Newton polish involved
    multiplied = signs[:, :, None] * points
    for b in range(m):
        assert is_distance_sum_minimizer(multiplied[b], beta[b])


def test_draws_are_immutable():
    sample = validate_sample(np.random.default_rng(1).standard_normal((6, 2)))
    draws = bootstrap_mean(sample, 32, seed=1)
    with pytest.raises(ValueError):
        draws.stats[0] = -1.0


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize(
    "call",
    [
        lambda s, w: sci(s, 0.9, 50, 1, workers=w),
        lambda s, w: bootstrap_mean(s, 50, 1, workers=w),
        lambda s, w: run_coverage(ScenarioSpec(experiment="coverage", n=8, p=3, replications=2, B=20), workers=w),
    ],
    ids=["sci", "bootstrap_mean", "run_coverage"],
)
def test_worker_count_below_one_is_rejected(call, workers):
    # the one thread pool behind the intervals, tests, bootstraps and run_*
    # refuses the count before running anything serially
    sample = validate_sample(np.random.default_rng(3).standard_normal((10, 3)))
    with pytest.raises(InvalidScenario, match="workers must be >= 1"):
        call(sample, workers)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: bootstrap_spatial_median(s, spatial_median(s), 0, 1),
        lambda s: bootstrap_mean(s, 0, 1),
    ],
    ids=["bootstrap_spatial_median", "bootstrap_mean"],
)
def test_replicate_count_below_one_is_rejected(call):
    sample = validate_sample(np.random.default_rng(3).standard_normal((10, 3)))
    with pytest.raises(InvalidScenario, match="B must be >= 1"):
        call(sample)


def _prefix_inputs():
    """Span (p > n) and R^p inputs, each with the centre its replicates use.

    A centre of None means the sample's own fit.
    """
    rng = np.random.default_rng(71)
    ar1 = draw(DistributionSpec("gaussian", np.zeros(300), ar1_shape(300, 0.8)), 40, seed=72).values
    return {
        "span_ar1_40x300": (ar1, None),
        "point_t3_100x100": (rng.standard_t(3.0, (100, 100)), None),
        "point_gauss_30x5": (rng.standard_normal((30, 5)), None),
        # centred at the shift: vertex snaps, anchoring and replicates that crawl
        "span_duplicated_rows": (_duplicated_rows(np.random.default_rng(0), 25) + 0.5, 0.5),
        "point_duplicated_rows": (_duplicated_rows(np.random.default_rng(0), 8) + 0.5, 0.5),
    }


def _fresh(values, center):
    sample = validate_sample(values)
    fit = spatial_median(sample)
    if center is not None:
        fit = dataclasses.replace(fit, theta_hat=np.full(sample.p, center))
    return sample, fit


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(_prefix_inputs()))
def test_replicates_do_not_depend_on_B(name, workers):
    # replicate b's bits depend on (sample, fit, seed, namespace, b) only, so
    # a shorter bootstrap is a prefix of a longer one, whatever batches solve it
    values, center = _prefix_inputs()[name]
    stats = {}
    for B in (50, 200, 300, 400):
        sample, fit = _fresh(values, center)
        stats[B] = bootstrap_spatial_median(sample, fit, B, seed=13, workers=workers).stats
    for B in (50, 200, 300):
        assert np.array_equal(stats[B], stats[400][:B])
    means = {B: bootstrap_mean(validate_sample(values), B, seed=13, workers=workers).stats for B in (50, 200, 400)}
    assert np.array_equal(means[50], means[400][:50]) and np.array_equal(means[200], means[400][:200])


@pytest.mark.parametrize("coords", [_PointCoords, _SpanCoords], ids=["point", "span"])
def test_replicate_solved_alone_equals_its_batch_row(coords):
    # the batch starts 5 rows into its first 16-row slab and ends 6 rows
    # short of its last; while every row runs, the sweep also steps the
    # zero-sign padding rows (on the duplicated-rows inputs they sit on the
    # exact-zero residual rows, on constant rows every point does) but never
    # keeps their steps, so they stay +0.0 and no row sees them
    prefix = _prefix_inputs()
    inputs = {name: prefix[name] for name in ("span_duplicated_rows", "point_duplicated_rows")}
    inputs["constant_rows"] = (np.tile([1.5, -2.0, 0.25], (7, 1)), None)
    for name, (values, center) in inputs.items():
        sample, fit = _fresh(values, center)
        solver = coords(sample.values - fit.theta_hat)
        signs = rademacher(5, NS_BOOT_MEDIAN, 5, 85, sample.n)
        batch, iters, _ = _solve_batch(solver, signs, _REPLICATE_CONFIG, first=5)
        beta = estimator._WORKSPACE.buffers["beta"][: 96 * solver.width].reshape(96, -1)
        padding = np.vstack([beta[:5], beta[90:]])
        assert padding.tobytes() == bytes(padding.nbytes), name
        if name != "constant_rows":
            assert iters.max() > 2 * iters.min(), name  # rows stop at different sweeps
        for b in range(85):
            alone, _, _ = _solve_batch(solver, signs[b : b + 1], _REPLICATE_CONFIG, first=5 + b)
            assert np.array_equal(alone[0], batch[b]), (name, b)
        tail, _, _ = _solve_batch(solver, signs[32:], _REPLICATE_CONFIG, first=37)
        assert np.array_equal(tail, batch[32:]), name


@pytest.mark.parametrize("name", ["span_ar1_40x300", "point_t3_100x100"])
def test_sci_after_a_test_on_one_sample_matches_a_fresh_sample(name):
    values, _ = _prefix_inputs()[name]
    shared = validate_sample(values)
    test = global_test_median(shared, np.zeros(shared.p), 0.05, 200, seed=17)
    band = sci(shared, 0.9, 400, seed=17)
    fresh_band = sci(validate_sample(values), 0.9, 400, seed=17)
    fresh_test = global_test_median(validate_sample(values), np.zeros(shared.p), 0.05, 200, seed=17)
    assert json.dumps(band.to_json()) == json.dumps(fresh_band.to_json())
    assert json.dumps(test.to_json()) == json.dumps(fresh_test.to_json())
    # the test's draws are a prefix of the stored ones, so a second test hits
    stored = shared._draws[1]
    assert stored.size == 400 and not stored.flags.writeable
    again = bootstrap_spatial_median(shared, shared._fit, 200, seed=17)
    assert np.shares_memory(again.stats, stored) and not again.stats.flags.writeable


def test_memo_keeps_one_bootstrap_per_sample():
    sample = validate_sample(np.random.default_rng(73).standard_normal((20, 4)))
    fit = spatial_median(sample)
    for seed in range(50):
        last = bootstrap_spatial_median(sample, fit, 30, seed)
    assert sample._draws[0] == (NS_BOOT_MEDIAN, 49) and sample._draws[1] is last.stats
    means = bootstrap_mean(sample, 30, 49)
    assert sample._draws[0] == (NS_BOOT_MEAN, 49) and sample._draws[1] is means.stats
    assert not np.array_equal(means.stats, last.stats)


def test_extension_failure_names_its_replicate_and_stores_nothing(monkeypatch):
    sample = validate_sample(np.random.default_rng(74).standard_normal((20, 4)))
    fit = spatial_median(sample)
    first = bootstrap_spatial_median(sample, fit, 200, seed=3)
    monkeypatch.setattr(bootstrap, "_REPLICATE_CONFIG", dataclasses.replace(_REPLICATE_CONFIG, max_iter=1))
    assert bootstrap_spatial_median(sample, fit, 150, seed=3).stats.base is first.stats  # a hit solves nothing
    with pytest.raises(DidNotConverge) as err:
        bootstrap_spatial_median(sample, fit, 400, seed=3)
    assert err.value.replicate == 200
    assert sample._draws[1] is first.stats


def test_a_fit_other_than_the_samples_own_bypasses_the_memo():
    values = np.random.default_rng(75).standard_normal((20, 4))
    sample = validate_sample(values)
    own = spatial_median(sample)
    stored = bootstrap_spatial_median(sample, own, 100, seed=4).stats
    shifted = dataclasses.replace(own, theta_hat=own.theta_hat + 0.25)
    other = bootstrap_spatial_median(sample, shifted, 100, seed=4).stats
    assert sample._draws[1] is stored and not np.array_equal(other, stored)
    fresh_sample = validate_sample(values)
    fresh = bootstrap_spatial_median(fresh_sample, shifted, 100, seed=4).stats
    assert np.array_equal(other, fresh) and fresh_sample._draws is None
    # an equal fit that is another object bypasses it too
    assert np.array_equal(bootstrap_spatial_median(sample, dataclasses.replace(own), 100, seed=4).stats, stored)
    assert sample._draws[1] is stored


def _counting_builds(monkeypatch):
    """Count the coordinate builds the bootstrap makes, in either representation."""
    builds = []
    for name in ("_SpanCoords", "_PointCoords"):
        base = getattr(bootstrap, name)

        class Counting(base):
            def __init__(self, points, _name=name):
                builds.append(_name)
                super().__init__(points)

        monkeypatch.setattr(bootstrap, name, Counting)
    return builds


@pytest.mark.parametrize(
    "name, coords", [("span_ar1_40x300", "_SpanCoords"), ("point_t3_100x100", "_PointCoords")]
)
def test_one_coordinates_build_per_sample(monkeypatch, name, coords):
    # a test and intervals at one seed, then intervals at another: the draws
    # memo misses at the second seed, the coordinates memo does not
    values, _ = _prefix_inputs()[name]
    builds = _counting_builds(monkeypatch)
    shared = validate_sample(values)
    theta0 = np.zeros(shared.p)
    outputs = [
        global_test_median(shared, theta0, 0.05, 200, seed=17).to_json(),
        sci(shared, 0.9, 400, seed=17).to_json(),
        sci(shared, 0.9, 400, seed=18).to_json(),
    ]
    assert builds == [coords]
    assert shared._coords is not None and shared._draws[0] == (NS_BOOT_MEDIAN, 18)
    fresh = [
        global_test_median(validate_sample(values), theta0, 0.05, 200, seed=17).to_json(),
        sci(validate_sample(values), 0.9, 400, seed=17).to_json(),
        sci(validate_sample(values), 0.9, 400, seed=18).to_json(),
    ]
    assert json.dumps(outputs) == json.dumps(fresh)


def test_a_fit_other_than_the_samples_own_neither_reads_nor_writes_the_coordinates():
    values = np.random.default_rng(76).standard_normal((12, 30))
    sample = validate_sample(values)
    own = spatial_median(sample)
    shifted = dataclasses.replace(own, theta_hat=own.theta_hat + 0.25)
    before = bootstrap_spatial_median(sample, shifted, 100, seed=4).stats
    assert sample._coords is None  # not written
    bootstrap_spatial_median(sample, own, 100, seed=4)
    stored = sample._coords
    assert stored is not None
    after = bootstrap_spatial_median(sample, shifted, 100, seed=5).stats
    fresh = validate_sample(values)
    assert np.array_equal(after, bootstrap_spatial_median(fresh, shifted, 100, seed=5).stats)  # not read
    assert np.array_equal(before, bootstrap_spatial_median(fresh, shifted, 100, seed=4).stats)
    assert sample._coords is stored and fresh._coords is None
    # an equal fit that is another object bypasses it too
    bootstrap_spatial_median(sample, dataclasses.replace(own), 100, seed=6)
    assert sample._coords is stored


@pytest.mark.parametrize("name", ["span_ar1_40x300", "point_gauss_30x5"])
def test_memoised_coordinates_are_read_only(name):
    values, _ = _prefix_inputs()[name]
    sample = validate_sample(values)
    bootstrap_spatial_median(sample, spatial_median(sample), 50, seed=1)
    coords = sample._coords
    arrays = [coords.points, coords.sq_norms]
    arrays += [coords.gram] if isinstance(coords, _SpanCoords) else [coords.points_t]
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


def test_concurrent_first_bootstraps_store_one_coordinates_object(monkeypatch):
    values, _ = _prefix_inputs()["span_ar1_40x300"]
    expected = bootstrap_spatial_median(*_fresh(values, None), 64, seed=8).stats
    sample, fit = _fresh(values, None)
    threads = 8
    # every thread builds its own coordinates before any of them stores
    barrier = threading.Barrier(threads)

    class Racing(_SpanCoords):
        def __init__(self, points):
            super().__init__(points)
            barrier.wait(timeout=60)

    used = []

    def solve(coords, *args, **kwargs):
        used.append(coords)
        return _solve_batch(coords, *args, **kwargs)

    monkeypatch.setattr(bootstrap, "_SpanCoords", Racing)
    monkeypatch.setattr(bootstrap, "_solve_batch", solve)
    stats = [None] * threads

    def run(i):
        stats[i] = bootstrap_spatial_median(sample, fit, 64, seed=8).stats

    bootstrap._parallel_map(run, range(threads), threads)
    assert isinstance(sample._coords, Racing)
    assert len(used) == threads and all(coords is sample._coords for coords in used)
    assert all(np.array_equal(s, expected) for s in stats)


def _polished_span_input():
    """``point_duplicated_rows`` with twelve more columns at the centre: p = 20 > n = 12.

    The extra residual coordinates are 0, so the replicates crawl as in R^8
    and some reach the Newton polish, now in span coordinates.
    """
    values, center = _prefix_inputs()["point_duplicated_rows"]
    return np.hstack([values, np.full((values.shape[0], 12), center)]), center


@pytest.mark.parametrize(
    "inputs, polishes",
    [
        (_prefix_inputs()["span_duplicated_rows"], False),
        (_prefix_inputs()["point_duplicated_rows"], True),
        (_polished_span_input(), True),
    ],
    ids=["span_duplicated_rows", "point_duplicated_rows", "span_polished"],
)
def test_statistics_are_max_norms_of_the_solved_centres(monkeypatch, inputs, polishes):
    # the bootstrap takes each replicate's max-norm slab by slab, and a
    # polished row's from its polished centre; a full solve to centres gives
    # the same bits
    values, center = inputs
    sample, fit = _fresh(values, center)
    events = {"polish": 0, "snap": 0}
    newton_polish, vertex_solution = estimator._newton_polish, estimator._vertex_solution

    def polish_spy(*args):
        out = newton_polish(*args)
        events["polish"] += out is not None
        return out

    def vertex_spy(*args):
        out = vertex_solution(*args)
        events["snap"] += out is not None
        return out

    monkeypatch.setattr(estimator, "_newton_polish", polish_spy)
    monkeypatch.setattr(estimator, "_vertex_solution", vertex_spy)
    B, seed = 64, 3
    draws = bootstrap_spatial_median(sample, fit, B, seed)
    assert events["snap"] > 0 and (events["polish"] > 0) == polishes
    signs = rademacher(seed, NS_BOOT_MEDIAN, 0, B, sample.n)
    coords = (_SpanCoords if sample.p > sample.n else _PointCoords)(sample.values - fit.theta_hat)
    centres, _, _ = _solve_batch(coords, signs, _REPLICATE_CONFIG)
    assert np.array_equal(draws.stats, np.sqrt(sample.n) * np.abs(centres).max(axis=1))


def _workspace_buffers():
    # the arrays the thread's solver workspace holds (none without one)
    workspace = getattr(estimator, "_WORKSPACE", None)
    return list(workspace.buffers.values()) if workspace is not None else []


@pytest.mark.parametrize("shape", [(40, 8), (20, 60)], ids=["point", "span"])
def test_results_share_no_memory_with_the_solver_workspace(shape):
    # the thread's workspace buffers are reused by every later solve: a fit,
    # stored draws and memoised coordinates hold arrays of their own, and
    # keep their bytes through later solves of other shapes
    sample = validate_sample(np.random.default_rng(71).standard_t(3.0, shape))
    fit = spatial_median(sample)
    draws = bootstrap_spatial_median(sample, fit, 40, seed=72)
    coords = sample._coords
    kept = [fit.theta_hat, fit.b_diag_hat, draws.stats, sample._draws[1], coords.points, coords.sq_norms]
    kept += [coords.gram] if isinstance(coords, _SpanCoords) else [coords.points_t]
    assert not any(np.shares_memory(array, buf) for array in kept for buf in _workspace_buffers())

    before = [array.copy() for array in kept]
    for other in [(30, 12), (12, 90), (1, 5)]:
        x = np.random.default_rng(73).standard_normal(other)
        spatial_median(validate_sample(x))
        signs = rademacher(74, NS_BOOT_MEDIAN, 0, 70, other[0])
        _solve_batch(_PointCoords(x.copy()), signs, _REPLICATE_CONFIG)
        _solve_batch(_SpanCoords(x.copy()), signs, _REPLICATE_CONFIG, peaks=True)
    for array, copy in zip(kept, before):
        assert np.array_equal(array, copy)
    assert not any(np.shares_memory(array, buf) for array in kept for buf in _workspace_buffers())


def test_solves_on_one_thread_equal_solves_on_fresh_threads():
    # one thread runs solves of three shapes back to back, so each finds the
    # workspace holding another solve's stale values; each must give the
    # bits of the same solve on a thread whose workspace is new
    rng = np.random.default_rng(75)
    point_x, span_x = rng.standard_t(3.0, (100, 10)), rng.standard_t(3.0, (30, 200))

    def fit():
        fit = spatial_median(validate_sample(point_x[:40]))
        return fit.theta_hat, fit.iterations

    def point_bootstrap():
        sample = validate_sample(point_x)
        return (bootstrap_spatial_median(sample, spatial_median(sample), 200, seed=76).stats,)

    def span_bootstrap():
        sample = validate_sample(span_x)
        return (bootstrap_spatial_median(sample, spatial_median(sample), 64, seed=77).stats,)

    def centres():
        signs = rademacher(78, NS_BOOT_MEDIAN, 5, 37, 40)
        return _solve_batch(_PointCoords(point_x[:40] - point_x[:40].mean(axis=0)), signs, _REPLICATE_CONFIG, 5)

    # results are compared after every job has run, so one that aliased the
    # workspace would show the later solves' values
    jobs = [fit, centres, point_bootstrap, span_bootstrap, point_bootstrap, fit]
    here = [job() for job in jobs]
    for job, got in zip(jobs, here):
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(job()))
        thread.start()
        thread.join()
        assert len(fresh) == 1
        for mine, theirs in zip(got, fresh[0]):
            assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes(), job.__name__
