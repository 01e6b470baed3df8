import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomedian import (
    ScenarioSpec,
    bootstrap_mean,
    bootstrap_spatial_median,
    conditional_variance,
    quantile,
    run_coverage,
    sci,
    spatial_median,
    validate_sample,
)
from geomedian.bootstrap import _REPLICATE_CONFIG, BootstrapDraws
from geomedian.data import ar1_shape
from geomedian.errors import InvalidLevel, InvalidScenario, TooFewDraws
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
    beta, _, _ = _solve_batch(_PointCoords(residuals), signs, SolverConfig(), np.zeros((4, 2)))
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
    beta, _, _ = _solve_batch(_PointCoords(residuals), signs, SolverConfig(), np.zeros((64, 2)))
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
    beta_a, _, _ = _solve_batch(_PointCoords(residuals), signs, cfg, np.zeros((8, p)))
    beta_b, _, _ = _solve_batch(_PointCoords(-residuals), -signs, cfg, np.zeros((8, p)))
    assert np.array_equal(beta_a, beta_b)
    if p > n:
        span_a, _, _ = _solve_batch(_SpanCoords(residuals), signs, cfg, np.zeros((8, n)))
        span_b, _, _ = _solve_batch(_SpanCoords(-residuals), -signs, cfg, np.zeros((8, n)))
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
    span_beta, span_iters, _ = _solve_batch(_SpanCoords(residuals), signs, cfg, np.zeros((B, n)))
    point_beta, point_iters, _ = _solve_batch(_PointCoords(residuals), signs, cfg, np.zeros((B, p)))
    assert np.array_equal(span_iters, point_iters)
    span_stats = np.sqrt(n) * np.abs(span_beta).max(axis=1)
    assert_allclose(span_stats, np.sqrt(n) * np.abs(point_beta).max(axis=1), rtol=1e-12, atol=0.0)
    # the bootstrap dispatches this shape to the span solve, under its
    # replicate config
    replicate_beta, _, _ = _solve_batch(_SpanCoords(residuals), signs, _REPLICATE_CONFIG, np.zeros((B, n)))
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
        # themselves: repairs, anchoring and vertex snaps fire, and a few
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
    coords = (_SpanCoords if sample.p > sample.n else _PointCoords)(residuals)
    zeros = np.zeros((B, coords.width))
    centres, _, _ = _solve_batch(coords, signs, _REPLICATE_CONFIG, zeros)
    assert np.array_equal(draws.stats, np.sqrt(sample.n) * np.abs(centres).max(axis=1))
    for b in range(B):
        assert is_distance_sum_minimizer(signs[b, :, None] * residuals, centres[b], tol=1e-7)
    exact, _, _ = _solve_batch(coords, signs, SolverConfig(), zeros)
    assert_allclose(draws.stats, np.sqrt(sample.n) * np.abs(exact).max(axis=1), rtol=rtol, atol=0.0)


def test_span_solve_rescues_on_duplicated_rows(monkeypatch):
    # two zero residuals (distance repair and anchoring at the origin) and
    # one row eight times over, whose signed copies are often the optimum
    # (vertex snap); n = 12 < p = 25
    rng = np.random.default_rng(0)
    p = 25
    residuals = _duplicated_rows(rng, p)
    n = residuals.shape[0]
    signs = rng.choice([-1.0, 1.0], size=(64, n))

    calls = {"vertex": 0, "to_points": 0}
    for name in calls:
        original = getattr(_SpanCoords, name)

        def spy(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(_SpanCoords, name, spy)

    cfg = SolverConfig()
    span_beta, span_iters, _ = _solve_batch(_SpanCoords(residuals), signs, cfg, np.zeros((64, n)))
    point_beta, point_iters, _ = _solve_batch(_PointCoords(residuals), signs, cfg, np.zeros((64, p)))
    assert calls["vertex"] > 0  # vertex snaps
    assert calls["to_points"] > 1  # repairs, besides the final mapping
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
    # the origin start sits on the zero row (anchored step, distance repair);
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

    sweeps, snaps, repairs = [], [], []
    combine, vertex, to_points = coords.combine, coords.vertex, coords.to_points

    def combine_spy(self, weights):
        # one call per sweep; a zero weight marks an anchored point, so that
        # row takes a Vardi-Zhang step with lambda > 0
        sweeps.append((weights.shape[0], int((weights == 0).any(axis=1).sum())))
        return combine(self, weights)

    def vertex_spy(self, k, sign):
        snaps.append(len(sweeps))
        return vertex(self, k, sign)

    def to_points_spy(self, coef):
        repairs.append(coef.shape[0])
        return to_points(self, coef)

    monkeypatch.setattr(coords, "combine", combine_spy)
    monkeypatch.setattr(coords, "vertex", vertex_spy)
    monkeypatch.setattr(coords, "to_points", to_points_spy)

    solver = coords(points)
    beta, iters, _ = _solve_batch(solver, signs, SolverConfig(), np.zeros((m, solver.width)))

    rows = [size for size, _ in sweeps]
    assert rows[0] == m and min(rows) < m  # all-active sweeps, then compacted ones
    assert len(set(iters.tolist())) == m  # every row stops at its own sweep
    assert sweeps[0][1] == m  # every row starts anchored at the zero row ...
    assert not np.isclose(beta, 0.0).all(axis=1).any()  # ... and steps off it
    assert snaps and all(rows[t] == m for t in snaps)  # snapped with every row running
    assert np.array_equal(beta[0], v)
    assert len(repairs) > 1  # repaired distances, besides the final mapping
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
