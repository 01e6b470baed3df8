import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomedian import (
    bahadur_remainder,
    fdr_screen,
    global_test_median,
    gmom,
    sci,
    spatial_median,
    validate_sample,
)
from geomedian import bootstrap, estimator
from geomedian.errors import DegenerateRemainder, DegenerateSample, DidNotConverge, InvalidScenario
from geomedian.estimator import SolverConfig, _fit_center, _PointCoords
from geomedian.streams import NS_BLOCKS, substream

from _oracles import is_distance_sum_minimizer, nested_grid_minimizer, subgradient_minimizer


def test_univariate_median():
    fit = spatial_median(validate_sample([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    assert_allclose(fit.theta_hat, [3.0])
    # the middle observation is excluded from the inverse-residual mean
    assert_allclose(fit.zeta1_hat, np.mean([0.5, 1.0, 1.0, 0.5]))
    assert_allclose(fit.b_diag_hat, [1.0])


def test_symmetric_cross_centers_at_origin():
    fit = spatial_median(validate_sample([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    assert_allclose(fit.theta_hat, [0.0, 0.0], atol=1e-12)
    assert fit.grad_norm <= 4e-7


def test_five_point_instance_matches_independent_oracle():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 1.0]])
    fit = spatial_median(validate_sample(points))
    # frozen from the shrinking-grid oracle (tests/_oracles.py), 60 rounds
    assert_allclose(fit.theta_hat, [0.90462272, 0.52635886], atol=1e-6)
    assert np.abs(fit.theta_hat - nested_grid_minimizer(points)).max() < 1e-6
    assert_allclose(fit.objective, 6.5870559114073055 - np.linalg.norm(points, axis=1).sum(), atol=1e-8)


def test_single_observation_returns_it():
    fit = spatial_median(validate_sample([[2.5, -1.0]]))
    assert_allclose(fit.theta_hat, [2.5, -1.0])
    assert fit.grad_norm == 0.0
    assert np.isnan(fit.zeta1_hat)


def test_all_identical_observations_return_the_point():
    fit = spatial_median(validate_sample([[1.0, 2.0]] * 5))
    assert_allclose(fit.theta_hat, [1.0, 2.0])
    assert fit.grad_norm == 0.0


@pytest.mark.parametrize("a", [1e-200, 1e200])
def test_identical_observations_at_extreme_magnitudes(a):
    point = np.array([a, -3.0 * a])
    fit = spatial_median(validate_sample([point] * 5))
    assert_allclose(fit.theta_hat, point, rtol=1e-15)
    # no norm of an observation underflows to 0 or overflows
    assert_allclose(fit.objective, -5.0 * np.sqrt(10.0) * a, rtol=1e-15)


def test_estimating_equation_residual_bound():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(5, 60))
        p = int(rng.integers(2, 8))
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 4.0)
        fit = spatial_median(validate_sample(x))
        coincident = int((np.linalg.norm(x - fit.theta_hat, axis=1) <= 1e-9).sum())
        if coincident:
            # optimum at a data point: the sign sum need not vanish, the
            # subgradient condition bounds it by the multiplicity instead
            assert fit.grad_norm <= coincident + n * 1e-7
        else:
            assert fit.grad_norm <= n * 1e-7


def test_objective_monotone_across_iterations(monkeypatch):
    rng = np.random.default_rng(2)
    points = rng.standard_normal((40, 3))
    iterates = []
    project = _PointCoords.project

    def spy(self, coef, out=None):
        # one call per sweep, on the iterate the sweep starts from, in the
        # coordinates' own centred, normalised points
        iterates.append((self.points, coef[0].copy()))
        return project(self, coef, out=out)

    monkeypatch.setattr(_PointCoords, "project", spy)
    _fit_center(points, SolverConfig())
    history = [np.linalg.norm(own - beta, axis=1).sum() for own, beta in iterates]
    assert len(history) >= 2
    diffs = np.diff(np.asarray(history))
    assert (diffs <= 1e-9).all()


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((25, 4))
    shift = np.array([10.0, -3.0, 0.5, 100.0])
    base = spatial_median(validate_sample(x)).theta_hat
    moved = spatial_median(validate_sample(x + shift)).theta_hat
    assert np.abs(moved - (base + shift)).max() < 1e-9 * max(1.0, np.abs(shift).max())


def test_orthogonal_equivariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    base = spatial_median(validate_sample(x)).theta_hat
    rotated = spatial_median(validate_sample(x @ q.T)).theta_hat
    assert np.abs(rotated - q @ base).max() < 1e-8


def test_scale_equivariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 2))
    base = spatial_median(validate_sample(x)).theta_hat
    scaled = spatial_median(validate_sample(3.5 * x)).theta_hat
    assert np.abs(scaled - 3.5 * base).max() < 1e-9 * 3.5


# the golden corpus's scale probe; s is its mean residual norm at unit scale
_PROBE = np.random.default_rng(41).standard_normal((30, 5))


def _probe_fit():
    theta = spatial_median(validate_sample(_PROBE)).theta_hat
    return theta, float(np.linalg.norm(_PROBE - theta, axis=1).mean())


@pytest.mark.parametrize("a", [1e-200, 1e-15, 1e-8, 1e6, 1e150, 1e200])
def test_scale_equivariance_at_extreme_magnitudes(a):
    base, s = _probe_fit()
    scaled = a * _PROBE
    theta = spatial_median(validate_sample(scaled)).theta_hat
    assert np.abs(theta / a - base).max() <= 1e-9 * s
    assert is_distance_sum_minimizer(scaled, theta)


@pytest.mark.parametrize("c", [1e3, 1e6, 1e9, 1e12])
def test_translation_equivariance_at_large_offsets(c):
    _, s = _probe_fit()
    shifted = _PROBE + c
    # the data the shifted sample represents: exact by Sterbenz's lemma
    represented = shifted - c
    fit = spatial_median(validate_sample(shifted))
    theta = fit.theta_hat
    reference = spatial_median(validate_sample(represented)).theta_hat
    assert np.abs(theta - c - reference).max() <= 2 * np.spacing(c) + 1e-9 * s
    # theta is the represented minimizer rounded to spacing(c) per coordinate,
    # which moves the summed directions by up to n * zeta1 * sqrt(p) * spacing(c)
    tol = 1e-6 + fit.zeta1_hat * np.sqrt(_PROBE.shape[1]) * np.spacing(c)
    assert is_distance_sum_minimizer(shifted, theta, tol=tol)
    assert not is_distance_sum_minimizer(shifted, theta + 100.0, tol=tol)


def _one_gross_outlier(a):
    """A t3 30x200 sample whose row 0 is scaled by ``a``."""
    x = np.random.default_rng(45).standard_t(3.0, (30, 200))
    x[0] *= a
    return x


@pytest.mark.parametrize("a", [1e2, 1e4, 1e6, 1e100])
def test_one_gross_outlier_row_keeps_the_fit_a_minimizer(a):
    x = _one_gross_outlier(a)
    assert is_distance_sum_minimizer(x, spatial_median(validate_sample(x)).theta_hat)


def test_one_gross_outlier_row_runs_no_vertex_test(monkeypatch):
    # a unit from the mean row norm follows the outlier (about 330 times the
    # other rows here), which puts every other residual under the 0.02 vertex
    # radius; every replicate row then runs the per-row optimality test
    # every 4th sweep.  The median row norm ignores the outlier.
    sample = validate_sample(_one_gross_outlier(1e4))
    fit = spatial_median(sample)
    tested = []
    vertex_solution = estimator._vertex_solution

    def spy(mul, k, eps_anchor):
        tested.append(k)
        return vertex_solution(mul, k, eps_anchor)

    monkeypatch.setattr(estimator, "_vertex_solution", spy)
    bootstrap.bootstrap_spatial_median(sample, fit, 200, seed=1)
    assert tested == []


@pytest.mark.parametrize("tiny", [1e-200, 1e-58])
def test_tiny_rows_and_one_huge_row_stay_finite(tiny):
    # n - 1 tiny rows make the median row norm tiny, and unlike the mean it
    # does not bound the largest row: the unit's floor at max row norm /
    # 2^500 keeps the huge row's square finite.  At 1e-58 the tiny rows'
    # squares survive the scaling below max|x| as subnormals, and without the
    # floor the solve overflows.  The suite turns any RuntimeWarning into an
    # error.
    rng = np.random.default_rng(46)
    x = rng.standard_normal((12, 5)) * tiny
    x[0] = rng.standard_normal(5) * 1e100
    sample = validate_sample(x)
    fit = spatial_median(sample)
    draws = bootstrap.bootstrap_spatial_median(sample, fit, 50, seed=1)
    assert np.isfinite(fit.theta_hat).all() and np.isfinite(draws.stats).all()
    assert is_distance_sum_minimizer(x, fit.theta_hat)


def test_b_diag_sums_to_one_given_nonzero_residuals():
    rng = np.random.default_rng(6)
    for trial in range(5):
        sample = validate_sample(rng.standard_normal((30, 5)))
        fit = spatial_median(sample)
        assert abs(fit.b_diag_hat.sum() - 1.0) < 1e-8
        assert (fit.b_diag_hat > 0).all()
        assert (fit.b_diag_hat <= 1.0 + 1e-12).all()


def test_solver_matches_subgradient_oracle_small_instances():
    rng = np.random.default_rng(7)
    for trial in range(10):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(3, 21))
        if p == 1 and n % 2 == 0:
            n += 1  # keep the minimizer unique
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0)
        fit = spatial_median(validate_sample(x))
        oracle = subgradient_minimizer(x)
        assert np.abs(fit.theta_hat - oracle).max() < 1e-6
        assert is_distance_sum_minimizer(x, fit.theta_hat)


def test_vertex_anchored_optimum_is_found():
    # obtuse triangle: the wide-angle vertex is the minimizer
    points = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.1]])
    fit = spatial_median(validate_sample(points))
    assert_allclose(fit.theta_hat, [0.0, 0.0], atol=1e-10)


def test_gmom_single_block_is_the_mean():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 3))
    assert_allclose(gmom(validate_sample(x), 1, seed=0), x.mean(axis=0), atol=1e-12)


def test_gmom_n_blocks_is_spatial_median():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 2))
    direct = spatial_median(validate_sample(x)).theta_hat
    assert np.abs(gmom(validate_sample(x), 10, seed=3) - direct).max() < 1e-8


def test_gmom_matches_manual_pipeline():
    rng = np.random.default_rng(123)
    x = rng.standard_normal((9, 2))
    perm = substream(4, NS_BLOCKS).permutation(9)
    means = np.stack([x[rows].mean(axis=0) for rows in np.array_split(perm, 3)])
    manual = spatial_median(validate_sample(means)).theta_hat
    assert_allclose(gmom(validate_sample(x), 3, seed=4), manual, atol=1e-12)


def test_gmom_block_count_bounds():
    x = validate_sample(np.ones((4, 2)))
    with pytest.raises(InvalidScenario):
        gmom(x, 0, seed=0)
    with pytest.raises(InvalidScenario):
        gmom(x, 5, seed=0)


def test_bahadur_remainder_degenerate_single_point():
    sample = validate_sample([[1.0, 1.0]])
    fit = spatial_median(sample)
    with pytest.raises(DegenerateRemainder):
        bahadur_remainder(sample, [0.0, 0.0], fit)


def test_bahadur_remainder_zero_for_mirror_pairs():
    rng = np.random.default_rng(10)
    half = rng.standard_normal((6, 3))
    sample = validate_sample(np.vstack([half, -half]))
    fit = spatial_median(sample)
    assert np.abs(fit.theta_hat).max() < 1e-9
    # signs at the true center cancel pairwise and theta_hat equals it
    assert bahadur_remainder(sample, np.zeros(3), fit) < 1e-7


def test_bahadur_remainder_finite_on_gaussian_sample():
    rng = np.random.default_rng(11)
    sample = validate_sample(rng.standard_normal((200, 5)))
    fit = spatial_median(sample)
    value = bahadur_remainder(sample, np.zeros(5), fit)
    assert np.isfinite(value) and value >= 0.0


def _count_fits(monkeypatch):
    """Spy on the single-problem solve behind every spatial-median fit."""
    fits = []

    def spy(points, config):
        fits.append(points.shape)
        return _fit_center(points, config)

    monkeypatch.setattr(estimator, "_fit_center", spy)
    return fits


def _procedures(take):
    """Interval, test, screening and fit outputs, as bytes, each on take()."""
    band = sci(take(), 0.9, 60, seed=4)
    test = global_test_median(take(), np.zeros(band.lower.size), 0.05, 60, seed=5)
    screen = fdr_screen(take(), np.zeros(band.lower.size), 0.1)
    fit = spatial_median(take())
    return [
        band.lower.tobytes(), band.upper.tobytes(), repr(test.to_json()),
        screen.p_values.tobytes(), fit.theta_hat.tobytes(), fit.b_diag_hat.tobytes(),
        repr((fit.iterations, fit.objective, fit.grad_norm, fit.zeta1_hat)),
    ]


def test_one_fit_per_sample(monkeypatch):
    x = np.random.default_rng(41).standard_t(3.0, (30, 5))
    fresh = _procedures(lambda: validate_sample(x))
    fits = _count_fits(monkeypatch)
    sample = validate_sample(x)
    assert _procedures(lambda: sample) == fresh
    assert fits == [(30, 5)]
    assert spatial_median(sample) is sample._fit
    assert len(fits) == 1
    # another sample with the same values solves again, into its own slot
    other = validate_sample(x)
    assert spatial_median(other) is not sample._fit and len(fits) == 2


def _degenerate_solve(coords, signs, config):
    raise DegenerateSample("non-finite distances encountered")


@pytest.mark.parametrize(
    "config, solve, error",
    [
        (SolverConfig(max_iter=1), estimator._solve_batch, DidNotConverge),
        (SolverConfig(), _degenerate_solve, DegenerateSample),
    ],
    ids=["did_not_converge", "degenerate"],
)
def test_failed_fit_is_not_memoised(config, solve, error, monkeypatch):
    monkeypatch.setattr(estimator, "_FIT_CONFIG", config)
    monkeypatch.setattr(estimator, "_solve_batch", solve)
    fits = _count_fits(monkeypatch)
    sample = validate_sample(np.random.default_rng(42).standard_normal((20, 4)))
    for attempt in (1, 2):
        with pytest.raises(error):
            spatial_median(sample)
        assert len(fits) == attempt
    assert sample._fit is None


@pytest.mark.parametrize(
    "solve, module, config, names_replicate",
    [
        (lambda sample: spatial_median(sample), estimator, "_FIT_CONFIG", False),
        (lambda sample: gmom(sample, 5), estimator, "_FIT_CONFIG", False),
        # the bootstrap's own fit converges; only its replicates run out
        (lambda sample: bootstrap.bootstrap_spatial_median(sample, spatial_median(sample), 64, 3),
         bootstrap, "_REPLICATE_CONFIG", True),
    ],
    ids=["fit", "gmom", "bootstrap"],
)
def test_did_not_converge_names_a_replicate_only_in_the_bootstrap(
    solve, module, config, names_replicate, monkeypatch
):
    sample = validate_sample(np.random.default_rng(42).standard_normal((20, 4)))
    monkeypatch.setattr(module, config, SolverConfig(max_iter=1))
    with pytest.raises(DidNotConverge) as info:
        solve(sample)
    if names_replicate:
        assert isinstance(info.value.replicate, int) and 0 <= info.value.replicate < 64
        assert f"(bootstrap replicate {info.value.replicate})" in str(info.value)
    else:
        assert info.value.replicate is None and "replicate" not in str(info.value)


def test_concurrent_first_fits_share_one_memo():
    x = np.random.default_rng(43).standard_normal((40, 6))
    expected = spatial_median(validate_sample(x)).theta_hat.tobytes()
    sample = validate_sample(x)
    got = [None] * 32

    def fit(i):
        got[i] = spatial_median(sample)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        bootstrap._parallel_map(fit, range(len(got)), 8)
    finally:
        sys.setswitchinterval(interval)
    assert all(f.theta_hat.tobytes() == expected for f in got)
    # every caller holds the one stored fit, none a private duplicate
    assert len({id(f) for f in got}) == 1 and sample._fit is got[0]


def test_memoised_fit_is_read_only():
    fit = spatial_median(validate_sample(np.random.default_rng(44).standard_normal((12, 3))))
    for array in (fit.theta_hat, fit.b_diag_hat):
        with pytest.raises(ValueError):
            array[0] = 0.0
