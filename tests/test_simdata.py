import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomedian import DistributionSpec, ThetaPattern, ar1_shape, draw, theta_vector
from geomedian.errors import InvalidDf, InvalidScenario, PatternTooLarge
from geomedian import simdata
from geomedian.data import symmetric_sqrt
from geomedian.simdata import T_MODE_SCALE
from geomedian.streams import substream


def _spec(model, p, rho=0.0, df=None, theta=None, **kw):
    center = np.zeros(p) if theta is None else np.asarray(theta, dtype=float)
    return DistributionSpec(model, center, ar1_shape(p, rho), df=df, **kw)


def test_draw_reproducible_bitwise():
    spec = _spec("gaussian", 4, rho=0.3)
    a = draw(spec, 50, seed=7).values
    b = draw(spec, 50, seed=7).values
    assert np.array_equal(a, b)
    c = draw(spec, 50, seed=8).values
    assert not np.array_equal(a, c)


_MODELS = [
    ("gaussian", None, {}),
    ("student_t", 3.0, {}),
    ("student_t", 3.0, {"t_mode": T_MODE_SCALE}),
    ("laplace", None, {}),
]


def test_growing_n_extends_rather_than_reshuffles():
    # the AR(1) rotation is one gemm whose last-bit rounding can depend on n
    # at larger p, so rho > 0 is checked only at small p
    for model, df, kw in _MODELS:
        for p, rho in ((100, 0.0), (3, 0.5)):
            spec = _spec(model, p, rho=rho, df=df, **kw)
            short = draw(spec, 20, seed=3).values
            long = draw(spec, 50, seed=3).values
            assert np.array_equal(long[:20], short), (model, kw, p, rho)


def test_student_t_rows_share_one_mixing_divisor():
    # the t rows are the Gaussian rows of the same seed, each divided by its
    # own mixing divisor; t / z re-rounds that quotient, hence the 1e-15
    t = draw(_spec("student_t", 8, df=3.0, t_mode=T_MODE_SCALE), 40, seed=9).values
    z = draw(_spec("gaussian", 8), 40, seed=9).values
    ratio = t / z
    assert_allclose(ratio, np.repeat(ratio[:, :1], 8, axis=1), rtol=1e-15, atol=0.0)
    assert np.unique(ratio[:, 0]).size == 40


@pytest.mark.parametrize("n", [1, 100, 1000])
def test_draw_opens_at_most_two_substreams(monkeypatch, n):
    keys = []

    def spy(seed, *path):
        keys.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(simdata, "substream", spy)
    for model, df, kw in _MODELS:
        keys.clear()
        draw(_spec(model, 5, df=df, **kw), n, seed=2)
        assert len(keys) <= 2


def test_identity_shape_skips_the_square_root(monkeypatch):
    calls = []

    def spy(omega):
        calls.append(omega)
        return symmetric_sqrt(omega)

    monkeypatch.setattr(simdata, "symmetric_sqrt", spy)
    spec = _spec("student_t", 6, df=4.0)
    assert calls == [] and spec._root is None
    # the rows are the unrotated core, exactly as with the computed root sqrt(I) = I
    rotated = draw(spec, 30, seed=5).values @ symmetric_sqrt(np.eye(6))
    assert np.array_equal(draw(spec, 30, seed=5).values, rotated)
    assert _spec("gaussian", 6, rho=0.3)._root is not None
    assert len(calls) == 1


def test_gaussian_large_sample_moments():
    spec = _spec("gaussian", 2, theta=[0.0, 0.0])
    x = draw(spec, 10_000, seed=1).values
    assert np.abs(x.mean(axis=0)).max() < 4.0 / np.sqrt(10_000)
    assert np.abs(np.cov(x.T) - np.eye(2)).max() < 0.1


def test_student_t_unit_variance_under_covariance_mode():
    spec = _spec("student_t", 3, df=5.0)
    x = draw(spec, 100_000, seed=2).values
    assert np.abs(x.var(axis=0) - 1.0).max() < 0.06


def test_student_t_scale_mode_inflates_by_df_ratio():
    spec = _spec("student_t", 3, df=5.0, t_mode=T_MODE_SCALE)
    x = draw(spec, 100_000, seed=2).values
    assert np.abs(x.var(axis=0) - 5.0 / 3.0).max() < 0.1


def test_student_t_covariance_matches_shape():
    spec = _spec("student_t", 5, rho=0.5, df=5.0)
    x = draw(spec, 100_000, seed=4).values
    err = np.linalg.norm(np.cov(x.T) - ar1_shape(5, 0.5).omega)
    assert err < 0.15


def test_laplace_excess_kurtosis():
    spec = _spec("laplace", 3, rho=0.0)
    x = draw(spec, 100_000, seed=5).values
    centered = x - x.mean(axis=0)
    kurt = (centered**4).mean(axis=0) / (centered**2).mean(axis=0) ** 2 - 3.0
    assert np.abs(kurt - 3.0).max() < 0.3


def test_spatial_signs_center_at_zero_for_elliptical_models():
    for model, df in (("gaussian", None), ("student_t", 4.0)):
        spec = _spec(model, 4, rho=0.4, df=df)
        x = draw(spec, 10_000, seed=6).values
        signs = x / np.linalg.norm(x, axis=1)[:, None]
        assert np.abs(signs.mean(axis=0)).max() < 4.0 / np.sqrt(10_000 * 4)


def test_student_t_requires_valid_df():
    with pytest.raises(InvalidDf):
        _spec("student_t", 3)
    # a non-finite df is the caller's error, not a non-finite sample entry
    for df in (2.0, np.nan, np.inf):
        with pytest.raises(InvalidDf, match="finite and exceed 2"):
            _spec("student_t", 3, df=df)


def test_unknown_model_and_mismatched_theta():
    with pytest.raises(InvalidScenario):
        _spec("cauchy", 3)
    with pytest.raises(InvalidScenario):
        DistributionSpec("gaussian", np.zeros(2), ar1_shape(3, 0.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _spec("student_t", 3, df=5.0, t_mode="variance"), "unknown t parameterization"),
        (lambda: draw(_spec("gaussian", 3), 0, seed=1), "n must be >= 1"),
        (lambda: theta_vector(ThetaPattern("dense_half"), 8, 10), "unknown pattern 'dense_half'"),
    ],
    ids=["t_mode", "draw_n_0", "theta_pattern"],
)
def test_bad_sampling_arguments_are_typed_errors(call, message):
    with pytest.raises(InvalidScenario, match=message):
        call()


def test_theta_patterns():
    assert_allclose(theta_vector(ThetaPattern("sparse3"), 5, 100), [2.0, -2.0, 3.0, 0.0, 0.0])
    assert_allclose(
        theta_vector(ThetaPattern("dense_quarter"), 8, 100), [0.2, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    )
    assert_allclose(theta_vector(ThetaPattern("zero"), 4, 10), np.zeros(4))


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "log_sparse", "kapa": 2}, "unknown theta fields ['kapa']"),
        ({"kind": "ten_percent", "scale": "2"}, "theta field 'scale' has the wrong JSON type: '2'"),
        ([2.0], "theta JSON must be an object, got [2.0]"),
    ],
)
def test_theta_pattern_from_json_checks_its_fields(obj, message):
    with pytest.raises(InvalidScenario, match=re.escape(message)):
        ThetaPattern.from_json(obj)


def test_log_sparse_pattern_counts_and_magnitude():
    theta = theta_vector(ThetaPattern("log_sparse", kappa=4.0, c0=0.5), 1000, 100)
    k = int(np.floor(0.5 * np.log(1000)))
    assert (theta != 0).sum() == k
    assert_allclose(theta[:k], 4.0 * np.sqrt(np.log(1000) / 100))


def test_ten_percent_pattern():
    theta = theta_vector(ThetaPattern("ten_percent", scale=2.0), 1000, 50)
    assert (theta != 0).sum() == 100
    assert_allclose(theta[:100], 2.0 * np.sqrt(np.log(1000) / 50))


def test_patterns_too_large():
    with pytest.raises(PatternTooLarge):
        theta_vector(ThetaPattern("sparse3"), 2, 10)
    with pytest.raises(PatternTooLarge):
        theta_vector(ThetaPattern("dense_quarter"), 3, 10)
    with pytest.raises(PatternTooLarge):
        theta_vector(ThetaPattern("ten_percent"), 5, 10)
    with pytest.raises(PatternTooLarge):
        theta_vector(ThetaPattern("log_sparse", kappa=1.0, c0=0.1), 5, 10)
