"""Consumer-facing procedures: simultaneous intervals, global tests, FDR, ARE.

All bootstrap-calibrated procedures share the convention that a test at
significance ``alpha`` compares its statistic with the ``1 - alpha`` replicate
quantile, and that a simultaneous confidence set at level ``level`` uses the
``level`` quantile, so interval membership and test rejection are exact duals
when both consume the same replicate draws.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bootstrap import (
    BootstrapDraws,
    _check_level,
    bootstrap_mean,
    bootstrap_spatial_median,
    conditional_variance,
    quantile,
)
from .data import Sample, validate_df, validate_vector
from .errors import (
    DegenerateSample,
    DimensionMismatch,
    InvalidAlpha,
    InvalidScenario,
    TooFewDraws,
    ZeroScale,
    ZeroVariance,
)
from .estimator import SpatialMedianFit, _unit_rows, spatial_median

METHOD_MEDIAN = "median"
METHOD_MEAN = "mean"
METHOD_WPL = "wpl"
METHOD_CQ = "cq"
# Bootstrap-calibrated methods, then all global tests (method m's is global_test_<m>)
_BOOT_METHODS = (METHOD_MEDIAN, METHOD_MEAN)
_TEST_METHODS = (*_BOOT_METHODS, METHOD_WPL, METHOD_CQ)

_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class SciResult:
    """Simultaneous confidence intervals with a common half-width."""

    lower: np.ndarray
    upper: np.ndarray
    level: float
    q_boot: float
    method: str

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "q_boot": self.q_boot,
            "method": self.method,
            "intervals": np.column_stack((self.lower, self.upper)).tolist(),
        }


@dataclass(frozen=True)
class GlobalTestResult:
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    method: str

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": self.reject,
        }


@dataclass(frozen=True)
class FdrResult:
    """Marginal statistics, p-values, and the step-up selection they produce."""

    t_stats: np.ndarray
    p_values: np.ndarray
    k_hat: int
    rejected: np.ndarray
    threshold_p: float
    alpha: float

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "k_hat": self.k_hat,
            "threshold_p": self.threshold_p,
            "rejected": [int(j) for j in self.rejected],
            "p_values": [float(v) for v in self.p_values],
        }


@dataclass(frozen=True)
class AreReport:
    """Max-norm efficiency of the spatial median relative to the mean."""

    are_estimate: float
    are_analytic: float | None
    model: str

    def to_json(self) -> dict:
        return {
            "are_estimate": self.are_estimate,
            "are_analytic": self.are_analytic,
            "model": self.model,
        }


def _calibrate(
    sample: Sample,
    method: str,
    B: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, BootstrapDraws]:
    """Fit the method's center and draw its matching multiplier bootstrap.

    The one fit-and-draws step behind the intervals, the max-norm tests and
    the efficiency ratio.  A sample whose rows are all equal raises
    DegenerateSample: every replicate would be 0, giving zero-width intervals
    and a zero critical value.
    """
    if sample.n < 2:
        raise InvalidScenario("need n >= 2 observations for bootstrap calibration")
    if (sample.values == sample.values[0]).all():
        raise DegenerateSample("every observation is identical: the bootstrap law is a point mass at 0")
    if method == METHOD_MEDIAN:
        fit = spatial_median(sample)
        return fit.theta_hat, bootstrap_spatial_median(sample, fit, B, seed, workers=workers)
    if method == METHOD_MEAN:
        return sample.values.mean(axis=0), bootstrap_mean(sample, B, seed, workers)
    raise InvalidScenario(f"unknown bootstrap method {method!r}")


def _positive_quantile(draws: BootstrapDraws, level: float) -> float:
    """The ``level`` replicate quantile; DegenerateSample if it is 0.

    A zero quantile would give zero-width intervals or a zero critical value.
    It happens when enough rows coincide that every replicate center sits at
    the origin.
    """
    q = quantile(draws, level)
    if q == 0.0:
        raise DegenerateSample(f"the {level:g} bootstrap quantile is 0: the replicate law is degenerate")
    return q


def sci(
    sample: Sample,
    level: float,
    B: int,
    seed: int,
    method: str = METHOD_MEDIAN,
    workers: int = 1,
) -> SciResult:
    """Simultaneous confidence intervals for every coordinate of the center.

    Fits the chosen center, calibrates the max-norm by the matching multiplier
    bootstrap, and returns center -/+ q/sqrt(n) per coordinate.  A zero q
    raises DegenerateSample instead of returning zero-width intervals.
    """
    _check_level(level)
    center, draws = _calibrate(sample, method, B, seed, workers)
    q = _positive_quantile(draws, level)
    half = q / np.sqrt(draws.n_obs)
    return SciResult(lower=center - half, upper=center + half, level=level, q_boot=q, method=method)


def _max_norm_test(sample, theta0, level, B, seed, workers, method) -> GlobalTestResult:
    """The max-norm test behind :func:`global_test_median` and :func:`global_test_mean`."""
    _check_level(level)
    theta0 = _check_theta0(theta0, sample.p)
    center, draws = _calibrate(sample, method, B, seed, workers)
    statistic = float(np.sqrt(draws.n_obs) * np.abs(center - theta0).max())
    critical = _positive_quantile(draws, 1.0 - level)
    p_value = float((1 + int((draws.stats >= statistic).sum())) / (draws.B + 1))
    return GlobalTestResult(
        statistic=statistic,
        critical_value=critical,
        p_value=p_value,
        reject=statistic > critical,
        method=method,
    )


def global_test_median(
    sample: Sample,
    theta0,
    level: float = 0.05,
    B: int = 400,
    seed: int = 0,
    workers: int = 1,
) -> GlobalTestResult:
    """Max-norm test of a hypothesised center, spatial-median version.

    ``level`` is the significance level; the critical value is the
    ``1 - level`` quantile of the bootstrap replicates.
    """
    return _max_norm_test(sample, theta0, level, B, seed, workers, METHOD_MEDIAN)


def global_test_mean(
    sample: Sample,
    theta0,
    level: float = 0.05,
    B: int = 400,
    seed: int = 0,
    workers: int = 1,
) -> GlobalTestResult:
    """Max-norm test of a hypothesised center, sample-mean version."""
    return _max_norm_test(sample, theta0, level, B, seed, workers, METHOD_MEAN)


def global_test_wpl(sample: Sample, theta0, level: float = 0.05) -> GlobalTestResult:
    """Pairwise sign inner-product test (an L2-norm style baseline).

    The statistic sums W_i' W_j over pairs i > j of residual directions at the
    hypothesised center.  Its null variance n(n-1)/2 * tr(B^2), B the second
    moment of the directions, is estimated by the pair-exclusive plug-in
    tr(B^2) ~ mean of (W_i' W_j)^2 over i != j; keeping the self-pairs would
    add a 1/n term that dominates tr(B^2) whenever p >> n and would drive the
    size to zero.  Rejection uses an upper-tail normal cutoff.
    """
    _check_level(level)
    theta0 = _check_theta0(theta0, sample.p)
    n = sample.n
    pair_sum, pair_sq = _pair_moments(_unit_rows(sample.values - theta0))
    statistic = float(pair_sum / 2.0)
    trace_b_sq = float(pair_sq) / (n * (n - 1))
    sd = float(np.sqrt(n * (n - 1) / 2.0 * trace_b_sq))
    return _normal_calibrated(statistic, sd, level, METHOD_WPL)


def global_test_cq(sample: Sample, theta0, level: float = 0.05) -> GlobalTestResult:
    """Mean-based pairwise inner-product baseline with plug-in variance.

    Sums (X_i - theta0)'(X_j - theta0) over ordered pairs i != j; the null
    variance 2 n(n-1) tr(Sigma^2) is estimated by the pairwise second moment
    of the same inner products.  Provided for comparison only.
    """
    _check_level(level)
    theta0 = _check_theta0(theta0, sample.p)
    n = sample.n
    pair_sum, pair_sq = _pair_moments(sample.values - theta0)
    statistic = float(pair_sum)
    trace_sq_hat = float(pair_sq) / (n * (n - 1))
    sd = float(np.sqrt(2.0 * n * (n - 1) * trace_sq_hat))
    return _normal_calibrated(statistic, sd, level, METHOD_CQ)


def _global_test(method, sample, theta0, level, B, seed, workers=1) -> GlobalTestResult:
    """Run ``global_test_<method>``: the one dispatch of the CLI and the harness.

    B, seed and workers reach only the bootstrap-calibrated tests.  The test
    is looked up by its module-level name on every call, so a wrapper
    installed on the module sees the call.
    """
    if method not in _TEST_METHODS:
        raise InvalidScenario(f"unknown test method {method!r}, expected one of {list(_TEST_METHODS)}")
    test = globals()[f"global_test_{method}"]
    if method in _BOOT_METHODS:
        return test(sample, theta0, level, B, seed, workers)
    return test(sample, theta0, level)


def _pair_moments(rows: np.ndarray) -> tuple[float, float]:
    """Sum and sum of squares of the off-diagonal entries of ``rows @ rows.T``.

    The pairwise statistics need two rows at least.
    """
    if rows.shape[0] < 2:
        raise InvalidScenario("pairwise statistic needs n >= 2")
    gram = rows @ rows.T
    diag = np.diag(gram)
    return gram.sum() - diag.sum(), (gram**2).sum() - (diag**2).sum()


def _normal_calibrated(statistic, sd, level, method) -> GlobalTestResult:
    critical = NormalDist().inv_cdf(1.0 - level) * sd
    if sd > 0:
        p_value = float(_upper_tail(statistic / sd))
    else:
        p_value = 1.0 if statistic <= 0 else 0.0
    return GlobalTestResult(
        statistic=statistic,
        critical_value=critical,
        p_value=p_value,
        reject=statistic > critical,
        method=method,
    )


def _upper_tail(z):
    """P(N(0, 1) > z), elementwise, from the complementary error function."""
    return 0.5 * np.asarray(_erfc(np.divide(z, math.sqrt(2.0))), dtype=np.float64)


def _two_sided_p(t_stats) -> np.ndarray:
    """Two-sided normal p-values 2 P(N(0, 1) > |t|)."""
    return 2.0 * _upper_tail(np.abs(t_stats))


def _check_alpha(alpha) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha}")


def _check_theta0(theta0, p) -> np.ndarray:
    v = np.asarray(theta0, dtype=np.float64).reshape(-1)
    if v.size != p:
        raise DimensionMismatch(f"hypothesised center has length {v.size}, expected {p}")
    return validate_vector(v)


def _require_plugin_scales(fit: SpatialMedianFit) -> None:
    """Raise DegenerateSample unless zeta1_hat and b_diag_hat are defined.

    They are NaN when every residual vanishes at the fitted center (one
    observation, or all observations equal).
    """
    if not (np.isfinite(fit.zeta1_hat) and fit.zeta1_hat > 0 and np.isfinite(fit.b_diag_hat).all()):
        raise DegenerateSample("plug-in scale undefined: no observation differs from the fitted center")


def marginal_stats(sample: Sample, fit: SpatialMedianFit, theta0) -> np.ndarray:
    """Per-coordinate studentized statistics sqrt(n)(theta_hat_j - theta0_j)/s_j.

    The marginal scale is s_j = sqrt(b_diag_hat_j) / zeta1_hat.
    """
    theta0 = _check_theta0(theta0, sample.p)
    _require_plugin_scales(fit)
    b_diag = fit.b_diag_hat
    zero = np.nonzero(b_diag <= 0)[0]
    if zero.size:
        raise ZeroScale(int(zero[0]))
    scale = np.sqrt(b_diag) / fit.zeta1_hat
    return np.sqrt(sample.n) * (fit.theta_hat - theta0) / scale


@dataclass(frozen=True)
class BhSelection:
    k_hat: int
    rejected: np.ndarray
    threshold_p: float


def bh_fdr(p_values, alpha: float) -> BhSelection:
    """Step-up selection: reject the k smallest p-values, k the largest j with
    P_(j) <= alpha * j / p.  Ties at the threshold share its fate."""
    _check_alpha(alpha)
    pv = np.asarray(p_values, dtype=np.float64).reshape(-1)
    if pv.size == 0 or (pv < 0).any() or (pv > 1).any() or not np.isfinite(pv).all():
        raise InvalidAlpha("p-values must lie in [0, 1]")
    p = pv.size
    ordered = np.sort(pv)
    passing = np.nonzero(ordered <= alpha * np.arange(1, p + 1) / p)[0]
    if passing.size == 0:
        return BhSelection(k_hat=0, rejected=np.empty(0, dtype=np.int64), threshold_p=0.0)
    k_hat = int(passing[-1]) + 1
    threshold = float(ordered[k_hat - 1])
    rejected = np.nonzero(pv <= threshold)[0]
    return BhSelection(k_hat=k_hat, rejected=rejected, threshold_p=threshold)


def fdr_screen(sample: Sample, theta0, alpha: float) -> FdrResult:
    """Coordinate-wise two-sided screening with step-up FDR control.

    Studentized spatial-median statistics get two-sided normal p-values which
    feed the step-up rule.
    """
    _check_alpha(alpha)
    fit = spatial_median(sample)
    t_stats = marginal_stats(sample, fit, theta0)
    p_values = _two_sided_p(t_stats)
    selection = bh_fdr(p_values, alpha)
    return FdrResult(
        t_stats=t_stats,
        p_values=p_values,
        k_hat=selection.k_hat,
        rejected=selection.rejected,
        threshold_p=selection.threshold_p,
        alpha=alpha,
    )


def _mean_t_p_values(sample: Sample, theta0: np.ndarray) -> np.ndarray:
    """Two-sided normal p-values of the coordinate-wise t-statistics
    sqrt(n)(xbar_j - theta0_j)/sd_j: the mean-based screening baseline."""
    x = sample.values
    return _two_sided_p(np.sqrt(sample.n) * (x.mean(axis=0) - theta0) / x.std(axis=0, ddof=1))


def are_bootstrap(sample: Sample, B: int, seed: int, workers: int = 1) -> AreReport:
    """Bootstrap estimate of the mean-vs-median max-norm variance ratio.

    Both multiplier bootstraps run on the same sample with independent
    sign streams (one namespace per target) derived from the one seed.
    """
    if B < 2:
        raise TooFewDraws("need B >= 2 replicates")
    _, draws_median = _calibrate(sample, METHOD_MEDIAN, B, seed, workers)
    _, draws_mean = _calibrate(sample, METHOD_MEAN, B, seed, workers)
    var_median = conditional_variance(draws_median)
    var_mean = conditional_variance(draws_mean)
    if var_median == 0.0:
        raise ZeroVariance("median-target replicate variance is zero")
    return AreReport(
        are_estimate=var_mean / var_median,
        are_analytic=None,
        model=f"bootstrap(n={sample.n},p={sample.p},B={B})",
    )


# c_k of log Gamma(x - 1/2) - log Gamma(x) ~ -log(x)/2 + sum_k c_k / x^k, from
# the Bernoulli-polynomial expansion of log Gamma(x + a) (DLMF 5.11.8):
# c_k = (-1)^(k+1) (B_{k+1}(-1/2) - B_{k+1}(0)) / (k (k+1)).  At x >= 10 the
# first omitted term is below 4e-18.
_HALF_RATIO_SERIES = (
    3 / 8, 1 / 8, 3 / 64, 1 / 64, 3 / 640, 1 / 384, 33 / 14336, 1 / 2048,
    -3 / 2048, 1 / 10240, 699 / 180224, 1 / 49152, -5457 / 425984, 1 / 229376,
    309867 / 5242880, 1 / 1048576,
)


def _log_half_gamma_ratio(x: float) -> float:
    """log Gamma(x - 1/2) - log Gamma(x) + log(x) / 2, for x >= 1.

    The two log-gammas nearly cancel at large x, so the difference comes from
    its asymptotic series instead, after raising x to 10 or more with
    Gamma(x - 1/2) / Gamma(x) = x / (x - 1/2) * Gamma(x + 1/2) / Gamma(x + 1).
    """
    shift = 0.0
    while x < 10.0:
        shift += math.log(x / (x - 0.5)) - 0.5 * math.log1p(1.0 / x)
        x += 1.0
    t = 1.0 / x
    series = 0.0
    for c in reversed(_HALF_RATIO_SERIES):
        series = (series + c) * t
    return shift + series


def are_analytic(model: str, p: int, df: float | None = None) -> float:
    """Closed-form large-p efficiency ratio for spherical reference models.

    ``model`` is "gaussian" or "student_t" (the latter needs a finite
    df > 2).  The Gaussian ratio p Gamma((p-1)/2)^2 / (2 Gamma(p/2)^2) is
    exp(2 S(p/2)) with S = :func:`_log_half_gamma_ratio`; the Student-t
    ratio multiplies it by 2 Gamma((df+1)/2)^2 / ((df-2) Gamma(df/2)^2).
    """
    if p < 2:
        raise InvalidScenario("p must be >= 2")
    log_core = 2.0 * _log_half_gamma_ratio(p / 2.0)
    if model == "gaussian":
        return math.exp(log_core)
    if model == "student_t":
        validate_df(df)
        log_t = math.log((df + 1.0) / (df - 2.0)) - 2.0 * _log_half_gamma_ratio((df + 1.0) / 2.0)
        return math.exp(log_core + log_t)
    raise InvalidScenario(f"unknown model {model!r}")
