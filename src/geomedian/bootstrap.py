"""Multiplier bootstrap for the max-norm of re-solved location estimates.

Each replicate multiplies the centered observations by independent random
signs and records the scaled max-norm of the re-estimated center (spatial
median target) or of the perturbed average (mean target).  A batch of
replicates reads all its signs from the raw bits of the one (seed, namespace)
substream (:func:`geomedian.streams.rademacher`), replicate b at an offset
fixed by b and n, so replicate b's signs depend only on (seed, namespace, b),
not on the batch that draws them.  A replicate's solved center is not that
independent: it can move in the last bit with the other rows of its batch,
because BLAS blocking follows the batch size and rows drop out of the
products as they converge.  So B = 200 and the first 200 replicates of
B = 400 need not agree bit-for-bit.

Replicates are solved in fixed-size batches (a constant independent of the
worker count) so the arithmetic performed for a given (inputs, B, seed)
never depends on scheduling, and the statistics are reproduced bit-for-bit.
When the dimension exceeds the sample size (p > n) the spatial-median
replicates iterate in span coordinates over the Gram matrix of the
residuals, otherwise in R^p; either way the coordinates are built once per
call.  The choice depends only on the input's shape.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import DidNotConverge, InvalidLevel, InvalidScenario, TooFewDraws
from .estimator import SolverConfig, SpatialMedianFit, _PointCoords, _solve_batch, _SpanCoords
from .streams import NS_BOOT_MEAN, NS_BOOT_MEDIAN, rademacher

# Batch of replicates solved together.  Fixed: batching must not change with
# the worker count, or results would depend on scheduling.
_BATCH = 256

# Replicates only feed the law of a max-norm (Chernozhukov, Chetverikov &
# Kato 2013), so they stop at a coarser iterate change than fits.  grad_tol
# stays at the fits' value: every replicate still meets the scale-free
# estimating-equation bound ||R|| <= n * grad_tol, which is what binds on
# typical samples (tol = 1e-4 .. 1e-6 stop at the same sweep).
_REPLICATE_CONFIG = SolverConfig(tol=1e-6)


@dataclass(frozen=True)
class BootstrapDraws:
    """Replicate max-norm statistics of a sample with ``n_obs`` observations.

    ``stats`` holds one sqrt(n) * max-norm per replicate, so ``B`` is its
    length.
    """

    stats: np.ndarray
    n_obs: int

    def __post_init__(self):
        if self.stats.ndim != 1:
            raise InvalidScenario("stats must be one-dimensional")

    @property
    def B(self) -> int:
        return self.stats.size


def _parallel_map(func, items, workers: int) -> None:
    """Call ``func`` on every item, on up to ``workers`` threads.

    Results are discarded; the first error in item order is re-raised.
    """
    if workers < 1:
        raise InvalidScenario("workers must be >= 1")
    if workers == 1 or len(items) <= 1:
        for item in items:
            func(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(func, item) for item in items]:
            future.result()


def _multiplier_bootstrap(
    sample: Sample, solve, namespace: int, B: int, seed: int, workers: int
) -> BootstrapDraws:
    """Run B sign-multiplier replicates through ``solve(signs) -> centers``.

    ``solve`` maps a batch of sign rows (one row of n signs per replicate) to
    the replicate centers.  Replicate b takes row b of the counter-based sign
    stream keyed by (seed, namespace) and records sqrt(n) * max|center_b|.
    """
    if B < 1:
        raise InvalidScenario("B must be >= 1")
    n = sample.n
    root_n = np.sqrt(n)
    stats = np.empty(B)

    def run_batch(span):
        lo, hi = span
        signs = rademacher(seed, namespace, lo, hi - lo, n)
        try:
            centers = solve(signs)
        except DidNotConverge as err:
            raise DidNotConverge(
                err.iterations, err.grad_norm, replicate=lo + (err.replicate or 0)
            ) from err
        # max|c| without an |centers| temporary; abs keeps +0.0 for a row of
        # zeros whose max(max, -min) may come out as -0.0
        peak = np.maximum(centers.max(axis=1), -centers.min(axis=1))
        stats[lo:hi] = root_n * np.abs(peak)

    _parallel_map(run_batch, [(lo, min(lo + _BATCH, B)) for lo in range(0, B, _BATCH)], workers)
    stats.flags.writeable = False
    return BootstrapDraws(stats=stats, n_obs=n)


def bootstrap_spatial_median(
    sample: Sample, fit: SpatialMedianFit, B: int, seed: int, workers: int = 1
) -> BootstrapDraws:
    """Re-solve the spatial median of sign-multiplied residuals, B times.

    Replicate b minimizes sum_i ||Z_i (X_i - theta_hat) - beta|| with fresh
    random signs Z and records sqrt(n) * max|beta|.  Replicates stop at
    ``tol = 1e-6`` under the fits' residual certificate
    (``_REPLICATE_CONFIG``).  A replicate that fails to converge raises
    DidNotConverge carrying its index.
    """
    # replicates start at the origin, the center of the sign-symmetric
    # replicate law, so with p > n they can iterate in the n-dimensional span
    # of the residuals; the coordinates (and with them the Gram matrix) are
    # built once and shared by the batches
    coords = (_SpanCoords if sample.p > sample.n else _PointCoords)(sample.values - fit.theta_hat)

    def solve(signs):
        return _solve_batch(coords, signs, _REPLICATE_CONFIG)[0]

    return _multiplier_bootstrap(sample, solve, NS_BOOT_MEDIAN, B, seed, workers)


def bootstrap_mean(sample: Sample, B: int, seed: int, workers: int = 1) -> BootstrapDraws:
    """Multiplier bootstrap for the sample mean.

    Replicate b records sqrt(n) * max|mean_i Z_i (X_i - xbar)|.
    """
    centered = sample.values - sample.values.mean(axis=0)

    def solve(signs):
        return (signs @ centered) / sample.n

    return _multiplier_bootstrap(sample, solve, NS_BOOT_MEAN, B, seed, workers)


def _check_level(level) -> None:
    """Reject a level outside (0, 1); procedures call it before any fit or bootstrap."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must lie in (0, 1), got {level}")


def quantile(draws: BootstrapDraws, level: float) -> float:
    """Smallest replicate value whose empirical CDF reaches ``level``.

    Uses the ceiling order statistic, i.e. the inverse empirical CDF; exact
    under enumeration and never undershoots the requested coverage.
    """
    _check_level(level)
    k = int(np.ceil(level * draws.B))
    k = min(max(k, 1), draws.B)
    return float(np.partition(draws.stats, k - 1)[k - 1])


def conditional_variance(draws: BootstrapDraws) -> float:
    """Unbiased variance of the un-normalized replicate max-norms.

    Replicate statistics carry a sqrt(n) factor; it is removed before taking
    the variance.
    """
    if draws.B < 2:
        raise TooFewDraws("need at least two replicates for a variance")
    return float(np.var(draws.stats / np.sqrt(draws.n_obs), ddof=1))

