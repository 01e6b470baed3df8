"""Multiplier bootstrap for the max-norm of re-solved location estimates.

Each replicate multiplies the centered observations by independent random
signs and records the scaled max-norm of the re-estimated center (spatial
median target) or of the perturbed average (mean target).  A batch of
replicates draws all its signs in one vectorised Philox call
(:func:`geomedian.streams.rademacher`) whose counter carries the replicate
index, so replicate b's signs depend only on (seed, namespace, b): any subset
of replicates can run anywhere, in any order, and the full vector of
statistics is reproduced bit-for-bit.

Replicates are solved in fixed-size batches (a constant independent of the
worker count) so the arithmetic performed for a given (inputs, seed) never
depends on scheduling.  When the dimension exceeds the sample size (p > n)
the spatial-median replicates iterate in span coordinates over the Gram
matrix of the residuals, otherwise in R^p; either way the coordinates are
built once per call.  The choice depends only on the input's shape.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Sample, write_csv
from .errors import DidNotConverge, InvalidLevel, InvalidScenario, TooFewDraws
from .estimator import SolverConfig, SpatialMedianFit, _PointCoords, _solve_batch, _SpanCoords
from .streams import NS_BOOT_MEAN, NS_BOOT_MEDIAN, rademacher

# Batch of replicates solved together.  Fixed: batching must not change with
# the worker count, or results would depend on scheduling.
_BATCH = 256


@dataclass(frozen=True)
class BootstrapDraws:
    """Replicate max-norm statistics of a sample with ``n_obs`` observations.

    ``stats`` holds one sqrt(n) * max-norm per replicate, so ``B`` is its
    length.  ``vectors`` optionally holds the full replicate center vectors
    (B x p), for callers that need more than the max-norms.
    """

    stats: np.ndarray
    n_obs: int
    vectors: np.ndarray | None = None

    def __post_init__(self):
        if self.stats.ndim != 1:
            raise InvalidScenario("stats must be one-dimensional")
        if self.vectors is not None and self.vectors.shape[0] != self.B:
            raise InvalidScenario("vectors must have one row per replicate")

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
    sample: Sample, solve, namespace: int, B: int, seed: int, workers: int, keep_vectors: bool
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
    vectors = np.empty((B, sample.p)) if keep_vectors else None

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
        if vectors is not None:
            vectors[lo:hi] = centers

    _parallel_map(run_batch, [(lo, min(lo + _BATCH, B)) for lo in range(0, B, _BATCH)], workers)
    stats.flags.writeable = False
    if vectors is not None:
        vectors.flags.writeable = False
    return BootstrapDraws(stats=stats, n_obs=n, vectors=vectors)


def bootstrap_spatial_median(
    sample: Sample,
    fit: SpatialMedianFit,
    B: int,
    seed: int,
    config: SolverConfig | None = None,
    workers: int = 1,
    keep_vectors: bool = False,
) -> BootstrapDraws:
    """Re-solve the spatial median of sign-multiplied residuals, B times.

    Replicate b minimizes sum_i ||Z_i (X_i - theta_hat) - beta|| with fresh
    random signs Z and records sqrt(n) * max|beta|.  A replicate that fails to
    converge raises DidNotConverge carrying its index.
    """
    cfg = config or SolverConfig()
    residuals = sample.values - fit.theta_hat
    # replicates start at the origin, the center of the sign-symmetric
    # replicate law, so with p > n they can iterate in the n-dimensional span
    # of the residuals; the coordinates (and with them the Gram matrix) are
    # built once and shared by the batches
    coords = (_SpanCoords if sample.p > sample.n else _PointCoords)(residuals)

    def solve(signs):
        return _solve_batch(coords, signs, cfg, np.zeros((signs.shape[0], coords.width)))[0]

    return _multiplier_bootstrap(sample, solve, NS_BOOT_MEDIAN, B, seed, workers, keep_vectors)


def bootstrap_mean(
    sample: Sample, B: int, seed: int, workers: int = 1, keep_vectors: bool = False
) -> BootstrapDraws:
    """Multiplier bootstrap for the sample mean.

    Replicate b records sqrt(n) * max|mean_i Z_i (X_i - xbar)|.
    """
    centered = sample.values - sample.values.mean(axis=0)

    def solve(signs):
        return (signs @ centered) / sample.n

    return _multiplier_bootstrap(sample, solve, NS_BOOT_MEAN, B, seed, workers, keep_vectors)


def quantile(draws: BootstrapDraws, level: float) -> float:
    """Smallest replicate value whose empirical CDF reaches ``level``.

    Uses the ceiling order statistic, i.e. the inverse empirical CDF; exact
    under enumeration and never undershoots the requested coverage.
    """
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must lie in (0, 1), got {level}")
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


def write_stats_csv(draws: BootstrapDraws, path) -> None:
    """Dump raw replicate statistics, one value per line under a 'stat' header."""
    write_csv(path, draws.stats.reshape(-1, 1), header=["stat"])
