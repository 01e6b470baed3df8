"""Multiplier bootstrap for the max-norm of re-solved location estimates.

Each replicate multiplies the centered observations by independent random
signs and records the scaled max-norm of the re-estimated center (spatial
median target) or of the perturbed average (mean target).  A batch of
replicates reads all its signs from the raw bits of the one (seed, namespace)
substream (:func:`geomedian.streams.rademacher`), replicate b at an offset
fixed by b and n, so replicate b's signs depend only on (seed, namespace, b).
Its solved center does not depend on the batch either: every matrix product
runs on fixed slabs of ``_PRODUCT_ROWS`` rows with replicate b in slot
b % ``_PRODUCT_ROWS`` (see ``estimator._solve_batch``).  So replicate b's
statistic is a function of (sample, fit, seed, namespace, b) alone, and
B = 200 gives the first 200 statistics of B = 400 bit for bit.

That lets a sample keep its draws.  ``Sample._draws`` holds the namespace,
seed and statistics of the last bootstrap on the sample; a later call at the
same namespace and seed returns a prefix of them, or solves only the
replicates past their end and stores the longer array.  A global test
(B = 200) then intervals (B = 400) at one seed thus solve 400 replicates.
Only the sample's own fit (``Sample._fit``) uses the memo.

Replicates are solved in fixed-size batches (a constant independent of the
worker count) so the arithmetic performed for a given (inputs, B, seed)
never depends on scheduling.  When the dimension exceeds the sample size
(p > n) the spatial-median replicates iterate in span coordinates over the
Gram matrix of the residuals, otherwise in R^p; either way the coordinates
are built once per call that has replicates to solve.  The choice depends
only on the input's shape.
"""

from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import DidNotConverge, InvalidLevel, InvalidScenario, TooFewDraws
from .estimator import (
    _MEMO_LOCK,
    SolverConfig,
    SpatialMedianFit,
    _PointCoords,
    _slabs,
    _solve_batch,
    _SpanCoords,
)
from .streams import NS_BOOT_MEAN, NS_BOOT_MEDIAN, rademacher

# Replicates solved together, the unit of work of the worker threads.
_BATCH = 256

# Rows of every replicate product (see estimator._solve_batch): replicate b
# sits in slot b % _PRODUCT_ROWS, whatever batch solves it.  Chosen by
# measurement (2 vCPU, OpenBLAS 0.3.31, 2 threads): 8-row slabs re-read the
# right-hand matrix too often (the 100 x 2000 mapping to R^p costs twice a
# plain product), and larger slabs pad more (B = 200 fills 208 rows here,
# 224 at 32 and 256 at 64 or more).
_PRODUCT_ROWS = 16

# Replicates only feed the law of a max-norm (Chernozhukov, Chetverikov &
# Kato 2013), so they stop at a coarser iterate change than fits.  grad_tol
# stays at the fits' value: every replicate still meets the scale-free
# estimating-equation bound ||R|| <= n * grad_tol, which is what binds on
# typical samples (tol = 1e-4 .. 1e-6 stop at the same sweep).
_REPLICATE_CONFIG = SolverConfig(tol=1e-6, product_rows=_PRODUCT_ROWS)


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
    # imported here: concurrent.futures (and the logging it loads) would
    # otherwise cost every process that never starts a pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(func, item) for item in items]:
            future.result()


def _multiplier_bootstrap(
    sample: Sample, solver, namespace: int, B: int, seed: int, workers: int, memo: bool = True
) -> BootstrapDraws:
    """Run B sign-multiplier replicates through ``solver()(signs, first) -> centers``.

    ``solver()`` builds a function that maps the sign rows of replicates
    first, first + 1, ... (one row of n signs per replicate) to their
    centers.  Replicate b takes row b of the counter-based sign stream keyed
    by (seed, namespace) and records sqrt(n) * max|center_b|.

    With ``memo``, the sample keeps the statistics of its last bootstrap
    (``Sample._draws``).  A call at the same (namespace, seed) returns a
    prefix of them, or solves only the replicates past their end and stores
    the longer array; ``solver`` is not even built when nothing is left to
    solve.  A raise stores nothing.
    """
    if B < 1:
        raise InvalidScenario("B must be >= 1")
    n = sample.n
    key = (namespace, int(seed))
    known = np.empty(0)
    if memo and sample._draws is not None and sample._draws[0] == key:
        known = sample._draws[1]
    if known.size >= B:
        return BootstrapDraws(stats=known[:B], n_obs=n)
    root_n = np.sqrt(n)
    stats = np.empty(B)
    stats[: known.size] = known
    solve = solver()

    def run_batch(span):
        lo, hi = span
        signs = rademacher(seed, namespace, lo, hi - lo, n)
        try:
            centers = solve(signs, lo)
        except DidNotConverge as err:
            raise DidNotConverge(
                err.iterations, err.grad_norm, replicate=lo + (err.replicate or 0)
            ) from err
        # max|c| without an |centers| temporary; abs keeps +0.0 for a row of
        # zeros whose max(max, -min) may come out as -0.0
        peak = np.maximum(centers.max(axis=1), -centers.min(axis=1))
        stats[lo:hi] = root_n * np.abs(peak)

    spans = [(lo, min(lo + _BATCH, B)) for lo in range(known.size, B, _BATCH)]
    _parallel_map(run_batch, spans, workers)
    stats.flags.writeable = False
    if memo:
        with _MEMO_LOCK:
            last = sample._draws
            if last is None or last[0] != key or last[1].size < B:
                object.__setattr__(sample, "_draws", (key, stats))
    return BootstrapDraws(stats=stats, n_obs=n)


def bootstrap_spatial_median(
    sample: Sample, fit: SpatialMedianFit, B: int, seed: int, workers: int = 1
) -> BootstrapDraws:
    """Re-solve the spatial median of sign-multiplied residuals, B times.

    Replicate b minimizes sum_i ||Z_i (X_i - theta_hat) - beta|| with fresh
    random signs Z and records sqrt(n) * max|beta|.  Replicates stop at
    ``tol = 1e-6`` under the fits' residual certificate
    (``_REPLICATE_CONFIG``).  A replicate that fails to converge raises
    DidNotConverge carrying its index.  Only the sample's own fit
    (``sample._fit``) shares draws through the sample's memo.
    """

    def solver():
        # replicates start at the origin, the center of the sign-symmetric
        # replicate law, so with p > n they can iterate in the n-dimensional
        # span of the residuals; the coordinates (and with them the Gram
        # matrix) are built once and shared by the batches
        coords = (_SpanCoords if sample.p > sample.n else _PointCoords)(sample.values - fit.theta_hat)
        return lambda signs, first: _solve_batch(coords, signs, _REPLICATE_CONFIG, first)[0]

    memo = fit is sample._fit
    return _multiplier_bootstrap(sample, solver, NS_BOOT_MEDIAN, B, seed, workers, memo)


def bootstrap_mean(sample: Sample, B: int, seed: int, workers: int = 1) -> BootstrapDraws:
    """Multiplier bootstrap for the sample mean.

    Replicate b records sqrt(n) * max|mean_i Z_i (X_i - xbar)|.  The product
    runs on the replicate solver's fixed slabs, so replicate b's bits do not
    depend on B either.
    """

    def solver():
        centered = sample.values - sample.values.mean(axis=0)

        def solve(signs, first):
            laid, lead = _slabs(signs, _PRODUCT_ROWS, first)
            prod = laid.reshape(-1, _PRODUCT_ROWS, sample.n) @ centered
            prod /= sample.n
            return prod.reshape(-1, sample.p)[lead : lead + signs.shape[0]]

        return solve

    return _multiplier_bootstrap(sample, solver, NS_BOOT_MEAN, B, seed, workers)


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

