"""Declarative Monte Carlo experiment runner with deterministic aggregation.

A :class:`ScenarioSpec` describes a synthetic experiment (distribution, shape,
center pattern, sizes, replication counts, seed); the ``run_*`` operations
execute it and return a :class:`MetricsTable`.  Per-replication seeds derive
from (scenario seed, replication index), data and bootstrap streams derive
further, so methods compared "on the same sample" truly share the
sample and reruns reproduce every statistic bit-for-bit.

A replication's numbers come from the public procedures: coverage rows from
:func:`geomedian.inference.sci`, size/power rows from the global tests, one
call per method and level, and fdr rows from ``fdr_screen`` and ``bh_fdr``.
The sample keeps its fit and its last bootstrap, so every level after a
method's first re-solves nothing.

Replications may run on several worker threads; results land in arrays
indexed by replication, and aggregation is a deterministic fold over index
order, so the worker count never affects the output.

Defaults are desk scale (500 replications, 200 bootstrap replicates); pass
``replications=2500, B=400`` for full-scale runs.
"""

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .bootstrap import _parallel_map
from .data import ar1_shape
from .errors import GeomedianError, InvalidScenario
from .estimator import spatial_median
from .inference import (
    _BOOT_METHODS,
    _TEST_METHODS,
    _global_test,
    _mean_t_p_values,
    bh_fdr,
    fdr_screen,
    sci,
)
from .simdata import (
    MODEL_GAUSSIAN,
    MODELS,
    T_MODE_SCALE,
    DistributionSpec,
    ThetaPattern,
    _check_json_fields,
    draw,
    theta_vector,
)
from .streams import NS_HARNESS, child_seed

EXPERIMENT_COVERAGE = "coverage"
EXPERIMENT_SIZE_POWER = "size_power"
EXPERIMENT_FDR = "fdr"
EXPERIMENT_ARE = "are"
EXPERIMENTS = (EXPERIMENT_COVERAGE, EXPERIMENT_SIZE_POWER, EXPERIMENT_FDR, EXPERIMENT_ARE)

# The documented report schema.  Key columns first, then metrics.
COLUMNS = (
    "scenario",
    "experiment",
    "model",
    "rho",
    "n",
    "p",
    "level",
    "method",
    "kappa",
    "coverage",
    "median_length",
    "size",
    "power",
    "fdr",
    "fdr_power",
    "are_ratio",
    "mc_stderr",
    "runtime_seconds",
)

_UNIT = ("coverage", "size", "power", "fdr", "fdr_power")


@dataclass(frozen=True)
class ScenarioSpec:
    """A synthetic experiment description; serializable to/from JSON."""

    experiment: str
    model: str = MODEL_GAUSSIAN
    rho: float = 0.0
    df: float | None = None
    # published benchmark tables behave like the classical scale-matrix t
    t_mode: str = T_MODE_SCALE
    n: int = 100
    p: int = 100
    theta: ThetaPattern = field(default_factory=lambda: ThetaPattern("zero"))
    replications: int = 500
    B: int = 200
    levels: tuple = (0.9,)
    seed: int = 0
    name: str = ""
    # experiment-specific knobs: the size_power signal grid, sparsity and
    # tests, and the are (n, p) grid; each run_* reads them only from here
    kappa_grid: tuple | None = None
    c0: float = 0.5
    methods: tuple = ("median", "mean", "wpl")
    p_grid: tuple | None = None
    n_grid: tuple | None = None
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidScenario(f"unknown experiment {self.experiment!r}")
        if self.model not in MODELS:
            raise InvalidScenario(f"unknown model {self.model!r}")
        if self.replications < 1:
            raise InvalidScenario("replications must be >= 1")
        if self.B < 1:
            raise InvalidScenario("B must be >= 1")
        if not self.levels or not all(0.0 < lv < 1.0 for lv in self.levels):
            raise InvalidScenario("levels must all lie in (0, 1)")
        if self.workers < 1:
            raise InvalidScenario("workers must be >= 1")

    def label(self) -> str:
        if self.name:
            return self.name
        tag = f"{self.model}-rho{self.rho:g}-n{self.n}-p{self.p}"
        return tag if self.df is None else f"{tag}-df{self.df:g}"


class MetricsTable:
    """Row container with the fixed :data:`COLUMNS` schema."""

    def __init__(self):
        self.rows: list[dict] = []

    def append(self, **values):
        row = {col: values.get(col) for col in COLUMNS}
        for col in _UNIT:
            v = row[col]
            if v is not None and not 0.0 <= v <= 1.0:
                raise InvalidScenario(f"{col}={v} outside [0, 1]")
        if row["mc_stderr"] is not None and row["mc_stderr"] < 0:
            raise InvalidScenario("mc_stderr must be >= 0")
        self.rows.append(row)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(table: MetricsTable, format: str = "csv") -> str:
    """Serialize a metrics table to csv, json, or markdown text."""
    if format == "csv":
        lines = [",".join(COLUMNS)]
        lines += [",".join(_format_cell(row[c]) for c in COLUMNS) for row in table.rows]
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps(table.rows, indent=2) + "\n"
    if format == "markdown":
        head = "| " + " | ".join(COLUMNS) + " |"
        rule = "|" + "|".join(" --- " for _ in COLUMNS) + "|"
        body = ["| " + " | ".join(_format_cell(row[c]) for c in COLUMNS) + " |" for row in table.rows]
        return "\n".join([head, rule, *body]) + "\n"
    raise InvalidScenario(f"unknown report format {format!r}")


def _bernoulli_stderr(rate: float, m: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / m))


def _row_key(spec: ScenarioSpec, n: int | None = None, p: int | None = None) -> dict:
    """The key columns every report row starts with."""
    return {
        "scenario": spec.label(),
        "experiment": spec.experiment,
        "model": spec.model,
        "rho": spec.rho,
        "n": spec.n if n is None else n,
        "p": spec.p if p is None else p,
    }


def _distribution(spec: ScenarioSpec, theta: np.ndarray, p: int | None = None) -> DistributionSpec:
    shape = ar1_shape(p or spec.p, spec.rho)
    return DistributionSpec(model=spec.model, theta=theta, shape=shape, df=spec.df, t_mode=spec.t_mode)


def _run_replications(spec: ScenarioSpec, dist: DistributionSpec, n: int, key: tuple, body, workers: int | None):
    """Call ``body(r, sample, seed)`` for every replication r, optionally on several threads.

    Replication r's seed is ``child_seed(spec.seed, NS_HARNESS, *key, r)`` and
    its sample the n-row ``draw(dist, n, seed)``.  A library error keeps its
    type and attributes; its message gains the scenario label and replication.
    """

    def one(r):
        seed = child_seed(spec.seed, NS_HARNESS, *key, r)
        try:
            body(r, draw(dist, n, seed), seed)
        except GeomedianError as err:
            err.args = (f"scenario {spec.label()!r} replication {r}: {err}",)
            raise

    _parallel_map(one, range(spec.replications), workers if workers is not None else spec.workers)


def run_coverage(spec: ScenarioSpec, workers: int | None = None, include_runtime: bool = False) -> MetricsTable:
    """Simultaneous-interval coverage and width, spatial-median and mean methods.

    Both methods are evaluated on the same sample in every replication.  A
    replication covers when every coordinate of theta lies in its :func:`sci`
    interval; the width is ``2 * q_boot / sqrt(n)``.
    """
    if spec.experiment != EXPERIMENT_COVERAGE:
        raise InvalidScenario(f"run_coverage needs a coverage scenario, got {spec.experiment!r}")
    start = time.perf_counter()
    theta = theta_vector(spec.theta, spec.p, spec.n)
    dist = _distribution(spec, theta)
    m, n_levels = spec.replications, len(spec.levels)
    root_n = np.sqrt(spec.n)
    covered = np.zeros((m, n_levels, 2), dtype=bool)
    widths = np.zeros((m, n_levels, 2))

    def one(r, sample, seed):
        # levels inner: the sample keeps a method's draws until the next method
        for mi, method in enumerate(_BOOT_METHODS):
            for li, level in enumerate(spec.levels):
                band = sci(sample, level, spec.B, seed, method)
                covered[r, li, mi] = ((band.lower <= theta) & (theta <= band.upper)).all()
                widths[r, li, mi] = 2.0 * band.q_boot / root_n

    _run_replications(spec, dist, spec.n, (), one, workers)
    runtime = time.perf_counter() - start if include_runtime else None
    table = MetricsTable()
    for li, level in enumerate(spec.levels):
        for mi, method in enumerate(_BOOT_METHODS):
            rate = float(covered[:, li, mi].mean())
            table.append(
                **_row_key(spec),
                level=level,
                method=method,
                coverage=rate,
                median_length=float(np.median(widths[:, li, mi])),
                mc_stderr=_bernoulli_stderr(rate, m),
                runtime_seconds=runtime,
            )
    return table


def run_size_power(spec: ScenarioSpec, workers: int | None = None, include_runtime: bool = False) -> MetricsTable:
    """Rejection frequency of the global tests along a signal-strength grid.

    For each ``kappa`` in ``spec.kappa_grid`` (default ``(0.0,)``), signal
    vectors put ``kappa * sqrt(log(p)/n)`` on the first
    ``floor(spec.c0 * log p)`` coordinates; ``kappa = 0`` rows report size,
    others power.  All tests in ``spec.methods`` see the same sample in each
    replication.
    """
    if spec.experiment != EXPERIMENT_SIZE_POWER:
        raise InvalidScenario(f"run_size_power needs a size_power scenario, got {spec.experiment!r}")
    start = time.perf_counter()
    grid = spec.kappa_grid or (0.0,)
    methods = spec.methods
    unknown = set(methods) - set(_TEST_METHODS)
    if unknown:
        raise InvalidScenario(f"unknown test methods {sorted(unknown)}")
    theta0 = np.zeros(spec.p)
    m, n_levels = spec.replications, len(spec.levels)
    reject = {meth: np.zeros((len(grid), m, n_levels), dtype=bool) for meth in methods}

    for ki, kappa in enumerate(grid):
        pattern = ThetaPattern("log_sparse", kappa=kappa, c0=spec.c0)
        theta = theta_vector(pattern, spec.p, spec.n)

        def one(r, sample, seed, ki=ki):
            for meth in methods:
                reject[meth][ki, r] = [
                    _global_test(meth, sample, theta0, tau, spec.B, seed).reject for tau in spec.levels
                ]

        _run_replications(spec, _distribution(spec, theta), spec.n, (ki,), one, workers)

    runtime = time.perf_counter() - start if include_runtime else None
    table = MetricsTable()
    for ki, kappa in enumerate(grid):
        for li, tau in enumerate(spec.levels):
            for meth in methods:
                rate = float(reject[meth][ki, :, li].mean())
                table.append(
                    **_row_key(spec),
                    level=tau,
                    method=meth,
                    kappa=kappa,
                    size=rate if kappa == 0 else None,
                    power=None if kappa == 0 else rate,
                    mc_stderr=_bernoulli_stderr(rate, m),
                    runtime_seconds=runtime,
                )
    return table


def run_fdr(spec: ScenarioSpec, workers: int | None = None, include_runtime: bool = False) -> MetricsTable:
    """False-discovery proportion and power of the step-up screening.

    The spatial-median route uses studentized marginal statistics; the
    mean-based baseline uses ordinary t-statistics with normal p-values.
    ``spec.levels`` supplies the nominal FDR levels.
    """
    if spec.experiment != EXPERIMENT_FDR:
        raise InvalidScenario(f"run_fdr needs an fdr scenario, got {spec.experiment!r}")
    start = time.perf_counter()
    theta = theta_vector(spec.theta, spec.p, spec.n)
    signal = theta != 0.0
    n_signal = int(signal.sum())
    dist = _distribution(spec, theta)
    theta0 = np.zeros(spec.p)
    m, n_levels = spec.replications, len(spec.levels)
    fdp = np.zeros((m, n_levels, 2))
    tpp = np.zeros((m, n_levels, 2))

    def proportions(sel):
        """False-discovery and true-positive proportions of one selection."""
        hits = signal[sel.rejected].sum() if sel.k_hat else 0
        false = sel.k_hat - hits
        prop_false = false / max(sel.k_hat, 1)
        prop_hit = hits / n_signal if n_signal else np.nan
        return prop_false, prop_hit

    def one(r, sample, seed):
        # the sample memoises its fit, so levels after the first re-solve nothing
        for li, alpha in enumerate(spec.levels):
            fdp[r, li, 0], tpp[r, li, 0] = proportions(fdr_screen(sample, theta0, alpha))
        pv_mean = _mean_t_p_values(sample, theta0)
        for li, alpha in enumerate(spec.levels):
            fdp[r, li, 1], tpp[r, li, 1] = proportions(bh_fdr(pv_mean, alpha))

    _run_replications(spec, dist, spec.n, (), one, workers)
    runtime = time.perf_counter() - start if include_runtime else None
    table = MetricsTable()
    for li, alpha in enumerate(spec.levels):
        for mi, method in enumerate(("median", "mean")):
            mean_tpp = float(np.nanmean(tpp[:, li, mi])) if n_signal else None
            table.append(
                **_row_key(spec),
                level=alpha,
                method=method,
                fdr=float(fdp[:, li, mi].mean()),
                fdr_power=mean_tpp,
                mc_stderr=float(np.sqrt(fdp[:, li, mi].var(ddof=1) / m)) if m > 1 else 0.0,
                runtime_seconds=runtime,
            )
    return table


def _jackknife_ratio_stderr(x: np.ndarray, y: np.ndarray) -> float:
    """Delete-one stderr of var(x)/var(y) for paired series x, y."""
    m = x.size
    if m < 3:
        return 0.0

    def loo_var(series):
        s1, s2 = series.sum(), (series**2).sum()
        return ((s2 - series**2) - (s1 - series) ** 2 / (m - 1)) / (m - 2)

    ratios = loo_var(x) / loo_var(y)
    return float(np.sqrt((m - 1) / m * ((ratios - ratios.mean()) ** 2).sum()))


def run_are(spec: ScenarioSpec, workers: int | None = None, include_runtime: bool = False) -> MetricsTable:
    """Monte Carlo max-norm variance ratio of the mean to the spatial median.

    For every (n, p) pair of ``spec.n_grid`` x ``spec.p_grid`` (each defaults
    to the spec's own n or p), the ratio var|xbar - theta|_inf / var|theta_hat -
    theta|_inf is taken across replications.
    """
    if spec.experiment != EXPERIMENT_ARE:
        raise InvalidScenario(f"run_are needs an are scenario, got {spec.experiment!r}")
    start = time.perf_counter()
    p_values = spec.p_grid or (spec.p,)
    n_values = spec.n_grid or (spec.n,)
    if any(n < 2 for n in n_values):
        raise InvalidScenario("relative-efficiency runs need n >= 2 (variance of a single estimate is undefined)")
    if spec.replications < 2:
        raise InvalidScenario("relative-efficiency runs need >= 2 replications")
    m = spec.replications
    table = MetricsTable()
    for ni, n in enumerate(n_values):
        for pi, p in enumerate(p_values):
            theta = theta_vector(spec.theta, p, n)
            med_stat = np.zeros(m)
            mean_stat = np.zeros(m)

            def one(r, sample, seed, theta=theta, med_stat=med_stat, mean_stat=mean_stat):
                med_stat[r] = np.abs(spatial_median(sample).theta_hat - theta).max()
                mean_stat[r] = np.abs(sample.values.mean(axis=0) - theta).max()

            _run_replications(spec, _distribution(spec, theta, p=p), n, (ni, pi), one, workers)
            table.append(
                **_row_key(spec, n=n, p=p),
                method="mc_ratio",
                are_ratio=float(mean_stat.var(ddof=1) / med_stat.var(ddof=1)),
                mc_stderr=_jackknife_ratio_stderr(mean_stat, med_stat),
                runtime_seconds=(time.perf_counter() - start) if include_runtime else None,
            )
    return table


_RUNNERS = {
    EXPERIMENT_COVERAGE: run_coverage,
    EXPERIMENT_SIZE_POWER: run_size_power,
    EXPERIMENT_FDR: run_fdr,
    EXPERIMENT_ARE: run_are,
}


def run_scenario(spec: ScenarioSpec, workers: int | None = None, include_runtime: bool = False) -> MetricsTable:
    """Dispatch a scenario to its experiment runner."""
    return _RUNNERS[spec.experiment](spec, workers=workers, include_runtime=include_runtime)


def scenario_from_json(obj: dict) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from its JSON object form."""
    # a scenario names its seed: no silent entropy
    required = ("experiment", "seed")
    _check_json_fields(obj, "scenario", [f.name for f in fields(ScenarioSpec)], required)
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value for key, value in obj.items() if key != "theta"
    }
    return ScenarioSpec(theta=ThetaPattern.from_json(obj.get("theta", {})), **kwargs)
