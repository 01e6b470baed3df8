"""The three benchmark workloads.

Each workload is a closed loop driven by one client: ``prepare(i)`` builds the
inputs of op i outside the timed region, ``op(inputs)`` is the timed call into
geomedian, ``output(result)`` gives the op's bytes (for the digest and the
rerun check) and ``check(i, result)`` returns None or the reason the op's
output is wrong.  The checks do not depend on the exact bits of the random
streams, so re-keying a stream keeps them passing.

Ops of a workload form a cycle (the samples or commands it rotates through);
a run stops only at a cycle boundary so every run has the same mix.

Library functions are always looked up on their module at call time
(``geomedian.harness.run_coverage``), so the tracer's wrappers see them.
"""

import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import replace

import numpy as np

import geomedian.data
import geomedian.estimator
import geomedian.harness
import geomedian.inference
import geomedian.simdata
from tracer import Tracer, empty_snapshot, merge

# Solver tolerance on the estimating-equation residual: the solver stops once
# ||sum_i (x_i - theta)/||x_i - theta|||| <= n * grad_tol.
GRAD_TOL = geomedian.estimator.SolverConfig().grad_tol


def op_seed(seed: int, i: int) -> int:
    """Seed of op i: distinct per op, reproducible from the run seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def ee_residual(x: np.ndarray, theta: np.ndarray) -> float:
    """Norm of the spatial-median estimating equation, in plain numpy."""
    diff = x - theta
    norms = np.sqrt((diff * diff).sum(axis=1))
    return float(np.linalg.norm((diff / norms[:, None]).sum(axis=0)))


def residual_problem(x: np.ndarray, theta) -> str | None:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (x.shape[1],) or not np.isfinite(theta).all():
        return "center is not a finite vector of length p"
    resid = ee_residual(x, theta)
    if not resid <= x.shape[0] * GRAD_TOL:
        return f"estimating-equation residual {resid:.3e} above {x.shape[0] * GRAD_TOL:.1e}"
    return None


def sci_problem(x: np.ndarray, payload: dict) -> str | None:
    """Finite, positive, common-width intervals centred on a solved median."""
    bounds = np.asarray(payload["intervals"], dtype=np.float64)
    q = payload["q_boot"]
    if bounds.shape != (x.shape[1], 2) or not np.isfinite(bounds).all():
        return "intervals are not p finite pairs"
    widths = bounds[:, 1] - bounds[:, 0]
    expected = 2.0 * q / math.sqrt(x.shape[0])
    if not (math.isfinite(q) and q > 0 and (widths > 0).all()):
        return "quantile or widths not finite and positive"
    if not np.allclose(widths, expected, rtol=1e-9, atol=0.0):
        return "widths differ from 2 q / sqrt(n)"
    return residual_problem(x, bounds.mean(axis=1))


def median_test_problem(x: np.ndarray, theta_hat: np.ndarray, payload: dict) -> str | None:
    """Statistic sqrt(n) max|theta_hat - 0|, positive critical value, p in [0, 1]."""
    stat, crit, pval = payload["statistic"], payload["critical_value"], payload["p_value"]
    expected = math.sqrt(x.shape[0]) * float(np.abs(theta_hat).max())
    if not math.isclose(stat, expected, rel_tol=1e-9):
        return f"statistic {stat!r} differs from sqrt(n) max|theta_hat| = {expected!r}"
    if not (math.isfinite(crit) and crit > 0 and 0.0 <= pval <= 1.0):
        return "critical value not positive or p-value outside [0, 1]"
    if payload["reject"] != (stat > crit):
        return "reject flag disagrees with statistic > critical value"
    return None


def reference_fit(x: np.ndarray) -> np.ndarray:
    """The spatial median of x, itself checked against the estimating equation."""
    theta = geomedian.estimator.spatial_median(geomedian.data.validate_sample(x)).theta_hat
    problem = residual_problem(x, theta)
    if problem is not None:
        raise RuntimeError(f"reference fit: {problem}")
    return np.array(theta)


def ar1_sample(rng: np.random.Generator, n: int, p: int, rho: float, df: float | None) -> np.ndarray:
    """Rows with AR(1) correlation rho^|j-l|: Gaussian, or multivariate t with df."""
    e = rng.standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = e[:, 0]
    innov = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + innov * e[:, j]
    if df is not None:
        x /= np.sqrt(rng.chisquare(df, size=(n, 1)) / df)
    return x


class Workload:
    """Defaults for an in-process workload traced by wrapping library calls."""

    name = ""
    cycle = 1  # ops per cycle
    digest_ops = 4  # ops whose bytes form the output digest

    def __init__(self, seed: int):
        self.seed = seed
        self._tracer = None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def keep(self, result):
        """What :meth:`finish` needs of a passed op's result."""
        return None

    def finish(self, results) -> str | None:
        """Pooled check over (i, keep(result)) of every op that passed its own check."""
        return None

    def trace_begin(self):
        self._tracer = Tracer()
        self._tracer.install()

    def trace_end(self):
        """Stop tracing; returns (span aggregates, every name restored, child import times)."""
        restored = self._tracer.restore()
        snapshot = self._tracer.snapshot()
        self._tracer = None
        return snapshot, restored, []


class McCoverage(Workload):
    """Desk-scale coverage study: run_coverage on a small block per op."""

    name = "mc_coverage"
    replications = 5  # per op
    levels = (0.9, 0.95)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = geomedian.harness.ScenarioSpec(
            experiment="coverage",
            model="student_t",
            df=3.0,
            rho=0.0,
            n=100,
            p=100,
            theta=geomedian.simdata.ThetaPattern("sparse3"),
            replications=self.replications,
            B=200,
            levels=self.levels,
            seed=0,
            workers=1,
        )

    def prepare(self, i):
        return replace(self.spec, seed=op_seed(self.seed, i))

    def op(self, spec):
        return geomedian.harness.run_coverage(spec, workers=1)

    def output(self, table) -> bytes:
        return geomedian.harness.emit_report(table, "csv").encode()

    def keep(self, table):
        return table

    def check(self, i, table):
        rows = table.rows
        keys = [(row["level"], row["method"]) for row in rows]
        if keys != [(lv, m) for lv in self.levels for m in ("median", "mean")]:
            return f"unexpected rows {keys}"
        for row in rows:
            width = row["median_length"]
            if not (math.isfinite(width) and width > 0):
                return f"{row['method']} width {width!r} not finite and positive"
            if not 0.0 <= row["coverage"] <= 1.0:
                return "coverage outside [0, 1]"
        return None

    def finish(self, results):
        """Pooled median-method coverage lies in a wide window around nominal."""
        if not results:
            return None
        m = len(results) * self.replications
        for level in self.levels:
            hits = sum(
                round(row["coverage"] * self.replications)
                for _, table in results
                for row in table.rows
                if row["level"] == level and row["method"] == "median"
            )
            rate = hits / m
            # five binomial standard errors plus 0.03 for finite-sample bias
            half = 0.03 + 5.0 * math.sqrt(level * (1.0 - level) / m)
            if abs(rate - level) > half:
                return f"pooled {level} coverage {rate:.3f} outside {level} +- {half:.3f} over {m} replications"
        return None


class HighdimTest(Workload):
    """One analyst call pair per op: a global test then simultaneous intervals, p >> n."""

    name = "highdim_test"
    n, p, rho = 100, 2000, 0.8
    models = (None, 3.0, None, 3.0)  # Gaussian, t3, Gaussian, t3
    cycle = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.data = [ar1_sample(rng, self.n, self.p, self.rho, df) for df in self.models]
        self.samples = [geomedian.data.validate_sample(x) for x in self.data]
        self.fits = [reference_fit(x) for x in self.data]
        self.theta0 = np.zeros(self.p)

    def prepare(self, i):
        k = i % len(self.samples)
        return k, op_seed(self.seed, i)

    def op(self, inputs):
        k, seed = inputs
        sample = self.samples[k]
        test = geomedian.inference.global_test_median(sample, self.theta0, 0.05, 200, seed, workers=1)
        sci = geomedian.inference.sci(sample, 0.9, 400, seed, workers=1)
        return k, test.to_json(), sci.to_json()

    def output(self, result) -> bytes:
        return json.dumps(result[1:], sort_keys=True).encode()

    def check(self, i, result):
        k, test, sci = result
        return median_test_problem(self.data[k], self.fits[k], test) or sci_problem(self.data[k], sci)


class CliOneshot(Workload):
    """One fresh ``python -m geomedian.cli`` process per op, cycling five commands."""

    name = "cli_oneshot"
    n, p = 100, 1000
    commands = (
        ("sci", "--boot", "400", "--level", "0.9"),
        ("test", "--method", "median"),
        ("test", "--method", "wpl"),
        ("fdr",),
        ("estimate",),
    )
    cycle = len(commands)
    digest_ops = len(commands)
    stochastic = {"sci", "test"}
    timeout_s = 120

    def __init__(self, seed: int, root: str, work: str):
        super().__init__(seed)
        self.root = root
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        self.x = ar1_sample(rng, self.n, self.p, 0.0, 3.0)
        self.csv = os.path.join(work, "sample.csv")
        with open(self.csv, "w", encoding="utf-8") as fh:
            for row in self.x:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        self.theta_hat = reference_fit(self.x)
        self.child = os.path.join(root, "perfbench", "cli_child.py")
        self.sidecar = os.path.join(work, "spans.json")
        self.traced = False
        self._trace = None
        self._restored = True
        self._imports = []

    def peak_rss_mb(self) -> float:
        # largest reaped child: the CLI processes dominate the import probes
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def prepare(self, i):
        cmd = self.commands[i % self.cycle]
        argv = [*cmd, "--in", self.csv]
        if cmd[0] in self.stochastic:
            argv += ["--seed", str(op_seed(self.seed, i))]
        if self.traced:
            return [sys.executable, self.child, self.sidecar, *argv]
        return [sys.executable, "-m", "geomedian.cli", *argv]

    def op(self, command):
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=self.root)
        try:
            out, err = proc.communicate(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        if self.traced:
            self._absorb_sidecar()
        return command, proc.returncode, out, err

    def _absorb_sidecar(self):
        try:
            with open(self.sidecar, encoding="utf-8") as fh:
                side = json.load(fh)
            os.remove(self.sidecar)
        except (OSError, ValueError):
            self._restored = False
            return
        merge(self._trace, side["trace"])
        self._restored = self._restored and side["restored"]
        self._imports.append(side["import_s"])

    def output(self, result) -> bytes:
        return result[2]

    def check(self, i, result):
        _, code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.decode(errors='replace')[-300:]}"
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        cmd = self.commands[i % self.cycle]
        if cmd[0] == "sci":
            return sci_problem(self.x, payload)
        if cmd == ("test", "--method", "median"):
            return median_test_problem(self.x, self.theta_hat, payload)
        if cmd[0] == "test":
            pval = payload["p_value"]
            if not (math.isfinite(payload["statistic"]) and 0.0 <= pval <= 1.0):
                return "statistic not finite or p-value outside [0, 1]"
            return None
        if cmd[0] == "fdr":
            pv = np.asarray(payload["p_values"], dtype=np.float64)
            if pv.shape != (self.p,) or not ((pv >= 0) & (pv <= 1)).all():
                return "p-values not p values in [0, 1]"
            if payload["k_hat"] != len(payload["rejected"]):
                return "k_hat differs from the number rejected"
            return None
        if payload["iterations"] < 1:
            return "no solver iterations reported"
        return residual_problem(self.x, payload["theta_hat"])

    def trace_begin(self):
        self.traced = True
        self._trace = empty_snapshot()
        self._restored = True
        self._imports = []

    def trace_end(self):
        self.traced = False
        return self._trace, self._restored, self._imports


WORKLOADS = {cls.name: cls for cls in (McCoverage, HighdimTest, CliOneshot)}

