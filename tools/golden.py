"""Print one sha256 per entry of a fixed corpus of geomedian outputs.

A change meant to keep every output byte-identical is checked by running this
script on both commits, on one machine, and diffing the two listings:

    python tools/golden.py > change.txt
    (in a checkout of the parent commit) python tools/golden.py > parent.txt
    diff parent.txt change.txt

Group names (cli, solver, scale, highdim, shared, outlier, simdata) as
arguments print only those groups, in the order given.  Running each group
in its own process and concatenating the listings must reproduce the
one-process listing: an entry whose digest depends on state an earlier call
left behind (a solver workspace, a sample memo) fails that check.

    for g in cli solver scale highdim shared outlier simdata; do python tools/golden.py $g; done

The script imports geomedian from the ``src/`` next to it, so each checkout
measures its own code.  Digests depend on the machine, numpy and the BLAS
build, so none are recorded; only the diff between two runs means anything.

The corpus:

- ``cli/...``: the CLI subcommands on generated inputs (100x1000 t3, 40x10
  AR(1) sparse3, 20x60 Laplace log_sparse, 1x4 Gaussian), and ``simulate`` in
  csv and json for coverage (p > n and p < n), size_power with all four
  tests, fdr and are.  An entry hashes the exit code, stdout and stderr, so
  a changed error is a changed digest.
- ``solver/...``: fits, gmom, the statistics of both bootstraps and direct
  batched solves (``_solve_batch`` from the origin, in R^p and in span
  coordinates, which hash the replicate centres; the ``_lead5`` ones on
  16-row slabs with zero rows before and after the batch) on small inputs
  that reach every solver rescue.
- ``scale/...``: a fit and intervals on one sample scaled and shifted to
  extreme magnitudes.
- ``highdim/...``: a global test then intervals on one sample at n = 100,
  p = 2000, AR(1) rho = 0.8, Gaussian and t3.
- ``shared/...``: a global test (B = 200) then intervals (B = 400) on one
  sample at one seed, so the intervals reuse the test's 200 replicates
  through the sample's draws memo; a p > n (span) and a p < n (R^p) input.
  ``shared/two_seeds/...`` adds a test at the next seed on the same sample:
  the draws memo misses there and the coordinates memo hits.
- ``outlier/...``: a fit and a bootstrap on a t3 30x200 sample whose row 0
  is scaled by 1e4, which the solver's unit must not follow.
- ``simdata/draw/...``: the bytes of ``draw`` itself, for each model at
  40x10 with rho = 0 and for a 40x10 AR(1) rho = 0.5 Gaussian.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402

from geomedian import bootstrap, estimator, inference, simdata  # noqa: E402
from geomedian.cli import main as cli_main  # noqa: E402
from geomedian.data import ar1_shape, validate_sample  # noqa: E402
from geomedian.errors import GeomedianError  # noqa: E402

WORKERS = "2"
# the subcommands that take --workers (the others have no bootstrap to split)
TAKES_WORKERS = {"sci", "test", "are", "simulate"}

CLI_INPUTS = {
    "t3_100x1000": {"model": "student_t", "df": 3.0, "n": 100, "p": 1000, "seed": 11},
    "ar1_40x10": {"model": "gaussian", "rho": 0.5, "n": 40, "p": 10, "seed": 12,
                  "theta": {"kind": "sparse3"}},
    "laplace_20x60": {"model": "laplace", "n": 20, "p": 60, "seed": 13,
                      "theta": {"kind": "log_sparse", "kappa": 2.0, "c0": 1.0}},
    "gauss_1x4": {"model": "gaussian", "n": 1, "p": 4, "seed": 14},
}

CLI_COMMANDS = {
    "estimate": ["estimate"],
    "gmom": ["gmom", "--blocks", "5", "--seed", "3"],
    "sci_median": ["sci", "--method", "median", "--boot", "200", "--seed", "4"],
    "sci_mean": ["sci", "--method", "mean", "--boot", "200", "--seed", "4"],
    "test_median": ["test", "--method", "median", "--boot", "200", "--seed", "5"],
    "test_mean": ["test", "--method", "mean", "--boot", "200", "--seed", "5"],
    "test_wpl": ["test", "--method", "wpl"],
    "test_cq": ["test", "--method", "cq"],
    "fdr_json": ["fdr", "--alpha", "0.1"],
    "fdr_csv": ["fdr", "--alpha", "0.1", "--format", "csv"],
    "are": ["are", "--boot", "200", "--seed", "6"],
}

SCENARIOS = {
    "coverage_p_gt_n": {"experiment": "coverage", "model": "student_t", "df": 3.0, "n": 20,
                        "p": 60, "theta": {"kind": "sparse3"}, "replications": 8, "B": 60,
                        "levels": [0.9, 0.95], "seed": 21},
    "coverage_p_lt_n": {"experiment": "coverage", "rho": 0.5, "n": 30, "p": 6,
                        "replications": 8, "B": 60, "levels": [0.9], "seed": 22},
    "size_power": {"experiment": "size_power", "n": 20, "p": 30, "replications": 6, "B": 60,
                   "levels": [0.05, 0.1], "seed": 23, "kappa_grid": [0.0, 2.0], "c0": 1.0,
                   "methods": ["median", "mean", "wpl", "cq"]},
    "fdr": {"experiment": "fdr", "model": "laplace", "n": 30, "p": 40,
            "theta": {"kind": "ten_percent"}, "replications": 8, "levels": [0.05, 0.1],
            "seed": 24},
    "are": {"experiment": "are", "model": "student_t", "df": 5.0, "n": 20, "p": 10,
            "replications": 12, "seed": 25, "p_grid": [5, 10], "n_grid": [15, 20]},
}

DRAWS = {
    "gaussian": ("gaussian", None, "covariance", 0.0),
    "t3_covariance": ("student_t", 3.0, "covariance", 0.0),
    "t5_scale": ("student_t", 5.0, "scale", 0.0),
    "laplace": ("laplace", None, "covariance", 0.0),
    "ar1_rho0.5": ("gaussian", None, "covariance", 0.5),
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _entry(func) -> str:
    """Digest of the parts func() returns, or of the GeomedianError it raises."""
    try:
        return _digest(*func())
    except GeomedianError as exc:
        return _digest(type(exc).__name__, str(exc))


def cli_entries():
    with tempfile.TemporaryDirectory() as work:
        for name, config in CLI_INPUTS.items():
            config_path = os.path.join(work, f"{name}.json")
            data_path = os.path.join(work, f"{name}.csv")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            code, out, err = _cli(["generate", "--config", config_path, "--out", data_path])
            with open(data_path, "rb") as fh:
                yield f"cli/generate/{name}", _digest(code, out, err, fh.read())
            for label, args in CLI_COMMANDS.items():
                workers = ["--workers", WORKERS] if args[0] in TAKES_WORKERS else []
                yield f"cli/{label}/{name}", _digest(*_cli(args + ["--in", data_path] + workers))
        for name, scenario in SCENARIOS.items():
            config_path = os.path.join(work, f"scenario_{name}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
            for fmt in ("csv", "json"):
                argv = ["simulate", "--config", config_path, "--format", fmt, "--workers", WORKERS]
                yield f"cli/simulate_{fmt}/{name}", _digest(*_cli(argv))


def _solver_inputs():
    rng = np.random.default_rng(31)
    gauss = rng.standard_normal((50, 5))
    t3 = rng.standard_t(3.0, (100, 100))
    e = rng.standard_normal((40, 300))
    ar1 = e.copy()
    for j in range(1, 300):
        ar1[:, j] = 0.8 * ar1[:, j - 1] + 0.6 * e[:, j]

    def zero_and_repeat(p, repeats):
        x = rng.standard_normal((12, p))
        x[:2] = 0.0
        x[2:2 + repeats] = x[2]
        return x

    angles = 2.0 * np.pi * np.arange(6) / 6.0
    star = np.vstack([np.zeros(2), np.column_stack([np.cos(angles), np.sin(angles)])])
    mirror = np.vstack([gauss[:10], -gauss[:10]])
    line = np.outer(np.arange(9.0) - 2.0, [1.0, -2.0, 0.5])
    grid = np.array([[i, j] for i in range(4) for j in range(3)], dtype=np.float64)
    return {
        "gauss_50x5": gauss,
        "t3_100x100": t3,
        "ar1_40x300": ar1,
        "zero_repeat8_12x25": zero_and_repeat(25, 8),
        "zero_repeat8_12x8": zero_and_repeat(8, 8),
        "zero_repeat6_12x150": zero_and_repeat(150, 6),
        "offset_1e6": gauss[:30] + 1e6,
        "scale_1e-15": gauss[:30] * 1e-15,
        "scale_1e8": gauss[:30] * 1e8,
        "mirror": mirror,
        "vertex_star": star,
        "collinear": line,
        "constant_rows": np.tile([1.5, -2.0, 0.25], (7, 1)),
        "one_row": gauss[:1],
        "integer_grid": grid,
    }


def _fit_parts(fit):
    return (fit.theta_hat, fit.iterations, fit.objective, fit.grad_norm, fit.zeta1_hat, fit.b_diag_hat)


def _draws_parts(draws):
    # replicate centres are hashed by the solver/batch_* entries
    return (draws.stats,)


def _band_parts(band):
    return (band.lower, band.upper, band.q_boot)


def solver_entries():
    cfg = estimator.SolverConfig()
    # slabs of the bootstrap's width: 37 rows from replicate 5 leave 5 zero
    # rows before them and 6 after
    slab_cfg = estimator.SolverConfig(product_rows=bootstrap._PRODUCT_ROWS)
    for name, x in _solver_inputs().items():
        sample = validate_sample(x)
        n, p = x.shape
        yield f"solver/spatial_median/{name}", _entry(lambda: _fit_parts(estimator.spatial_median(sample)))
        yield f"solver/gmom/{name}", _entry(lambda: (estimator.gmom(sample, min(4, n), seed=7),))
        yield f"solver/bootstrap_mean/{name}", _entry(
            lambda: _draws_parts(bootstrap.bootstrap_mean(sample, 64, 8)))
        try:
            fit = estimator.spatial_median(sample)
        except GeomedianError:
            continue
        for B in (64, 300):
            yield f"solver/bootstrap_median_B{B}/{name}", _entry(lambda: _draws_parts(
                bootstrap.bootstrap_spatial_median(sample, fit, B, 8, workers=2)))
        signs = np.where(np.random.default_rng(9).random((48, n)) < 0.5, -1.0, 1.0)
        yield f"solver/batch_point/{name}", _entry(lambda: estimator._solve_batch(
            estimator._PointCoords(x - fit.theta_hat), signs, cfg))
        yield f"solver/batch_span/{name}", _entry(lambda: estimator._solve_batch(
            estimator._SpanCoords(x - fit.theta_hat), signs, cfg))
        yield f"solver/batch_point_lead5/{name}", _entry(lambda: estimator._solve_batch(
            estimator._PointCoords(x - fit.theta_hat), signs[:37], slab_cfg, first=5))
        yield f"solver/batch_span_lead5/{name}", _entry(lambda: estimator._solve_batch(
            estimator._SpanCoords(x - fit.theta_hat), signs[:37], slab_cfg, first=5))


def scale_entries():
    base = np.random.default_rng(41).standard_normal((30, 5))
    probes = {"x1e-15": base * 1e-15, "x1e-8": base * 1e-8, "plus1e6": base + 1e6,
              "plus1e12": base + 1e12, "x1e150": base * 1e150, "x1e200": base * 1e200}
    for name, x in probes.items():
        sample = validate_sample(x)
        yield f"scale/spatial_median/{name}", _entry(lambda: _fit_parts(estimator.spatial_median(sample)))
        yield f"scale/sci/{name}", _entry(lambda: _band_parts(inference.sci(sample, 0.9, 200, 42)))


def highdim_entries():
    n, p, rho = 100, 2000, 0.8
    rng = np.random.default_rng(51)
    for name, df in (("gaussian", None), ("t3", 3.0)):
        e = rng.standard_normal((n, p))
        x = e.copy()
        for j in range(1, p):
            x[:, j] = rho * x[:, j - 1] + np.sqrt(1.0 - rho * rho) * e[:, j]
        if df is not None:
            x *= np.sqrt(df / rng.chisquare(df, n))[:, None]
        sample = validate_sample(x)
        test = inference.global_test_median(sample, np.zeros(p), 0.05, 200, 52, workers=1)
        band = inference.sci(sample, 0.9, 400, 52, workers=1)
        yield f"highdim/global_test_median/{name}", _digest(json.dumps(test.to_json(), sort_keys=True))
        yield f"highdim/sci/{name}", _digest(json.dumps(band.to_json(), sort_keys=True))


def shared_entries():
    rng = np.random.default_rng(53)
    inputs = {"span_t3_30x120": rng.standard_t(3.0, (30, 120)), "point_gauss_60x10": rng.standard_normal((60, 10))}
    for name, x in inputs.items():
        sample = validate_sample(x)
        test = inference.global_test_median(sample, np.zeros(x.shape[1]), 0.05, 200, 54)
        band = inference.sci(sample, 0.9, 400, 54)
        yield f"shared/test_then_sci/{name}", _digest(json.dumps([test.to_json(), band.to_json()], sort_keys=True))
    for name, x in (("span", inputs["span_t3_30x120"]), ("point", inputs["point_gauss_60x10"])):
        sample = validate_sample(x)
        theta0 = np.zeros(x.shape[1])
        outputs = [inference.global_test_median(sample, theta0, 0.05, 200, 55).to_json(),
                   inference.sci(sample, 0.9, 400, 55).to_json(),
                   inference.global_test_median(sample, theta0, 0.05, 200, 56).to_json()]
        yield f"shared/two_seeds/{name}", _digest(json.dumps(outputs, sort_keys=True))


def outlier_entries():
    x = np.random.default_rng(57).standard_t(3.0, (30, 200))
    x[0] *= 1e4
    sample = validate_sample(x)
    yield "outlier/spatial_median/t3_30x200_row0_x1e4", _entry(lambda: _fit_parts(estimator.spatial_median(sample)))
    yield "outlier/bootstrap_median_B200/t3_30x200_row0_x1e4", _entry(lambda: _draws_parts(
        bootstrap.bootstrap_spatial_median(sample, estimator.spatial_median(sample), 200, 58)))


def simdata_entries():
    n, p = 40, 10
    for name, (model, df, t_mode, rho) in DRAWS.items():
        spec = simdata.DistributionSpec(model, np.zeros(p), ar1_shape(p, rho), df=df, t_mode=t_mode)
        yield f"simdata/draw/{name}", _digest(simdata.draw(spec, n, 61).values)


GROUPS = {
    "cli": cli_entries,
    "solver": solver_entries,
    "scale": scale_entries,
    "highdim": highdim_entries,
    "shared": shared_entries,
    "outlier": outlier_entries,
    "simdata": simdata_entries,
}


def main(argv) -> int:
    names = argv or list(GROUPS)
    unknown = [name for name in names if name not in GROUPS]
    if unknown:
        print(f"unknown group(s) {', '.join(unknown)}; choose from {', '.join(GROUPS)}", file=sys.stderr)
        return 2
    for name in names:
        for label, digest in GROUPS[name]():
            print(f"{digest}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
