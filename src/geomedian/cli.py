"""Command-line front door.

Every stochastic subcommand requires an explicit seed (no silent entropy) and
is bit-deterministic across runs and worker counts.  Results are JSON on
stdout (or ``--out``); ``--format csv`` and ``--format markdown`` render
tabular views.  Exit codes: 0 success, 1 usage error, 2 computation error
(structured error JSON on stderr).
"""

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .data import _csv_text, ar1_shape, read_csv
from .errors import DimensionMismatch, GeomedianError
from .estimator import gmom, spatial_median
from .harness import emit_report, run_scenario, scenario_from_json
from .inference import (
    _BOOT_METHODS,
    _TEST_METHODS,
    _global_test,
    _require_plugin_scales,
    are_bootstrap,
    fdr_screen,
    sci,
)
from .simdata import T_MODE_COVARIANCE, DistributionSpec, ThetaPattern, _check_json_fields, draw, theta_vector


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="geomedian", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, *, data=False, seed=False, boot=False, level=False,
            alpha=False, method=None, null=False, blocks=False, config=False, scenario=False):
        cmd = sub.add_parser(name, help=help_text)
        if data:
            cmd.add_argument("--in", dest="input", required=True, help="input CSV, one observation per row")
        cmd.add_argument("--out", help="write the result here instead of stdout")
        if level:
            cmd.add_argument("--level", type=float, default=0.9, help="simultaneous confidence level")
        if alpha:
            cmd.add_argument("--alpha", type=float, help="significance / nominal FDR level")
        if boot:
            cmd.add_argument("--boot", type=int, default=400, help="bootstrap replicates (default 400)")
        if seed:
            cmd.add_argument("--seed", type=int, help="random seed (required when the command is stochastic)")
        if blocks:
            cmd.add_argument("--blocks", type=int, required=True, help="number of disjoint blocks")
        if method:
            cmd.add_argument("--method", choices=method, default=method[0])
        if null:
            cmd.add_argument("--null", default="zeros", help="'zeros' or a one-row CSV with the hypothesised center")
        if config:
            cmd.add_argument("--config", required=True, help="JSON experiment description")
        cmd.add_argument(
            "--workers", type=int, default=None if scenario else 1,
            help="worker threads for bootstrap batches and replications (default "
            + ("the scenario's 'workers' field" if scenario else "1")
            + "; output never depends on it)",
        )
        cmd.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
        return cmd

    add("estimate", "fit the spatial median of a CSV sample", data=True)
    add("gmom", "geometric median-of-means of a CSV sample", data=True, seed=True, blocks=True)
    add("sci", "simultaneous confidence intervals", data=True, seed=True, boot=True, level=True,
        method=_BOOT_METHODS)
    add("test", "global test of a hypothesised center", data=True, seed=True, boot=True, alpha=True,
        method=_TEST_METHODS, null=True)
    add("fdr", "coordinate-wise screening with FDR control", data=True, alpha=True, null=True)
    add("are", "bootstrap relative-efficiency estimate", data=True, seed=True, boot=True)
    add("generate", "draw a synthetic sample to CSV", seed=True, config=True)
    simulate = add("simulate", "run a Monte Carlo experiment", config=True, scenario=True)
    simulate.add_argument("--full-scale", action="store_true",
                          help="override desk-scale defaults with 2500 replications and B=400")
    simulate.add_argument("--timings", action="store_true",
                          help="include wall-clock runtime in the report (non-deterministic output)")
    return parser


def _require_seed(args):
    if getattr(args, "seed", None) is None:
        raise _UsageError(f"{args.subcommand} is stochastic: --seed is required")


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, np.ndarray):
        return [_jsonable(float(v)) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(args, payload: dict, csv_rows=None, csv_header=None) -> str:
    if args.format == "json":
        return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        if csv_rows is None:
            raise _UsageError(f"--format csv is not available for {args.subcommand}")
        lines = [",".join(csv_header)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in csv_rows]
        return "\n".join(lines) + "\n"
    flat = _jsonable(payload)
    lines = ["| field | value |", "| --- | --- |"]
    lines += [f"| {key} | {json.dumps(value)} |" for key, value in flat.items()]
    return "\n".join(lines) + "\n"


def _load_theta0(args, p: int) -> np.ndarray:
    """The hypothesised center: zeros, or the one row of the --null CSV.

    Its length is checked by the procedure it is passed to.
    """
    if args.null == "zeros":
        return np.zeros(p)
    rows = read_csv(args.null).values
    if rows.shape[0] != 1:
        raise DimensionMismatch(f"hypothesised center must be one CSV row, got {rows.shape[0]}")
    return rows[0]


def _cmd_estimate(args) -> str:
    sample = read_csv(args.input)
    fit = spatial_median(sample)
    _require_plugin_scales(fit)
    payload = {
        "theta_hat": fit.theta_hat,
        "iterations": fit.iterations,
        "objective": fit.objective,
        "grad_norm": fit.grad_norm,
        "zeta1_hat": fit.zeta1_hat,
        "b_diag_hat": fit.b_diag_hat,
    }
    rows = [[float(v)] for v in fit.theta_hat]
    return _render(args, payload, rows, ["theta_hat"])


def _cmd_gmom(args) -> str:
    _require_seed(args)
    sample = read_csv(args.input)
    center = gmom(sample, args.blocks, seed=args.seed)
    payload = {"gmom": center, "blocks": args.blocks, "seed": args.seed}
    return _render(args, payload, [[float(v)] for v in center], ["gmom"])


def _cmd_sci(args) -> str:
    _require_seed(args)
    sample = read_csv(args.input)
    result = sci(sample, args.level, args.boot, args.seed, method=args.method, workers=args.workers)
    rows = [[float(lo), float(hi)] for lo, hi in zip(result.lower, result.upper)]
    return _render(args, result.to_json(), rows, ["lower", "upper"])


def _cmd_test(args) -> str:
    sample = read_csv(args.input)
    theta0 = _load_theta0(args, sample.p)
    alpha = args.alpha if args.alpha is not None else 0.05
    if args.method in _BOOT_METHODS:
        _require_seed(args)
    result = _global_test(args.method, sample, theta0, alpha, args.boot, args.seed, workers=args.workers)
    row = [result.method, result.statistic, result.critical_value, result.p_value, int(result.reject)]
    return _render(args, result.to_json(), [row], ["method", "statistic", "critical_value", "p_value", "reject"])


def _cmd_fdr(args) -> str:
    sample = read_csv(args.input)
    theta0 = _load_theta0(args, sample.p)
    alpha = args.alpha if args.alpha is not None else 0.1
    result = fdr_screen(sample, theta0, alpha)
    rejected = set(int(j) for j in result.rejected)
    rows = [
        [j, float(result.t_stats[j]), float(result.p_values[j]), int(j in rejected)]
        for j in range(sample.p)
    ]
    return _render(args, result.to_json(), rows, ["index", "t_stat", "p_value", "rejected"])


def _cmd_are(args) -> str:
    _require_seed(args)
    sample = read_csv(args.input)
    report = are_bootstrap(sample, args.boot, args.seed, workers=args.workers)
    row = [report.are_estimate, report.model]
    return _render(args, report.to_json(), [row], ["are_estimate", "model"])


def _cmd_generate(args) -> str:
    with open(args.config, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    known = ("n", "p", "seed", "model", "rho", "df", "t_mode", "theta")
    _check_json_fields(obj, "generate", known, required=("n", "p"))
    seed = args.seed if args.seed is not None else obj.get("seed")
    if seed is None:
        raise _UsageError("generate is stochastic: provide --seed or a 'seed' field in the config")
    n, p = obj["n"], obj["p"]
    theta = theta_vector(ThetaPattern.from_json(obj.get("theta", {})), n=n, p=p)
    spec = DistributionSpec(
        model=obj.get("model", "gaussian"),
        theta=theta,
        shape=ar1_shape(p, float(obj.get("rho", 0.0))),
        df=obj.get("df"),
        t_mode=obj.get("t_mode", T_MODE_COVARIANCE),
    )
    return _csv_text(draw(spec, n, int(seed)).values)


def _cmd_simulate(args) -> str:
    with open(args.config, "r", encoding="utf-8") as fh:
        spec = scenario_from_json(json.load(fh))
    if args.full_scale:
        spec = replace(spec, replications=2500, B=400)
    table = run_scenario(spec, workers=args.workers, include_runtime=args.timings)
    return emit_report(table, args.format)


_COMMANDS = {
    "estimate": _cmd_estimate,
    "gmom": _cmd_gmom,
    "sci": _cmd_sci,
    "test": _cmd_test,
    "fdr": _cmd_fdr,
    "are": _cmd_are,
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers is not None and args.workers < 1:
            raise _UsageError("--workers must be >= 1")
        text = _COMMANDS[args.subcommand](args)
    except _UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 1
    except (GeomedianError, OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        payload = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2
    if text:
        _emit(args, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
