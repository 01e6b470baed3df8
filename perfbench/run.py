"""geomedian benchmark: one workload per run, closed loop, one client.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the run times the
workload's ops for S seconds and reports the end-to-end metrics; with
``--trace 1`` it runs the ops untraced for S/2 seconds, replays the same ops
with the span tracer installed, checks that the replay's outputs are
byte-identical and that every wrapped name was restored, and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of stdout is the result as one JSON object.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
IMPORT_PROBES = 5  # fresh-interpreter imports per run; setup_s is their median
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> str:
    """Fix the settings a run inherits, as an installed package would see them.

    BLAS threads are set to the usable core count (OpenBLAS's own default)
    before numpy loads, src/ goes on PYTHONPATH, and bytecode is cached as an
    installed package's is, so that an inherited setting cannot change the
    run.  Child processes inherit all three.
    """
    count = str(len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = count
    os.environ["OMP_NUM_THREADS"] = count
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return count


def import_wall_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import geomedian.cli"], check=True, cwd=ROOT)
    return time.perf_counter() - start


def environment(threads: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and has no dict mode
        blas = {}
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "bytecode": "cached",
        "workers": "1 (library calls); CLI default --workers (os.cpu_count())",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
    }


class Loop:
    """Outcome of running ops through one workload."""

    def __init__(self):
        self.latencies = []
        # sha256 of each op's output bytes; results are not kept, so that the
        # run's memory does not grow with the number of ops
        self.outputs = []
        self.passed = []  # (i, wl.keep(result)) of ops that passed their check
        self.failed = 0
        self.wall = 0.0


def run_ops(wl, seconds=None, count=None) -> Loop:
    """Run ops 0, 1, ... until ``seconds`` have passed at a cycle boundary, or ``count`` ops."""
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if count is None and i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        inputs = wl.prepare(i)
        t0 = time.perf_counter()
        try:
            result = wl.op(inputs)
        except Exception:  # an op that raises is a failed op; the run goes on
            loop.latencies.append(time.perf_counter() - t0)
            loop.outputs.append(hashlib.sha256(b"").hexdigest())
            loop.failed += 1
            report(f"op {i} raised:\n{traceback.format_exc()}")
            i += 1
            continue
        loop.latencies.append(time.perf_counter() - t0)
        loop.outputs.append(hashlib.sha256(wl.output(result)).hexdigest())
        try:
            problem = wl.check(i, result)
        except Exception:  # output too malformed to check, e.g. a missing field
            problem = f"check raised:\n{traceback.format_exc()}"
        if problem is None:
            loop.passed.append((i, wl.keep(result)))
        else:
            loop.failed += 1
            report(f"op {i} failed its check: {problem}")
        i += 1
    loop.wall = time.perf_counter() - start
    return loop


def report(line: str):
    print(line, file=sys.stderr, flush=True)


def tail(latencies):
    """(percentile, value, samples beyond): the highest whole percentile leaving TAIL_BEYOND above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1], 0
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    idx = max(math.ceil(pct * n / 100) - 1, 0)
    return pct, ordered[idx], n - 1 - idx


def digest(outputs) -> str:
    """One sha256 over a sequence of per-op output digests."""
    return hashlib.sha256("".join(outputs).encode()).hexdigest()


def layer_metrics(snapshot, wall, import_s) -> dict:
    from tracer import LAYERS

    values = {}
    for name, agg in snapshot["stats"].items():
        for key, value in agg.items():
            values[f"{name}.{key}"] = value
    for layer in LAYERS:
        values[f"{layer}.share"] = snapshot["layer_busy"].get(layer, 0.0) / wall
    values["cli.import_s"] = import_s
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geomedian", "cli.py")):
        report(f"geomedian sources not found under {SRC}; run from a repository checkout")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        report(f"unknown workload {args.workload!r}")
        return 2
    threads = pin_environment()
    import_wall_s()  # writes the bytecode cache in a fresh checkout; not timed

    # Timed in-process import of the CLI module before anything loads numpy.
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import geomedian.cli  # noqa: F401

    own_import_s = time.perf_counter() - start
    import workloads

    setup_s = statistics.median(import_wall_s() for _ in range(IMPORT_PROBES))

    work = os.path.join(ROOT, "perfbench", ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return run(args, spec, threads, setup_s, own_import_s, work, workloads)
    finally:
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still has its directory there
            pass


def run(args, spec, threads, setup_s, own_import_s, work, workloads) -> int:
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, ROOT, work) if cls is workloads.CliOneshot else cls(args.seed)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(threads), sort_keys=True))

    # Op 0 once before timing: warms caches, and its bytes must match the timed op 0.
    first = run_ops(wl, count=1)
    problems = []

    if args.trace:
        plain = run_ops(wl, seconds=args.seconds / 2)
        count = len(plain.latencies)
        wl.trace_begin()
        try:
            traced = run_ops(wl, count=count)
        finally:
            snapshot, restored, child_imports = wl.trace_end()
        loops = [plain, traced]
        same = digest(plain.outputs) == digest(traced.outputs)
        overhead = count / traced.wall - count / plain.wall
        print(f"selftest traced digest {'equals' if same else 'DIFFERS FROM'} untraced over {count} ops")
        print(f"selftest every wrapped name restored: {restored}")
        print(f"trace overhead {overhead:+.3f} ops/s ({count / plain.wall:.3f} untraced, {count / traced.wall:.3f} traced)")
        if not same:
            problems.append("traced outputs differ from untraced outputs")
        if not restored:
            problems.append("a wrapped name was not restored")
        import_s = statistics.median(child_imports) if child_imports else own_import_s
        values = layer_metrics(snapshot, traced.wall, import_s)
        values["tracer.overhead_ops_per_s"] = overhead
        wanted = spec["per_layer"]
    else:
        timed = run_ops(wl, seconds=args.seconds)
        loops = [timed]
        n = len(timed.latencies)
        pct, tail_s, beyond = tail(timed.latencies)
        values = {
            "setup_s": setup_s,
            "ops_per_s": n / timed.wall,
            "op_p50_s": statistics.median(timed.latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        wanted = spec["end_to_end"]
        print(f"setup_s {setup_s:.4f} s (median of {IMPORT_PROBES} fresh 'import geomedian.cli')")
        print(f"ops_per_s {values['ops_per_s']:.4f} 1/s ({n} ops in {timed.wall:.2f} s)")
        print(f"op_p50_s {values['op_p50_s']:.4f} s (n={n})")
        print(f"op_tail_s {tail_s:.4f} s (p{pct}, {beyond} samples beyond, n={n})")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        shown = timed.outputs[: wl.digest_ops]
        print(f"digest sha256 {digest(shown)} over the first {len(shown)} ops")

    main_loop = loops[0]
    if main_loop.passed and main_loop.passed[0][0] == 0 and first.outputs[0] != main_loop.outputs[0]:
        del main_loop.passed[0]
        main_loop.failed += 1
        report("op 0 rerun is not byte-identical to the timed op 0")
    pooled = wl.finish(main_loop.passed)
    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if pooled is not None:
        report(f"pooled check failed: {pooled}")
        failed = attempted
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            report(f"metric {m['name']} was not measured")
            return 3
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0 and not problems
    for problem in problems:
        report(f"selftest: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
