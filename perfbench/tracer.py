"""Span tracer that wraps geomedian's public functions from the outside.

Consumer modules import library functions by name (``bootstrap`` does
``from .streams import substream``), so wrapping ``geomedian.streams.substream``
alone would miss most calls.  :meth:`Tracer.install` therefore replaces every
attribute of every loaded ``geomedian`` module that *is* a traced function,
and :meth:`Tracer.restore` puts each original back.

Each call becomes a span.  A span's self time is its duration minus the part
of it covered by the spans of wrapped calls it made; child spans in other
threads (the bootstrap's worker pool) are attributed to the innermost open
span of the thread that installed the tracer, and their intervals are merged
before subtraction so that parallel children are not counted twice.
Aggregates are kept in memory and read out at the end.
"""

import importlib
import os
import sys
import threading
import time

# Layer modules, in the order metrics are reported.
LAYERS = ("streams", "simdata", "data", "estimator", "bootstrap", "inference", "harness", "cli")


# Traced functions ("<module>.<function>"), each with None or the extra
# counter it adds: (counter name, function of (args, kwargs, result)).
TARGETS = {
    "streams.substream": None,
    "streams.rademacher": None,
    "simdata.draw": None,
    "data.read_csv": ("bytes", lambda args, kwargs, result: os.path.getsize(args[0])),
    "estimator.spatial_median": ("iterations", lambda args, kwargs, result: result.iterations),
    "bootstrap.bootstrap_spatial_median": ("replicates", lambda args, kwargs, result: result.B),
    "bootstrap.bootstrap_mean": None,
    "bootstrap.quantile": None,
    "inference.sci": None,
    "inference.global_test_median": None,
    "inference.global_test_wpl": None,
    "inference.fdr_screen": None,
    "inference.marginal_stats": None,
    "inference.bh_fdr": None,
    "harness.run_coverage": None,
    "cli.main": None,
}

_MARK = "__perfbench_span__"


class _Span:
    __slots__ = ("name", "layer", "start", "children")

    def __init__(self, name, layer, start):
        self.name = name
        self.layer = layer
        self.start = start
        self.children = []


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


class Tracer:
    """Wraps :data:`TARGETS` in every loaded geomedian module while installed."""

    def __init__(self):
        self.stats = {}
        for name, extra in TARGETS.items():
            self.stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            if extra is not None:
                self.stats[name][extra[0]] = 0
        self.layer_busy = {layer: 0.0 for layer in LAYERS}
        self._patched = []  # (module, attribute, original)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = []
        self._root_thread = None

    def _stack(self):
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func, extra):
        layer = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root and stack is not root else None
            span = _Span(name, layer, time.perf_counter())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - span.start
                self_time = duration - _covered(span.children)
                with tracer._lock:
                    agg = tracer.stats[name]
                    agg["calls"] += 1
                    agg["busy_s"] += duration
                    agg["self_s"] += self_time
                    if parent is None or parent.layer != layer:
                        tracer.layer_busy[layer] += duration
                    if parent is not None:
                        parent.children.append((span.start, end))
            if extra is not None:
                key, count = extra
                value = count(args, kwargs, result)
                with tracer._lock:
                    agg[key] += value
            return result

        setattr(traced, _MARK, name)
        return traced

    def install(self):
        """Wrap every traced function wherever a geomedian module holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_thread = threading.get_ident()
        originals = {}
        for name in TARGETS:
            module, func = name.split(".")
            originals[name] = getattr(importlib.import_module(f"geomedian.{module}"), func)
        wrappers = {name: self._wrap(name, func, TARGETS[name]) for name, func in originals.items()}
        by_id = {id(func): name for name, func in originals.items()}
        for module in _geomedian_modules():
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is originals[name]:
                    setattr(module, attr, wrappers[name])
                    self._patched.append((module, attr, value))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(module, attr) is original for module, attr, original in self._patched)
        self._patched = []
        leftovers = [
            f"{module.__name__}.{attr}"
            for module in _geomedian_modules()
            for attr, value in vars(module).items()
            if hasattr(value, _MARK)
        ]
        return ok and not leftovers

    def snapshot(self) -> dict:
        """Aggregates in a JSON-ready form, for merging across processes."""
        with self._lock:
            return {
                "stats": {name: dict(agg) for name, agg in self.stats.items()},
                "layer_busy": dict(self.layer_busy),
            }


def merge(total: dict, part: dict) -> dict:
    """Add one :meth:`Tracer.snapshot` into another (in place) and return it."""
    for name, agg in part["stats"].items():
        into = total["stats"].setdefault(name, {})
        for key, value in agg.items():
            into[key] = into.get(key, 0) + value
    for layer, busy in part["layer_busy"].items():
        total["layer_busy"][layer] = total["layer_busy"].get(layer, 0.0) + busy
    return total


def empty_snapshot() -> dict:
    return Tracer().snapshot()


def _geomedian_modules():
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "geomedian" or key.startswith("geomedian."))
    ]
