"""Span recording around the public functions of each layer.

``install(tracer)`` rebinds every traced public name, in every loaded
``outerstring`` module and every named caller module that holds it, to a
wrapper that opens a span on entry and closes it on exit.  ``uninstall``
puts the originals back.  Spans are kept in memory; self time (a span's
duration minus the time its child spans cover) is accumulated as spans
close, so reports need no second pass.

A traced name that no longer exists, or a result whose shape the size
counters do not know, raises ``TraceError``: a missing measurement must not
read as zero work.

Nothing here changes the library: the wrappers call the original objects
and return their results untouched.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).
FUNCTIONS = [
    ("outerstring.geom.segments", "classify_intersection",
     "geom.segments.classify_intersection"),
    ("outerstring.geom.validate", "find_violations", "geom.validate.find_violations"),
    ("outerstring.geom.validate", "validate_family", "geom.validate.validate_family"),
    ("outerstring.geom.exterior", "exterior_membership",
     "geom.exterior.exterior_membership"),
    ("outerstring.graph", "intersection_graph", "graph.intersection_graph"),
    ("outerstring.graph", "clique_number", "graph.clique_number"),
    ("outerstring.graph", "chromatic_number", "graph.chromatic_number"),
    ("outerstring.geom.io", "loads_family", "geom.io.loads_family"),
    ("outerstring.bounds", "explicit_chi_bound", "bounds.explicit_chi_bound"),
    ("outerstring.gen", "generate", "gen.generate"),
    ("outerstring.gen", "random_grounded_segments", "gen.random_grounded_segments"),
    ("outerstring.gen", "random_grounded_polylines", "gen.random_grounded_polylines"),
] + [
    ("outerstring.geom.curveops", name, f"geom.curveops.{name}")
    for name in ("curve_intersections", "curves_intersect", "first_hit",
                 "hits_against", "subcurves_intersect", "split_points_on")
] + [
    ("outerstring.extract", name, f"extract.{name}")
    for name in ("mcguinness", "bfs_supported", "find_skeleton_supported",
                 "attempt_bracket_system", "attempt_clique_system")
]

# (module, class, method, span name): wrapped on the class itself.
METHODS = [
    ("outerstring.geom.exterior", "FreeSpace", "__init__", "geom.exterior.FreeSpace"),
    ("outerstring.graph", "ChiCache", "chi", "graph.chicache.chi"),
    ("outerstring.graph", "ChiCache", "omega", "graph.chicache.omega"),
    ("outerstring.graph", "IntersectionGraph", "subgraph", "graph.subgraph"),
    ("outerstring.geom.curves", "CurveFamily", "between", "geom.curves.between"),
    ("outerstring.geom.curves", "CurveFamily", "subfamily", "geom.curves.subfamily"),
]

# Every public module-level function of this module is traced.
WHOLE_MODULE = "outerstring.structures"

LAYERS = ["geom.segments", "geom.validate", "geom.curveops", "geom.exterior", "geom.curves",
          "graph", "structures", "extract", "geom.io", "bounds", "gen"]

SOLVERS = ("graph.clique_number", "graph.chromatic_number")


class TraceError(Exception):
    """A traced name is missing or a traced result has an unknown shape."""


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return "request"


class Tracer:
    """In-memory span store for one process.

    A span is ``[name, start, end, parent index, request id]``; ``self_s``
    and ``calls`` are keyed by span name, ``counters`` hold the size counts
    read off results at the layer boundaries.
    """

    def __init__(self):
        self.active = False       # wrappers record only while this is set
        self.spans: list[list] = []
        self.request_id = None
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.external_overhead_s = 0.0   # tracing set-up inside child processes
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self._child_s.append(0.0)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request_id])

    def close(self) -> float:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - self._child_s.pop()
        self.calls[span[0]] += 1
        if self._child_s:
            self._child_s[-1] += duration
        return duration

    def close_all(self) -> None:
        """Close spans left open by an interrupted request."""
        while self._stack:
            self.close()

    def add_external(self, summary: dict) -> None:
        """Fold in the summary of spans recorded by a child process; they
        count as children of the innermost open span."""
        for name, value in summary["self_s"].items():
            self.self_s[name] += value
            if self._child_s:
                self._child_s[-1] += value
        self.calls.update(summary["calls"])
        self.counters.update(summary["counters"])
        self.external_overhead_s += summary["install_s"]

    def summary(self, install_s: float) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counters": dict(self.counters), "install_s": install_s}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "request"],
                       "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                                 for s in self.spans]}, fh)


def _expect(cond: bool, name: str, result) -> None:
    if not cond:
        raise TraceError(f"{name} returned {type(result).__name__}, "
                         f"a shape the size counters do not know")


def _count_result(tracer: Tracer, name: str, result, args) -> None:
    """Size counters read off a traced call's result."""
    c = tracer.counters
    if name == "geom.segments.classify_intersection":
        _expect(isinstance(result, tuple) and len(result) == 2, name, result)
        if result[0] == "proper":
            c["proper"] += 1
    elif name == "geom.curveops.curve_intersections":
        _expect(isinstance(result, (tuple, list)), name, result)
        c["crossings"] += len(result)
    elif name == "graph.intersection_graph":
        _expect(isinstance(getattr(result, "adj", None), dict), name, result)
        c["edges"] += sum(len(a) for a in result.adj.values()) // 2
    elif name in ("graph.clique_number", "graph.chromatic_number"):
        _expect(isinstance(result, tuple) and isinstance(result[0], int), name, result)
        c["omega" if name == "graph.clique_number" else "chi"] += result[0]
    elif name == "geom.exterior.FreeSpace":
        fs = args[0]
        _expect(hasattr(fs, "segments") and hasattr(fs, "xs"), name, fs)
        c["freespace_segments"] += len(fs.segments)
        c["freespace_breakpoints"] += len(fs.xs)


def _wrap(tracer: Tracer, fn, name: str):
    if name in ("graph.chicache.chi", "graph.chicache.omega"):
        def cached(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = sum(tracer.calls[s] for s in SOLVERS)
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
                after = sum(tracer.calls[s] for s in SOLVERS)
                tracer.counters["chicache_hits" if after == before else "chicache_misses"] += 1
        return cached

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        _count_result(tracer, name, result, args)
        return result
    return traced


def _rebind_everywhere(orig, wrapped, plan: list, callers) -> None:
    for modname, mod in list(sys.modules.items()):
        if not (modname in callers or modname == "outerstring"
                or modname.startswith("outerstring.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                plan.append((mod, attr, orig, wrapped))


def install(tracer: Tracer, callers=()) -> list:
    """Wrap every traced public name in the package and in the modules named
    in ``callers``.  Returns the plan, ``(owner, attribute, original,
    wrapper)`` for each rebinding, for ``uninstall`` and ``reinstall``."""
    importlib.import_module("outerstring.cli")   # load every module first

    def lookup(modname, attr):
        value = getattr(sys.modules.get(modname), attr, None)
        if not callable(value):
            raise TraceError(f"{modname}.{attr} is gone; the benchmark cannot trace it")
        return value

    targets = [(lookup(modname, attr), name) for modname, attr, name in FUNCTIONS]
    public = [(value, f"structures.{attr}")
              for attr, value in sorted(vars(importlib.import_module(WHOLE_MODULE)).items())
              if not attr.startswith("_") and inspect.isfunction(value)
              and value.__module__ == WHOLE_MODULE]
    if not public:
        raise TraceError(f"{WHOLE_MODULE} has no public functions to trace")
    plan: list = []
    for orig, name in targets + public:
        _rebind_everywhere(orig, _wrap(tracer, orig, name), plan, callers)
    for modname, clsname, meth, name in METHODS:
        cls = lookup(modname, clsname)
        orig = getattr(cls, meth, None)
        if orig is None:
            raise TraceError(f"{modname}.{clsname}.{meth} is gone; "
                             f"the benchmark cannot trace it")
        plan.append((cls, meth, orig, _wrap(tracer, orig, name)))
    reinstall(plan)
    return plan


def reinstall(plan: list) -> None:
    for owner, attr, _, wrapped in plan:
        setattr(owner, attr, wrapped)


def uninstall(plan: list) -> None:
    for owner, attr, orig, _ in reversed(plan):
        setattr(owner, attr, orig)


def span_cost(clock, calls: int = 20000, repeats: int = 5) -> list:
    """Time one traced call adds to its caller: ``repeats`` timings, as
    ``(start, wall)`` for ``clock``, of (``calls`` calls of a wrapped no-op
    minus as many plain calls) / ``calls``."""
    def noop():
        return None

    tracer = Tracer()
    tracer.active = True
    wrapped = _wrap(tracer, noop, "calibration")

    def loop(fn):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t

    costs = []
    for _ in range(repeats):
        clock.sample()
        t = time.perf_counter()
        costs.append((t, (loop(wrapped) - loop(noop)) / calls))
        tracer.spans.clear()
    clock.sample()
    return costs
