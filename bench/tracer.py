"""Span tracing of the biased_voter modules, from outside the package.

The tracer replaces each public function of the package modules with a
wrapper that records a span (name, start, end, parent span, and the
repetition of the workload it belongs to). Modules bind names
directly (``from .walks import walk_curve``), so one wrapper is installed on
every module that binds the function; methods are wrapped on their class.
Per name it keeps the call count, the total and self time (span time minus
the time of child spans) and, for the two memory-heavy layers, the
``tracemalloc`` peak inside the span. A few hooks read counters off the
objects at the call boundary. Kept spans are capped per name, so hot
methods do not grow memory without bound; the totals count every call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import tracemalloc
from collections import Counter
from time import perf_counter

MODULES = ("cli", "harness", "walks", "dual", "forward", "exact", "disorder",
           "stats", "localfn", "kernel", "rangestats")
METHODS = {
    "dual": ("DualSimulation.advance_to",),
    "forward": ("ForwardSimulation.__init__", "ForwardSimulation.advance_to"),
    "disorder": ("LazyBiasField.value",),
    "localfn": ("LocalFunction.value_on_mask",),
    "stats": ("Moments.of", "Moments.merge"),
}
ALLOC_TRACED = ("walks.walk_curve", "exact.exact_range_functional_curve_1d")
SPANS_KEPT_PER_NAME = 500
COUNTERS = ("walks.jumps", "dual.jumps", "disorder.lazy_new_sites", "forward.events",
            "harness.csv_bytes")
# derived metric -> (counter, span whose total time divides it)
RATES = {
    "walks.jumps_per_s": ("walks.jumps", "walks.walk_curve"),
    "dual.jumps_per_s": ("dual.jumps", "dual.DualSimulation.advance_to"),
    "forward.events_per_s": ("forward.events", "forward.ForwardSimulation.advance_to"),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # open spans: [span id, child seconds]
        self.totals: dict[str, list] = {}    # name -> [calls, total_s, self_s, peak bytes]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []         # (id, parent id, repetition, name, start, end)
        self.kept: Counter = Counter()
        self.dropped: Counter = Counter()
        self.next_id = 0
        self.rep = 0
        self.origin = perf_counter()

    def wrap(self, name, fn, before=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        alloc = name in ALLOC_TRACED
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = before(args, kwargs) if before else None
            own_trace = alloc and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            parent = stack[-1][0] if stack else None
            frame = [self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if own_trace:
                    totals[3] = max(totals[3], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                if after:
                    after()
                if self.kept[name] < SPANS_KEPT_PER_NAME:
                    self.kept[name] += 1
                    self.spans.append((frame[0], parent, self.rep, name,
                                       start - self.origin, end - self.origin))
                else:
                    self.dropped[name] += 1
        return traced

    # -- hooks that read counters at the call boundary ----------------------

    def _hooks(self) -> dict:
        c = self.counters
        from biased_voter.walks import walk_curve
        walk_sig = inspect.signature(walk_curve)

        def walk_jumps(args, kwargs):
            bound = walk_sig.bind(*args, **kwargs).arguments
            c["walks.jumps"] += bound["replicas"] * max(float(t) for t in bound["t_grid"])

        def dual_jumps(args, kwargs):
            sim = args[0]
            j0 = sim.jumps
            return lambda: c.update({"dual.jumps": sim.jumps - j0})

        def lazy_sites(args, kwargs):
            field = args[0]
            n0 = len(field.values)
            return lambda: c.update({"disorder.lazy_new_sites": len(field.values) - n0})

        def forward_events(args, kwargs):
            sim = args[0]
            t = args[1] if len(args) > 1 else kwargs["t"]
            dt = float(t) - sim.time

            def after():
                c["forward.events"] += sim.stream.total_rate * dt
            return after

        def csv_bytes(args, kwargs):
            path = args[0]
            if isinstance(path, (str, os.PathLike)):
                return lambda: c.update({"harness.csv_bytes": os.path.getsize(path)})
            return None

        return {
            "walks.walk_curve": walk_jumps,
            "dual.DualSimulation.advance_to": dual_jumps,
            "disorder.LazyBiasField.value": lazy_sites,
            "forward.ForwardSimulation.advance_to": forward_events,
            "harness.write_records_csv": csv_bytes,
            "harness.write_sandwich_csv": csv_bytes,
        }

    def install(self):
        """Wrap every public function and the listed methods, package-wide."""
        mods = {m: importlib.import_module(f"biased_voter.{m}") for m in MODULES}
        namespaces = [importlib.import_module("biased_voter"), *mods.values()]
        hooks = self._hooks()
        for short, mod in mods.items():
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n))
                     and getattr(mod, n).__module__ == mod.__name__]
            if short == "cli":
                names.append("main")
            for n in names:
                original = getattr(mod, n)
                key = f"{short}.{n}"
                wrapper = self.wrap(key, original, hooks.get(key))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
            for qual in METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                key = f"{short}.{qual}"
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(key, raw.__func__, hooks.get(key))))
                else:
                    setattr(cls, meth, self.wrap(key, raw, hooks.get(key)))

    # -- results ------------------------------------------------------------

    def reset(self, rep: int):
        """Start repetition ``rep``: zero the totals and counters (kept spans stay)."""
        self.rep = rep
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()

    def metric(self, name: str) -> float:
        """Value of a per-layer metric name such as ``walks.walk_curve.self_s``."""
        if name in RATES:
            counter, span = RATES[name]
            busy = self.totals[span][1]
            return self.counters[counter] / busy if busy > 0 else 0.0
        if name == "disorder.lazy_hit_ratio":
            calls = self.totals["disorder.LazyBiasField.value"][0]
            new = self.counters["disorder.lazy_new_sites"]
            return (calls - new) / calls if calls else 0.0
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls", "peak_alloc_mb"):
            calls, _total, self_s, peak = self.totals[span]
            return {"self_s": self_s, "calls": calls, "peak_alloc_mb": peak / 2 ** 20}[field]
        if name in COUNTERS:
            return float(self.counters[name])
        raise KeyError(f"unknown per-layer metric {name!r}")

    def write_spans(self, path):
        doc = {
            "clock": "perf_counter seconds since tracer start",
            "fields": ["id", "parent", "repetition", "name", "start", "end"],
            "spans": self.spans,
            "dropped_per_name": dict(self.dropped),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
