"""In-memory spans recorded around calls into ``teamsolve``'s layers.

A :class:`Tracer` always records the benchmark's own stage spans (a handful
per pipeline).  Only :meth:`Tracer.install` replaces library names with
timing wrappers, so an untraced run executes the library unchanged.

Each span holds a name, start and end (``time.perf_counter`` seconds), the
id of the span it ran inside and the run id.  High-frequency leaf calls
(``CpwaDensityMeasure.sample``, ``z_opt``) are aggregated instead: their
calls, points and seconds are summed per name, and their time is charged to
the enclosing span so that self times stay exact.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# module of the benchmark's stage spans; other names start with their module
LAYER_OF = {"moments": "measures", "exports": "equilibrium"}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._agg_child_s = defaultdict(float)     # span id -> aggregated s
        self.aggregates = defaultdict(lambda: {"calls": 0, "s": 0.0,
                                               "points": 0})
        self.counters = defaultdict(float)
        self._patches = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name, on_result=None, aggregate=False):
        """Timing wrapper around ``fn``; ``on_result(result)`` updates
        counters from the return value."""
        tracer = self

        if aggregate:
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                agg = tracer.aggregates[name]
                agg["calls"] += 1
                agg["s"] += dt
                agg["points"] += len(result)
                if tracer._stack:
                    tracer._agg_child_s[tracer._stack[-1]] += dt
                return result
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
        return wrapper

    def patch(self, owner, attr, name, on_result=None, aggregate=False):
        """Replace ``owner.attr`` (a module global or class attribute) with a
        wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name, on_result, aggregate))
        self._patches.append((owner, attr, original))

    @property
    def installed(self):
        return bool(self._patches)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, ts):
        """Wrap every layer entry point of the ``teamsolve`` package ``ts``
        where the calling module looks it up."""
        c = self.counters

        def lp_solution(sol):
            c["linprog.simplex_iterations"] += sol.iterations

        def sd_coupling(coup):
            mismatch = float(abs(coup.est_masses - coup.source.weights).max())
            c["transport.sd_mass_mismatch"] = max(
                c["transport.sd_mass_mismatch"], mismatch)

        self.patch(ts.linprog, "solve", "linprog.solve", lp_solution)
        for mod in (ts.linprog, ts.transport, ts.equilibrium):
            self.patch(mod, "solve_min", "linprog.solve_min")
        self.patch(ts.equilibrium, "ot_discrete", "transport.ot_discrete")
        self.patch(ts.equilibrium, "ot_quantile_1d", "transport.ot_quantile")
        self.patch(ts.equilibrium, "ot_semidiscrete",
                   "transport.ot_semidiscrete", sd_coupling)
        self.patch(ts.equilibrium, "_exact_bounds", "equilibrium.exact_bounds")
        self.patch(ts.equilibrium, "z_opt", "equilibrium.z_opt",
                   aggregate=True)
        self.patch(ts.measures.CpwaDensityMeasure, "sample", "measures.sample",
                   aggregate=True)

    def wrap_oracle(self, oracle):
        c = self.counters

        def offered(res):
            c["oracle.cuts_offered"] += 1 + len(res.pool)

        return self.wrap(oracle, "oracle", offered)

    # -- summaries -----------------------------------------------------------

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name):
        return sum(self.durations(name))

    def count(self, name):
        return len(self.durations(name))

    def self_times(self):
        """Per-span self time: duration minus the time of its child spans
        and of the aggregated calls made directly inside it."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child[s["id"]]
                - self._agg_child_s[s["id"]] for s in self.spans}

    def self_time_by_name(self):
        own = self.self_times()
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += own[s["id"]]
        for name, agg in self.aggregates.items():
            out[name] += agg["s"]
        return dict(out)

    def dump(self, path):
        own = self.self_time_by_name()
        layers = defaultdict(float)
        for name, seconds in own.items():
            layers[LAYER_OF.get(name, name.split(".")[0])] += seconds
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "aggregates": dict(self.aggregates),
                       "counters": dict(self.counters), "self_s": own,
                       "layer_self_s": dict(layers)}, f, indent=1)

