"""Outside-in layer tracing for the benchmark.

The traced run wraps the public entry point of every layer of the
``repro`` package -- class methods and module-level functions, patched
from here, so the package itself carries no instrumentation -- and
records one span per call: name, start, end, parent span, cell id and
the deltas of the counters the layer keeps (solver statistics, oracle
call/pattern counts, clauses emitted, pins).  Spans stay in memory and
are written out once, when the run ends.

A span's *self time* is its duration minus the time its child spans
cover; the self times of one pass partition the wall time of its
top-level ``campaign.run`` spans, so what no span covers is reported
as ``trace.unattributed_s``.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time

#: Passed to a probe in place of the call's result before the call runs.
BEFORE = object()


def _solver_probe(args, kwargs, result):
    stats = args[0].stats()
    return {key: stats[key]
            for key in ("conflicts", "propagations", "decisions")}


def _oracle_probe(args, kwargs, result):
    return {"calls": args[0].query_count, "patterns": args[0].pattern_count}


def _pin_probe(args, kwargs, result):
    return {"pins": args[0].n_pinned}


def _encode_probe(args, kwargs, result):
    if result is not BEFORE:
        return {"clauses": len(result.cnf.clauses)}
    cnf = kwargs.get("cnf", args[1] if len(args) > 1 else None)
    return {"clauses": 0 if cnf is None else len(cnf.clauses)}


def _targets():
    """``(owner, attribute, span name, probe)`` for every traced entry
    point.  Module-level functions are listed by their defining module;
    :meth:`Tracer.installed` rebinds every ``repro`` module attribute
    that refers to the same function object, because callers import them
    by name."""
    from repro.api import attacks, circuits, schemes
    from repro.attacks import bmc, comb_sat, oracle, removal
    from repro.campaign import executor, store
    from repro.cnf import tseitin
    from repro.metrics import corruptibility
    from repro.netlist import transform
    from repro.sat import solver
    from repro.sim import seq
    from repro.unroll import unroller

    return [
        (executor.Campaign, "run", "campaign.run", None),
        (store.ResultStore, "get", "campaign.store_get", None),
        (store.ResultStore, "put", "campaign.store_put", None),
        (circuits.CircuitProvider, "load", "bench.load", None),
        (schemes.Scheme, "lock", "core.lock", None),
        (attacks.Attack, "run", "attack.run", None),
        (comb_sat.DipEngine, "__init__", "comb_sat.miter", None),
        (comb_sat.DipEngine, "find_dip_batch", "comb_sat.find_dips", None),
        (comb_sat.DipEngine, "pin_batch", "comb_sat.pin", _pin_probe),
        (solver.Solver, "solve", "sat.solve", _solver_probe),
        (oracle.SimulationOracle, "query", "oracle.query", _oracle_probe),
        (oracle.SimulationOracle, "query_batch", "oracle.query",
         _oracle_probe),
        (oracle.SimulationOracle, "query_flat", "oracle.query",
         _oracle_probe),
        (oracle.SimulationOracle, "query_batch_flat", "oracle.query",
         _oracle_probe),
        (seq.SequentialSimulator, "run", "sim.run", None),
        (transform.InputSpecializer, "specialize", "netlist.fold", None),
        (transform, "simplified", "netlist.fold", None),
        (bmc, "bounded_equivalence", "bmc.check", None),
        (unroller, "unroll", "unroll.unroll", None),
        (tseitin, "encode", "cnf.encode", _encode_probe),
        (corruptibility, "average_simulated_fc", "metrics.fc", None),
        (removal, "scc_report", "removal.census", None),
    ]


class Tracer:
    """In-memory span recorder; install it around the calls to trace.

    ``spans`` holds ``[name, start, end, parent, cell, counters]`` lists
    in call order (a span's index is fixed when it starts, so parents
    always precede their children); ``cell`` tags new spans with the id
    of the cell being run.
    """

    def __init__(self):
        self.spans = []
        self.cell = None
        self._stack = []

    def wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.cell, None]
            spans.append(span)
            stack.append(index)
            before = probe(args, kwargs, BEFORE) if probe else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe:
                after = probe(args, kwargs, result)
                span[5] = {key: after[key] - before[key] for key in after}
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        patched = []
        try:
            for owner, attr, name, probe in _targets():
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, probe)
                if isinstance(owner, type):
                    homes = [owner]
                else:
                    homes = [module for module_name, module
                             in list(sys.modules.items())
                             if module_name.split(".")[0] == "repro"
                             and getattr(module, attr, None) is original]
                for home in homes:
                    setattr(home, attr, wrapper)
                    patched.append((home, attr, original))
            yield self
        finally:
            for home, attr, original in reversed(patched):
                setattr(home, attr, original)

    def export(self):
        """JSON-safe span records (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "cell": cell, "counters": counters}
                for name, start, end, parent, cell, counters in self.spans]


class Profile:
    """Per-name aggregates over one set of spans (one pass).

    ``self_s`` sums self time over every span of a name; ``total_s``,
    ``calls``, ``durations`` and ``counters`` count only *outermost*
    spans of a name (an oracle ``query_batch_flat`` calling
    ``query_batch`` is one oracle call, not two).
    """

    def __init__(self, spans, indices):
        members = set(indices)
        child_time = dict.fromkeys(indices, 0.0)
        for index in indices:
            parent = spans[index][3]
            if parent in members:
                child_time[parent] += spans[index][2] - spans[index][1]
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.durations = {}
        self.counters = {}
        for index in indices:
            name, start, end, parent, _cell, counters = spans[index]
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + (end - start) - child_time[index])
            if self._nested_in_same(spans, index):
                continue
            self.total_s[name] = self.total_s.get(name, 0.0) + end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault(name, []).append(end - start)
            if counters:
                totals = self.counters.setdefault(name, {})
                for key, delta in counters.items():
                    totals[key] = totals.get(key, 0) + delta
        self.attributed_s = sum(self.self_s.values())

    @staticmethod
    def _nested_in_same(spans, index):
        name = spans[index][0]
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def layer_self_s(self):
        """Self time per layer (the span-name prefix)."""
        layers = {}
        for name, seconds in self.self_s.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def total(self, name):
        return self.total_s.get(name, 0.0)

    def self_time(self, name):
        return self.self_s.get(name, 0.0)

    def count(self, name):
        return self.calls.get(name, 0)

    def counter(self, name, key):
        return self.counters.get(name, {}).get(key, 0)

    def mean_ms(self, name):
        durations = self.durations.get(name)
        return 1000.0 * statistics.fmean(durations) if durations else 0.0

    def percentile_ms(self, name, fraction):
        """Nearest-rank percentile of the outermost span durations."""
        durations = sorted(self.durations.get(name, ()))
        if not durations:
            return 0.0
        rank = max(1, math.ceil(fraction * len(durations)))
        return 1000.0 * durations[rank - 1]
