"""In-memory span tracer for the hetcover benchmark.

The tracer wraps the package's public functions at the name their caller
looks them up under (``hetcover.simulation.solve``, ``hetcover.solver.update_z``
and so on), records one span per call, and folds the spans into per-layer
metrics named ``<module>.<function>.<stat>``.  The package itself is not
edited: the wrappers are installed around one traced batch and removed
afterwards, so an untraced batch runs the package's own functions.

A layer's self time is its span's duration minus the durations of its direct
child spans.  Nothing runs in parallel, so children never overlap and a
layer's self time is the most that speeding the layer up can save.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import statistics
import time

import numpy as np

# (module whose global the caller reads, attribute, layer metric prefix)
SITES = (
    ("hetcover.cli", "run_trial", "simulation.run_trial"),
    ("hetcover.cli", "append_metrics_csv", "simulation.append_metrics_csv"),
    ("hetcover.simulation", "generate_system", "simulation.generate_system"),
    ("hetcover.simulation", "simulate_events", "simulation.simulate_events"),
    ("hetcover.simulation", "greedy_assign", "simulation.greedy_assign"),
    ("hetcover.simulation", "detection_rate", "simulation.detection_rate"),
    ("hetcover.simulation", "duplication_rate", "simulation.duplication_rate"),
    ("hetcover.simulation", "build_relation_graphs", "graphs.build_relation_graphs"),
    ("hetcover.simulation", "solve", "solver.solve"),
    ("hetcover.simulation", "partition", "partition.partition"),
    ("hetcover.solver", "update_z", "solver.update_z"),
    ("hetcover.solver", "update_zhat", "solver.update_zhat"),
    ("hetcover.solver", "update_laplacian", "solver.update_laplacian"),
    ("hetcover.solver", "constraint_residuals", "solver.constraint_residuals"),
    ("hetcover.solver", "objective", "solver.objective"),
    ("hetcover.solver", "update_multipliers", "solver.update_multipliers"),
    ("hetcover.partition", "fiedler_cut", "partition.fiedler_cut"),
    ("hetcover.partition", "fiedler_vector", "partition.fiedler_vector"),
    ("hetcover.graphs", "line_of_sight", "system.line_of_sight"),
)


class MissingSite(LookupError):
    """A site in SITES no longer exists, so its layer cannot be traced."""


# layers whose inputs are digested, so that repeated work shows as distinct_ratio < 1
KEYED = ("graphs.build_relation_graphs", "solver.solve", "partition.fiedler_cut")

# (layer, stat, unit, better) in report order
LAYER_STATS = (
    ("cli.main", "self_s", "s", "lower"),
    ("simulation.run_trial", "calls", "count", "lower"),
    ("simulation.run_trial", "self_s", "s", "lower"),
    ("simulation.reports", "used_ratio", "ratio", "higher"),
    ("simulation.greedy_assign", "calls", "count", "lower"),
    ("simulation.greedy_assign", "s", "s", "lower"),
    ("simulation.detection_rate", "s", "s", "lower"),
    ("simulation.duplication_rate", "s", "s", "lower"),
    ("simulation.generate_system", "s", "s", "lower"),
    ("simulation.simulate_events", "s", "s", "lower"),
    ("simulation.append_metrics_csv", "s", "s", "lower"),
    ("graphs.build_relation_graphs", "calls", "count", "lower"),
    ("graphs.build_relation_graphs", "s", "s", "lower"),
    ("graphs.build_relation_graphs", "distinct_ratio", "ratio", "higher"),
    ("solver.solve", "calls", "count", "lower"),
    ("solver.solve", "s", "s", "lower"),
    ("solver.solve", "self_s", "s", "lower"),
    ("solver.solve", "distinct_ratio", "ratio", "higher"),
    ("solver.solve", "iterations", "count", "lower"),
    ("solver.solve", "iterations_mean", "count", "lower"),
    ("solver.solve", "unconverged", "count", "lower"),
    ("solver.solve", "s_per_iteration", "s", "lower"),
    ("solver.update_z", "s", "s", "lower"),
    ("solver.update_zhat", "s", "s", "lower"),
    ("solver.update_laplacian", "s", "s", "lower"),
    ("solver.constraint_residuals", "s", "s", "lower"),
    ("solver.objective", "s", "s", "lower"),
    ("solver.update_multipliers", "s", "s", "lower"),
    ("partition.partition", "calls", "count", "lower"),
    ("partition.partition", "s", "s", "lower"),
    ("partition.fiedler_cut", "calls", "count", "lower"),
    ("partition.fiedler_cut", "distinct_ratio", "ratio", "higher"),
    ("partition.fiedler_vector", "s", "s", "lower"),
    ("system.line_of_sight", "calls", "count", "lower"),
    ("system.line_of_sight", "s", "s", "lower"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "group", "key", "result")

    def __init__(self, name, parent, trial, group):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.group = group
        self.start = self.end = 0.0
        self.key = self.result = None

    def as_dict(self, origin):
        return {"name": self.name, "start": self.start - origin, "end": self.end - origin,
                "parent": self.parent, "trial": self.trial, "group": self.group}


class CountedReport:
    """Read-through view of one MetricsReport that notes whether its rates were read.

    A report whose rates nobody reads was computed for nothing; the share of
    reports read is simulation.reports.used_ratio.
    """

    __slots__ = ("_report", "used")

    def __init__(self, report):
        self._report = report
        self.used = False

    def __getattr__(self, attr):
        if attr in ("detection_rate", "duplication_rate"):
            self.used = True
        return getattr(self._report, attr)


def _feed(h, x):
    if isinstance(x, np.ndarray):
        h.update(("%s%r" % (x.dtype.str, x.shape)).encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(b"(")
        for item in x:
            _feed(h, item)
        h.update(b")")
    elif isinstance(x, (set, frozenset)):
        _feed(h, sorted(x, key=repr))
    elif isinstance(x, dict):
        _feed(h, sorted(x.items(), key=repr))
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        h.update(type(x).__name__.encode())
        _feed(h, [getattr(x, f.name) for f in dataclasses.fields(x)])
    else:
        h.update(repr(x).encode())


def digest(*values) -> str:
    """A digest of call inputs: array bytes, dataclass fields, sets in sorted order."""
    h = hashlib.sha256()
    _feed(h, values)
    return h.hexdigest()


class Tracer:
    """Collects spans in memory; ``group`` labels the spans of the current CLI call."""

    def __init__(self):
        self.spans = []
        self.reports = []  # (group, CountedReport)
        self.group = None
        self._stack = []
        self._trial = None
        self._trials = 0

    def wrap(self, name, fn):
        keyed = name in KEYED
        is_trial = name == "simulation.run_trial"
        is_solve = name == "solver.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_trial = self._trial
            if is_trial:
                self._trial = self._trials
                self._trials += 1
            span = Span(name, self._stack[-1] if self._stack else None, self._trial, self.group)
            if keyed:
                span.key = digest(args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._trial = outer_trial
            if is_solve:
                span.result = (result.iterations, result.converged)
            elif is_trial and isinstance(result, (list, tuple)):
                result = [CountedReport(report) for report in result]
                self.reports.extend((self.group, report) for report in result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every site in SITES for its traced wrapper, then restore.

        A site that no longer exists raises MissingSite: its layer would
        otherwise read 0 and look like a large gain.
        """
        saved = []
        try:
            for module_name, attr, name in SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise MissingSite("%s.%s, traced as %s, does not exist"
                                      % (module_name, attr, name))
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def child_seconds(self):
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        return children

    def problems(self):
        """Spans that do not nest inside their parent, or whose self time is negative."""
        found = []
        for i, (span, children) in enumerate(zip(self.spans, self.child_seconds())):
            if span.end < span.start:
                found.append("span %d (%s) ends before it starts" % (i, span.name))
            if span.parent is not None:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    found.append("span %d (%s) is not inside its parent" % (i, span.name))
            if span.end - span.start - children < -1e-9:
                found.append("span %d (%s) has negative self time" % (i, span.name))
        return found

    def idle(self, layers):
        """The layers among `layers` that recorded no call, as problems."""
        called = {span.name for span in self.spans}
        return ["%s was never called; its call site may have moved" % layer
                for layer in layers if layer not in called]

    def covered_seconds(self):
        """Time covered by root spans; roots are sequential, so durations add."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def layer_metrics(self, group=None):
        """Every LAYER_STATS value over the spans of one group (all spans for None)."""
        children = self.child_seconds()
        calls, total, self_s, keys = {}, {}, {}, {}
        iterations = unconverged = 0
        for span, child in zip(self.spans, children):
            if group is not None and span.group != group:
                continue
            duration = span.end - span.start
            calls[span.name] = calls.get(span.name, 0) + 1
            total[span.name] = total.get(span.name, 0.0) + duration
            self_s[span.name] = self_s.get(span.name, 0.0) + duration - child
            if span.key is not None:
                keys.setdefault(span.name, set()).add(span.key)
            if span.result is not None:
                iterations += span.result[0]
                unconverged += not span.result[1]
        reports = [r for g, r in self.reports if group is None or g == group]
        n_solves = calls.get("solver.solve", 0)
        solve_s = total.get("solver.solve", 0.0)
        extra = {
            "simulation.reports.used_ratio": _ratio(sum(r.used for r in reports), len(reports)),
            "solver.solve.iterations": iterations,
            "solver.solve.iterations_mean": _ratio(iterations, n_solves),
            "solver.solve.unconverged": unconverged,
            "solver.solve.s_per_iteration": _ratio(solve_s, iterations),
        }
        metrics = {}
        for layer, stat, _, _ in LAYER_STATS:
            name = "%s.%s" % (layer, stat)
            if name in extra:
                metrics[name] = extra[name]
            elif stat == "calls":
                metrics[name] = calls.get(layer, 0)
            elif stat == "s":
                metrics[name] = total.get(layer, 0.0)
            elif stat == "self_s":
                metrics[name] = self_s.get(layer, 0.0)
            elif stat == "distinct_ratio":
                metrics[name] = _ratio(len(keys.get(layer, ())), calls.get(layer, 0))
            else:
                raise KeyError(name)
        return metrics

    def dump(self):
        origin = self.spans[0].start if self.spans else 0.0
        return [span.as_dict(origin) for span in self.spans]


def _ratio(part, whole):
    return part / whole if whole else 0.0


def median_metrics(samples):
    """Per-metric median over several layer_metrics dicts with the same keys."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
