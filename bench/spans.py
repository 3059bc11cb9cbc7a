"""Span recorder for the traced benchmark run.

perfci has no tracing of its own, so the traced run wraps the public
entry points of each module from the outside.  A wrapped function is
replaced in every ``perfci`` namespace that holds it (for example
``max_abs_quantile`` is bound in ``perfci.quantiles``, ``perfci.intervals``,
``perfci.simulation``, ``perfci.cli`` and ``perfci`` itself), so calls
between modules are seen too.  Spans stay in memory; self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from collections import Counter
from time import perf_counter_ns


def _cells(counts, args, kwargs, result):
    counts["dataset.cells"] += result.n * (len(result.rule_ids) + 1)


def _influence_bytes(counts, args, kwargs, result):
    counts["covariance.influence_bytes"] += result.values.size * 8


def _draws(counts, args, kwargs, result):
    counts["quantiles.normal_draws"] += result.draws * result.dim
    counts["quantiles.jitter_calls"] += result.jitter > 0.0


def _failed_targets(counts, args, kwargs, result):
    counts["intervals.failed_targets"] += len(result.failed_rows)


def _replications(counts, args, kwargs, result):
    counts["simulation.replications"] += result.replications


def _output_bytes(counts, args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            counts["cli.output_bytes"] += os.path.getsize(path)


# (module, function, span name, counter)
FUNCTIONS = (
    ("perfci.dataset", "read_csv", "dataset.read_csv", _cells),
    ("perfci.dataset", "compute_moments", "dataset.compute_moments", None),
    ("perfci.covariance", "influence", "covariance.influence", _influence_bytes),
    ("perfci.covariance", "covariance_from_influences", "covariance.covariance_from_influences", None),
    ("perfci.covariance", "correct", "covariance.correct", None),
    ("perfci.covariance", "correlation", "covariance.correlation", None),
    ("perfci.quantiles", "max_abs_quantile", "quantiles.max_abs_quantile", _draws),
    ("perfci.intervals", "analyze", "intervals.analyze", _failed_targets),
    ("perfci.simulation", "true_params", "simulation.true_params", None),
    ("perfci.simulation", "run_coverage", "simulation.run_coverage", _replications),
    ("perfci.cli", "main", "cli.main", _output_bytes),
)

# (module, class, method, span name); methods are replaced on the class
METHODS = (
    ("perfci.dataset", "BinaryDataset", "from_arrays", "dataset.from_arrays"),
    ("perfci.measures", "MeasureSpec", "evaluate", "measures.evaluate"),
    ("perfci.measures", "MeasureSpec", "gradient", "measures.gradient"),
    ("perfci.simulation", "GaussianMixtureProcess", "sample", "simulation.sample"),
    ("perfci.simulation", "EmpiricalBootstrapProcess", "sample", "simulation.sample"),
    ("perfci.simulation", "ThresholdRule", "predict", "simulation.predict"),
    ("perfci.simulation", "OneNNRule", "predict", "simulation.predict"),
    ("perfci.simulation", "FixedPredictionRule", "predict", "simulation.predict"),
)


class SpanRecorder:
    """In-memory spans ``[name, start_ns, end_ns, parent, op]`` plus counts.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``op`` the benchmark operation the span belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def self_ns(self) -> dict[tuple[str, int], list[int]]:
        """``(name, op) -> [self_ns, calls]``."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[tuple[str, int], list[int]] = {}
        for (name, start, end, parent, op), inner in zip(self.spans, child_ns):
            entry = out.setdefault((name, op), [0, 0])
            entry[0] += end - start - inner
            entry[1] += 1
        return out


def _perfci_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "perfci" or name.startswith("perfci."))]


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every entry point in ``FUNCTIONS`` / ``METHODS``; restore on exit."""
    undo = []
    namespaces = _perfci_namespaces()
    for module, attr, name, count in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        wrapper = recorder.wrap(name, original, count)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    undo.append((ns, key, original))
    for module, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(recorder.wrap(name, original.__func__))
        else:
            wrapper = recorder.wrap(name, original)
        setattr(cls, attr, wrapper)
        undo.append((cls, attr, original))
    try:
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# per-layer metric: (name, unit, kind, source); "self" sums the self time of
# the named spans, "calls" counts them, "count" reads a counter
LAYER_METRICS = (
    ("dataset.read_csv_s", "s", "self", ("dataset.read_csv",)),
    ("dataset.read_csv_calls", "count", "calls", ("dataset.read_csv",)),
    ("dataset.cells", "count", "count", "dataset.cells"),
    ("dataset.from_arrays_s", "s", "self", ("dataset.from_arrays",)),
    ("dataset.compute_moments_s", "s", "self", ("dataset.compute_moments",)),
    ("dataset.compute_moments_calls", "count", "calls", ("dataset.compute_moments",)),
    ("measures.evaluate_calls", "count", "calls", ("measures.evaluate",)),
    ("measures.gradient_calls", "count", "calls", ("measures.gradient",)),
    ("measures.s", "s", "self", ("measures.evaluate", "measures.gradient")),
    ("covariance.influence_s", "s", "self", ("covariance.influence",)),
    ("covariance.influence_calls", "count", "calls", ("covariance.influence",)),
    ("covariance.influence_bytes", "bytes", "count", "covariance.influence_bytes"),
    ("covariance.covariance_from_influences_s", "s", "self", ("covariance.covariance_from_influences",)),
    ("covariance.correct_s", "s", "self", ("covariance.correct",)),
    ("covariance.correlation_s", "s", "self", ("covariance.correlation",)),
    ("quantiles.max_abs_quantile_s", "s", "self", ("quantiles.max_abs_quantile",)),
    ("quantiles.max_abs_quantile_calls", "count", "calls", ("quantiles.max_abs_quantile",)),
    ("quantiles.normal_draws", "count", "count", "quantiles.normal_draws"),
    ("quantiles.jitter_calls", "count", "count", "quantiles.jitter_calls"),
    ("intervals.analyze_s", "s", "self", ("intervals.analyze",)),
    ("intervals.analyze_calls", "count", "calls", ("intervals.analyze",)),
    ("intervals.failed_targets", "count", "count", "intervals.failed_targets"),
    ("simulation.run_coverage_s", "s", "self", ("simulation.run_coverage",)),
    ("simulation.sample_s", "s", "self", ("simulation.sample",)),
    ("simulation.predict_s", "s", "self", ("simulation.predict",)),
    ("simulation.true_params_s", "s", "self", ("simulation.true_params",)),
    ("simulation.replications", "count", "count", "simulation.replications"),
    ("cli.main_s", "s", "self", ("cli.main",)),
    ("cli.output_bytes", "bytes", "count", "cli.output_bytes"),
)


def layer_metrics(recorder: SpanRecorder, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation means of every ``LAYER_METRICS`` entry over ``ops``
    traced operations; a layer that did not run reads 0."""
    per_name: dict[str, list[int]] = {}
    for (name, _op), (ns, calls) in recorder.self_ns().items():
        entry = per_name.setdefault(name, [0, 0])
        entry[0] += ns
        entry[1] += calls
    out = {}
    for metric, unit, kind, source in LAYER_METRICS:
        if kind == "self":
            total = sum(per_name.get(s, (0, 0))[0] for s in source) * 1e-9
        elif kind == "calls":
            total = sum(per_name.get(s, (0, 0))[1] for s in source)
        else:
            total = recorder.counts[source]
        out[metric] = (total / ops, unit)
    return out
