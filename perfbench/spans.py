"""Spans around calls into snndetect's modules, recorded from outside.

Each traced public function is replaced, at every name a module of the
package looks it up by, with a wrapper that records a span: name, start,
end, parent span and op id. Spans stay in memory and are written out when
the run ends. The two per-step functions (the LIF update and the synapse
step) run tens of thousands of times per op, so they only add to running
totals; each span stores how much those totals grew while it was open.

Nothing here edits the package source; wrappers are removed after each
traced op, so untraced ops run the plain functions.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _ensemble_key(args, result):
    return {"key": [result.seed, result.n_neurons, result.radius]}


def _simulate_counts(args, result):
    shape = args["inputs"].shape
    lanes = 1 if len(shape) == 1 else shape[0]
    steps = shape[-1]
    rates = result.rates
    return {
        "lanes": lanes,
        "pop_steps": steps * len(args["ensembles"]) * lanes,
        "spikes": int(result.raster.neuron_ids.size),
        "rates_bytes": 0 if rates is None else int(rates.nbytes),
    }


def _sweep_errors(args, result):
    return {"point_errors": sum(pt.error is not None for pt in result.points)}


def _synaptic_ops(args, result):
    return {"synaptic_ops": int(result.synaptic_ops)}


# (span name, defining module, attribute, per-step leaf, counter probe)
TARGETS = (
    ("pipeline.load", "snndetect.pipeline", "load_layer_series", False, None),
    ("pipeline.run_filter", "snndetect.pipeline", "run_filter", False, None),
    ("pipeline.deviate_flag", "snndetect.pipeline", "percent_deviation", False, None),
    ("pipeline.deviate_flag", "snndetect.pipeline", "flag_anomalies", False, None),
    ("ensembles.build", "snndetect.ensembles", "build_ensemble", False, _ensemble_key),
    ("simulator.simulate", "snndetect.simulator", "simulate_cascade", False, _simulate_counts),
    ("neurons.lif_step", "snndetect.neurons", "lif_step_arrays", True, None),
    ("synapses.lowpass", "snndetect.synapses", "Lowpass.step", True, None),
    ("evaluation.sweep", "snndetect.evaluation", "sweep_tau", False, _sweep_errors),
    ("evaluation.score", "snndetect.evaluation", "f1_score", False, None),
    ("baselines.filter", "snndetect.baselines", "apply_baseline_filter", False, None),
    ("energy.count_ops", "snndetect.energy", "count_ops", False, _synaptic_ops),
    ("classifier.encode", "snndetect.classifier", "encode_sample", False, None),
    ("classifier.train", "snndetect.classifier", "train_classifier", False, None),
    ("datagen.gen", "snndetect.datagen", "gen_defective", False, None),
    ("datagen.gen", "snndetect.datagen", "gen_healthy", False, None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "agg", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.agg = {}   # per-step name -> [calls, seconds] while open, children included
        self.info = {}  # counters from the probe

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.agg, self.info]

    @classmethod
    def from_list(cls, row, offset=0, op=None):
        name, start, end, parent, span_op, agg, info = row
        span = cls(name, start, None if parent is None else parent + offset,
                   span_op if op is None else op)
        span.end, span.agg, span.info = end, agg, info
        return span


class Tracer:
    """Records spans tagged with the current `op`; installed() swaps the wrappers in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.absent: list[str] = []
        self.clock = time.perf_counter
        self.totals: dict[str, list] = {}  # per-step name -> [calls, seconds]

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.clock(), parent, self.op)
        span.agg = {k: list(v) for k, v in self.totals.items()}
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span.end = self.clock()
        self.stack.pop()
        grew = {}
        for k, (calls, secs) in self.totals.items():
            calls0, secs0 = span.agg.get(k, (0, 0.0))
            if calls != calls0:
                grew[k] = [calls - calls0, secs - secs0]
        span.agg = grew

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name, fn, leaf, probe):
        tracer = self
        clock = self.clock
        signature = inspect.signature(fn) if probe else None

        if leaf:
            cell = self.totals.setdefault(name, [0, 0.0])

            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                cell[1] += clock() - t0
                cell[0] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if probe is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        span.info = probe(bound.arguments, result)
                    except Exception as err:  # a renamed field must not fail the op
                        span.info = {"probe_error": repr(err)}
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target at each name the package binds it to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "snndetect" or n.startswith("snndetect."))]
        undo = []
        self.absent = []
        try:
            for name, modname, attr, leaf, probe in TARGETS:
                owner = sys.modules.get(modname)
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                fn = getattr(owner, meth, None) if owner is not None else None
                if fn is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(name, fn, leaf, probe)
                if cls_name:
                    undo.append((owner, meth, fn))
                    setattr(owner, meth, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            undo.append((m, key, fn))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for obj, key, fn in reversed(undo):
                setattr(obj, key, fn)


def select(spans: list[Span], ops: set) -> list[Span]:
    """The spans of the given ops, with parent links renumbered."""
    keep = [i for i, s in enumerate(spans) if s.op in ops]
    renumber = {old: new for new, old in enumerate(keep)}
    out = []
    for i in keep:
        row = spans[i].to_list()
        row[3] = None if row[3] is None else renumber[row[3]]
        out.append(Span.from_list(row))
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, summed counters.

    Self time is a span's duration minus the time its child spans and its
    own per-step calls cover.
    """
    covered = [0.0] * len(spans)
    direct = [{k: list(v) for k, v in s.agg.items()} for s in spans]
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
            for k, (calls, secs) in s.agg.items():
                direct[s.parent][k][0] -= calls
                direct[s.parent][k][1] -= secs
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        leaf_s = 0.0
        for leaf, (calls, secs) in direct[i].items():
            row = out[leaf]
            row["calls"] += calls
            row["self_s"] += secs
            row["incl_s"] += secs
            leaf_s += secs
        row = out[s.name]
        row["calls"] += 1
        row["incl_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - covered[i] - leaf_s
        for key, value in s.info.items():
            if key == "probe_error":
                row["probe_errors"] += 1
            elif isinstance(value, (int, float)):
                row[key] += value
    return out


def distinct_builds(spans: list[Span]) -> int:
    """Distinct (seed, neurons, radius) ensembles built within each op, summed."""
    keys = {(s.op, tuple(s.info["key"])) for s in spans
            if s.name == "ensembles.build" and "key" in s.info}
    return len(keys)
