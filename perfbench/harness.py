"""Measuring machinery shared by the workloads: the counting target proxy,
the span tracer, the layer wrappers and the best-of timer.

Nothing here imports numpy, so ``run.py`` can fix the BLAS thread count
before the first numpy import.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import time
from collections import Counter
from contextlib import contextmanager


class Span:
    """One timed call. ``child_s`` sums the durations of its direct children."""

    __slots__ = ("name", "start", "end", "parent", "child_s", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans in memory and counts calls that get no span.

    Spans nest by call order: a span opened while another is open is its
    child, and its duration is taken off the parent's self time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        span = Span(name, self.clock(), self._open[-1] if self._open else None)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def to_json(self) -> list:
        """Spans as [name, start, end, parent index, attrs], times from the first start."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        return [[s.name, s.start - t0, s.end - t0,
                 None if s.parent is None else index[id(s.parent)], s.attrs]
                for s in self.spans]


class TargetMeter:
    """Counting proxy for ``UnnormalizedTarget``.

    ``wrap`` replaces every callable field of the target, found by
    introspection, with a forwarder that counts points: a field whose
    name ends in ``_batch`` counts one point per row of its first argument,
    any other field one point per call. A field added to the target later
    is forwarded and counted the same way. With a tracer attached, each
    call is also a ``density.<field>`` span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.tracer: Tracer | None = None
        # While a ``BestTimes`` unit runs: the instants at which target
        # calls were entered and left.
        self.marks: list[float] | None = None
        self._points: dict[str, list[int]] = {}   # field -> [points]

    def wrap(self, target):
        forwarders = {
            f.name: self._forwarder(f.name, getattr(target, f.name))
            for f in dataclasses.fields(target)
            if callable(getattr(target, f.name))
        }
        return dataclasses.replace(target, **forwarders)

    def _forwarder(self, name, fn):
        batch = name.endswith("_batch")
        span_name = "density." + name
        tally = self._points.setdefault(name, [0])

        def forward(x, *args):
            n = len(x) if batch else 1
            tally[0] += n
            marks, tracer = self.marks, self.tracer
            if marks is not None:
                marks.append(self.clock())
            if tracer is None:
                try:
                    return fn(x, *args)
                finally:
                    if marks is not None:
                        marks.append(self.clock())
            span = tracer.begin(span_name)
            span.attrs = {"points": n}
            try:
                return fn(x, *args)
            finally:
                tracer.end(span)
                if marks is not None:
                    marks.append(self.clock())

        return forward

    @property
    def points(self) -> dict[str, int]:
        """Points evaluated so far, per field that was called."""
        return {k: v[0] for k, v in self._points.items() if v[0]}

    def total_points(self) -> int:
        return sum(v[0] for v in self._points.values())


# Calls into each layer, wrapped in the module where the caller looks them
# up (``gola`` imports ``nnls`` by name, so ``gola.nnls`` is wrapped, not
# ``mathkit.nnls``). A span name times the call; a count name only counts
# it, for calls whose time belongs to their caller's layer. ``note`` turns
# (args, result) into span attributes.
LAYER_CALLS = (
    ("gola", "multistart_minimize", "gola.multistart", None,
     lambda args, r: {"converged": len(r)}),
    ("gola", "local_minimize", None, "gola.local_search", None),
    ("gola", "dedup_modes", "gola.dedup", None,
     lambda args, r: {"modes": len(r[0])}),
    ("gola", "eval_hessian", None, "gola.hessian", None),
    ("gola", "solve_weights", "gola.weights", None, None),
    ("gola", "sobol_points", "mathkit.sobol", None, None),
    ("gola", "nnls", "mathkit.nnls", None, None),
    ("gola", "chi_square_survival", "mathkit.chi2", None, None),
    ("exemplar", "matrix_exponential", "mathkit.expm", None,
     lambda args, r: {"matrices": 1}),
    ("exemplar", "_expm_batch", "mathkit.expm", None,
     lambda args, r: {"matrices": len(args[0])}),
    ("exemplar", "simulate", None, "exemplar.simulate", None),
    ("exemplar", "pushforward", "exemplar.pushforward", None, None),
    ("vi", "refine", "vi.refine", None,
     lambda args, r: {"epochs": len(r[1].records)}),
    ("metrics", "jsd_normalized", "metrics.jsd", None, None),
    ("sensibench", "generate_test_gmm", "sensibench.generate", None, None),
    ("sensibench", "dice_overlap", None, "sensibench.dice", None),
)


def _spanned(tracer, fn, name, note):
    def call(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if note is not None:
            span.attrs = note(args, result)
        return result
    return call


def _counted(tracer, fn, name):
    def call(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return call


@contextmanager
def layer_wrappers(tracer: Tracer):
    """Wrap every call in ``LAYER_CALLS`` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span_name, count_name, note in LAYER_CALLS:
            module = importlib.import_module("postmix." + module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            wrapped = (_spanned(tracer, fn, span_name, note) if span_name
                       else _counted(tracer, fn, count_name))
            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class BestTimes:
    """Fastest repeat of each stretch of a unit of work across interleaved passes.

    A unit is one program call. The meter cuts it into stretches at every
    entry into and exit from a target call. Passes repeat the same calls in
    the same order, so stretch ``i`` of one pass is the same work as stretch
    ``i`` of any other. Each stretch keeps its fastest repeat, and a unit's
    time is the sum of those. A shared core runs slow in spells that come
    and go within seconds; a stretch lasts micro- to milliseconds, so each
    one meets a fast moment in some pass, where a whole unit of seconds
    would average over the spells. A unit whose stretch count differs
    between passes (it did other work) keeps only its fastest whole repeat.
    """

    def __init__(self, meter: TargetMeter):
        self.meter = meter
        self.best: dict[str, list[float]] = {}
        self.fit_units: set[str] = set()

    @contextmanager
    def unit(self, key: str, fit: bool = False):
        # Start every unit from a collected heap, so garbage left by the
        # previous unit does not trigger a collection inside this one.
        gc.collect()
        clock = self.meter.clock
        marks = [clock()]
        self.meter.marks = marks
        try:
            yield
        finally:
            self.meter.marks = None
        marks.append(clock())
        stretches = [b - a for a, b in zip(marks, marks[1:])]
        best = self.best.get(key)
        if best is None:
            self.best[key] = stretches
        elif len(best) == len(stretches):
            self.best[key] = list(map(min, best, stretches))
        else:
            self.best[key] = [min(sum(best), sum(stretches))]
        if fit:
            self.fit_units.add(key)

    def unit_s(self, key: str) -> float:
        return sum(self.best[key])

    def wall_s(self) -> float:
        return sum(map(self.unit_s, self.best))

    def fit_s(self) -> float:
        return sum(map(self.unit_s, self.fit_units))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, as name -> (value, unit)."""
    total, own, calls = Counter(), Counter(), Counter()
    attr = Counter()
    jsd_in_refine = 0.0
    mc_points = 0
    for s in tracer.spans:
        total[s.name] += s.duration
        own[s.name] += s.self_s
        calls[s.name] += 1
        for key, value in (s.attrs or {}).items():
            attr[s.name, key] += value
        in_refine = s.parent is not None and s.parent.name == "vi.refine"
        if in_refine and s.name == "metrics.jsd":
            jsd_in_refine += s.duration
        if in_refine and s.name.startswith("density."):
            mc_points += s.attrs["points"]

    def ratio(num, den):
        return num / den if den else 0.0

    density = [n for n in calls if n.startswith("density.")]
    logphi = ("density.log_phi", "density.log_phi_batch")
    grads = ("density.gradient", "density.gradient_batch")
    points = sum(attr[n, "points"] for n in density)
    searches = tracer.counts["gola.local_search"]
    converged = attr["gola.multistart", "converged"]
    epochs = attr["vi.refine", "epochs"]
    return {
        "gola.multistart_self_s": (own["gola.multistart"], "s"),
        "gola.local_searches": (searches, "count"),
        "gola.converged_per_start": (ratio(converged, searches), "1"),
        "gola.modes_per_converged": (ratio(attr["gola.dedup", "modes"], converged), "1"),
        "gola.dedup_s": (total["gola.dedup"], "s"),
        "gola.hessian_calls": (tracer.counts["gola.hessian"], "count"),
        "gola.weights_s": (total["gola.weights"], "s"),
        "density.target_s": (sum(total[n] for n in density), "s"),
        "density.logphi_calls": (sum(calls[n] for n in logphi), "count"),
        "density.grad_calls": (sum(calls[n] for n in grads), "count"),
        "density.points_per_call": (ratio(points, sum(calls[n] for n in density)),
                                    "points/call"),
        "density.logphi_points": (sum(attr[n, "points"] for n in logphi), "count"),
        "mathkit.sobol_s": (total["mathkit.sobol"], "s"),
        "mathkit.nnls_s": (total["mathkit.nnls"], "s"),
        "mathkit.chi2_calls": (calls["mathkit.chi2"], "count"),
        "mathkit.chi2_s": (total["mathkit.chi2"], "s"),
        "mathkit.expm_calls": (calls["mathkit.expm"], "count"),
        "mathkit.expm_matrices": (attr["mathkit.expm", "matrices"], "count"),
        "mathkit.expm_s": (total["mathkit.expm"], "s"),
        "exemplar.simulate_calls": (tracer.counts["exemplar.simulate"], "count"),
        "exemplar.pushforward_s": (total["exemplar.pushforward"], "s"),
        "vi.refine_s": (total["vi.refine"], "s"),
        "vi.epochs": (epochs, "count"),
        "vi.epoch_s": (ratio(total["vi.refine"] - jsd_in_refine, epochs), "s"),
        "vi.mc_points": (mc_points, "count"),
        "metrics.jsd_s": (total["metrics.jsd"], "s"),
        "metrics.jsd_calls": (calls["metrics.jsd"], "count"),
    }


def setup_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of the traced set-up."""
    generate = [s for s in tracer.spans if s.name == "sensibench.generate"]
    return {
        "sensibench.generate_s": (sum(s.duration for s in generate), "s"),
        "sensibench.dice_calls": (tracer.counts["sensibench.dice"], "count"),
    }
