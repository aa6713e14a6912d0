"""Spans around the public functions of the qmcgreeks layers.

The benchmark measures layers from the outside: `Tracer` replaces each
public function of the six layer modules (and `DigitalScramble.apply`)
with a wrapper that records a span, at every place the package binds
it, so `estimator.simulate_paths` and `lt.simulate_paths` are both
seen. Spans stay in memory; `layer_metrics` folds them into the
per-layer numbers once a pass ends.

Attribution rules:

* a span's self time is its duration minus the union of its children's
  intervals, so nested calls are not counted twice;
* everything under `lt.build_lt_matrix` is LT build time, whatever layer
  the callee belongs to;
* spans opened by worker threads while an `estimate` call is active are
  children of that call, so `estimator.self_s` is the call's wall time
  minus the union of all its children, across threads;
* `weights.best_of_s` is inclusive: it contains `weights.jet_s`, the
  `lincomb_jet` calls made inside the best_of weight.

This module uses only the standard library, so importing it costs the
set-up measurement nothing.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

LAYER_MODULES = ("qmc", "lt", "market", "payoffs", "weights", "estimator")

# function name -> metric; other public functions of a module take its default
DEFAULT_METRIC = {
    "qmc": "qmc.assemble_s",
    "lt": "lt.build_s",
    "market": "market.paths_s",
    "payoffs": "payoffs.evaluate_s",
    "weights": "weights.localize_s",
    "estimator": "estimator.self_s",
}
FUNCTION_METRIC = {
    "to_normal": "qmc.ndtri_s",
    "simulate_paths": "market.rotate_s",
    "fixed_strike_blocks": "weights.blocks_s",
    "floating_strike_blocks": "weights.blocks_s",
    "skorohod_weight": "weights.weight_s",
    "digital_weight": "weights.weight_s",
    "reciprocal_divergence": "weights.weight_s",
    "best_of_weight": "weights.best_of_s",
    "lincomb_jet": "weights.jet_s",
}
SCRAMBLE = "DigitalScramble.apply"
ROOT = "estimate"
LT_BUILD = "build_lt_matrix"
# replication-indexed draw requests; the outermost one of a call is the request
DRAW_REQUESTS = ("replication_normals", "replication_uniforms", "lss_assemble")

TIME_METRICS = (
    "qmc.scramble_s", "qmc.assemble_s", "qmc.ndtri_s", "lt.build_s",
    "market.rotate_s", "market.paths_s", "payoffs.evaluate_s",
    "weights.blocks_s", "weights.weight_s", "weights.best_of_s",
    "weights.jet_s", "weights.localize_s", "estimator.pilot_s",
    "estimator.self_s",
)
COUNT_METRICS = (
    "qmc.draws", "lt.build_sim_calls", "market.paths", "weights.calls",
    "estimator.pilot_paths",
)
# self-time metrics that partition the time inside `estimate`
SELF_METRICS = (
    "qmc.scramble_s", "qmc.assemble_s", "qmc.ndtri_s", "market.rotate_s",
    "market.paths_s", "payoffs.evaluate_s", "weights.blocks_s",
    "weights.weight_s", "weights.best_of_s", "weights.jet_s",
    "weights.localize_s", "estimator.self_s",
)


@dataclass
class Span:
    id: int
    name: str
    metric: str
    thread: int
    start: float
    end: float
    parent: int | None
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def _note_for(name: str, signature: inspect.Signature):
    """Callable recording what a span counts, or None for plain spans."""
    if name in DRAW_REQUESTS:
        def note(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            config = bound["config"]
            return {"index": int(bound["replication"]),
                    "replications": config.replications,
                    "points": config.points_per_replication}
        return note
    if name == "to_normal":
        return lambda args, kwargs, result: {"draws": int(result.size)}
    if name == "simulate_paths":
        def note(args, kwargs, result):
            return {"paths": int(signature.bind(*args, **kwargs)
                                 .arguments["normals"].shape[0])}
        return note
    return None


def layer_targets(package) -> list[tuple[object, str, str, str]]:
    """(owner, attribute, span name, metric) for every traced function."""
    targets = []
    for module_name in LAYER_MODULES:
        module = getattr(package, module_name)
        for name, obj in sorted(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            metric = FUNCTION_METRIC.get(name, DEFAULT_METRIC[module_name])
            targets.append((module, name, name, metric))
    targets.append((package.qmc.DigitalScramble, "apply", SCRAMBLE,
                    "qmc.scramble_s"))
    return targets


class Tracer:
    """Context manager that installs span-recording wrappers.

    Every binding of a traced function in the package's modules is
    replaced on entry and restored on exit, also when the body raises.
    """

    def __init__(self, package):
        self._package = package
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    def _wrap(self, fn, name: str, metric: str):
        note = _note_for(name, inspect.signature(fn))
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            is_root = name == ROOT and self._root is None
            if is_root:
                self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
            spans.append(Span(span_id, name, metric, threading.get_ident(),
                              start, end, parent,
                              note(args, kwargs, result) if note else {}))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [module for name, module in sys.modules.items()
                   if module is not None and (name == self._package.__name__
                                              or name.startswith(self._package.__name__ + "."))]
        try:
            for owner, attr, name, metric in layer_targets(self._package):
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, metric)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()


def _ancestors(span: Span, by_id: dict[int, Span]):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration
            - union_length(children.get(span.id, ()), span.start, span.end)
            for span in spans}


def pilot_window(requests: list[Span]) -> tuple[float, float] | None:
    """Interval from the first pilot-index draw request to the first
    main-index request after it, for the requests of one `estimate` call.

    A pilot index is one at or past the main run's replication count.
    """
    pilot = [s.start for s in requests if s.note["index"] >= s.note["replications"]]
    if not pilot:
        return None
    begin = min(pilot)
    main = [s.start for s in requests
            if s.note["index"] < s.note["replications"] and s.start >= begin]
    return begin, min(main) if main else max(s.end for s in requests)


def layer_metrics(spans: list[Span], workers: int, wall: float) -> dict[str, float]:
    """Per-layer totals of one traced pass.

    wall is the pass's wall time from the first `estimate` call to the
    last report; workers the thread count the pass gave `estimate`.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    metrics = dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0.0)
    calls: dict[int, list[Span]] = {}   # estimate span id -> its draw requests
    busy: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        lineage = list(_ancestors(span, by_id))
        names = {a.name for a in lineage}
        if LT_BUILD in names or span.name == LT_BUILD:
            if span.name == LT_BUILD and LT_BUILD not in names:
                metrics["lt.build_s"] += span.duration
            if span.name == "simulate_paths":
                metrics["lt.build_sim_calls"] += 1
            continue
        if span.name == ROOT:
            metrics["estimator.self_s"] += own[span.id]
            continue
        if span.metric == "weights.best_of_s":
            metrics["weights.best_of_s"] += span.duration
        else:
            metrics[span.metric] += own[span.id]
        if span.metric.startswith("weights."):
            metrics["weights.calls"] += 1
        metrics["qmc.draws"] += span.note.get("draws", 0)
        metrics["market.paths"] += span.note.get("paths", 0)
        root = next((a for a in lineage if a.name == ROOT), None)
        if root is None:
            continue
        if span.parent == root.id:
            busy.setdefault(span.thread, []).append((span.start, span.end))
        if span.name in DRAW_REQUESTS and not names.intersection(DRAW_REQUESTS):
            calls.setdefault(root.id, []).append(span)
    for requests in calls.values():
        window = pilot_window(requests)
        if window is None:
            continue
        metrics["estimator.pilot_s"] += window[1] - window[0]
        metrics["estimator.pilot_paths"] += sum(
            s.note["points"] for s in requests
            if window[0] <= s.start < window[1]
            and s.note["index"] >= s.note["replications"])
    thread_time = sum(union_length(intervals) for intervals in busy.values())
    metrics["estimator.thread_busy"] = thread_time / (workers * wall) if wall > 0 else 0.0
    return metrics


def accounted_share(metrics: dict[str, float], wall: float) -> float:
    """Layer self times plus estimator self time over the pass wall time.

    weights.best_of_s contains weights.jet_s, so the jet share is taken
    out once. Near 1 for a single worker; with more workers the sum
    counts every thread's busy time and exceeds 1.
    """
    total = sum(metrics[name] for name in SELF_METRICS) - metrics["weights.jet_s"]
    return total / wall if wall > 0 else 0.0
