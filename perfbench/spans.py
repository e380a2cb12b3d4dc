"""Spans around the library's public layer entry points, installed from outside.

The traced benchmark run patches the public methods listed in
``TRACE_POINTS`` (and the active kernel backend's ``dtw_batch*``) with
wrappers that record a span per call: name, start, end, parent span and the
benchmark request it ran under.  Nothing in ``src/`` knows about it; work
done inside pool workers or shard servers shows up only as the span of the
parent-side call that waits for it.

A layer's *self time* is its span's duration minus the time covered by its
child spans on the same thread.  ``DistanceStore.get``/``put`` run once per
pair (hundreds of thousands of calls per run), so they are aggregated as
counts and self time instead of being written one line each.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, owner attribute or None for a module function, method, span name)
TRACE_POINTS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.core.trainer", None, "build_training_tables", "core.tables"),
    ("repro.core.weak_learner", "TripleWeakLearner", "__call__", "core.weak_learner"),
    ("repro.core.adaboost", "AdaBoost", "step", "core.step"),
    ("repro.distances.context", "DistanceContext", "register", "context.register"),
    ("repro.distances.context", "DistanceContext", "distances_to", "context.distances_to"),
    ("repro.distances.context", "DistanceContext", "distances_to_many", "context.distances_to_many"),
    ("repro.distances.context", "DistanceStore", "get", "store.get"),
    ("repro.distances.context", "DistanceStore", "put", "store.put"),
    ("repro.retrieval.engine", "EmbedStage", "run", "engine.embed"),
    ("repro.retrieval.engine", "FilterStage", "run", "engine.filter"),
    ("repro.retrieval.engine", "ShardedFilterStage", "run", "engine.filter"),
    ("repro.retrieval.engine", "RefineStage", "run", "engine.refine"),
    ("repro.retrieval.engine", "MergeStage", "run", "engine.merge"),
    ("repro.retrieval.planner", "PlannedRetriever", "calibrate", "planner.calibrate"),
    ("repro.retrieval.planner", "PlannedRetriever", "choose_p", "planner.choose_p"),
    ("repro.index.pool", "PersistentPool", "submit", "pool.submit"),
    ("repro.index.pool", "PoolJob", "results", "pool.results"),
    ("repro.index.serving", "QueryTicket", "result", "serving.ticket"),
    ("repro.index.embedding_index", "EmbeddingIndex", "save", "artifact.save"),
    ("repro.index.embedding_index", "EmbeddingIndex", "open", "artifact.open"),
    ("repro.remote.client", "ShardConnection", "request_filter", "remote.request"),
    ("repro.remote.client", "ShardConnection", "request_refine", "remote.request"),
    ("repro.remote.client", "ShardConnection", "request_health", "remote.request"),
]

#: Span names aggregated without a per-call record (see module docstring).
AGGREGATED = {"store.get", "store.put"}


def _evaluations(args) -> int:
    return args[0].distance_evaluations


#: Span name -> reading taken just before the call, passed to its counter.
BEFORE: Dict[str, Callable[[tuple], int]] = {
    "context.distances_to": _evaluations,
    "context.distances_to_many": _evaluations,
}


def _plan_counts(args, _result, _before) -> Dict[str, int]:
    plan = args[1]
    return {"queries": len(plan.objects)}


def _refine_counts(args, _result, _before) -> Dict[str, int]:
    plan = args[1]
    evals = 0
    for cost, candidates in zip(plan.refine_costs, plan.candidate_lists):
        evals += int(candidates.shape[0] if cost is None else cost)
    candidates = sum(int(c.shape[0]) for c in plan.candidate_lists)
    return {"queries": len(plan.objects), "evals": evals, "hits": candidates - evals}


def _context_counts(args, _result, before) -> Dict[str, int]:
    # The context's own counter: evaluations performed, store hits excluded.
    return {"evals": _evaluations(args) - before}


def _register_counts(args, _result, _before) -> Dict[str, int]:
    return {"objects": len(args[1])}


def _get_counts(_args, result, _before) -> Dict[str, int]:
    return {"hits": int(result is not None)}


def _dtw_cells(args, _result, _before) -> Dict[str, int]:
    # dtw_batch(xs, ys, radius) / dtw_batch_mixed(xs, ys, lengths, radii):
    # cells inside the warping band, one row of xs at a time.
    xs, ys = args[1], args[2]
    n, g, m = int(xs.shape[0]), int(ys.shape[0]), int(ys.shape[1])
    band = args[3] if len(args) == 4 else max(int(r) for r in args[4])
    return {"cells": g * n * min(m, 2 * int(band) + 1)}


COUNTERS: Dict[str, Callable[[tuple, Any, Any], Dict[str, int]]] = {
    "engine.embed": _plan_counts,
    "engine.filter": _plan_counts,
    "engine.merge": _plan_counts,
    "engine.refine": _refine_counts,
    "context.distances_to": _context_counts,
    "context.distances_to_many": _context_counts,
    "context.register": _register_counts,
    "store.get": _get_counts,
    "kernel.dtw_batch": _dtw_cells,
}


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`uninstall` restores.

    Spans recorded while :attr:`request` is ``None`` belong to set-up; spans
    recorded while the benchmark serves a request carry its id.
    """

    def __init__(self) -> None:
        self.active = False
        self.request: Optional[str] = None
        self.spans: List[Dict[str, Any]] = []
        #: (name, phase) -> {"calls", "self_ns", "total_ns", <counts>...}
        self.totals: Dict[Tuple[str, str], Dict[str, int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        """A context manager recording one span (for the benchmark's own steps)."""
        return _Span(self, name)

    def _enter(self) -> Optional[list]:
        if not self.active:
            return None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0, parent, time.perf_counter_ns()]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, counts: Dict[str, int]) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][1] += duration
        self_ns = max(duration - frame[1], 0)
        phase = "setup" if self.request is None else "serve"
        with self._lock:
            bucket = self.totals.setdefault(
                (name, phase), {"calls": 0, "self_ns": 0, "total_ns": 0}
            )
            bucket["calls"] += 1
            bucket["self_ns"] += self_ns
            bucket["total_ns"] += duration
            for key, value in counts.items():
                bucket[key] = bucket.get(key, 0) + value
            if name not in AGGREGATED:
                self.spans.append(
                    {
                        "id": frame[0],
                        "name": name,
                        "start_ns": frame[3],
                        "end_ns": end,
                        "self_ns": self_ns,
                        "parent": frame[2],
                        "request": self.request,
                        **counts,
                    }
                )

    def _wrap(self, function: Callable, name: str) -> Callable:
        tracer = self
        count = COUNTERS.get(name)
        before = BEFORE.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            if frame is None:
                return function(*args, **kwargs)
            reading = before(args) if before else None
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer._exit(name, frame, {})
                raise
            tracer._exit(name, frame, count(args, result, reading) if count else {})
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self._wrap(original.__func__, name))
        else:
            replacement = self._wrap(original, name)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self, kernel_backend: Any) -> None:
        """Patch every trace point and the active kernel backend's DTW entry points."""
        for module_name, owner_name, attribute, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._patch(owner, attribute, name)
        for attribute in ("dtw_batch", "dtw_batch_mixed"):
            if attribute in type(kernel_backend).__dict__:
                self._patch(type(kernel_backend), attribute, "kernel.dtw_batch")
        self.active = True

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        self.active = False
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reporting -------------------------------------------------------

    def total(self, name: str, key: str = "self_ns", phase: Optional[str] = None) -> int:
        """Sum of ``key`` over the spans called ``name`` (both phases by default)."""
        return sum(
            bucket.get(key, 0)
            for (span_name, span_phase), bucket in self.totals.items()
            if span_name == name and (phase is None or span_phase == phase)
        )

    def write_jsonl(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def table(self) -> List[str]:
        """Per-span self time and counts, one line per (span, phase)."""
        lines = [f"{'span':<28}{'phase':<7}{'calls':>9}{'self_s':>10}{'total_s':>10}  counts"]
        for (name, phase), bucket in sorted(self.totals.items()):
            extra = {
                k: v for k, v in bucket.items() if k not in ("calls", "self_ns", "total_ns")
            }
            lines.append(
                f"{name:<28}{phase:<7}{bucket['calls']:>9}"
                f"{bucket['self_ns'] / 1e9:>10.3f}{bucket['total_ns'] / 1e9:>10.3f}  "
                + " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            )
        return lines


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame: Optional[list] = None

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._enter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.frame is not None:
            self.tracer._exit(self.name, self.frame, {})
