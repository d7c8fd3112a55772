"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` records one span per call into a layer: name, start, end,
the span that caused it, and the op (one attack, one HTTP request) it
belongs to.  :class:`Instrumentation` wraps the public stage methods of
``repro.stylometry``, ``repro.graph`` and ``repro.core`` so that their
calls open spans; :func:`timed_state_store_class` does the same for
``repro.store``.
Nothing under ``src/`` is changed: the wrappers are installed on the
classes at run time, only in a traced run, and removed afterwards.

A layer's self time is the duration of its spans minus the part of each
span that its direct child spans cover (:func:`layer_self_ms`), so the
self times of all layers of one op add up to the op's duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import namedtuple
from contextlib import contextmanager

#: One recorded interval.  ``parent`` is the id of the enclosing span, or
#: of the op for a top-level span; ``op`` is the op id.
Span = namedtuple("Span", "name start end parent op sid")

#: Layer of the op's own span: time not covered by any layer span is the
#: API/request overhead.
ROOT_LAYER = "api"


def layer_of(name: str) -> str:
    """``"refined.user"`` -> ``"refined"``; the op span is ``"api"``."""
    return name.split(".", 1)[0]


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_self_ms(spans) -> dict:
    """Per-op self time of every layer, ``{op: {layer: ms}}``.

    Each span's self time is its duration minus the union of its direct
    children's intervals (clipped to the span); a layer's self time is the
    sum over its spans.  The op span itself must be in ``spans`` (with
    ``parent`` None and ``sid == op``); its self time lands in ``"api"``.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict = {}
    for span in spans:
        kids = [
            (max(k.start, span.start), min(k.end, span.end))
            for k in children.get(span.sid, ())
        ]
        own = (span.end - span.start) - _covered(
            (s, e) for s, e in kids if e > s
        )
        layer = ROOT_LAYER if span.parent is None else layer_of(span.name)
        per_op = out.setdefault(span.op, {})
        per_op[layer] = per_op.get(layer, 0.0) + own * 1e3
    return out


class Tracer:
    """Collects spans and counters per op; thread-safe.

    :meth:`op` opens an op on the calling thread.  Inside it, :meth:`span`
    records a child span when the op is traced and is a no-op otherwise, so
    traced and untraced ops can alternate in one process and their
    durations be compared.  :meth:`count` adds to a per-op counter on both.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.ops: list = []  # (op id, traced, start, end, label)
        self.counts: dict = {}  # (op id, name) -> value
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._mutex = threading.Lock()

    @contextmanager
    def op(self, traced: bool = True, label: str = ""):
        local = self._local
        op_id = next(self._ids)
        local.op, local.traced, local.stack = op_id, traced, [op_id]
        start = time.perf_counter()
        try:
            yield op_id
        finally:
            end = time.perf_counter()
            local.op = None
            self.ops.append((op_id, traced, start, end, label))
            if traced:
                self.spans.append(Span("op", start, end, None, op_id, op_id))

    @contextmanager
    def span(self, name: str):
        local = self._local
        if not getattr(local, "traced", False) or local.op is None:
            yield
            return
        sid = next(self._ids)
        parent = local.stack[-1]
        local.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            local.stack.pop()
            self.spans.append(Span(name, start, end, parent, local.op, sid))

    def count(self, name: str, by: float = 1) -> None:
        op_id = getattr(self._local, "op", None)
        if op_id is None:
            return
        key = (op_id, name)
        with self._mutex:
            self.counts[key] = self.counts.get(key, 0) + by

    def op_counts(self, name: str, op_ids) -> list:
        return [self.counts.get((op_id, name), 0) for op_id in op_ids]

    def summary(self) -> dict:
        """Per-op layer self times plus traced/untraced op durations.

        ``unaccounted_ms`` is the largest gap, over traced ops, between the
        op's duration and the sum of its layers' self times; the self-time
        arithmetic makes it zero up to float rounding.
        """
        per_op = layer_self_ms(self.spans)
        traced = [op for op in self.ops if op[1]]
        untraced = [op for op in self.ops if not op[1]]
        gap = 0.0
        for op_id, _, start, end, _ in traced:
            layers = per_op.get(op_id, {})
            gap = max(gap, abs((end - start) * 1e3 - sum(layers.values())))
        return {
            "per_op": per_op,
            "traced_ms": [(end - start) * 1e3 for _, _, start, end, _ in traced],
            "untraced_ms": [
                (end - start) * 1e3 for _, _, start, end, _ in untraced
            ],
            "unaccounted_ms": gap,
        }


# --- instrumentation ------------------------------------------------------


def _stage_targets():
    from repro.core.pipeline import DeHealth
    from repro.core.refined import RefinedDeanonymizer
    from repro.core.similarity import SimilarityComputer
    from repro.graph.uda import UDAGraph
    from repro.stylometry.extractor import FeatureExtractor

    return [
        (FeatureExtractor, "extract_rows", "stylometry.extract"),
        (UDAGraph, "__init__", "graph.build"),
        (SimilarityComputer, "candidate_mask", "blocking.mask"),
        (SimilarityComputer, "scores", "similarity.scores"),
        (DeHealth, "top_k_result", "topk.rank"),
        (DeHealth, "top_k_candidates", "topk.candidates"),
        (DeHealth, "deanonymize", "refined.phase"),
        (RefinedDeanonymizer, "deanonymize_user", "refined.user"),
    ]


class Instrumentation:
    """Span wrappers around the public stage methods, installed on the classes.

    Also keeps what the per-layer counters need from inside the stages:
    the last candidate mask with its graph pair (blocking pair fraction and
    true-match recall).  Use as a context manager; exiting restores the
    original methods.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.last_mask = None  # (mask, anonymized users, auxiliary users)
        self._saved: list = []

    def _wrap(self, name: str, method, capture_mask: bool):
        tracer = self.tracer

        @functools.wraps(method)
        def wrapper(obj, *args, **kwargs):
            with tracer.span(name):
                result = method(obj, *args, **kwargs)
            if capture_mask and result is not None:
                self.last_mask = (result, obj.anonymized.users, obj.auxiliary.users)
            return result

        return wrapper

    def __enter__(self) -> "Instrumentation":
        for cls, attr, name in _stage_targets():
            method = cls.__dict__[attr]
            self._saved.append((cls, attr, method))
            setattr(cls, attr, self._wrap(name, method, name == "blocking.mask"))
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, attr, method in reversed(self._saved):
            setattr(cls, attr, method)
        self._saved.clear()


def true_match_recall(last_mask, truth_mapping: dict) -> "tuple[float, float]":
    """``(pair_fraction, true_match_recall)`` of a captured candidate mask.

    Recall is the share of anonymized users with a true match whose match
    survived blocking.
    """
    mask, anon_users, aux_users = last_mask
    aux_index = {u: j for j, u in enumerate(aux_users)}
    matched = kept = 0
    for i, anon in enumerate(anon_users):
        target = truth_mapping.get(anon)
        if target is None or target not in aux_index:
            continue
        matched += 1
        kept += mask.contains(i, aux_index[target])
    return mask.n_pairs / mask.n_total_pairs, (kept / matched if matched else 1.0)


class _CountingConnection:
    """A sqlite3 connection that counts the statements run through it.

    Counting in Python, not with ``set_trace_callback``: sqlite calls that
    callback inside ``sqlite3_step`` holding its connection mutex, and the
    callback needs the interpreter lock, which another thread may hold
    while it waits for that mutex (reading rows of an earlier cursor).
    """

    def __init__(self, conn, tracer: Tracer) -> None:
        self._conn = conn
        self._tracer = tracer

    def execute(self, sql: str, params=()):
        self._tracer.count("store.statements")
        return self._conn.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def timed_state_store_class():
    """A :class:`repro.store.StateStore` subclass that traces its calls.

    Every ``execute`` and every ``transaction`` block opens a ``store``
    span; every SQL statement run on the connection, ``BEGIN``/``COMMIT``
    included, adds one to the op's ``store.statements`` counter.
    """
    from repro.store import StateStore

    class TimedStateStore(StateStore):
        def __init__(self, path, tracer: Tracer) -> None:
            self.tracer = tracer
            super().__init__(path)
            self._conn = _CountingConnection(self._conn, tracer)

        def execute(self, sql: str, params: tuple = ()):
            with self.tracer.span("store.execute"):
                return super().execute(sql, params)

        @contextmanager
        def transaction(self):
            with self.tracer.span("store.transaction"):
                with super().transaction() as state:
                    yield state

    return TimedStateStore


def write_spans(tracer: Tracer, path) -> None:
    """Write every recorded span, one JSON object per line."""
    import json

    with open(path, "w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(span._asdict()) + "\n")
