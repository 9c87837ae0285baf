"""Spans and request-scoped tracing: trace/span identity and waterfalls.

Every timed block in the stack — a DIM epoch, an SSE probe, a serving
request's queue wait — is a span of this one model.  Identity, not the
lexical stack of the current thread, links spans, so causality survives
a serving request crossing the dispatcher queue or a sharded run fanning
out into fork workers:

:class:`TraceContext`
    An immutable ``(trace_id, span_id, parent_span_id)`` triple.  One
    trace = one request (or one sharded run); every span within it carries
    the same ``trace_id`` and links to its parent via ``parent_span_id``.
:func:`span` / :func:`record_span`
    Emit ``span`` events that carry the context (plus a ``start`` offset
    on the recorder clock), so a trace file can be reassembled into a
    latency waterfall after the fact.  ``span()`` manages a per-thread
    context stack; ``record_span()`` is the explicit form used when the
    span's endpoints were measured elsewhere (e.g. the serving dispatcher
    timestamps ``submitted``/``dequeued`` across threads).
:func:`current_trace` / :func:`set_trace_context` / :func:`trace_context`
    The per-thread ambient context.  :mod:`repro.parallel` propagates it
    through fork spawn payloads so spans emitted in a worker re-link to
    the parent trace on absorption (see ``InMemoryRecorder.absorb`` and
    clock anchoring in :class:`~repro.obs.recorder.InMemoryRecorder`).
:func:`spans_of_trace` / :func:`trace_ids` / :func:`format_waterfall`
    Offline analysis over an exported trace dict — what the
    ``repro obs waterfall`` CLI renders.

Pure standard library by design — same layering rule as the rest of
``repro.obs``.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .export import TraceLike, trace_to_dict
from .recorder import Recorder, get_recorder

__all__ = [
    "TraceContext",
    "start_trace",
    "current_trace",
    "set_trace_context",
    "trace_context",
    "span",
    "record_span",
    "spans_of_trace",
    "trace_ids",
    "format_trace_index",
    "format_waterfall",
]


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one span within one trace.

    ``trace_id`` groups every span of a request end to end;
    ``span_id`` names this span; ``parent_span_id`` links it upward
    (``None`` for the root span).
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    def child(self) -> "TraceContext":
        """A fresh child context: same trace, new span, parented here."""
        return TraceContext(self.trace_id, _new_id(), self.span_id)

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Optional[str]]) -> "TraceContext":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_span_id=(
                None
                if data.get("parent_span_id") is None
                else str(data["parent_span_id"])
            ),
        )


def start_trace() -> TraceContext:
    """A fresh root context: new trace, new root span, no parent."""
    return TraceContext(trace_id=_new_id(), span_id=_new_id())


_local = threading.local()


def current_trace() -> Optional[TraceContext]:
    """The ambient context on this thread (``None`` outside any trace)."""
    return getattr(_local, "ctx", None)


def set_trace_context(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``ctx`` as this thread's ambient context; returns the old one."""
    previous = current_trace()
    _local.ctx = ctx
    return previous


@contextmanager
def trace_context(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Scoped :func:`set_trace_context`: restores the previous context on exit."""
    previous = set_trace_context(ctx)
    try:
        yield ctx
    finally:
        set_trace_context(previous)


def record_span(
    name: str,
    ctx: TraceContext,
    seconds: float,
    start: Optional[float] = None,
    recorder: Optional[Recorder] = None,
    **fields: object,
) -> None:
    """Emit one already-measured span under ``ctx``.

    ``start`` is the span's start offset on the recorder clock (see
    ``InMemoryRecorder.clock_at``); when omitted, waterfall rendering falls
    back to ``event.t - seconds``.  No-op when the recorder is disabled.
    """
    rec = recorder if recorder is not None else get_recorder()
    if not rec.enabled:
        return
    rec.observe(f"span.{name}.seconds", float(seconds))
    payload: Dict[str, object] = {"span": name, "seconds": float(seconds)}
    if start is not None:
        payload["start"] = float(start)
    payload.update(ctx.to_dict())
    payload.update(fields)
    rec.emit("span", **payload)


@contextmanager
def span(
    name: str, recorder: Optional[Recorder] = None, **fields: object
) -> Iterator[Optional[TraceContext]]:
    """Time a block as a traced span and yield its :class:`TraceContext`.

    Child of the ambient :func:`current_trace` when one is set, otherwise
    the root of a brand-new trace.  The yielded context becomes ambient for
    the block (so nested ``span()`` calls chain), and the ``span`` event is
    emitted on close with the context and a ``start`` clock offset.  With a
    disabled recorder the block runs untimed and ``None`` is yielded.
    """
    rec = recorder if recorder is not None else get_recorder()
    if not rec.enabled:
        yield None
        return
    parent = current_trace()
    ctx = parent.child() if parent is not None else start_trace()
    clock_at = getattr(rec, "clock_at", None)
    t0 = time.perf_counter()
    previous = set_trace_context(ctx)
    try:
        yield ctx
    finally:
        seconds = time.perf_counter() - t0
        set_trace_context(previous)
        record_span(
            name,
            ctx,
            seconds,
            start=clock_at(t0) if callable(clock_at) else None,
            recorder=rec,
            **fields,
        )


# ----------------------------------------------------------------------
# Offline analysis: spans -> waterfall
# ----------------------------------------------------------------------
def spans_of_trace(
    trace: TraceLike, trace_id: Optional[str] = None
) -> List[Dict[str, object]]:
    """Extract the ``span`` events of a trace.

    Each returned dict has ``name`` / ``seconds`` / ``start`` /
    ``trace_id`` / ``span_id`` / ``parent_span_id`` plus any extra span
    fields; ``trace_id`` filters to one request's spans.  A ``span``
    event without trace identity raises ``ValueError``.
    """
    spans: List[Dict[str, object]] = []
    for event in trace_to_dict(trace)["events"]:
        if event["name"] != "span":
            continue
        fields = event.get("fields", {})
        if "trace_id" not in fields:
            raise ValueError(f"span {fields.get('span')!r} carries no trace_id")
        if trace_id is not None and fields["trace_id"] != trace_id:
            continue
        seconds = float(fields["seconds"])
        start = fields.get("start")
        record = dict(fields)
        record["name"] = record.pop("span")
        record["seconds"] = seconds
        record["start"] = (
            float(start) if start is not None else float(event["t"]) - seconds
        )
        spans.append(record)
    return spans


def trace_ids(trace: TraceLike) -> Dict[str, Dict[str, object]]:
    """Index the traces present in a trace file.

    Maps ``trace_id`` to ``{"root", "n_spans", "seconds", "start"}`` where
    ``root`` is the name of the parentless span (``"?"`` if the root was
    not captured) and ``seconds`` is the root's duration (or the spans'
    envelope when there is no root).  Sorted by start time.
    """
    groups: Dict[str, List[Dict[str, object]]] = {}
    for record in spans_of_trace(trace):
        groups.setdefault(str(record["trace_id"]), []).append(record)
    index: Dict[str, Dict[str, object]] = {}
    for tid, spans in groups.items():
        roots = [s for s in spans if s.get("parent_span_id") is None]
        t0 = min(float(s["start"]) for s in spans)
        t1 = max(float(s["start"]) + float(s["seconds"]) for s in spans)
        index[tid] = {
            "root": str(roots[0]["name"]) if roots else "?",
            "n_spans": len(spans),
            "seconds": float(roots[0]["seconds"]) if roots else t1 - t0,
            "start": t0,
        }
    return dict(sorted(index.items(), key=lambda kv: kv[1]["start"]))


def format_trace_index(trace: TraceLike) -> str:
    """One line per trace in the file — what to feed ``--trace-id``."""
    index = trace_ids(trace)
    if not index:
        return "no traced spans found (record with a tracing-aware build)"
    lines = [f"{len(index)} trace(s):"]
    for tid, info in index.items():
        lines.append(
            f"  {tid}  {info['root']:<24} spans={info['n_spans']:<3} "
            f"{1000.0 * float(info['seconds']):8.2f}ms @ {float(info['start']):.3f}s"
        )
    return "\n".join(lines)


def format_waterfall(trace: TraceLike, trace_id: str, width: int = 40) -> str:
    """Render one trace's spans as an indented latency waterfall.

    ``width`` is the bar column in characters; bars are positioned on the
    trace's own [first start, last end] envelope.  Raises ``ValueError``
    when the trace id has no spans in the file.
    """
    spans = spans_of_trace(trace, trace_id=trace_id)
    if not spans:
        raise ValueError(f"no spans found for trace id {trace_id!r}")
    spans.sort(key=lambda s: (float(s["start"]), -float(s["seconds"])))
    t0 = min(float(s["start"]) for s in spans)
    t1 = max(float(s["start"]) + float(s["seconds"]) for s in spans)
    total = max(t1 - t0, 1e-9)
    by_id = {str(s["span_id"]): s for s in spans}
    children: Dict[Optional[str], List[Dict[str, object]]] = {}
    for record in spans:
        parent = record.get("parent_span_id")
        key = str(parent) if parent is not None and str(parent) in by_id else None
        children.setdefault(key, []).append(record)

    name_width = max(len(str(s["name"])) + 2 * _depth(s, by_id) for s in spans)
    lines = [
        f"trace {trace_id}: {len(spans)} spans over {1000.0 * total:.2f}ms"
    ]

    def render(record: Dict[str, object], depth: int) -> None:
        start = float(record["start"]) - t0
        seconds = float(record["seconds"])
        lead = int(round(width * start / total))
        bar = max(1, int(round(width * seconds / total)))
        lead = min(lead, width - 1)
        bar = min(bar, width - lead)
        label = "  " * depth + str(record["name"])
        lines.append(
            f"  {label:<{name_width}} |{' ' * lead}{'#' * bar}"
            f"{' ' * (width - lead - bar)}| {1000.0 * start:8.2f}ms "
            f"+{1000.0 * seconds:.2f}ms"
        )
        for child in children.get(str(record["span_id"]), []):
            render(child, depth + 1)

    for root in children.get(None, []):
        render(root, 0)
    return "\n".join(lines)


def _depth(record: Dict[str, object], by_id: Dict[str, Dict[str, object]]) -> int:
    depth = 0
    seen = set()
    parent = record.get("parent_span_id")
    while parent is not None and str(parent) in by_id and str(parent) not in seen:
        seen.add(str(parent))
        depth += 1
        parent = by_id[str(parent)].get("parent_span_id")
    return depth
