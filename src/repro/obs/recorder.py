"""Recorders: the event half of the observability layer.

The instrumentation contract (documented in ``docs/observability.md``) is
deliberately tiny so every layer of the stack can afford it:

* Hot paths fetch the process-wide recorder with :func:`get_recorder` and
  guard all work behind ``recorder.enabled`` — with the default
  :class:`NullRecorder` attached, instrumentation costs one function call
  and one attribute read per site.
* When a :class:`InMemoryRecorder` is attached (usually via the
  :func:`recording` context manager), instrumented code emits structured
  :class:`Event` rows and updates metrics on the recorder's
  :class:`~repro.obs.registry.MetricsRegistry`.
* :func:`repro.obs.tracing.span` times a code block as a named span on top
  of this layer: each close emits one ``span`` event carrying the span's
  trace identity and duration, plus a ``span.<name>.seconds`` histogram
  observation.

Pure standard library by design — this module sits below ``repro.tensor``
in the dependency order and must not import anything from ``repro``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .registry import MetricsRegistry

__all__ = [
    "Event",
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "get_recorder",
    "set_recorder",
    "recording",
]


@dataclass
class Event:
    """One structured telemetry row.

    ``t`` is seconds since the recorder was attached; ``fields`` holds the
    event's scalar payload (numbers, strings, bools, ``None``).
    """

    name: str
    t: float
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "t": self.t, "fields": dict(self.fields)}


class Recorder:
    """Recorder protocol: what instrumented code is allowed to call.

    ``enabled`` is the contract's overhead guarantee: instrumentation MUST
    check it before doing any work beyond the call itself, so a disabled
    recorder costs O(1) per site with no allocation.
    """

    enabled: bool = False

    @property
    def metrics(self) -> MetricsRegistry:
        raise NotImplementedError

    def emit(self, name: str, **fields: object) -> None:
        raise NotImplementedError

    # Metric conveniences so call sites need only the recorder handle.
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)


class NullRecorder(Recorder):
    """The default recorder: every operation is a no-op.

    Kept stateless and metric-free so an accidentally unguarded call still
    cannot accumulate memory.
    """

    enabled = False

    @property
    def metrics(self) -> MetricsRegistry:  # fresh throwaway, never retained
        return MetricsRegistry()

    def emit(self, name: str, **fields: object) -> None:
        pass

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


class InMemoryRecorder(Recorder):
    """Collects events and metrics in memory for later export.

    ``max_events`` bounds the event list; overflow increments
    ``dropped_events`` (reported in the exported trace) instead of growing
    without bound during long runs.  Metrics are always updated — they are
    O(1) in memory by construction.
    """

    enabled = True

    def __init__(
        self, max_events: int = 100_000, clock_anchor: Optional[float] = None
    ) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.events: List[Event] = []
        self.dropped_events = 0
        self._metrics = MetricsRegistry()
        # A fork worker anchors its recorder to the parent recorder's epoch
        # (perf_counter is the system-wide monotonic clock on Linux, so the
        # anchor survives the fork): its event timestamps are then directly
        # comparable to the parent's, and absorb() keeps them verbatim.
        self._start = time.perf_counter() if clock_anchor is None else clock_anchor
        self.anchored = clock_anchor is not None
        self._lock = threading.Lock()

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def clock(self) -> float:
        """Seconds since this recorder was created (or since its anchor)."""
        return time.perf_counter() - self._start

    def clock_at(self, perf_t: float) -> float:
        """Map a ``time.perf_counter()`` reading onto this recorder's clock."""
        return perf_t - self._start

    def emit(self, name: str, **fields: object) -> None:
        self._record(Event(name=name, t=self.clock(), fields=fields))

    def _record(self, event: Event) -> None:
        with self._lock:
            if len(self.events) < self.max_events:
                self.events.append(event)
            else:
                self.dropped_events += 1

    def to_dict(self, include_samples: bool = False) -> Dict[str, object]:
        """JSON-ready trace: events, metric snapshot, bookkeeping.

        ``include_samples`` adds each histogram's digest centroids to the
        snapshot so another recorder can :meth:`absorb` the trace with
        exact moments and merged quantiles (worker→parent merging in
        ``repro.parallel``).
        """
        with self._lock:
            events = [event.to_dict() for event in self.events]
            dropped = self.dropped_events
        return {
            "version": 1,
            "duration_seconds": self.clock(),
            "n_events": len(events),
            "dropped_events": dropped,
            "anchored": self.anchored,
            "events": events,
            "metrics": self._metrics.snapshot(include_samples=include_samples),
        }

    def absorb(self, trace: Dict[str, object]) -> None:
        """Merge a child recorder's trace dict into this recorder.

        Used by :class:`repro.parallel.ExecutionContext` to fold per-worker
        telemetry back into the parent: events from an *anchored* child
        (one created with ``clock_anchor=parent._start``) keep their
        original timestamps — they are already on this recorder's clock —
        while unanchored events are re-stamped at absorb time; counters
        add, gauges take the child's last value, and histograms merge via
        :meth:`Histogram.absorb` — count/total/mean/min/max exactly, the
        quantile digests by merging their centroids.  Callers should absorb
        child traces in a deterministic order (task order).
        """
        anchored = bool(trace.get("anchored"))
        for event in trace.get("events", []):
            if anchored:
                self._record(
                    Event(
                        name=event["name"],
                        t=float(event.get("t", 0.0)),
                        fields=dict(event.get("fields", {})),
                    )
                )
            else:
                self.emit(event["name"], **event.get("fields", {}))
        metrics = trace.get("metrics", {})
        for name, value in metrics.get("counters", {}).items():
            self.metrics.counter(name).inc(value)
        for name, value in metrics.get("gauges", {}).items():
            if value is not None:
                self.metrics.gauge(name).set(value)
        for name, summary in metrics.get("histograms", {}).items():
            self.metrics.histogram(name).absorb(
                count=summary.get("count", 0),
                total=summary.get("total", 0.0),
                minimum=summary.get("min"),
                maximum=summary.get("max"),
                centroids=summary.get("centroids"),
                nonfinite=summary.get("nonfinite", 0),
            )
        dropped = int(trace.get("dropped_events", 0))
        if dropped:
            with self._lock:
                self.dropped_events += dropped


_NULL = NullRecorder()
_active: Recorder = _NULL


def get_recorder() -> Recorder:
    """The process-wide recorder; :class:`NullRecorder` unless attached."""
    return _active


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Attach ``recorder`` globally (``None`` restores the null recorder).

    Returns the previously attached recorder so callers can restore it.
    """
    global _active
    previous = _active
    _active = recorder if recorder is not None else _NULL
    return previous


@contextmanager
def recording(recorder: Optional[InMemoryRecorder] = None) -> Iterator[InMemoryRecorder]:
    """Attach a recorder for the duration of the block and yield it.

    ::

        with recording() as rec:
            DIM(config).train(model, dataset, rng)
        write_json_trace(rec, "trace.json")
    """
    rec = recorder if recorder is not None else InMemoryRecorder()
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)
