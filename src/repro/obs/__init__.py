"""Training observability: metrics, structured events, spans, exporters.

This package is the instrumentation substrate for the whole stack (contract
in ``docs/observability.md``).  It is zero-dependency (standard library
only) and sits *below* ``repro.tensor`` in the layering: any module may
import it, it imports nothing from ``repro``.

Typical use::

    from repro.obs import recording, write_json_trace

    with recording() as rec:
        DIM(config).train(model, dataset, rng)   # instrumented internally
    write_json_trace(rec, "trace.json")

With no recorder attached (the default), every instrumented site reduces to
one function call plus one attribute check — the overhead guarantee that
lets instrumentation live in hot paths like the Sinkhorn solver and
``Optimizer.step``.
"""

from .export import (
    events_to_csv,
    load_trace,
    summarize_trace,
    trace_to_dict,
    write_csv_events,
    write_json_trace,
)
from .health import HealthConfig, HealthMonitor
from .live import (
    LiveAggregator,
    SlidingWindow,
    StreamingRecorder,
    prometheus_exposition,
    tail_events,
)
from .profiler import (
    OpProfiler,
    OpStats,
    flame_from_profile,
    format_profile_table,
    get_op_profiler,
    profile_from_trace,
    profiling,
)
from .recorder import (
    Event,
    InMemoryRecorder,
    NullRecorder,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry, QuantileDigest
from .tracing import (
    TraceContext,
    current_trace,
    format_trace_index,
    format_waterfall,
    record_span,
    set_trace_context,
    span,
    spans_of_trace,
    start_trace,
    trace_context,
    trace_ids,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Event",
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "get_recorder",
    "set_recorder",
    "recording",
    "trace_to_dict",
    "write_json_trace",
    "load_trace",
    "events_to_csv",
    "write_csv_events",
    "summarize_trace",
    "OpProfiler",
    "OpStats",
    "get_op_profiler",
    "profiling",
    "profile_from_trace",
    "flame_from_profile",
    "format_profile_table",
    "HealthConfig",
    "HealthMonitor",
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
    "QuantileDigest",
    "SlidingWindow",
    "LiveAggregator",
    "prometheus_exposition",
    "StreamingRecorder",
    "tail_events",
]
