"""Live telemetry plane: streaming quantiles, sliding windows, exposition.

The recorder layer aggregates for *post-hoc* export; this module serves
the *while-it-runs* questions — "what is p95 latency right now?" — from
the same event stream:

:class:`SlidingWindow`
    Time-bucketed :class:`~repro.obs.registry.QuantileDigest` sketches
    over the last ``window_seconds``; a snapshot
    merges the live buckets into one digest, so quantiles age out as the
    window slides.
:class:`LiveAggregator`
    Feeds events into per-metric sliding windows — ``serve.request``
    latencies and every traced span duration — and renders a live table.
:func:`prometheus_exposition`
    Text exposition (version 0.0.4 format) of a metrics snapshot:
    counters, gauges, and histograms as summaries with quantile labels.
    Served by the ``metrics`` op on the JSONL transport and by
    ``repro obs export --format prom``.
:class:`StreamingRecorder` / :func:`tail_events`
    The wire between them: a recorder that tees every event to a JSONL
    file as it happens, and a reader that follows that file as it grows
    (``repro serve run --live`` + ``repro obs tail --follow``).

Pure standard library, same layering rule as the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from .export import _jsonify
from .recorder import Event, InMemoryRecorder
from .registry import QuantileDigest

__all__ = [
    "SlidingWindow",
    "LiveAggregator",
    "prometheus_exposition",
    "StreamingRecorder",
    "tail_events",
]


class SlidingWindow:
    """Per-bucket digests covering the trailing ``window_seconds``.

    Observations land in ``buckets`` fixed-width time buckets; a snapshot
    merges only the buckets still inside the window behind ``now``, so old
    observations age out bucket by bucket.  Stale buckets are pruned on
    write, keeping memory at O(``buckets`` × digest).
    """

    def __init__(self, window_seconds: float = 60.0, buckets: int = 12) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.window_seconds = float(window_seconds)
        self.buckets = buckets
        self._span = self.window_seconds / buckets
        self._digests: Dict[int, QuantileDigest] = {}
        self.last_t: Optional[float] = None

    def _bucket(self, t: float) -> int:
        return int(math.floor(t / self._span))

    def observe(self, t: float, value: float) -> None:
        index = self._bucket(t)
        digest = self._digests.get(index)
        if digest is None:
            digest = self._digests[index] = QuantileDigest()
            oldest = index - self.buckets
            for stale in [i for i in self._digests if i <= oldest]:
                del self._digests[stale]
        digest.add(value)
        self.last_t = t if self.last_t is None else max(self.last_t, t)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Optional[float]]:
        """Merged digest summary over buckets inside ``[now - window, now]``.

        ``now`` defaults to the newest observation time, which makes
        offline replays (``repro obs tail`` without ``--follow``) summarize
        the end-of-file window rather than an empty one.
        """
        if now is None:
            now = self.last_t if self.last_t is not None else 0.0
        oldest = self._bucket(now) - self.buckets
        merged = QuantileDigest()
        for index, digest in sorted(self._digests.items()):
            if index > oldest:
                merged.merge(digest)
        out = merged.summary()
        out["rate_per_second"] = (
            merged.count / self.window_seconds if merged.count else 0.0
        )
        out["window_seconds"] = self.window_seconds
        return out


class LiveAggregator:
    """Routes raw events into sliding-window quantile digests.

    Two event families feed it: ``serve.request`` (its
    ``latency_seconds`` field becomes the ``serve.latency_seconds``
    series) and ``span`` (each span name becomes a
    ``span.<name>.seconds`` series).  Everything else is counted but not
    windowed.
    """

    def __init__(self, window_seconds: float = 60.0, buckets: int = 12) -> None:
        self.window_seconds = float(window_seconds)
        self.buckets = buckets
        self.windows: Dict[str, SlidingWindow] = {}
        self.n_events = 0
        self.last_t: Optional[float] = None

    def _window(self, name: str) -> SlidingWindow:
        window = self.windows.get(name)
        if window is None:
            window = self.windows[name] = SlidingWindow(
                self.window_seconds, buckets=self.buckets
            )
        return window

    def ingest(self, event: Dict[str, object]) -> None:
        """Feed one event dict (``{"name", "t", "fields"}``)."""
        self.n_events += 1
        t = float(event.get("t", 0.0))
        self.last_t = t if self.last_t is None else max(self.last_t, t)
        name = event.get("name")
        fields = event.get("fields", {}) or {}
        if name == "span" and "seconds" in fields:
            self._window(f"span.{fields.get('span')}.seconds").observe(
                t, float(fields["seconds"])
            )
        elif name == "serve.request" and "latency_seconds" in fields:
            self._window("serve.latency_seconds").observe(
                t, float(fields["latency_seconds"])
            )

    def render(self, now: Optional[float] = None) -> str:
        """Human table: one row per windowed series with count/rate/quantiles."""
        if now is None:
            now = self.last_t
        header = (
            f"{self.n_events} events; {len(self.windows)} live series "
            f"(window {self.window_seconds:g}s)"
        )
        if not self.windows:
            return header
        lines = [
            header,
            f"  {'series':<40} {'n':>6} {'rate/s':>8} {'mean':>10} "
            f"{'p50':>10} {'p95':>10} {'p99':>10}",
        ]
        for name in sorted(self.windows):
            snap = self.windows[name].snapshot(now=now)
            cells = [
                f"{snap[q] * 1000.0:9.3f}m" if snap[q] is not None else f"{'-':>10}"
                for q in ("mean", "p50", "p95", "p99")
            ]
            lines.append(
                f"  {name:<40} {int(snap['count'] or 0):>6} "
                f"{snap['rate_per_second']:>8.2f} " + " ".join(cells)
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitized.startswith("repro_"):
        sanitized = f"repro_{sanitized}"
    return sanitized


def _prom_value(value: float) -> str:
    return repr(float(value))


def prometheus_exposition(metrics: Union[Dict[str, object], object]) -> str:
    """Render a metrics snapshot as Prometheus text exposition.

    Accepts a ``MetricsRegistry.snapshot()`` dict, a full trace dict (its
    ``"metrics"`` key is used), or a ``MetricsRegistry``.  Counters map to
    ``counter`` samples, gauges to ``gauge`` samples (unset gauges are
    skipped), histograms to ``summary`` families with ``quantile`` labels
    plus ``_sum`` / ``_count`` samples.  Metric names are sanitized to the
    Prometheus charset and prefixed ``repro_``.
    """
    snapshot_method = getattr(metrics, "snapshot", None)
    if callable(snapshot_method):
        snapshot = snapshot_method()
    elif isinstance(metrics, dict):
        snapshot = metrics.get("metrics", metrics) if "metrics" in metrics else metrics
    else:
        raise TypeError(f"expected snapshot dict or registry, got {type(metrics)!r}")
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        if value is None:
            continue
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        for label, key in (("0.5", "p50"), ("0.9", "p90"), ("0.95", "p95"), ("0.99", "p99")):
            quantile = summary.get(key)
            if quantile is not None:
                lines.append(
                    f'{prom}{{quantile="{label}"}} {_prom_value(quantile)}'
                )
        lines.append(f"{prom}_sum {_prom_value(summary.get('total', 0.0))}")
        lines.append(f"{prom}_count {_prom_value(summary.get('count', 0))}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The live wire: JSONL event tee + follower
# ----------------------------------------------------------------------
class StreamingRecorder(InMemoryRecorder):
    """An :class:`InMemoryRecorder` that also tees events to a JSONL file.

    Every event is appended (and flushed) to ``path`` as one JSON line the
    moment it is recorded — including events absorbed from fork workers —
    so ``repro obs tail --follow`` sees telemetry while the run is still
    in flight.  Metric aggregates stay in memory only; the final trace is
    exported exactly as with the base class.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_events: int = 100_000,
        clock_anchor: Optional[float] = None,
    ) -> None:
        super().__init__(max_events=max_events, clock_anchor=clock_anchor)
        self.path = Path(path)
        self._stream = open(self.path, "a", encoding="utf-8")
        self._stream_lock = threading.Lock()

    def _record(self, event: Event) -> None:
        super()._record(event)
        line = json.dumps(event.to_dict(), default=_jsonify)
        with self._stream_lock:
            if not self._stream.closed:
                self._stream.write(line + "\n")
                self._stream.flush()

    def close(self) -> None:
        with self._stream_lock:
            if not self._stream.closed:
                self._stream.close()

    def __enter__(self) -> "StreamingRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def tail_events(
    path: Union[str, Path],
    follow: bool = False,
    poll_seconds: float = 0.2,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, object]]:
    """Yield event dicts from a JSONL event file, optionally as it grows.

    With ``follow=False`` the generator drains the file and returns; with
    ``follow=True`` it keeps polling for appended lines until
    ``should_stop()`` (when given) returns true.  Partial trailing lines —
    a writer mid-append — are buffered until their newline arrives, and
    non-JSON lines are skipped rather than raised.
    """
    with open(path, "r", encoding="utf-8") as stream:
        partial = ""
        while True:
            chunk = stream.readline()
            if chunk:
                partial += chunk
                if not partial.endswith("\n"):
                    continue
                line, partial = partial.strip(), ""
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict) and "name" in event:
                    yield event
                continue
            if not follow or (should_stop is not None and should_stop()):
                return
            time.sleep(poll_seconds)
