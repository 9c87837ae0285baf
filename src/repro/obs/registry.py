"""Metric primitives: counters, gauges, histograms, and their registry.

The registry is the aggregate half of the observability layer (events are
the other half, see :mod:`repro.obs.recorder`).  Three metric types cover
everything the training stack needs, over one quantile sketch:

``Counter``
    Monotonically increasing total (Sinkhorn solves, Adam steps, epochs).
``Gauge``
    Last-written value (current epoch, current SSE bracket).
``Histogram``
    Streaming distribution summary (Sinkhorn iteration counts, step
    timings, per-batch losses).  Exact count/total/min/max plus a
    :class:`QuantileDigest` for quantiles, so memory stays bounded no
    matter how long training runs and worker histograms merge.
``QuantileDigest``
    The deterministic, mergeable quantile sketch behind ``Histogram`` and
    the live plane's sliding windows (:mod:`repro.obs.live`).

Everything here is pure standard library — the observability layer must be
importable below ``repro.tensor`` without dragging in NumPy.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "QuantileDigest"]


class Counter:
    """Monotonic counter; ``inc`` with a negative amount is rejected."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """Last-value metric; ``value`` is ``None`` until first set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class QuantileDigest:
    """Deterministic mergeable quantile sketch over weighted centroids.

    Values are held exactly until ``max_centroids`` is exceeded, then
    compacted into at most ``max_centroids // 2`` equal-weight bins (the
    stream minimum and maximum are kept beside the centroids, so ``q=0``
    and ``q=1`` stay exact and the outermost interpolation is anchored on
    them).  Compaction is purely rank-based — no sampling, no RNG — so the
    sketch is reproducible and order-robust.
    """

    __slots__ = ("max_centroids", "count", "total", "min", "max", "_centroids")

    def __init__(self, max_centroids: int = 128) -> None:
        if max_centroids < 4:
            raise ValueError(f"max_centroids must be >= 4, got {max_centroids}")
        self.max_centroids = max_centroids
        self.count = 0.0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._centroids: List[List[float]] = []  # sorted [value, weight]

    def add(self, value: float, weight: float = 1.0) -> None:
        value = float(value)
        if not math.isfinite(value) or weight <= 0:
            return
        self.count += weight
        self.total += value * weight
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        lo, hi = 0, len(self._centroids)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._centroids[mid][0] < value:
                lo = mid + 1
            else:
                hi = mid
        self._centroids.insert(lo, [value, float(weight)])
        if len(self._centroids) > self.max_centroids:
            self._compress()

    def merge(self, other: "QuantileDigest") -> None:
        """Fold another digest's centroids into this one."""
        for value, weight in other._centroids:
            self.add(value, weight)

    def _compress(self) -> None:
        bins = max(2, self.max_centroids // 2)
        per_bin = self.count / bins
        merged: List[List[float]] = []
        acc_value, acc_weight = 0.0, 0.0
        for value, weight in self._centroids:
            acc_value += value * weight
            acc_weight += weight
            if acc_weight >= per_bin:
                merged.append([acc_value / acc_weight, acc_weight])
                acc_value, acc_weight = 0.0, 0.0
        if acc_weight > 0:
            merged.append([acc_value / acc_weight, acc_weight])
        self._centroids = merged

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._centroids:
            return None
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cum = 0.0
        prev_value, prev_center = self.min, 0.0
        for value, weight in self._centroids:
            center = cum + weight / 2.0
            if center >= target:
                if center == prev_center:
                    return value
                frac = (target - prev_center) / (center - prev_center)
                return prev_value + frac * (value - prev_value)
            cum += weight
            prev_value, prev_center = value, center
        return self.max

    def summary(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Histogram:
    """Streaming distribution: exact moments, digest-backed quantiles.

    ``count``/``total``/``min``/``max`` are exact over the finite
    observations; quantiles come from a :class:`QuantileDigest`, exact up
    to its ``max_centroids`` observations and rank-approximate beyond.
    Non-finite observations (a diverging loss, a NaN gradient norm) are
    kept out of every statistic and counted in ``nonfinite`` instead, so
    the summary does not depend on where in the stream they arrived.
    """

    __slots__ = ("name", "count", "total", "min", "max", "nonfinite", "digest")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.nonfinite = 0
        self.digest = QuantileDigest()

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.digest.add(value)

    def absorb(
        self,
        count: int,
        total: float,
        minimum: Optional[float],
        maximum: Optional[float],
        centroids: Optional[Sequence[Sequence[float]]] = None,
        nonfinite: int = 0,
    ) -> None:
        """Fold another histogram's summary into this one.

        Used when a parent recorder merges a worker's trace
        (:meth:`repro.obs.recorder.InMemoryRecorder.absorb`).  The exact
        moments — ``count``/``total``/``min``/``max`` and hence ``mean`` —
        and ``nonfinite`` add losslessly; the child's digest ``centroids``
        (present when it was exported with ``include_samples``) merge into
        this histogram's digest.
        """
        if count < 0:
            raise ValueError(f"histogram {self.name!r} cannot absorb count {count}")
        self.nonfinite += int(nonfinite)
        if count == 0:
            return
        self.count += int(count)
        self.total += float(total)
        if minimum is not None:
            self.min = minimum if self.min is None else min(self.min, float(minimum))
        if maximum is not None:
            self.max = maximum if self.max is None else max(self.max, float(maximum))
        for value, weight in centroids or ():
            self.digest.add(value, weight)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """The digest's ``q``-th percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return self.digest.quantile(q / 100.0)

    def summary(self, include_samples: bool = False) -> Dict[str, object]:
        """Summary dict; ``include_samples`` adds the digest's centroids so
        a parent recorder can merge this histogram (exact moments, merged
        quantiles)."""
        out: Dict[str, object] = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "nonfinite": self.nonfinite,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }
        if include_samples:
            out["centroids"] = [list(c) for c in self.digest._centroids]
        return out


class MetricsRegistry:
    """Get-or-create store of named metrics; name reuse across types raises.

    Thread-safe for creation; individual metric updates are plain attribute
    arithmetic (atomic enough under the GIL for telemetry purposes).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        holders = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in holders.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._check_free(name, "counter")
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._check_free(name, "gauge")
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._check_free(name, "histogram")
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    def snapshot(self, include_samples: bool = False) -> Dict[str, Dict[str, object]]:
        """JSON-ready view of every metric, sorted by name.

        ``include_samples`` forwards to :meth:`Histogram.summary` so worker
        traces can carry mergeable digest centroids.
        """
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.summary(include_samples=include_samples)
                    for n, h in sorted(self._histograms.items())
                },
            }
