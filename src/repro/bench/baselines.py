"""Persisted bench baselines and regression diffing.

A *baseline* is a small versioned JSON file (``BENCH_<name>.json``) holding
the key scalar metrics of a bench run — steady-state epoch seconds,
Sinkhorn iterations per solve, RMSE per method/dataset — so a later run
(or CI) can be diffed against it and regressions flagged before they land.

Schema::

    {"version": 1, "kind": "bench-baseline", "name": "smoke",
     "metrics": {"rmse.mean.trial": 0.11, "seconds.mean.trial": 0.4, ...}}

Metric names are dotted flat keys.  Names containing ``seconds`` are
*timing* metrics: machine-dependent, so :func:`diff_baselines` gives them
their own (looser) threshold — CI can effectively mute them while still
hard-gating the machine-independent metrics (RMSE, iteration counts).

Baselines can be built directly from :class:`MethodResult` lists
(:func:`snapshot_from_results`) or extracted from a recorded telemetry
trace (:func:`snapshot_from_trace`), and the diff side accepts either a
baseline file or a raw trace JSON — ``repro obs diff`` normalises both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .runner import MethodResult

__all__ = [
    "BASELINE_KIND",
    "BASELINE_VERSION",
    "MetricDelta",
    "snapshot_from_results",
    "snapshot_from_trace",
    "write_baseline",
    "load_baseline",
    "diff_baselines",
    "format_diff",
    "is_time_metric",
]

BASELINE_VERSION = 1
BASELINE_KIND = "bench-baseline"

# Default relative-change gates: machine-independent metrics are tight,
# wall-clock ones loose (a 2x slowdown is rel change 1.0 > 0.75).
DEFAULT_THRESHOLD = 0.25
DEFAULT_TIME_THRESHOLD = 0.75


def is_time_metric(name: str) -> bool:
    """Timing metrics get the looser machine-dependent threshold."""
    return "seconds" in name or name.endswith(".time")


@dataclass
class MetricDelta:
    """One metric's change between a baseline and a candidate run."""

    metric: str
    base: Optional[float]
    new: Optional[float]
    rel_change: Optional[float]  # (new - base) / |base|; None when undefined
    regressed: bool
    missing: bool = False  # metric present on one side only

    def describe(self) -> str:
        if self.missing:
            side = "baseline" if self.base is None else "candidate"
            return f"only in {'candidate' if self.base is None else 'baseline'}"
        if self.rel_change is None:
            return "incomparable"
        return f"{self.rel_change:+.1%}"


def snapshot_from_results(
    results: Sequence[MethodResult], name: str
) -> Dict[str, object]:
    """Build a baseline dict from bench :class:`MethodResult` aggregates."""
    metrics: Dict[str, float] = {}
    for result in results:
        key = f"{result.method}.{result.dataset}"
        if math.isfinite(result.rmse_mean):
            metrics[f"rmse.{key}"] = float(result.rmse_mean)
        if math.isfinite(result.seconds):
            metrics[f"seconds.{key}"] = float(result.seconds)
        metrics[f"sample_rate.{key}"] = float(result.sample_rate)
    return {
        "version": BASELINE_VERSION,
        "kind": BASELINE_KIND,
        "name": name,
        "metrics": metrics,
    }


def _mean(values: List[float]) -> Optional[float]:
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return sum(finite) / len(finite) if finite else None


def snapshot_from_trace(trace: Dict[str, object], name: str) -> Dict[str, object]:
    """Extract baseline metrics from a recorded telemetry trace.

    Pulls the regression-sensitive signals the trace carries:

    * ``bench.result`` events → ``rmse.<method>.<dataset>`` and
      ``seconds.<method>.<dataset>``;
    * the ``sinkhorn.iterations`` histogram mean → ``sinkhorn.iterations``;
    * the ``span.dim.epoch.seconds`` histogram mean → steady-state
      ``dim.epoch_seconds``;
    * the ``sinkhorn.batched_stack_size`` / ``sinkhorn.batched_sweeps``
      histogram means.
    """
    metrics: Dict[str, float] = {}
    by_case: Dict[str, Dict[str, List[float]]] = {}
    for event in trace.get("events", []):
        if event.get("name") != "bench.result":
            continue
        fields = event.get("fields", {})
        if fields.get("timed_out"):
            continue
        key = f"{fields.get('method')}.{fields.get('dataset')}"
        slot = by_case.setdefault(key, {"rmse": [], "seconds": []})
        if fields.get("rmse_mean") is not None:
            slot["rmse"].append(float(fields["rmse_mean"]))
        if fields.get("seconds") is not None:
            slot["seconds"].append(float(fields["seconds"]))
    for key, slot in sorted(by_case.items()):
        rmse = _mean(slot["rmse"])
        seconds = _mean(slot["seconds"])
        if rmse is not None:
            metrics[f"rmse.{key}"] = rmse
        if seconds is not None:
            metrics[f"seconds.{key}"] = seconds
    histograms = trace.get("metrics", {}).get("histograms", {})
    sinkhorn = histograms.get("sinkhorn.iterations", {})
    if sinkhorn.get("mean") is not None:
        metrics["sinkhorn.iterations"] = float(sinkhorn["mean"])
    epoch = histograms.get("span.dim.epoch.seconds", {})
    if epoch.get("mean") is not None:
        metrics["dim.epoch_seconds"] = float(epoch["mean"])
    stack = histograms.get("sinkhorn.batched_stack_size", {})
    if stack.get("mean") is not None:
        metrics["sinkhorn.batched_stack_size"] = float(stack["mean"])
    sweeps = histograms.get("sinkhorn.batched_sweeps", {})
    if sweeps.get("mean") is not None:
        metrics["sinkhorn.batched_sweeps"] = float(sweeps["mean"])
    return {
        "version": BASELINE_VERSION,
        "kind": BASELINE_KIND,
        "name": name,
        "metrics": metrics,
    }


def write_baseline(baseline: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write a baseline dict as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a ``BENCH_<name>.json`` baseline file.

    Raw telemetry traces (recognised by their ``events`` key) are
    converted on the fly via :func:`snapshot_from_trace`, so the diff CLI
    accepts either artefact on either side.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path} is not a JSON object")
    if "events" in data:  # a raw trace: distill it into baseline metrics
        return snapshot_from_trace(data, name=path.stem)
    if data.get("kind") != BASELINE_KIND:
        raise ValueError(
            f"{path} is not a bench baseline (kind={data.get('kind')!r}; "
            f"expected {BASELINE_KIND!r})"
        )
    version = data.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"{path} has unsupported baseline version {version!r} "
            f"(this build reads version {BASELINE_VERSION})"
        )
    if not isinstance(data.get("metrics"), dict):
        raise ValueError(f"{path} has no 'metrics' object")
    return data


def diff_baselines(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    time_threshold: float = DEFAULT_TIME_THRESHOLD,
) -> List[MetricDelta]:
    """Compare two baselines metric-by-metric.

    A metric *regresses* when its relative increase exceeds the applicable
    threshold — metrics here are all "lower is better" (RMSE, seconds,
    iteration counts), so only increases count.  Metrics present on one
    side only are reported with ``missing=True`` but never regress (new
    benches may legitimately add or drop cases).
    """
    base_metrics = baseline.get("metrics", {})
    new_metrics = candidate.get("metrics", {})
    deltas: List[MetricDelta] = []
    for metric in sorted(set(base_metrics) | set(new_metrics)):
        base = base_metrics.get(metric)
        new = new_metrics.get(metric)
        if base is None or new is None:
            deltas.append(
                MetricDelta(metric, base, new, None, regressed=False, missing=True)
            )
            continue
        base_f, new_f = float(base), float(new)
        if not (math.isfinite(base_f) and math.isfinite(new_f)):
            deltas.append(MetricDelta(metric, base_f, new_f, None, regressed=False))
            continue
        rel = (new_f - base_f) / max(abs(base_f), 1e-12)
        gate = time_threshold if is_time_metric(metric) else threshold
        deltas.append(MetricDelta(metric, base_f, new_f, rel, regressed=rel > gate))
    return deltas


def format_diff(deltas: Sequence[MetricDelta]) -> str:
    """Aligned text table of metric deltas, regressions marked ``!``."""
    header = ("", "metric", "base", "new", "change")
    rows = [header]
    for delta in deltas:
        rows.append(
            (
                "!" if delta.regressed else "",
                delta.metric,
                "-" if delta.base is None else f"{delta.base:.6g}",
                "-" if delta.new is None else f"{delta.new:.6g}",
                delta.describe(),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    regressions = sum(d.regressed for d in deltas)
    lines.append(
        f"{len(deltas)} metrics compared, {regressions} regression"
        f"{'' if regressions == 1 else 's'}"
    )
    return "\n".join(lines)
