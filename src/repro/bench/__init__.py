"""Benchmark harness: experiment runner and table renderers."""

from .baselines import (
    MetricDelta,
    diff_baselines,
    format_diff,
    load_baseline,
    snapshot_from_results,
    snapshot_from_trace,
    write_baseline,
)
from .charts import ascii_chart, sparkline
from .scaling import (
    CurvePoint,
    ScalingBenchResult,
    ScalingConfig,
    run_scaling_bench,
    snapshot_from_scaling,
)
from .serving import ServingBenchResult, run_serving_bench
from .runner import (
    BenchCase,
    MethodResult,
    prepare_case,
    run_comparison,
    run_method,
    run_smoke_bench,
)
from .tables import format_series, format_table, results_to_json, save_results

__all__ = [
    "BenchCase",
    "MethodResult",
    "prepare_case",
    "run_method",
    "run_comparison",
    "run_smoke_bench",
    "ServingBenchResult",
    "run_serving_bench",
    "ScalingConfig",
    "ScalingBenchResult",
    "CurvePoint",
    "run_scaling_bench",
    "snapshot_from_scaling",
    "MetricDelta",
    "snapshot_from_results",
    "snapshot_from_trace",
    "write_baseline",
    "load_baseline",
    "diff_baselines",
    "format_diff",
    "format_table",
    "ascii_chart",
    "sparkline",
    "format_series",
    "results_to_json",
    "save_results",
]
