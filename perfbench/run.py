"""The repo benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload scis-weather --seed 0 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``scis-weather``   -- ``SCIS.fit_transform`` on a 100,000-row weather table.
* ``otdirect-trial`` -- ``SinkhornImputer.fit_impute`` on a 512-row trial table.
* ``serve-open``     -- open-loop Poisson requests into ``repro serve run``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with layer wrappers installed and prints the per-layer metrics.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scis-weather", "otdirect-trial", "serve-open")

# Serial NumPy and the default code path, whatever the calling shell says:
# REPRO_WORKERS would fork SSE and pair solves, REPRO_BACKEND would swap
# the tensor backend.  Children inherit this environment.
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_BACKEND")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "rmse": "1",
    "latency_p50_ms": "ms",
    "slo_ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "bench.op_s": "s",
    "ot.solve_s": "s",
    "ot.solve_frac": "frac",
    "ot.solves": "count",
    "ot.problems": "count",
    "ot.sweeps": "count",
    "ot.stack_sweeps": "count",
    "ot.us_per_stack_sweep": "us",
    "ot.capped_frac": "frac",
    "ot.loss_s": "s",
    "tensor.backward_s": "s",
    "tensor.backward_calls": "count",
    "models.forward_s": "s",
    "models.forward_calls": "count",
    "models.adversarial_s": "s",
    "optim.step_s": "s",
    "optim.steps": "count",
    "data.batch_s": "s",
    "data.batches": "count",
    "core.dim.train_s": "s",
    "core.sse.prepare_s": "s",
    "core.sse.search_s": "s",
    "core.sse.evaluations": "count",
    "core.sse.n_star_frac": "frac",
    "core.scis.initial_train_s": "s",
    "core.scis.sse_s": "s",
    "core.scis.retrain_s": "s",
    "core.scis.impute_s": "s",
    "parallel.runs": "count",
    "parallel.tasks": "count",
    "parallel.run_self_s": "s",
    "serve.latency_ms_p95": "ms",
    "serve.latency_ms_p99": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_p99": "ms",
    "serve.service_ms_p50": "ms",
    "serve.service_ms_p99": "ms",
    "serve.transport_ms_p50": "ms",
    "serve.coalesced_mean": "count",
    "serve.model_calls": "count",
    "obs.trace_overhead_frac": "frac",
    "obs.layer_coverage_frac": "frac",
    "load.late_p99_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload to seconds of work (self-test only)",
    )
    return parser.parse_args(argv)


def pin_environment() -> None:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy
    from repro.tensor.backend import get_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": get_backend().name,
        "machine": platform.machine(),
        **{name: os.environ[name] for name in PINNED_ENV},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import batch
    import openloop

    trace = bool(args.trace)
    tiny = args.size == "tiny"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-open":
            result = openloop.run(args.seed, args.seconds, trace, tiny, work)
        else:
            result = batch.run(args.workload, args.seed, args.seconds, trace, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {
        name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    if result["tracer"] is not None:
        spans = ROOT / ".perfbench_work" / f"spans-{args.workload}.jsonl"
        result["tracer"].write(str(spans))
        print(f"perfbench: wrote {len(result['tracer'].spans)} spans -> {spans}",
              file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({"environment": environment()}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
