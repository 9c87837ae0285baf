"""The two batch workloads: a fit-and-impute call on a whole table.

Both take a fixed generated table (the dataset) and hide 20% of its
observed cells, drawn from the run's seed, as RMSE ground truth; the model's
own seed is fixed configuration.  The timed operation is one
fit-and-impute call, repeated until the run's time is spent.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from tracer import Tracer, install

# The generated table is the dataset, not an input drawn per run: a
# per-seed table changes holdout RMSE by up to 25% and, through SSE, the
# amount of training work by 2x (see README.md).
TABLE_SEED = 0
MODEL_SEED = 0
HOLDOUT_RATE = 0.2
# Set-up is repeated (and its median reported) at least this often and
# for at least this long, so a millisecond set-up still yields a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5


@dataclass(frozen=True)
class BatchSpec:
    """One batch workload: its table, its call, and what tracing must see."""

    dataset: str
    rows: int
    fit_impute: Callable[[object], Tuple[np.ndarray, Dict[str, float]]]
    latency_limit_s: float
    expected_layers: Tuple[str, ...]


def _scis_call(tiny: bool):
    from repro.core import SCIS, DimConfig, ScisConfig
    from repro.models import GAINImputer

    def call(train):
        config = ScisConfig(
            initial_size=500 if tiny else 10_000,
            validation_size=200 if tiny else 2_000,
            error_bound=0.01,
            reg=130.0,
            seed=MODEL_SEED,
            dim=DimConfig(
                epochs=1 if tiny else 5,
                batch_size=128,
                use_adversarial=True,
                sinkhorn_max_iter=200,
            ),
        )
        result = SCIS(GAINImputer(seed=MODEL_SEED), config).fit_transform(train)
        return result.imputed, {
            f"core.scis.{phase}_s": result.timings[phase]
            for phase in ("initial_train", "sse", "retrain", "impute")
        }

    return call


def _otdirect_call(tiny: bool):
    from repro.models import SinkhornImputer

    def call(train):
        model = SinkhornImputer(
            epochs=2 if tiny else 20,
            batch_size=16 if tiny else 64,
            reg=0.05,
            sinkhorn_max_iter=200,
            mlp_epochs=1 if tiny else 5,
            seed=MODEL_SEED,
        )
        return model.fit_impute(train), {}

    return call


_DIM_LAYERS = (
    "ot.solve", "ot.loss", "tensor.backward", "models.forward",
    "models.adversarial", "optim.step", "data.batch", "core.dim.train",
    "core.sse.prepare", "core.sse.search", "parallel.run",
)
_OTDIRECT_LAYERS = (
    "ot.solve", "tensor.backward", "models.forward", "optim.step", "parallel.run",
)


def spec(name: str, tiny: bool) -> BatchSpec:
    if name == "scis-weather":
        return BatchSpec("weather", 3_000 if tiny else 100_000, _scis_call(tiny),
                         10.0, _DIM_LAYERS)
    return BatchSpec("trial", 64 if tiny else 512, _otdirect_call(tiny),
                     30.0, _OTDIRECT_LAYERS)


def make_case(spec: BatchSpec, seed: int):
    """Generate and normalise the table, then hide the seed's holdout cells."""
    from repro.data import MinMaxNormalizer, generate, holdout_split

    generated = generate(spec.dataset, n_samples=spec.rows, seed=TABLE_SEED)
    normalized = MinMaxNormalizer().fit_transform(generated.dataset)
    return holdout_split(normalized, HOLDOUT_RATE, np.random.default_rng(seed))


def quantile(values: List[float], q: float) -> float:
    return float(np.percentile(values, 100.0 * q))


def table_ok(values: np.ndarray, imputed: np.ndarray) -> bool:
    """Observed cells byte-identical to the input, every imputed cell finite."""
    if imputed.shape != values.shape:
        return False
    observed = ~np.isnan(values)
    same = np.array_equal(
        values[observed].view(np.uint64), np.asarray(imputed[observed]).view(np.uint64)
    )
    return same and bool(np.isfinite(imputed[~observed]).all())


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = spec(name, tiny)
    setups: List[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        start = time.perf_counter()
        case = make_case(workload, seed)
        setups.append(time.perf_counter() - start)

    tracer = Tracer()
    if trace:
        install(tracer)
    walls: List[float] = []
    traced_walls: List[float] = []
    phases: Dict[str, float] = {}
    attempted = failed = slo_ok = 0
    rmse: Optional[float] = None
    values = case.train.values
    begin = time.perf_counter()
    # Calls repeat until the next one would mostly fall past the window.  The
    # traced run alternates untraced and traced calls so the two share
    # machine conditions; it needs at least one of each.
    wall = 0.0
    while (
        not walls
        or time.perf_counter() - begin + wall / 2 < seconds
        or (trace and not traced_walls)
    ):
        traced = trace and attempted % 2 == 1
        tracer.active = traced
        root = tracer.open("bench.op") if traced else -1
        start = time.perf_counter()
        imputed, timings = workload.fit_impute(case.train)
        wall = time.perf_counter() - start
        if traced:
            tracer.close(root)
            tracer.active = False
            traced_walls.append(wall)
            for key, value in timings.items():
                phases[key] = phases.get(key, 0.0) + value
        else:
            walls.append(wall)
        attempted += 1
        if table_ok(values, imputed):
            slo_ok += wall <= workload.latency_limit_s
        else:
            failed += 1
        rmse = case.rmse(imputed)
    tracer.uninstall()

    if trace:
        metrics = layer_metrics(tracer, workload, traced_walls, walls, phases)
    else:
        median_wall = quantile(walls, 0.5)
        metrics = {
            "setup_s": quantile(setups, 0.5),
            "rows_per_s": workload.rows / median_wall,
            "rmse": rmse,
            "latency_p50_ms": 1e3 * median_wall,
            "slo_ok_frac": slo_ok / attempted,
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "tracer": tracer if trace else None,
    }


def layer_metrics(
    tracer: Tracer,
    workload: BatchSpec,
    traced_walls: List[float],
    walls: List[float],
    phases: Dict[str, float],
) -> Dict[str, float]:
    """Per traced call: layer times, work counts, and the coverage guard."""
    total, self_time, calls = tracer.layer_times()
    missing = [layer for layer in workload.expected_layers if calls.get(layer, 0) == 0]
    if missing:
        raise SystemExit(
            f"perfbench: traced run recorded no calls to expected layer(s) "
            f"{', '.join(missing)}; the code no longer routes through the "
            f"wrapped function"
        )
    ops = len(traced_walls)
    counts = tracer.counts
    op_s = total["bench.op"] / ops
    layer_self = sum(t for name, t in self_time.items() if name != "bench.op")
    solves = calls.get("ot.solve", 0)
    print(
        f"perfbench: layer self times cover {layer_self / total['bench.op']:.1%} "
        f"of {ops} traced call(s)",
        file=sys.stderr,
    )
    metrics = {
        "bench.op_s": op_s,
        "ot.solve_s": total.get("ot.solve", 0.0) / ops,
        "ot.solve_frac": total.get("ot.solve", 0.0) / total["bench.op"],
        "ot.solves": solves / ops,
        "ot.problems": counts["ot.problems"] / ops,
        "ot.sweeps": counts["ot.sweeps"] / ops,
        "ot.stack_sweeps": counts["ot.stack_sweeps"] / ops,
        "ot.us_per_stack_sweep": (
            1e6 * total["ot.solve"] / counts["ot.stack_sweeps"]
            if counts["ot.stack_sweeps"] else 0.0
        ),
        "ot.capped_frac": (
            counts["ot.capped"] / counts["ot.problems"] if counts["ot.problems"] else 0.0
        ),
        "ot.loss_s": self_time.get("ot.loss", 0.0) / ops,
        "tensor.backward_s": total.get("tensor.backward", 0.0) / ops,
        "tensor.backward_calls": calls.get("tensor.backward", 0) / ops,
        "models.forward_s": total.get("models.forward", 0.0) / ops,
        "models.forward_calls": calls.get("models.forward", 0) / ops,
        "models.adversarial_s": self_time.get("models.adversarial", 0.0) / ops,
        "optim.step_s": total.get("optim.step", 0.0) / ops,
        "optim.steps": calls.get("optim.step", 0) / ops,
        "data.batch_s": total.get("data.batch", 0.0) / ops,
        "data.batches": counts["data.batch.items"] / ops,
        "core.dim.train_s": self_time.get("core.dim.train", 0.0) / ops,
        "core.sse.prepare_s": total.get("core.sse.prepare", 0.0) / ops,
        "core.sse.search_s": total.get("core.sse.search", 0.0) / ops,
        "core.sse.evaluations": counts["core.sse.evaluations"] / ops,
        "core.sse.n_star_frac": (
            counts["core.sse.n_star_frac"] / counts["core.sse.searches"]
            if counts["core.sse.searches"] else 0.0
        ),
        "parallel.runs": calls.get("parallel.run", 0) / ops,
        "parallel.tasks": counts["parallel.tasks"] / ops,
        "parallel.run_self_s": self_time.get("parallel.run", 0.0) / ops,
        "obs.trace_overhead_frac": quantile(traced_walls, 0.5) / quantile(walls, 0.5) - 1.0,
        "obs.layer_coverage_frac": layer_self / total["bench.op"],
    }
    for key, value in phases.items():
        metrics[key] = value / ops
    return metrics
