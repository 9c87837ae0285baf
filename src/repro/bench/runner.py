"""Experiment runner behind every table/figure reproduction.

The paper's protocol: hide 20 % of observed cells as ground truth, run each
method, report RMSE (mean ± bias over seeds), wall-clock training time, and
the training sample rate R_t (100 % for plain methods, n*/N for SCIS).
Methods that exceed the time budget are reported as "—" (the paper uses a
10⁵-second cutoff; we scale it down).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core import SCIS
from ..core.dim import DimConfig, DimImputer
from ..data import HoldoutSplit, IncompleteDataset, MinMaxNormalizer, generate, holdout_split
from ..models.base import Imputer
from ..obs import get_recorder, span
from ..parallel import ExecutionContext

__all__ = [
    "MethodResult",
    "BenchCase",
    "prepare_case",
    "run_method",
    "run_comparison",
    "run_smoke_bench",
]


@dataclass
class MethodResult:
    """Aggregated outcome of one method on one dataset."""

    method: str
    dataset: str
    rmse_mean: float = float("nan")
    rmse_std: float = float("nan")
    seconds: float = float("nan")
    sample_rate: float = 1.0  # R_t; SCIS overrides with n*/N
    timed_out: bool = False
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def available(self) -> bool:
        return not self.timed_out and np.isfinite(self.rmse_mean)


@dataclass
class BenchCase:
    """One prepared dataset: normalised values plus the RMSE holdout."""

    name: str
    holdout: HoldoutSplit
    labels: np.ndarray
    task: str

    @property
    def train(self) -> IncompleteDataset:
        return self.holdout.train


def prepare_case(
    dataset_name: str,
    n_samples: Optional[int] = None,
    seed: int = 0,
    holdout_rate: float = 0.2,
    missing_rate: Optional[float] = None,
    mechanism: str = "mcar",
) -> BenchCase:
    """Generate, min-max normalise, and hold out ground-truth cells."""
    generated = generate(
        dataset_name, n_samples=n_samples, seed=seed, missing_rate=missing_rate,
        mechanism=mechanism,
    )
    normalized = MinMaxNormalizer().fit_transform(generated.dataset)
    split = holdout_split(normalized, holdout_rate, np.random.default_rng(seed + 1))
    return BenchCase(
        name=dataset_name,
        holdout=split,
        labels=generated.labels,
        task=generated.spec.task,
    )


def run_method(
    factory: Callable[[int], object],
    case: BenchCase,
    n_seeds: int = 1,
    time_budget: Optional[float] = None,
    method_name: Optional[str] = None,
) -> MethodResult:
    """Run one method over ``n_seeds`` seeds and aggregate.

    ``factory(seed)`` must return either an :class:`Imputer` or a
    :class:`~repro.core.SCIS` instance.  The paper averages five seeded runs;
    benches default to fewer for wall-clock sanity.  If a run exceeds
    ``time_budget`` the remaining seeds are skipped and the result is marked
    unavailable, mirroring the paper's "—" cells.
    """
    rmses: List[float] = []
    times: List[float] = []
    rates: List[float] = []
    name = method_name or "method"
    recorder = get_recorder()
    for seed in range(n_seeds):
        runner = factory(seed)
        start = time.perf_counter()
        with span("bench.run", method=name, dataset=case.name, seed=seed):
            if isinstance(runner, SCIS):
                result = runner.fit_transform(case.train)
                imputed = result.imputed
                rates.append(result.sample_rate)
                if method_name is None:
                    name = f"scis-{runner.model.name}"
            elif isinstance(runner, DimImputer):
                imputed = runner.fit_transform(case.train)
                rates.append(runner.sample_rate)
                if method_name is None:
                    name = runner.name
            elif isinstance(runner, Imputer):
                imputed = runner.fit_transform(case.train)
                rates.append(1.0)
                if method_name is None:
                    name = runner.name
            else:
                raise TypeError(
                    f"factory returned unsupported runner {type(runner)!r}"
                )
        elapsed = time.perf_counter() - start
        rmses.append(case.holdout.rmse(imputed))
        times.append(elapsed)
        if time_budget is not None and elapsed > time_budget:
            if recorder.enabled:
                recorder.inc("bench.timeouts")
                recorder.emit(
                    "bench.result",
                    method=name,
                    dataset=case.name,
                    timed_out=True,
                    seconds=elapsed,
                )
            return MethodResult(
                method=name,
                dataset=case.name,
                timed_out=True,
                seconds=elapsed,
            )
    aggregated = MethodResult(
        method=name,
        dataset=case.name,
        rmse_mean=float(np.mean(rmses)),
        rmse_std=float(np.std(rmses)),
        seconds=float(np.mean(times)),
        sample_rate=float(np.mean(rates)),
    )
    if recorder.enabled:
        recorder.inc("bench.runs")
        recorder.emit(
            "bench.result",
            method=name,
            dataset=case.name,
            rmse_mean=aggregated.rmse_mean,
            rmse_std=aggregated.rmse_std,
            seconds=aggregated.seconds,
            sample_rate=aggregated.sample_rate,
            timed_out=False,
        )
    return aggregated


def run_smoke_bench(
    n_samples: int = 96,
    epochs: int = 2,
    seed: int = 0,
    context: Optional[ExecutionContext] = None,
) -> List[MethodResult]:
    """Tiny fixed bench used for regression gating (seconds, not minutes).

    One small synthetic dataset, a 5-cell method matrix spanning the
    stack's layers: ``mean`` (data plumbing only), ``knn`` (classical
    numerics), two short DIM runs — ``dim-gain`` (autodiff + Sinkhorn +
    optimiser hot paths) and ``dim-gain-adv`` (the same plus the
    adversarial phase) — and ``otdirect`` (direct batch-Sinkhorn descent on
    the missing cells, exercising the stacked/warm-started solver path).
    The training cells dominate wall-clock, so the matrix parallelises well
    across two workers.  Run it under :func:`repro.obs.recording` to also
    capture the ``sinkhorn.iterations`` / epoch-timing metrics the baseline
    snapshots.
    """
    from ..models import GAINImputer, KNNImputer, MeanImputer, SinkhornImputer

    case = prepare_case("trial", n_samples=n_samples, seed=seed)
    dim_config = DimConfig(
        epochs=epochs, batch_size=32, sinkhorn_max_iter=50, use_adversarial=False
    )
    adv_config = DimConfig(
        epochs=epochs, batch_size=32, sinkhorn_max_iter=50, use_adversarial=True
    )
    factories: Dict[str, Callable[[int], object]] = {
        "mean": lambda s: MeanImputer(),
        "knn": lambda s: KNNImputer(),
        "dim-gain": lambda s: DimImputer(
            GAINImputer(epochs=epochs, seed=s), config=dim_config, seed=s
        ),
        "dim-gain-adv": lambda s: DimImputer(
            GAINImputer(epochs=epochs, seed=s), config=adv_config, seed=s
        ),
        "otdirect": lambda s: SinkhornImputer(
            epochs=10 * epochs,
            batch_size=32,
            sinkhorn_max_iter=50,
            mlp_epochs=epochs,
            seed=s,
        ),
    }
    return run_comparison([case], factories, n_seeds=1, context=context)


def run_comparison(
    cases: List[BenchCase],
    factories: Dict[str, Callable[[int], object]],
    n_seeds: int = 1,
    time_budget: Optional[float] = None,
    context: Optional[ExecutionContext] = None,
) -> List[MethodResult]:
    """Cartesian product of methods × datasets, in a stable order.

    Each (method × dataset) cell is independent, so the grid fans out
    through ``context`` (serial by default; ``REPRO_WORKERS`` or an
    explicit :class:`~repro.parallel.ExecutionContext` enables the process
    backend).  Results keep the serial iteration order — cases outer,
    factories inner — and per-worker telemetry (``bench.result`` events,
    counters) is merged back into the parent recorder, so serial and
    parallel runs produce identical result tables.
    """
    context = context if context is not None else ExecutionContext.from_env()
    tasks = []
    for case in cases:
        for method_name, factory in factories.items():
            tasks.append(
                lambda factory=factory, case=case, method_name=method_name: run_method(
                    factory,
                    case,
                    n_seeds=n_seeds,
                    time_budget=time_budget,
                    method_name=method_name,
                )
            )
    return context.run(tasks, label="bench.run_comparison")
