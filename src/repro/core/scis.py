"""SCIS — the scalable imputation system (Algorithm 1).

Given an incomplete dataset and any :class:`GenerativeImputer`, SCIS

1. splits off a validation sample ``X_v`` and an initial sample ``X₀``,
2. trains the initial model ``M₀`` with DIM's masking-Sinkhorn loss,
3. consults SSE for the minimum sample size ``n*`` meeting the
   user-tolerated error bound,
4. retrains on a size-``n*`` sample when ``n* > n₀``, and
5. imputes the full dataset with the final model (Eq. 1).

Inputs are expected min-max normalised to [0, 1] (use
:class:`repro.data.MinMaxNormalizer`), matching the paper's protocol where
the space diameter is 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..data.dataset import IncompleteDataset
from ..models.base import GenerativeImputer, impute_equation
from ..obs import get_recorder, span
from ..parallel import ExecutionContext
from ..tensor import no_grad
from .dim import DIM, DimConfig, DimReport
from .sse import SSE, SseConfig, SseResult

__all__ = ["ScisConfig", "ScisResult", "SCIS"]


@dataclass
class ScisConfig:
    """All SCIS knobs in one place (§VI defaults).

    ``validation_size`` defaults to ``initial_size`` (the paper sets
    ``N_v = n₀``).
    """

    initial_size: int = 500  # n₀
    validation_size: Optional[int] = None  # N_v
    error_bound: float = 0.001  # ε
    confidence: float = 0.05  # α
    beta: float = 0.01  # β
    n_parameter_samples: int = 20  # k
    reg: float = 130.0  # λ
    dim: DimConfig = field(default_factory=DimConfig)
    sse: SseConfig = field(default_factory=SseConfig)
    seed: int = 0
    impute_chunk: int = 4096
    # Worker count for the parallelisable phases (currently SSE's k-sample
    # test).  None defers to the REPRO_WORKERS environment variable; 0/1 run
    # serially; >= 2 selects the fork-based process backend.  Thanks to
    # spawn-key seeding the answer is identical either way.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.validation_size is None:
            self.validation_size = self.initial_size
        # Propagate the shared knobs into the module configs.
        self.dim.reg = self.reg
        self.sse.reg = self.reg
        self.sse.error_bound = self.error_bound
        self.sse.confidence = self.confidence
        self.sse.beta = self.beta
        self.sse.n_parameter_samples = self.n_parameter_samples


@dataclass
class ScisResult:
    """Everything Algorithm 1 returns, plus timing diagnostics."""

    imputed: np.ndarray
    n_star: int
    n_initial: int
    n_total: int
    sse_result: SseResult
    initial_report: DimReport
    retrain_report: Optional[DimReport]
    timings: Dict[str, float]

    @property
    def sample_rate(self) -> float:
        """Training sample rate R_t = n*/N (×100 in the paper's tables)."""
        return self.n_star / self.n_total

    @property
    def total_seconds(self) -> float:
        return self.timings["total"]


class SCIS:
    """The end-to-end system; wraps one generative imputer instance."""

    def __init__(self, model: GenerativeImputer, config: Optional[ScisConfig] = None):
        self.model = model
        self.config = config if config is not None else ScisConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._dim = DIM(self.config.dim)

    def fit_transform(self, dataset: IncompleteDataset) -> ScisResult:
        """Run Algorithm 1 and return the imputed matrix with diagnostics."""
        cfg = self.config
        n_total = dataset.n_samples
        if cfg.initial_size + cfg.validation_size > n_total:
            raise ValueError(
                f"initial_size + validation_size = "
                f"{cfg.initial_size + cfg.validation_size} exceeds N = {n_total}"
            )
        timings: Dict[str, float] = {}
        start_total = time.perf_counter()

        # Line 1: validation + initial samples.
        split = dataset.split_validation_initial(
            cfg.validation_size, cfg.initial_size, self._rng
        )

        # Line 2: train M₀ with the MS loss.
        self.model.build(dataset.n_features, rng=self._rng)
        with span("scis.initial_train"):
            initial_report = self._dim.train(self.model, split.initial, self._rng)
        timings["initial_train"] = initial_report.seconds

        # Line 3: minimum sample size.
        sse = SSE(
            self.model,
            split.validation.values,
            split.validation.mask,
            config=cfg.sse,
            rng=self._rng,
            seed=cfg.seed,
            context=ExecutionContext.from_env(workers=cfg.workers),
        )
        with span("scis.sse"):
            sse.prepare(split.initial.values, split.initial.mask)
            sse_result = sse.estimate_minimum_size(cfg.initial_size, n_total)
        timings["sse"] = sse_result.seconds

        # Lines 4-5: retrain on the minimum sample when it exceeds n₀.
        retrain_report: Optional[DimReport] = None
        if sse_result.n_star > cfg.initial_size:
            sample = dataset.subsample(
                sse_result.n_star, self._rng, name=f"{dataset.name}[n*]"
            )
            with span("scis.retrain"):
                retrain_report = self._dim.train(self.model, sample, self._rng)
            timings["retrain"] = retrain_report.seconds
        else:
            timings["retrain"] = 0.0

        # Lines 6-7: impute the full matrix.
        start_impute = time.perf_counter()
        with span("scis.impute"):
            imputed = self._impute_full(dataset)
        timings["impute"] = time.perf_counter() - start_impute
        timings["total"] = time.perf_counter() - start_total

        recorder = get_recorder()
        if recorder.enabled:
            recorder.emit(
                "scis.result",
                n_star=sse_result.n_star,
                n_initial=cfg.initial_size,
                n_total=n_total,
                sample_rate=sse_result.n_star / n_total,
                seconds_total=timings["total"],
                retrained=retrain_report is not None,
                initial_health=initial_report.health_verdict,
                retrain_health=(
                    retrain_report.health_verdict if retrain_report else None
                ),
            )

        return ScisResult(
            imputed=imputed,
            n_star=sse_result.n_star,
            n_initial=cfg.initial_size,
            n_total=n_total,
            sse_result=sse_result,
            initial_report=initial_report,
            retrain_report=retrain_report,
            timings=timings,
        )

    def _impute_full(self, dataset: IncompleteDataset) -> np.ndarray:
        """Reconstruct in chunks and apply Eq. 1."""
        cfg = self.config
        values, mask = dataset.values, dataset.mask
        out = np.empty_like(mask)
        noise_rng = np.random.default_rng(cfg.seed)
        for start in range(0, dataset.n_samples, cfg.impute_chunk):
            chunk_values = values[start : start + cfg.impute_chunk]
            chunk_mask = mask[start : start + cfg.impute_chunk]
            noise = self.model.sample_noise(chunk_mask.shape, noise_rng)
            with no_grad():
                recon = self.model.reconstruct_batch(chunk_values, chunk_mask, noise)
            out[start : start + cfg.impute_chunk] = recon.data
        return impute_equation(values, mask, out)
