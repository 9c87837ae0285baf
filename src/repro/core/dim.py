"""DIM — differentiable imputation modeling (Section IV).

DIM converts a GAN-based imputation model into a differentiable one by
training its generator against the masking Sinkhorn (MS) divergence between
the generated and observed empirical measures.  Gradients follow
Proposition 1: the Sinkhorn plan is solved off-tape and the barycentric-map
gradient flows through the masked cost matrix.

Following §IV.B, the model's own adversarial game can keep running alongside
the MS objective ("the discriminator is trained to maximise the MS
divergence ... the generator is trained by minimising the MS divergence
metric"): with ``use_adversarial=True`` each batch takes one native
adversarial step (discriminator + generator) and then one MS-divergence
generator step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..data.batches import BatchPlan, iterate_batches
from ..data.dataset import IncompleteDataset
from ..models.base import GenerativeImputer
from ..nn import masked_mse_loss
from ..obs import HealthMonitor, get_recorder, span
from ..optim import Adam
from ..ot import MaskingSinkhornLoss
from ..tensor import Tensor

__all__ = ["DimConfig", "DimReport", "DIM", "DimImputer"]


@dataclass
class DimConfig:
    """Hyper-parameters of the DIM training loop.

    ``reg`` is the MS-divergence entropic weight λ (paper default 130);
    ``epochs``/``batch_size``/``lr`` default to the §VI deep-learning
    settings.  ``rec_weight`` adds an observed-cell reconstruction anchor to
    the MS generator step (the analogue of GAIN's α term).

    ``sinkhorn_warm_start`` reuses each batch's dual potentials from the
    previous epoch as the solver's starting point; ``sinkhorn_cache_self_terms``
    caches the constant data self-term ``OT_λ^m(μ_x, μ_x)`` per batch, so
    one of the three Sinkhorn solves per generator step disappears after
    epoch 1.  Both need identifiable batches, so by default the batch
    partition is drawn once and reused every epoch; set
    ``fixed_batch_order`` explicitly to decouple that choice (e.g. to
    compare cached vs uncached runs on identical batch sequences).

    ``on_divergence`` is the numerical-health policy: every run is watched
    by a :class:`repro.obs.HealthMonitor` (NaN/Inf losses, per-epoch
    divergence/oscillation on the ``dim.epoch`` loss stream).  ``"warn"``
    (default) records ``health.*`` events and the end-of-run verdict;
    ``"halt"`` additionally stops training at the first detection with a
    structured ``health.halt`` event and ``DimReport.halted = True``.
    """

    reg: float = 130.0
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3
    use_adversarial: bool = True
    ms_weight: float = 1.0
    rec_weight: float = 1.0
    sinkhorn_max_iter: int = 200
    sinkhorn_tol: float = 1e-6
    debias: bool = True
    sinkhorn_warm_start: bool = True
    sinkhorn_cache_self_terms: bool = True
    # None derives the policy: fixed iff warm-start or self-term caching is on.
    fixed_batch_order: Optional[bool] = None
    # Early stopping: stop when the epoch-mean loss has not improved by
    # ``early_stopping_min_delta`` for ``early_stopping_patience`` epochs.
    # ``None`` (the default, matching the paper's fixed 100-epoch budget)
    # disables it.
    early_stopping_patience: Optional[int] = None
    early_stopping_min_delta: float = 1e-4
    # Health-watchdog policy: "warn" records health.* events, "halt" also
    # stops the loop at the first NaN/divergence/oscillation detection.
    on_divergence: str = "warn"


@dataclass
class DimReport:
    """Training diagnostics returned by :meth:`DIM.train`."""

    epochs: int
    steps: int
    seconds: float
    ms_losses: List[float] = field(default_factory=list)
    halted: bool = False
    health_verdict: Optional[str] = None

    @property
    def final_ms_loss(self) -> Optional[float]:
        return self.ms_losses[-1] if self.ms_losses else None


class DIM:
    """Trains a :class:`GenerativeImputer` under the MS-divergence loss."""

    def __init__(self, config: Optional[DimConfig] = None) -> None:
        self.config = config if config is not None else DimConfig()
        self._loss = MaskingSinkhornLoss(
            reg=self.config.reg,
            max_iter=self.config.sinkhorn_max_iter,
            tol=self.config.sinkhorn_tol,
            debias=self.config.debias,
            warm_start=self.config.sinkhorn_warm_start,
            cache_self_terms=self.config.sinkhorn_cache_self_terms,
        )

    def train(
        self,
        model: GenerativeImputer,
        dataset: IncompleteDataset,
        rng: np.random.Generator,
        epochs: Optional[int] = None,
    ) -> DimReport:
        """Run the DIM loop on ``dataset`` (values may contain nan).

        The model is built lazily (idempotent if already built for this
        width); its private optimisers drive the adversarial steps while DIM
        owns a separate Adam for the MS generator updates.
        """
        cfg = self.config
        epochs = epochs if epochs is not None else cfg.epochs
        try:
            generator = model.generator
        except RuntimeError:
            model.build(dataset.n_features, rng=rng)
            generator = model.generator
        optimizer = Adam(generator.parameters(), lr=cfg.lr)

        # Batch keys from a previous train() call may point at different
        # data (SCIS retrains the same DIM on a fresh sample) — invalidate.
        self._loss.reset_caches()
        caching = cfg.sinkhorn_warm_start or cfg.sinkhorn_cache_self_terms
        fixed_order = (
            cfg.fixed_batch_order if cfg.fixed_batch_order is not None else caching
        )
        # Keys only make sense when the partition repeats; without a fixed
        # order every batch is new and the stores would grow per step.
        use_batch_keys = caching and fixed_order
        if fixed_order:
            plan = BatchPlan(
                batch_size=cfg.batch_size,
                order="fixed",
                permutation=rng.permutation(dataset.n_samples),
                yield_indices=True,
            )
        else:
            plan = BatchPlan(
                batch_size=cfg.batch_size, order="shuffled", yield_indices=True
            )

        recorder = get_recorder()
        monitor = HealthMonitor(policy=cfg.on_divergence)
        start = time.perf_counter()
        steps = 0
        report = DimReport(epochs=epochs, steps=0, seconds=0.0)
        best_epoch_loss = float("inf")
        epochs_without_improvement = 0
        epochs_run = 0
        for _ in range(epochs):
            epoch_start_step = steps
            adv_g_losses: List[float] = []
            adv_d_losses: List[float] = []
            with span("dim.epoch"):
                for values, mask, index in iterate_batches(
                    dataset, rng=rng, plan=plan
                ):
                    if values.shape[0] < 2:
                        continue  # the square Sinkhorn plan degenerates at n=1
                    if cfg.use_adversarial:
                        adv_stats = model.adversarial_step(values, mask, rng)
                        if recorder.enabled and adv_stats:
                            adv_g_losses.append(float(adv_stats.get("g_loss", np.nan)))
                            adv_d_losses.append(float(adv_stats.get("d_loss", np.nan)))
                    noise = model.sample_noise(mask.shape, rng)
                    x_bar = model.reconstruct_batch(values, mask, noise)
                    filled = np.nan_to_num(values, nan=0.0)
                    batch_key = index.tobytes() if use_batch_keys else None
                    loss = cfg.ms_weight * self._loss(
                        x_bar, filled, mask, batch_key=batch_key
                    )
                    if cfg.rec_weight > 0.0:
                        loss = loss + cfg.rec_weight * masked_mse_loss(
                            x_bar, Tensor(filled), mask
                        )
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                    loss_value = loss.item()
                    monitor.check_finite("dim.step_loss", loss_value, step=steps)
                    report.ms_losses.append(loss_value)
                    steps += 1
                    if monitor.should_halt:
                        break
                if recorder.enabled:
                    sq = 0.0
                    for param in generator.parameters():
                        if param.grad is not None:
                            sq += float(np.sum(param.grad * param.grad))
                    monitor.observe_gradient_norm("dim.generator", sq**0.5)
            epoch_losses = report.ms_losses[epoch_start_step:]
            ms_divergence = float(np.mean(epoch_losses)) if epoch_losses else None
            if recorder.enabled:
                recorder.inc("dim.epochs")
                recorder.set_gauge("dim.epoch", epochs_run)
                if ms_divergence is not None:
                    recorder.observe("dim.epoch_ms_divergence", ms_divergence)
                recorder.emit(
                    "dim.epoch",
                    epoch=epochs_run,
                    ms_divergence=ms_divergence,
                    g_loss=float(np.mean(adv_g_losses)) if adv_g_losses else None,
                    d_loss=float(np.mean(adv_d_losses)) if adv_d_losses else None,
                    steps=steps - epoch_start_step,
                )
            epochs_run += 1
            if ms_divergence is not None:
                monitor.observe_loss("dim.epoch", ms_divergence)
            if monitor.should_halt:
                break
            if cfg.early_stopping_patience is not None and steps > epoch_start_step:
                epoch_loss = float(np.mean(report.ms_losses[epoch_start_step:]))
                if epoch_loss < best_epoch_loss - cfg.early_stopping_min_delta:
                    best_epoch_loss = epoch_loss
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= cfg.early_stopping_patience:
                        if recorder.enabled:
                            recorder.emit(
                                "dim.early_stop",
                                epoch=epochs_run - 1,
                                best_epoch_loss=best_epoch_loss,
                            )
                        break
        report.epochs = epochs_run
        report.steps = steps
        report.seconds = time.perf_counter() - start
        report.halted = monitor.should_halt
        report.health_verdict = monitor.finalize()
        if recorder.enabled:
            recorder.emit(
                "dim.train",
                epochs=epochs_run,
                steps=steps,
                seconds=report.seconds,
                final_ms_loss=report.final_ms_loss,
                halted=report.halted,
                health_verdict=report.health_verdict,
            )
        # mark the model usable through the plain Imputer API
        model._fitted = True
        if getattr(model, "_column_means", None) is None:
            means = dataset.column_means()
            model._column_means = np.where(np.isnan(means), 0.0, means)
        return report


class DimImputer:
    """A plain-Imputer adapter around DIM training (no SSE).

    This is the "DIM-GAIN" ablation of Tables V/VI: the wrapped GAN imputer
    is trained with the MS divergence on the *whole* dataset — better
    accuracy than the native adversarial objective, higher cost.  With
    ``subsample_fraction`` set it becomes "Fixed-DIM-GAIN": training on a
    fixed random fraction (the paper uses 10 %) instead of the SSE-estimated
    minimum sample.
    """

    def __init__(
        self,
        model: GenerativeImputer,
        config: Optional[DimConfig] = None,
        subsample_fraction: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if subsample_fraction is not None and not 0.0 < subsample_fraction <= 1.0:
            raise ValueError(
                f"subsample_fraction must be in (0, 1], got {subsample_fraction}"
            )
        self.model = model
        self.config = config if config is not None else DimConfig()
        self.subsample_fraction = subsample_fraction
        self.seed = seed
        self.name = (
            f"dim-{model.name}"
            if subsample_fraction is None
            else f"fixed-dim-{model.name}"
        )
        self.report: Optional[DimReport] = None

    @property
    def sample_rate(self) -> float:
        """Training sample rate R_t (1.0 for full-data DIM)."""
        return self.subsample_fraction if self.subsample_fraction is not None else 1.0

    def fit(self, dataset: IncompleteDataset) -> "DimImputer":
        rng = np.random.default_rng(self.seed)
        train_set = dataset
        if self.subsample_fraction is not None:
            size = max(2, int(round(self.subsample_fraction * dataset.n_samples)))
            train_set = dataset.subsample(size, rng, name=f"{dataset.name}[fixed]")
        self.report = DIM(self.config).train(self.model, train_set, rng)
        return self

    def reconstruct(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self.model.reconstruct(values, mask)

    def transform(self, dataset: IncompleteDataset) -> np.ndarray:
        return self.model.transform(dataset)

    def fit_transform(self, dataset: IncompleteDataset) -> np.ndarray:
        return self.fit(dataset).transform(dataset)
