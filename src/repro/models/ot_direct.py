"""OT-direct imputation: missing cells as learnable parameters (Muzellec et al.).

"Missing Data Imputation using Optimal Transport" (Muzellec, Josse, Boyer &
Cuturi, ICML 2020) observes that two random batches drawn from the same data
distribution should be close in Sinkhorn divergence — so the missing entries
themselves can be optimised by gradient descent on batch-Sinkhorn divergences
between pairs of imputed batches.  No generator network is involved in the
core algorithm: the missing cells *are* the parameters.

This module is the same-substrate OT rival to DIM (:mod:`repro.core.dim`):

* the missing cells form one flat leaf :class:`~repro.nn.Parameter` in the
  :mod:`repro.tensor` graph, scattered into each batch with a differentiable
  gather (`ops.concat` + `ops.getitem`);
* each training round pairs every batch with a round-robin partner
  (offset cycling ``1 .. B-1``) drawn from a :class:`repro.data.BatchPlan`
  partition, and descends the mean debiased Sinkhorn divergence over the
  round's pairs with one Adam step;
* each pair has three OT problems (cross + both self terms — both batches
  carry imputed cells, so unlike DIM *neither* self term is constant), all
  of one shape, so a round's pairs are solved together as a single
  ``(3·P, n, n)`` :func:`repro.ot.sinkhorn_batched` stack, warm-started
  from dual potentials kept per ``(i, j)`` batch pair;
* gradients follow the envelope theorem exactly as in Proposition 1: the
  plans are solved off-tape, the divergence value is re-assembled from
  differentiable cost matrices with the plans held constant.

Since both batches are fully imputed, every mask in the masking cost of
Definition 2 is all-ones and the cost reduces to the plain squared-Euclidean
matrix; :func:`repro.ot.cost.squared_euclidean_cost_tensor` is used directly.

The solver decides convergence, freezing and absorption per problem, so a
problem's iterates do not depend on the rest of its stack: stacking a whole
round changes the number of kernel calls, not the answer.  A serial
:class:`repro.parallel.ExecutionContext` solves each round as one stack; the
process backend splits the round's pairs into one contiguous chunk per worker
and solves one stack per chunk.  Each task returns every pair's
``(loss, grad, duals)``; the parent accumulates gradients in schedule order
and applies one optimiser step, so serial and process backends agree
bit-for-bit and the imputation is invariant to the order pairs are visited.

Direct imputation is transductive — it only fills the training matrix.  For
out-of-sample rows the optional distributional-fitting round (``fit_mlp``,
on by default) trains a GAIN-shaped MLP generator to reproduce the OT-imputed
matrix, which makes :class:`SinkhornImputer` a full
:class:`~repro.models.base.GenerativeImputer`: SSE can estimate ``n*`` for it
(the paper's thesis extended to a non-GAN model) and the serving registry can
persist it under the standard ``generative`` kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.batches import BatchPlan
from ..data.dataset import IncompleteDataset
from ..nn import Linear, Module, Parameter, ReLU, Sequential, Sigmoid
from ..obs import HealthMonitor, get_recorder, span
from ..obs.health import HEALTH_POLICIES
from ..optim import Adam
from ..ot.cost import squared_euclidean_cost, squared_euclidean_cost_tensor
from ..ot.divergence import _solve_stack
from ..ot.sinkhorn import SinkhornConfig, SinkhornResult, entropy
from ..parallel import ExecutionContext
from ..tensor import Tensor, no_grad, ops
from .base import GenerativeImputer

__all__ = ["OtDirectReport", "SinkhornImputer"]

# Stacked dual potentials for one pair's (cross, self_i, self_j) solves.
_Duals = Tuple[np.ndarray, np.ndarray]


@dataclass
class OtDirectReport:
    """Diagnostics of one :meth:`SinkhornImputer.fit` run."""

    rounds: int
    pairs: int
    seconds: float
    losses: List[float] = field(default_factory=list)
    halted: bool = False
    health_verdict: Optional[str] = None
    mlp_epochs: int = 0

    @property
    def final_loss(self) -> Optional[float]:
        return self.losses[-1] if self.losses else None


class SinkhornImputer(GenerativeImputer):
    """Direct batch-Sinkhorn imputation (OT-direct).

    Parameters
    ----------
    epochs:
        Training rounds.  Each round pairs every batch with one round-robin
        partner and takes a single Adam step on the mean pair divergence.
    batch_size:
        Rows per batch; capped at ``n // 2`` so at least two full batches
        exist (the pair schedule needs a partner).  Trailing partial batches
        are dropped so every stacked solve shares one shape.
    lr:
        Adam step size on the imputed cells (they live on the data's own
        scale, so the default is larger than a network learning rate).
    reg, sinkhorn_max_iter, sinkhorn_tol:
        Entropic weight λ and solver controls for every Sinkhorn solve.
    pairs_per_round:
        Cap on pairs per round (``None`` uses the full schedule of one pair
        per batch).
    warm_start:
        Keep dual potentials per ``(i, j)`` batch pair and reuse them as the
        next round's starting point for that pair.  Only effective with
        ``fixed_batch_order`` (otherwise pair keys never repeat).  The
        solver still iterates to ``tol``, so this changes iteration counts,
        never answers beyond solver tolerance.
    fixed_batch_order:
        Draw the batch partition once and reuse it every round (enables the
        warm-start store and makes the imputation a pure function of the
        seed, invariant to pair visiting order).  ``False`` re-shuffles the
        partition every round.
    noise_init:
        Missing cells initialise to ``column mean + noise_init · N(0, 1)``
        (Muzellec et al. use 0.1).
    fit_mlp, hidden, mlp_epochs, mlp_lr, noise_scale:
        The distributional-fitting round: train a GAIN-shaped generator
        ``G([m ⊙ x + (1-m) ⊙ z, m])`` by MSE against the OT-imputed matrix
        so unseen rows can be imputed (and so SSE/serving get a generator).
        With ``fit_mlp=False`` the model is purely transductive: it can
        only impute its own training matrix (out-of-sample rows fall back
        to column means) and cannot be registry-persisted.
    seed:
        Root seed for initialisation, the batch partition, and MLP fitting.
    on_divergence:
        Health-watchdog policy: ``"warn"`` records ``health.*`` events,
        ``"halt"`` stops the round loop at the first NaN/divergence/
        oscillation detection (``report.halted`` is set).
    context:
        :class:`~repro.parallel.ExecutionContext` for the round solves;
        defaults to ``ExecutionContext.from_env()`` at fit time.  Serial
        solves each round as one stack; the process backend solves one
        stack per chunk of pairs, ``min(workers, pairs)`` chunks a round.
    """

    name = "otdirect"

    def __init__(
        self,
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-2,
        reg: float = 0.05,
        sinkhorn_max_iter: int = 200,
        sinkhorn_tol: float = 1e-6,
        pairs_per_round: Optional[int] = None,
        warm_start: bool = True,
        fixed_batch_order: bool = True,
        noise_init: float = 0.1,
        fit_mlp: bool = True,
        hidden: Optional[int] = None,
        mlp_epochs: int = 30,
        mlp_lr: float = 1e-3,
        noise_scale: float = 0.01,
        seed: int = 0,
        on_divergence: str = "warn",
        context: Optional[ExecutionContext] = None,
    ) -> None:
        super().__init__()
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {batch_size}")
        if pairs_per_round is not None and pairs_per_round < 1:
            raise ValueError(
                f"pairs_per_round must be >= 1, got {pairs_per_round}"
            )
        if on_divergence not in HEALTH_POLICIES:
            raise ValueError(
                f"on_divergence policy must be one of {HEALTH_POLICIES}, "
                f"got {on_divergence!r}"
            )
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.reg = reg
        self.sinkhorn_max_iter = sinkhorn_max_iter
        self.sinkhorn_tol = sinkhorn_tol
        self.pairs_per_round = pairs_per_round
        self.warm_start = warm_start
        self.fixed_batch_order = fixed_batch_order
        self.noise_init = noise_init
        self.fit_mlp = fit_mlp
        self.hidden = hidden
        self.mlp_epochs = mlp_epochs
        self.mlp_lr = mlp_lr
        self.noise_scale = noise_scale
        self.seed = seed
        self.on_divergence = on_divergence
        self.context = context
        self.rng = np.random.default_rng(seed)
        self.report: Optional[OtDirectReport] = None
        self.health_verdict: Optional[str] = None
        self._generator: Optional[Module] = None
        self._n_features: Optional[int] = None
        self._column_means: Optional[np.ndarray] = None
        # Transductive state (None until fit): the training matrix, its
        # mask, the flat missing-cell parameter, and the finished imputation.
        self._train_values: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None
        self._filled: Optional[np.ndarray] = None
        self._slot: Optional[np.ndarray] = None
        self._cells: Optional[Parameter] = None
        self._zero_slot: Optional[Tensor] = None
        self._train_imputed: Optional[np.ndarray] = None
        self._batch_indices: List[np.ndarray] = []
        self._duals: Dict[Tuple[int, int], _Duals] = {}

    # ------------------------------------------------------------------
    # GenerativeImputer contract (the distributional-fit MLP)
    # ------------------------------------------------------------------
    @property
    def generator(self) -> Module:
        if self._generator is None:
            raise RuntimeError("call build() or fit() first")
        return self._generator

    def build(self, n_features: int, rng: Optional[np.random.Generator] = None) -> None:
        if rng is not None:
            self.rng = rng
        hidden = self.hidden if self.hidden is not None else max(n_features, 4)
        self._n_features = n_features
        self._generator = Sequential(
            Linear(2 * n_features, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, n_features, rng=self.rng),
            Sigmoid(),
        )

    def sample_noise(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, self.noise_scale, size=shape)

    def reconstruct_batch(
        self, values: np.ndarray, mask: np.ndarray, noise: np.ndarray
    ) -> Tensor:
        """Differentiable X̄ = G([m⊙x + (1-m)⊙z, m]) through the fitted MLP."""
        filled = np.nan_to_num(np.asarray(values, dtype=np.float64), nan=0.0)
        mask = np.asarray(mask, dtype=np.float64)
        x_tilde = mask * filled + (1.0 - mask) * noise
        g_input = ops.concat([Tensor(x_tilde), Tensor(mask)], axis=1)
        return self._generator(g_input)

    def adversarial_step(
        self, values: np.ndarray, mask: np.ndarray, rng: np.random.Generator
    ) -> dict:
        """OT-direct has no adversarial game; present for the contract."""
        return {}

    # ------------------------------------------------------------------
    # The differentiable imputed-batch gather
    # ------------------------------------------------------------------
    def _gather(self, cells: Tensor, index: np.ndarray) -> Tensor:
        """Imputed batch ``X̂[index]`` with ``cells`` scattered into missing slots.

        ``self._slot`` maps every cell to its flat parameter index; observed
        cells point at a trailing constant-zero slot whose contribution (and
        gradient) the ``(1 - m)`` factor annihilates.
        """
        extended = ops.concat([cells, self._zero_slot], axis=0)
        gathered = ops.getitem(extended, self._slot[index])
        mask = self._mask[index]
        return Tensor(mask * self._filled[index]) + Tensor(1.0 - mask) * gathered

    def _assemble_divergence(
        self,
        cells: Tensor,
        index_i: np.ndarray,
        index_j: np.ndarray,
        plans: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> Tensor:
        """On-tape debiased divergence with the Sinkhorn plans held constant.

        The envelope-theorem assembly of Proposition 1: every plan is a
        constant array, every cost matrix is differentiable, so the gradient
        w.r.t. ``cells`` is exactly the barycentric-map gradient.
        """
        x_i = self._gather(cells, index_i)
        x_j = self._gather(cells, index_j)
        plan_xy, plan_xx, plan_yy = plans
        divergence = 2.0 * (
            (Tensor(plan_xy) * squared_euclidean_cost_tensor(x_i, x_j)).sum()
            + self.reg * entropy(plan_xy)
        )
        divergence = divergence - (
            (Tensor(plan_xx) * squared_euclidean_cost_tensor(x_i, x_i)).sum()
            + self.reg * entropy(plan_xx)
        )
        divergence = divergence - (
            (Tensor(plan_yy) * squared_euclidean_cost_tensor(x_j, x_j)).sum()
            + self.reg * entropy(plan_yy)
        )
        return divergence / (2.0 * index_i.size)

    # ------------------------------------------------------------------
    # Round solves
    # ------------------------------------------------------------------
    @property
    def _sinkhorn_config(self) -> SinkhornConfig:
        return SinkhornConfig(
            reg=self.reg, max_iter=self.sinkhorn_max_iter, tol=self.sinkhorn_tol
        )

    def _chunk_init(self, chunk: List[Tuple[int, int]], n: int) -> Optional[_Duals]:
        """Stacked warm-start duals for ``chunk``, or ``None`` if none are stored.

        Zero rows are exactly a cold start, so a pair without stored duals
        gets zeros.  The round-robin schedule visits a round's pairs for the
        first time together, so a chunk is in practice all warm or all cold
        and ``sinkhorn.warm_starts`` counts only warm problems.
        """
        if not self._use_warm_start:
            return None
        stored = [self._duals.get(key) for key in chunk]
        if all(duals is None for duals in stored):
            return None
        cold = np.zeros((3, n))
        return (
            np.concatenate([cold if d is None else d[0] for d in stored]),
            np.concatenate([cold if d is None else d[1] for d in stored]),
        )

    def _solve_chunk(
        self, chunk: List[Tuple[int, int]]
    ) -> List[Tuple[float, np.ndarray, _Duals]]:
        """Solve ``chunk``'s pairs as one stack, then each pair's step in order.

        The stack holds every pair's cross, ``self_i`` and ``self_j`` costs.
        The duals store is only *read* here — tasks may run in forked
        workers, so the parent applies the returned duals between rounds,
        which keeps serial and process backends on identical warm starts.
        """
        indices = [(self._batch_indices[i], self._batch_indices[j]) for i, j in chunk]
        costs: List[np.ndarray] = []
        with no_grad():
            for index_i, index_j in indices:
                x_i = self._gather(self._cells, index_i).data
                x_j = self._gather(self._cells, index_j).data
                costs += [
                    squared_euclidean_cost(x_i, x_j),
                    squared_euclidean_cost(x_i, x_i),
                    squared_euclidean_cost(x_j, x_j),
                ]
            init = self._chunk_init(chunk, indices[0][0].size)
            results = _solve_stack(costs, self._sinkhorn_config, init=init)
        return [
            self._pair_step(index_i, index_j, results[3 * k : 3 * k + 3])
            for k, (index_i, index_j) in enumerate(indices)
        ]

    def _pair_step(
        self,
        index_i: np.ndarray,
        index_j: np.ndarray,
        solved: Sequence[SinkhornResult],
    ) -> Tuple[float, np.ndarray, _Duals]:
        """One pair's (loss value, cell gradient, duals) from its solved stack.

        ``solved`` holds the pair's cross, ``self_i`` and ``self_j`` results.
        """
        self._cells.zero_grad()
        plans = tuple(result.plan for result in solved)
        loss = self._assemble_divergence(self._cells, index_i, index_j, plans)
        loss.backward()
        grad = (
            self._cells.grad.copy()
            if self._cells.grad is not None
            else np.zeros_like(self._cells.data)
        )
        duals = (
            np.stack([result.f for result in solved]),
            np.stack([result.g for result in solved]),
        )
        return loss.item(), grad, duals

    def _make_chunk_tasks(self, pairs: List[Tuple[int, int]], n_chunks: int):
        """One task per contiguous chunk of ``pairs``; ``n_chunks <= len(pairs)``."""
        return [
            lambda chunk=[pairs[k] for k in block]: self._solve_chunk(chunk)
            for block in np.array_split(np.arange(len(pairs)), n_chunks)
        ]

    def _round_pairs(self, round_index: int, n_batches: int) -> List[Tuple[int, int]]:
        """Round-robin schedule: every batch meets partner ``k + offset``.

        The offset cycles through ``1 .. B-1``, so over ``B-1`` rounds every
        ordered batch pair is visited exactly once.  The list is in
        canonical batch order; because gradients are accumulated across the
        whole round before the single optimiser step, visiting order only
        permutes a floating-point sum.
        """
        offset = 1 + (round_index % (n_batches - 1))
        pairs = [(k, (k + offset) % n_batches) for k in range(n_batches)]
        if self.pairs_per_round is not None:
            pairs = pairs[: self.pairs_per_round]
        return pairs

    # ------------------------------------------------------------------
    # Fit
    # ------------------------------------------------------------------
    @property
    def _use_warm_start(self) -> bool:
        return self.warm_start and self.fixed_batch_order

    def _partition(self, rng: np.random.Generator) -> List[np.ndarray]:
        """Partition the training rows into >= 2 same-size batches."""
        n = self._train_values.shape[0]
        batch = max(2, min(self.batch_size, n // 2))
        if self.fixed_batch_order:
            plan = BatchPlan(
                batch_size=batch,
                order="fixed",
                permutation=rng.permutation(n),
                drop_last=True,
            )
        else:
            plan = BatchPlan(batch_size=batch, order="shuffled", drop_last=True)
        order = plan.row_order(n, rng)
        return [order[start:stop] for start, stop in plan.bounds(n)]

    def _prepare(self, dataset: IncompleteDataset, rng: np.random.Generator) -> None:
        """Initialise the cell parameters and the transductive state."""
        if dataset.n_samples < 4:
            raise ValueError(
                f"OT-direct needs at least 4 rows to form two batches, "
                f"got {dataset.n_samples}"
            )
        values = np.asarray(dataset.values, dtype=np.float64)
        mask = np.asarray(dataset.mask, dtype=np.float64)
        self._train_values = values.copy()
        self._mask = mask
        self._filled = np.nan_to_num(values, nan=0.0)
        means = dataset.column_means()
        self._column_means = np.where(np.isnan(means), 0.0, means)
        missing = mask == 0.0
        n_missing = int(missing.sum())
        # Flat slot map: missing cells -> their parameter index (row-major
        # order), observed cells -> the trailing constant-zero slot.
        slot = np.full(values.shape, n_missing, dtype=np.intp)
        slot[missing] = np.arange(n_missing)
        self._slot = slot
        init = np.broadcast_to(self._column_means, values.shape)[missing]
        init = init + self.noise_init * rng.standard_normal(n_missing)
        self._cells = Parameter(init, name="otdirect.cells")
        self._zero_slot = Tensor(np.zeros(1))
        self._optimizer = Adam([self._cells], lr=self.lr)
        self._duals = {}
        self._batch_indices = self._partition(rng)

    def _run_rounds(self, rng: np.random.Generator) -> OtDirectReport:
        """The OT descent: stacked round-robin pair solves, one Adam step per round."""
        recorder = get_recorder()
        monitor = HealthMonitor(policy=self.on_divergence)
        context = self.context if self.context is not None else ExecutionContext.from_env()
        # One stack per round serially; one per worker under the process pool.
        workers = context.resolved_workers() if context.backend == "process" else 1
        start = time.perf_counter()
        report = OtDirectReport(rounds=0, pairs=0, seconds=0.0)
        if self._cells.size == 0:
            # Nothing to impute: the matrix is complete.
            report.health_verdict = monitor.finalize()
            report.seconds = time.perf_counter() - start
            return report
        for round_index in range(self.epochs):
            if not self.fixed_batch_order:
                self._batch_indices = self._partition(rng)
            pairs = self._round_pairs(round_index, len(self._batch_indices))
            n_chunks = min(workers, len(pairs))
            with span("otdirect.round"):
                chunks = context.run(
                    self._make_chunk_tasks(pairs, n_chunks), label="otdirect.pairs"
                )
            total_grad = np.zeros_like(self._cells.data)
            loss_sum = 0.0
            for (i, j), (value, grad, duals) in zip(pairs, chain.from_iterable(chunks)):
                loss_sum += value
                total_grad += grad
                if self._use_warm_start:
                    self._duals[(i, j)] = duals
            mean_loss = loss_sum / len(pairs)
            self._cells.grad = total_grad / len(pairs)
            self._optimizer.step()
            report.rounds = round_index + 1
            report.pairs += len(pairs)
            report.losses.append(mean_loss)
            monitor.check_finite("otdirect.round_loss", mean_loss, round=round_index)
            monitor.observe_loss("otdirect.round", mean_loss)
            if recorder.enabled:
                recorder.inc("otdirect.rounds")
                recorder.inc("otdirect.pair_solves", len(pairs))
                recorder.observe("otdirect.round_loss", mean_loss)
                recorder.emit(
                    "otdirect.round",
                    round=round_index,
                    loss=mean_loss,
                    pairs=len(pairs),
                )
            if monitor.should_halt:
                break
        report.halted = monitor.should_halt
        report.health_verdict = monitor.finalize()
        report.seconds = time.perf_counter() - start
        return report

    def _fit_mlp(self, rng: np.random.Generator, monitor: HealthMonitor) -> int:
        """Distributional fit: regress the generator onto the imputed matrix."""
        recorder = get_recorder()
        if self._generator is None:
            self.build(self._train_values.shape[1])
        optimizer = Adam(self._generator.parameters(), lr=self.mlp_lr)
        n = self._train_values.shape[0]
        target = self._train_imputed
        epochs_run = 0
        for epoch in range(self.mlp_epochs):
            order = rng.permutation(n)
            epoch_losses: List[float] = []
            for begin in range(0, n, self.batch_size):
                index = order[begin : begin + self.batch_size]
                noise = self.sample_noise((index.size, target.shape[1]), rng)
                x_bar = self.reconstruct_batch(
                    self._train_values[index], self._mask[index], noise
                )
                residual = x_bar - Tensor(target[index])
                loss = (residual * residual).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            epoch_loss = float(np.mean(epoch_losses))
            epochs_run = epoch + 1
            monitor.check_finite("otdirect.mlp_loss", epoch_loss, epoch=epoch)
            if recorder.enabled:
                recorder.emit("otdirect.mlp_epoch", epoch=epoch, loss=epoch_loss)
            if monitor.should_halt:
                break
        return epochs_run

    def fit(self, dataset: IncompleteDataset) -> "SinkhornImputer":
        rng = np.random.default_rng(self.seed)
        recorder = get_recorder()
        self._prepare(dataset, rng)
        with span("otdirect.fit"):
            report = self._run_rounds(rng)
            # The transductive answer: observed bytes untouched, missing
            # cells replaced by the optimised parameters.
            imputed = self._train_values.copy()
            imputed[self._mask == 0.0] = self._cells.data
            self._train_imputed = imputed
            if self.fit_mlp:
                monitor = HealthMonitor(policy=self.on_divergence)
                report.mlp_epochs = self._fit_mlp(rng, monitor)
                if monitor.verdict != "healthy" and report.health_verdict == "healthy":
                    report.health_verdict = monitor.verdict
                monitor.finalize()
        self.report = report
        self.health_verdict = report.health_verdict
        if recorder.enabled:
            recorder.emit(
                "otdirect.fit",
                rounds=report.rounds,
                pairs=report.pairs,
                seconds=report.seconds,
                final_loss=report.final_loss,
                halted=report.halted,
                health_verdict=report.health_verdict,
                mlp_epochs=report.mlp_epochs,
                n_missing=int(self._cells.size),
            )
        self._fitted = True
        return self

    def fit_impute(self, dataset: IncompleteDataset) -> np.ndarray:
        """Fit and return the direct (transductive) imputation.

        Observed cells are byte-identical to the input: the matrix is a copy
        of the training values with only the missing positions assigned.
        """
        self.fit(dataset)
        return self._train_imputed.copy()

    # ------------------------------------------------------------------
    # Imputer API
    # ------------------------------------------------------------------
    def _is_training_batch(self, values: np.ndarray, mask: np.ndarray) -> bool:
        if self._train_values is None or values.shape != self._train_values.shape:
            return False
        return np.array_equal(
            values, self._train_values, equal_nan=True
        ) and np.array_equal(np.asarray(mask, dtype=np.float64), self._mask)

    def reconstruct(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """X̄ for arbitrary rows: direct parameters on the training matrix,
        the distributional MLP out of sample (column means without one)."""
        self._check_fitted()
        values = np.asarray(values, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if self._is_training_batch(values, mask):
            return self._train_imputed.copy()
        # A built generator always carries trained weights here: it is only
        # constructed by the distributional fit or by registry rehydration.
        if self._generator is not None:
            noise = self.sample_noise(mask.shape, np.random.default_rng(self.seed))
            with no_grad():
                return self.reconstruct_batch(values, mask, noise).data
        if self._column_means is None:
            raise RuntimeError(
                "this SinkhornImputer was rehydrated without its transductive "
                "state and has no trained generator"
            )
        return np.broadcast_to(self._column_means, values.shape).copy()
