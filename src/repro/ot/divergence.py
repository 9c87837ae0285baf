"""Sinkhorn divergences, plain and masking (Definition 4), plus the
differentiable loss used by the DIM module.

The masking Sinkhorn divergence between the generated empirical measure
``ν_x̄`` and the observed one ``μ_x`` is

    S_m(ν_x̄ || μ_x) = 2 OT_λ^m(ν_x̄, μ_x) - OT_λ^m(ν_x̄, ν_x̄) - OT_λ^m(μ_x, μ_x)

where every ``OT_λ^m`` masks each point by its own mask row before computing
squared-Euclidean costs.  The corrective self-terms debias the entropic
regulariser so the divergence is non-negative and zero iff the two masked
point clouds coincide.

The masking inputs ``x̄``, ``x`` and their masks share one ``(n, d)``
shape (under Algorithm 1 ``x̄`` is a reconstruction of ``x``), so all
three ``OT_λ^m`` problems share one shape and are stacked into a single
:func:`repro.ot.sinkhorn_batched` solve — one stacked sweep per iteration
instead of three.  Only the unmasked :func:`sinkhorn_divergence` can
compare clouds with different row counts; its problems then differ in
shape and are solved one at a time.

Differentiability (Proposition 1) is realised with the envelope theorem: the
optimal plans ``P*`` are solved *off-tape* with stabilised Sinkhorn, then the
loss value is re-assembled from differentiable cost matrices with the plans
held constant, so ``backward()`` yields exactly the barycentric-map gradient

    ∇_{x̄_i} OT_λ^m = [ Σ_j P*_ij (x̄_i ⊙ m_i - x_j ⊙ m_j) ] T(m_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_recorder
from ..parallel import ExecutionContext
from ..tensor import Tensor, as_tensor, no_grad
from .batched import sinkhorn_batched
from .cost import masked_cost_matrix, masked_cost_matrix_tensor, squared_euclidean_cost
from .sinkhorn import SinkhornConfig, SinkhornResult, entropy, sinkhorn

__all__ = [
    "sinkhorn_divergence",
    "masking_sinkhorn_divergence",
    "chunked_masking_sinkhorn_divergence",
    "MaskingSinkhornLoss",
]


def _solve_stack(
    costs: Sequence[np.ndarray],
    config: SinkhornConfig,
    init: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[SinkhornResult]:
    """Solve same-shape problems as one stack, mixed shapes one at a time.

    ``init`` is a stacked ``(f, g)`` warm start for a same-shape stack;
    rows of zeros are exactly a cold start, so a partially warm stack is
    expressed by zero rows.  Mixed shapes (only ``sinkhorn_divergence`` on
    clouds with different row counts) are solved cold.
    """
    if len({c.shape for c in costs}) == 1:
        result = sinkhorn_batched(np.stack(costs), config, init=init)
        return [result.problem(k) for k in range(len(costs))]
    return [sinkhorn(cost, config) for cost in costs]


def _check_masking_shapes(x_bar, x, mask, mask_bar) -> None:
    """Require ``x_bar``, ``mask`` and ``mask_bar`` to have ``x``'s ``(n, d)`` shape.

    NumPy would broadcast a 1-D or ``(n, 1)`` mask into a finite but
    meaningless divergence, so a mis-shaped input is named instead.
    """
    shape = np.shape(x)
    if len(shape) != 2:
        raise ValueError(f"x must be an (n, d) matrix, got shape {shape}")
    for name, value in (("x_bar", x_bar), ("mask", mask), ("mask_bar", mask_bar)):
        if np.shape(value) != shape:
            raise ValueError(
                f"{name} must have x's shape {shape}, got {np.shape(value)}"
            )


def sinkhorn_divergence(x: np.ndarray, y: np.ndarray, config: SinkhornConfig) -> float:
    """Debiased (unmasked) Sinkhorn divergence between two point clouds.

    When ``x`` and ``y`` have the same number of rows the cross and two
    self-term problems share a shape and are solved as one stack;
    otherwise each is solved on its own.
    """
    cross, self_x, self_y = _solve_stack(
        [
            squared_euclidean_cost(x, y),
            squared_euclidean_cost(x, x),
            squared_euclidean_cost(y, y),
        ],
        config,
    )
    return 2.0 * cross.value - self_x.value - self_y.value


def masking_sinkhorn_divergence(
    x_bar: np.ndarray,
    x: np.ndarray,
    mask: np.ndarray,
    config: SinkhornConfig,
    *,
    mask_bar: Optional[np.ndarray] = None,
) -> float:
    """Masking Sinkhorn divergence ``S_m(ν_x̄ || μ_x)`` (Definition 4), NumPy.

    ``mask`` applies to ``x``; ``mask_bar`` (defaults to ``mask``) applies to
    ``x_bar``.  Under Algorithm 1 both matrices share the dataset's mask.
    All four arrays must share one ``(n, d)`` shape (``ValueError``
    otherwise); the three OT problems are one stacked solve.
    """
    if mask_bar is None:
        mask_bar = mask
    _check_masking_shapes(x_bar, x, mask, mask_bar)
    cross, self_bar, self_x = _solve_stack(
        [
            masked_cost_matrix(x_bar, mask_bar, x, mask),
            masked_cost_matrix(x_bar, mask_bar, x_bar, mask_bar),
            masked_cost_matrix(x, mask, x, mask),
        ],
        config,
    )
    return 2.0 * cross.value - self_bar.value - self_x.value


def chunked_masking_sinkhorn_divergence(
    x_bar: np.ndarray,
    x: np.ndarray,
    mask: np.ndarray,
    config: SinkhornConfig,
    *,
    chunk_size: int = 256,
    mask_bar: Optional[np.ndarray] = None,
    context: Optional["ExecutionContext"] = None,
    plan: Optional["BatchPlan"] = None,
) -> float:
    """Evaluation-time masking Sinkhorn divergence over row partitions.

    The full ``n × n`` solve is cubic-ish in ``n``; at evaluation time (no
    gradients needed) the standard practice — as in Muzellec et al.'s
    minibatch OT — is to partition the rows into aligned chunks, compute
    ``S_m`` per chunk, and average with row-count weights.  Chunks are
    independent, so they fan out through ``context`` (serial by default);
    the fixed partition and fixed-order combination make the value
    bit-identical across backends and worker counts.  Within each chunk the
    three OT problems are one stacked :func:`sinkhorn_batched` solve.

    ``plan`` (a :class:`repro.data.BatchPlan`) overrides ``chunk_size`` with
    an explicit partition policy; it must be sequential (unshuffled), since
    the chunked value is defined over aligned row blocks.

    With one chunk this reduces exactly to
    :func:`masking_sinkhorn_divergence`.  Note the chunked value is a
    minibatch *approximation* of the full divergence, not the same number.
    """
    from ..data import BatchPlan  # local: repro.data imports repro.obs only

    x_bar = np.asarray(x_bar, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    mask_bar = mask if mask_bar is None else np.asarray(mask_bar, dtype=np.float64)
    _check_masking_shapes(x_bar, x, mask, mask_bar)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate the divergence on an empty batch")
    if plan is None:
        plan = BatchPlan(batch_size=chunk_size)
    if plan.order != "sequential":
        raise ValueError(
            f"chunked divergence needs a sequential BatchPlan, got order "
            f"{plan.order!r}"
        )
    bounds = plan.bounds(n)
    if len(bounds) == 1:
        return masking_sinkhorn_divergence(x_bar, x, mask, config, mask_bar=mask_bar)
    context = context if context is not None else ExecutionContext.from_env()

    def chunk_task(start: int, stop: int):
        return lambda: masking_sinkhorn_divergence(
            x_bar[start:stop],
            x[start:stop],
            mask[start:stop],
            config,
            mask_bar=mask_bar[start:stop],
        )

    values = context.run(
        [chunk_task(start, stop) for start, stop in bounds],
        label="ot.chunked_divergence",
    )
    total = 0.0
    for (start, stop), value in zip(bounds, values):
        total += (stop - start) * value
    return float(total / n)


@dataclass
class MaskingSinkhornLoss:
    """Differentiable MS-divergence imputation loss ``L_s = S_m / (2n)``.

    Parameters
    ----------
    reg:
        Entropic regulariser ``λ`` (paper default 130 on [0, 1]-normalised
        data scaled; see :class:`repro.core.ScisConfig`).
    max_iter, tol:
        Sinkhorn solver controls (assembled into a :class:`SinkhornConfig`).
    debias:
        Include the corrective self-terms (Definition 4).  Switching this off
        reproduces the "entropic only" ablation discussed in §IV.A.
    warm_start:
        Keep a per-``batch_key`` store of dual potentials and reuse them as
        the solver's initial point the next time the same batch is seen.
        Because the solver always iterates to ``tol``, this changes only
        the iteration count, never the answer beyond solver tolerance.
    cache_self_terms:
        Cache the constant data self-term ``OT_λ^m(μ_x, μ_x)`` per
        ``batch_key``: ``x`` and ``mask`` for a given batch never change
        across epochs, so this solve disappears entirely after the first
        epoch.  The cached scalar is exactly what a fresh cold solve would
        produce (the solve is deterministic), so cached and uncached runs
        agree to the bit on this term.

    Each training step's cross/self-term problems (all ``(n, n)``) are one
    :func:`sinkhorn_batched` solve.  Warm-start rows for slots without
    stored duals are zeros — exactly a cold start.

    Both stores are keyed by the caller-supplied ``batch_key``; callers
    **must** guarantee that a key maps to a fixed ``(x, mask)`` pair for the
    lifetime of the store, and call :meth:`reset_caches` whenever that
    mapping changes (e.g. a new training run on a different dataset).
    """

    reg: float
    max_iter: int = 200
    tol: float = 1e-6
    debias: bool = True
    warm_start: bool = True
    cache_self_terms: bool = True
    _duals: Dict[Hashable, Dict[str, Tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _self_terms: Dict[Hashable, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def config(self) -> SinkhornConfig:
        """The solver configuration every step's stack is solved with."""
        return SinkhornConfig(reg=self.reg, max_iter=self.max_iter, tol=self.tol)

    def reset_caches(self) -> None:
        """Invalidate the warm-start store and the self-term cache.

        Must be called whenever previously used batch keys may refer to
        different data (a new training run, a new dataset, a re-shuffled
        batch partition).
        """
        self._duals.clear()
        self._self_terms.clear()

    def _stored_duals(
        self, batch_key: Optional[Hashable], slot: Optional[str]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if not self.warm_start or batch_key is None or slot is None:
            return None
        return self._duals.get(batch_key, {}).get(slot)

    def _store_duals(
        self, batch_key: Optional[Hashable], slot: Optional[str], result: SinkhornResult
    ) -> None:
        if self.warm_start and batch_key is not None and slot is not None:
            self._duals.setdefault(batch_key, {})[slot] = (result.f, result.g)

    def _solve_step(
        self,
        costs: Sequence[np.ndarray],
        slots: Sequence[Optional[str]],
        batch_key: Optional[Hashable],
    ) -> List[SinkhornResult]:
        """Solve the step's same-shape problems as one stack, warm-started per slot.

        ``slots`` names the warm-start store entry per problem (``None`` for
        the deliberately cold data self-term); duals are stored per slot.
        """
        stored = [self._stored_duals(batch_key, slot) for slot in slots]
        init = None
        if any(s is not None for s in stored):
            n, m = costs[0].shape
            f0 = np.zeros((len(costs), n))
            g0 = np.zeros((len(costs), m))
            for k, s in enumerate(stored):
                if s is not None:
                    f0[k], g0[k] = s
            init = (f0, g0)
        results = _solve_stack(list(costs), self.config, init=init)
        for slot, result in zip(slots, results):
            self._store_duals(batch_key, slot, result)
        return results

    def __call__(
        self,
        x_bar: Tensor,
        x: np.ndarray,
        mask: np.ndarray,
        batch_key: Optional[Hashable] = None,
    ) -> Tensor:
        """Return the scalar loss tensor for a reconstructed batch.

        ``x_bar`` is the model's reconstruction (on the tape); ``x`` and
        ``mask`` are constant arrays for the same batch.  ``batch_key``
        (optional) identifies the batch across epochs and enables the
        warm-start store and self-term cache; with ``None`` every solve is
        cold and nothing is cached.
        """
        x_bar = as_tensor(x_bar)
        x = np.asarray(x, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        n = x.shape[0]
        _check_masking_shapes(x_bar.data, x, mask, mask)

        with no_grad():
            costs = [masked_cost_matrix(x_bar.data, mask, x, mask)]
            slots: List[Optional[str]] = ["cross"]
            data_value: Optional[float] = None
            if self.debias:
                costs.append(masked_cost_matrix(x_bar.data, mask, x_bar.data, mask))
                slots.append("self_bar")
                if self.cache_self_terms and batch_key is not None:
                    data_value = self._self_terms.get(batch_key)
                if data_value is None:
                    # Deliberately cold (slot None): the cached value must
                    # equal what an uncached run recomputes every step.
                    costs.append(masked_cost_matrix(x, mask, x, mask))
                    slots.append(None)
                else:
                    recorder = get_recorder()
                    if recorder.enabled:
                        recorder.inc("sinkhorn.selfterm_cache_hits")
            results = self._solve_step(costs, slots, batch_key)
            plan_cross = results[0]
            if self.debias:
                plan_self = results[1]
                if data_value is None:
                    data_value = results[2].value
                    if self.cache_self_terms and batch_key is not None:
                        self._self_terms[batch_key] = data_value

        x_const = Tensor(x)
        cross = masked_cost_matrix_tensor(x_bar, mask, x_const, mask)
        divergence = 2.0 * (
            (Tensor(plan_cross.plan) * cross).sum() + self.reg * entropy(plan_cross.plan)
        )
        if self.debias:
            self_term = masked_cost_matrix_tensor(x_bar, mask, x_bar, mask)
            divergence = divergence - (
                (Tensor(plan_self.plan) * self_term).sum() + self.reg * entropy(plan_self.plan)
            )
            divergence = divergence - data_value
        return divergence / (2.0 * n)
