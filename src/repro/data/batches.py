"""Mini-batch iteration over incomplete data.

Partition policy lives in one object — :class:`BatchPlan` — instead of a
grown list of per-call-site flags: DIM's training loop (fixed partition when
warm-start caching), the chunked masking divergence (aligned sequential row
blocks), and the serving dispatcher (explicit per-request group sizes) all
describe how rows split into batches with the same vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .dataset import IncompleteDataset

__all__ = ["BatchPlan", "iterate_batches"]

_ORDERS = ("sequential", "shuffled", "fixed")


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """How a row set partitions into batches.

    Exactly one of ``batch_size`` (uniform batches) or ``sizes`` (explicit,
    possibly ragged group sizes — the serving dispatcher's case) must be
    given.

    Attributes
    ----------
    batch_size:
        Uniform batch size; the final batch may be smaller unless
        ``drop_last``.
    sizes:
        Explicit per-batch sizes; their sum must equal the row count passed
        to :meth:`bounds`.  Incompatible with ``drop_last`` and
        non-sequential orders.
    order:
        ``"sequential"`` (rows in storage order), ``"shuffled"`` (a fresh
        permutation drawn from the caller's rng), or ``"fixed"`` (the
        explicit ``permutation`` — how DIM pins its batch partition across
        epochs so warm-start/self-term cache keys stay stable).
    drop_last:
        Skip a trailing batch smaller than ``batch_size`` (useful for the
        Sinkhorn loss, whose plan is square per batch and degenerates for a
        batch of one).
    yield_indices:
        Make :func:`iterate_batches` yield the batch's row indices as a
        third element — the handle DIM uses to key its Sinkhorn warm-start
        store.
    permutation:
        The explicit row order for ``order="fixed"``.
    """

    batch_size: Optional[int] = None
    sizes: Optional[Tuple[int, ...]] = None
    order: str = "sequential"
    drop_last: bool = False
    yield_indices: bool = False
    permutation: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.batch_size is None) == (self.sizes is None):
            raise ValueError(
                "BatchPlan needs exactly one of batch_size or sizes, got "
                f"batch_size={self.batch_size} sizes={self.sizes}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
            if any(s < 1 for s in self.sizes):
                raise ValueError(f"sizes must all be >= 1, got {self.sizes}")
            if self.drop_last:
                raise ValueError("drop_last does not apply to explicit sizes")
            if self.order != "sequential":
                raise ValueError(
                    f"explicit sizes require sequential order, got {self.order!r}"
                )
        if self.order not in _ORDERS:
            raise ValueError(
                f"order must be one of {_ORDERS}, got {self.order!r}"
            )
        if (self.order == "fixed") != (self.permutation is not None):
            raise ValueError(
                "permutation must be given exactly when order='fixed'"
            )
        if self.permutation is not None:
            perm = np.asarray(self.permutation, dtype=np.intp)
            if perm.ndim != 1:
                raise ValueError(
                    f"permutation must be 1-D, got shape {perm.shape}"
                )
            object.__setattr__(self, "permutation", perm)

    @classmethod
    def of_sizes(cls, sizes, *, yield_indices: bool = False) -> "BatchPlan":
        """A plan with explicit (possibly ragged) batch sizes, in row order."""
        return cls(sizes=tuple(int(s) for s in sizes), yield_indices=yield_indices)

    def bounds(self, n: int) -> List[Tuple[int, int]]:
        """The ``(start, stop)`` row ranges this plan carves out of ``n`` rows."""
        if self.sizes is not None:
            total = sum(self.sizes)
            if total != n:
                raise ValueError(
                    f"explicit sizes sum to {total} but the plan was asked to "
                    f"partition {n} rows"
                )
            offsets = np.cumsum((0,) + self.sizes)
            return [
                (int(start), int(stop))
                for start, stop in zip(offsets[:-1], offsets[1:])
            ]
        bounds = [
            (start, min(start + self.batch_size, n))
            for start in range(0, n, self.batch_size)
        ]
        if self.drop_last and bounds and bounds[-1][1] - bounds[-1][0] < self.batch_size:
            bounds.pop()
        return bounds

    def row_order(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """The row permutation batches index into (identity when sequential)."""
        if self.order == "fixed":
            if self.permutation.size != n:
                raise ValueError(
                    f"fixed permutation covers {self.permutation.size} rows "
                    f"but the plan was asked to partition {n}"
                )
            return self.permutation
        if self.order == "shuffled":
            if rng is None:
                rng = np.random.default_rng()
            return rng.permutation(n)
        return np.arange(n)


def iterate_batches(
    dataset: IncompleteDataset,
    plan: BatchPlan,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Union[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Yield ``(values, mask)`` batches; missing entries come through as nan.

    ``plan`` is the partition policy; ``rng`` draws the permutation of a
    ``"shuffled"`` plan.  With ``plan.yield_indices`` each batch also
    carries its row indices as a third element.
    """
    if not isinstance(plan, BatchPlan):
        raise TypeError(
            f"plan must be a BatchPlan, e.g. BatchPlan(batch_size=...), got {plan!r}"
        )
    n = dataset.n_samples
    row_order = plan.row_order(n, rng)
    for start, stop in plan.bounds(n):
        index = row_order[start:stop]
        if plan.yield_indices:
            yield dataset.values[index], dataset.mask[index], index
        else:
            yield dataset.values[index], dataset.mask[index]
