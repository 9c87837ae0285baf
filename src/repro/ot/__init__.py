"""Optimal-transport toolkit: exact OT, one stacked Sinkhorn solver
(``sinkhorn()`` is its one-problem case), masking Sinkhorn divergence."""

from .batched import BatchedSinkhornResult, sinkhorn_batched
from .cost import (
    masked_cost_matrix,
    masked_cost_matrix_tensor,
    squared_euclidean_cost,
    squared_euclidean_cost_tensor,
)
from .divergence import (
    MaskingSinkhornLoss,
    chunked_masking_sinkhorn_divergence,
    masking_sinkhorn_divergence,
    sinkhorn_divergence,
)
from .exact import exact_ot
from .sinkhorn import (
    SinkhornConfig,
    SinkhornResult,
    entropy,
    regularized_ot_value,
    sinkhorn,
)

__all__ = [
    "squared_euclidean_cost",
    "masked_cost_matrix",
    "squared_euclidean_cost_tensor",
    "masked_cost_matrix_tensor",
    "exact_ot",
    "sinkhorn",
    "sinkhorn_batched",
    "SinkhornConfig",
    "SinkhornResult",
    "BatchedSinkhornResult",
    "entropy",
    "regularized_ot_value",
    "sinkhorn_divergence",
    "masking_sinkhorn_divergence",
    "chunked_masking_sinkhorn_divergence",
    "MaskingSinkhornLoss",
]
