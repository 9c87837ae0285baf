"""Stabilised Sinkhorn iterations for entropic optimal transport.

Implements the solver behind Definition 3 of the paper: the masking
regularised optimal transport metric

    OT_λ(ν, μ) = min_P <P, C> + λ Σ_ij p_ij log p_ij

over the transport polytope with uniform marginals.  The duals are kept in
the log domain and the sweeps run in log-stabilised scaling form, which is
numerically stable for the small regularisation weights probed by the
ablation benches; the returned plan is exact to ``tol`` in marginal
violation.

Solver knobs live in :class:`SinkhornConfig`, the one required
configuration argument of every solver entry point.  :func:`sinkhorn` is
the one-problem case of the stacked solver (:mod:`repro.ot.batched`): it
checks its 2-D inputs and returns ``sinkhorn_batched(cost[None],
...).problem(0)``, so there is one sweep kernel, one result assembly and
one telemetry contract.

The solver exposes its dual potentials so callers can warm-start: a DIM
training loop solves a near-identical problem for the same batch every
epoch, and reusing the previous epoch's ``(f, g)`` as the initial point
cuts the iteration count by an order of magnitude once training settles
(the same trick Muzellec et al. use for OT imputation).  Warm starts are
a pure acceleration — the fixed point, and therefore the returned plan,
is still converged to ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SinkhornConfig",
    "SinkhornResult",
    "sinkhorn",
    "regularized_ot_value",
    "entropy",
]


@dataclass(frozen=True, kw_only=True)
class SinkhornConfig:
    """Solver configuration shared by ``sinkhorn`` and ``sinkhorn_batched``.

    Keyword-only by design: the old grown positional knob list is exactly
    what this dataclass replaces.

    Attributes
    ----------
    reg:
        Entropic regularisation weight ``λ > 0``.
    max_iter:
        Maximum number of dual sweeps.
    tol:
        L1 marginal-violation tolerance for convergence.
    """

    reg: float
    max_iter: int = 500
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (np.isfinite(self.reg) and self.reg > 0.0):
            raise ValueError(
                f"entropic regulariser must be positive, got {self.reg}"
            )
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class SinkhornResult:
    """Output of the Sinkhorn solver.

    Attributes
    ----------
    plan:
        Optimal transport plan ``P*`` (n, m).
    value:
        The regularised objective ``<P*, C> + λ Σ p log p`` (Definition 3).
    transport_cost:
        The linear part ``<P*, C>`` alone.
    iterations:
        Number of Sinkhorn sweeps performed.
    converged:
        Whether the marginal violation dropped below tolerance.
    marginal_violation:
        L1 marginal violation of the returned plan,
        ``Σ_i |Σ_j P_ij − a_i| + Σ_j |Σ_i P_ij − b_j|``.  On a converged
        run this is below ``tol``; on a non-converged run it tells a
        near-miss (violation barely above ``tol``) apart from genuine
        divergence — previously the result only said ``converged=False``.
    f, g:
        Final dual potentials (scaled by 1/λ), satisfying
        ``plan = exp(f[:, None] + g[None, :] - C/λ)``.  Feed them back as
        ``init=(f, g)`` to warm-start a subsequent solve of a nearby
        problem.
    """

    plan: np.ndarray
    value: float
    transport_cost: float
    iterations: int
    converged: bool
    marginal_violation: float
    f: np.ndarray
    g: np.ndarray


def entropy(plan: np.ndarray, eps: float = 1e-300) -> float:
    """Negative entropy ``Σ p log p`` with the ``0 log 0 = 0`` convention."""
    plan = np.asarray(plan)
    positive = plan[plan > eps]
    return float((positive * np.log(positive)).sum())


def regularized_ot_value(plan: np.ndarray, cost: np.ndarray, reg: float) -> float:
    """Evaluate Definition 3's objective at a given plan."""
    return float((plan * cost).sum()) + reg * entropy(plan)


def _validate_marginal(name: str, weights: np.ndarray, expected: int) -> np.ndarray:
    """A marginal must be a strictly positive, finite vector of the right size.

    Zero or negative entries would flow through ``np.log`` into ``-inf``/NaN
    potentials and could yield a NaN plan wrapped in a finite-looking
    :class:`SinkhornResult`, so they are rejected up front with the offending
    index named.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size != expected:
        raise ValueError(
            f"marginal {name!r} must be a 1-D vector of length {expected} "
            f"matching the cost matrix, got shape {weights.shape}"
        )
    valid = np.isfinite(weights) & (weights > 0.0)
    if not valid.all():
        index = int(np.argmin(valid))
        raise ValueError(
            f"marginal {name!r} must be strictly positive and finite "
            f"(the log-domain solver takes its log): {name}[{index}] = "
            f"{weights[index]}"
        )
    return weights


def sinkhorn(
    cost: np.ndarray,
    config: SinkhornConfig,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    init: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> SinkhornResult:
    """Solve one entropic OT problem: a one-problem :func:`sinkhorn_batched`.

    Parameters
    ----------
    cost:
        ``(n, m)`` cost matrix.
    config:
        :class:`SinkhornConfig` with the solver knobs (``reg``,
        ``max_iter``, ``tol``).  Anything else raises ``TypeError``.
    a, b:
        Marginals (default uniform).  Must be strictly positive and match
        the cost matrix's shape; degenerate marginals raise ``ValueError``.
    init:
        Optional ``(f, g)`` dual potentials (e.g. from a previous
        :class:`SinkhornResult` on a nearby problem) used as the starting
        point instead of zeros.  The solver still iterates to ``tol``, so
        a warm start changes the iteration count, not the answer.  Both
        duals must be finite; a NaN or infinite entry raises
        ``ValueError`` naming its index.

    The inputs are checked here, in 2-D terms, then solved as
    ``sinkhorn_batched(cost[None], ...).problem(0)``, so a call emits the
    stacked solver's telemetry: one ``sinkhorn.batched_solve`` with
    ``stack=1``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    n, m = cost.shape
    if a is not None:
        a = _validate_marginal("a", a, n)
    if b is not None:
        b = _validate_marginal("b", b, m)
    if init is not None:
        f = np.asarray(init[0], dtype=np.float64)
        g = np.asarray(init[1], dtype=np.float64)
        if f.shape != (n,) or g.shape != (m,):
            raise ValueError(
                f"init duals must have shapes ({n},) and ({m},), got "
                f"{f.shape} and {g.shape}"
            )
        for name, dual in (("f", f), ("g", g)):
            finite = np.isfinite(dual)
            if not finite.all():
                index = int(np.argmin(finite))
                raise ValueError(
                    f"init dual {name!r} must be finite: {name}[{index}] = "
                    f"{dual[index]}"
                )
        init = (f[None], g[None])
    # Deferred: repro.ot.batched builds on this module's types.
    from .batched import sinkhorn_batched

    return sinkhorn_batched(cost[None], config, a=a, b=b, init=init).problem(0)
