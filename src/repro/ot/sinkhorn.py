"""Stabilised Sinkhorn iterations for entropic optimal transport.

Implements the solver behind Definition 3 of the paper: the masking
regularised optimal transport metric

    OT_λ(ν, μ) = min_P <P, C> + λ Σ_ij p_ij log p_ij

over the transport polytope with uniform marginals.  The duals are kept in
the log domain and the sweeps run in log-stabilised scaling form, which is
numerically stable for the small regularisation weights probed by the
ablation benches; the returned plan is exact to ``tol`` in marginal
violation.

Solver knobs live in :class:`SinkhornConfig`, shared verbatim by the
batched solver (:func:`repro.ot.sinkhorn_batched`) so the loop and stacked
paths cannot drift apart in configuration.  The old positional
``sinkhorn(cost, reg, ...)`` form still works for one release behind a
``DeprecationWarning``.

:func:`sinkhorn` runs the stacked solver's sweep kernel
(:mod:`repro.ot.batched`) as a one-problem stack: one log-domain sweep
through :func:`repro.tensor.ops.logsumexp`, then two matrix–vector
products per sweep on the active tensor backend
(:mod:`repro.tensor.backend`), with the convergence check read from the
same products.

The solver exposes its dual potentials so callers can warm-start: a DIM
training loop solves a near-identical problem for the same batch every
epoch, and reusing the previous epoch's ``(f, g)`` as the initial point
cuts the iteration count by an order of magnitude once training settles
(the same trick Muzellec et al. use for OT imputation).  Warm starts are
a pure acceleration — the fixed point, and therefore the returned plan,
is still converged to ``tol``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..obs import get_recorder

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


_LEGACY_KNOBS = ("reg", "max_iter", "tol")


def _coerce_config(config, legacy: dict, caller: str) -> SinkhornConfig:
    """Resolve the ``config`` argument plus any legacy knob kwargs.

    New form: ``caller(..., config=SinkhornConfig(reg=...))``.
    Old form: ``caller(..., reg, max_iter=..., tol=...)`` — accepted for one
    release with a :class:`DeprecationWarning` (``config`` receives the old
    positional ``reg`` when callers passed it positionally).
    """
    if isinstance(config, SinkhornConfig):
        if legacy:
            raise TypeError(
                f"{caller}() got both a SinkhornConfig and legacy solver "
                f"kwargs {sorted(legacy)}; move them into the config"
            )
        return config
    knobs = dict(legacy)
    if config is not None:
        if "reg" in knobs:
            raise TypeError(f"{caller}() got multiple values for 'reg'")
        knobs["reg"] = config
    unknown = set(knobs) - set(_LEGACY_KNOBS)
    if unknown:
        raise TypeError(
            f"{caller}() got unexpected keyword arguments {sorted(unknown)}"
        )
    if "reg" not in knobs:
        raise TypeError(
            f"{caller}() needs a SinkhornConfig, e.g. "
            f"{caller}(..., config=SinkhornConfig(reg=0.1))"
        )
    warnings.warn(
        f"passing reg/max_iter/tol to {caller}() directly is deprecated and "
        f"will be removed in the next release; pass "
        f"config=SinkhornConfig(reg=..., max_iter=..., tol=...) instead",
        DeprecationWarning,
        stacklevel=3,
    )
    return SinkhornConfig(**knobs)


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
    config: Optional[SinkhornConfig] = None,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    init: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    **legacy,
) -> SinkhornResult:
    """Solve entropic OT with stabilised Sinkhorn sweeps.

    Parameters
    ----------
    cost:
        ``(n, m)`` cost matrix.
    config:
        :class:`SinkhornConfig` with the solver knobs (``reg``,
        ``max_iter``, ``tol``).  The pre-redesign form —
        ``sinkhorn(cost, reg, max_iter=..., tol=...)`` — is still accepted
        for one release and warns ``DeprecationWarning``.
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
    """
    cfg = _coerce_config(config, legacy, "sinkhorn")
    reg, max_iter, tol = cfg.reg, cfg.max_iter, cfg.tol
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    n, m = cost.shape
    if a is None:
        a = np.full(n, 1.0 / n)
    if b is None:
        b = np.full(m, 1.0 / m)
    a = _validate_marginal("a", a, n)
    b = _validate_marginal("b", b, m)
    # Dual potentials (scaled by 1/reg): plan = exp(f + g - C/reg).
    neg_cost = -cost / reg
    warm_started = init is not None
    if warm_started:
        f0, g0 = init
        f = np.asarray(f0, dtype=np.float64).copy()
        g = np.asarray(g0, dtype=np.float64).copy()
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
    else:
        f = np.zeros(n)
        g = np.zeros(m)
    # The stacked solver's sweep kernel, run as a one-problem stack; the
    # import is deferred because that module builds on this one.
    from .batched import _sweep_stack

    iterations, converged, absorptions = _sweep_stack(
        neg_cost[None], a[None], b[None], f[None], g[None], max_iter, tol
    )
    iteration, converged = int(iterations[0]), bool(converged[0])
    plan = np.exp(neg_cost + f[:, None] + g[None, :])
    value = regularized_ot_value(plan, cost, reg)
    violation = float(
        np.abs(plan.sum(axis=1) - a).sum() + np.abs(plan.sum(axis=0) - b).sum()
    )
    recorder = get_recorder()
    if recorder.enabled:
        recorder.inc("sinkhorn.solves")
        recorder.inc("sinkhorn.loop_solves")
        if not converged:
            recorder.inc("sinkhorn.nonconverged")
        if not (np.isfinite(value) and np.isfinite(violation)):
            # Overflowed potentials (tiny reg / huge costs) — the watchdog's
            # structured breadcrumb for a poisoned MS loss.
            recorder.inc("health.issues")
            recorder.emit(
                "health.sinkhorn_nonfinite",
                value=float(value),
                marginal_violation=violation,
                reg=reg,
                n=n,
                m=m,
            )
        recorder.observe("sinkhorn.iterations", float(iteration))
        if warm_started:
            recorder.inc("sinkhorn.warm_starts")
            recorder.observe("sinkhorn.warm_iterations", float(iteration))
        if absorptions:
            recorder.inc("sinkhorn.absorptions", float(absorptions))
        recorder.observe("sinkhorn.marginal_violation", violation)
        recorder.emit(
            "sinkhorn.solve",
            n=n,
            m=m,
            reg=reg,
            iterations=iteration,
            converged=converged,
            marginal_violation=violation,
            warm_started=warm_started,
        )
    return SinkhornResult(
        plan=plan,
        value=value,
        transport_cost=float((plan * cost).sum()),
        iterations=iteration,
        converged=converged,
        marginal_violation=violation,
        f=f,
        g=g,
    )
