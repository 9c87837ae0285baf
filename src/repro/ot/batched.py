"""Batched Sinkhorn over a stacked 3-D cost tensor.

The paper's scalability claim rests on GPU-batched Sinkhorn iterations; a
DIM step needs the cross and self-term plans for a batch, and solving them
one ``(n, m)`` problem at a time serialises the sweeps.
:func:`sinkhorn_batched` stacks ``B`` problems into one ``(B, n, m)`` cost
tensor and runs every dual sweep over the whole stack.

The sweep is the log-stabilised scaling form of Sinkhorn (the
"absorption" variant).  Sweep 1 is the log-domain update

    f_k = log a_k − logsumexp(−C_k/λ + g_k[None, :], axis over m)
    g_k = log b_k − logsumexp(−C_k/λ + f_k[:, None], axis over n)

from ``init`` (or zeros).  It fixes the stabilised kernel
``K_k = exp(−C_k/λ + f_k ⊕ g_k)``, whose columns sum to ``b_k``, and every
later sweep is two backend ``matmul`` matrix–vector products over the
stack, ``u = a / (K v)`` and ``v = b / (Kᵀ u)``.  The duals
``(f + log u, g + log v)`` are exactly the log-domain iterates, so the
solve converges in the same sweeps to the same plan, up to rounding.
The convergence check is the plan's L1 marginal violation read from those
products: ``K v`` is also the next sweep's product, so the check costs no
pass over the stack.  A problem whose scalings leave ``[e^-30, e^30]``
has them absorbed into its duals and its kernel rebuilt (counted as
``sinkhorn.absorptions``); if a scaling is zero or non-finite, that
half-sweep is redone in the log domain.

:func:`repro.ot.sinkhorn` is this solver's one-problem case: it checks its
2-D inputs and returns ``sinkhorn_batched(cost[None], ...).problem(0)``.
Every decision in the kernel (convergence, freezing, absorption) is taken
per problem, so a problem's arithmetic does not depend on the rest of its
stack: the parity tests find a stacked solve bit-identical on NumPy to
one-problem solves of its slices, even when problems in one stack converge
at different times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..obs import get_recorder
from ..tensor import get_backend, ops
from .sinkhorn import SinkhornConfig, SinkhornResult, regularized_ot_value

__all__ = ["BatchedSinkhornResult", "sinkhorn_batched"]


@dataclass(frozen=True)
class BatchedSinkhornResult:
    """Per-problem outputs of a stacked Sinkhorn solve.

    Every field is the batched analogue of the :class:`SinkhornResult`
    field of the same name, with a leading problem axis ``B``:
    ``plan`` is ``(B, n, m)``; ``value``, ``transport_cost``,
    ``marginal_violation`` are ``(B,)`` floats; ``iterations`` is ``(B,)``
    ints; ``converged`` is ``(B,)`` bools; ``f``/``g`` are ``(B, n)`` /
    ``(B, m)`` dual potentials, reusable as ``init`` for the next stacked
    solve of nearby problems.
    """

    plan: np.ndarray
    value: np.ndarray
    transport_cost: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    marginal_violation: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def __len__(self) -> int:
        return self.plan.shape[0]

    def problem(self, k: int) -> SinkhornResult:
        """Unstack problem ``k`` as a plain :class:`SinkhornResult`."""
        return SinkhornResult(
            plan=self.plan[k],
            value=float(self.value[k]),
            transport_cost=float(self.transport_cost[k]),
            iterations=int(self.iterations[k]),
            converged=bool(self.converged[k]),
            marginal_violation=float(self.marginal_violation[k]),
            f=self.f[k],
            g=self.g[k],
        )


def _validate_stacked_marginal(
    name: str, weights: Optional[np.ndarray], batch: int, expected: int
) -> np.ndarray:
    """Coerce a marginal spec to a strictly positive ``(B, size)`` array.

    Accepts ``None`` (uniform), a shared ``(size,)`` vector, or a
    per-problem ``(B, size)`` matrix; rejects non-positive or non-finite
    entries naming the offending problem and index.
    """
    if weights is None:
        return np.full((batch, expected), 1.0 / expected)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim == 1 and weights.size == expected:
        weights = np.broadcast_to(weights, (batch, expected)).copy()
    if weights.shape != (batch, expected):
        raise ValueError(
            f"marginal {name!r} must have shape ({expected},) or "
            f"({batch}, {expected}) matching the stacked cost, got shape "
            f"{weights.shape}"
        )
    valid = np.isfinite(weights) & (weights > 0.0)
    if not valid.all():
        k, index = np.unravel_index(int(np.argmin(valid)), weights.shape)
        raise ValueError(
            f"marginal {name!r} must be strictly positive and finite "
            f"(the log-domain solver takes its log): {name}[{k}][{index}] = "
            f"{weights[k, index]}"
        )
    return weights


def _validate_stacked_duals(
    init: Tuple[np.ndarray, np.ndarray], batch: int, n: int, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Copy warm-start duals, rejecting wrong shapes and non-finite entries.

    A NaN dual would poison its problem for every sweep and come back as a
    NaN plan and value, so it is refused up front with the offending
    problem and index named.
    """
    f0, g0 = init
    f = np.asarray(f0, dtype=np.float64).copy()
    g = np.asarray(g0, dtype=np.float64).copy()
    if f.shape != (batch, n) or g.shape != (batch, m):
        raise ValueError(
            f"init duals must have shapes ({batch}, {n}) and "
            f"({batch}, {m}), got {f.shape} and {g.shape}"
        )
    for name, dual in (("f", f), ("g", g)):
        finite = np.isfinite(dual)
        if not finite.all():
            k, index = np.unravel_index(int(np.argmin(finite)), dual.shape)
            raise ValueError(
                f"init dual {name!r} must be finite: {name}[{k}][{index}] = "
                f"{dual[k, index]}"
            )
    return f, g


def _logsumexp(stack: np.ndarray, axis: int) -> np.ndarray:
    """Backend-dispatched, profiler-visible logsumexp over the stack."""
    return ops.logsumexp(stack, axis=axis).data


# A problem is re-stabilised once one of its scalings leaves
# [e^-30, e^30]: its log scalings move into the duals and its kernel is
# rebuilt, so K v and Kᵀ u stay far from overflow and underflow.
_SCALING_LOW = math.exp(-30.0)
_SCALING_HIGH = math.exp(30.0)


def _out_of_range(scaling: np.ndarray) -> Optional[np.ndarray]:
    """Mask of problems with a scaling outside the stable range, else None.

    NaN fails both comparisons, so a NaN scaling counts as out of range.
    """
    if scaling.min() >= _SCALING_LOW and scaling.max() <= _SCALING_HIGH:
        return None
    return ~((scaling >= _SCALING_LOW) & (scaling <= _SCALING_HIGH)).all(axis=1)


def _restabilise(bad, side, neg_cost, log_a, log_b, f, g, u, v) -> np.ndarray:
    """Absorb the scalings of problems ``bad`` into their duals.

    ``f``/``g`` take ``log u``/``log v`` and ``u``/``v`` are reset to 1, in
    place.  Where the side just updated (``"f"`` for ``u``, ``"g"`` for
    ``v``) has a zero, infinite or NaN scaling, that half-sweep is redone
    in the log domain instead.  Returns the problems' rebuilt kernels.
    """
    nc = neg_cost[bad]
    f_bad = f[bad] + np.log(u[bad])
    g_bad = g[bad] + np.log(v[bad])
    if side == "f":
        redo = ~np.isfinite(f_bad).all(axis=1)
        if redo.any():
            f_bad[redo] = log_a[bad][redo] - _logsumexp(
                nc[redo] + g_bad[redo][:, None, :], axis=2
            )
    else:
        redo = ~np.isfinite(g_bad).all(axis=1)
        if redo.any():
            g_bad[redo] = log_b[bad][redo] - _logsumexp(
                nc[redo] + f_bad[redo][:, :, None], axis=1
            )
    f[bad] = f_bad
    g[bad] = g_bad
    u[bad] = 1.0
    v[bad] = 1.0
    return np.exp(nc + f_bad[:, :, None] + g_bad[:, None, :])


# A scaling that divides by zero or overflows is expected: it marks its
# half-sweep for a log-domain redo.
@np.errstate(divide="ignore", over="ignore")
def _sweep_stack(
    neg_cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    f: np.ndarray,
    g: np.ndarray,
    max_iter: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Run the Sinkhorn sweeps of a ``(B, n, m)`` stack, updating ``f``/``g``.

    Sweep 1 is the log-domain update from the given duals.  Every later
    sweep is the same update in scaling form on the stabilised kernel
    ``K = exp(−C/λ + f ⊕ g)``: ``u = a / (K v)``, ``v = b / (Kᵀ u)``, two
    backend ``matmul`` matrix–vector products.  The duals ``(f + log u,
    g + log v)`` are the log-domain iterates, so iteration counts and
    plans match the log-domain loop up to rounding.  The convergence check
    is the plan's L1 marginal violation, ``Σ|u ⊙ K v − a| + Σ|v ⊙ Kᵀ u −
    b|``; its ``K v`` is the next sweep's product, so checking is free.

    A problem whose violation drops below ``tol`` has its duals frozen and
    leaves the working stack.  Every decision is per problem, so a
    problem's arithmetic does not depend on the rest of its stack.
    Returns ``(iterations, converged, absorptions)``.
    """
    bk = get_backend()

    def matvec(kernel, x):  # K x over the stack: (B, n, m), (B, m) -> (B, n)
        return bk.to_numpy(bk.matmul(kernel, x[:, :, None]))[:, :, 0]

    def rmatvec(kernel, y):  # Kᵀ y over the stack: (B, n, m), (B, n) -> (B, m)
        return bk.to_numpy(bk.matmul(y[:, None, :], kernel))[:, 0, :]

    batch = neg_cost.shape[0]
    iterations = np.full(batch, max_iter, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    absorptions = 0

    # Active-set iteration: problems leave the working stack the sweep
    # they converge, so total work tracks sum-of-iterations (like B
    # one-problem solves) instead of max-iterations × B.
    alive = np.arange(batch)  # indices into the original stack
    nc, la, lb, a_, b_ = neg_cost, np.log(a), np.log(b), a, b
    f_ = la - _logsumexp(nc + g[:, None, :], axis=2)
    g_ = lb - _logsumexp(nc + f_[:, :, None], axis=1)
    kernel = np.exp(nc + f_[:, :, None] + g_[:, None, :])
    u = np.ones_like(f_)
    v = np.ones_like(g_)
    r = matvec(kernel, v)
    c = rmatvec(kernel, u)
    for sweep in range(1, max_iter + 1):
        if sweep > 1:
            u = a_ / r
            bad = _out_of_range(u)
            if bad is not None:
                absorptions += int(bad.sum())
                kernel[bad] = _restabilise(bad, "f", nc, la, lb, f_, g_, u, v)
            c = rmatvec(kernel, u)
            v = b_ / c
            bad = _out_of_range(v)
            if bad is not None:
                absorptions += int(bad.sum())
                kernel[bad] = _restabilise(bad, "g", nc, la, lb, f_, g_, u, v)
                c[bad] = rmatvec(kernel[bad], u[bad])
            r = matvec(kernel, v)
        violation = np.abs(u * r - a_).sum(axis=1) + np.abs(v * c - b_).sum(axis=1)
        if violation.min() < tol:
            done = violation < tol
            frozen = alive[done]
            f[frozen] = f_[done] + np.log(u[done])
            g[frozen] = g_[done] + np.log(v[done])
            iterations[frozen] = sweep
            converged[frozen] = True
            keep = ~done
            if not keep.any():
                return iterations, converged, absorptions
            alive = alive[keep]
            nc, la, lb, a_, b_ = nc[keep], la[keep], lb[keep], a_[keep], b_[keep]
            f_, g_, kernel = f_[keep], g_[keep], kernel[keep]
            u, v, r, c = u[keep], v[keep], r[keep], c[keep]
    f[alive] = f_ + np.log(u)
    g[alive] = g_ + np.log(v)
    return iterations, converged, absorptions


def sinkhorn_batched(
    cost: np.ndarray,
    config: SinkhornConfig,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    init: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> BatchedSinkhornResult:
    """Solve ``B`` entropic OT problems as one stacked Sinkhorn iteration.

    Parameters
    ----------
    cost:
        ``(B, n, m)`` stacked cost tensor — one ``(n, m)`` problem per
        leading index.
    config:
        :class:`SinkhornConfig` with the solver knobs.  Every solver entry
        point reaches this check, so anything else (a bare ``reg`` float,
        say) raises ``TypeError`` here.
    a, b:
        Marginals: ``None`` (uniform), a shared ``(n,)``/``(m,)`` vector,
        or per-problem ``(B, n)``/``(B, m)`` matrices.  Must be strictly
        positive; violations name the offending problem and index.
    init:
        Optional stacked duals ``(f, g)`` of shapes ``(B, n)``/``(B, m)``
        (e.g. from a previous :class:`BatchedSinkhornResult` on nearby
        problems) used as the starting point instead of zeros.  Must be
        finite; a NaN or infinite entry names the offending problem and
        index.

    Convergence is tracked per problem: a problem whose L1 marginal
    violation drops below ``tol`` has its duals frozen from that sweep on
    (exactly where a one-problem solve would have stopped), while the rest
    of the stack keeps iterating; the solve ends when every problem has
    converged or ``max_iter`` is reached.
    """
    if not isinstance(config, SinkhornConfig):
        raise TypeError(
            f"config must be a SinkhornConfig, e.g. SinkhornConfig(reg=...), "
            f"got {config!r}"
        )
    reg, max_iter, tol = config.reg, config.max_iter, config.tol
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 3:
        raise ValueError(
            f"cost must be a stacked (B, n, m) tensor, got shape {cost.shape}"
        )
    batch, n, m = cost.shape
    if batch == 0:
        raise ValueError("cannot solve an empty problem stack")
    a = _validate_stacked_marginal("a", a, batch, n)
    b = _validate_stacked_marginal("b", b, batch, m)

    neg_cost = -cost / reg
    warm_started = init is not None
    if warm_started:
        f, g = _validate_stacked_duals(init, batch, n, m)
    else:
        f = np.zeros((batch, n))
        g = np.zeros((batch, m))
    iterations, converged, absorptions = _sweep_stack(
        neg_cost, a, b, f, g, max_iter, tol
    )
    plan = np.exp(neg_cost + f[:, :, None] + g[:, None, :])
    violation = (
        np.abs(plan.sum(axis=2) - a).sum(axis=1)
        + np.abs(plan.sum(axis=1) - b).sum(axis=1)
    )
    # Per-slice scalar reductions: a problem's value does not depend on the
    # rest of its stack.
    value = np.array([regularized_ot_value(plan[k], cost[k], reg) for k in range(batch)])
    transport_cost = np.array([float((plan[k] * cost[k]).sum()) for k in range(batch)])

    recorder = get_recorder()
    if recorder.enabled:
        recorder.inc("sinkhorn.solves", float(batch))
        recorder.inc("sinkhorn.batched_solves")
        recorder.inc("sinkhorn.batched_problems", float(batch))
        nonconverged = int(batch - converged.sum())
        if nonconverged:
            recorder.inc("sinkhorn.nonconverged", float(nonconverged))
            recorder.inc("sinkhorn.batched_nonconverged", float(nonconverged))
        if not (np.isfinite(value).all() and np.isfinite(violation).all()):
            bad = int(np.argmin(np.isfinite(value) & np.isfinite(violation)))
            recorder.inc("health.issues")
            recorder.emit(
                "health.sinkhorn_nonfinite",
                value=float(value[bad]),
                marginal_violation=float(violation[bad]),
                reg=reg,
                n=n,
                m=m,
                stacked=True,
                problem=bad,
            )
        recorder.observe("sinkhorn.batched_stack_size", float(batch))
        recorder.observe("sinkhorn.batched_sweeps", float(iterations.max()))
        for k in range(batch):
            recorder.observe("sinkhorn.iterations", float(iterations[k]))
            recorder.observe("sinkhorn.batched_iterations", float(iterations[k]))
            recorder.observe("sinkhorn.marginal_violation", float(violation[k]))
            if warm_started:
                recorder.observe("sinkhorn.warm_iterations", float(iterations[k]))
        if warm_started:
            recorder.inc("sinkhorn.warm_starts", float(batch))
        if absorptions:
            recorder.inc("sinkhorn.absorptions", float(absorptions))
        recorder.emit(
            "sinkhorn.batched_solve",
            stack=batch,
            n=n,
            m=m,
            reg=reg,
            sweeps=int(iterations.max()),
            iterations=int(iterations.sum()),
            converged=int(converged.sum()),
            max_marginal_violation=float(violation.max()),
            warm_started=warm_started,
        )
    return BatchedSinkhornResult(
        plan=plan,
        value=value,
        transport_cost=transport_cost,
        iterations=iterations,
        converged=converged,
        marginal_violation=violation,
        f=f,
        g=g,
    )
