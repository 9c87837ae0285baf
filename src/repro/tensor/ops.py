"""Differentiable elementary operations for :class:`repro.tensor.Tensor`.

Every function takes tensors (or array-likes, which are coerced), computes the
forward value through the active :mod:`tensor backend <repro.tensor.backend>`,
and registers a backward closure that maps the output gradient to a tuple of
parent gradients (``None`` for parents that do not require grad, though
returning a gradient anyway is harmless).

Backend contract (``docs/backends.md``): forward kernels dispatch through
:func:`repro.tensor.backend.get_backend` and convert back to NumPy, so the
tape — ``Tensor.data``/``Tensor.grad`` — stays host-side ndarray regardless
of backend.  Operator arithmetic (``+``, ``*``, ``@`` operands) and backward
closures run on those NumPy buffers directly; fancy-index scatter
(``getitem``'s backward) and dropout RNG are NumPy-only by design.
"""

from __future__ import annotations

import builtins
import functools
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs.profiler import get_op_profiler
from .backend import get_backend
from .tensor import ArrayLike, Tensor, _unbroadcast, as_tensor

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow",
    "matmul",
    "exp",
    "log",
    "sqrt",
    "abs",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "softplus",
    "softmax",
    "log_softmax",
    "logsumexp",
    "clip",
    "sum",
    "mean",
    "max",
    "reshape",
    "transpose",
    "concat",
    "getitem",
    "where",
    "dropout_mask",
]

_EPS = 1e-12


def _np(value) -> np.ndarray:
    """Bring a backend-native result back onto the NumPy tape."""
    return get_backend().to_numpy(value)


# ----------------------------------------------------------------------
# Binary arithmetic
# ----------------------------------------------------------------------
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise sum with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray):
        return (_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape))

    return a._make_child(out_data, (a, b), backward)


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise difference ``a - b``."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray):
        return (_unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape))

    return a._make_child(out_data, (a, b), backward)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise (Hadamard) product."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad * b.data, a.shape),
            _unbroadcast(grad * a.data, b.shape),
        )

    return a._make_child(out_data, (a, b), backward)


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise quotient ``a / b``."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad / b.data, a.shape),
            _unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return a._make_child(out_data, (a, b), backward)


def neg(a: ArrayLike) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(grad: np.ndarray):
        return (-grad,)

    return a._make_child(-a.data, (a,), backward)


def pow(a: ArrayLike, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(grad: np.ndarray):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return a._make_child(out_data, (a,), backward)


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix / vector product with the full ``@`` shape semantics."""
    a, b = as_tensor(a), as_tensor(b)
    bk = get_backend()
    out_data = _np(bk.matmul(a.data, b.data))

    def backward(grad: np.ndarray):
        if a.ndim == 1 and b.ndim == 1:  # inner product -> scalar
            return (grad * b.data, grad * a.data)
        if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
            return (grad @ b.data.T, np.outer(a.data, grad))
        if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
            return (np.outer(grad, b.data), a.data.T @ grad)
        return (grad @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ grad)

    return a._make_child(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Elementwise nonlinearities
# ----------------------------------------------------------------------
def exp(a: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = _np(get_backend().exp(a.data))

    def backward(grad: np.ndarray):
        return (grad * out_data,)

    return a._make_child(out_data, (a,), backward)


def log(a: ArrayLike) -> Tensor:
    """Elementwise natural log (inputs clamped away from zero)."""
    a = as_tensor(a)
    bk = get_backend()
    out_data = _np(bk.log(bk.maximum(a.data, _EPS)))

    def backward(grad: np.ndarray):
        return (grad / np.maximum(a.data, _EPS),)

    return a._make_child(out_data, (a,), backward)


def sqrt(a: ArrayLike) -> Tensor:
    """Elementwise square root (negative inputs clamp to zero)."""
    a = as_tensor(a)
    bk = get_backend()
    out_data = _np(bk.sqrt(bk.maximum(a.data, 0.0)))

    def backward(grad: np.ndarray):
        return (grad * 0.5 / np.maximum(out_data, _EPS),)

    return a._make_child(out_data, (a,), backward)


def abs(a: ArrayLike) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    a = as_tensor(a)
    out_data = _np(get_backend().abs(a.data))

    def backward(grad: np.ndarray):
        return (grad * np.sign(a.data),)

    return a._make_child(out_data, (a,), backward)


def tanh(a: ArrayLike) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    out_data = _np(get_backend().tanh(a.data))

    def backward(grad: np.ndarray):
        return (grad * (1.0 - out_data**2),)

    return a._make_child(out_data, (a,), backward)


def sigmoid(a: ArrayLike) -> Tensor:
    """Elementwise logistic sigmoid."""
    a = as_tensor(a)
    bk = get_backend()
    out_data = 1.0 / (1.0 + _np(bk.exp(-a.data)))

    def backward(grad: np.ndarray):
        return (grad * out_data * (1.0 - out_data),)

    return a._make_child(out_data, (a,), backward)


def relu(a: ArrayLike) -> Tensor:
    """Elementwise rectifier ``max(a, 0)``."""
    a = as_tensor(a)
    out_data = _np(get_backend().maximum(a.data, 0.0))

    def backward(grad: np.ndarray):
        return (grad * (a.data > 0.0),)

    return a._make_child(out_data, (a,), backward)


def leaky_relu(a: ArrayLike, slope: float = 0.01) -> Tensor:
    """Rectifier with a small negative-side slope."""
    a = as_tensor(a)
    bk = get_backend()
    out_data = _np(bk.where(a.data > 0.0, a.data, slope * a.data))

    def backward(grad: np.ndarray):
        return (grad * np.where(a.data > 0.0, 1.0, slope),)

    return a._make_child(out_data, (a,), backward)


def softplus(a: ArrayLike) -> Tensor:
    """Smooth rectifier ``log(1 + e^a)``."""
    a = as_tensor(a)
    bk = get_backend()
    # Numerically stable: log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}).
    out_data = _np(bk.maximum(a.data, 0.0)) + _np(bk.log1p(bk.exp(-np.fabs(a.data))))

    def backward(grad: np.ndarray):
        return (grad / (1.0 + np.exp(-a.data)),)

    return a._make_child(out_data, (a,), backward)


def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Shift-stabilised softmax along ``axis``."""
    a = as_tensor(a)
    bk = get_backend()
    shifted = a.data - _np(bk.max(a.data, axis=axis, keepdims=True))
    exps = _np(bk.exp(shifted))
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return a._make_child(out_data, (a,), backward)


def log_softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(a))``."""
    a = as_tensor(a)
    bk = get_backend()
    out_data = a.data - _np(bk.logsumexp(a.data, axis=axis, keepdims=True))
    soft = np.exp(out_data)

    def backward(grad: np.ndarray):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return a._make_child(out_data, (a,), backward)


def logsumexp(a: ArrayLike, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    """Shift-stabilised ``log Σ exp`` reduction along ``axis``.

    The Sinkhorn solvers in ``repro.ot`` call it for their log-domain
    half-sweeps: the first sweep of every solve, and any half-sweep redone
    after a scaling underflows.  The sweeps in between are backend
    ``matmul`` matrix–vector products.  The gradient is the softmax of the
    inputs.
    """
    a = as_tensor(a)
    bk = get_backend()
    out_data = _np(bk.logsumexp(a.data, axis=axis, keepdims=keepdims))

    def backward(grad: np.ndarray):
        lse = out_data
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            lse = np.expand_dims(lse, axis=axis)
            g = np.expand_dims(g, axis=axis)
        return (g * np.exp(a.data - lse),)

    return a._make_child(out_data, (a,), backward)


def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values; gradient flows only through the un-clipped region."""
    a = as_tensor(a)
    out_data = _np(get_backend().clip(a.data, low, high))

    def backward(grad: np.ndarray):
        mask = (a.data >= low) & (a.data <= high)
        return (grad * mask,)

    return a._make_child(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def sum(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Sum reduction over ``axis`` (all elements when ``None``)."""
    a = as_tensor(a)
    out_data = _np(get_backend().sum(a.data, axis=axis, keepdims=keepdims))

    def backward(grad: np.ndarray):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axis=tuple(ax % a.ndim for ax in axes))
        return (np.broadcast_to(g, a.shape).copy(),)

    return a._make_child(out_data, (a,), backward)


def mean(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction over ``axis``."""
    a = as_tensor(a)
    out_data = _np(get_backend().mean(a.data, axis=axis, keepdims=keepdims))
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def backward(grad: np.ndarray):
        g = np.asarray(grad) / count
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axis=tuple(ax % a.ndim for ax in axes))
        return (np.broadcast_to(g, a.shape).copy(),)

    return a._make_child(out_data, (a,), backward)


def max(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; ties split gradient evenly among argmax entries."""
    a = as_tensor(a)
    out_data = _np(get_backend().max(a.data, axis=axis, keepdims=keepdims))

    def backward(grad: np.ndarray):
        expanded = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == expanded).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axis=tuple(ax % a.ndim for ax in axes))
        return (mask * g,)

    return a._make_child(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """View with a new shape (same number of elements)."""
    a = as_tensor(a)
    out_data = _np(get_backend().reshape(a.data, shape))

    def backward(grad: np.ndarray):
        return (grad.reshape(a.shape),)

    return a._make_child(out_data, (a,), backward)


def transpose(a: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Axis permutation (full reversal when ``axes`` is ``None``)."""
    a = as_tensor(a)
    out_data = _np(get_backend().transpose(a.data, axes))

    def backward(grad: np.ndarray):
        if axes is None:
            return (grad.transpose(),)
        inverse = np.argsort(axes)
        return (grad.transpose(inverse),)

    return a._make_child(out_data, (a,), backward)


def concat(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; gradients split back per input."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = _np(get_backend().concat([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        pieces = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            index = [builtins.slice(None)] * grad.ndim
            index[axis] = builtins.slice(int(start), int(stop))
            pieces.append(grad[tuple(index)])
        return tuple(pieces)

    return tensors[0]._make_child(out_data, tensors, backward)


def getitem(a: ArrayLike, index) -> Tensor:
    """Indexing/slicing; repeated fancy indices accumulate gradients.

    NumPy-only (not backend-dispatched): the backward pass is a fancy-index
    scatter (``np.add.at``) with no array-API equivalent.
    """
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return (full,)

    return a._make_child(out_data, (a,), backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select from ``a`` where ``condition`` is true, else ``b``.

    The condition is a constant boolean array (not differentiated).
    """
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = _np(get_backend().where(cond, a.data, b.data))

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad * cond, a.shape),
            _unbroadcast(grad * ~cond, b.shape),
        )

    return a._make_child(out_data, (a, b), backward)


def dropout_mask(shape: Tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """Sample an inverted-dropout mask: zeros with probability ``rate``.

    Kept separate from the tape (and from the backend — RNG is host-side);
    multiply a tensor by the returned constant array to apply dropout.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


# ----------------------------------------------------------------------
# Op-level profiling hooks (repro.obs.profiler)
# ----------------------------------------------------------------------
_OP_PROFILER = get_op_profiler()  # process-wide singleton, bound once


def _profiled(fn, name: str):
    """Wrap an op: time the forward and tag the output for backward timing.

    The disabled path is one attribute read (`enabled`) on top of the call
    itself — the same overhead contract as `recorder.enabled` sites.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _OP_PROFILER.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        _OP_PROFILER.record_forward(name, time.perf_counter() - start, out.data.nbytes)
        out._op = name
        return out

    return wrapper


for _name in __all__:
    if _name == "dropout_mask":  # returns a plain ndarray, not a tape op
        continue
    globals()[_name] = _profiled(globals()[_name], _name)
del _name
