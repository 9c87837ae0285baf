"""Pluggable tensor backend: the array substrate behind ``repro.tensor``.

The paper's scalability story runs batched Sinkhorn sweeps on a GPU
(PyTorch + TITAN Xp); this reproduction keeps a single autodiff graph and
swaps the *array substrate* underneath it instead.  A
:class:`TensorBackend` is a small, explicit protocol — the ~30 array
primitives that ``repro.tensor.ops`` and the Sinkhorn solvers actually
dispatch (:data:`PROTOCOL_FUNCTIONS`).  NumPy is the default and the
reference implementation; any array-API-compatible namespace
(``array_api_strict``, CuPy's array-API namespace, NumPy ≥ 2 itself)
plugs in through :class:`ArrayApiBackend` without touching the graph.

Contract (``docs/backends.md``):

* Backend methods accept NumPy arrays *and* backend-native arrays, and
  return backend-native arrays; :meth:`TensorBackend.to_numpy` is the one
  explicit exit back to host NumPy.
* The autodiff tape stays NumPy: each op in ``repro.tensor.ops`` runs its
  forward kernel on the active backend and converts the result back, so
  ``Tensor.data`` / ``Tensor.grad`` are always ``np.ndarray`` regardless
  of backend.  Hot loops that need no tape (the Sinkhorn sweep
  kernel's matrix–vector products) call backend primitives directly and
  bring each result back with :meth:`TensorBackend.to_numpy`.
* Not dispatched: fancy-index scatter (``ops.getitem``'s backward uses
  ``np.add.at``), dropout RNG, and host-side bookkeeping.  These run on
  NumPy always.

Selection: :func:`set_backend` (a backend instance, a namespace module,
or a name such as ``"numpy"`` / ``"array_api_strict"``), the
``REPRO_BACKEND`` environment variable (read once, at first use), or the
:func:`use_backend` context manager for scoped swaps in tests.
:func:`validate_backend` smoke-checks protocol conformance — every
required primitive present plus a tiny known-answer computation — and
runs automatically inside :func:`set_backend`.
"""

from __future__ import annotations

import importlib
import math
import os
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "PROTOCOL_FUNCTIONS",
    "TensorBackend",
    "NumpyBackend",
    "ArrayApiBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "validate_backend",
]

#: The explicit protocol: every backend must expose these callables.
PROTOCOL_FUNCTIONS = (
    # creation / conversion
    "asarray",
    "to_numpy",
    "zeros",
    "zeros_like",
    "ones_like",
    "full",
    # elementwise
    "exp",
    "log",
    "log1p",
    "sqrt",
    "tanh",
    "abs",
    "sign",
    "maximum",
    "where",
    "clip",
    "isfinite",
    # reductions
    "sum",
    "mean",
    "max",
    "logsumexp",
    # shape / linalg
    "reshape",
    "transpose",
    "swapaxes",
    "broadcast_to",
    "concat",
    "stack",
    "matmul",
    "outer",
)


class TensorBackend:
    """Protocol base: the primitives ``repro.tensor`` dispatches.

    Subclasses implement every name in :data:`PROTOCOL_FUNCTIONS`.
    Methods take NumPy or native arrays and return *native* arrays;
    :meth:`to_numpy` converts back.  The base class implements
    :meth:`logsumexp` generically from ``max``/``exp``/``sum``/``log`` so
    adapters only override it when the namespace has a fused kernel.
    """

    name: str = "abstract"

    # -- conversion ----------------------------------------------------
    def asarray(self, x: Any, dtype: Any = None) -> Any:
        raise NotImplementedError

    def to_numpy(self, x: Any) -> np.ndarray:
        raise NotImplementedError

    # -- generic stable logsumexp --------------------------------------
    def logsumexp(self, x: Any, axis: Optional[int] = None, keepdims: bool = False) -> Any:
        """Shift-stabilised ``log(sum(exp(x)))`` along ``axis``."""
        x = self.asarray(x)
        shift = self.max(x, axis=axis, keepdims=True)
        # An all -inf slice would make (x - shift) = nan; pin its shift to 0.
        shift = self.where(self.isfinite(shift), shift, self.zeros_like(shift))
        total = self.sum(self.exp(x - shift), axis=axis, keepdims=True)
        out = self.log(total) + shift
        if not keepdims and axis is not None:
            out = self._squeeze(out, axis)
        elif not keepdims:
            out = self.reshape(out, ())
        return out

    def _squeeze(self, x: Any, axis: int) -> Any:
        shape = list(x.shape)
        del shape[axis % len(shape)]
        return self.reshape(x, tuple(shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyBackend(TensorBackend):
    """The default backend: direct delegation to NumPy (float64 arrays)."""

    name = "numpy"
    module = np

    def asarray(self, x, dtype=None):
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x):
        return np.asarray(x)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype if dtype is not None else np.float64)

    def zeros_like(self, x):
        return np.zeros_like(x)

    def ones_like(self, x):
        return np.ones_like(x)

    def full(self, shape, fill_value, dtype=None):
        return np.full(shape, fill_value, dtype=dtype if dtype is not None else np.float64)

    def exp(self, x):
        return np.exp(x)

    def log(self, x):
        return np.log(x)

    def log1p(self, x):
        return np.log1p(x)

    def sqrt(self, x):
        return np.sqrt(x)

    def tanh(self, x):
        return np.tanh(x)

    def abs(self, x):
        return np.abs(x)

    def sign(self, x):
        return np.sign(x)

    def maximum(self, x, y):
        return np.maximum(x, y)

    def where(self, cond, x, y):
        return np.where(cond, x, y)

    def clip(self, x, low, high):
        return np.clip(x, low, high)

    def isfinite(self, x):
        return np.isfinite(x)

    def sum(self, x, axis=None, keepdims=False):
        return np.sum(x, axis=axis, keepdims=keepdims)

    def mean(self, x, axis=None, keepdims=False):
        return np.mean(x, axis=axis, keepdims=keepdims)

    def max(self, x, axis=None, keepdims=False):
        return np.max(x, axis=axis, keepdims=keepdims)

    def reshape(self, x, shape):
        return np.reshape(x, shape)

    def transpose(self, x, axes=None):
        return np.transpose(x, axes)

    def swapaxes(self, x, axis1, axis2):
        return np.swapaxes(x, axis1, axis2)

    def broadcast_to(self, x, shape):
        return np.broadcast_to(x, shape)

    def concat(self, arrays, axis=0):
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays, axis=0):
        return np.stack(arrays, axis=axis)

    def matmul(self, x, y):
        return np.matmul(x, y)

    def outer(self, x, y):
        return np.outer(x, y)

    def logsumexp(self, x, axis=None, keepdims=False):
        # Fused override of the generic implementation: same max-shift,
        # same -inf guard, same reduction order — bit-identical results —
        # but one function frame instead of eight dispatched primitives.
        # This is the Sinkhorn solvers' inner kernel, called once per
        # dual sweep, so call overhead is measurable.
        x = np.asarray(x)
        shift = x.max(axis=axis, keepdims=True)
        finite = np.isfinite(shift)
        if not finite.all():
            shift = np.where(finite, shift, 0.0)
        out = np.log(np.exp(x - shift).sum(axis=axis, keepdims=True)) + shift
        if not keepdims:
            out = out.reshape(
                () if axis is None else _squeezed_shape(out.shape, axis)
            )
        return out


def _squeezed_shape(shape: Sequence[int], axis: int) -> tuple:
    shape = list(shape)
    del shape[axis % len(shape)]
    return tuple(shape)


class ArrayApiBackend(TensorBackend):
    """Adapter wrapping any array-API-compatible namespace.

    Built from standard names only (``exp``, ``concat``, ``permute_dims``,
    ``expand_dims``, …) so ``array_api_strict``, NumPy ≥ 2's main
    namespace, or CuPy's array-API namespace all fit.  Inputs are coerced
    with ``xp.asarray`` per call; :meth:`to_numpy` tries the buffer
    protocol first and falls back to DLPack for namespaces whose arrays
    refuse ``np.asarray``.
    """

    def __init__(self, namespace: Any, name: Optional[str] = None) -> None:
        self.module = namespace
        self.name = name if name is not None else getattr(
            namespace, "__name__", type(namespace).__name__
        )
        self._float = getattr(namespace, "float64")

    def _coerce(self, x: Any) -> Any:
        xp = self.module
        if isinstance(x, np.ndarray) or np.isscalar(x) or isinstance(x, (list, tuple)):
            return xp.asarray(x)
        return x

    def asarray(self, x, dtype=None):
        xp = self.module
        if isinstance(x, np.generic):  # NumPy scalar types confuse strict modes
            x = x.item()
        if dtype is not None:
            return xp.asarray(x, dtype=dtype)
        return xp.asarray(x)

    def to_numpy(self, x):
        try:
            return np.asarray(x)
        except (TypeError, RuntimeError):
            return np.from_dlpack(x)

    def zeros(self, shape, dtype=None):
        return self.module.zeros(shape, dtype=dtype if dtype is not None else self._float)

    def zeros_like(self, x):
        return self.module.zeros_like(self._coerce(x))

    def ones_like(self, x):
        return self.module.ones_like(self._coerce(x))

    def full(self, shape, fill_value, dtype=None):
        return self.module.full(
            shape, fill_value, dtype=dtype if dtype is not None else self._float
        )

    def exp(self, x):
        return self.module.exp(self._coerce(x))

    def log(self, x):
        return self.module.log(self._coerce(x))

    def log1p(self, x):
        return self.module.log1p(self._coerce(x))

    def sqrt(self, x):
        return self.module.sqrt(self._coerce(x))

    def tanh(self, x):
        return self.module.tanh(self._coerce(x))

    def abs(self, x):
        return self.module.abs(self._coerce(x))

    def sign(self, x):
        return self.module.sign(self._coerce(x))

    def maximum(self, x, y):
        x = self._coerce(x)
        y = self._coerce(y)
        if hasattr(self.module, "maximum"):
            return self.module.maximum(x, self.module.asarray(y, dtype=x.dtype))
        return self.module.where(x >= y, x, y)

    def where(self, cond, x, y):
        xp = self.module
        cond = xp.asarray(self._coerce(cond), dtype=xp.bool)
        x = self._coerce(x)
        y = self._coerce(y)
        # Strict namespaces refuse mixed int/float scalars: unify dtype.
        if hasattr(x, "dtype") and hasattr(y, "dtype") and x.dtype != y.dtype:
            y = xp.astype(y, x.dtype)
        return xp.where(cond, x, y)

    def clip(self, x, low, high):
        x = self._coerce(x)
        return self.module.clip(x, float(low), float(high))

    def isfinite(self, x):
        return self.module.isfinite(self._coerce(x))

    def sum(self, x, axis=None, keepdims=False):
        return self.module.sum(self._coerce(x), axis=axis, keepdims=keepdims)

    def mean(self, x, axis=None, keepdims=False):
        return self.module.mean(self._coerce(x), axis=axis, keepdims=keepdims)

    def max(self, x, axis=None, keepdims=False):
        return self.module.max(self._coerce(x), axis=axis, keepdims=keepdims)

    def reshape(self, x, shape):
        return self.module.reshape(self._coerce(x), shape)

    def transpose(self, x, axes=None):
        x = self._coerce(x)
        if axes is None:
            axes = tuple(reversed(range(x.ndim)))
        return self.module.permute_dims(x, tuple(axes))

    def swapaxes(self, x, axis1, axis2):
        x = self._coerce(x)
        axes = list(range(x.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.module.permute_dims(x, tuple(axes))

    def broadcast_to(self, x, shape):
        return self.module.broadcast_to(self._coerce(x), shape)

    def concat(self, arrays, axis=0):
        return self.module.concat([self._coerce(a) for a in arrays], axis=axis)

    def stack(self, arrays, axis=0):
        return self.module.stack([self._coerce(a) for a in arrays], axis=axis)

    def matmul(self, x, y):
        return self.module.matmul(self._coerce(x), self._coerce(y))

    def outer(self, x, y):
        xp = self.module
        x = self._coerce(x)
        y = self._coerce(y)
        if hasattr(xp, "linalg") and hasattr(xp.linalg, "outer"):
            return xp.linalg.outer(x, y)
        return xp.reshape(x, (-1, 1)) * xp.reshape(y, (1, -1))


def validate_backend(backend: TensorBackend) -> TensorBackend:
    """Protocol conformance check: required callables + a known answer.

    Raises ``TypeError`` naming the first missing primitive, or
    ``ValueError`` when the smoke computation (a 2×3 ``logsumexp`` sweep,
    the Sinkhorn solver's inner kernel) disagrees with NumPy.
    """
    for name in PROTOCOL_FUNCTIONS:
        if not callable(getattr(backend, name, None)):
            raise TypeError(
                f"backend {backend.name!r} does not implement the TensorBackend "
                f"protocol: missing callable {name!r}"
            )
    probe = np.array([[0.0, 1.0, -1.0], [2.0, 2.0, 2.0]])
    expected = np.array(
        [math.log(1.0 + math.e + math.exp(-1.0)), math.log(3.0) + 2.0]
    )
    got = backend.to_numpy(backend.logsumexp(backend.asarray(probe), axis=1))
    if got.shape != (2,) or not np.allclose(got, expected, atol=1e-12):
        raise ValueError(
            f"backend {backend.name!r} failed the logsumexp known-answer check: "
            f"got {got!r}, expected {expected!r}"
        )
    return backend


_NUMPY_BACKEND = NumpyBackend()
_ACTIVE: Optional[TensorBackend] = None  # resolved lazily (REPRO_BACKEND)


def _resolve(spec: Union[str, Any, TensorBackend]) -> TensorBackend:
    if isinstance(spec, TensorBackend):
        return spec
    if isinstance(spec, str):
        if spec in ("numpy", "np", ""):
            return _NUMPY_BACKEND
        try:
            module = importlib.import_module(spec)
        except ImportError as exc:
            raise ValueError(
                f"cannot resolve tensor backend {spec!r}: {exc}"
            ) from exc
        return ArrayApiBackend(module)
    if spec is np:
        return _NUMPY_BACKEND
    return ArrayApiBackend(spec)


def get_backend() -> TensorBackend:
    """The active backend; first call honours ``REPRO_BACKEND`` (default NumPy)."""
    global _ACTIVE
    if _ACTIVE is None:
        spec = os.environ.get("REPRO_BACKEND", "numpy")
        _ACTIVE = validate_backend(_resolve(spec))
    return _ACTIVE


def set_backend(spec: Union[str, Any, TensorBackend, None]) -> TensorBackend:
    """Install (and validate) the process-wide backend; returns it.

    ``spec`` is a :class:`TensorBackend`, an array-API namespace module,
    a module name string, or ``None``/``"numpy"`` for the default.
    Switching backends mid-computation is not thread-safe; do it at
    process start or under :func:`use_backend` in tests.
    """
    global _ACTIVE
    backend = validate_backend(_resolve("numpy" if spec is None else spec))
    _ACTIVE = backend
    return backend


@contextmanager
def use_backend(spec: Union[str, Any, TensorBackend]) -> Iterator[TensorBackend]:
    """Scoped :func:`set_backend`: restores the previous backend on exit."""
    previous = get_backend()
    backend = set_backend(spec)
    try:
        yield backend
    finally:
        set_backend(previous)
