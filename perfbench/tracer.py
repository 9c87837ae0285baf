"""Span recorder and layer wrappers for the traced benchmark run.

The benchmark attributes time to the repo's layers without touching the
program: :func:`install` replaces public functions with thin wrappers at
the place their callers look them up (``repro.ot.divergence.sinkhorn_batched``
rather than ``repro.ot.batched.sinkhorn_batched``, class attributes for
methods).  Each wrapper records one span -- name, start, end, parent -- in
memory while :attr:`Tracer.active` is set, and reads work counts from the
public return values (``BatchedSinkhornResult.iterations``/``.converged``,
``SseResult.evaluations``).  Spans are written out once, when the run ends.

Self time of a span is its duration minus the time its child spans cover;
wrapped calls nest strictly (the batch workloads are single-threaded), so
the children's durations never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """In-memory spans plus named counters; inactive until switched on."""

    def __init__(self) -> None:
        self.active = False
        # Each span: [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span nesting broken: closed {index}, open {popped}")

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: total duration, total self time, and span count."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, covered):
            total[name] += end - start
            self_time[name] += end - start - child
            calls[name] += 1
        return total, self_time, calls

    def write(self, path: str) -> None:
        """Dump the spans (times relative to the first span) as JSON lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start - origin, "end": end - origin,
                         "parent": parent}
                    )
                    + "\n"
                )

    # -- patching --------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        """Wrap a generator function: one span per ``next()`` that yields."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                index = tracer.open(name) if tracer.active else -1
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if index >= 0:
                        tracer.close(index)
                if index >= 0:
                    tracer.counts[name + ".items"] += 1
                yield item

        self._patch(owner, attr, wrapper)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_solve(tracer: Tracer, result) -> None:
    iterations = np.asarray(result.iterations)
    tracer.counts["ot.problems"] += iterations.size
    tracer.counts["ot.sweeps"] += float(iterations.sum())
    tracer.counts["ot.stack_sweeps"] += float(iterations.max())
    tracer.counts["ot.capped"] += float(np.size(result.converged) - np.sum(result.converged))


def _count_tasks(tracer: Tracer, result) -> None:
    tracer.counts["parallel.tasks"] += len(result)


def _count_search(tracer: Tracer, result) -> None:
    tracer.counts["core.sse.evaluations"] += len(result.evaluations)
    tracer.counts["core.sse.n_star_frac"] += result.n_star / result.n_total
    tracer.counts["core.sse.searches"] += 1


# (span name, module path, attribute path, result hook).  Each target is
# the name the callers resolve at call time.
LAYERS = (
    ("ot.solve", "repro.ot.divergence", "sinkhorn_batched", _count_solve),
    ("ot.loss", "repro.ot.divergence", "MaskingSinkhornLoss.__call__", None),
    ("tensor.backward", "repro.tensor.tensor", "Tensor.backward", None),
    ("parallel.run", "repro.parallel.context", "ExecutionContext.run", _count_tasks),
    ("optim.step", "repro.optim.optimizers", "Optimizer.step", None),
    ("core.dim.train", "repro.core.dim", "DIM.train", None),
    ("core.sse.prepare", "repro.core.sse", "SSE.prepare", None),
    ("core.sse.search", "repro.core.sse", "SSE.estimate_minimum_size", _count_search),
)


def _resolve(module_path: str, attr_path: str) -> Tuple[object, str]:
    import importlib

    owner = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _generative_classes() -> List[type]:
    """Every generative model class in ``repro.models`` defining its own forward."""
    import repro.models as models

    return [
        cls
        for cls in vars(models).values()
        if isinstance(cls, type)
        and issubclass(cls, models.GenerativeImputer)
        and "reconstruct_batch" in vars(cls)
    ]


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark attributes time to."""
    for name, module_path, attr_path, hook in LAYERS:
        owner, attr = _resolve(module_path, attr_path)
        tracer.wrap(owner, attr, name, hook)
    for cls in _generative_classes():
        tracer.wrap(cls, "reconstruct_batch", "models.forward")
        if "adversarial_step" in vars(cls):
            tracer.wrap(cls, "adversarial_step", "models.adversarial")
    tracer.wrap_generator(*_resolve("repro.core.dim", "iterate_batches"), "data.batch")
