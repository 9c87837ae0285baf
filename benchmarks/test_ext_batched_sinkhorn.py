"""Extension — one stacked Sinkhorn solve vs B one-problem solves.

The solver stacks same-shape OT problems into one ``(B, n, m)`` tensor and
runs every dual sweep over the whole stack (two backend ``matmul``
matrix–vector products), with per-problem convergence masking and
active-set compaction (a problem leaves the working stack the sweep it
converges).  ``sinkhorn()`` is the same solver on a one-problem stack, so
the contract is *exact* parity — values and iteration counts of a stack
match its one-problem solves to the bit on NumPy.  This bench verifies
that, measures throughput on a raw solver workload, and checks that DIM
training routes its solves through the stacked solver.
"""

import time

import numpy as np

from repro.bench import format_series
from repro.core import DIM, DimConfig
from repro.data import IncompleteDataset
from repro.models import GAINImputer
from repro.obs import recording
from repro.ot import SinkhornConfig, sinkhorn, sinkhorn_batched

N_ROWS = 256
N_COLS = 8
EPOCHS = 5
STACKS = (1, 2, 4, 8)


def _dataset():
    rng = np.random.default_rng(0)
    values = rng.random((N_ROWS, N_COLS))
    values[rng.random((N_ROWS, N_COLS)) < 0.3] = np.nan
    return IncompleteDataset(values, name="batched-sinkhorn")


def _solver_workload(batch, n=64, reg=0.1, repeats=3):
    """Time `batch` same-difficulty problems: one stack vs one solve each."""
    rng = np.random.default_rng(batch)
    cost = rng.random((batch, n, n))
    config = SinkhornConfig(reg=reg, max_iter=5000, tol=1e-9)
    # Untimed warm-up of both paths, so neither timing pays first-call costs.
    sinkhorn_batched(cost, config)
    sinkhorn(cost[0], config)

    t0 = time.perf_counter()
    for _ in range(repeats):
        stacked = sinkhorn_batched(cost, config)
    stacked_seconds = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    for _ in range(repeats):
        looped = [sinkhorn(cost[k], config) for k in range(batch)]
    loop_seconds = (time.perf_counter() - t0) / repeats

    # Exact parity: stacked values/iterations equal the one-problem solves'.
    for k, single in enumerate(looped):
        assert stacked.value[k] == single.value, (batch, k)
        assert stacked.iterations[k] == single.iterations, (batch, k)
    return loop_seconds, stacked_seconds


def _train():
    config = DimConfig(
        epochs=EPOCHS,
        batch_size=64,
        use_adversarial=False,
        reg=0.1,
        sinkhorn_tol=1e-9,
        sinkhorn_max_iter=5000,
    )
    model = GAINImputer(seed=0)
    with recording() as rec:
        t0 = time.perf_counter()
        DIM(config).train(model, _dataset(), np.random.default_rng(7))
        seconds = time.perf_counter() - t0
    counters = rec.metrics.snapshot()["counters"]
    return seconds, counters


def test_ext_batched_sinkhorn(benchmark):
    workload, (dim_seconds, dim_counters) = benchmark.pedantic(
        lambda: ([_solver_workload(batch) for batch in STACKS], _train()),
        rounds=1,
        iterations=1,
    )

    print(
        "\n"
        + format_series(
            "stack",
            [str(batch) for batch in STACKS],
            {
                "one-problem s": [single for single, _ in workload],
                "stacked s": [stacked for _, stacked in workload],
                "speedup": [single / stacked for single, stacked in workload],
            },
            title="Extension — batched Sinkhorn: raw solver throughput",
        )
    )
    print(
        f"DIM {EPOCHS} epochs: {dim_seconds:.2f}s, "
        f"{dim_counters.get('sinkhorn.batched_solves', 0):.0f} stacked solves of "
        f"{dim_counters.get('sinkhorn.batched_problems', 0):.0f} problems"
    )

    # DIM routes its cross/self-term problems through the stacked solver.
    assert dim_counters["sinkhorn.batched_solves"] > 0

    # Same-difficulty stacks amortise dispatch: a stack must pull ahead of
    # one-problem solves as it widens, and win clearly at the widest stack.
    speedups = [single / stacked for single, stacked in workload]
    assert min(speedups) > 0.6, speedups
    assert speedups[-1] > speedups[0], speedups
    assert speedups[-1] > 1.05, speedups
