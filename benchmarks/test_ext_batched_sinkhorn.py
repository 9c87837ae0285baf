"""Extension — batched (stacked) Sinkhorn vs per-problem loop solves.

The redesigned solver stacks the same-shape OT problems behind a DIM step
into one ``(B, n, m)`` tensor and runs every dual sweep over the whole
stack (two backend ``matmul`` matrix–vector products), with per-problem
convergence masking and active-set compaction (a problem leaves the
working stack the sweep it converges).  The contract is *exact* parity —
values, duals, and iteration counts match the loop solver to the bit on
NumPy — so this bench verifies that first, then measures throughput on a
raw solver workload and end-to-end DIM training with the stacked path on
and off.
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
    """Time `batch` same-difficulty problems: stacked vs looped."""
    rng = np.random.default_rng(batch)
    cost = rng.random((batch, n, n))
    config = SinkhornConfig(reg=reg, max_iter=5000, tol=1e-9)

    t0 = time.perf_counter()
    for _ in range(repeats):
        stacked = sinkhorn_batched(cost, config)
    stacked_seconds = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    for _ in range(repeats):
        looped = [sinkhorn(cost[k], config) for k in range(batch)]
    loop_seconds = (time.perf_counter() - t0) / repeats

    # Exact parity: stacked values/iterations equal the loop solver's.
    for k, single in enumerate(looped):
        assert stacked.value[k] == single.value, (batch, k)
        assert stacked.iterations[k] == single.iterations, (batch, k)
    return loop_seconds, stacked_seconds


def _train(batched):
    config = DimConfig(
        epochs=EPOCHS,
        batch_size=64,
        use_adversarial=False,
        reg=0.1,
        sinkhorn_tol=1e-9,
        sinkhorn_max_iter=5000,
        fixed_batch_order=True,  # identical batch sequences in both runs
        sinkhorn_batched=batched,
    )
    model = GAINImputer(seed=0)
    with recording() as rec:
        t0 = time.perf_counter()
        report = DIM(config).train(model, _dataset(), np.random.default_rng(7))
        seconds = time.perf_counter() - t0
    counters = rec.metrics.snapshot()["counters"]
    return report, seconds, counters


def test_ext_batched_sinkhorn(benchmark):
    workload, loop_run, batched_run = benchmark.pedantic(
        lambda: (
            [_solver_workload(batch) for batch in STACKS],
            _train(False),
            _train(True),
        ),
        rounds=1,
        iterations=1,
    )

    print(
        "\n"
        + format_series(
            "stack",
            [str(batch) for batch in STACKS],
            {
                "loop s": [loop for loop, _ in workload],
                "stacked s": [stacked for _, stacked in workload],
                "speedup": [loop / stacked for loop, stacked in workload],
            },
            title="Extension — batched Sinkhorn: raw solver throughput",
        )
    )

    loop_report, loop_seconds, loop_counters = loop_run
    batched_report, batched_seconds, batched_counters = batched_run
    print(
        f"DIM {EPOCHS} epochs: loop {loop_seconds:.2f}s "
        f"({loop_counters.get('sinkhorn.loop_solves', 0):.0f} loop solves), "
        f"stacked {batched_seconds:.2f}s "
        f"({batched_counters.get('sinkhorn.batched_solves', 0):.0f} stacked solves, "
        f"ratio {loop_seconds / batched_seconds:.2f}x)"
    )

    # Identical learning: the stacked path is a solver swap, not a model
    # change — per-step MS losses agree to solver tolerance.
    assert np.allclose(loop_report.ms_losses, batched_report.ms_losses, atol=1e-8)

    # The batched run routes everything through the stacked solver.
    assert loop_counters.get("sinkhorn.batched_solves", 0.0) == 0.0
    assert batched_counters.get("sinkhorn.loop_solves", 0.0) == 0.0
    assert batched_counters["sinkhorn.batched_solves"] > 0

    # Same-difficulty stacks amortise dispatch: the stacked path pays a
    # small bookkeeping tax at B=1 but must pull ahead as the stack
    # widens, and win clearly at the widest stack.
    speedups = [loop / stacked for loop, stacked in workload]
    assert min(speedups) > 0.6, speedups
    assert speedups[-1] > speedups[0], speedups
    assert speedups[-1] > 1.05, speedups

    # End-to-end DIM must not regress with the stacked default on.
    assert batched_seconds < loop_seconds * 1.25
