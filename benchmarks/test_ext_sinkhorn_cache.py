"""Extension — Sinkhorn warm-start / self-term cache speedup.

DIM's wall-clock is dominated by the per-batch Sinkhorn solves.  With a
fixed batch partition, the data self-term OT(μ_x, μ_x) is a constant
scalar per batch and the optimal dual potentials drift slowly between
epochs, so caching both should cut iterations sharply after epoch 1
without changing what is learned (the solver still iterates to the same
tolerance).  This bench trains the same model twice — caches off, caches
on — over identical batch sequences and measures both effects.
"""

import numpy as np

from repro.bench import format_series
from repro.core import DIM, DimConfig
from repro.data import IncompleteDataset
from repro.models import GAINImputer
from repro.obs import recording

N_ROWS = 256
N_COLS = 8
EPOCHS = 5


def _dataset():
    rng = np.random.default_rng(0)
    values = rng.random((N_ROWS, N_COLS))
    values[rng.random((N_ROWS, N_COLS)) < 0.3] = np.nan
    return IncompleteDataset(values, name="sinkhorn-cache")


def _train(cached):
    config = DimConfig(
        epochs=EPOCHS,
        batch_size=64,
        use_adversarial=False,
        reg=0.1,
        sinkhorn_tol=1e-9,
        sinkhorn_max_iter=5000,
        sinkhorn_warm_start=cached,
        sinkhorn_cache_self_terms=cached,
        fixed_batch_order=True,  # identical batch sequences in both runs
    )
    model = GAINImputer(seed=0)
    with recording() as rec:
        report = DIM(config).train(model, _dataset(), np.random.default_rng(7))
    # Attribute solves and wall-clock to epochs from the event stream: the
    # dim.epoch span closes (and its `span` event lands) just before the
    # dim.epoch summary event that advances the counter.
    iterations, seconds, epoch = {}, {}, 0
    for event in rec.events:
        # Every solve is a stacked one; its event carries the total
        # iteration count in "iterations".
        if event.name == "sinkhorn.batched_solve":
            iterations[epoch] = iterations.get(epoch, 0) + event.fields["iterations"]
        elif event.name == "span" and event.fields.get("span") == "dim.epoch":
            seconds[epoch] = event.fields["seconds"]
        elif event.name == "dim.epoch":
            epoch += 1
    return report, iterations, seconds


def test_ext_sinkhorn_cache(benchmark):
    cold, warm = benchmark.pedantic(
        lambda: (_train(False), _train(True)), rounds=1, iterations=1
    )
    cold_report, cold_iters, cold_secs = cold
    warm_report, warm_iters, warm_secs = warm

    print(
        "\n"
        + format_series(
            "epoch",
            [str(e) for e in range(EPOCHS)],
            {
                "cold iters": [float(cold_iters[e]) for e in range(EPOCHS)],
                "warm iters": [float(warm_iters[e]) for e in range(EPOCHS)],
                "cold s": [cold_secs[e] for e in range(EPOCHS)],
                "warm s": [warm_secs[e] for e in range(EPOCHS)],
            },
            title="Extension — Sinkhorn cache: per-epoch iterations and seconds",
        )
    )

    # Identical learning: per-epoch mean MS losses agree to 1e-6.
    steps_per_epoch = cold_report.steps // cold_report.epochs
    off = np.array(cold_report.ms_losses).reshape(EPOCHS, steps_per_epoch)
    on = np.array(warm_report.ms_losses).reshape(EPOCHS, steps_per_epoch)
    assert np.abs(off.mean(axis=1) - on.mean(axis=1)).max() < 1e-6

    # Steady state (epochs >= 1, once the caches are populated).
    steady = range(1, EPOCHS)
    iter_ratio = sum(cold_iters[e] for e in steady) / sum(
        warm_iters[e] for e in steady
    )
    speedup = sum(cold_secs[e] for e in steady) / sum(warm_secs[e] for e in steady)
    print(f"steady-state iteration reduction {iter_ratio:.2f}x, speedup {speedup:.2f}x")
    assert iter_ratio >= 2.0
    assert speedup >= 1.5
