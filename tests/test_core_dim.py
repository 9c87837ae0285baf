"""DIM module: MS-divergence training of GAN imputers."""

import numpy as np
import pytest

from repro.core import DIM, DimConfig
from repro.data import holdout_split
from repro.models import GAINImputer, MeanImputer
from repro.nn import flatten_parameters


@pytest.fixture
def case(small_incomplete, rng):
    return holdout_split(small_incomplete, 0.2, rng)


class TestDimTraining:
    def test_builds_unbuilt_model(self, case, rng):
        model = GAINImputer(seed=0)
        DIM(DimConfig(epochs=1)).train(model, case.train, rng)
        assert model.generator.num_parameters() > 0

    def test_marks_model_fitted(self, case, rng):
        model = GAINImputer(seed=0)
        DIM(DimConfig(epochs=1)).train(model, case.train, rng)
        imputed = model.transform(case.train)
        assert not np.isnan(imputed).any()

    def test_parameters_move(self, case, rng):
        model = GAINImputer(seed=0)
        model.build(case.train.n_features)
        before = flatten_parameters(model.generator).copy()
        DIM(DimConfig(epochs=1)).train(model, case.train, rng)
        assert not np.allclose(before, flatten_parameters(model.generator))

    def test_loss_decreases_over_training(self, case, rng):
        model = GAINImputer(seed=0)
        report = DIM(DimConfig(epochs=25)).train(model, case.train, rng)
        early = np.mean(report.ms_losses[:5])
        late = np.mean(report.ms_losses[-5:])
        assert late < early

    def test_report_counts_steps(self, case, rng):
        config = DimConfig(epochs=3, batch_size=128)
        report = DIM(config).train(GAINImputer(seed=0), case.train, rng)
        batches_per_epoch = int(np.ceil(case.train.n_samples / 128))
        assert report.steps == 3 * batches_per_epoch
        assert report.seconds > 0
        assert report.final_ms_loss == report.ms_losses[-1]

    def test_epochs_override(self, case, rng):
        config = DimConfig(epochs=10)
        report = DIM(config).train(GAINImputer(seed=0), case.train, rng, epochs=1)
        assert report.epochs == 1

    def test_dim_beats_mean(self, case, rng):
        model = GAINImputer(seed=0)
        DIM(DimConfig(epochs=40)).train(model, case.train, rng)
        dim_rmse = case.rmse(model.transform(case.train))
        mean_rmse = case.rmse(MeanImputer().fit_transform(case.train))
        assert dim_rmse < mean_rmse

    def test_pure_ms_loss_without_adversarial(self, case, rng):
        config = DimConfig(epochs=5, use_adversarial=False)
        model = GAINImputer(seed=0)
        report = DIM(config).train(model, case.train, rng)
        assert report.steps > 0
        assert np.isfinite(report.ms_losses).all()

    def test_no_rec_weight(self, case, rng):
        config = DimConfig(epochs=2, rec_weight=0.0)
        report = DIM(config).train(GAINImputer(seed=0), case.train, rng)
        assert np.isfinite(report.ms_losses).all()

    def test_single_row_batches_skipped(self, rng):
        from repro.data import IncompleteDataset

        tiny = IncompleteDataset(np.array([[0.5, np.nan], [np.nan, 0.2], [0.1, 0.9]]))
        config = DimConfig(epochs=2, batch_size=2)
        report = DIM(config).train(GAINImputer(seed=0), tiny, rng)
        # batches of size 2 run; the trailing singleton is skipped
        assert report.steps == 2


class TestSinkhornCaching:
    """The acceleration layer must not change what DIM learns."""

    def _config(self, **overrides):
        base = dict(
            epochs=3,
            batch_size=64,
            use_adversarial=False,
            reg=1.0,
            sinkhorn_tol=1e-9,
            sinkhorn_max_iter=2000,
            fixed_batch_order=True,  # identical batch sequences in both runs
        )
        base.update(overrides)
        return DimConfig(**base)

    def test_cached_epoch_means_match_uncached(self, case):
        def run(cached):
            config = self._config(
                sinkhorn_warm_start=cached, sinkhorn_cache_self_terms=cached
            )
            model = GAINImputer(seed=0)
            return DIM(config).train(model, case.train, np.random.default_rng(7))

        uncached = run(False)
        cached = run(True)
        steps_per_epoch = uncached.steps // uncached.epochs
        off = np.array(uncached.ms_losses).reshape(uncached.epochs, steps_per_epoch)
        on = np.array(cached.ms_losses).reshape(cached.epochs, steps_per_epoch)
        assert np.abs(off.mean(axis=1) - on.mean(axis=1)).max() < 1e-6

    def test_selfterm_cache_and_warm_starts_counted(self, case):
        from repro.obs import recording

        model = GAINImputer(seed=0)
        with recording() as rec:
            report = DIM(self._config()).train(
                model, case.train, np.random.default_rng(0)
            )
        counters = rec.metrics.snapshot()["counters"]
        steps_per_epoch = report.steps // report.epochs
        # The data self-term is solved once per batch, then cached.
        assert counters["sinkhorn.selfterm_cache_hits"] == steps_per_epoch * (
            report.epochs - 1
        )
        # From epoch 2 on, the cross and generated-self solves warm-start.
        assert counters["sinkhorn.warm_starts"] == 2 * steps_per_epoch * (
            report.epochs - 1
        )

    def test_warm_start_reduces_iterations_after_first_epoch(self, case):
        from repro.obs import recording

        def iterations_per_epoch(cached):
            config = self._config(
                sinkhorn_warm_start=cached, sinkhorn_cache_self_terms=cached
            )
            model = GAINImputer(seed=0)
            with recording() as rec:
                DIM(config).train(model, case.train, np.random.default_rng(0))
            per_epoch, epoch = {}, 0
            for event in rec.events:
                # Every solve is a stacked one; its event carries the
                # stack's total iteration count in "iterations".
                if event.name == "sinkhorn.batched_solve":
                    per_epoch[epoch] = per_epoch.get(epoch, 0) + event.fields["iterations"]
                elif event.name == "dim.epoch":
                    epoch += 1
            return per_epoch

        cold = iterations_per_epoch(False)
        warm = iterations_per_epoch(True)
        assert sum(warm[e] for e in warm if e >= 1) < sum(
            cold[e] for e in cold if e >= 1
        )

    def test_caches_reset_between_training_runs(self, case, rng):
        from repro.data import IncompleteDataset

        dim = DIM(self._config(epochs=1))
        dim.train(GAINImputer(seed=0), case.train, rng)
        first_keys = set(dim._loss._self_terms)
        assert first_keys
        other = IncompleteDataset(case.train.values[:65], name="other")
        dim.train(GAINImputer(seed=1), other, rng)
        # Stale keys from the first dataset must not survive into the second:
        # 65 rows → one 64-row batch plus a skipped singleton → exactly 1 key.
        assert len(dim._loss._self_terms) == 1


class TestDimImputer:
    def test_full_data_dim_wrapper(self, case, rng):
        from repro.core import DimConfig, DimImputer
        from repro.models import GAINImputer

        wrapper = DimImputer(GAINImputer(seed=0), DimConfig(epochs=2), seed=0)
        imputed = wrapper.fit_transform(case.train)
        assert imputed.shape == case.train.shape
        assert wrapper.sample_rate == 1.0
        assert wrapper.name == "dim-gain"
        assert wrapper.report is not None

    def test_fixed_fraction_variant(self, case):
        from repro.core import DimConfig, DimImputer
        from repro.models import GAINImputer

        wrapper = DimImputer(
            GAINImputer(seed=0), DimConfig(epochs=2), subsample_fraction=0.25, seed=0
        )
        wrapper.fit(case.train)
        assert wrapper.sample_rate == 0.25
        assert wrapper.name == "fixed-dim-gain"

    def test_invalid_fraction_raises(self):
        import pytest as _pytest

        from repro.core import DimImputer
        from repro.models import GAINImputer

        with _pytest.raises(ValueError):
            DimImputer(GAINImputer(), subsample_fraction=0.0)
        with _pytest.raises(ValueError):
            DimImputer(GAINImputer(), subsample_fraction=1.5)


class TestDimEarlyStopping:
    def test_stops_before_budget(self, small_incomplete, rng):
        holdout = holdout_split(small_incomplete, 0.2, rng)
        config = DimConfig(
            epochs=60,
            early_stopping_patience=2,
            early_stopping_min_delta=1e-3,
        )
        report = DIM(config).train(GAINImputer(seed=0), holdout.train, rng)
        assert report.epochs < 60

    def test_disabled_by_default(self, small_incomplete, rng):
        holdout = holdout_split(small_incomplete, 0.2, rng)
        report = DIM(DimConfig(epochs=5)).train(GAINImputer(seed=0), holdout.train, rng)
        assert report.epochs == 5

    def test_huge_patience_runs_full_budget(self, small_incomplete, rng):
        holdout = holdout_split(small_incomplete, 0.2, rng)
        config = DimConfig(epochs=4, early_stopping_patience=100)
        report = DIM(config).train(GAINImputer(seed=0), holdout.train, rng)
        assert report.epochs == 4
