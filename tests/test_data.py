"""Data layer: dataset container, normalisation, missingness, generators, IO."""

import numpy as np
import pytest

from repro.data import (
    SPECS,
    BatchPlan,
    IncompleteDataset,
    MinMaxNormalizer,
    Standardizer,
    ampute,
    dataset_names,
    generate,
    holdout_split,
    iterate_batches,
    read_csv,
    write_csv,
)


@pytest.fixture
def toy():
    values = np.array(
        [
            [1.0, np.nan, 3.0],
            [4.0, 5.0, np.nan],
            [7.0, 8.0, 9.0],
        ]
    )
    return IncompleteDataset(values, name="toy")


class TestIncompleteDataset:
    def test_mask_tracks_nan(self, toy):
        expected = np.array([[1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=float)
        assert np.array_equal(toy.mask, expected)

    def test_missing_rate(self, toy):
        assert toy.missing_rate == pytest.approx(2 / 9)

    def test_default_feature_names(self, toy):
        assert toy.feature_names == ["f0", "f1", "f2"]

    def test_shape_accessors(self, toy):
        assert toy.shape == (3, 3)
        assert toy.n_samples == 3
        assert toy.n_features == 3
        assert len(toy) == 3

    def test_filled(self, toy):
        filled = toy.filled(-1.0)
        assert filled[0, 1] == -1.0
        assert filled[0, 0] == 1.0

    def test_from_mask_constructor(self):
        full = np.arange(6, dtype=float).reshape(2, 3)
        mask = np.array([[1, 0, 1], [1, 1, 1]])
        ds = IncompleteDataset.from_mask(full, mask)
        assert np.isnan(ds.values[0, 1])
        assert ds.values[1, 2] == 5.0

    def test_take_copies(self, toy):
        subset = toy.take([0, 2])
        subset.values[0, 0] = 99.0
        assert toy.values[0, 0] == 1.0

    def test_subsample_size_check(self, toy, rng):
        with pytest.raises(ValueError):
            toy.subsample(10, rng)

    def test_split_disjoint(self, rng):
        ds = IncompleteDataset(rng.normal(size=(100, 3)))
        split = ds.split_validation_initial(20, 30, rng)
        assert split.validation.n_samples == 20
        assert split.initial.n_samples == 30
        assert not set(split.validation_indices) & set(split.initial_indices)

    def test_split_too_large_raises(self, rng):
        ds = IncompleteDataset(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError):
            ds.split_validation_initial(6, 6, rng)

    def test_column_means_ignore_missing(self, toy):
        means = toy.column_means()
        assert means[1] == pytest.approx((5.0 + 8.0) / 2)

    def test_invalid_feature_type_raises(self):
        with pytest.raises(ValueError):
            IncompleteDataset(np.zeros((2, 2)), feature_types=["continuous", "weird"])

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            IncompleteDataset(np.zeros(5))

    def test_observed_count(self, toy):
        assert toy.observed_count() == 7

    def test_repr(self, toy):
        assert "toy" in repr(toy)


class TestMinMaxNormalizer:
    def test_observed_range_is_unit(self, small_incomplete):
        obs = small_incomplete.values[small_incomplete.mask == 1]
        assert obs.min() >= 0.0
        assert obs.max() <= 1.0 + 1e-12

    def test_roundtrip(self, rng):
        ds = IncompleteDataset(rng.normal(size=(50, 4)) * 10 + 3)
        norm = MinMaxNormalizer()
        transformed = norm.fit_transform(ds)
        back = norm.inverse_transform(transformed.values)
        assert np.allclose(back, ds.values)

    def test_constant_column_maps_to_half(self):
        ds = IncompleteDataset(np.column_stack([np.full(5, 7.0), np.arange(5.0)]))
        transformed = MinMaxNormalizer().fit_transform(ds)
        assert np.allclose(transformed.values[:, 0], 0.5)

    def test_nan_passthrough(self, toy):
        transformed = MinMaxNormalizer().fit_transform(toy)
        assert np.isnan(transformed.values[0, 1])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxNormalizer().transform(np.zeros((2, 2)))

    def test_mask_preserved(self, toy):
        transformed = MinMaxNormalizer().fit_transform(toy)
        assert np.array_equal(transformed.mask, toy.mask)


class TestStandardizer:
    def test_observed_moments(self, rng):
        ds = IncompleteDataset(rng.normal(5.0, 3.0, size=(500, 2)))
        std = Standardizer().fit(ds)
        z = std.transform(ds.values)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_roundtrip(self, rng):
        ds = IncompleteDataset(rng.normal(size=(30, 3)))
        std = Standardizer().fit(ds)
        assert np.allclose(std.inverse_transform(std.transform(ds.values)), ds.values)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform(np.zeros((2, 2)))


class TestAmpute:
    def test_mcar_hits_target_rate(self, rng):
        ds = IncompleteDataset(rng.normal(size=(2000, 5)))
        out = ampute(ds, 0.3, "mcar", rng)
        assert out.missing_rate == pytest.approx(0.3, abs=0.03)

    @pytest.mark.parametrize("mechanism", ["mar", "mnar"])
    def test_informative_mechanisms_hit_rate(self, rng, mechanism):
        ds = IncompleteDataset(rng.normal(size=(2000, 5)))
        out = ampute(ds, 0.3, mechanism, rng)
        assert out.missing_rate == pytest.approx(0.3, abs=0.05)

    def test_mnar_drops_larger_values(self, rng):
        values = rng.normal(size=(5000, 1))
        ds = IncompleteDataset(values.copy())
        out = ampute(ds, 0.3, "mnar", rng, strength=3.0)
        dropped = values[np.isnan(out.values)]
        kept = values[~np.isnan(out.values)]
        assert dropped.mean() > kept.mean()

    def test_never_restores_missing(self, toy, rng):
        out = ampute(toy, 0.5, "mcar", rng)
        assert np.isnan(out.values[0, 1])

    def test_only_removes(self, rng):
        ds = IncompleteDataset(rng.normal(size=(100, 4)))
        out = ampute(ds, 0.4, "mcar", rng)
        newly_missing = np.isnan(out.values) & ~np.isnan(ds.values)
        assert newly_missing.sum() > 0
        unchanged = ~np.isnan(out.values)
        assert np.array_equal(out.values[unchanged], ds.values[unchanged])

    def test_invalid_rate_raises(self, toy, rng):
        with pytest.raises(ValueError):
            ampute(toy, 1.0, "mcar", rng)

    def test_unknown_mechanism_raises(self, toy, rng):
        with pytest.raises(ValueError):
            ampute(toy, 0.2, "fancy", rng)


class TestHoldoutSplit:
    def test_hides_roughly_rate(self, rng):
        ds = IncompleteDataset(rng.normal(size=(1000, 5)))
        hs = holdout_split(ds, 0.2, rng)
        hidden_fraction = hs.holdout_mask.sum() / ds.mask.sum()
        assert hidden_fraction == pytest.approx(0.2, abs=0.03)

    def test_truth_matches_original(self, rng):
        ds = IncompleteDataset(rng.normal(size=(100, 4)))
        hs = holdout_split(ds, 0.3, rng)
        hidden = hs.holdout_mask == 1.0
        assert np.allclose(hs.truth[hidden], ds.values[hidden])

    def test_rmse_of_truth_is_zero(self, rng):
        ds = IncompleteDataset(rng.normal(size=(100, 4)))
        hs = holdout_split(ds, 0.3, rng)
        assert hs.rmse(hs.truth) == pytest.approx(0.0)

    def test_rmse_hand_computed(self):
        ds = IncompleteDataset(np.array([[1.0, 2.0]]))
        hs = holdout_split(ds, 0.5, np.random.default_rng(0))
        # Force a known configuration for the check.
        hs.holdout_mask[...] = np.array([[1.0, 0.0]])
        object.__setattr__(hs, "truth", np.array([[3.0, 0.0]]))
        assert hs.rmse(np.array([[1.0, 0.0]])) == pytest.approx(2.0)
        assert hs.mae(np.array([[1.0, 0.0]])) == pytest.approx(2.0)

    def test_train_is_superset_missing(self, rng):
        ds = IncompleteDataset(rng.normal(size=(100, 4)))
        hs = holdout_split(ds, 0.3, rng)
        assert hs.train.missing_rate > ds.missing_rate

    def test_invalid_rate_raises(self, rng):
        ds = IncompleteDataset(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            holdout_split(ds, 0.0, rng)


class TestCovidGenerators:
    @pytest.mark.parametrize("name", dataset_names())
    def test_schema_matches_spec(self, name):
        generated = generate(name, n_samples=500, seed=0)
        spec = SPECS[name]
        assert generated.dataset.n_features == spec.n_features
        assert generated.dataset.n_samples == 500
        assert generated.dataset.missing_rate == pytest.approx(
            spec.missing_rate, abs=0.05
        )
        assert generated.labels.shape == (500,)

    def test_reproducible(self):
        a = generate("trial", n_samples=100, seed=42)
        b = generate("trial", n_samples=100, seed=42)
        assert np.array_equal(
            np.nan_to_num(a.dataset.values), np.nan_to_num(b.dataset.values)
        )

    def test_different_seeds_differ(self):
        a = generate("trial", n_samples=100, seed=1)
        b = generate("trial", n_samples=100, seed=2)
        assert not np.array_equal(
            np.nan_to_num(a.dataset.values), np.nan_to_num(b.dataset.values)
        )

    def test_classification_labels_binary(self):
        generated = generate("surveil", n_samples=200, seed=0)
        assert set(np.unique(generated.labels)) <= {0.0, 1.0}

    def test_missing_rate_override(self):
        generated = generate("trial", n_samples=1000, seed=0, missing_rate=0.5)
        assert generated.dataset.missing_rate == pytest.approx(0.5, abs=0.05)

    def test_columns_are_correlated(self):
        """The latent-factor design must make imputation learnable."""
        generated = generate("weather", n_samples=2000, seed=0)
        corr = np.corrcoef(generated.complete.T)
        off_diagonal = np.abs(corr - np.diag(np.diag(corr)))
        assert off_diagonal.max() > 0.3

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            generate("nonexistent")

    def test_tiny_n_raises(self):
        with pytest.raises(ValueError):
            generate("trial", n_samples=1)

    def test_complete_matrix_has_no_nan(self):
        generated = generate("emergency", n_samples=100, seed=0)
        assert not np.isnan(generated.complete).any()


class TestBatches:
    def test_covers_all_rows(self, small_incomplete, rng):
        plan = BatchPlan(batch_size=32, order="shuffled")
        seen = sum(v.shape[0] for v, _ in iterate_batches(small_incomplete, plan, rng))
        assert seen == small_incomplete.n_samples

    def test_drop_last(self, small_incomplete, rng):
        plan = BatchPlan(batch_size=60, order="shuffled", drop_last=True)
        batches = list(iterate_batches(small_incomplete, plan, rng))
        assert all(v.shape[0] == 60 for v, _ in batches)

    def test_no_shuffle_is_ordered(self, small_incomplete):
        values, _ = next(iterate_batches(small_incomplete, BatchPlan(batch_size=10)))
        assert np.array_equal(
            np.nan_to_num(values), np.nan_to_num(small_incomplete.values[:10])
        )

    def test_mask_aligned_with_values(self, small_incomplete, rng):
        plan = BatchPlan(batch_size=32, order="shuffled")
        for values, mask in iterate_batches(small_incomplete, plan, rng):
            assert np.array_equal(mask == 0.0, np.isnan(values))

    def test_invalid_batch_size(self, small_incomplete):
        with pytest.raises(ValueError):
            list(iterate_batches(small_incomplete, BatchPlan(batch_size=0)))


class TestBatchPlan:
    def test_uniform_bounds(self):
        from repro.data import BatchPlan

        assert BatchPlan(batch_size=4).bounds(10) == [(0, 4), (4, 8), (8, 10)]
        assert BatchPlan(batch_size=4, drop_last=True).bounds(10) == [
            (0, 4),
            (4, 8),
        ]

    def test_of_sizes_bounds(self):
        from repro.data import BatchPlan

        plan = BatchPlan.of_sizes([3, 1, 6])
        assert plan.bounds(10) == [(0, 3), (3, 4), (4, 10)]
        with pytest.raises(ValueError):
            plan.bounds(9)

    def test_row_order(self, rng):
        from repro.data import BatchPlan

        n = 12
        assert np.array_equal(BatchPlan(batch_size=4).bounds(0), [])
        assert np.array_equal(
            BatchPlan(batch_size=4).row_order(n), np.arange(n)
        )
        perm = rng.permutation(n)
        fixed = BatchPlan(batch_size=4, order="fixed", permutation=perm)
        assert np.array_equal(fixed.row_order(n), perm)
        shuffled = BatchPlan(batch_size=4, order="shuffled")
        assert sorted(shuffled.row_order(n, np.random.default_rng(0))) == list(
            range(n)
        )

    def test_validation_errors(self, rng):
        from repro.data import BatchPlan

        with pytest.raises(ValueError):
            BatchPlan()  # neither batch_size nor sizes
        with pytest.raises(ValueError):
            BatchPlan(batch_size=4, sizes=(4,))  # both
        with pytest.raises(ValueError):
            BatchPlan(batch_size=0)
        with pytest.raises(ValueError):
            BatchPlan(sizes=(4, 0))
        with pytest.raises(ValueError):
            BatchPlan(sizes=(4, 4), drop_last=True)
        with pytest.raises(ValueError):
            BatchPlan(sizes=(4, 4), order="shuffled")
        with pytest.raises(ValueError):
            BatchPlan(batch_size=4, order="random")
        with pytest.raises(ValueError):
            BatchPlan(batch_size=4, order="fixed")  # missing permutation
        with pytest.raises(ValueError):
            BatchPlan(batch_size=4, permutation=rng.permutation(8))
        with pytest.raises(ValueError):
            BatchPlan(
                batch_size=4, order="fixed", permutation=np.arange(8).reshape(2, 4)
            )

    def test_plan_matches_legacy_flags(self, small_incomplete):
        # The retired spelling iterate_batches(ds, 32, order=perm,
        # yield_indices=True) sliced ``perm`` into blocks of 32 rows.
        n = small_incomplete.n_samples
        perm = np.random.default_rng(3).permutation(n)
        legacy = [perm[start : start + 32] for start in range(0, n, 32)]
        plan = BatchPlan(
            batch_size=32, order="fixed", permutation=perm, yield_indices=True
        )
        planned = list(iterate_batches(small_incomplete, plan))
        assert len(legacy) == len(planned)
        for li, (pv, pm, pi) in zip(legacy, planned):
            assert np.array_equal(li, pi)
            assert np.array_equal(
                np.nan_to_num(small_incomplete.values[li]), np.nan_to_num(pv)
            )
            assert np.array_equal(small_incomplete.mask[li], pm)

    def test_shuffled_plan_matches_legacy_shuffle(self, small_incomplete):
        # The retired spelling iterate_batches(ds, 32, rng) drew one
        # permutation from ``rng`` and sliced it into blocks of 32 rows.
        n = small_incomplete.n_samples
        perm = np.random.default_rng(5).permutation(n)
        legacy = [small_incomplete.values[perm[s : s + 32]] for s in range(0, n, 32)]
        planned = list(
            iterate_batches(
                small_incomplete,
                BatchPlan(batch_size=32, order="shuffled"),
                np.random.default_rng(5),
            )
        )
        assert len(legacy) == len(planned)
        for lv, (pv, _) in zip(legacy, planned):
            assert np.array_equal(np.nan_to_num(lv), np.nan_to_num(pv))

    def test_plan_plus_legacy_flags_raise(self, small_incomplete, rng):
        # The flag spelling is retired: a plan is the one way to partition.
        plan = BatchPlan(batch_size=8)
        with pytest.raises(TypeError):
            list(iterate_batches(small_incomplete, 8, plan=plan))
        with pytest.raises(TypeError):
            list(iterate_batches(small_incomplete))
        with pytest.raises(TypeError, match="plan must be a BatchPlan"):
            list(iterate_batches(small_incomplete, 32, rng))

    def test_fixed_permutation_must_cover_all_rows(self, small_incomplete):
        plan = BatchPlan(batch_size=8, order="fixed", permutation=np.arange(3))
        with pytest.raises(ValueError):
            list(iterate_batches(small_incomplete, plan))


class TestCsvIO:
    def test_roundtrip(self, toy, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(toy, path)
        loaded = read_csv(path)
        assert np.array_equal(np.isnan(loaded.values), np.isnan(toy.values))
        observed = ~np.isnan(toy.values)
        assert np.allclose(loaded.values[observed], toy.values[observed])
        assert loaded.feature_names == toy.feature_names

    def test_missing_tokens(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,NA,3\n?,nan,6\n")
        loaded = read_csv(path)
        assert np.isnan(loaded.values[0, 1])
        assert np.isnan(loaded.values[1, 0])
        assert loaded.values[1, 2] == 6.0

    def test_ragged_rows_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_header_only_raises(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_no_header_mode(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,2\n3,4\n")
        loaded = read_csv(path, has_header=False)
        assert loaded.shape == (2, 2)
