"""Differential tests for OT-direct imputation (`SinkhornImputer`).

The suite pins the new model against its reference points: DIM on the same
smoke dataset (RMSE tolerance), the stacked round solve against one
``(3, n, n)`` solve per pair (bit parity), serial execution against the fork
pool (bit parity through the shared harness, even and uneven chunks), and
analytic against numerical gradients on the imputed-cell leaf parameters.
"""

import numpy as np
import pytest

from repro.bench.runner import prepare_case
from repro.core.dim import DimConfig, DimImputer
from repro.data import IncompleteDataset
from repro.models import GAINImputer, MeanImputer, SinkhornImputer, make_imputer
from repro.obs import recording
from repro.ot.cost import squared_euclidean_cost
from repro.ot.divergence import _solve_stack
from repro.parallel import ExecutionContext
from repro.parallel.testing import assert_backend_parity
from repro.serve.registry import ModelRegistry
from repro.tensor import check_gradients, no_grad


def _fast(seed=0, **overrides):
    """A quick-converging configuration for unit-level checks."""
    kwargs = dict(epochs=8, batch_size=16, mlp_epochs=3, seed=seed)
    kwargs.update(overrides)
    return SinkhornImputer(**kwargs)


@pytest.fixture
def tiny(rng):
    """A 64x5 correlated incomplete matrix in [0, 1]."""
    n, d = 64, 5
    latent = rng.normal(size=(n, 2))
    full = latent @ rng.normal(size=(2, d))
    full = (full - full.min(axis=0)) / (full.max(axis=0) - full.min(axis=0))
    mask = (rng.random((n, d)) > 0.3).astype(float)
    values = full.copy()
    values[mask == 0.0] = np.nan
    return IncompleteDataset(values, name="tiny")


class TestImputerContract:
    def test_fit_impute_shape_and_completeness(self, tiny):
        out = _fast().fit_impute(tiny)
        assert out.shape == tiny.values.shape
        assert np.isfinite(out).all()

    def test_observed_cells_byte_identical(self, tiny):
        out = _fast().fit_impute(tiny)
        observed = tiny.mask == 1.0
        assert np.array_equal(out[observed], tiny.values[observed])

    def test_transform_matches_fit_impute_on_training_data(self, tiny):
        model = _fast()
        direct = model.fit_impute(tiny)
        assert np.array_equal(model.transform(tiny), direct)

    def test_unfitted_raises(self, tiny):
        with pytest.raises(RuntimeError):
            _fast().transform(tiny)

    def test_generator_before_build_raises(self):
        with pytest.raises(RuntimeError):
            _fast().generator

    def test_out_of_sample_rows_use_the_mlp(self, tiny):
        model = _fast()
        model.fit(tiny)
        fresh = IncompleteDataset(
            np.array([[np.nan, 0.4, np.nan, 0.9, 0.1]]), name="fresh"
        )
        out = model.transform(fresh)
        assert np.isfinite(out).all()
        assert out[0, 1] == 0.4  # observed cells still pass through

    def test_without_mlp_out_of_sample_falls_back_to_column_means(self, tiny):
        model = _fast(fit_mlp=False)
        model.fit(tiny)
        fresh = IncompleteDataset(
            np.array([[np.nan, 0.4, np.nan, 0.9, 0.1]]), name="fresh"
        )
        out = model.transform(fresh)
        means = np.nanmean(tiny.values, axis=0)
        assert out[0, 0] == pytest.approx(means[0])

    def test_complete_matrix_is_a_no_op(self, rng):
        values = rng.random((16, 3))
        dataset = IncompleteDataset(values, name="complete")
        out = _fast().fit_impute(dataset)
        assert np.array_equal(out, values)

    def test_too_few_rows_raises(self):
        dataset = IncompleteDataset(np.array([[1.0, np.nan], [0.5, 0.2]]))
        with pytest.raises(ValueError, match="at least 4 rows"):
            _fast().fit(dataset)

    def test_ctor_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            SinkhornImputer(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            SinkhornImputer(batch_size=1)
        with pytest.raises(ValueError, match="pairs_per_round"):
            SinkhornImputer(pairs_per_round=0)
        with pytest.raises(ValueError, match="policy"):
            SinkhornImputer(on_divergence="explode")

    def test_registered_by_name(self):
        model = make_imputer("otdirect", epochs=2)
        assert isinstance(model, SinkhornImputer)
        assert model.name == "otdirect"

    def test_adversarial_step_is_a_no_op(self, tiny, rng):
        model = _fast()
        model.fit(tiny)
        assert model.adversarial_step(tiny.values, tiny.mask, rng) == {}


class TestDifferentialVsDim:
    def test_rmse_within_tolerance_of_dim_on_smoke_case(self):
        """OT-direct must land in the same quality band as DIM-trained GAIN."""
        case = prepare_case("trial", n_samples=96, seed=0)
        dim = DimImputer(
            GAINImputer(epochs=2, seed=0),
            config=DimConfig(
                epochs=2, batch_size=32, sinkhorn_max_iter=50, use_adversarial=False
            ),
            seed=0,
        )
        ot = SinkhornImputer(
            epochs=20, batch_size=32, sinkhorn_max_iter=50, mlp_epochs=2, seed=0
        )
        dim_rmse = case.holdout.rmse(dim.fit_transform(case.train))
        ot_rmse = case.holdout.rmse(ot.fit_transform(case.train))
        assert ot_rmse <= dim_rmse + 0.1
        # and it must genuinely descend: better than untrained initialisation
        mean_rmse = case.holdout.rmse(MeanImputer().fit_transform(case.train))
        assert ot_rmse < mean_rmse + 0.05

    def test_loss_decreases_over_training(self, tiny):
        model = _fast(epochs=12)
        model.fit(tiny)
        losses = model.report.losses
        assert len(losses) == 12
        assert losses[-1] < losses[0]


def _assert_solver_parity(a, b):
    """Bit parity on the NumPy backend; the repo-wide 1e-8 bound elsewhere.

    A problem's iterates do not depend on the rest of its stack, so stacks
    of different sizes are bit-identical under NumPy (the CI
    backend-matrix job also runs this file under ``array_api_strict``,
    where last-bit reduction order may differ — the same tolerance
    `tests/test_ot_batched.py` uses).
    """
    from repro.tensor.backend import get_backend

    if get_backend().name == "numpy":
        assert np.array_equal(a, b)
    else:
        np.testing.assert_allclose(a, b, atol=1e-8)


def _per_pair_oracle(model, i, j):
    """One pair's (loss, grad, duals) from its own ``(3, n, n)`` solve.

    The reference for the round stack: the pair's three problems solved
    with nothing else in their stack.
    """
    index_i, index_j = model._batch_indices[i], model._batch_indices[j]
    with no_grad():
        x_i = model._gather(model._cells, index_i).data
        x_j = model._gather(model._cells, index_j).data
        init = model._duals.get((i, j)) if model._use_warm_start else None
        results = _solve_stack(
            [
                squared_euclidean_cost(x_i, x_j),
                squared_euclidean_cost(x_i, x_i),
                squared_euclidean_cost(x_j, x_j),
            ],
            model._sinkhorn_config,
            init=init,
        )
    model._cells.zero_grad()
    plans = tuple(r.plan for r in results)
    loss = model._assemble_divergence(model._cells, index_i, index_j, plans)
    loss.backward()
    duals = (np.stack([r.f for r in results]), np.stack([r.g for r in results]))
    return loss.item(), model._cells.grad.copy(), duals


class TestSolveParity:
    def test_round_stack_matches_per_pair_solves(self, tiny):
        """Cold, warm and partly warm round stacks equal per-pair solves.

        The oracle solves each pair's three problems as its own stack; a
        pair without stored duals starts cold in both.
        """
        model = _fast()
        model._prepare(tiny, np.random.default_rng(model.seed))
        pairs = model._round_pairs(0, len(model._batch_indices))
        n = model._batch_indices[0].size
        for start in ("cold", "warm", "partly warm"):
            if start == "partly warm":
                del model._duals[pairs[0]]
            assert (model._chunk_init(pairs, n) is None) == (start == "cold")
            expected = [_per_pair_oracle(model, i, j) for i, j in pairs]
            with recording() as records:
                stacked = model._solve_chunk(pairs)
            solves = [e for e in records.events if e.name == "sinkhorn.batched_solve"]
            assert [e.fields["stack"] for e in solves] == [3 * len(pairs)]
            assert len(stacked) == len(pairs)
            for (loss, grad, duals), (loss_ref, grad_ref, duals_ref) in zip(
                stacked, expected
            ):
                _assert_solver_parity(loss, loss_ref)
                _assert_solver_parity(grad, grad_ref)
                _assert_solver_parity(duals[0], duals_ref[0])
                _assert_solver_parity(duals[1], duals_ref[1])
            # Step the cells and store the duals, as a round does, so the
            # next pass warm-starts on moved cells.
            model._cells.grad = np.mean([grad for _, grad, _ in stacked], axis=0)
            model._optimizer.step()
            for key, (_, _, duals) in zip(pairs, stacked):
                model._duals[key] = duals

    def test_round_robin_schedule_covers_all_ordered_pairs(self):
        model = SinkhornImputer()
        for n_batches in (2, 3, 5):
            seen = set()
            for round_index in range(n_batches - 1):
                pairs = model._round_pairs(round_index, n_batches)
                assert len(pairs) == n_batches
                for i, j in pairs:
                    assert i != j
                    seen.add((i, j))
            assert seen == {
                (i, j) for i in range(n_batches) for j in range(n_batches) if i != j
            }

    def test_pairs_per_round_caps_the_schedule(self):
        model = SinkhornImputer(pairs_per_round=2)
        assert len(model._round_pairs(0, 6)) == 2


class TestParallelParity:
    @pytest.mark.parallel
    def test_pair_task_parity_through_shared_harness(self, tiny):
        """The per-chunk tasks (one stack each) are backend-invariant."""

        def tasks_factory():
            model = _fast()
            model._prepare(tiny, np.random.default_rng(model.seed))
            pairs = model._round_pairs(0, len(model._batch_indices))
            return model._make_chunk_tasks(pairs, 3)

        assert_backend_parity(tasks_factory, label="otdirect.pairs")

    @pytest.mark.parallel
    def test_whole_fit_serial_vs_fork_bit_parity(self, tiny):
        """Serial (one stack a round) equals fork chunks, even and uneven.

        The tiny table has 4 batches, so 4 pairs a round: 2 workers give
        chunks of 2 + 2 pairs, 3 workers give 2 + 1 + 1.
        """
        with recording() as records:
            serial = _fast(context=ExecutionContext("serial")).fit_impute(tiny)
        assert _round_task_counts(records) == {1}
        for workers in (2, 3):
            context = ExecutionContext("process", workers=workers)
            with recording() as records:
                forked = _fast(context=context).fit_impute(tiny)
            assert _round_task_counts(records) == {workers}
            assert np.array_equal(serial, forked)


def _round_task_counts(records):
    """The set of task counts over every round's ``otdirect.pairs`` batch."""
    return {
        e.fields["n_tasks"]
        for e in records.events
        if e.name == "parallel.tasks" and e.fields["label"] == "otdirect.pairs"
    }


class TestGradcheck:
    def test_imputed_cell_gradients_match_finite_differences(self, tiny):
        """Gradcheck the envelope-theorem loss at the cell leaf parameters.

        The plans are held fixed (exactly what `_assemble_divergence` does),
        so the assembled divergence is a smooth function of the cells and
        central differences must match the analytic gradient.
        """
        model = _fast()
        model._prepare(tiny, np.random.default_rng(0))
        index_i, index_j = model._batch_indices[0], model._batch_indices[1]
        with no_grad():
            x_i = model._gather(model._cells, index_i).data
            x_j = model._gather(model._cells, index_j).data
            results = _solve_stack(
                [
                    squared_euclidean_cost(x_i, x_j),
                    squared_euclidean_cost(x_i, x_i),
                    squared_euclidean_cost(x_j, x_j),
                ],
                model._sinkhorn_config,
            )
        plans = (results[0].plan, results[1].plan, results[2].plan)
        check_gradients(
            lambda cells: model._assemble_divergence(cells, index_i, index_j, plans),
            [model._cells],
            atol=1e-6,
            rtol=1e-4,
        )


class TestRegistryRoundTrip:
    def test_save_load_impute_bit_identity(self, tiny, tmp_path):
        model = _fast()
        model.fit(tiny)
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.save(model, dataset=tiny)  # validate=True probes it
        loaded = registry.load(entry.key)
        fresh = IncompleteDataset(
            np.array(
                [
                    [np.nan, 0.4, np.nan, 0.9, 0.1],
                    [0.2, np.nan, 0.5, np.nan, np.nan],
                ]
            ),
            name="fresh",
        )
        ours = model.transform(fresh)
        theirs = loaded.model.transform(fresh)
        assert np.array_equal(ours, theirs)

    def test_transductive_only_model_is_not_persistable(self, tiny, tmp_path):
        from repro.serve.registry import RegistryError

        model = _fast(fit_mlp=False)
        model.fit(tiny)
        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises((RegistryError, RuntimeError)):
            registry.save(model, dataset=tiny)


class _NanLossImputer(SinkhornImputer):
    """Deterministically injects a NaN round loss to exercise the watchdog."""

    def _pair_step(self, index_i, index_j, solved):
        loss, grad, duals = super()._pair_step(index_i, index_j, solved)
        return float("nan"), grad, duals


class TestHealthPolicy:
    def test_halt_policy_stops_training(self, tiny):
        model = _NanLossImputer(
            epochs=10, batch_size=16, seed=0, fit_mlp=False, on_divergence="halt"
        )
        model.fit(tiny)
        assert model.report.halted
        assert model.report.rounds == 1
        assert model.health_verdict == "nan"

    def test_warn_policy_keeps_going(self, tiny):
        model = _NanLossImputer(
            epochs=5, batch_size=16, seed=0, fit_mlp=False, on_divergence="warn"
        )
        model.fit(tiny)
        assert not model.report.halted
        assert model.report.rounds == 5
        assert model.health_verdict == "nan"


class TestTelemetry:
    def test_otdirect_events_fire_under_recording(self, tiny):
        with recording() as records:
            _fast().fit(tiny)
        names = {event.name for event in records.events}
        assert "otdirect.round" in names
        assert "otdirect.fit" in names
        assert "otdirect.mlp_epoch" in names
        fit_events = [e for e in records.events if e.name == "otdirect.fit"]
        assert fit_events[0].fields["rounds"] == 8
        assert fit_events[0].fields["health_verdict"] == "healthy"

    def test_fit_is_silent_without_a_recorder(self, tiny):
        # The no-op recorder contract: no events, no errors, same answer.
        silent = _fast().fit_impute(tiny)
        with recording():
            recorded = _fast().fit_impute(tiny)
        assert np.array_equal(silent, recorded)
