"""repro.parallel: execution contexts, spawn-key seeding, obs-trace merging,
and the serial/process parity gates for every call site that fans out."""

import os
import zlib

import numpy as np
import pytest

from repro.core import DIM, DimConfig, SSE, SseConfig
from repro.data import holdout_split
from repro.models import GAINImputer
from repro.obs import recording
from repro.ot import SinkhornConfig
from repro.parallel import (
    ExecutionContext,
    assert_backend_parity,
    available_cpus,
    derive_entropy,
    domain_key,
    env_workers,
    run_with_backend,
    spawn_rng,
    spawn_rngs,
)

WORKER_COUNTS = sorted({1, 2, available_cpus()})


def _square_tasks(n=5):
    return [lambda i=i: i * i for i in range(n)]


class TestExecutionContext:
    def test_invalid_backend_raises(self):
        with pytest.raises(ValueError):
            ExecutionContext(backend="threads")

    def test_invalid_workers_raises(self):
        with pytest.raises(ValueError):
            ExecutionContext(backend="process", workers=0)

    def test_empty_task_list(self):
        assert ExecutionContext("process", workers=2).run([]) == []

    def test_serial_preserves_order(self):
        assert ExecutionContext("serial").run(_square_tasks()) == [0, 1, 4, 9, 16]

    def test_process_preserves_order(self):
        assert ExecutionContext("process", workers=2).run(_square_tasks()) == [
            0, 1, 4, 9, 16,
        ]

    def test_single_task_runs_in_calling_process(self):
        # One task never justifies a fork; the result must come from our pid.
        results = ExecutionContext("process", workers=2).run([os.getpid])
        assert results == [os.getpid()]

    def test_multiple_tasks_fork_real_workers(self):
        pids = ExecutionContext("process", workers=2).run([os.getpid] * 4)
        assert all(pid != os.getpid() for pid in pids)

    def test_task_exception_propagates(self):
        tasks = [lambda: 1, lambda: 1 // 0]
        with pytest.raises(ZeroDivisionError):
            ExecutionContext("process", workers=2).run(tasks)
        with pytest.raises(ZeroDivisionError):
            ExecutionContext("serial").run(tasks)

    def test_unpicklable_exception_is_wrapped(self):
        class Unpicklable(Exception):
            def __init__(self):
                super().__init__("boom")
                self.payload = lambda: None  # lambdas never pickle

        def explode():
            raise Unpicklable()

        with pytest.raises(RuntimeError, match="Unpicklable"):
            ExecutionContext("process", workers=2).run([explode, explode])

    def test_closures_over_arrays_work(self):
        data = np.arange(12.0).reshape(3, 4)
        tasks = [lambda row=row: float(data[row].sum()) for row in range(3)]
        assert ExecutionContext("process", workers=2).run(tasks) == [
            6.0, 22.0, 38.0,
        ]


class TestFromEnv:
    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert ExecutionContext.from_env().backend == "serial"
        assert env_workers() == 0

    def test_env_two_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        context = ExecutionContext.from_env()
        assert context.backend == "process"
        assert context.workers == 2

    def test_env_one_stays_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert ExecutionContext.from_env().backend == "serial"

    def test_garbage_env_stays_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "plenty")
        assert env_workers() == 0
        assert ExecutionContext.from_env().backend == "serial"

    def test_explicit_workers_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        context = ExecutionContext.from_env(workers=1)
        assert context.backend == "serial"
        context = ExecutionContext.from_env(workers=3)
        assert context.workers == 3

    def test_resolved_workers_falls_back_to_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert ExecutionContext("process").resolved_workers() == available_cpus()
        assert ExecutionContext("process", workers=5).resolved_workers() == 5


class TestFallback:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        context = ExecutionContext("process", workers=2)
        monkeypatch.setattr(
            context,
            "_run_pool",
            lambda *a, **k: (_ for _ in ()).throw(OSError("fork refused")),
        )
        with recording() as rec:
            assert context.run(_square_tasks(3), label="unit") == [0, 1, 4]
        trace = rec.to_dict()
        events = [e for e in trace["events"] if e["name"] == "parallel.fallback"]
        assert len(events) == 1
        assert events[0]["fields"]["label"] == "unit"
        assert "fork refused" in events[0]["fields"]["reason"]
        assert trace["metrics"]["counters"]["parallel.fallbacks"] == 1.0

    def test_nested_pools_degrade_gracefully(self):
        # Daemonic pool workers cannot fork their own pools; the inner
        # context must detect the failure and run serially instead.
        def nested():
            inner = ExecutionContext("process", workers=2)
            return inner.run(_square_tasks(3), label="inner")

        outer = ExecutionContext("process", workers=2)
        assert outer.run([nested, nested]) == [[0, 1, 4], [0, 1, 4]]


class TestObsMerge:
    @staticmethod
    def _tasks():
        from repro.obs import get_recorder

        def work(i):
            recorder = get_recorder()
            recorder.inc("unit.count")
            recorder.observe("unit.hist", float(i))
            recorder.set_gauge("unit.gauge", float(i))
            recorder.emit("unit.evt", index=i)
            return i

        return [lambda i=i: work(i) for i in range(4)]

    def _trace(self, backend, workers=None):
        with recording() as rec:
            results = ExecutionContext(backend, workers=workers).run(
                self._tasks(), label="unit"
            )
        assert results == [0, 1, 2, 3]
        return rec.to_dict()

    def test_child_counters_events_and_moments_merge(self):
        serial = self._trace("serial")
        process = self._trace("process", workers=2)
        assert (
            process["metrics"]["counters"]["unit.count"]
            == serial["metrics"]["counters"]["unit.count"]
            == 4.0
        )
        serial_hist = serial["metrics"]["histograms"]["unit.hist"]
        process_hist = process["metrics"]["histograms"]["unit.hist"]
        for moment in ("count", "total", "mean", "min", "max", "p50", "p99"):
            assert process_hist[moment] == serial_hist[moment]
        assert [
            e["fields"]["index"] for e in process["events"] if e["name"] == "unit.evt"
        ] == [0, 1, 2, 3]

    def test_batch_event_reports_backend(self):
        process = self._trace("process", workers=2)
        batch = [e for e in process["events"] if e["name"] == "parallel.tasks"]
        assert len(batch) == 1
        assert batch[0]["fields"]["backend"] == "process"
        assert batch[0]["fields"]["n_tasks"] == 4


class TestSeeding:
    def test_spawn_rng_deterministic(self):
        a = spawn_rng(7, "unit", 3, 1).random(5)
        b = spawn_rng(7, "unit", 3, 1).random(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = spawn_rng(7, "unit", 0).random(5)
        b = spawn_rng(7, "unit", 1).random(5)
        assert not np.array_equal(a, b)

    def test_distinct_domains_distinct_streams(self):
        a = spawn_rng(7, "sse.pass_probability", 0).random(5)
        b = spawn_rng(7, "ot.chunked_divergence", 0).random(5)
        assert not np.array_equal(a, b)

    def test_domain_key_is_crc32(self):
        assert domain_key("sse.pass_probability") == zlib.crc32(
            b"sse.pass_probability"
        )

    def test_spawn_rngs_match_individual_spawns(self):
        batch = spawn_rngs(7, "unit", 3, 9)
        for i, rng in enumerate(batch):
            assert np.array_equal(
                rng.random(4), spawn_rng(7, "unit", 9, i).random(4)
            )

    def test_derive_entropy_deterministic_single_draw(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        assert derive_entropy(rng_a) == derive_entropy(rng_b)
        # Exactly one draw consumed: the streams stay in lockstep.
        assert rng_a.random() == rng_b.random()


class TestParityHarness:
    def test_deterministic_tasks_pass(self):
        def factory():
            return [
                lambda i=i: float(spawn_rng(3, "unit", i).normal()) for i in range(6)
            ]

        reference = assert_backend_parity(factory, worker_counts=WORKER_COUNTS)
        assert len(reference) == 6

    def test_nondeterministic_tasks_fail(self):
        # Worker pids differ from the parent pid, so the harness must flag
        # any task whose answer depends on where it ran.
        with pytest.raises(AssertionError, match="parity mismatch"):
            assert_backend_parity(
                lambda: [os.getpid, os.getpid], worker_counts=(2,)
            )

    def test_tolerance_modes(self):
        shift = {"serial": 0.0}

        def factory():
            # First build (serial reference) returns 0.0; later builds 1e-12.
            offset = shift["serial"]
            shift["serial"] = 1e-12
            return [lambda: offset]

        with pytest.raises(AssertionError):
            assert_backend_parity(factory, worker_counts=(2,))
        shift["serial"] = 0.0
        assert_backend_parity(factory, worker_counts=(2,), atol=1e-9)

    def test_structural_comparison_covers_nested_payloads(self):
        def factory():
            return [
                lambda: {
                    "arr": np.arange(3.0),
                    "seq": [1, (2.0, 3)],
                    "scalar": 0.5,
                }
            ]

        assert_backend_parity(factory, worker_counts=(2,))

    def test_run_with_backend_returns_results(self):
        assert run_with_backend(lambda: _square_tasks(3), "serial") == [0, 1, 4]


@pytest.fixture(scope="module")
def sse_setup():
    """A lightly-trained GAIN plus splits for the SSE parity gates."""
    rng = np.random.default_rng(12345)
    from repro.data import IncompleteDataset, MinMaxNormalizer, ampute

    latent = rng.normal(size=(400, 2))
    full = latent @ rng.normal(size=(2, 6)) + 0.05 * rng.normal(size=(400, 6))
    ds = MinMaxNormalizer().fit_transform(
        ampute(IncompleteDataset(full, name="small"), 0.3, "mcar", rng)
    )
    holdout = holdout_split(ds, 0.2, rng)
    split = holdout.train.split_validation_initial(80, 80, rng)
    model = GAINImputer(seed=0)
    DIM(DimConfig(epochs=6)).train(model, split.initial, rng)
    return model, split


def _make_sse(sse_setup, context, seed=99, error_bound=0.02):
    model, split = sse_setup
    sse = SSE(
        model,
        split.validation.values,
        split.validation.mask,
        SseConfig(error_bound=error_bound),
        rng=np.random.default_rng(0),
        seed=seed,
        context=context,
    )
    sse.prepare(split.initial.values, split.initial.mask)
    return sse


@pytest.mark.parallel
class TestSseParity:
    def test_minimum_size_identical_across_backends(self, sse_setup):
        reference = _make_sse(sse_setup, ExecutionContext("serial"))
        expected = reference.estimate_minimum_size(80, 400)
        for workers in WORKER_COUNTS:
            candidate = _make_sse(
                sse_setup, ExecutionContext("process", workers=workers)
            )
            result = candidate.estimate_minimum_size(80, 400)
            assert result.minimum_size == expected.minimum_size
            assert result.n_star == expected.n_star
            assert result.evaluations == expected.evaluations

    def test_repro_workers_env_matches_serial(self, sse_setup, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        via_env = _make_sse(sse_setup, None)
        assert via_env.context.backend == "process"
        monkeypatch.delenv("REPRO_WORKERS")
        serial = _make_sse(sse_setup, None)
        assert serial.context.backend == "serial"
        assert (
            via_env.estimate_minimum_size(80, 400).n_star
            == serial.estimate_minimum_size(80, 400).n_star
        )

    def test_pass_probability_call_order_invariant(self, sse_setup):
        # Regression: pass_probability used to consume the shared generator
        # sequentially, so evaluating n=100 before n=300 changed the n=300
        # answer.  Spawn-key streams make each n a pure function of the seed.
        forward = _make_sse(sse_setup, ExecutionContext("serial"))
        p_small = forward.pass_probability(100, 80, 400, 6)
        p_large = forward.pass_probability(300, 80, 400, 6)
        backward = _make_sse(sse_setup, ExecutionContext("serial"))
        q_large = backward.pass_probability(300, 80, 400, 6)
        q_small = backward.pass_probability(100, 80, 400, 6)
        assert p_small == q_small
        assert p_large == q_large

    def test_pass_probability_backend_parity(self, sse_setup):
        serial = _make_sse(sse_setup, ExecutionContext("serial"))
        process = _make_sse(sse_setup, ExecutionContext("process", workers=2))
        for n in (100, 250, 390):
            assert serial.pass_probability(n, 80, 400, 6) == process.pass_probability(
                n, 80, 400, 6
            )

    def test_distinct_seeds_distinct_sampling(self, sse_setup):
        a = _make_sse(sse_setup, ExecutionContext("serial"), seed=1)
        b = _make_sse(sse_setup, ExecutionContext("serial"), seed=2)
        probs_a = [a.pass_probability(n, 80, 4000, 6) for n in (200, 400, 800)]
        probs_b = [b.pass_probability(n, 80, 4000, 6) for n in (200, 400, 800)]
        assert probs_a != probs_b


@pytest.mark.parallel
class TestBenchParity:
    def test_smoke_bench_rmse_table_identical(self):
        from repro.bench.runner import run_smoke_bench

        reference = run_smoke_bench(
            n_samples=64, epochs=1, context=ExecutionContext("serial")
        )
        expected = [(r.method, r.dataset, r.rmse_mean, r.sample_rate) for r in reference]
        for workers in WORKER_COUNTS:
            candidate = run_smoke_bench(
                n_samples=64,
                epochs=1,
                context=ExecutionContext("process", workers=workers),
            )
            assert [
                (r.method, r.dataset, r.rmse_mean, r.sample_rate) for r in candidate
            ] == expected

    def test_comparison_merges_bench_telemetry(self):
        from repro.bench.runner import run_smoke_bench

        with recording() as rec:
            results = run_smoke_bench(
                n_samples=64, epochs=1, context=ExecutionContext("process", workers=2)
            )
        trace = rec.to_dict()
        assert trace["metrics"]["counters"]["bench.runs"] == float(len(results))
        bench_events = [e for e in trace["events"] if e["name"] == "bench.result"]
        # Absorbed in submission order: the event order matches the table.
        assert [e["fields"]["method"] for e in bench_events] == [
            r.method for r in results
        ]


class TestChunkedDivergence:
    @pytest.fixture()
    def cloud(self, rng):
        n, d = 40, 5
        x = rng.random((n, d))
        x_bar = x + 0.1 * rng.normal(size=(n, d))
        mask = (rng.random((n, d)) > 0.3).astype(float)
        return x_bar, x, mask

    def test_single_chunk_equals_plain_divergence(self, cloud):
        from repro.ot import (
            chunked_masking_sinkhorn_divergence,
            masking_sinkhorn_divergence,
        )

        x_bar, x, mask = cloud
        assert chunked_masking_sinkhorn_divergence(
            x_bar, x, mask, SinkhornConfig(reg=0.5), chunk_size=len(x)
        ) == masking_sinkhorn_divergence(x_bar, x, mask, SinkhornConfig(reg=0.5))

    def test_backend_parity(self, cloud):
        from repro.ot import chunked_masking_sinkhorn_divergence

        x_bar, x, mask = cloud
        values = {
            backend: chunked_masking_sinkhorn_divergence(
                x_bar, x, mask, SinkhornConfig(reg=0.5), chunk_size=16,
                context=ExecutionContext(backend, workers=2 if backend == "process" else None),
            )
            for backend in ("serial", "process")
        }
        assert values["serial"] == values["process"]

    def test_weighted_average_of_chunks(self, cloud):
        from repro.ot import (
            chunked_masking_sinkhorn_divergence,
            masking_sinkhorn_divergence,
        )

        x_bar, x, mask = cloud
        n = len(x)
        bounds = [(0, 16), (16, 32), (32, 40)]
        manual = sum(
            (stop - start)
            * masking_sinkhorn_divergence(
                x_bar[start:stop], x[start:stop], mask[start:stop],
                SinkhornConfig(reg=0.5),
            )
            for start, stop in bounds
        ) / n
        chunked = chunked_masking_sinkhorn_divergence(
            x_bar, x, mask, SinkhornConfig(reg=0.5), chunk_size=16
        )
        assert chunked == pytest.approx(manual, abs=1e-15)

    def test_invalid_inputs_raise(self, cloud):
        from repro.ot import chunked_masking_sinkhorn_divergence

        x_bar, x, mask = cloud
        cfg = SinkhornConfig(reg=0.5)
        with pytest.raises(ValueError):
            chunked_masking_sinkhorn_divergence(x_bar, x, mask, cfg, chunk_size=0)
        with pytest.raises(ValueError):
            chunked_masking_sinkhorn_divergence(x_bar[:-1], x, mask, cfg)
        empty = np.zeros((0, 5))
        with pytest.raises(ValueError):
            chunked_masking_sinkhorn_divergence(empty, empty, empty, cfg)

    @pytest.mark.parametrize("chunk_size", [40, 16])
    def test_misshapen_mask_bar_raises_before_chunking(self, cloud, chunk_size):
        # An (n, 1) mask_bar used to broadcast into a per-chunking value; a
        # 1-D one failed inside a chunk task with an unnamed NumPy error.
        from repro.ot import chunked_masking_sinkhorn_divergence

        x_bar, x, mask = cloud
        cfg = SinkhornConfig(reg=0.5)
        for mask_bar in (mask[:, :1], mask[:, 0]):
            with pytest.raises(ValueError, match="mask_bar must have x's shape"):
                chunked_masking_sinkhorn_divergence(
                    x_bar, x, mask, cfg, chunk_size=chunk_size, mask_bar=mask_bar
                )
