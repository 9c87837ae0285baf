"""Observability layer: registry semantics, spans, recorders, exporters,
and the instrumentation contract wired through DIM / Sinkhorn / optimisers."""

import csv
import io
import json
import os

import numpy as np
import pytest

from repro.core import DIM, DimConfig
from repro.data import MinMaxNormalizer, generate
from repro.models import GAINImputer
from repro.obs import (
    Counter,
    Event,
    Gauge,
    Histogram,
    InMemoryRecorder,
    MetricsRegistry,
    NullRecorder,
    current_trace,
    events_to_csv,
    get_recorder,
    load_trace,
    recording,
    set_recorder,
    span,
    summarize_trace,
    trace_to_dict,
    write_csv_events,
    write_json_trace,
)
from repro.optim import Adam
from repro.ot import SinkhornConfig, sinkhorn


class TestRegistry:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_last_value(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_moments_exact(self):
        hist = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(v)
        assert hist.count == 4
        assert hist.total == 10.0
        assert hist.min == 1.0 and hist.max == 4.0
        assert hist.mean == 2.5
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_histogram_digest_bounds_memory(self):
        hist = Histogram("h")
        for v in range(1000):
            hist.observe(float(v))
        assert hist.count == 1000  # exact even past the digest bound
        assert hist.total == float(sum(range(1000)))
        assert hist.min == 0.0 and hist.max == 999.0
        assert len(hist.digest._centroids) <= hist.digest.max_centroids

    def test_histogram_exact_up_to_digest_bound(self):
        hist = Histogram("h")
        values = [float((v * 37) % 101) for v in range(hist.digest.max_centroids)]
        for v in values:
            hist.observe(v)
        ordered = sorted(values)
        n = len(ordered)
        # Below the bound every observation is its own centroid, so each
        # quantile interpolates between two adjacent order statistics.
        for q in (50.0, 90.0, 95.0, 99.0):
            rank = q / 100.0 * n - 0.5
            lo = ordered[max(0, int(rank))]
            hi = ordered[min(n - 1, int(rank) + 1)]
            assert lo <= hist.percentile(q) <= hi, q

    @pytest.mark.parametrize("order", ["nan_first", "nan_middle"])
    def test_histogram_ignores_nonfinite_in_any_order(self, order):
        stream = {
            "nan_first": [float("nan"), 1.0, 2.0],
            "nan_middle": [1.0, float("nan"), 2.0],
        }[order]
        hist = Histogram("h")
        for v in stream + [float("inf")]:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 2 and summary["nonfinite"] == 2
        assert summary["total"] == 3.0 and summary["mean"] == 1.5
        assert summary["min"] == 1.0 and summary["max"] == 2.0
        assert summary["p50"] == 1.5

    def test_histogram_absorb_sums_nonfinite(self):
        parent, child = InMemoryRecorder(), InMemoryRecorder()
        parent.observe("loss", float("nan"))
        child.observe("loss", 2.0)
        child.observe("loss", float("-inf"))
        parent.absorb(child.to_dict(include_samples=True))
        merged = parent.metrics.histogram("loss")
        assert merged.nonfinite == 2
        assert merged.count == 1 and merged.mean == 2.0
        assert merged.percentile(50.0) == 2.0

    def test_histogram_merge_rank_error_bounded(self):
        """4×500 observations merged through child traces keep p50/p99
        within 0.02 rank of the exact quantiles of the pooled stream."""
        parent = InMemoryRecorder()
        pooled = []
        for part in range(4):
            child = InMemoryRecorder()
            for i in range(500):
                value = float(((i * 7919 + part * 104729) % 10007) ** 1.5)
                child.observe("h", value)
                pooled.append(value)
            parent.absorb(child.to_dict(include_samples=True))
        merged = parent.metrics.histogram("h")
        assert merged.count == 2000
        ordered = sorted(pooled)
        for q in (50.0, 99.0):
            estimate = merged.percentile(q)
            rank = sum(v <= estimate for v in ordered) / len(ordered)
            assert abs(rank - q / 100.0) <= 0.02, (q, rank)

    def test_histogram_percentiles_stable_across_hash_seeds(self):
        """Histogram quantiles come from a digest with no RNG, so they must
        not depend on PYTHONHASHSEED."""
        import subprocess
        import sys

        script = (
            "from repro.obs import Histogram\n"
            "h = Histogram('span.dim.epoch.seconds')\n"
            "for v in range(1000):\n"
            "    h.observe(float(v))\n"
            "print(h.percentile(50), h.percentile(90), h.percentile(99))\n"
        )
        outputs = set()
        for seed in ("0", "1", "424242"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, f"quantiles vary with hash seed: {outputs}"

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_registry_rejects_cross_type_reuse(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")
        with pytest.raises(ValueError):
            registry.histogram("name")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(7.0)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1


class TestRecorderLifecycle:
    def test_default_recorder_is_null_and_disabled(self):
        recorder = get_recorder()
        assert isinstance(recorder, NullRecorder)
        assert recorder.enabled is False

    def test_recording_attaches_and_restores(self):
        before = get_recorder()
        with recording() as rec:
            assert get_recorder() is rec
            assert rec.enabled
        assert get_recorder() is before

    def test_recording_restores_on_exception(self):
        before = get_recorder()
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert get_recorder() is before

    def test_set_recorder_returns_previous(self):
        rec = InMemoryRecorder()
        previous = set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            set_recorder(previous)

    def test_emit_collects_events_with_timestamps(self):
        rec = InMemoryRecorder()
        rec.emit("a", x=1)
        rec.emit("b", y="s")
        assert [e.name for e in rec.events] == ["a", "b"]
        assert rec.events[0].fields == {"x": 1}
        assert rec.events[0].t <= rec.events[1].t

    def test_max_events_drops_and_counts(self):
        rec = InMemoryRecorder(max_events=2)
        for i in range(5):
            rec.emit("e", i=i)
        assert len(rec.events) == 2
        assert rec.dropped_events == 3
        assert rec.to_dict()["dropped_events"] == 3

    def test_noop_path_allocates_nothing(self):
        """The overhead guarantee: a disabled recorder stores no state."""
        null = NullRecorder()
        null.emit("never", x=1)
        null.inc("c")
        null.observe("h", 1.0)
        null.set_gauge("g", 2.0)
        assert null.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_instrumented_code_emits_nothing_when_disabled(self):
        cost = np.random.default_rng(0).random((6, 6))
        result = sinkhorn(cost, SinkhornConfig(reg=1.0))
        # a fresh recorder attached *after* the call saw none of it
        with recording() as rec:
            pass
        assert rec.events == []
        assert result.converged  # the solve itself still worked


class TestSpans:
    def test_trace_disabled_is_noop(self):
        with span("outer") as ctx:
            pass  # no recorder attached: must not raise or record anything
        assert ctx is None
        assert current_trace() is None

    def test_span_event_and_histogram(self):
        with recording() as rec:
            with span("solve", extra="tag") as ctx:
                pass
        spans = [e for e in rec.events if e.name == "span"]
        assert len(spans) == 1
        fields = spans[0].fields
        assert fields["span"] == "solve"
        assert fields["trace_id"] == ctx.trace_id
        assert fields["span_id"] == ctx.span_id
        assert fields["parent_span_id"] is None
        assert fields["extra"] == "tag"
        assert fields["seconds"] >= 0.0
        assert fields["start"] >= 0.0
        assert rec.metrics.histogram("span.solve.seconds").count == 1

    def test_span_nesting_depth_and_parent(self):
        with recording() as rec:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        spans = [e.fields for e in rec.events if e.name == "span"]
        inner = [s for s in spans if s["span"] == "inner"]
        outer = [s for s in spans if s["span"] == "outer"]
        assert len(inner) == 2 and len(outer) == 1
        assert outer[0]["parent_span_id"] is None
        assert all(s["parent_span_id"] == outer[0]["span_id"] for s in inner)
        assert inner[0]["span_id"] != inner[1]["span_id"]
        assert {s["trace_id"] for s in spans} == {outer[0]["trace_id"]}
        # inner spans close before (and are recorded before) the outer one
        assert rec.metrics.histogram("span.inner.seconds").count == 2

    def test_span_restores_stack_on_exception(self):
        with recording() as rec:
            with pytest.raises(ValueError):
                with span("outer"):
                    raise ValueError("boom")
            with span("after"):
                pass
        spans = {e.fields["span"]: e.fields for e in rec.events if e.name == "span"}
        assert spans["after"]["parent_span_id"] is None
        assert spans["after"]["trace_id"] != spans["outer"]["trace_id"]

    def test_deep_raise_unwinds_every_stack_level(self):
        # A raise three levels down must restore every ambient context — a
        # later span at top level roots a fresh trace, not a leaked lineage.
        with recording() as rec:
            with pytest.raises(RuntimeError):
                with span("a"):
                    with span("b"):
                        with span("c"):
                            raise RuntimeError("boom")
            assert current_trace() is None
            with span("after"):
                pass
        spans = {e.fields["span"]: e.fields for e in rec.events if e.name == "span"}
        # Every abandoned span still closed (emitted) with its true lineage.
        assert spans["c"]["parent_span_id"] == spans["b"]["span_id"]
        assert spans["b"]["parent_span_id"] == spans["a"]["span_id"]
        assert spans["a"]["parent_span_id"] is None
        assert spans["a"]["trace_id"] == spans["b"]["trace_id"] == spans["c"]["trace_id"]
        assert spans["after"]["parent_span_id"] is None
        assert spans["after"]["trace_id"] != spans["a"]["trace_id"]


class TestAbsorbEdgeCases:
    """Folding a child recorder's trace into a parent with clashing names."""

    def test_counter_collision_sums(self):
        parent, child = InMemoryRecorder(), InMemoryRecorder()
        parent.inc("shared.count", 2)
        child.inc("shared.count", 3)
        child.inc("child.only", 1)
        parent.absorb(child.to_dict())
        assert parent.metrics.counter("shared.count").value == 5
        assert parent.metrics.counter("child.only").value == 1

    def test_gauge_collision_takes_child_value_unless_unset(self):
        parent, child = InMemoryRecorder(), InMemoryRecorder()
        parent.set_gauge("shared.gauge", 1.0)
        child.set_gauge("shared.gauge", 7.0)
        child.metrics.gauge("unset.gauge")  # created but never set
        parent.set_gauge("unset.gauge", 4.0)
        parent.absorb(child.to_dict())
        assert parent.metrics.gauge("shared.gauge").value == 7.0
        # A child gauge that was never set must not clobber the parent's.
        assert parent.metrics.gauge("unset.gauge").value == 4.0

    def test_histogram_collision_merges_moments_exactly(self):
        parent, child = InMemoryRecorder(), InMemoryRecorder()
        for value in (1.0, 2.0):
            parent.observe("shared.hist", value)
        for value in (3.0, 4.0, 5.0):
            child.observe("shared.hist", value)
        parent.absorb(child.to_dict(include_samples=True))
        merged = parent.metrics.histogram("shared.hist")
        assert merged.count == 5
        assert merged.total == 15.0
        assert merged.min == 1.0 and merged.max == 5.0
        assert merged.mean == pytest.approx(3.0)
        # Samples travelled too, so quantiles span both recorders.
        assert merged.percentile(100.0) == 5.0

    def test_anchored_absorb_preserves_event_timestamps(self):
        parent = InMemoryRecorder()
        child = InMemoryRecorder(clock_anchor=parent._start)
        assert child.anchored
        child.emit("child.evt", x=1)
        original_t = child.events[0].t
        parent.absorb(child.to_dict())
        [event] = [e for e in parent.events if e.name == "child.evt"]
        assert event.t == original_t  # already on the parent's clock

    def test_unanchored_absorb_restamps_at_absorb_time(self):
        parent, child = InMemoryRecorder(), InMemoryRecorder()
        assert not child.anchored
        child.emit("child.evt")
        trace_dict = child.to_dict()
        trace_dict["events"][0]["t"] = 1e6  # a foreign clock's offset
        parent.absorb(trace_dict)
        [event] = parent.events
        assert event.t < 1e5  # re-stamped on the parent clock, not copied

    def test_absorb_accumulates_dropped_events(self):
        parent = InMemoryRecorder()
        child = InMemoryRecorder(max_events=1)
        child.emit("kept")
        child.emit("dropped")
        parent.absorb(child.to_dict())
        assert parent.dropped_events == 1

    def test_clock_at_maps_perf_counter_onto_recorder_clock(self):
        import time as _time

        rec = InMemoryRecorder()
        now = _time.perf_counter()
        offset = rec.clock_at(now)
        assert 0.0 <= offset < 10.0
        assert rec.clock_at(now + 1.5) == pytest.approx(offset + 1.5)


class TestExporters:
    def _sample_recorder(self):
        rec = InMemoryRecorder()
        rec.emit("dim.epoch", epoch=0, ms_divergence=0.5)
        rec.emit("dim.epoch", epoch=1, ms_divergence=0.25)
        rec.emit("other", note="text")
        rec.inc("steps", 3)
        rec.set_gauge("epoch", 1)
        rec.observe("loss", 0.5)
        return rec

    def test_json_round_trip(self, tmp_path):
        rec = self._sample_recorder()
        path = write_json_trace(rec, tmp_path / "trace.json")
        loaded = load_trace(path)
        original = trace_to_dict(rec)
        assert loaded["events"] == original["events"]
        assert loaded["metrics"] == original["metrics"]
        assert loaded["n_events"] == 3
        assert loaded["version"] == 1

    def test_json_serialises_numpy_scalars(self, tmp_path):
        rec = InMemoryRecorder()
        rec.emit("e", int_val=np.int64(3), float_val=np.float64(0.5))
        loaded = load_trace(write_json_trace(rec, tmp_path / "np.json"))
        assert loaded["events"][0]["fields"] == {"int_val": 3, "float_val": 0.5}

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no": "events"}))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_csv_columns_and_filter(self, tmp_path):
        rec = self._sample_recorder()
        text = events_to_csv(rec, event_name="dim.epoch")
        lines = text.strip().splitlines()
        assert lines[0] == "t,name,epoch,ms_divergence"
        assert len(lines) == 3
        path = write_csv_events(rec, tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_text().splitlines()[0].startswith("t,name")

    def test_csv_escapes_commas_quotes_and_newlines(self, tmp_path):
        rec = InMemoryRecorder()
        rec.emit(
            "note",
            message='has, comma and "quotes"',
            detail="line one\nline two",
            plain="ok",
        )
        rec.emit("note", message="second, row", detail="x", plain="y")
        text = events_to_csv(rec)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "name", "message", "detail", "plain"]
        assert rows[1][2] == 'has, comma and "quotes"'
        assert rows[1][3] == "line one\nline two"
        assert rows[2][2] == "second, row"
        assert len(rows) == 3  # embedded newline must not add a row
        # and the file-writing path round-trips identically
        path = write_csv_events(rec, tmp_path / "special.csv")
        with open(path, newline="") as handle:
            assert list(csv.reader(handle)) == rows

    def test_summarize_mentions_events_and_metrics(self):
        rec = self._sample_recorder()
        text = summarize_trace(rec)
        assert "dim.epoch" in text
        assert "steps" in text
        assert "loss" in text
        assert "3 events" in text


@pytest.fixture(scope="module")
def dim_trace():
    """One tiny instrumented DIM run shared by the integration tests."""
    rng = np.random.default_rng(0)
    dataset = MinMaxNormalizer().fit_transform(
        generate("trial", n_samples=200, seed=0).dataset
    )
    model = GAINImputer(seed=0)
    with recording() as rec:
        report = DIM(DimConfig(epochs=3, batch_size=64)).train(model, dataset, rng)
    return rec, report


class TestDimIntegration:
    def test_epoch_counter_monotone(self, dim_trace):
        rec, report = dim_trace
        epochs = [e.fields["epoch"] for e in rec.events if e.name == "dim.epoch"]
        assert epochs == list(range(report.epochs))

    def test_epoch_events_carry_losses(self, dim_trace):
        rec, _ = dim_trace
        for event in rec.events:
            if event.name != "dim.epoch":
                continue
            assert np.isfinite(event.fields["ms_divergence"])
            assert np.isfinite(event.fields["g_loss"])
            assert np.isfinite(event.fields["d_loss"])
            assert event.fields["steps"] > 0

    def test_sinkhorn_events_present_with_violation(self, dim_trace):
        rec, _ = dim_trace
        # DIM defaults to the stacked solver, so the training trace carries
        # sinkhorn.batched_solve events instead of per-problem solves.
        solves = [e for e in rec.events if e.name == "sinkhorn.batched_solve"]
        assert solves, "DIM training must emit sinkhorn.batched_solve events"
        for event in solves:
            assert event.fields["stack"] >= 2
            assert event.fields["sweeps"] >= 1
            assert event.fields["iterations"] >= event.fields["sweeps"]
            assert event.fields["max_marginal_violation"] >= 0.0

    def test_counters_and_timings(self, dim_trace):
        rec, report = dim_trace
        snap = rec.metrics.snapshot()
        assert snap["counters"]["dim.epochs"] == report.epochs
        assert snap["counters"]["optim.adam.steps"] >= report.steps
        assert snap["histograms"]["optim.adam.step_seconds"]["count"] >= report.steps
        batched = [e for e in rec.events if e.name == "sinkhorn.batched_solve"]
        assert snap["counters"]["sinkhorn.batched_solves"] == len(batched)
        # Every stacked problem still counts as a solve.
        assert snap["counters"]["sinkhorn.solves"] == sum(
            e.fields["stack"] for e in batched
        )
        assert snap["histograms"]["sinkhorn.batched_iterations"]["count"] == sum(
            e.fields["stack"] for e in batched
        )

    def test_trace_exports_cleanly(self, dim_trace, tmp_path):
        rec, _ = dim_trace
        loaded = load_trace(write_json_trace(rec, tmp_path / "dim.json"))
        names = {e["name"] for e in loaded["events"]}
        assert {"dim.epoch", "dim.train", "sinkhorn.batched_solve", "span"} <= names


class TestSinkhornResultViolation:
    def test_converged_run_reports_violation_below_tol(self):
        cost = np.random.default_rng(0).random((8, 8))
        result = sinkhorn(cost, SinkhornConfig(reg=1.0, tol=1e-9))
        assert result.converged
        assert 0.0 <= result.marginal_violation < 1e-9

    def test_near_miss_distinguishable_from_divergence(self):
        cost = np.random.default_rng(1).random((8, 8))
        # One sweep at small reg: not converged, but the violation is finite
        # and tells how far off the marginals still are.
        result = sinkhorn(cost, SinkhornConfig(reg=0.05, max_iter=1, tol=1e-12))
        assert not result.converged
        assert np.isfinite(result.marginal_violation)
        assert result.marginal_violation > 0.0
        more = sinkhorn(cost, SinkhornConfig(reg=0.05, max_iter=200, tol=1e-12))
        assert more.marginal_violation < result.marginal_violation


class TestSinkhornCacheObservability:
    def test_warm_start_counters_surface_in_summary(self):
        cost = np.random.default_rng(3).random((8, 8))
        with recording() as rec:
            cold = sinkhorn(cost, SinkhornConfig(reg=1.0))
            warm = sinkhorn(cost, SinkhornConfig(reg=1.0), init=(cold.f, cold.g))
        snap = rec.metrics.snapshot()
        assert snap["counters"]["sinkhorn.warm_starts"] == 1
        assert snap["histograms"]["sinkhorn.warm_iterations"]["count"] == 1
        solves = [e for e in rec.events if e.name == "sinkhorn.batched_solve"]
        assert [e.fields["stack"] for e in solves] == [1, 1]
        assert [e.fields["warm_started"] for e in solves] == [False, True]
        assert [e.fields["iterations"] for e in solves] == [
            cold.iterations,
            warm.iterations,
        ]
        assert [e.fields["converged"] for e in solves] == [
            int(cold.converged),
            int(warm.converged),
        ]
        text = summarize_trace(rec)
        assert "sinkhorn.warm_starts" in text

    def test_selfterm_cache_hits_surface_in_summary(self):
        from repro.ot import MaskingSinkhornLoss
        from repro.tensor import Tensor

        rng = np.random.default_rng(0)
        x = rng.random((12, 3))
        mask = (rng.random((12, 3)) > 0.3).astype(np.float64)
        loss = MaskingSinkhornLoss(reg=1.0)
        with recording() as rec:
            loss(Tensor(x), x, mask, batch_key="k")
            loss(Tensor(x), x, mask, batch_key="k")
        snap = rec.metrics.snapshot()
        assert snap["counters"]["sinkhorn.selfterm_cache_hits"] == 1
        assert "sinkhorn.selfterm_cache_hits" in summarize_trace(rec)


class TestAdamTiming:
    def test_step_timing_recorded_only_when_enabled(self):
        from repro.nn import Parameter

        param = Parameter(np.array([1.0, 2.0]))
        optimizer = Adam([param], lr=0.1)
        param.grad = np.array([0.1, 0.1])
        optimizer.step()  # disabled: nothing recorded anywhere
        with recording() as rec:
            param.grad = np.array([0.1, 0.1])
            optimizer.step()
        snap = rec.metrics.snapshot()
        assert snap["counters"]["optim.adam.steps"] == 1
        assert snap["histograms"]["optim.adam.step_seconds"]["count"] == 1
