"""Request-scoped tracing and the live telemetry plane.

The acceptance criterion pinned here: a JSONL serving session run under
``recording()`` yields, for every request, a single trace whose lifecycle
child spans (queue-wait, coalesce, execute, reply) account for >= 95% of
the request's measured wall-clock — including requests executed in fork
workers, whose absorbed spans must carry the parent trace_id.
"""

import io
import json
import threading
import time

import numpy as np
import pytest

from repro.data import MinMaxNormalizer, generate
from repro.models import KNNImputer, MeanImputer
from repro.obs import (
    InMemoryRecorder,
    LiveAggregator,
    QuantileDigest,
    SlidingWindow,
    StreamingRecorder,
    TraceContext,
    current_trace,
    format_trace_index,
    format_waterfall,
    prometheus_exposition,
    record_span,
    recording,
    span,
    spans_of_trace,
    start_trace,
    tail_events,
    trace_context,
    trace_ids,
    trace_to_dict,
)
from repro.parallel import ExecutionContext
from repro.serve import ImputationServer, ModelRegistry, ServeConfig, serve_jsonl


@pytest.fixture
def served(tmp_path):
    """A registry with two fast statistical entries plus the raw dataset."""
    generated = generate("trial", n_samples=60, seed=0)
    normalizer = MinMaxNormalizer()
    normalized = normalizer.fit_transform(generated.dataset)
    registry = ModelRegistry(tmp_path / "registry")
    mean_key = registry.save(
        MeanImputer().fit(normalized), dataset=generated.dataset, normalizer=normalizer
    ).key
    knn_key = registry.save(
        KNNImputer().fit(normalized), dataset=generated.dataset, normalizer=normalizer
    ).key
    return registry, generated.dataset, mean_key, knn_key


LIFECYCLE = {"serve.queue_wait", "serve.coalesce", "serve.execute", "serve.reply"}


def _request_traces(trace):
    """Map trace_id -> spans for every serve.request-rooted trace."""
    out = {}
    for tid in trace_ids(trace):
        spans = spans_of_trace(trace, trace_id=tid)
        roots = [s for s in spans if s["parent_span_id"] is None]
        if len(roots) == 1 and roots[0]["name"] == "serve.request":
            out[tid] = spans
    return out


def _lifecycle_coverage(spans):
    """Fraction of the root's wall-clock covered by its lifecycle children."""
    root = next(s for s in spans if s["parent_span_id"] is None)
    children = [
        s
        for s in spans
        if s["parent_span_id"] == root["span_id"] and s["name"] in LIFECYCLE
    ]
    assert {s["name"] for s in children} == LIFECYCLE
    return sum(s["seconds"] for s in children) / root["seconds"]


class TestTraceContext:
    def test_child_links_to_parent(self):
        root = start_trace()
        assert root.parent_span_id is None
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id

    def test_round_trips_through_dict(self):
        ctx = start_trace().child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_fresh_traces_have_distinct_ids(self):
        ids = {start_trace().trace_id for _ in range(64)}
        assert len(ids) == 64

    def test_trace_context_scopes_and_restores(self):
        assert current_trace() is None
        ctx = start_trace()
        with trace_context(ctx):
            assert current_trace() is ctx
            inner = ctx.child()
            with trace_context(inner):
                assert current_trace() is inner
            assert current_trace() is ctx
        assert current_trace() is None


class TestSpan:
    def test_nested_spans_chain_contexts(self):
        with recording() as rec:
            with span("outer") as outer_ctx:
                with span("inner") as inner_ctx:
                    pass
        assert inner_ctx.trace_id == outer_ctx.trace_id
        assert inner_ctx.parent_span_id == outer_ctx.span_id
        spans = spans_of_trace(rec, trace_id=outer_ctx.trace_id)
        assert {s["name"] for s in spans} == {"outer", "inner"}
        inner = next(s for s in spans if s["name"] == "inner")
        outer = next(s for s in spans if s["name"] == "outer")
        # Start offsets are on the recorder clock and properly nested.
        assert outer["start"] <= inner["start"]
        assert inner["start"] + inner["seconds"] <= (
            outer["start"] + outer["seconds"] + 1e-6
        )

    def test_span_is_noop_when_disabled(self):
        with span("unrecorded") as ctx:
            assert ctx is None
        assert current_trace() is None

    def test_span_restores_context_on_exception(self):
        with recording():
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("boom")
            assert current_trace() is None

    def test_record_span_emits_fields_and_histogram(self):
        rec = InMemoryRecorder()
        ctx = start_trace()
        record_span("manual", ctx, 0.25, start=1.0, recorder=rec, shard=3)
        [event] = rec.events
        assert event.name == "span"
        assert event.fields["span"] == "manual"
        assert event.fields["seconds"] == 0.25
        assert event.fields["start"] == 1.0
        assert event.fields["shard"] == 3
        assert event.fields["trace_id"] == ctx.trace_id
        summary = rec.metrics.histogram("span.manual.seconds").summary()
        assert summary["count"] == 1

    def test_spans_of_trace_falls_back_to_event_time(self):
        rec = InMemoryRecorder()
        ctx = start_trace()
        record_span("no-start", ctx, 0.5, recorder=rec)
        [record] = spans_of_trace(rec)
        [event] = rec.events
        assert record["start"] == pytest.approx(event.t - 0.5)


class TestWaterfall:
    def test_renders_nested_bars(self):
        with recording() as rec:
            with span("root") as ctx:
                with span("step"):
                    time.sleep(0.002)
        text = format_waterfall(rec, ctx.trace_id)
        lines = text.splitlines()
        assert ctx.trace_id in lines[0]
        assert "root" in lines[1] and "#" in lines[1]
        # Child is indented under its parent.
        assert lines[2].index("step") > lines[1].index("root")

    def test_unknown_trace_id_raises(self):
        with recording() as rec:
            with span("root"):
                pass
        with pytest.raises(ValueError, match="no-such-id"):
            format_waterfall(rec, "no-such-id")

    def test_trace_index_lists_roots(self):
        with recording() as rec:
            with span("alpha") as a_ctx:
                pass
            with span("beta"):
                pass
        index = trace_ids(rec)
        assert len(index) == 2
        assert index[a_ctx.trace_id]["root"] == "alpha"
        assert a_ctx.trace_id in format_trace_index(rec)

    def test_span_without_trace_identity_is_rejected(self, tmp_path, capsys):
        from repro.cli import main

        trace = {
            "events": [
                {"name": "span", "t": 1.0, "fields": {"span": "dim.epoch", "seconds": 0.5}}
            ]
        }
        with pytest.raises(ValueError, match="dim.epoch"):
            spans_of_trace(trace)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        assert main(["obs", "waterfall", str(path)]) == 2
        assert "no trace_id" in capsys.readouterr().err

    def test_trace_index_lists_scis_training_spans(self, small_incomplete):
        from repro.core import SCIS, DimConfig, ScisConfig
        from repro.models import GAINImputer

        config = ScisConfig(
            initial_size=60, validation_size=60, dim=DimConfig(epochs=2), seed=0
        )
        with recording() as rec:
            SCIS(GAINImputer(seed=0), config).fit_transform(small_incomplete)
        index = trace_ids(rec)
        [tid] = [t for t, info in index.items() if info["root"] == "scis.initial_train"]
        assert "scis.initial_train" in format_trace_index(rec)
        spans = spans_of_trace(rec, trace_id=tid)
        [root] = [s for s in spans if s["parent_span_id"] is None]
        epochs = [s for s in spans if s["name"] == "dim.epoch"]
        assert len(epochs) == 2
        assert all(s["parent_span_id"] == root["span_id"] for s in epochs)
        assert "dim.epoch" in format_waterfall(rec, tid)


class TestServingTraceAcceptance:
    def test_jsonl_session_spans_cover_wallclock_serial(self, served):
        registry, dataset, mean_key, _ = served
        requests = [
            json.dumps(
                {
                    "op": "impute",
                    "id": f"q{i}",
                    "key": mean_key,
                    "rows": [[None if c % 3 == 0 else float(c) for c in range(9)]],
                }
            )
            for i in range(5)
        ]
        stream = io.StringIO("\n".join(requests) + "\n")
        out = io.StringIO()
        with recording() as rec:
            server = ImputationServer(
                registry, config=ServeConfig(batch_window_seconds=0.002)
            )
            stats = serve_jsonl(server, stream, out)
        assert stats["errors"] == 0
        trace = trace_to_dict(rec)
        traces = _request_traces(trace)
        assert len(traces) == 5  # one trace per request
        for spans in traces.values():
            coverage = _lifecycle_coverage(spans)
            assert coverage >= 0.95
            # The four lifecycle children tile the root exactly.
            assert coverage == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parallel
    def test_fork_worker_spans_carry_parent_trace_id(self, served):
        registry, dataset, mean_key, knn_key = served
        with recording() as rec:
            server = ImputationServer(
                registry,
                config=ServeConfig(batch_window_seconds=0.002),
                context=ExecutionContext(backend="process", workers=2),
            )
            # Two keys enqueued before start -> the first dispatch holds two
            # groups, which is what sends execution through the fork pool.
            futures = [
                server.submit(mean_key if i % 2 == 0 else knn_key, dataset.values[i])
                for i in range(4)
            ]
            stream = io.StringIO(json.dumps({"op": "shutdown", "id": "bye"}) + "\n")
            out = io.StringIO()
            stats = serve_jsonl(server, stream, out)
        assert all(f.result().ok for f in futures)
        trace = trace_to_dict(rec)
        pool_batches = [
            e
            for e in trace["events"]
            if e["name"] == "parallel.tasks" and e["fields"]["backend"] == "process"
        ]
        assert pool_batches, "the two-key burst must engage the fork pool"
        traces = _request_traces(trace)
        assert len(traces) == 4
        for tid, spans in traces.items():
            assert _lifecycle_coverage(spans) >= 0.95
            # The model span was emitted inside a fork child, absorbed by
            # the parent, and still links into this request's trace.
            model = [s for s in spans if s["name"] == "serve.model"]
            assert len(model) == 1
            assert model[0]["trace_id"] == tid
            execute = next(s for s in spans if s["name"] == "serve.execute")
            assert model[0]["parent_span_id"] == execute["span_id"]
            # Clock anchoring: the child-recorded span's start lands inside
            # the parent-recorded execute window, not at trace t=0.
            assert model[0]["start"] >= execute["start"] - 1e-3

    def test_queue_wait_reflects_pre_start_delay(self, served):
        registry, dataset, mean_key, _ = served
        with recording() as rec:
            server = ImputationServer(
                registry, config=ServeConfig(batch_window_seconds=0.0)
            )
            future = server.submit(mean_key, dataset.values[0])
            time.sleep(0.05)  # queued, dispatcher not yet started
            server.start()
            assert future.result(timeout=60).ok
            server.shutdown()
        [spans] = _request_traces(trace_to_dict(rec)).values()
        queue_wait = next(s for s in spans if s["name"] == "serve.queue_wait")
        assert queue_wait["seconds"] >= 0.04


class TestServingTelemetrySatellites:
    def test_default_request_ids_are_monotonic_and_unique(self, served):
        registry, dataset, mean_key, _ = served
        server = ImputationServer(registry).start()
        try:
            ids = []
            for _ in range(8):
                # Sequential submits let each future die between requests —
                # the old id(future)-based ids could collide after GC.
                response = server.impute_rows(mean_key, dataset.values[0], timeout=60)
                ids.append(response.id)
        finally:
            server.shutdown()
        assert len(set(ids)) == 8
        numbers = [int(i[1:]) for i in ids]
        assert numbers == sorted(numbers)

    def test_errored_requests_observe_latency_and_name_the_key(self, served):
        registry, dataset, mean_key, _ = served
        with recording() as rec:
            server = ImputationServer(registry).start()
            ok = server.impute_rows(mean_key, dataset.values[0], timeout=60)
            bad = server.impute_rows("no-such-key", dataset.values[0], timeout=60)
            server.shutdown()
        assert ok.ok and not bad.ok
        trace = trace_to_dict(rec)
        latency = trace["metrics"]["histograms"]["serve.latency_seconds"]
        assert latency["count"] == 2  # error path observes too
        errors = [
            e
            for e in trace["events"]
            if e["name"] == "serve.request" and "error" in e["fields"]
        ]
        assert len(errors) == 1
        assert errors[0]["fields"]["key"] == "no-such-key"
        assert errors[0]["fields"]["latency_seconds"] > 0
        assert errors[0]["fields"]["trace_id"]
        # The errored request still gets a root span for its trace.
        spans = spans_of_trace(trace, trace_id=errors[0]["fields"]["trace_id"])
        assert [s["name"] for s in spans] == ["serve.request"]
        assert spans[0]["error"] is True

    def test_metrics_op_returns_wellformed_exposition(self, served):
        import re

        registry, dataset, mean_key, _ = served
        impute = json.dumps(
            {"op": "impute", "id": "r1", "key": mean_key, "rows": [[None] + [1.0] * 8]}
        )
        out = io.StringIO()
        with recording():
            # First session completes the impute (latency observed at drain);
            # the second session's metrics op then sees settled aggregates —
            # within one session the op is answered inline by the intake loop
            # and could race the dispatcher.
            serve_jsonl(
                ImputationServer(registry), io.StringIO(impute + "\n"), io.StringIO()
            )
            serve_jsonl(
                ImputationServer(registry),
                io.StringIO(json.dumps({"op": "metrics", "id": "m"}) + "\n"),
                out,
            )
        responses = {r["id"]: r for r in map(json.loads, out.getvalue().splitlines())}
        assert responses["m"]["ok"] and responses["m"]["op"] == "metrics"
        exposition = responses["m"]["exposition"]
        assert "# TYPE repro_serve_requests counter" in exposition
        assert 'repro_serve_latency_seconds{quantile="0.95"}' in exposition
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+(e[+-]?\d+)?$"
        )
        for line in exposition.strip().splitlines():
            assert line.startswith("#") or sample.match(line), line

    def test_metrics_op_without_recorder_is_a_placeholder(self, served):
        registry, *_ = served
        out = io.StringIO()
        server = ImputationServer(registry)
        serve_jsonl(
            server, io.StringIO(json.dumps({"op": "metrics", "id": "m"}) + "\n"), out
        )
        [response] = [json.loads(line) for line in out.getvalue().splitlines()]
        assert response["ok"]
        assert response["exposition"].startswith("#")


class TestShardedTracing:
    def test_sharded_run_emits_linked_spans(self, tmp_path):
        from repro.core.scis import ScisConfig
        from repro.core.sharded import fit_impute_sharded
        from repro.data.shards import write_dataset_sharded
        from repro.models import GAINImputer

        generated = generate("trial", n_samples=240, seed=0)
        store = write_dataset_sharded(generated.dataset, tmp_path / "in", shard_rows=80)
        with recording() as rec:
            fit_impute_sharded(
                store,
                tmp_path / "out",
                GAINImputer(epochs=1, seed=0),
                scis_config=ScisConfig(initial_size=40, error_bound=0.1, seed=0),
                seed=0,
            )
        index = trace_ids(rec)
        assert len(index) == 1
        tid = next(iter(index))
        assert index[tid]["root"] == "shard.fit_impute"
        spans = spans_of_trace(rec, trace_id=tid)
        root = next(s for s in spans if s["parent_span_id"] is None)
        children = [s for s in spans if s["parent_span_id"] == root["span_id"]]
        names = sorted(s["name"] for s in children)
        assert names == ["shard.impute", "shard.impute", "shard.impute", "shard.train"]
        shards = sorted(
            s["shard"] for s in children if s["name"] == "shard.impute"
        )
        assert shards == [0, 1, 2]


class TestQuantileDigestAndWindows:
    def test_digest_quantiles_track_uniform_stream(self):
        digest = QuantileDigest(max_centroids=128)
        values = [((i * 7919) % 10007) / 10007.0 for i in range(5000)]
        for value in values:
            digest.add(value)
        exact = sorted(values)
        for q in (0.5, 0.95, 0.99):
            estimate = digest.quantile(q)
            truth = exact[int(q * (len(exact) - 1))]
            assert abs(estimate - truth) < 0.03, (q, estimate, truth)
        assert digest.min == min(values)
        assert digest.max == max(values)
        assert digest.count == len(values)

    def test_digest_is_deterministic(self):
        def build():
            digest = QuantileDigest(max_centroids=32)
            for i in range(1000):
                digest.add((i * 31) % 97)
            return digest

        assert build().summary() == build().summary()

    def test_digest_merge_matches_single_stream(self):
        left, right, both = QuantileDigest(), QuantileDigest(), QuantileDigest()
        for i in range(500):
            (left if i % 2 else right).add(float(i))
            both.add(float(i))
        left.merge(right)
        assert left.count == both.count
        assert left.quantile(0.5) == pytest.approx(both.quantile(0.5), rel=0.05)

    def test_digest_empty_and_bounds(self):
        digest = QuantileDigest()
        assert digest.quantile(0.5) is None
        digest.add(3.0)
        assert digest.quantile(0.0) == 3.0
        assert digest.quantile(1.0) == 3.0
        with pytest.raises(ValueError):
            digest.quantile(1.5)

    def test_sliding_window_ages_out_old_buckets(self):
        window = SlidingWindow(window_seconds=10.0, buckets=10)
        for t in range(5):
            window.observe(float(t), 100.0)  # old regime
        for t in range(20, 25):
            window.observe(float(t), 1.0)  # new regime
        snap = window.snapshot(now=25.0)
        assert snap["count"] == 5  # the old regime aged out
        assert snap["p50"] == pytest.approx(1.0)
        assert snap["window_seconds"] == 10.0

    def test_live_aggregator_routes_latency_and_spans(self):
        aggregator = LiveAggregator(window_seconds=60.0)
        for i in range(10):
            aggregator.ingest(
                {
                    "name": "serve.request",
                    "t": float(i),
                    "fields": {"latency_seconds": 0.01 * (i + 1)},
                }
            )
            aggregator.ingest(
                {
                    "name": "span",
                    "t": float(i),
                    "fields": {"span": "serve.execute", "seconds": 0.002},
                }
            )
        assert set(aggregator.windows) == {
            "serve.latency_seconds",
            "span.serve.execute.seconds",
        }
        text = aggregator.render()
        assert "serve.latency_seconds" in text
        assert "p95" in text


class TestPrometheusExposition:
    def test_counters_gauges_histograms(self):
        rec = InMemoryRecorder()
        rec.inc("serve.requests", 3)
        rec.set_gauge("serve.queue_depth", 2)
        for value in (0.01, 0.02, 0.03):
            rec.observe("serve.latency_seconds", value)
        text = prometheus_exposition(rec.metrics.snapshot())
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_requests 3.0" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_latency_seconds summary" in text
        assert 'repro_serve_latency_seconds{quantile="0.5"} 0.02' in text
        assert "repro_serve_latency_seconds_sum" in text
        assert "repro_serve_latency_seconds_count 3" in text
        assert text.endswith("\n")

    def test_accepts_trace_dict_and_skips_unset_gauges(self):
        rec = InMemoryRecorder()
        rec.inc("a.b")
        rec.metrics.gauge("unset.gauge")  # created but never set
        text = prometheus_exposition(rec.to_dict())
        assert "repro_a_b" in text
        assert "unset_gauge" not in text

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            prometheus_exposition(42)


class TestStreamingAndTail:
    def test_streaming_recorder_tees_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with StreamingRecorder(path) as rec:
            rec.emit("alpha", x=1)
            rec.emit("beta", y="z")
        events = list(tail_events(path))
        assert [e["name"] for e in events] == ["alpha", "beta"]
        assert events[0]["fields"] == {"x": 1}
        # The in-memory side still has the full trace.
        assert [e.name for e in rec.events] == ["alpha", "beta"]

    def test_tail_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"name": "good", "t": 0.0, "fields": {}})
            + "\nnot json\n\n"
            + json.dumps({"name": "also-good", "t": 1.0, "fields": {}})
            + "\n"
        )
        assert [e["name"] for e in tail_events(path)] == ["good", "also-good"]

    def test_tail_follow_sees_appended_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"name": "first", "t": 0.0, "fields": {}}) + "\n")
        seen = []
        done = threading.Event()

        def consume():
            for event in tail_events(
                path, follow=True, poll_seconds=0.01, should_stop=done.is_set
            ):
                seen.append(event["name"])
                if len(seen) == 2:
                    done.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.05)
        with open(path, "a") as handle:
            handle.write(json.dumps({"name": "second", "t": 1.0, "fields": {}}) + "\n")
        consumer.join(timeout=5)
        assert not consumer.is_alive()
        assert seen == ["first", "second"]

    def test_serve_streams_live_events_for_tailing(self, served, tmp_path):
        registry, dataset, mean_key, _ = served
        path = tmp_path / "live.jsonl"
        with recording(StreamingRecorder(path)) as rec:
            server = ImputationServer(registry).start()
            server.impute_rows(mean_key, dataset.values[0], timeout=60)
            server.shutdown()
        rec.close()
        aggregator = LiveAggregator()
        for event in tail_events(path):
            aggregator.ingest(event)
        assert "serve.latency_seconds" in aggregator.windows
        assert any(name.startswith("span.serve.") for name in aggregator.windows)
