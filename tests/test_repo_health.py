"""Repository health: exports resolve, docs reference real artefacts."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent


def _all_modules():
    names = ["repro"]
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module_info.name)
    return names


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", _all_modules())
def test_dunder_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", _all_modules())
def test_every_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


class TestDocsReferenceRealFiles:
    def _referenced_paths(self, text):
        # benchmarks/test_x.py and examples/y.py style references
        return re.findall(r"(?:benchmarks|examples|docs)/[\w./-]+\.(?:py|md)", text)

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_referenced_files_exist(self, doc):
        text = (REPO_ROOT / doc).read_text()
        for rel_path in self._referenced_paths(text):
            assert (REPO_ROOT / rel_path).exists(), f"{doc} references missing {rel_path}"

    def test_experiment_index_covers_all_benches(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        bench_files = sorted(
            p.name for p in (REPO_ROOT / "benchmarks").glob("test_*.py")
        )
        for name in bench_files:
            assert name in design, f"DESIGN.md experiment index misses {name}"

    def test_examples_listed_in_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for example in sorted((REPO_ROOT / "examples").glob("*.py")):
            assert example.name in readme, f"README misses examples/{example.name}"

    def test_at_least_three_examples(self):
        assert len(list((REPO_ROOT / "examples").glob("*.py"))) >= 3


class TestObsDocConsistency:
    """docs/api.md must track the public repro.obs surface (and exist)."""

    def test_observability_doc_exists(self):
        assert (REPO_ROOT / "docs" / "observability.md").exists()

    def test_every_public_obs_symbol_documented_in_api(self):
        import repro.obs

        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        missing = [name for name in repro.obs.__all__ if name not in api_text]
        assert not missing, f"docs/api.md misses repro.obs symbols: {missing}"

    def test_obs_cli_subcommand_documented(self):
        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        assert "repro obs" in api_text

    def test_sinkhorn_cache_metrics_documented(self):
        obs_text = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in (
            "sinkhorn.warm_starts",
            "sinkhorn.selfterm_cache_hits",
            "sinkhorn.warm_iterations",
        ):
            assert name in obs_text, f"docs/observability.md misses {name}"

    def test_profiler_and_health_events_documented(self):
        obs_text = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in (
            "profiler.op",
            "profiler.summary",
            "health.nan",
            "health.divergence",
            "health.oscillation",
            "health.halt",
            "health.verdict",
            "health.nan_grad",
            "health.sinkhorn_nonfinite",
            "health.issues",
            "health.grad_norm.",
            "optim.<name>.grad_norm",
        ):
            assert name in obs_text, f"docs/observability.md misses {name}"

    def test_new_cli_subcommands_documented(self):
        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        for phrase in ("repro obs diff", "repro profile", "repro bench smoke"):
            assert phrase in api_text, f"docs/api.md misses `{phrase}`"

    def test_committed_bench_baseline_is_loadable(self):
        from repro.bench.baselines import load_baseline

        baseline = load_baseline(REPO_ROOT / "BENCH_baseline.json")
        assert baseline["kind"] == "bench-baseline"
        assert any(k.startswith("rmse.") for k in baseline["metrics"])


class TestTracingDocConsistency:
    """docs must track the tracing/live-telemetry surface added with
    request-scoped tracing: every literal event name emitted anywhere in
    src/ belongs in the docs/observability.md catalogue, as do the span
    names assembled by the serving and sharded layers."""

    def test_every_emitted_event_name_documented(self):
        # Any `recorder.emit("some.name", ...)`, `span("some.name")` or
        # `record_span("some.name", ...)` literal in the source tree must
        # appear in docs/observability.md — the catalogue IS the contract,
        # and an undocumented event or span is a silent drift.
        obs_text = (REPO_ROOT / "docs" / "observability.md").read_text()
        patterns = [
            re.compile(r"\.emit\(\s*['\"]([a-z0-9_.]+)['\"]"),
            re.compile(r"\b(?:record_)?span\(\s*['\"]([a-z0-9_.]+)['\"]"),
        ]
        missing = set()
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            text = path.read_text()
            for name in (n for pattern in patterns for n in pattern.findall(text)):
                if name not in obs_text:
                    missing.add(f"{name} (from {path.relative_to(REPO_ROOT)})")
        assert not missing, (
            f"docs/observability.md misses emitted event or span names: {sorted(missing)}"
        )

    def test_lifecycle_span_names_documented(self):
        obs_text = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in (
            "serve.queue_wait",
            "serve.coalesce",
            "serve.execute",
            "serve.reply",
            "serve.model",
            "shard.fit_impute",
            "shard.train",
            "shard.impute",
            "trace_id",
            "parent_span_id",
        ):
            assert name in obs_text, f"docs/observability.md misses {name}"

    def test_tracing_cli_commands_documented(self):
        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        obs_text = (REPO_ROOT / "docs" / "observability.md").read_text()
        for phrase in ("repro obs waterfall", "repro obs tail", "repro obs export"):
            assert phrase in api_text, f"docs/api.md misses `{phrase}`"
            assert phrase in obs_text, f"docs/observability.md misses `{phrase}`"
        assert "--live" in obs_text

    def test_slo_ratio_documented_in_serving_doc(self):
        serving_doc = (REPO_ROOT / "docs" / "serving.md").read_text()
        for name in ("serving.p95_over_p50", "metrics"):
            assert name in serving_doc, f"docs/serving.md misses {name}"

    def test_clock_anchoring_documented_in_parallel_doc(self):
        parallel_doc = (REPO_ROOT / "docs" / "parallel.md").read_text()
        for phrase in ("clock_anchor", "trace_id"):
            assert phrase in parallel_doc, f"docs/parallel.md misses {phrase}"


class TestBackendDocConsistency:
    """docs must track the tensor-backend protocol and the batched solver."""

    def test_backends_doc_exists(self):
        assert (REPO_ROOT / "docs" / "backends.md").exists()

    def test_backend_symbols_documented_in_api(self):
        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        for name in (
            "TensorBackend",
            "NumpyBackend",
            "ArrayApiBackend",
            "get_backend",
            "set_backend",
            "use_backend",
            "validate_backend",
            "REPRO_BACKEND",
        ):
            assert name in api_text, f"docs/api.md misses {name}"

    def test_batched_solver_symbols_documented_in_api(self):
        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        for name in (
            "SinkhornConfig",
            "sinkhorn_batched",
            "BatchedSinkhornResult",
            "BatchPlan",
        ):
            assert name in api_text, f"docs/api.md misses {name}"

    def test_protocol_functions_listed_in_backends_doc(self):
        from repro.tensor.backend import PROTOCOL_FUNCTIONS

        doc = (REPO_ROOT / "docs" / "backends.md").read_text()
        missing = [name for name in PROTOCOL_FUNCTIONS if f"`{name}`" not in doc]
        assert not missing, f"docs/backends.md misses protocol functions: {missing}"

    def test_batched_telemetry_documented(self):
        obs_text = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in (
            "sinkhorn.batched_solve",
            "sinkhorn.batched_solves",
            "sinkhorn.batched_problems",
            "sinkhorn.batched_stack_size",
            "sinkhorn.batched_sweeps",
            "sinkhorn.batched_iterations",
        ):
            assert name in obs_text, f"docs/observability.md misses {name}"

    def test_backends_doc_cross_linked(self):
        for doc in ("architecture.md", "api.md"):
            text = (REPO_ROOT / "docs" / doc).read_text()
            assert "backends.md" in text, f"docs/{doc} does not link docs/backends.md"
        assert "backends.md" in (REPO_ROOT / "README.md").read_text()

    def test_backends_doc_references_real_files(self):
        doc = (REPO_ROOT / "docs" / "backends.md").read_text()
        for rel_path in re.findall(r"tests/[\w./-]+\.py", doc):
            assert (REPO_ROOT / rel_path).exists(), (
                f"docs/backends.md references missing {rel_path}"
            )


class TestParallelDocConsistency:
    """docs must track the repro.parallel surface, events, and knobs."""

    def test_parallel_doc_exists(self):
        assert (REPO_ROOT / "docs" / "parallel.md").exists()

    def test_every_public_parallel_symbol_documented_in_api(self):
        import repro.parallel

        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        missing = [n for n in repro.parallel.__all__ if n not in api_text]
        assert not missing, f"docs/api.md misses repro.parallel symbols: {missing}"

    def test_parallel_events_documented(self):
        obs_text = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in (
            "parallel.tasks",
            "parallel.fallback",
            "parallel.batches",
            "parallel.fallbacks",
        ):
            assert name in obs_text, f"docs/observability.md misses {name}"

    def test_workers_knobs_documented(self):
        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        readme = (REPO_ROOT / "README.md").read_text()
        parallel_doc = (REPO_ROOT / "docs" / "parallel.md").read_text()
        for text, where in ((api_text, "api.md"), (readme, "README.md"), (parallel_doc, "parallel.md")):
            assert "--workers" in text, f"{where} misses --workers"
            assert "REPRO_WORKERS" in text, f"{where} misses REPRO_WORKERS"

    def test_parity_suites_referenced(self):
        parallel_doc = (REPO_ROOT / "docs" / "parallel.md").read_text()
        for path in ("tests/test_parallel.py", "benchmarks/test_ext_parallel.py"):
            assert path in parallel_doc
            assert (REPO_ROOT / path).exists()


class TestServingDocConsistency:
    """docs must track the repro.serve surface, events, and CLI commands."""

    def test_serving_doc_exists(self):
        assert (REPO_ROOT / "docs" / "serving.md").exists()

    def test_every_public_serve_symbol_documented_in_api(self):
        import repro.serve

        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        missing = [n for n in repro.serve.__all__ if n not in api_text]
        assert not missing, f"docs/api.md misses repro.serve symbols: {missing}"

    def test_serve_cli_commands_documented(self):
        api_text = (REPO_ROOT / "docs" / "api.md").read_text()
        readme = (REPO_ROOT / "README.md").read_text()
        for phrase in ("repro serve fit", "repro serve list", "repro serve run",
                       "repro bench serving"):
            assert phrase in api_text, f"docs/api.md misses `{phrase}`"
        for phrase in ("repro serve fit", "repro serve run", "repro bench serving"):
            assert phrase in readme, f"README.md misses `{phrase}`"

    def test_serve_events_documented(self):
        serving_doc = (REPO_ROOT / "docs" / "serving.md").read_text()
        obs_doc = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in (
            "serve.request",
            "serve.batch",
            "serve.evict",
            "serve.queue_depth",
            "serve.requests",
            "serve.batches",
            "serve.errors",
            "serve.evictions",
            "serve.latency_seconds",
            "serve.coalesced",
        ):
            assert name in serving_doc, f"docs/serving.md misses {name}"
        for name in ("serve.request", "serve.batch", "serve.evict"):
            assert name in obs_doc, f"docs/observability.md misses {name}"

    def test_serving_doc_cross_linked(self):
        for doc in ("architecture.md", "observability.md", "api.md"):
            text = (REPO_ROOT / "docs" / doc).read_text()
            assert "serving.md" in text, f"docs/{doc} does not link docs/serving.md"
        assert "docs/serving.md" in (REPO_ROOT / "README.md").read_text()

    def test_serving_doc_references_real_files(self):
        serving_doc = (REPO_ROOT / "docs" / "serving.md").read_text()
        for rel_path in re.findall(r"repro/[\w/]+\.py", serving_doc):
            assert (REPO_ROOT / "src" / rel_path).exists(), (
                f"docs/serving.md references missing src/{rel_path}"
            )

    def test_committed_serving_baseline_is_loadable_and_gated(self):
        from repro.bench.baselines import load_baseline

        baseline = load_baseline(REPO_ROOT / "BENCH_serving.json")
        assert baseline["kind"] == "bench-baseline"
        assert baseline["name"] == "serving"
        metrics = baseline["metrics"]
        # The committed baseline must assert a clean serving path: CI diffs
        # against these, so nonzero values here would mask regressions.
        assert metrics["serving.correctness_failures"] == 0.0
        assert metrics["serving.errors"] == 0.0
        assert metrics["serving.burst_batches"] >= 1.0

    def test_serve_cli_parser_wired(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "fit", "a.csv", "--registry", "reg", "--method", "gain"]
        )
        assert args.serve_action == "fit"
        args = parser.parse_args(["serve", "run", "--registry", "reg"])
        assert args.serve_action == "run"
        args = parser.parse_args(["bench", "serving"])
        assert args.action == "serving"


class TestRegistryConsistency:
    def test_registry_names_match_imputer_name_attribute(self):
        from repro.models.registry import REGISTRY

        for key, factory in REGISTRY.items():
            if key == "missf":  # documented alias
                continue
            instance_name = factory().name if key != "em" else factory().name
            # The registry key equals the imputer's declared name, except for
            # the missforest long form.
            assert instance_name in (key, "missforest"), (key, instance_name)

    def test_cli_parser_covers_registry(self):
        from repro.cli import build_parser
        from repro.models.registry import REGISTRY

        parser = build_parser()
        args = parser.parse_args(["impute", "a.csv", "b.csv", "--method", "gain"])
        assert args.method in REGISTRY
