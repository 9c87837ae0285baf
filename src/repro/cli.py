"""Command-line interface.

Four subcommands cover the everyday workflows:

``repro impute``
    Impute a CSV with any registered method (or SCIS on top of a GAN
    method) and write the completed CSV.

``repro datagen``
    Emit one of the six COVID-like synthetic datasets as CSV.

``repro evaluate``
    Hold out observed cells from a CSV, impute, and report RMSE/MAE —
    the paper's §VI protocol on your own data.

``repro obs``
    Summarize or dump a telemetry trace captured with ``--trace`` (on
    ``impute``/``evaluate``) or with :func:`repro.obs.recording`, or
    ``diff`` a run against a persisted bench baseline and flag metric
    regressions.

``repro profile``
    Render the per-op autodiff profile recorded in a trace (run
    ``impute``/``evaluate`` with ``--trace --profile``) as a top-k table
    or nested flame JSON.

``repro bench``
    Run the fixed smoke bench (``smoke``), the serving bench
    (``serving``), or the slow scaling tier (``scaling``: time-vs-n
    curves with timeout "—" cells, the SSE n*-vs-full savings run, and
    the out-of-core sharded driver) and write a ``BENCH_<name>.json``
    baseline for later ``repro obs diff`` gating.

``repro serve``
    Imputation-as-a-service (contract: ``docs/serving.md``): ``fit``
    trains an imputer and persists it into a model registry, ``list``
    shows registry entries, and ``run`` starts a long-lived serving
    process that answers JSONL impute requests — single rows and bulk
    CSVs — with micro-batching, until EOF or a shutdown request.

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from .core import SCIS, DimConfig, DimImputer, ScisConfig
from .data import (
    IncompleteDataset,
    MinMaxNormalizer,
    generate,
    holdout_split,
    read_csv,
    write_csv,
)
from .models import GenerativeImputer, make_imputer
from .models.registry import REGISTRY
from .obs import (
    events_to_csv,
    flame_from_profile,
    format_profile_table,
    load_trace,
    profile_from_trace,
    profiling,
    recording,
    summarize_trace,
    write_json_trace,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCIS: differentiable and scalable GAN-based data imputation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    impute = sub.add_parser("impute", help="impute a CSV file")
    impute.add_argument("input", help="input CSV (empty/NA/nan cells are missing)")
    impute.add_argument("output", help="output CSV for the imputed table")
    impute.add_argument(
        "--method",
        default="gain",
        choices=sorted(REGISTRY),
        help="imputation method (default: gain)",
    )
    impute.add_argument(
        "--scis",
        action="store_true",
        help="wrap the (GAN) method in SCIS for sample-size-optimised training",
    )
    impute.add_argument("--epochs", type=int, default=100)
    impute.add_argument("--initial-size", type=int, default=500, help="SCIS n0")
    impute.add_argument("--error-bound", type=float, default=0.02, help="SCIS epsilon")
    impute.add_argument("--seed", type=int, default=0)
    impute.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for parallelisable phases (SCIS's SSE "
        "sampling); default: REPRO_WORKERS env var, else serial",
    )
    impute.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record training telemetry and write a JSON trace to PATH",
    )
    impute.add_argument(
        "--profile",
        action="store_true",
        help="also record per-op autodiff timings into the trace "
        "(requires --trace; render with `repro profile`)",
    )

    datagen = sub.add_parser("datagen", help="generate a synthetic COVID-like CSV")
    datagen.add_argument("name", choices=["trial", "emergency", "response", "search", "weather", "surveil"])
    datagen.add_argument("output")
    datagen.add_argument("--samples", type=int, default=None)
    datagen.add_argument("--seed", type=int, default=0)
    datagen.add_argument(
        "--shards",
        action="store_true",
        help="write OUTPUT as a sharded store directory (out-of-core "
        "generation: O(--shard-rows) memory at any --samples, e.g. the "
        "paper-scale full sizes) instead of a CSV",
    )
    datagen.add_argument(
        "--shard-rows",
        type=int,
        default=100_000,
        help="rows per shard for --shards (default: 100000)",
    )

    evaluate = sub.add_parser("evaluate", help="holdout-evaluate a method on a CSV")
    evaluate.add_argument("input")
    evaluate.add_argument("--method", default="gain", choices=sorted(REGISTRY))
    evaluate.add_argument("--scis", action="store_true")
    evaluate.add_argument("--holdout", type=float, default=0.2)
    evaluate.add_argument("--epochs", type=int, default=100)
    evaluate.add_argument("--initial-size", type=int, default=500)
    evaluate.add_argument("--error-bound", type=float, default=0.02)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for parallelisable phases (SCIS's SSE "
        "sampling); default: REPRO_WORKERS env var, else serial",
    )
    evaluate.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record training telemetry and write a JSON trace to PATH",
    )
    evaluate.add_argument(
        "--profile",
        action="store_true",
        help="also record per-op autodiff timings into the trace "
        "(requires --trace; render with `repro profile`)",
    )

    obs = sub.add_parser("obs", help="inspect a telemetry trace (JSON)")
    obs.add_argument(
        "action",
        choices=["summarize", "dump", "diff", "waterfall", "export", "tail"],
    )
    obs.add_argument(
        "trace",
        help="trace JSON written by --trace / write_json_trace, a JSONL "
        "event stream (for tail, written by --live), or (for diff) the "
        "BENCH_<name>.json baseline to compare against",
    )
    obs.add_argument(
        "candidate",
        nargs="?",
        default=None,
        help="diff only: the candidate run — a trace JSON or another baseline",
    )
    obs.add_argument(
        "--format",
        dest="fmt",
        default=None,
        choices=["csv", "json", "prom"],
        help="dump format (default: csv) or export format (default: prom)",
    )
    obs.add_argument(
        "--event",
        default="",
        help="restrict dump to one event name (e.g. dim.epoch)",
    )
    obs.add_argument(
        "--trace-id",
        default=None,
        help="waterfall only: which trace to render (omit to list the "
        "trace ids present in the file)",
    )
    obs.add_argument(
        "--follow",
        action="store_true",
        help="tail only: keep following the event stream as it grows "
        "(Ctrl-C prints the live summary and exits)",
    )
    obs.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="tail only: sliding-window width in seconds for the live "
        "quantile table (default: 60)",
    )
    obs.add_argument("--output", default=None, help="write to file instead of stdout")
    obs.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="diff only: max tolerated relative increase for "
        "machine-independent metrics (default: 0.25)",
    )
    obs.add_argument(
        "--time-threshold",
        type=float,
        default=0.75,
        help="diff only: max tolerated relative increase for wall-clock "
        "metrics (default: 0.75; pass a huge value to ignore timings)",
    )

    profile = sub.add_parser(
        "profile", help="render the per-op autodiff profile from a trace"
    )
    profile.add_argument(
        "trace", help="trace JSON recorded with --trace --profile"
    )
    profile.add_argument(
        "--top", type=int, default=15, help="rows in the table (default: 15)"
    )
    profile.add_argument(
        "--flame",
        metavar="PATH",
        default=None,
        help="also write the nested flame-style JSON to PATH",
    )

    bench = sub.add_parser("bench", help="run a bench and snapshot a baseline")
    bench.add_argument("action", choices=["smoke", "serving", "scaling"])
    bench.add_argument(
        "--out",
        default=None,
        help="baseline JSON to write (default: BENCH_<action>.json)",
    )
    bench.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="also write the full telemetry trace to PATH",
    )
    bench.add_argument("--samples", type=int, default=96)
    bench.add_argument("--epochs", type=int, default=2)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the (method x dataset) grid / the "
        "shard-impute fan-out; default: REPRO_WORKERS env var, else serial",
    )
    bench.add_argument(
        "--sizes",
        default=None,
        help="scaling only: comma-separated n grid (default: 500,2000,8000)",
    )
    bench.add_argument(
        "--budget",
        type=float,
        default=None,
        help="scaling only: per-cell wall-clock cutoff in seconds "
        "(default: 5.0); over-budget cells become the paper's — cells",
    )
    bench.add_argument(
        "--dataset",
        default="trial",
        help="scaling only: generator to sweep (default: trial)",
    )
    bench.add_argument(
        "--sharded-rows",
        type=int,
        default=None,
        help="scaling only: rows in the out-of-core sharded-driver "
        "measurement (default: 20000)",
    )

    serve = sub.add_parser(
        "serve", help="model registry + long-lived imputation serving"
    )
    serve_sub = serve.add_subparsers(dest="serve_action", required=True)

    serve_fit = serve_sub.add_parser(
        "fit", help="train an imputer on a CSV and persist it to a registry"
    )
    serve_fit.add_argument("input", help="training CSV (empty/NA/nan cells missing)")
    serve_fit.add_argument("--registry", required=True, help="registry directory")
    serve_fit.add_argument(
        "--method",
        default="gain",
        choices=sorted(REGISTRY),
        help="imputation method (default: gain)",
    )
    serve_fit.add_argument(
        "--dim",
        action="store_true",
        help="train the (GAN) method under the DIM masking-Sinkhorn loss",
    )
    serve_fit.add_argument("--epochs", type=int, default=100)
    serve_fit.add_argument("--seed", type=int, default=0)

    serve_list = serve_sub.add_parser("list", help="list registry entries")
    serve_list.add_argument("--registry", required=True, help="registry directory")

    serve_run = serve_sub.add_parser(
        "run",
        help="serve JSONL impute requests from stdin (or a file) until "
        "EOF or a shutdown request",
    )
    serve_run.add_argument("--registry", required=True, help="registry directory")
    serve_run.add_argument(
        "--input",
        default="-",
        help="JSONL request stream (default: - for stdin)",
    )
    serve_run.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="max requests coalesced into one model invocation (default: 64)",
    )
    serve_run.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        help="seconds the dispatcher waits to coalesce more requests "
        "after the first arrives (default: 0.005)",
    )
    serve_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for multi-key batches; default: serial "
        "(REPRO_WORKERS is deliberately not consulted — forking from the "
        "dispatcher thread is opt-in)",
    )
    serve_run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record serve.* telemetry and write a JSON trace to PATH on exit",
    )
    serve_run.add_argument(
        "--live",
        metavar="PATH",
        default=None,
        help="stream every telemetry event to PATH as JSONL while serving "
        "(follow it live with `repro obs tail PATH --follow`); implies "
        "recording, composes with --trace",
    )
    return parser


def _make_runner(args):
    """Build the imputer (optionally SCIS-wrapped) from CLI arguments."""
    seedless = {"mean", "median", "mode", "knn", "constant", "em"}
    kwargs = {} if args.method in seedless else {"seed": args.seed}
    if args.method in ("gain", "ginn", "datawig", "rrsi", "midae", "vaei", "miwae",
                       "eddi", "hivae", "otdirect"):
        kwargs["epochs"] = args.epochs
    model = make_imputer(args.method, **kwargs)
    if not args.scis:
        return model
    if not isinstance(model, GenerativeImputer):
        raise SystemExit(
            f"--scis requires a GAN-based method (gain, ginn); got {args.method!r}"
        )
    config = ScisConfig(
        initial_size=args.initial_size,
        error_bound=args.error_bound,
        dim=DimConfig(epochs=args.epochs),
        seed=args.seed,
        workers=args.workers,
    )
    return SCIS(model, config)


def _impute(runner, dataset: IncompleteDataset):
    """Run the imputer and return (imputed matrix, sample rate)."""
    if isinstance(runner, SCIS):
        result = runner.fit_transform(dataset)
        return result.imputed, result.sample_rate
    return runner.fit_transform(dataset), 1.0


def _traced_impute(args, runner, dataset):
    """Run ``_impute`` under the requested telemetry/profiling wrappers."""
    if args.trace is None:
        if args.profile:
            print(
                "repro: --profile needs --trace (the profile is stored in "
                "the trace)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return _impute(runner, dataset)
    with recording() as rec:
        if args.profile:
            # profiling() folds the per-op aggregates into the recorder as
            # profiler.* events on exit — while the recording is still open.
            with profiling():
                result = _impute(runner, dataset)
        else:
            result = _impute(runner, dataset)
    write_json_trace(rec, args.trace)
    print(f"wrote telemetry trace -> {args.trace}", file=sys.stderr)
    return result


def _cmd_impute(args) -> int:
    dataset = read_csv(args.input)
    print(f"loaded {dataset}", file=sys.stderr)
    normalizer = MinMaxNormalizer()
    normalized = normalizer.fit_transform(dataset)
    runner = _make_runner(args)
    start = time.perf_counter()
    imputed, sample_rate = _traced_impute(args, runner, normalized)
    elapsed = time.perf_counter() - start
    restored = normalizer.inverse_transform(imputed)
    out = IncompleteDataset(
        restored, feature_names=list(dataset.feature_names), name=dataset.name
    )
    write_csv(out, args.output)
    print(
        f"imputed {dataset.shape[0]}x{dataset.shape[1]} table in {elapsed:.1f}s "
        f"(training sample rate {sample_rate:.1%}) -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_datagen(args) -> int:
    if args.shards:
        from .data import generate_sharded

        store = generate_sharded(
            args.name,
            args.output,
            n_samples=args.samples,
            seed=args.seed,
            shard_rows=args.shard_rows,
        )
        print(
            f"wrote {store.rows}x{store.n_features} {args.name} store "
            f"({store.n_shards} shards of <= {args.shard_rows} rows, "
            f"fingerprint {store.manifest.fingerprint}) -> {args.output}",
            file=sys.stderr,
        )
        return 0
    generated = generate(args.name, n_samples=args.samples, seed=args.seed)
    write_csv(generated.dataset, args.output)
    print(
        f"wrote {generated.dataset.n_samples}x{generated.dataset.n_features} "
        f"{args.name} table ({generated.dataset.missing_rate:.1%} missing) "
        f"-> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args) -> int:
    dataset = read_csv(args.input)
    normalized = MinMaxNormalizer().fit_transform(dataset)
    holdout = holdout_split(normalized, args.holdout, np.random.default_rng(args.seed))
    runner = _make_runner(args)
    start = time.perf_counter()
    imputed, sample_rate = _traced_impute(args, runner, holdout.train)
    elapsed = time.perf_counter() - start
    method = f"scis-{args.method}" if args.scis else args.method
    print(f"method:      {method}")
    print(f"rmse:        {holdout.rmse(imputed):.4f}")
    print(f"mae:         {holdout.mae(imputed):.4f}")
    print(f"time:        {elapsed:.1f}s")
    print(f"sample rate: {sample_rate:.1%}")
    return 0


def _cmd_obs(args) -> int:
    if args.action == "diff":
        return _obs_diff(args)
    if args.action == "tail":
        return _obs_tail(args)
    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        # Missing or corrupt traces are a user-input problem, not a crash:
        # one line on stderr, exit code 2.
        print(f"repro obs: {exc}", file=sys.stderr)
        return 2
    if args.action == "summarize":
        text = summarize_trace(trace)
    elif args.action == "waterfall":
        from .obs import format_trace_index, format_waterfall

        try:
            if args.trace_id is None:
                text = format_trace_index(trace)
            else:
                text = format_waterfall(trace, args.trace_id)
        except ValueError as exc:
            print(f"repro obs: {exc}", file=sys.stderr)
            return 2
    elif args.action == "export":
        from .obs import prometheus_exposition

        if args.fmt not in (None, "prom"):
            print(
                f"repro obs: export supports --format prom only, got {args.fmt}",
                file=sys.stderr,
            )
            return 2
        text = prometheus_exposition(trace)
    elif args.fmt in (None, "csv"):
        text = events_to_csv(trace, event_name=args.event)
    elif args.fmt == "prom":
        print(
            "repro obs: --format prom belongs to `repro obs export`",
            file=sys.stderr,
        )
        return 2
    else:
        import json

        events = trace["events"]
        if args.event:
            events = [e for e in events if e["name"] == args.event]
        text = json.dumps({**trace, "events": events, "n_events": len(events)}, indent=2)
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.action} -> {args.output}", file=sys.stderr)
    else:
        try:
            print(text)
        except BrokenPipeError:  # e.g. `repro obs summarize t.json | head`
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _obs_tail(args) -> int:
    """``repro obs tail <events.jsonl>``: live quantiles over an event stream.

    Without ``--follow``, drains the file and prints the end-of-stream
    sliding-window table.  With ``--follow``, echoes events as they are
    appended and prints the table on Ctrl-C (or when the writer stops and
    the user interrupts).
    """
    from .obs import LiveAggregator, tail_events

    aggregator = LiveAggregator(window_seconds=args.window)
    try:
        for event in tail_events(args.trace, follow=args.follow):
            aggregator.ingest(event)
            if args.follow:
                fields = " ".join(
                    f"{k}={v}" for k, v in (event.get("fields") or {}).items()
                )
                print(f"{float(event.get('t', 0.0)):10.3f}s {event['name']} {fields}")
        print(aggregator.render())
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe — normal
        # for a tail command; suppress the shutdown flush error too.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        print(f"repro obs: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(aggregator.render())
    return 0


def _obs_diff(args) -> int:
    """``repro obs diff <baseline> <trace-or-baseline>``: flag regressions."""
    from .bench.baselines import diff_baselines, format_diff, load_baseline

    if args.candidate is None:
        print(
            "repro obs: diff needs two files: <baseline> <trace-or-baseline>",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load_baseline(args.trace)
        candidate = load_baseline(args.candidate)
    except (OSError, ValueError) as exc:
        print(f"repro obs: {exc}", file=sys.stderr)
        return 2
    deltas = diff_baselines(
        baseline,
        candidate,
        threshold=args.threshold,
        time_threshold=args.time_threshold,
    )
    text = format_diff(deltas)
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote diff -> {args.output}", file=sys.stderr)
    else:
        print(text)
    return 1 if any(d.regressed for d in deltas) else 0


def _cmd_profile(args) -> int:
    try:
        trace = load_trace(args.trace)
        profile = profile_from_trace(trace)
    except (OSError, ValueError) as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 2
    if args.flame is not None:
        import json

        with open(args.flame, "w") as handle:
            json.dump(flame_from_profile(profile), handle, indent=2)
        print(f"wrote flame JSON -> {args.flame}", file=sys.stderr)
    print(format_profile_table(profile, top=args.top))
    return 0


def _cmd_bench(args) -> int:
    from .bench import run_smoke_bench
    from .bench.baselines import (
        snapshot_from_results,
        snapshot_from_trace,
        write_baseline,
    )
    from .obs import trace_to_dict

    from .parallel import ExecutionContext

    if args.out is None:
        args.out = f"BENCH_{args.action}.json"
    if args.action == "serving":
        return _bench_serving(args)
    if args.action == "scaling":
        return _bench_scaling(args)
    start = time.perf_counter()
    with recording() as rec:
        results = run_smoke_bench(
            n_samples=args.samples,
            epochs=args.epochs,
            seed=args.seed,
            context=ExecutionContext.from_env(workers=args.workers),
        )
    trace = trace_to_dict(rec)
    baseline = snapshot_from_results(results, name=args.action)
    # The trace adds the solver/loop metrics bench aggregates can't see.
    for key, value in snapshot_from_trace(trace, name=args.action)["metrics"].items():
        baseline["metrics"].setdefault(key, value)
    write_baseline(baseline, args.out)
    if args.trace is not None:
        write_json_trace(trace, args.trace)
        print(f"wrote telemetry trace -> {args.trace}", file=sys.stderr)
    print(
        f"smoke bench: {len(results)} runs in {time.perf_counter() - start:.1f}s, "
        f"{len(baseline['metrics'])} metrics -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _bench_scaling(args) -> int:
    """``repro bench scaling``: the slow tier behind the paper's plots."""
    from .bench.baselines import write_baseline
    from .bench.scaling import ScalingConfig, run_scaling_bench, snapshot_from_scaling
    from .obs import trace_to_dict
    from .parallel import ExecutionContext

    config = ScalingConfig(dataset=args.dataset, seed=args.seed, epochs=args.epochs)
    if args.sizes is not None:
        try:
            config.sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        except ValueError:
            print(
                f"repro bench: --sizes must be comma-separated integers, "
                f"got {args.sizes!r}",
                file=sys.stderr,
            )
            return 2
    if args.budget is not None:
        config.time_budget = args.budget
    if args.sharded_rows is not None:
        config.sharded_rows = args.sharded_rows
    start = time.perf_counter()
    with recording() as rec:
        result = run_scaling_bench(
            config, context=ExecutionContext.from_env(workers=args.workers)
        )
    write_baseline(snapshot_from_scaling(result, name=args.action), args.out)
    if args.trace is not None:
        write_json_trace(trace_to_dict(rec), args.trace)
        print(f"wrote telemetry trace -> {args.trace}", file=sys.stderr)
    print(result.format())
    print(
        f"scaling bench done in {time.perf_counter() - start:.1f}s -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _bench_serving(args) -> int:
    """``repro bench serving``: run the serving bench, snapshot a baseline."""
    from .bench.baselines import write_baseline
    from .bench.serving import run_serving_bench

    result = run_serving_bench(epochs=args.epochs, seed=args.seed)
    write_baseline(result.baseline, args.out)
    if args.trace is not None:
        write_json_trace(result.trace, args.trace)
        print(f"wrote telemetry trace -> {args.trace}", file=sys.stderr)
    print(
        f"serving bench: {result.n_requests} requests / {result.n_rows} rows "
        f"in {result.seconds:.1f}s, {len(result.baseline['metrics'])} metrics "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args) -> int:
    """``repro serve {fit,list,run}`` with hardened registry error paths."""
    from .serve import RegistryError

    handlers = {
        "fit": _serve_fit,
        "list": _serve_list,
        "run": _serve_run,
    }
    try:
        return handlers[args.serve_action](args)
    except RegistryError as exc:
        # Registry problems are user-input problems, not crashes: one line
        # naming the offending key (when there is one), exit code 2.
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2


def _serve_fit(args) -> int:
    from .serve import ModelRegistry

    dataset = read_csv(args.input)
    print(f"loaded {dataset}", file=sys.stderr)
    normalizer = MinMaxNormalizer()
    normalized = normalizer.fit_transform(dataset)
    seedless = {"mean", "median", "mode", "knn", "constant", "em"}
    kwargs = {} if args.method in seedless else {"seed": args.seed}
    if args.method in ("gain", "ginn", "datawig", "rrsi", "midae", "vaei", "miwae",
                       "eddi", "hivae", "otdirect"):
        kwargs["epochs"] = args.epochs
    model = make_imputer(args.method, **kwargs)
    if args.dim:
        if not isinstance(model, GenerativeImputer):
            print(
                f"repro serve: --dim requires a GAN-based method (gain, ginn); "
                f"got {args.method!r}",
                file=sys.stderr,
            )
            return 2
        model = DimImputer(model, config=DimConfig(epochs=args.epochs), seed=args.seed)
    start = time.perf_counter()
    model.fit(normalized)
    entry = ModelRegistry(args.registry).save(
        model, dataset=dataset, normalizer=normalizer
    )
    print(
        f"trained + registered {entry.model_name} in "
        f"{time.perf_counter() - start:.1f}s -> {args.registry}",
        file=sys.stderr,
    )
    # The key alone on stdout, so scripts can do KEY=$(repro serve fit ...).
    print(entry.key)
    return 0


def _serve_list(args) -> int:
    from .serve import ModelRegistry

    entries = ModelRegistry(args.registry).entries()
    if not entries:
        print(f"no entries in registry {args.registry}", file=sys.stderr)
        return 0
    for entry in entries:
        print(
            f"{entry['key']}  model={entry['model_name']}  "
            f"d={entry['n_features']}  schema={entry['schema_fingerprint']}"
        )
    return 0


def _serve_run(args) -> int:
    from .parallel import ExecutionContext
    from .serve import ImputationServer, ModelRegistry, ServeConfig, serve_jsonl

    registry = ModelRegistry(args.registry)
    keys = registry.keys()  # validates the manifest up front
    if not keys:
        print(
            f"repro serve: registry {args.registry} has no entries "
            f"(run `repro serve fit` first)",
            file=sys.stderr,
        )
        return 2
    context = (
        ExecutionContext.from_env(workers=args.workers)
        if args.workers is not None
        else ExecutionContext()
    )
    server = ImputationServer(
        registry,
        config=ServeConfig(
            max_batch_requests=args.max_batch,
            batch_window_seconds=args.batch_window,
        ),
        context=context,
    )
    print(
        f"serving {len(keys)} registry entries from {args.registry} "
        f"(JSONL on stdin, EOF or {{\"op\": \"shutdown\"}} to stop)",
        file=sys.stderr,
    )

    def run(in_stream) -> dict:
        if args.trace is None and args.live is None:
            return serve_jsonl(server, in_stream, sys.stdout)
        from .obs import StreamingRecorder

        recorder = (
            StreamingRecorder(args.live) if args.live is not None else None
        )
        try:
            with recording(recorder) as rec:
                stats = serve_jsonl(server, in_stream, sys.stdout)
        finally:
            if recorder is not None:
                recorder.close()
        if args.live is not None:
            print(f"streamed telemetry events -> {args.live}", file=sys.stderr)
        if args.trace is not None:
            write_json_trace(rec, args.trace)
            print(f"wrote telemetry trace -> {args.trace}", file=sys.stderr)
        return stats

    if args.input == "-":
        stats = run(sys.stdin)
    else:
        with open(args.input) as handle:
            stats = run(handle)
    print(
        f"served {server.served_requests} requests / {server.served_rows} rows "
        f"({stats['errors']} errors)",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: dispatch to the selected subcommand, return exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "impute": _cmd_impute,
        "datagen": _cmd_datagen,
        "evaluate": _cmd_evaluate,
        "obs": _cmd_obs,
        "profile": _cmd_profile,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
