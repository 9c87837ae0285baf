"""serve-open: open-loop Poisson load against ``repro serve run``.

The server runs as a child process (through ``serve_launcher.py``) speaking
JSONL on stdin/stdout, with a registry of two entries fitted on the
``weather`` table: DIM-GAIN and column means.  The load process has two
threads: the writer (this module's main thread) sends each request at its
scheduled time, and the reader stamps each reply line as it arrives.

Every request line is serialised before the clock starts, and the reader
only extracts the id and takes a timestamp; replies are parsed and checked
after the window closes.  Latency runs from a request's *scheduled* send
time to the moment its reply line is read, so a stall delays every request
behind it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from batch import quantile

HERE = Path(__file__).resolve().parent
TABLE_SEED = 0
MODEL_SEED = 0
RATE_PER_S = 500.0
DIM_SHARE = 0.8
BULK_SHARE = 0.1
BULK_ROWS = 32
SLO_MS = 25.0
# Lateness of the generator itself: a run whose p99 send delay nears the
# latency limit measures the load process, not the server.  Measured p99
# lateness at 500 req/s on 2 vCPUs: 1.4-6.7 ms.
LATE_LIMIT_MS = 0.8 * SLO_MS
SETUP_REPEATS = 3
WARMUP_REQUESTS = 40
CHILD_TIMEOUT_S = 60.0


class Registry:
    """The fitted registry plus the request pool and its holdout truth."""

    def __init__(self, directory: Path, seed: int, tiny: bool) -> None:
        from repro.core import DimConfig, DimImputer
        from repro.data import MinMaxNormalizer, generate, holdout_split
        from repro.models import GAINImputer, MeanImputer
        from repro.serve import ModelRegistry

        generated = generate("weather", n_samples=500 if tiny else 4_000, seed=TABLE_SEED)
        split = holdout_split(generated.dataset, 0.2, np.random.default_rng(seed))
        normalizer = MinMaxNormalizer()
        normalized = normalizer.fit_transform(split.train)
        dim = DimImputer(
            GAINImputer(seed=MODEL_SEED),
            config=DimConfig(epochs=1 if tiny else 3),
            seed=MODEL_SEED,
        )
        dim.fit(normalized)
        registry = ModelRegistry(directory)
        self.dim_key = registry.save(dim, dataset=split.train, normalizer=normalizer).key
        self.mean_key = registry.save(
            MeanImputer().fit(normalized), dataset=split.train, normalizer=normalizer
        ).key
        self.directory = directory
        self.pool = split.train.values
        self.truth = split.truth
        self.holdout = split.holdout_mask == 1.0
        self.ranges = np.where(normalizer.ranges == 0.0, 1.0, normalizer.ranges)


def _request_line(request_id: str, key: str, rows: np.ndarray) -> bytes:
    payload = {
        "op": "impute",
        "id": request_id,
        "key": key,
        "rows": [[None if np.isnan(v) else float(v) for v in row] for row in rows],
    }
    return (json.dumps(payload) + "\n").encode()


class Child:
    """One ``repro serve run`` process behind the launcher."""

    def __init__(self, registry: Registry, work: Path, responses: Optional[Path]) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if responses is not None:
            command += ["--responses", str(responses)]
        command += ["--", "serve", "run", "--registry", str(registry.directory)]
        self.stderr_path = work / "child-stderr.txt"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr
        )

    def warm_up(self, registry: Registry, rng: np.random.Generator) -> None:
        """Sequential requests to both entries at both sizes, all must succeed."""
        for i in range(WARMUP_REQUESTS):
            key = registry.dim_key if i % 2 == 0 else registry.mean_key
            n_rows = BULK_ROWS if i % 4 < 2 else 1
            rows = registry.pool[rng.integers(0, len(registry.pool), n_rows)]
            self.proc.stdin.write(_request_line(f"w{i}", key, rows))
            self.proc.stdin.flush()
            reply = json.loads(self.proc.stdout.readline() or b"{}")
            if reply.get("ok") is not True:
                self.stop()
                raise SystemExit(
                    f"perfbench: serve warm-up request failed: {reply}; child stderr: "
                    f"{self.stderr_path.read_text()[-2000:]}"
                )

    def stop(self) -> None:
        """EOF on stdin is a graceful shutdown; kill only if it hangs."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _schedule(registry: Registry, seed: int, seconds: float, rate: float, trace: bool):
    """Arrival offsets, pre-serialised lines, and each request's pool rows."""
    rng = np.random.default_rng([seed, 1])
    offsets: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= seconds:
            break
        offsets.append(t)
    ids, lines, rows_of = [], [], []
    for i in range(len(offsets)):
        key = registry.dim_key if rng.random() < DIM_SHARE else registry.mean_key
        n_rows = BULK_ROWS if rng.random() < BULK_SHARE else 1
        index = rng.integers(0, len(registry.pool), n_rows)
        # Traced runs interleave recorded ("t") and unrecorded ("u") requests.
        request_id = (("t" if i % 2 == 0 else "u") if trace else "r") + str(i)
        ids.append(request_id)
        lines.append(_request_line(request_id, key, registry.pool[index]))
        rows_of.append(index)
    return np.asarray(offsets), ids, lines, rows_of


def _drive(child: Child, offsets: np.ndarray, lines: List[bytes]):
    """Send on schedule, read replies; returns (t0, send times, replies)."""
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    replies: List[Tuple[bytes, float, bytes]] = []
    stdout = child.proc.stdout

    def reader() -> None:
        clock = time.perf_counter
        readline = stdout.readline
        while True:
            try:
                line = readline()
            except (OSError, ValueError):  # pipe closed under a killed child
                return
            if not line:
                return
            stamp = clock()
            # Replies start with {"id": "<id>", -- id extraction only.
            replies.append((line[8 : line.find(b'"', 8)], stamp, line))

    thread = threading.Thread(target=reader, name="perfbench-reader")
    thread.start()
    sent = np.zeros(len(offsets))
    stdin = child.proc.stdin
    try:
        t0 = time.perf_counter()
        i, n = 0, len(offsets)
        while i < n:
            now = time.perf_counter() - t0
            if offsets[i] > now:
                time.sleep(offsets[i] - now)
                continue
            j = i + 1
            while j < n and offsets[j] <= now:
                j += 1
            stdin.write(b"".join(lines[i:j]))
            stdin.flush()
            sent[i:j] = time.perf_counter() - t0
            i = j
    finally:
        # EOF asks the server to drain; the reader ends at the child's EOF.
        stdin.close()
        thread.join(timeout=CHILD_TIMEOUT_S)
        child.stop()
        thread.join(timeout=CHILD_TIMEOUT_S)
        sys.setswitchinterval(previous_interval)
    return t0, sent, replies


def _reply_rows(rows: list) -> np.ndarray:
    return np.asarray(
        [[np.nan if v is None else v for v in row] for row in rows], dtype=np.float64
    )


def run(seed: int, seconds: float, trace: bool, tiny: bool, work: Path) -> dict:
    rate = 100.0 if tiny else RATE_PER_S
    setups: List[float] = []
    child: Optional[Child] = None
    responses = work / "responses.json" if trace else None
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        registry = Registry(work / f"registry-{attempt}", seed, tiny)
        child = Child(registry, work, responses)
        child.warm_up(registry, np.random.default_rng([seed, 2]))
        setups.append(time.perf_counter() - start)
        if attempt < SETUP_REPEATS - 1:
            child.stop()

    offsets, ids, lines, rows_of = _schedule(registry, seed, seconds, rate, trace)
    t0, sent, replies = _drive(child, offsets, lines)
    late_ms = 1e3 * (sent - offsets)
    late_p99 = quantile(late_ms, 0.99)
    if late_p99 >= LATE_LIMIT_MS:
        raise SystemExit(
            f"perfbench: load generator ran {late_p99:.1f} ms late at p99 "
            f"(limit {LATE_LIMIT_MS} ms); the run measured the generator"
        )

    by_id: Dict[str, Tuple[float, bytes]] = {
        request_id.decode(): (stamp, line) for request_id, stamp, line in replies
    }
    latency: Dict[str, float] = {}
    failed = slo_ok = rows_served = 0
    squared, cells = 0.0, 0
    last_reply = t0
    for i, request_id in enumerate(ids):
        got = by_id.get(request_id)
        if got is None:
            failed += 1
            continue
        stamp, line = got
        reply = json.loads(line)
        asked = registry.pool[rows_of[i]]
        observed = ~np.isnan(asked)
        answer = _reply_rows(reply.get("rows") or [[]])
        if (
            reply.get("ok") is not True
            or answer.shape != asked.shape
            or not np.array_equal(
                asked[observed].view(np.uint64), answer[observed].view(np.uint64)
            )
            or not np.isfinite(answer[~observed]).all()
        ):
            failed += 1
            continue
        latency[request_id] = stamp - t0 - offsets[i]
        slo_ok += latency[request_id] <= SLO_MS / 1e3
        rows_served += len(asked)
        last_reply = max(last_reply, stamp)
        held = registry.holdout[rows_of[i]]
        diff = (answer - registry.truth[rows_of[i]]) / registry.ranges
        squared += float((diff[held] ** 2).sum())
        cells += int(held.sum())

    attempted = len(ids)
    if trace:
        metrics = _layer_metrics(responses, latency, attempted, late_p99)
    else:
        values = list(latency.values()) or [float("nan")]
        metrics = {
            "setup_s": quantile(setups, 0.5),
            "rows_per_s": rows_served / max(last_reply - t0, 1e-9),
            "rmse": (squared / cells) ** 0.5 if cells else float("nan"),
            "latency_p50_ms": 1e3 * quantile(values, 0.5),
            "slo_ok_frac": slo_ok / attempted,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "tracer": None}


def _layer_metrics(
    responses: Path, latency: Dict[str, float], attempted: int, late_p99: float
) -> Dict[str, float]:
    """Serve-layer split of the recorded ("t") requests' latency."""
    records = [r for r in json.loads(responses.read_text()) if r[0] in latency]
    if not records:
        raise SystemExit("perfbench: traced serve run recorded no responses")
    queue_ms = [1e3 * r[1] for r in records]
    service_ms = [1e3 * r[2] for r in records]
    traced = [latency[r[0]] for r in records]
    untraced = [v for k, v in latency.items() if k.startswith("u")]
    transport_ms = [1e3 * total - q - s for total, q, s in zip(traced, queue_ms, service_ms)]
    # Each model call serves `coalesced` requests; the recorded half of the
    # requests stands in for all of them.
    calls = sum(1.0 / r[3] for r in records) * attempted / len(records)
    return {
        "bench.op_s": quantile(traced, 0.5),
        "serve.latency_ms_p95": 1e3 * quantile(list(latency.values()), 0.95),
        "serve.latency_ms_p99": 1e3 * quantile(list(latency.values()), 0.99),
        "serve.queue_ms_p50": quantile(queue_ms, 0.5),
        "serve.queue_ms_p99": quantile(queue_ms, 0.99),
        "serve.service_ms_p50": quantile(service_ms, 0.5),
        "serve.service_ms_p99": quantile(service_ms, 0.99),
        "serve.transport_ms_p50": quantile(transport_ms, 0.5),
        "serve.coalesced_mean": float(np.mean([r[3] for r in records])),
        "serve.model_calls": calls,
        "obs.trace_overhead_frac": (
            quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0 if untraced else 0.0
        ),
        "obs.layer_coverage_frac": (sum(queue_ms) + sum(service_ms)) / (1e3 * sum(traced)),
        "load.late_p99_ms": late_p99,
    }
