"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the system; ``--trace 1`` runs the same workload with timing proxies
(``perfbench/layers.py``) and reports the per-layer metrics instead.
Every answer is checked against a reference; wrong answers, errors and
refusals are counted as failed operations, never hidden and never fatal.
The last stdout line is the JSON result; the lines above it are the
same figures for a human, and ``perfbench/results/`` keeps the full
record (seed, host, commit, raw values) of each run.

Workloads, metrics and the layers each metric belongs to are described
in ``perfbench/README.md``; ``BENCHMARK.json`` lists them with units.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"error: the program is not here: no src/repro under {ROOT}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen, hostspeed, openloop  # noqa: E402
from perfbench.layers import (  # noqa: E402
    Recorder,
    count,
    durations_ms,
    self_ms,
    trace_cluster,
    trace_engine,
    trace_index_ops,
    trace_query_layers,
    under,
)
from perfbench.stats import (  # noqa: E402
    commit_of,
    host_info,
    median,
    nearest_rank,
    process_peak_rss_mb,
    self_peak_rss_mb,
    tail,
)
from perfbench.system import QUERY_INDEX, TRANSPORT_INDEX, build_index, untimed  # noqa: E402
from repro.api import QueryResult  # noqa: E402
from repro.core.reference import results_equivalent  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.graph.dijkstra import dijkstra_all  # noqa: E402
from repro.obs.histogram import LogHistogram  # noqa: E402
from repro.serve import ClusterCoordinator, Engine  # noqa: E402
from repro.text.relevance import RelevanceModel  # noqa: E402

# ----------------------------------------------------------------------
# Workload parameters and the benchmark's own bounds
# ----------------------------------------------------------------------
#: Set-ups per untraced run; ``setup_s`` is the median of their times
#: at reference host speed.
SETUP_REPEATS = 3
#: Closed loops measure in this many slices; between two slices they
#: check the answers and read the host speed (``hostspeed``).
SLICES = 80
#: http-zipf: mean Poisson arrival rate (req/s), sender connections,
#: distinct-query pool (4x the server's 1024-entry cache), and the
#: batch size of the cache-filling warm-up.
HTTP_RATE = 30.0
HTTP_CONNECTIONS = 2
HTTP_POOL = 4096
HTTP_CACHE = 1024
HTTP_WARM_BATCH = 64
#: An open-loop run whose generator ran later than this at p99 measured
#: the generator, not the server: it is reported invalid (exit 3).
GEN_LATE_P99_MAX_MS = 10.0
#: engine-cold: distinct warm-up queries (lazy label snapshots).
COLD_WARMUP = 1000
#: engine-rw: distinct read pool, and one write slot per this many ops.
#: The pool is the same for every seed (drawn with ``RW_POOL_SEED``):
#: Zipf(1) over 256 queries puts a sixth of all reads on one query, so
#: per-seed pools made p50 and throughput differ 2x between seeds.  The
#: seed still draws the read sequence and every update.
RW_POOL = 256
RW_POOL_SEED = 0
RW_WRITE_EVERY = 10
#: cluster-batch: worker processes, batch size, warm-up batches.
CLUSTER_WORKERS = 2
CLUSTER_BATCH = 32
CLUSTER_WARM_BATCHES = 32
#: HTTP statuses that are refusals (rate limit, shed, deadline).
REFUSED = (429, 503, 504)
UPDATE_KINDS = ("insert", "delete", "add_keyword", "remove_keyword")
#: Units of the human-summary figures that BENCHMARK.json does not gate.
REPORT_UNITS = {
    "setup_wall_s": "s", "p50_wall_ms": "ms", "ops_wall_per_s": "1/s", "host_factor": "ratio",
    "cache_hit_frac": "ratio",
    "warmup_s": "s", "tail_ms": "ms", "update_p50_ms": "ms", "update_tail_ms": "ms",
    "fail_frac": "ratio",
    # engine-rw's write-path layer metrics (traced runs)
    "engine.invalidations_per_update": "count", "engine.update_self_ms_p50": "ms",
    "index.insert_ms_p50": "ms", "index.delete_ms_p50": "ms", "index.keyword_edit_ms_p50": "ms",
    "index.rebuild_ms_p50": "ms", "index.rebuilt_per_rebuild": "count",
    "index.pending_query_frac": "ratio",
}


@dataclass
class Pass:
    """One timed pass: per-call latencies and what the calls returned.

    Closed loops also keep each call scaled to reference host speed by
    the readings around its slice (``scaled_ms``, ``scaled_busy_s``).
    Answers wait in ``answers`` until they are judged and are then
    dropped, so memory does not grow with the operations served; traced
    runs keep the judged ``QueryResult`` values for the per-layer counts.
    """

    latency_ms: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    scaled_ms: list[float] = field(default_factory=list)
    scaled_busy_s: float = 0.0
    cached: list[bool] = field(default_factory=list)  # engine-rw: per read, a cache hit
    ops: int = 0
    answers: list = field(default_factory=list)  # (query, QueryResult | error), unjudged
    results: list = field(default_factory=list)  # judged QueryResults (traced runs)
    update_ms: list[float] = field(default_factory=list)

    def timed(self, seconds: float, ops: int = 1) -> None:
        """One client call that took ``seconds`` and served ``ops`` operations."""
        self.latency_ms.append(1000.0 * seconds)
        self.busy_s += seconds
        self.ops += ops


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    recorder: Recorder = field(default_factory=Recorder)
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    setup_kernel_ms: list[tuple[float, float]] = field(default_factory=list)
    kernel_ms: list[float] = field(default_factory=list)  # host-speed readings
    cpu_bound: bool = False  # p50_ms and ops_per_s come from the scaled calls
    warmup_s: list[float] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    ops_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    refused: int = 0
    layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    valid: bool = True
    wrong_by_kind: dict = field(default_factory=dict)

    @property
    def phase(self) -> Callable:
        return self.recorder.call if self.trace else untimed

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.refused

    def judge(self, query, answer, reference, into: Pass | None = None) -> None:
        """Count one query: an error, a wrong answer, or a correct one.

        A traced run keeps the answer in ``into.results``.
        """
        self.attempted += 1
        if self.trace and into is not None and isinstance(answer, QueryResult):
            into.results.append(answer)
        if isinstance(answer, BaseException):
            self.errors += 1
        elif not results_equivalent(answer.pairs(), reference):
            self.wrong += 1
            kind = f"{query.kind}-{query.mode}"
            self.wrong_by_kind[kind] = self.wrong_by_kind.get(kind, 0) + 1


def timed_call(fn: Callable, *args):
    """``(result or raised exception, seconds)`` of one call."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as error:  # noqa: BLE001 - a failed operation, counted
        result = error
    return result, time.perf_counter() - start


def two_passes(run: Run, measure: Callable[[float], Pass], install: Callable) -> Pass:
    """The measured pass(es): one untraced, or untraced + traced halves.

    A traced run spends half its time untraced and half with the proxies
    installed; the per-layer figures come from the traced half only and
    ``trace.overhead_frac`` compares the two halves' p50.  Returns the
    pass the run's figures come from.
    """
    if not run.trace:
        run.passes.append(measure(run.seconds))
        return run.passes[-1]
    plain = measure(run.seconds / 2)
    install(run.recorder)
    run.notes["trace_mark"] = len(run.recorder.spans)
    try:
        traced = measure(run.seconds / 2)
    finally:
        run.recorder.restore()
    run.passes += [plain, traced]
    # Closed loops compare their host-speed-scaled calls.
    base = median(plain.scaled_ms or plain.latency_ms)
    traced_p50 = median(traced.scaled_ms or traced.latency_ms)
    run.layer["trace.overhead_frac"] = traced_p50 / base - 1.0 if base else 0.0
    return traced


def traced_spans(run: Run) -> list:
    return run.recorder.spans[run.notes.get("trace_mark", 0):]


def timed_setup(run: Run, build: Callable):
    """One set-up: ``build()`` timed, with a host-speed reading either side.

    ``setup_s`` gets the wall time scaled at the geometric mean of the
    two readings.
    """
    before = hostspeed.kernel_ms()
    start = time.perf_counter()
    system = build()
    seconds = time.perf_counter() - start
    after = hostspeed.kernel_ms()
    run.setup_wall_s.append(seconds)
    run.setup_kernel_ms.append((before, after))
    run.setup_s.append(seconds * hostspeed.factor(math.sqrt(before * after)))
    return system


def set_up(run: Run, index: dict, serve: Callable, first: Callable, warm: Callable):
    """Build and warm the system ``SETUP_REPEATS`` times (once when traced).

    Each set-up runs from nothing to the first answered query, then the
    workload's fixed warm-up pass runs on that system; both are timed.
    Earlier systems are closed and dropped before the next is built, and
    the last one is returned for measuring.
    """

    def build():
        _data, kspin = build_index(**index, phase=run.phase)
        backend = run.phase("build.serve", serve, kspin)
        first(backend)
        return kspin, backend

    system = None
    for _ in range(1 if run.trace else SETUP_REPEATS):
        if system is not None:
            close = getattr(system[1], "close", None)
            if close is not None:
                close()
            system = None
            gc.collect()
        kspin, backend = timed_setup(run, build)
        start = time.perf_counter()
        warm(backend)
        run.warmup_s.append(time.perf_counter() - start)
        system = (kspin, backend)
    return system


def build_layer_metrics(run: Run, spans) -> None:
    for name in ("dataset", "csr", "oracle", "alt", "index", "serve"):
        run.layer[f"build.{name}_s"] = sum(durations_ms(spans, f"build.{name}")) / 1000.0


def memory_metrics(run: Run, oracle_bytes: int, index_bytes: int) -> None:
    run.layer["mem.oracle_mb"] = oracle_bytes / 2**20
    run.layer["mem.index_mb"] = index_bytes / 2**20


def query_layer_metrics(run: Run, spans, results: list[QueryResult], root: str) -> None:
    """core, heap generation, distance, lowerbound, relevance, engine."""
    n = len(results)
    if not n:
        return
    totals = dict.fromkeys(
        ("iterations", "distance_computations", "lower_bound_computations", "heap_insertions"), 0
    )
    hits = cached = 0
    for result in results:
        cached += result.cached
        if not result.cached:
            hits += len(result.hits)
        for name in totals:
            totals[name] += int(result.stats.get(name, 0))
    run.layer["core.iterations_per_query"] = totals["iterations"] / n
    run.layer["core.distance_calls_per_query"] = totals["distance_computations"] / n
    run.layer["core.lb_calls_per_query"] = totals["lower_bound_computations"] / n
    run.layer["core.heap_insertions_per_query"] = totals["heap_insertions"] / n
    dist = totals["distance_computations"]
    run.layer["core.useful_frac"] = hits / dist if dist else 0.0
    run.layer["engine.cache_hit_frac"] = cached / n
    mine = under(spans, root)
    run.layer["heapgen.create_ms_per_query"] = self_ms(mine, "heapgen.create") / n
    run.layer["heapgen.pop_ms_per_query"] = self_ms(mine, "heapgen.pop") / n
    oracle_ms = self_ms(mine, "oracle.")
    run.layer["oracle.ms_per_query"] = oracle_ms / n
    calls = count(mine, "oracle.")
    run.layer["oracle.us_per_call"] = 1000.0 * oracle_ms / calls if calls else 0.0
    run.layer["lowerbound.ms_per_query"] = self_ms(mine, "lowerbound.") / n
    run.layer["relevance.ms_per_query"] = self_ms(mine, "relevance.") / n
    run.layer["engine.call_ms_p50"] = median(durations_ms(mine, root))
    run.layer["engine.self_ms_per_query"] = self_ms(mine, root) / n


def static_checker(run: Run, data) -> Callable[[Pass], None]:
    """Judges a pass's not-yet-checked answers against the brute force.

    For an unchanged index.  Answers are checked in vertex order, so
    same-source references share one memoised search.
    """
    relevance = RelevanceModel(data.keywords)

    def check(result: Pass) -> None:
        fresh, result.answers = result.answers, []
        for query, answer in sorted(fresh, key=lambda pair: pair[0].vertex):
            reference = gen.static_reference(data.graph, data.keywords, relevance, query)
            run.judge(query, answer, reference, result)

    return check


def closed_loop_rates(run: Run, final: Pass) -> None:
    run.ops_per_s = final.ops / final.scaled_busy_s
    run.cpu_bound = True


def closed_loop(
    run: Run,
    seconds: float,
    step: Callable[[Pass], None],
    between: Callable[[Pass], None] | None = None,
) -> Pass:
    """Call ``step`` for ``seconds`` of wall time, in ``SLICES`` slices.

    The host speed is read right before and right after each slice, and
    the slice's calls are scaled by the geometric mean of the two
    factors (``hostspeed``).  ``between`` runs untimed after each slice
    (the reference check).
    """
    result = Pass()
    for _ in range(SLICES):
        before = hostspeed.kernel_ms()
        first, busy = len(result.latency_ms), result.busy_s
        end = time.perf_counter() + seconds / SLICES
        while time.perf_counter() < end:
            step(result)
        after = hostspeed.kernel_ms()
        run.kernel_ms += [before, after]
        factor = hostspeed.factor(math.sqrt(before * after))
        result.scaled_ms += [x * factor for x in result.latency_ms[first:]]
        result.scaled_busy_s += (result.busy_s - busy) * factor
        if between is not None:
            between(result)
    return result


# ----------------------------------------------------------------------
# engine-cold / engine-rw: in-process Engine over E-S with hub labels
# ----------------------------------------------------------------------
def engine_cold(run: Run) -> None:
    data = load_dataset(QUERY_INDEX["dataset"])
    queries = gen.distinct_queries(data.graph, data.keywords, run.seed, "queries")
    probe = next(queries)
    warm = gen.take(queries, COLD_WARMUP)
    kspin, engine = set_up(
        run, QUERY_INDEX, Engine, lambda e: e.execute(probe), lambda e: [e.execute(q) for q in warm]
    )

    def step(result: Pass) -> None:
        query = next(queries)
        answer, seconds = timed_call(engine.execute, query)
        result.timed(seconds)
        result.answers.append((query, answer))

    def install(recorder: Recorder) -> None:
        trace_query_layers(recorder, kspin)
        trace_engine(recorder, engine)

    check = static_checker(run, data)
    final = two_passes(run, lambda s: closed_loop(run, s, step, check), install)
    closed_loop_rates(run, final)
    run.peak_rss_mb = self_peak_rss_mb()
    if run.trace:
        spans = traced_spans(run)
        build_layer_metrics(run, run.recorder.spans)
        memory_metrics(run, kspin.oracle.memory_bytes(), kspin.memory_bytes())
        query_layer_metrics(run, spans, final.results, "engine.execute")


def engine_rw(run: Run) -> None:
    data = load_dataset(QUERY_INDEX["dataset"])
    queries = gen.distinct_queries(data.graph, data.keywords, RW_POOL_SEED, "queries")
    probe = next(queries)
    pool = gen.take(queries, RW_POOL)
    reads = gen.zipf(len(pool), run.seed, "reads")
    mirror = gen.Mirror.of(data.keywords)
    updates = gen.UpdateStream(mirror, data.graph, data.keywords, run.seed)
    kspin, engine = set_up(
        run, QUERY_INDEX, Engine, lambda e: e.execute(probe), lambda e: [e.execute(q) for q in pool]
    )
    rows: dict[int, list[float]] = {}
    stats = {"ops": 0, "uncached": 0, "fallback": 0, "rebuilt": [], "rebuild_ms": []}

    def step(result: Pass) -> None:
        stats["ops"] += 1
        if stats["ops"] % RW_WRITE_EVERY == 0:
            op = updates.next_op()
            answer, seconds = timed_call(engine.apply, op)
            result.busy_s += seconds
            result.ops += 1
            run.attempted += 1
            if isinstance(answer, BaseException):
                run.errors += 1
            elif op.op == "rebuild":
                stats["rebuilt"].append(len(answer.get("rebuilt", ())))
                stats["rebuild_ms"].append(1000.0 * seconds)
            if op.op in UPDATE_KINDS:
                result.update_ms.append(1000.0 * seconds)
            return
        query = pool[reads.sample_rank()]
        tracing = run.notes.get("tracing")
        pending = kspin.index.pending_updates() if tracing else {}
        answer, seconds = timed_call(engine.execute, query)
        result.timed(seconds)
        result.cached.append(isinstance(answer, QueryResult) and answer.cached)
        if tracing and isinstance(answer, QueryResult) and not answer.cached:
            stats["uncached"] += 1
            stats["fallback"] += any(t in pending for t in query.keywords)
        if query.vertex not in rows:
            rows[query.vertex] = dijkstra_all(data.graph, query.vertex)
        reference = gen.mirror_reference(rows[query.vertex], mirror, kspin.relevance, query)
        run.judge(query, answer, reference, result)

    def install(recorder: Recorder) -> None:
        trace_query_layers(recorder, kspin)
        trace_index_ops(recorder, kspin)
        trace_engine(recorder, engine)
        run.notes["tracing"] = True
        run.notes["invalidations"] = engine.metrics_snapshot()["cache"]["invalidations"]
        stats["rebuilt"].clear()

    final = two_passes(run, lambda s: closed_loop(run, s, step), install)
    closed_loop_rates(run, final)
    run.peak_rss_mb = self_peak_rss_mb()
    run.notes["update_ms"] = final.update_ms
    run.notes["rebuild_ms"] = stats["rebuild_ms"]
    if run.trace:
        spans = traced_spans(run)
        build_layer_metrics(run, run.recorder.spans)
        memory_metrics(run, kspin.oracle.memory_bytes(), kspin.memory_bytes())
        query_layer_metrics(run, spans, final.results, "engine.execute")
        n_updates = len(final.update_ms)
        invalidated = engine.metrics_snapshot()["cache"]["invalidations"] - run.notes["invalidations"]
        run.layer["engine.invalidations_per_update"] = invalidated / n_updates if n_updates else 0.0
        applies = [s for s in spans if s[3] == "engine.apply" and s[7] in UPDATE_KINDS]
        run.layer["engine.update_self_ms_p50"] = median([1000.0 * s[6] for s in applies])
        run.layer["index.insert_ms_p50"] = median(durations_ms(spans, "index.insert_object"))
        run.layer["index.delete_ms_p50"] = median(durations_ms(spans, "index.delete_object"))
        run.layer["index.keyword_edit_ms_p50"] = median(
            durations_ms(spans, "index.add_keyword") + durations_ms(spans, "index.remove_keyword")
        )
        run.layer["index.rebuild_ms_p50"] = median(durations_ms(spans, "index.rebuild_pending"))
        run.layer["index.rebuilt_per_rebuild"] = median(stats["rebuilt"])
        uncached = stats["uncached"]
        run.layer["index.pending_query_frac"] = stats["fallback"] / uncached if uncached else 0.0


# ----------------------------------------------------------------------
# http-zipf: QueryServer in its own process, open-loop keep-alive load
# ----------------------------------------------------------------------
class ServerProcess:
    """The ``perfbench/server.py`` child and its stdin/stdout control pipe."""

    def __init__(self, trace: bool) -> None:
        command = [sys.executable, str(HERE / "server.py")] + (["--trace"] if trace else [])
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("the server process exited before it was ready")
        self.port = json.loads(line)["port"]

    def command(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def get(self, path: str) -> dict:
        return self._request("GET", path, None)

    def post(self, path: str, payload: dict) -> dict:
        return self._request("POST", path, json.dumps(payload).encode())

    def _request(self, method: str, path: str, body: bytes | None) -> dict:
        """One request on a fresh connection, outside the measured load."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"{method} {path} answered {response.status}")
        return payload["result"]

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def server_p50_ms(before: dict, after: dict) -> float:
    """p50 of the requests between two ``/v1/metrics`` snapshots of /query.

    The bucket counts of the two snapshots are subtracted and read with
    the server's own ``LogHistogram.percentile``; the interval's exact
    min and max are unknown, so the bucket midpoint is not clamped.
    """
    old = before.get("endpoints", {}).get("/query", {}).get("buckets", {})
    new = after.get("endpoints", {}).get("/query", {}).get("buckets", {})
    delta = {i: c - old.get(i, 0) for i, c in new.items() if c - old.get(i, 0) > 0}
    histogram = LogHistogram.from_dict(
        {"buckets": delta, "count": sum(delta.values()), "min": 0.0, "max": math.inf}
    )
    return 1000.0 * histogram.percentile(50)


def http_zipf(run: Run) -> None:
    data = load_dataset(TRANSPORT_INDEX["dataset"])
    queries = gen.distinct_queries(data.graph, data.keywords, run.seed, "queries")
    probe = next(queries)
    pool = gen.take(queries, HTTP_POOL)
    arrivals = gen.stream(run.seed, "arrivals")
    draws = gen.zipf(len(pool), run.seed, "requests")
    halves = [run.seconds] if not run.trace else [run.seconds / 2, run.seconds / 2]
    schedules = []
    for seconds in halves:
        offsets = openloop.poisson_schedule(HTTP_RATE, seconds, arrivals)
        schedules.append((offsets, gen.zipf_draws(pool, len(offsets), draws)))
    warm_zipf, warm, seen = gen.zipf(len(pool), run.seed, "warmup"), [], set()
    while len(seen) < HTTP_CACHE:
        warm.append(pool[warm_zipf.sample_rank()])
        seen.add(warm[-1])
    relevance = RelevanceModel(data.keywords)
    references = {
        q: gen.static_reference(data.graph, data.keywords, relevance, q)
        for _, requests in schedules for q in requests
    }
    servers: list[ServerProcess] = []

    def start_server() -> ServerProcess:
        server = ServerProcess(run.trace)
        servers.append(server)
        server.get("/v1/healthz")
        server.post("/v1/query", probe.to_dict())
        return server

    try:
        for _ in range(1 if run.trace else SETUP_REPEATS):
            for old in servers:
                old.stop()
            server = timed_setup(run, start_server)
        warm_client = openloop.KeepAliveClient("127.0.0.1", server.port, HTTP_CONNECTIONS)
        batches = [warm[i:i + HTTP_WARM_BATCH] for i in range(0, len(warm), HTTP_WARM_BATCH)]
        samples = openloop.run(
            [0.0] * len(batches),
            batches,
            lambda c, b: warm_client.post(c, "/v1/batch", {"queries": [q.to_dict() for q in b]}),
            HTTP_CONNECTIONS,
        )
        warm_client.close()
        if any(s.error or s.response[0] != 200 for s in samples):
            raise RuntimeError("the cache-filling warm-up failed")
        run.warmup_s.append(max(s.done for s in samples) - min(s.due for s in samples))

        client = openloop.KeepAliveClient("127.0.0.1", server.port, HTTP_CONNECTIONS)
        pending = iter(schedules)
        measured: list[tuple[list, list, list]] = []  # (offsets, requests, samples)

        def measure(_seconds: float) -> Pass:
            offsets, requests = next(pending)
            before = server.get("/v1/metrics") if run.notes.get("tracing") else None
            samples = openloop.run(
                offsets, requests,
                lambda c, q: client.post(c, "/v1/query", q.to_dict()),
                HTTP_CONNECTIONS,
            )
            if before is not None:
                run.notes["server_p50_ms"] = server_p50_ms(before, server.get("/v1/metrics"))
            measured.append((offsets, requests, samples))
            result = Pass(ops=len(samples))
            for s in samples:
                query = requests[s.index]
                if s.error is not None:
                    answer: object = RuntimeError(s.error)
                elif s.response[0] in REFUSED:
                    run.refused += 1
                    continue
                elif s.response[0] != 200:
                    answer = RuntimeError(f"HTTP {s.response[0]}")
                else:
                    answer = QueryResult.from_dict(s.response[1]["result"])
                result.latency_ms.append(1000.0 * s.latency)
                result.answers.append((query, answer))
            return result

        def install(_recorder: Recorder) -> None:
            server.command("trace")
            run.notes["tracing"] = True

        final = two_passes(run, measure, install)
        for one in run.passes:
            for query, answer in one.answers:
                run.judge(query, answer, references[query], one)
        run.attempted += run.refused
        offsets, requests, samples = measured[-1]
        t_zero = min(s.due - offsets[s.index] for s in samples)
        answered = sum(1 for s in samples if s.error is None and s.response[0] == 200)
        run.ops_per_s = answered / (max(s.done for s in samples) - t_zero)
        all_samples = [s for one in measured for s in one[2]]
        gen_late = [1000.0 * s.gen_late for s in all_samples]
        run.notes["gen_late_p99_ms"] = nearest_rank(gen_late, 99)
        run.valid = run.notes["gen_late_p99_ms"] <= GEN_LATE_P99_MAX_MS
        stats = server.command("stats")
        run.peak_rss_mb = stats["peak_rss_mb"]
        if run.trace:
            spans = [tuple(s) for s in stats["spans"]]
            build_layer_metrics(run, spans)
            memory_metrics(run, stats["oracle_bytes"], stats["index_bytes"])
            traced = [s for s in spans if s[1] == "engine.execute"]
            query_layer_metrics(run, traced, final.results, "engine.execute")
            backend = [s for s in traced if s[3] == "engine.execute"]
            run.layer["http.backend_ms_p50"] = median(durations_ms(backend, "engine.execute"))
            overhead = []
            for s in samples:
                tag = repr(requests[s.index])
                for span in backend:
                    if span[7] == tag and span[4] >= s.sent and span[5] <= s.done:
                        overhead.append(1000.0 * ((s.done - s.sent) - (span[5] - span[4])))
                        break
            run.layer["http.overhead_ms_p50"] = median(overhead)
            run.layer["http.gap_ms_p50"] = median(final.latency_ms) - run.notes["server_p50_ms"]
            run.layer["http.queue_wait_ms_p50"] = median([1000.0 * s.queue_wait for s in samples])
            run.layer["http.gen_late_ms_p99"] = nearest_rank(
                [1000.0 * s.gen_late for s in samples], 99
            )
            run.layer["http.requests_per_connection"] = len(all_samples) / max(1, client.opened)
        client.close()
    finally:
        for server in servers:
            server.stop()


# ----------------------------------------------------------------------
# cluster-batch: ClusterCoordinator, 2 forked workers, batches of 32
# ----------------------------------------------------------------------
CLUSTER_COUNTERS = (
    "dispatches", "sketch_short_circuits", "sketch_skipped_shards",
    "retried_requests", "fallback_queries",
)


def worker_totals(coordinator) -> dict[str, tuple[int, float]]:
    """Per worker: (queries served, seconds spent executing queries)."""
    per_worker = coordinator.metrics_snapshot()["cluster"]["per_worker"]
    return {
        name: (snap["queries_served"], snap["query_latency"]["total"])
        for name, snap in per_worker.items()
    }


def cluster_batch(run: Run) -> None:
    data = load_dataset(TRANSPORT_INDEX["dataset"])
    queries = gen.distinct_queries(data.graph, data.keywords, run.seed, "queries")
    probe = next(queries)
    warm = [gen.take(queries, CLUSTER_BATCH) for _ in range(CLUSTER_WARM_BATCHES)]

    def serve(kspin):
        return ClusterCoordinator(kspin, num_workers=CLUSTER_WORKERS).start()

    kspin, coordinator = set_up(
        run, TRANSPORT_INDEX, serve, lambda c: c.execute_many([probe]),
        lambda c: [c.execute_many(batch) for batch in warm],
    )
    try:

        def step(result: Pass) -> None:
            batch = gen.take(queries, CLUSTER_BATCH)
            answers, seconds = timed_call(coordinator.execute_many, batch)
            result.timed(seconds, len(batch))
            if isinstance(answers, BaseException):
                answers = [answers] * len(batch)
            result.answers.extend(zip(batch, answers))

        def install(recorder: Recorder) -> None:
            run.notes["counters"] = {c: getattr(coordinator, c) for c in CLUSTER_COUNTERS}
            run.notes["workers"] = worker_totals(coordinator)
            trace_cluster(recorder, coordinator)

        check = static_checker(run, data)
        final = two_passes(run, lambda s: closed_loop(run, s, step, check), install)
        closed_loop_rates(run, final)
        run.peak_rss_mb = self_peak_rss_mb() + sum(
            process_peak_rss_mb(h.process.pid) for h in coordinator.workers if h is not None
        )
        if run.trace:
            spans = traced_spans(run)
            build_layer_metrics(run, run.recorder.spans)
            memory_metrics(run, kspin.oracle.memory_bytes(), kspin.memory_bytes())
            n, batches = final.ops, len(final.latency_ms)
            delta = {c: getattr(coordinator, c) - v for c, v in run.notes["counters"].items()}
            run.layer["cluster.dispatches_per_query"] = delta["dispatches"] / n
            run.layer["cluster.short_circuit_frac"] = delta["sketch_short_circuits"] / n
            run.layer["cluster.skipped_shards"] = delta["sketch_skipped_shards"]
            run.layer["cluster.retries"] = delta["retried_requests"]
            run.layer["cluster.fallback_queries"] = delta["fallback_queries"]
            ipc = [s for s in spans if s[3] == "ipc.query_batch"]
            run.layer["cluster.ipc_ms_p50"] = median(durations_ms(ipc, "ipc.query_batch"))
            overhead = []
            for root in (s for s in spans if s[3] == "cluster.execute_many"):
                inside = [s[5] - s[4] for s in ipc if s[4] >= root[4] and s[5] <= root[5]]
                if inside:
                    overhead.append(1000.0 * ((root[5] - root[4]) - max(inside)))
            run.layer["cluster.scatter_overhead_ms_p50"] = median(overhead)
            now = worker_totals(coordinator)
            served = [now[w][0] - run.notes["workers"].get(w, (0, 0.0))[0] for w in now]
            busy = sum(now[w][1] - run.notes["workers"].get(w, (0, 0.0))[1] for w in now)
            run.layer["cluster.worker_busy_ms_per_batch"] = 1000.0 * busy / batches
            mean = sum(served) / len(served) if served else 0.0
            run.layer["cluster.worker_imbalance"] = max(served) / mean if mean else 0.0
            query_layer_metrics(run, [], final.results, "engine.execute")
    finally:
        coordinator.close()


WORKLOADS = {
    "http-zipf": http_zipf,
    "engine-cold": engine_cold,
    "engine-rw": engine_rw,
    "cluster-batch": cluster_batch,
}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def p50_calls(one: Pass, values: list[float]) -> list[float]:
    """The calls ``p50_ms`` is the median of: engine-rw's uncached reads, else all.

    With about 40 % cache hits on engine-rw, the median of all reads sits
    on the low flank of the cache-miss cluster, where few calls fall:
    over five seeds its IQR/median was 0.10-0.19, the misses' 0.03-0.06.
    """
    if not one.cached:
        return values
    return [x for x, hit in zip(values, one.cached) if not hit]


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the fuller human report."""
    latency = [x for one in run.passes for x in one.latency_ms]
    value, percentile, beyond = tail(latency)
    if run.cpu_bound:
        p50 = median([x for one in run.passes for x in p50_calls(one, one.scaled_ms)])
    else:
        p50 = median(latency)
    metrics = {
        "setup_s": median(run.setup_s),
        "p50_ms": p50,
        "ops_per_s": run.ops_per_s,
        "peak_rss_mb": run.peak_rss_mb,
    }
    report = dict(metrics)
    report["setup_wall_s"] = median(run.setup_wall_s)
    cached = [hit for one in run.passes for hit in one.cached]
    if cached:
        report["cache_hit_frac"] = sum(cached) / len(cached)
    if run.cpu_bound:
        report["host_factor"] = hostspeed.factor(median(run.kernel_ms))
        report["p50_wall_ms"] = median(
            [x for one in run.passes for x in p50_calls(one, one.latency_ms)]
        )
        busy = sum(one.busy_s for one in run.passes)
        report["ops_wall_per_s"] = sum(one.ops for one in run.passes) / busy
    report["warmup_s"] = median(run.warmup_s)
    report["tail_ms"] = f"{value:.4f} (p{percentile:.2f} of {len(latency)} calls, {beyond} beyond)"
    updates = run.notes.get("update_ms")
    if updates:
        u_value, u_pct, u_beyond = tail(updates)
        report["update_p50_ms"] = median(updates)
        report["update_tail_ms"] = (
            f"{u_value:.4f} (p{u_pct:.2f} of {len(updates)} updates, {u_beyond} beyond)"
        )
    else:
        report["update_p50_ms"] = report["update_tail_ms"] = "n/a (no updates in this workload)"
    report["fail_frac"] = run.failed / run.attempted if run.attempted else 0.0
    return metrics, report


def per_layer(run: Run, names: list[str]) -> tuple[dict, dict]:
    """The listed per-layer metrics, and every one this run measured.

    A listed layer this workload does not exercise reads 0.  Layers only
    ``engine-rw`` measures (the write path) are not listed in
    BENCHMARK.json, because that workload is not gated there (see
    ``perfbench/README.md``); they appear in the human report and the
    record.
    """
    run.layer.update({
        "warmup_s": median(run.warmup_s),
        "check.wrong": run.wrong, "check.errors": run.errors, "check.refused": run.refused,
    })
    metrics = {name: float(run.layer.get(name, 0.0)) for name in names}
    report = dict(metrics)
    report.update((name, float(value)) for name, value in run.layer.items() if name not in metrics)
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORKLOADS[args.workload](run)

    if run.trace:
        metrics, report = per_layer(run, list(units))
    else:
        metrics, report = end_to_end(run)
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: BENCHMARK.json names unmeasured metrics {sorted(missing)}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "host": host_info(),
        "commit": commit_of(ROOT),
        "valid": run.valid,
        "attempted": run.attempted,
        "failed": {
            "wrong": run.wrong, "wrong_by_kind": run.wrong_by_kind,
            "errors": run.errors, "refused": run.refused,
        },
        "metrics": metrics,
        "report": report,
        "raw": {
            "setup_s": run.setup_s,
            "setup_wall_s": run.setup_wall_s,
            "setup_kernel_ms": run.setup_kernel_ms,
            "kernel_ms": [round(x, 5) for x in run.kernel_ms],
            "warmup_s": run.warmup_s,
            "latency_wall_ms": [[round(x, 5) for x in one.latency_ms] for one in run.passes],
            "update_ms": [round(x, 5) for x in run.notes.get("update_ms", [])],
            "rebuild_ms": [round(x, 5) for x in run.notes.get("rebuild_ms", [])],
            "gen_late_p99_ms": run.notes.get("gen_late_p99_ms"),
        },
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if run.trace:
        run.recorder.write(RESULTS / f"{stem}.spans.jsonl.gz")

    print(f"# {run.workload} seed={run.seed} seconds={run.seconds:g} trace={int(run.trace)}")
    for name, value in report.items():
        unit = units.get(name, REPORT_UNITS.get(name, ""))
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:34s} {shown} {unit}")
    print(f"  operations checked: {run.attempted} attempted, {run.wrong} wrong "
          f"{run.wrong_by_kind or ''}, {run.errors} errors, {run.refused} refused")
    if not run.valid:
        print(f"error: invalid run: the load generator ran {run.notes['gen_late_p99_ms']:.2f} ms "
              f"late at p99 (bound {GEN_LATE_P99_MAX_MS} ms)", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
