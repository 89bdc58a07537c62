"""Workloads ``serve-read`` and ``serve-mixed``: the HTTP service, from outside.

The server is its own ``python -m repro serve --workers 1`` process on a
free port.  All load comes from this process over two keep-alive
connections, each a closed loop (next request only after the previous
response is fully read).

* ``serve-read``: both connections send reads — mostly ``/v1/evaluate``,
  some ``/v1/compare`` (3 systems), ~1 in 10 ``/v1/uncertainty`` — over
  three cached workload specs.  Per-request overhead dominates: HTTP
  edge, parse, batcher linger, small fused dispatch, encode.
* ``serve-mixed``: one connection sends the read mix; the other posts
  2000-record ``/v1/ingest`` batches and every 5th request reads
  ``/v1/monitor``.  Ingest decoding runs on the event loop and stalls the
  reads, so a change that helps one side at the other's cost shows here.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import itertools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from common import PROBES_AROUND, Phase, Reference, Tracer, median, percentile, scratch_dir
from repro.analysis import monitor_records
from repro.analysis.streaming import StreamMonitor
from repro.core import PAPER_FIELD_PROFILE, paper_example_parameters
from repro.engine import DEFAULT_CHUNK_SIZE, evaluate_system_batch
from repro.screening import SingleClassClassifier
from repro.service import (
    ScreeningService,
    ServiceConfig,
    evaluation_payload,
    monitoring_report_payload,
    parse_compare_request,
    parse_evaluate_request,
    parse_ingest_request,
)
from repro.sweep import SystemSpec, WorkloadSpec
from repro.trial.records import TrialRecords
from repro.trial.storage import record_from_entry

ROOT = Path(__file__).resolve().parent.parent
REQUEST_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0

#: Read requests generated per connection (cycled if a run outlasts them).
READS_PER_CONNECTION = 3_000
INGEST_RECORDS = 2_000
#: Distinct ingest bodies (cycled); every record sent is checked anyway.
INGEST_BATCHES = 16
MONITOR_EVERY = 5
#: Reads a run needs for ten samples beyond read_p99 (serve-read) and
#: read_p90 (serve-mixed, where reads wait behind ingests).
MIN_READS = 1_100
MIN_READS_MIXED = 160
#: Every n-th read response is checked against a standalone evaluation.
CHECK_EVERY = 40
#: Reads per connection the in-process replay re-runs.
REPLAY_READS = 300
PROBE_REPLAY_READS = 100
PROBE_SECONDS = 2.0
WARM_LOAD_S = 1.0
#: Load slice between two host-speed probes of a timed phase.
SLICE_S = 2.0

#: What :func:`probe_read` reports (the read path and the batcher).
READ_LAYER_METRICS = frozenset(
    {
        "service.http_edge_ms",
        "service.batch_size_mean",
        "service.coalesced_share",
        "service.dispatch_ms_p50",
        "service.workload_cache_hit_share",
        "protocol.read_parse_us",
        "protocol.encode_us",
        "engine.posterior_ms",
        "loadgen.cpu_share",
    }
)
#: What :func:`probe_ingest` reports (the write path).
INGEST_LAYER_METRICS = frozenset(
    {
        "protocol.ingest_json_ms",
        "protocol.ingest_parse_ms",
        "monitor.ingest_ms",
        "monitor.payload_ms",
        "service.loop_stall_ms",
    }
)

SYSTEMS = (
    {"kind": "unaided", "bias": "mild"},
    {"kind": "assisted", "bias": "mild", "operating_point": -0.2},
    {"kind": "assisted", "bias": "mild", "operating_point": 0.0},
    {"kind": "assisted", "bias": "mild", "operating_point": 0.2},
    {"kind": "assisted", "bias": "strong", "operating_point": 0.0},
)


def workload_payloads(seed: int) -> list[dict[str, Any]]:
    """Three cached workload specs: two 400-case, one 2000-case."""
    return [
        {"population": "routine", "num_cases": 400, "population_seed": seed},
        {"population": "symptomatic", "num_cases": 400, "population_seed": seed},
        {"population": "young", "num_cases": 2000, "population_seed": seed},
    ]


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    payload: Any
    body: bytes
    cases: int = 0


def _request(path: str, payload: dict[str, Any], cases: int = 0) -> Request:
    return Request("POST", path, payload, json.dumps(payload).encode(), cases)


MONITOR_REQUEST = Request("GET", "/v1/monitor", None, b"")


def read_requests(seed: int, stream: int, count: int) -> list[Request]:
    """The read mix of one connection: 70% evaluate, 20% compare, 10% uncertainty."""
    rng = np.random.default_rng([seed, stream])
    workloads = workload_payloads(seed)
    out = []
    for _ in range(count):
        kind = rng.random()
        request_seed = int(rng.integers(0, 2**31))
        workload = workloads[int(rng.integers(len(workloads)))]
        if kind < 0.1:
            out.append(
                _request(
                    "/v1/uncertainty",
                    {
                        "profile": ("trial", "field")[int(rng.integers(2))],
                        "draws": 10_000,
                        "seed": request_seed,
                    },
                )
            )
        elif kind < 0.3:
            picks = rng.choice(len(SYSTEMS), size=3, replace=False)
            out.append(
                _request(
                    "/v1/compare",
                    {
                        "workload": workload,
                        "systems": [SYSTEMS[int(i)] for i in picks],
                        "seed": request_seed,
                    },
                    3 * workload["num_cases"],
                )
            )
        else:
            system = SYSTEMS[int(rng.integers(len(SYSTEMS)))]
            out.append(
                _request(
                    "/v1/evaluate",
                    {"workload": workload, "system": system, "seed": request_seed},
                    workload["num_cases"],
                )
            )
    return out


def ingest_entries(seed: int, batch: int) -> list[dict[str, Any]]:
    """One batch of aided field records drawn from the paper's Table 1 model."""
    rng = np.random.default_rng([seed, 1_000 + batch])
    params = paper_example_parameters()
    classes = list(PAPER_FIELD_PROFILE.classes)
    weights = np.array([PAPER_FIELD_PROFILE[cls] for cls in classes])
    entries = []
    for i in range(INGEST_RECORDS):
        cls = classes[int(rng.choice(len(classes), p=weights))]
        has_cancer = bool(rng.random() < 0.3)
        if has_cancer:
            cell = params[cls]
            machine_failed = bool(rng.random() < cell.p_machine_failure)
            p_human = (
                cell.p_human_failure_given_machine_failure
                if machine_failed
                else cell.p_human_failure_given_machine_success
            )
            recalled = bool(rng.random() >= p_human)
            prompts = int(rng.poisson(0.5))
        else:
            prompts = int(rng.poisson(0.8))
            machine_failed = prompts > 0
            recalled = bool(rng.random() < 0.08)
        entries.append(
            {
                "case_id": batch * INGEST_RECORDS + i,
                "reader_name": f"reader{int(rng.integers(4))}",
                "case_class": cls.name,
                "has_cancer": has_cancer,
                "aided": True,
                "machine_failed": machine_failed,
                "machine_false_prompts": prompts,
                "recalled": recalled,
            }
        )
    return entries


def ingest_requests(seed: int, batches: int = INGEST_BATCHES) -> list[Request]:
    return [
        _request("/v1/ingest", {"records": ingest_entries(seed, b)}, INGEST_RECORDS)
        for b in range(batches)
    ]


# -- server process ----------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``python -m repro serve`` process; instrumentation only if traced."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.port = free_port()
        self.trace_path = workdir / f"server-trace-{self.port}.json" if traced else None
        self.log_path = workdir / f"server-{self.port}.log"
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(self.port), "--workers", "1",
        ]
        if traced:
            command += ["--profile", "--trace-out", str(self.trace_path)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
            )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            conn = self.connect()
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                time.sleep(0.01)
            finally:
                conn.close()
        raise RuntimeError("server did not answer /healthz in time")

    def get_json(self, path: str) -> Any:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} -> {response.status}")
            return json.loads(data)
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (graceful drain; writes the trace), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def report(self) -> dict[str, Any]:
        return json.loads(self.trace_path.read_text())


# -- load generator ----------------------------------------------------


@dataclass
class Outcome:
    """One request as the generator saw it."""

    connection: int
    index: int
    request: Request
    start: float
    end: float
    ok: bool
    status: int | None
    body: bytes | None = None
    #: The host's slowdown over the request's load slice.
    slowdown: float = 1.0

    @property
    def latency(self) -> float:
        """Send to full body read, at nominal host speed."""
        return (self.end - self.start) / self.slowdown if self.ok else float("inf")

    @property
    def raw_latency(self) -> float:
        return self.end - self.start if self.ok else float("inf")


READ_PATHS = ("/v1/evaluate", "/v1/compare", "/v1/uncertainty")


EXPECTED_KEY = {
    "/v1/evaluate": "evaluation",
    "/v1/compare": "evaluations",
    "/v1/uncertainty": "interval",
    "/v1/ingest": "received",
    "/v1/monitor": "monitor",
}


class _StopRule:
    """Shared by the connection threads: stop once the deadline has passed
    and the reads are enough for the percentiles the run prints."""

    def __init__(self, deadline: float, min_reads: int) -> None:
        self.deadline = deadline
        self.min_reads = min_reads
        self.reads = 0
        self.stop = threading.Event()
        self._lock = threading.Lock()

    def note(self, request: Request) -> None:
        if request.path in READ_PATHS:
            with self._lock:
                self.reads += 1
        if time.perf_counter() >= self.deadline and self.reads >= self.min_reads:
            self.stop.set()


def _connection_loop(
    conn: http.client.HTTPConnection,
    connection: int,
    requests: list[Request],
    first: int,
    rule: _StopRule,
    slice_end: float,
    out: list[Outcome],
) -> None:
    """A closed loop on one keep-alive connection, from request ``first``
    of ``requests`` until ``rule`` stops it or the slice ends.

    Non-200s, 429/503s, timeouts, connection errors and bodies without
    the expected shape all count as failed, never dropped; the next
    request on a closed connection reconnects.
    """
    index = first
    while not rule.stop.is_set() and time.perf_counter() < slice_end:
        request = requests[index % len(requests)]
        start = time.perf_counter()
        status = None
        body = None
        try:
            conn.request(
                request.method,
                request.path,
                body=request.body or None,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
            status = response.status
            ok = status == 200 and EXPECTED_KEY[request.path] in json.loads(body)
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            ok = False
        end = time.perf_counter()
        keep = ok and index % CHECK_EVERY == 0
        out.append(
            Outcome(connection, index, request, start, end, ok, status, body if keep else None)
        )
        rule.note(request)
        index += 1


def drive(
    server: Server,
    streams: list[list[Request]],
    seconds: float,
    min_reads: int,
    host: Reference | None = None,
) -> tuple[list[Outcome], float, float, float]:
    """One closed-loop thread per stream; returns outcomes, wall time,
    wall time at nominal host speed, and CPU share.

    With ``host``, the load runs in slices of :data:`SLICE_S`: at the end
    of each slice every connection finishes its request and goes idle,
    and ``host`` probes the host's speed before the next slice starts.
    Each slice's requests and wall time are scaled by the slowdown the
    probes on either side of it read.  Wall times and CPU share cover
    the slices only.
    """
    outcomes: list[list[Outcome]] = [[] for _ in streams]
    conns = [server.connect() for _ in streams]
    rule = _StopRule(time.perf_counter() + seconds, min_reads)
    wall = nominal_wall = cpu = 0.0
    if host is not None:
        host.probe(PROBES_AROUND)
    try:
        while not rule.stop.is_set():
            sent = [len(per) for per in outcomes]
            mark = host.mark() if host is not None else 0
            start = time.perf_counter()
            cpu_start = time.process_time()
            slice_end = start + SLICE_S if host is not None else float("inf")
            threads = [
                threading.Thread(
                    target=_connection_loop,
                    args=(conns[i], i, stream, len(outcomes[i]), rule, slice_end, outcomes[i]),
                )
                for i, stream in enumerate(streams)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            slowdown = host.around(mark) if host is not None else 1.0
            for per, first in zip(outcomes, sent):
                for outcome in per[first:]:
                    outcome.slowdown = slowdown
            wall += elapsed
            nominal_wall += elapsed / slowdown
    finally:
        for conn in conns:
            conn.close()
    return [o for per in outcomes for o in per], wall, nominal_wall, cpu / wall


# -- workload contexts -------------------------------------------------


@dataclass
class Context:
    seed: int
    mixed: bool
    server: Server
    workdir: Path
    reads: list[list[Request]]
    ingests: list[Request]
    setup_s: float
    obs: object = None
    warm_outcomes: list[Outcome] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    metrics_before: dict[str, Any] | None = None

    def streams(self) -> list[list[Request]]:
        if not self.mixed:
            return self.reads
        batches = itertools.cycle(self.ingests)
        writes = [
            MONITOR_REQUEST if (i + 1) % MONITOR_EVERY == 0 else next(batches)
            for i in range(len(self.ingests) * MONITOR_EVERY)
        ]
        return [self.reads[0], writes]

    def ingests_sent(self) -> list[Request]:
        """The distinct ingest bodies the last phase sent, in send order."""
        sent = {id(o.request) for o in self.outcomes if o.request.path == "/v1/ingest"}
        return [request for request in self.ingests if id(request) in sent]

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _warm(server: Server, seed: int) -> None:
    """Build and cache the three workloads, and load the posterior path."""
    conn = server.connect()
    try:
        warm_ups = [
            _request("/v1/evaluate", {"workload": workload, "system": SYSTEMS[1], "seed": 0})
            for workload in workload_payloads(seed)
        ]
        warm_ups.append(_request("/v1/uncertainty", {"seed": 0, "draws": 1000}))
        for request in warm_ups:
            conn.request("POST", request.path, body=request.body)
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"warm-up {request.path} -> {response.status}")
    finally:
        conn.close()


@functools.lru_cache(maxsize=2)
def _inputs(seed: int, mixed: bool) -> tuple[list[list[Request]], list[Request]]:
    """The run's generated requests: built once, shared by every set-up."""
    reads = [read_requests(seed, stream, READS_PER_CONNECTION) for stream in range(2)]
    return reads, ingest_requests(seed) if mixed else []


def make_setup(mixed: bool):
    def setup(seed: int, tracer: Tracer, obs: object = None) -> Context:
        """Server spawn until ``/healthz`` answers, plus cache warm-up."""
        reads, ingests = _inputs(seed, mixed)
        workdir = scratch_dir("serve")
        start = time.perf_counter()
        server = Server(workdir, traced=obs is not None)
        try:
            server.wait_ready()
            ready = time.perf_counter()
            _warm(server, seed)
        except BaseException:
            server.stop()
            raise
        warm = time.perf_counter()
        root = tracer.record("setup", start, warm, trace=tracer.new_trace())
        tracer.record("service.spawn_until_healthy", start, ready, parent=root)
        tracer.record("service.warm_up", ready, warm, parent=root)
        return Context(seed, mixed, server, workdir, reads, ingests, warm - start, obs)

    return setup


def measure(ctx: Context, seconds: float, tracer: Tracer, min_calls: int | None = None) -> Phase:
    """Closed-loop load until ``seconds`` and ``min_calls`` reads."""
    if min_calls is None:
        min_calls = MIN_READS_MIXED if ctx.mixed else MIN_READS
    # Untimed warm-up load: first-use costs on every path finish here.
    ctx.warm_outcomes, _, _, _ = drive(ctx.server, ctx.streams(), WARM_LOAD_S, 0)
    if ctx.obs is not None:
        ctx.metrics_before = ctx.server.get_json("/v1/metrics")
    host = Reference()
    outcomes, wall, nominal_wall, cpu_share = drive(
        ctx.server, ctx.streams(), seconds, min_calls, host
    )
    for o in outcomes:
        tracer.record(f"http{o.request.path}", o.start, o.end, trace=tracer.new_trace(), ok=o.ok)
    ctx.outcomes = outcomes
    reads = [o for o in outcomes if o.request.path in READ_PATHS]
    ingests = [o for o in outcomes if o.request.path == "/v1/ingest"]
    good_reads = [o for o in reads if o.ok]
    failed = sum(not o.ok for o in outcomes)
    if ctx.mixed:
        cases = sum(o.request.cases for o in ingests if o.ok)
    else:
        cases = sum(o.request.cases for o in good_reads)
    phase = Phase(
        e2e={
            "ops_per_s_cal": len(good_reads) / nominal_wall,
            "cases_per_s_cal": cases / nominal_wall,
            "ops_per_s": len(good_reads) / wall,
            "cases_per_s": cases / wall,
        },
        attempted=len(outcomes),
        failed=failed,
        samples={"reads": len(reads), "ingests": len(ingests)},
        reference=host,
    )
    phase.info.update(
        reads=[o.latency for o in reads],
        raw_reads=[o.raw_latency for o in reads],
        ingests=[o.latency for o in ingests],
        raw_ingests=[o.raw_latency for o in ingests],
        wall=wall,
        loadgen_cpu_share=cpu_share,
    )
    return phase


def e2e(ctx: Context, phase: Phase) -> dict[str, float]:
    metrics = dict(phase.e2e)
    metrics["op_p50_ms_cal"] = percentile(phase.info["reads"], 50) * 1e3
    metrics["op_p50_ms"] = percentile(phase.info["raw_reads"], 50) * 1e3
    return metrics


def extras(ctx: Context, phase: Phase) -> dict[str, tuple[float | str, str]]:
    """The serve paths' own metric names, as measured and at nominal
    host speed, for the printed table."""

    def pct(samples: list[float], q: float) -> float | str:
        try:
            return percentile(samples, q) * 1e3
        except ValueError as exc:
            return f"n/a ({exc})"

    out: dict[str, tuple[float | str, str]] = {}
    for suffix, reads, ingests in (
        ("", phase.info["raw_reads"], phase.info["raw_ingests"]),
        ("_cal", phase.info["reads"], phase.info["ingests"]),
    ):
        out[f"req_per_s{suffix}"] = (phase.e2e[f"ops_per_s{suffix}"], "req/s")
        out[f"read_p50_ms{suffix}"] = (pct(reads, 50), "ms")
        if ctx.mixed:
            out[f"read_p90_ms{suffix}"] = (pct(reads, 90), "ms")
            out[f"records_per_s{suffix}"] = (phase.e2e[f"cases_per_s{suffix}"], "records/s")
            out[f"ingest_p50_ms{suffix}"] = (pct(ingests, 50), "ms")
            out[f"ingest_p90_ms{suffix}"] = (pct(ingests, 90), "ms")
        else:
            out[f"read_p99_ms{suffix}"] = (pct(reads, 99), "ms")
    out["loadgen_cpu_share"] = (phase.info["loadgen_cpu_share"], "cores")
    return out


# -- output checks -----------------------------------------------------


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def check_reads(outcomes: list[Outcome]) -> list[str]:
    """Sampled evaluate/compare responses vs standalone
    ``evaluate_system_batch`` at the service chunk size."""
    built: dict[str, Any] = {}
    classifier = SingleClassClassifier()
    errors = []
    for o in outcomes:
        if o.body is None or o.request.path not in ("/v1/evaluate", "/v1/compare"):
            continue
        payload = o.request.payload
        spec = WorkloadSpec(**payload["workload"])
        if spec.key() not in built:
            built[spec.key()] = spec.build()
        systems = (
            [payload["system"]] if o.request.path == "/v1/evaluate" else payload["systems"]
        )
        expected = [
            evaluation_payload(
                evaluate_system_batch(
                    SystemSpec(**system).build(payload["seed"]),
                    built[spec.key()],
                    classifier,
                    seed=payload["seed"],
                    chunk_size=DEFAULT_CHUNK_SIZE,
                )
            )
            for system in systems
        ]
        got = json.loads(o.body)
        got = [got["evaluation"]] if "evaluation" in got else got["evaluations"]
        if _canonical(got) != _canonical(json.loads(json.dumps(expected))):
            errors.append(f"serve: {o.request.path} response #{o.index} differs from standalone")
    return errors


def check_monitor(outcomes: list[Outcome], final: dict[str, Any]) -> list[str]:
    """The final ``/v1/monitor`` report vs batch ``monitor_records`` over
    every record sent."""
    parsed: dict[int, TrialRecords] = {}
    records = TrialRecords()
    for o in outcomes:
        if o.request.path != "/v1/ingest" or not o.ok:
            continue
        key = id(o.request)
        if key not in parsed:
            parsed[key] = TrialRecords(
                record_from_entry(entry) for entry in o.request.payload["records"]
            )
        records.extend(parsed[key])
    if not len(records):
        return ["serve-mixed: no records were ingested"]
    expected = monitoring_report_payload(
        monitor_records(records, paper_example_parameters(), PAPER_FIELD_PROFILE, alpha=0.01)
    )
    if _canonical(final.get("report")) != _canonical(json.loads(json.dumps(expected))):
        return ["serve-mixed: final /v1/monitor report differs from batch monitor_records"]
    return []


def check(ctx: Context) -> list[str]:
    errors = [
        f"serve: warm-up {o.request.path} failed (status {o.status})"
        for o in ctx.warm_outcomes
        if not o.ok
    ]
    errors += check_reads(ctx.outcomes)
    if ctx.mixed:
        final = ctx.server.get_json("/v1/monitor")
        errors += check_monitor(ctx.warm_outcomes + ctx.outcomes, final)
    return errors


# -- offline stage replays ---------------------------------------------


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def service_config() -> ServiceConfig:
    """The configuration ``repro serve --workers 1`` runs with."""
    return ServiceConfig(workers=1)


async def _replay_reads(
    service: ScreeningService, streams: list[list[Request]]
) -> tuple[list[float], list[Any], list[float]]:
    """Each connection's read sequence, one async caller per connection."""
    latencies: list[float] = []
    results: list[Any] = []
    posterior: list[float] = []

    async def caller(stream: list[Request]) -> None:
        for request in stream:
            p = request.payload
            t0 = time.perf_counter()
            if request.path == "/v1/evaluate":
                parsed = parse_evaluate_request(p)
                result = await service.evaluate(parsed.workload, parsed.system, seed=parsed.seed)
            elif request.path == "/v1/compare":
                parsed = parse_compare_request(p)
                result = await service.compare(parsed.workload, parsed.systems, seed=parsed.seed)
            else:
                await service.uncertainty(
                    profile=p["profile"], draws=p["draws"], seed=p["seed"]
                )
                posterior.append(time.perf_counter() - t0)
                continue
            latencies.append(time.perf_counter() - t0)
            results.append((request.path, result))

    await asyncio.gather(*(caller(stream) for stream in streams))
    return latencies, results, posterior


async def _in_process(
    read_streams: list[list[Request]], ingests: list[Request], seed: int
) -> dict[str, Any]:
    async with ScreeningService(service_config()) as service:
        for workload in workload_payloads(seed):
            spec = WorkloadSpec(**workload)
            await service.evaluate(spec, SystemSpec(**SYSTEMS[1]), seed=0)
        latencies, results, posterior = await _replay_reads(service, read_streams)
        for request in ingests:
            await service.ingest(parse_ingest_request(request.payload).records)
        payload_times = [_timed(service.monitor_payload)[1] for _ in range(5)]
    return {
        "latencies": latencies,
        "results": results,
        "posterior": posterior,
        "payload_times": payload_times,
    }


def ingest_layers(ingests: list[Request]) -> dict[str, float]:
    """Event-loop stages of each ingest body sent, replayed in order."""
    monitor = StreamMonitor(
        paper_example_parameters(),
        PAPER_FIELD_PROFILE,
        alpha=service_config().monitor_alpha,
        check_every=service_config().monitor_check_every,
    )
    decode, parse, feed, stall = [], [], [], []
    for request in ingests:
        payload, t_json = _timed(json.loads, request.body)
        parsed, t_parse = _timed(parse_ingest_request, payload)
        _, t_feed = _timed(monitor.ingest, parsed.records)
        _, t_reply = _timed(json.dumps, {"received": len(parsed.records)})
        decode.append(t_json)
        parse.append(t_parse)
        feed.append(t_feed)
        stall.append(t_json + t_parse + t_feed + t_reply)
    return {
        "protocol.ingest_json_ms": median(decode) * 1e3,
        "protocol.ingest_parse_ms": median(parse) * 1e3,
        "monitor.ingest_ms": median(feed) * 1e3,
        "service.loop_stall_ms": median(stall) * 1e3,
    }


def read_layers(ctx: Context, replay_reads: int) -> dict[str, float]:
    """Read-path stages replayed on the exact bodies and sequence sent."""
    sent: dict[int, list[Outcome]] = {}
    for o in sorted(ctx.outcomes, key=lambda o: o.index):
        if o.request.path in READ_PATHS:
            sent.setdefault(o.connection, []).append(o)
    sent_streams = [outcomes[:replay_reads] for outcomes in sent.values()]
    streams = [[o.request for o in outcomes] for outcomes in sent_streams]
    replay = asyncio.run(_in_process(streams, ctx.ingests_sent(), ctx.seed))

    parse_times = []
    for request in (r for stream in streams for r in stream):
        if request.path == "/v1/evaluate":
            _, dt = _timed(lambda b: parse_evaluate_request(json.loads(b)), request.body)
        elif request.path == "/v1/compare":
            _, dt = _timed(lambda b: parse_compare_request(json.loads(b)), request.body)
        else:
            continue
        parse_times.append(dt)
    encode_times = []
    for path, result in replay["results"]:
        if path == "/v1/evaluate":
            _, dt = _timed(lambda r: json.dumps({"evaluation": evaluation_payload(r)}), result)
        else:
            _, dt = _timed(
                lambda r: json.dumps({"evaluations": [evaluation_payload(e) for e in r]}), result
            )
        encode_times.append(dt)
    http_reads = [
        o.raw_latency
        for outcomes in sent_streams
        for o in outcomes
        if o.request.path in ("/v1/evaluate", "/v1/compare")
    ]
    metrics = {
        "service.http_edge_ms": (median(http_reads) - median(replay["latencies"])) * 1e3,
        "protocol.read_parse_us": median(parse_times) * 1e6,
        "protocol.encode_us": median(encode_times) * 1e6,
        "engine.posterior_ms": median(replay["posterior"]) * 1e3,
    }
    if ctx.mixed:
        metrics["monitor.payload_ms"] = median(replay["payload_times"]) * 1e3
    return metrics


def _delta(after: dict[str, Any], before: dict[str, Any], section: str, name: str, key: str | None = None) -> float:
    a = after[section].get(name, 0.0 if key is None else {})
    b = before[section].get(name, 0.0 if key is None else {})
    if key is not None:
        return float(a.get(key, 0.0)) - float(b.get(key, 0.0))
    return float(a) - float(b)


def batcher_layers(ctx: Context) -> dict[str, float]:
    """The traced server's own counters and spans over the traced phase."""
    after = ctx.server.get_json("/v1/metrics")
    before = ctx.metrics_before
    ctx.server.stop()
    dispatch = [
        span["duration_s"]
        for span in ctx.server.report()["spans"]
        if span["name"] == "service.dispatch"
    ]
    requests = _delta(after, before, "histograms", "service.batch_size", "count")
    hits = _delta(after, before, "counters", "service.workload_cache.hit")
    misses = _delta(after, before, "counters", "service.workload_cache.miss")
    return {
        "service.batch_size_mean": _delta(after, before, "histograms", "service.batch_size", "total") / requests,
        "service.coalesced_share": _delta(after, before, "counters", "service.coalesced") / requests,
        "service.dispatch_ms_p50": median(dispatch) * 1e3,
        "service.workload_cache_hit_share": hits / (hits + misses),
    }


def layers(ctx: Context, phase: Phase, replay_reads: int = REPLAY_READS) -> dict[str, float]:
    metrics = read_layers(ctx, replay_reads)
    metrics.update(batcher_layers(ctx))
    metrics["loadgen.cpu_share"] = phase.info["loadgen_cpu_share"]
    if ctx.mixed:
        metrics.update(ingest_layers(ctx.ingests_sent()))
    return metrics


def probe_read(seed: int, tracer: Tracer, obs: object) -> dict[str, float]:
    """Read-path layers from a short traced serve-read run, for the
    traced runs of workloads that bypass the service."""
    ctx = make_setup(False)(seed, tracer, obs=obs)
    try:
        phase = measure(ctx, PROBE_SECONDS, tracer, min_calls=0)
        return layers(ctx, phase, replay_reads=PROBE_REPLAY_READS)
    finally:
        ctx.close()


def probe_ingest(seed: int, tracer: Tracer, obs: object) -> dict[str, float]:
    """Ingest-path layers replayed offline on the serve-mixed bodies."""
    ingests = ingest_requests(seed, batches=8)
    metrics = ingest_layers(ingests)

    async def payload_times() -> list[float]:
        async with ScreeningService(service_config()) as service:
            for request in ingests:
                await service.ingest(parse_ingest_request(request.payload).records)
            return [_timed(service.monitor_payload)[1] for _ in range(5)]

    metrics["monitor.payload_ms"] = median(asyncio.run(payload_times())) * 1e3
    return metrics
