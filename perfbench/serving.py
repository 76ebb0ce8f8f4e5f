"""The serving workload: ``repro serve`` driven by an open-loop HTTP client.

The service runs as a child process at its defaults.  The client is one
asyncio process with at most ``nproc`` keep-alive connections; it sends on an
evenly spaced schedule whatever the answers do, and times every request from
its *scheduled* send, so a stall is charged to every request it delays.  A
refused or failed request counts as ``+inf``.

Layers are read from outside: the client splits latency by request kind, and
the service's own ``/metrics`` (scraped at both ends of the timed window, so
counters and histogram buckets are window deltas) and ``/traces`` endpoints
give the server-side split.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from measure import (
    bucket_delta,
    bucket_quantile,
    histogram_buckets,
    latency_from_schedule,
    metric_total,
    parse_exposition,
    percentile,
    registry_metrics,
    schedule,
)

#: Share of each request kind in the warm-up and the timed window.
MIX = (("cold", 0.5), ("hot", 0.4), ("scenario", 0.1))

#: Eight fixed steady-state models, answered from the cache after warm-up.
HOT_MODELS = tuple({"servers": n, "arrival_rate": round(0.6 * n, 3)} for n in range(3, 11))

#: Untimed warm-up requests sent before the window, on keys of their own.
WARMUP_REQUESTS = 80

#: The scenario queries override the arrival rate of this preset.
SCENARIO_PRESET = "two-speed-cluster"
SCENARIO_BASE_RATE = 2.4

#: Per-request client timeout; a request that exceeds it counts as failed.
REQUEST_TIMEOUT_S = 60.0

#: How many newest traces ``/traces`` is asked for (the service's ring size).
TRACE_LIMIT = 256

#: One answered query of each kind ends the set-up measurement.
SETUP_QUERIES = (
    {"model": {"servers": 2, "arrival_rate": 0.5}},
    {"query": "scenario", "preset": "single-repairman"},
    {"query": "transient", "model": {"servers": 2, "arrival_rate": 0.5}, "times": [1.0, 5.0]},
)


# -- request plan ------------------------------------------------------------


def _cold(rng: random.Random) -> dict:
    servers = rng.randint(3, 8)
    return {"model": {"servers": servers, "arrival_rate": round(servers * rng.uniform(0.3, 0.85), 6)}}


def _scenario(rng: random.Random) -> dict:
    return {
        "query": "scenario",
        "preset": SCENARIO_PRESET,
        "arrival_rate": round(SCENARIO_BASE_RATE * rng.uniform(0.6, 0.9), 6),
    }


def plan_requests(seed: int, count: int, stream: str, taken: set[str]) -> list[tuple[str, dict]]:
    """``count`` seeded ``(kind, body)`` pairs in the fixed mix, shuffled.

    Cold and scenario bodies are distinct from each other and from ``taken``
    (which is updated), so no two phases of a run share a key.
    """
    rng = random.Random(f"{seed}/{stream}")
    counts = {kind: int(share * count) for kind, share in MIX}
    counts["cold"] += count - sum(counts.values())
    plan: list[tuple[str, dict]] = []
    for index in range(counts["hot"]):
        plan.append(("hot", {"model": dict(HOT_MODELS[index % len(HOT_MODELS)])}))
    for kind, make in (("cold", _cold), ("scenario", _scenario)):
        made = 0
        while made < counts[kind]:
            body = make(rng)
            key = json.dumps(body, sort_keys=True)
            if key not in taken:
                taken.add(key)
                plan.append((kind, body))
                made += 1
    rng.shuffle(plan)
    return plan


# -- HTTP/1.1 client ---------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection, reopened if the server closes it."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        assert self.reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode() + body)
        try:
            await self.writer.drain()
            status_line = await self.reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            headers = {}
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await self.reader.readexactly(int(headers.get("content-length", "0")))
        except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError):
            await self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
        self.reader = self.writer = None


@dataclass
class Sample:
    kind: str
    body: dict
    scheduled: float
    fired: float = math.nan
    sent: float = math.nan
    completed: float | None = None
    status: int = 0
    answer: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        ok = self.status == 200 and self.answer.get("status") == "ok"
        return latency_from_schedule(self.scheduled, self.completed if ok else None)


async def drive(port: int, plan: list[tuple[str, dict]], rate: float, connections: int) -> list[Sample]:
    """Send ``plan`` open-loop at ``rate`` over a pool of keep-alive connections."""
    pool: asyncio.Queue[Connection] = asyncio.Queue()
    for _ in range(connections):
        pool.put_nowait(Connection(port))
    start = time.perf_counter() + 0.05
    samples = [
        Sample(kind, body, due) for (kind, body), due in zip(plan, schedule(start, rate, len(plan)))
    ]

    async def send(sample: Sample) -> None:
        connection = await pool.get()
        try:
            sample.sent = time.perf_counter()
            status, payload = await asyncio.wait_for(
                connection.request("POST", "/solve", json.dumps(sample.body).encode()),
                REQUEST_TIMEOUT_S,
            )
            sample.completed = time.perf_counter()
            sample.status = status
            sample.answer = json.loads(payload) if payload else {}
        except (OSError, asyncio.TimeoutError, ValueError, asyncio.IncompleteReadError):
            await connection.close()
        finally:
            pool.put_nowait(connection)

    tasks = []
    for sample in samples:
        delay = sample.scheduled - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sample.fired = time.perf_counter()
        tasks.append(asyncio.create_task(send(sample)))
    await asyncio.gather(*tasks)
    while not pool.empty():
        await pool.get_nowait().close()
    return samples


async def fetch(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    connection = Connection(port)
    try:
        return await connection.request(method, path, body)
    finally:
        await connection.close()


# -- the service process -------------------------------------------------------


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it, from ``/proc``."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [pid], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found += children
        frontier += children
    return found


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process (0 if it has gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Service:
    """``python -m repro serve`` as a child process, stopped on exit."""

    def __init__(self, root: str, env: dict, workers: int, log_path: str) -> None:
        self.port = free_port()
        self.workers = workers
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", str(workers), "--port", str(self.port)],
            cwd=root,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    async def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from spawn to ``/healthz`` 200 plus one answer of each query kind."""
        deadline = self.started + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with code {self.process.returncode}")
            try:
                status, payload = await fetch(self.port, "GET", "/healthz")
                if status == 200 and json.loads(payload).get("workers_ready", self.workers) >= self.workers:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not become healthy in time")
            await asyncio.sleep(0.005)
        connection = Connection(self.port)
        try:
            for query in SETUP_QUERIES:
                status, payload = await connection.request("POST", "/solve", json.dumps(query).encode())
                if status != 200:
                    raise RuntimeError(f"set-up query failed with {status}: {payload[:200]!r}")
        finally:
            await connection.close()
        return time.perf_counter() - self.started

    def processes(self) -> list[int]:
        return descendants(self.process.pid)

    def stop(self) -> None:
        family = self.processes()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        for pid in family[1:]:  # shard workers the front failed to stop
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"multiprocessing" in handle.read():
                        os.kill(pid, signal.SIGKILL)
            except (FileNotFoundError, ProcessLookupError):
                pass
        self._log.close()


# -- the workload --------------------------------------------------------------


async def measure_setup(root: str, env: dict, workers: int, log_path: str, spawns: int) -> tuple[list[float], Service]:
    """Spawn the service ``spawns`` times; keep the last one running."""
    setups = []
    for attempt in range(spawns):
        service = Service(root, env, workers, log_path)
        try:
            setups.append(await service.wait_ready())
        except BaseException:
            service.stop()
            raise
        if attempt < spawns - 1:
            service.stop()
    return setups, service


async def serve_run(
    root: str,
    env: dict,
    *,
    workers: int,
    rate: float,
    seconds: float,
    seed: int,
    trace: bool,
    log_path: str,
    spawns: int = 3,
) -> dict:
    count = int(round(rate * seconds))
    taken: set[str] = set()
    warmup = plan_requests(seed, WARMUP_REQUESTS, "warmup", taken)
    plan = plan_requests(seed, count, "window", taken)
    connections = max(1, len(os.sched_getaffinity(0)))

    setups, service = await measure_setup(root, env, workers, log_path, spawns)
    try:
        await drive(service.port, warmup, rate, connections)
        _, before_text = await fetch(service.port, "GET", "/metrics")
        pids = service.processes()
        cpu_before = {pid: cpu_seconds(pid) for pid in pids}
        samples = await drive(service.port, plan, rate, connections)
        cpu_after = {pid: cpu_seconds(pid) for pid in pids}
        rss = max(peak_rss_mb(pid) for pid in pids)
        scrape_started = time.perf_counter()
        _, after_text = await fetch(service.port, "GET", "/metrics")
        _, traces_text = await fetch(service.port, "GET", f"/traces?limit={TRACE_LIMIT}")
        scrape_s = time.perf_counter() - scrape_started
    finally:
        service.stop()

    front = service.process.pid
    before = parse_exposition(before_text.decode())
    after = parse_exposition(after_text.decode())
    cpu = {pid: cpu_after[pid] - cpu_before[pid] for pid in pids}
    first = min(sample.scheduled for sample in samples)
    last = max(sample.completed or sample.sent for sample in samples)
    result = {
        "samples": samples,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": last - first,
            "cpu_s": sum(cpu.values()),
            "peak_rss_mb": rss,
        },
        "server_errors": sum(1 for sample in samples if sample.status >= 500),
        "failed": sum(1 for sample in samples if math.isinf(sample.latency)),
        "restarts": metric_total(after, "repro_worker_restarts_total")
        - metric_total(before, "repro_worker_restarts_total"),
    }
    if trace:
        result["layers"] = service_layers(
            samples,
            before,
            after,
            json.loads(traces_text),
            cpu_front=cpu[front],
            cpu_workers=sum(value for pid, value in cpu.items() if pid != front),
            scrape_share=scrape_s / (last - first),
        )
    return result


def _p(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0

def service_layers(
    samples: list[Sample],
    before: dict,
    after: dict,
    traces: dict,
    *,
    cpu_front: float,
    cpu_workers: float,
    scrape_share: float,
) -> dict[str, float]:
    """Per-layer metrics of the serving stack over the timed window."""

    def delta(name: str, **labels: str) -> float:
        return metric_total(after, name, **labels) - metric_total(before, name, **labels)

    def bucketed_ms(name: str, q: float) -> float:
        buckets = bucket_delta(histogram_buckets(after, name), histogram_buckets(before, name))
        value = bucket_quantile(buckets, q)
        return 0.0 if math.isnan(value) else value * 1e3

    def client(kind: str, q: float) -> float:
        return _p([s.latency * 1e3 for s in samples if s.kind == kind], q)

    by_trace = {s.answer.get("trace_id"): s for s in samples if s.answer.get("trace_id")}
    admission, backend, spectral, http_self, pipe = [], [], [], [], []
    for record in traces.get("traces", []):
        spans = record.get("spans", [])
        names = {span["name"]: span for span in spans}
        if "admission" in names:
            admission.append(names["admission"]["duration_ms"])
        for span in spans:
            if span["name"].startswith("backend:"):
                backend.append(span["duration_ms"])
                if span["name"] == "backend:spectral":
                    spectral.append(span["duration_ms"])
        sample = by_trace.get(record.get("trace_id"))
        if sample is not None and sample.completed is not None:
            http_self.append((sample.completed - sample.sent) * 1e3 - record["duration_ms"])
        worker = [s for s in spans if s["name"] != "admission"]
        if worker and "shard" in names.get("admission", {}).get("annotations", {}):
            extent = max(s["start_ms"] + s["duration_ms"] for s in worker) - min(
                s["start_ms"] for s in worker
            )
            pipe.append(record["duration_ms"] - names["admission"]["duration_ms"] - extent)

    lookups = delta("repro_cache_lookup_hits_total") + delta("repro_cache_lookup_misses_total")
    batches = delta("repro_batches_total")
    latencies = [s.latency * 1e3 for s in samples]
    metrics = {
        "latency.p50_ms": percentile(latencies, 50),
        "latency.p99_ms": percentile(latencies, 99),
        "client.hot_p50_ms": client("hot", 50),
        "client.hot_p99_ms": client("hot", 99),
        "client.cold_p50_ms": client("cold", 50),
        "client.cold_p99_ms": client("cold", 99),
        "client.scenario_p50_ms": client("scenario", 50),
        "client.late_p99_ms": _p([(s.fired - s.scheduled) * 1e3 for s in samples], 99),
        "service.queue_wait_p50_ms": bucketed_ms("repro_queue_wait_seconds", 0.50),
        "service.queue_wait_p99_ms": bucketed_ms("repro_queue_wait_seconds", 0.99),
        "service.batch_solve_p50_ms": bucketed_ms("repro_batch_solve_seconds", 0.50),
        "service.batches": batches,
        "service.batch_size_mean": delta("repro_scheduled_total") / batches if batches else 0.0,
        "service.cache_hit_ratio": delta("repro_cache_lookup_hits_total") / lookups if lookups else 0.0,
        "service.cache_lookups": lookups,
        "service.coalesced": delta("repro_coalesced_total"),
        "service.shed": delta("repro_shed_total"),
        "service.admission_p50_ms": _p(admission, 50),
        "service.backend_p50_ms": _p(backend, 50),
        "service.http_self_ms": _p(http_self, 50),
        "sharding.pipe_ms": _p(pipe, 50),
        "sharding.worker_restarts": delta("repro_worker_restarts_total"),
        "proc.cpu_front_s": cpu_front,
        "proc.cpu_workers_s": cpu_workers,
        "spectral.solve_ms": _p(spectral, 50),
        "trace.overhead_pct": scrape_share * 100.0,
    }
    metrics.update(registry_metrics(before, after))
    metrics["spectral.solves"] = (
        metrics["solvers.attempts.spectral.ok"] + metrics["solvers.attempts.spectral.failed"]
    )
    return metrics


def hot_check(samples: list[Sample], src: str) -> list[str]:
    """Hot-key answers must equal an in-process solve of the same model."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.service import protocol
    from repro.solvers import solve

    problems = []
    expected: dict[str, dict] = {}
    for sample in samples:
        if sample.kind != "hot" or sample.status != 200:
            continue
        key = json.dumps(sample.body, sort_keys=True)
        if key not in expected:
            request = protocol.parse_solve_request(sample.body)
            expected[key] = dict(solve(request.model, request.policy, cache=False).metrics)
        got = sample.answer.get("metrics", {})
        want = expected[key]
        if set(got) != set(want) or any(
            not math.isclose(float(got[name]), float(want[name]), rel_tol=1e-9, abs_tol=1e-12)
            for name in want
        ):
            problems.append(f"hot answer for {key} differs from the in-process solve: {got} != {want}")
    return problems[:5]
