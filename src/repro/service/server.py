"""The asyncio HTTP front end of the solver service.

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server` — no frameworks, no new dependencies — serving
these endpoints:

``POST /solve``
    The work endpoint: one JSON query in, one JSON answer out (see
    :mod:`.protocol` for the schema).
``GET /healthz``
    Liveness: status, version, uptime, ``workers``/``workers_ready`` and the
    in-flight request count against its capacity, so load balancers can shed
    before the admission controller has to, and the front process's BLAS
    thread setting (``blas``).
``GET /stats``
    The full observability payload: uptime, HTTP counters, shedding, one
    entry per shard (state, routing counters, the BLAS setting of the process
    that solves and its scheduler section with the solution-cache
    statistics), pool totals and the SLO snapshot.
``GET /metrics``
    The same telemetry in Prometheus text exposition format (0.0.4):
    per-shard latency histograms recorded by the schedulers plus counter and
    gauge series derived from the stats counters — what a scraper ingests
    without knowing the JSON schema.
``GET /traces/<id>`` and ``GET /traces``
    The trace query API, served from the :class:`~repro.obs.TraceRecorder`
    rings: one retained trace's span tree by id, or the newest retained
    traces (``?slow=1`` filters to the slow ring, ``?limit=N`` bounds the
    listing).  Lookups also fan out to worker-process shards and merge
    their spans.

:class:`SolverService` is the only front, whatever ``workers`` is: it routes
each request's solution key on a consistent-hash ring onto one
:class:`~repro.service.worker.Shard` — one in-process
:class:`~repro.service.worker.LocalShard` for ``workers == 1``, one
:class:`~repro.service.sharding.ProcessShard` per worker process otherwise —
and every admission decision is made here, in :meth:`SolverService._admit`.

Every request is assigned a trace id, echoed as ``trace_id`` in JSON
payloads and as an ``X-Trace-Id`` response header; ``/solve`` requests
additionally build a full span trace through the shard, kept in a bounded
in-memory ring (:class:`~repro.obs.TraceRecorder`) with slow requests
emitted to the structured log.

Connections are persistent (HTTP/1.1 keep-alive) and each *connection* is
served by its own task, so one slow solve never blocks the accept loop or
other connections; requests on a single connection are answered in order
(no pipelining), which is what the stdlib sync client expects anyway —
concurrency-hungry clients open concurrent connections, as
:class:`~repro.service.client.AsyncServiceClient` does.

:class:`ThreadedService` runs a service on a private event loop in a
background thread — the harness the tests, the benchmark load generator and
embedding applications use.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
import urllib.parse
from collections.abc import Mapping
from dataclasses import dataclass, field

from .. import package_version
from .._blas import blas_record
from ..obs import (
    MetricsRegistry,
    TraceBuilder,
    TraceRecorder,
    configure_logging,
    get_logger,
    new_trace_id,
)
from ..obs.slo import (
    DEFAULT_QUEUE_WAIT_TARGET_SECONDS,
    DEFAULT_SOLVE_LATENCY_TARGET_SECONDS,
    SloTargets,
    SloTracker,
)
from ..solvers import SolutionCache
from ..solvers.cache import solution_cache_key
from . import protocol
from .errors import (
    BadRequestError,
    LoadShedError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    QueueFullError,
    ServiceError,
    SolveFailedError,
    WorkerCrashedError,
)
from .scheduler import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_CACHE_MAXSIZE,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
)
from .sharding import RESTART_RETRY_AFTER, ConsistentHashRing, ProcessShard
from .worker import DEFAULT_SPILL_INTERVAL, LocalShard, Shard, ShardWorkerConfig

#: Largest declared over-bound body the server drains before answering 413.
_MAX_DRAIN_BYTES = 16_000_000

#: Reason phrases for the status codes the service emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Query kinds cheapest-to-recompute first: the order tiers shed under load.
SHED_TIER_ORDER = ("steady-state", "scenario", "transient")

#: Default load fractions of capacity at which each query tier sheds,
#: cheapest-to-recompute first (steady-state, scenario, transient).
DEFAULT_SHED_THRESHOLDS = (0.7, 0.85, 1.0)


def shed_decision(
    query: str,
    pending_total: int,
    capacity: int,
    thresholds: tuple[float, ...] = DEFAULT_SHED_THRESHOLDS,
    *,
    latency_pressure: float = 0.0,
) -> str | None:
    """The pure tiered-admission rule: the tier to shed, or ``None`` to admit.

    ``thresholds[i]`` is the load fraction at which tier ``i`` of
    :data:`SHED_TIER_ORDER` starts shedding; cheaper-to-recompute kinds have
    lower thresholds, so under rising load steady-state queries are turned
    away first while transient grids keep their queue slots until the pool is
    genuinely full.  Unknown query kinds are treated as the most expensive
    tier.

    The load fraction is the *worse* of two signals: queue occupancy
    (``pending_total / capacity``) and ``latency_pressure``, the SLO
    tracker's ``rolling p99 / target`` ratio
    (:meth:`repro.obs.slo.SloTracker.pressure`).  A slow backend therefore
    trips the same tiered response as a full queue — shedding engages on
    *measured latency*, even while depth sits below its thresholds.  Kept
    free of any service state so the policy is unit testable against exact
    load fractions.
    """
    if capacity < 1:
        return query
    try:
        tier = SHED_TIER_ORDER.index(query)
    except ValueError:
        tier = len(SHED_TIER_ORDER) - 1
    threshold = thresholds[min(tier, len(thresholds) - 1)]
    load = max(pending_total / capacity, latency_pressure)
    if load >= threshold:
        return query
    return None


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SolverService` instance.

    ``port=0`` binds an ephemeral port (what the tests use); the bound port
    is available as :attr:`SolverService.port` after ``start()``.

    ``workers`` is the shard count: ``1`` serves from one in-process shard,
    ``> 1`` from one worker process per shard.  ``max_queue`` bounds each
    shard's in-flight requests (and its scheduler's distinct pending
    computations); ``workers × max_queue`` is the capacity tiered shedding
    measures load against.  ``cache_dir`` enables cache persistence —
    snapshots are loaded on startup, spilled every ``spill_interval``
    seconds and on graceful shutdown.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    batch_window: float = DEFAULT_BATCH_WINDOW
    max_queue: int = DEFAULT_MAX_QUEUE
    max_batch: int = DEFAULT_MAX_BATCH
    cache_maxsize: int = DEFAULT_CACHE_MAXSIZE
    max_body_bytes: int = 1_000_000
    cache_dir: str | None = None
    spill_interval: float = DEFAULT_SPILL_INTERVAL
    shed_thresholds: tuple[float, ...] = field(default=DEFAULT_SHED_THRESHOLDS)
    #: Log rendering: ``"text"`` or ``"json"`` (``repro serve --log-format``).
    log_format: str = "text"
    #: Completed traces at least this slow are emitted to the log in full.
    slow_request_seconds: float = 1.0
    #: Bound on the in-memory ring of recent request traces.
    trace_ring: int = 256
    #: Every Nth trace is retained as an exemplar regardless of latency
    #: (``0`` disables exemplar sampling).
    trace_exemplar_interval: int = 32
    #: Rolling-p99 queue-wait SLO target in seconds (``0`` disables the
    #: objective and its latency-pressure shedding).
    slo_queue_wait_seconds: float = DEFAULT_QUEUE_WAIT_TARGET_SECONDS
    #: Rolling-p99 end-to-end solve-latency SLO target in seconds.
    slo_solve_latency_seconds: float = DEFAULT_SOLVE_LATENCY_TARGET_SECONDS

    def __post_init__(self) -> None:
        # Checked here so a bad value fails at construction for every worker
        # count, not inside a spawned worker.
        for name in ("workers", "max_queue", "max_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_window < 0.0:
            raise ValueError(f"batch_window must be >= 0, got {self.batch_window}")

    def shard_config(self, shard: int) -> ShardWorkerConfig:
        """The settings of shard ``shard``."""
        return ShardWorkerConfig(
            shard=shard,
            batch_window=self.batch_window,
            max_queue=self.max_queue,
            max_batch=self.max_batch,
            cache_maxsize=self.cache_maxsize,
            cache_dir=self.cache_dir,
            spill_interval=self.spill_interval,
            trace_ring=self.trace_ring,
            slow_request_seconds=self.slow_request_seconds,
            trace_exemplar_interval=self.trace_exemplar_interval,
        )


class SolverService:
    """The HTTP front: routing, admission, SLO feeding and telemetry over its shards.

    ``cache`` (optional) backs the in-process shard of a one-worker service.
    ``start()`` binds the listening socket, starts every shard (spawning
    worker processes for ``workers > 1``) and only then accepts
    connections; if any step fails, every shard it started is stopped
    before the error propagates.  ``stop()`` closes the socket, then stops
    the shards gracefully, which spills their caches when ``cache_dir`` is
    set.
    """

    def __init__(
        self, config: ServiceConfig | None = None, *, cache: SolutionCache | None = None
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        workers = self.config.workers
        self.shards: list[Shard] = (
            [LocalShard(self.config.shard_config(0), cache=cache)]
            if workers == 1
            else [ProcessShard(self.config.shard_config(index)) for index in range(workers)]
        )
        self._ring = ConsistentHashRing(workers)
        self.slo = SloTracker(
            SloTargets(
                queue_wait_p99_seconds=self.config.slo_queue_wait_seconds,
                solve_latency_p99_seconds=self.config.slo_solve_latency_seconds,
            )
        )
        self._log = get_logger("repro.service")
        self.traces = TraceRecorder(
            self.config.trace_ring,
            slow_threshold_seconds=self.config.slow_request_seconds,
            exemplar_interval=self.config.trace_exemplar_interval,
            logger=self._log,
        )
        self._server: asyncio.Server | None = None
        self._started_monotonic: float | None = None
        self._started_wallclock: float | None = None
        self._responses_total = 0
        self._errors_total = 0
        self._errors_by_code: dict[str, int] = {}
        self._shed_total = 0
        self._shed_by_tier: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful once started)."""
        if self._server is None:
            raise RuntimeError("the service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def start(self) -> None:
        """Bind the socket, start every shard, then accept connections."""
        if self._server is not None:
            raise RuntimeError("the service is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            start_serving=False,
        )
        try:
            outcomes = await asyncio.gather(
                *(shard.start() for shard in self.shards), return_exceptions=True
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
            await self._server.start_serving()
        except BaseException:
            await self.stop()
            raise
        self._started_monotonic = time.monotonic()
        self._started_wallclock = time.time()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections, then stop every shard."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(*(shard.stop() for shard in self.shards))

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except ServiceError as error:
                    # Pre-routing failures (an oversized body that was never
                    # read) still deserve a structured answer; the connection
                    # cannot be reused because the body is still on the wire.
                    status, payload, extra_headers = self._error_response(error)
                    writer.write(self._render_response(status, payload, extra_headers, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, extra_headers = await self._dispatch(method, target, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                writer.write(self._render_response(status, payload, extra_headers, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, TimeoutError):
            pass
        finally:
            # Loop teardown cancels connection handlers mid-read; the
            # CancelledError must propagate (a cancelled task ending with
            # CancelledError is silent, and absorbing it would turn "shut
            # down now" into "keep serving") — but only after the transport
            # is released below.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):
                # Teardown race: the peer vanished mid-close.
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """One header line, treating an over-limit line as a dropped client.

        ``StreamReader.readline`` raises :class:`ValueError` when a line
        exceeds the reader's buffer limit (64 KiB by default); re-raising it
        as the incomplete-read signal makes the handler drop the connection
        quietly instead of spraying an unhandled-exception traceback per
        oversized (or malicious) request.
        """
        try:
            return await reader.readline()
        except ValueError as exc:
            raise asyncio.IncompleteReadError(b"", None) from exc

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise asyncio.IncompleteReadError(request_line, None)
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise asyncio.IncompleteReadError(line, None) from None
        if length > self.config.max_body_bytes:
            # Drain moderate overruns before answering: closing a socket with
            # unread data sends an RST that can destroy the 413 response
            # in-flight.  Absurd declared lengths are not worth draining —
            # the structured answer is then best-effort.
            if length <= _MAX_DRAIN_BYTES:
                try:
                    await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    pass
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte bound"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _render_response(
        self,
        status: int,
        payload: dict | bytes,
        extra_headers: dict[str, str] | None,
        keep_alive: bool,
    ) -> bytes:
        headers = dict(extra_headers or {})
        if isinstance(payload, bytes):
            # A pre-encoded body (the /metrics text exposition); the handler
            # supplies its Content-Type through the extra headers.
            body = payload
            content_type = headers.pop("Content-Type", "text/plain; charset=utf-8")
        else:
            body = protocol.encode_response(payload)
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._responses_total += 1
        if status >= 400:
            self._errors_total += 1
        return head + body


    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict | bytes, dict[str, str] | None]:
        """Route one request; every failure becomes a structured error.

        A trace id is minted here for every request and travels with it:
        ``/solve`` builds a full span trace through the scheduler, the other
        endpoints simply echo the id (payload ``trace_id`` + ``X-Trace-Id``
        header) so any answer can be matched to a log line.
        """
        target, _, query_string = target.partition("?")
        trace = TraceBuilder()
        headers = {"X-Trace-Id": trace.trace_id}
        try:
            if target == "/traces" or target.startswith("/traces/"):
                if method != "GET":
                    raise MethodNotAllowedError("/traces accepts GET only")
                if target == "/traces":
                    slow, limit = _parse_traces_query(query_string)
                    payload = await self._traces_payload(slow=slow, limit=limit)
                else:
                    payload = await self._trace_payload(target[len("/traces/") :])
                payload["trace_id"] = trace.trace_id
                return 200, payload, headers
            if target == "/solve":
                if method != "POST":
                    raise MethodNotAllowedError("/solve accepts POST only")
                return await self._solve(body, trace)
            if target == "/healthz":
                if method != "GET":
                    raise MethodNotAllowedError("/healthz accepts GET only")
                payload = await self._healthz_payload()
                payload["trace_id"] = trace.trace_id
                return 200, payload, headers
            if target == "/stats":
                if method != "GET":
                    raise MethodNotAllowedError("/stats accepts GET only")
                payload = await self._stats_payload()
                payload["trace_id"] = trace.trace_id
                return 200, payload, headers
            if target == "/metrics":
                if method != "GET":
                    raise MethodNotAllowedError("/metrics accepts GET only")
                text = await self._metrics_payload()
                return 200, text.encode("utf-8"), {
                    **headers,
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                }
            raise NotFoundError(
                f"no such endpoint {target!r}; "
                "available: /solve, /healthz, /stats, /metrics, /traces, /traces/<id>"
            )
        except ServiceError as error:
            return self._error_response(error, trace_id=trace.trace_id)
        except Exception as error:  # noqa: BLE001 - last-resort 500, never a dropped socket
            return self._error_response(
                ServiceError(f"internal error: {type(error).__name__}: {error}"),
                trace_id=trace.trace_id,
            )

    def _error_response(
        self, error: ServiceError, trace_id: str | None = None
    ) -> tuple[int, dict, dict[str, str] | None]:
        self._errors_by_code[error.code] = self._errors_by_code.get(error.code, 0) + 1
        trace_id = trace_id if trace_id else new_trace_id()
        headers: dict[str, str] = {"X-Trace-Id": trace_id}
        if error.retry_after is not None:
            headers["Retry-After"] = f"{error.retry_after:g}"
        payload = {"status": "error", "trace_id": trace_id, "error": error.payload()}
        return error.http_status, payload, headers

    # -- request path ------------------------------------------------------

    async def _solve(
        self, body: bytes, trace: TraceBuilder
    ) -> tuple[int, dict, dict[str, str]]:
        started = time.perf_counter()
        try:
            if not body:
                raise BadRequestError("POST /solve requires a JSON body")
            admission_started = time.perf_counter()
            request = protocol.parse_solve_request(protocol.parse_body(body))
            key = solution_cache_key(request.model, request.policy)  # type: ignore[arg-type]
            shard = self.shards[self._ring.shard_for(key)]
            self._admit(request.query, shard)
            trace.add(
                "admission",
                admission_started,
                time.perf_counter(),
                shard=shard.shard,
                query=request.query,
            )
            shard.routed_total += 1
            answer = await shard.submit(
                request.model, request.policy, deadline=request.deadline, trace=trace, key=key
            )
            self._observe_slo(time.perf_counter() - started, trace)
            if answer["solver"] is None:
                raise SolveFailedError(answer["error"] or "no solver succeeded")
        except ServiceError as error:
            # Failed requests leave a trace too — a shed or timed-out request
            # is exactly the one worth a where-did-the-time-go record.
            self.traces.record(trace.finish(error.code))
            raise
        self.traces.record(trace.finish("ok"))
        payload = {
            "status": "ok",
            "trace_id": trace.trace_id,
            "query": request.query,
            "shard": shard.shard,
            "solver": answer["solver"],
            "stable": answer["stable"],
            "metrics": answer["metrics"],
            "cached": answer["cached"],
            "coalesced": answer["coalesced"],
            "elapsed_ms": round((time.perf_counter() - started) * 1e3, 3),
        }
        return 200, payload, {"X-Trace-Id": trace.trace_id}

    def _admit(self, query: str, shard: Shard) -> None:
        """Admission, the service's one policy, in order: the shard must be
        ready, its in-flight requests below ``max_queue``, and the tiered
        shedding rule must admit the query at the pool's load."""
        if shard.state != "ready":
            raise WorkerCrashedError(
                f"shard {shard.shard} is {shard.state}, not ready; retry shortly",
                shard=shard.shard,
                retry_after=RESTART_RETRY_AFTER,
            )
        in_flight = sum(each.in_flight for each in self.shards)
        capacity = len(self.shards) * self.config.max_queue
        retry_after = round(0.1 * (1.0 + in_flight / capacity), 3)
        if shard.in_flight >= self.config.max_queue:
            raise QueueFullError(
                f"shard {shard.shard} has {shard.in_flight} requests in flight "
                f"(max_queue {self.config.max_queue}); retry shortly",
                retry_after=retry_after,
            )
        tier = shed_decision(
            query,
            in_flight,
            capacity,
            self.config.shed_thresholds,
            latency_pressure=self.slo.pressure(),
        )
        if tier is not None:
            self._shed_total += 1
            self._shed_by_tier[tier] = self._shed_by_tier.get(tier, 0) + 1
            raise LoadShedError(
                f"overloaded: shedding {tier!r} requests "
                f"({in_flight}/{capacity} in flight); retry shortly",
                shard=shard.shard,
                tier=tier,
                retry_after=retry_after,
            )

    def _observe_slo(self, latency: float, trace: TraceBuilder) -> None:
        """Feed the SLO tracker one answered request: its end-to-end latency
        and the queue wait its shard recorded as a span."""
        self.slo.observe_solve_latency(latency)
        for span in trace.spans:
            if span.name == "queue-wait":
                self.slo.observe_queue_wait(span.duration_ms / 1e3)

    # -- observability -----------------------------------------------------

    def _uptime(self) -> float:
        return round(time.monotonic() - (self._started_monotonic or time.monotonic()), 3)

    async def _trace_payload(self, trace_id: str) -> dict:
        """``GET /traces/<id>``: the front's copy merged with shard-held spans.

        The front's retained copy is authoritative — it already carries every
        span of the request, worker spans re-based onto the front clock.  The
        fan-out to the shards merges any worker-retained spans the front copy
        lacks (deduplicated by span id) and covers traces the front ring has
        already evicted while a worker ring still holds them; a worker-only
        trace keeps its worker-relative offsets (durations are exact).
        """
        found = self.traces.find(trace_id)
        held = [
            payload
            for payload in await asyncio.gather(
                *(shard.find_trace(trace_id) for shard in self.shards)
            )
            if payload is not None
        ]
        if found is not None:
            spans = [span.to_dict() for span in found.spans]
            seen: set[object] = {span.span_id for span in found.spans}
            for worker_payload in held:
                for span_payload in worker_payload.get("spans") or ():
                    if isinstance(span_payload, dict) and span_payload.get("span_id") not in seen:
                        seen.add(span_payload.get("span_id"))
                        spans.append(span_payload)
            return {"status": "ok", "trace": {**found.to_dict(), "spans": spans}}
        if held:
            return {"status": "ok", "trace": held[0]}
        raise NotFoundError(
            f"no retained trace {trace_id!r} on the front or any shard; it may "
            f"have fallen off the rings (capacity {self.traces.capacity})"
        )

    async def _traces_payload(self, *, slow: bool, limit: int) -> dict:
        """``GET /traces``: retained traces newest-first (``?slow=1`` filters).

        Front-retained traces win the per-id deduplication (they carry every
        span, re-based); shard-only traces fill in behind them.  The combined
        listing is sorted newest-first and bounded by ``limit``.
        """
        combined = [retained.to_dict() for retained in self.traces.query(slow=slow, limit=limit)]
        seen = {entry["trace_id"] for entry in combined}
        for listed in await asyncio.gather(
            *(shard.list_traces(slow=slow, limit=limit) for shard in self.shards)
        ):
            for entry in listed:
                if entry.get("trace_id") not in seen:
                    seen.add(entry.get("trace_id"))
                    combined.append(entry)

        def _started_at(entry: dict) -> float:
            value = entry.get("started_at")
            return float(value) if isinstance(value, (int, float)) else 0.0

        combined.sort(key=_started_at, reverse=True)
        del combined[limit:]
        return {"status": "ok", "count": len(combined), "slow": slow, "traces": combined}

    async def _healthz_payload(self) -> dict:
        """The liveness payload."""
        return {
            "status": "ok",
            "version": package_version(),
            "uptime_seconds": self._uptime(),
            "workers": len(self.shards),
            "workers_ready": sum(1 for shard in self.shards if shard.state == "ready"),
            "queue_depth": sum(shard.in_flight for shard in self.shards),
            "max_queue": len(self.shards) * self.config.max_queue,
            # The front's own; each worker reports its setting in /stats.
            "blas": blas_record(),
        }

    async def _stats_payload(self) -> dict:
        """The observability payload: one entry per shard plus pool totals."""
        totals = dict.fromkeys((*_SCHEDULER_COUNTERS, *_TOTAL_CACHE_FIELDS.values()), 0)
        shards: list[dict] = []
        for shard, stats in zip(
            self.shards, await asyncio.gather(*(shard.stats() for shard in self.shards))
        ):
            entry: dict = {
                "shard": shard.shard,
                "state": shard.state,
                "restarts": shard.restarts,
                "routed_total": shard.routed_total,
                "pending": shard.in_flight,
            }
            if stats is not None:
                # The registry dump rides along but belongs to /metrics.
                stats.pop("metrics", None)
                entry["blas"] = stats.pop("blas", None)
                entry["scheduler"] = stats
                for counter in _SCHEDULER_COUNTERS:
                    totals[counter] += int(stats.get(counter, 0))
                cache_stats = stats.get("cache", {})
                for cache_key, total_key in _TOTAL_CACHE_FIELDS.items():
                    totals[total_key] += int(cache_stats.get(cache_key, 0))
            shards.append(entry)
        return {
            "status": "ok",
            "started_at": self._started_wallclock,
            "uptime_seconds": self._uptime(),
            "workers": len(self.shards),
            "responses_total": self._responses_total,
            "errors_total": self._errors_total,
            "errors_by_code": dict(self._errors_by_code),
            "shedding": {
                "shed_total": self._shed_total,
                "by_tier": dict(self._shed_by_tier),
                "tier_order": list(SHED_TIER_ORDER),
                "thresholds": list(self.config.shed_thresholds),
                "capacity": len(self.shards) * self.config.max_queue,
            },
            "shards": shards,
            "totals": totals,
            "slo": self.slo.snapshot(),
        }

    async def _metrics_payload(self) -> str:
        """The ``GET /metrics`` body: a fresh snapshot registry, rendered.

        Built per scrape rather than kept live.  Each shard's scheduler
        registry arrives inside its stats reply; bucket-wise summation makes
        the aggregated histograms identical to one process having recorded
        every observation.  Shard counters are derived from the same stats
        integers ``/stats`` reports — one source of truth, two encodings —
        plus the front's own series (routing, restarts, readiness, shedding,
        HTTP, traces, SLO).
        """
        registry = MetricsRegistry()
        for shard, stats in zip(
            self.shards, await asyncio.gather(*(shard.stats() for shard in self.shards))
        ):
            labels = {"shard": str(shard.shard)}
            registry.counter(
                "repro_worker_restarts_total",
                "Times this shard's worker process was respawned.",
                labels=labels,
            ).inc(float(shard.restarts))
            registry.counter(
                "repro_routed_total", "Requests routed to this shard by the ring.", labels=labels
            ).inc(float(shard.routed_total))
            if stats is None:
                continue
            metrics_payload = stats.get("metrics")
            if isinstance(metrics_payload, dict):
                registry.merge_dict(metrics_payload)
            merge_shard_stats_metrics(registry, shard.shard, stats)
        registry.gauge(
            "repro_workers_ready", "Shards currently in the ready state."
        ).set(float(sum(1 for shard in self.shards if shard.state == "ready")))
        registry.counter("repro_shed_total", "Requests shed by tiered admission.").inc(
            float(self._shed_total)
        )
        for tier, count in self._shed_by_tier.items():
            registry.counter(
                "repro_shed_by_tier_total",
                "Requests shed by tiered admission, by query tier.",
                labels={"tier": tier},
            ).inc(float(count))
        registry.counter("repro_http_responses_total", "HTTP responses written.").inc(
            float(self._responses_total)
        )
        registry.counter("repro_http_errors_total", "HTTP error responses written.").inc(
            float(self._errors_total)
        )
        for code, count in self._errors_by_code.items():
            registry.counter(
                "repro_http_errors_by_code_total",
                "HTTP error responses by structured error code.",
                labels={"code": code},
            ).inc(float(count))
        registry.gauge(
            "repro_uptime_seconds", "Seconds since the service started."
        ).set(time.monotonic() - (self._started_monotonic or time.monotonic()))
        registry.counter(
            "repro_traces_recorded_total", "Request traces recorded in the ring."
        ).inc(float(self.traces.recorded_total))
        registry.counter(
            "repro_traces_slow_total", "Traces over the slow-request threshold."
        ).inc(float(self.traces.slow_total))
        registry.counter(
            "repro_traces_exemplars_total",
            "Traces retained as periodic exemplars regardless of latency.",
        ).inc(float(self.traces.exemplar_total))
        self.slo.export_into(registry)
        return registry.render()


def _parse_traces_query(query_string: str) -> tuple[bool, int]:
    """The ``(slow, limit)`` pair of a ``GET /traces`` query string."""
    params = urllib.parse.parse_qs(query_string, keep_blank_values=True)
    slow_text = params.get("slow", ["0"])[-1].strip().lower()
    slow = slow_text in ("1", "true", "yes", "")
    limit_text = params.get("limit", ["32"])[-1]
    try:
        limit = int(limit_text)
    except ValueError:
        raise BadRequestError(f"limit must be an integer, got {limit_text!r}") from None
    if limit < 1:
        raise BadRequestError(f"limit must be >= 1, got {limit}")
    return slow, limit


#: ``/stats`` scheduler counters exported as Prometheus counter families.
_SCHEDULER_COUNTERS: dict[str, tuple[str, str]] = {
    "requests_total": (
        "repro_requests_total",
        "Requests admitted by the scheduler.",
    ),
    "cache_hits_total": (
        "repro_cache_hits_total",
        "Requests answered straight from the solution cache.",
    ),
    "coalesced_total": (
        "repro_coalesced_total",
        "Requests attached to an identical in-flight computation.",
    ),
    "scheduled_total": (
        "repro_scheduled_total",
        "Distinct computations scheduled.",
    ),
    "batches_total": (
        "repro_batches_total",
        "Solve batches dispatched.",
    ),
    "rejected_total": (
        "repro_rejected_total",
        "Requests rejected by the scheduler's queue bound.",
    ),
    "deadline_exceeded_total": (
        "repro_deadline_exceeded_total",
        "Requests whose deadline expired before the solution was ready.",
    ),
}

#: Solution-cache counters exported per shard, same contract.
_CACHE_COUNTERS: dict[str, tuple[str, str]] = {
    "hits": ("repro_cache_lookup_hits_total", "Solution-cache lookup hits."),
    "misses": ("repro_cache_lookup_misses_total", "Solution-cache lookup misses."),
    "solves": ("repro_cache_solves_total", "Fresh solves recorded by the cache."),
    "evictions": ("repro_cache_evictions_total", "Cache entries evicted by the LRU bound."),
    "spills": ("repro_cache_spills_total", "Cache snapshots spilled to disk."),
    "spilled_entries": (
        "repro_cache_spilled_entries_total",
        "Entries written across all cache spills.",
    ),
    "loads": ("repro_cache_loads_total", "Cache snapshots loaded from disk."),
    "loaded_entries": (
        "repro_cache_loaded_entries_total",
        "Entries restored across all cache loads.",
    ),
}


#: Solution-cache statistics summed into the pool ``totals`` (cache key → total key).
_TOTAL_CACHE_FIELDS = {
    "solves": "solves",
    "size": "cache_size",
    "spills": "cache_spills",
    "spilled_entries": "cache_spilled_entries",
    "loads": "cache_loads",
    "loaded_entries": "cache_loaded_entries",
}


def merge_shard_stats_metrics(
    registry: MetricsRegistry, shard: int, stats: Mapping[str, object]
) -> None:
    """Derive one shard's counter/gauge series from its ``/stats`` section.

    The integers are the very ones ``/stats`` reports (scheduler counters and
    the cache's hit/miss/solve/eviction totals), re-encoded as labelled
    Prometheus series; missing or non-numeric entries are skipped so an older
    worker's stats payload degrades instead of failing the scrape.
    """
    labels = {"shard": str(shard)}
    for stats_key, (name, help_text) in _SCHEDULER_COUNTERS.items():
        value = stats.get(stats_key)
        if isinstance(value, (int, float)):
            registry.counter(name, help_text, labels=labels).inc(float(value))
    depth = stats.get("queue_depth")
    if isinstance(depth, (int, float)):
        registry.gauge(
            "repro_queue_depth",
            "Distinct computations queued or executing.",
            labels=labels,
        ).set(float(depth))
    cache_stats = stats.get("cache")
    if isinstance(cache_stats, Mapping):
        for stats_key, (name, help_text) in _CACHE_COUNTERS.items():
            value = cache_stats.get(stats_key)
            if isinstance(value, (int, float)):
                registry.counter(name, help_text, labels=labels).inc(float(value))
        size = cache_stats.get("size")
        if isinstance(size, (int, float)):
            registry.gauge(
                "repro_cache_entries", "Entries in the solution cache.", labels=labels
            ).set(float(size))


def run_service(config: ServiceConfig | None = None) -> int:
    """Run a service until interrupted (the ``repro serve`` entry point).

    SIGTERM (the fleet-orchestrator stop signal) and Ctrl-C both shut the
    service down gracefully — in-flight work is answered where possible and
    caches spill to ``cache_dir`` before the process exits.
    """

    async def _main() -> None:
        service = SolverService(config)
        configure_logging(service.config.log_format)
        await service.start()
        stopped = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stopped.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            pass
        get_logger("repro.service").info(
            "service-started",
            url=f"http://{service.host}:{service.port}",
            workers=service.config.workers,
            endpoints=(
                "POST /solve, GET /healthz, GET /stats, GET /metrics, "
                "GET /traces, GET /traces/<id>"
            ),
            stop="Ctrl-C or SIGTERM",
        )
        serve_task = loop.create_task(service.serve_forever())
        stop_task = loop.create_task(stopped.wait())
        try:
            await asyncio.wait({serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    get_logger("repro.service").info("service-stopped")
    return 0


class ThreadedService:
    """A :class:`SolverService` on a private event loop in a daemon thread.

    The synchronous harness everything outside asyncio uses: tests, the
    benchmark load generator, interactive sessions.  Usable as a context
    manager::

        with ThreadedService(ServiceConfig(port=0)) as service:
            client = ServiceClient(service.host, service.port)
            client.solve({...})
    """

    def __init__(
        self, config: ServiceConfig | None = None, *, cache: SolutionCache | None = None
    ) -> None:
        self._config = config if config is not None else ServiceConfig(port=0)
        self._cache = cache
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._service: SolverService | None = None
        self._startup_error: BaseException | None = None
        self.host: str = self._config.host
        self.port: int | None = None

    def start(self) -> "ThreadedService":
        if self._thread is not None:
            raise RuntimeError("the service thread is already started")
        self._thread = threading.Thread(target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):  # pragma: no cover - hang guard
            raise RuntimeError("the service thread failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError("the service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    @property
    def service(self) -> SolverService:
        """The underlying service object (meaningful once started)."""
        if self._service is None:
            raise RuntimeError("the service is not started")
        return self._service

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        service = SolverService(self._config, cache=self._cache)
        try:
            await service.start()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self._startup_error = exc
            self._ready.set()
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        self._service = service
        self.port = service.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await service.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    @property
    def address(self) -> str:
        """The service's base URL."""
        if self.port is None:
            raise RuntimeError("the service is not started")
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ThreadedService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
