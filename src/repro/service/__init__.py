"""repro.service — the async solver service.

Turns the library into a long-running, multi-tenant surface: an asyncio HTTP
server (``repro serve``) that answers concurrent steady-state, scenario and
transient queries as JSON, scheduling them onto the existing
:mod:`repro.solvers` facade through a batching scheduler with single-flight
request coalescing and admission-control backpressure.

The moving parts, each in its own module:

:mod:`~repro.service.protocol`
    The JSON request/response schema and its strict validator.
:mod:`~repro.service.scheduler`
    :class:`BatchScheduler` — coalescing, batch windows, bounded queue,
    per-request deadlines.
:mod:`~repro.service.server`
    :class:`SolverService`, the one raw-asyncio HTTP front end (``/solve``,
    ``/healthz``, ``/stats``, ``/metrics``, ``/traces``): consistent-hash
    routing onto its shards, admission (tiered load shedding included) and
    aggregated telemetry; plus :class:`ServiceConfig`, :func:`run_service`
    and the thread-hosted :class:`ThreadedService`.
:mod:`~repro.service.worker`
    :class:`Shard`, the front's view of one key-space slice, and
    :class:`LocalShard` — one scheduler + persistent cache on the caller's
    loop, which ``workers == 1`` serves from in-process — plus the shard
    worker process entry point built on it.
:mod:`~repro.service.sharding`
    :class:`ConsistentHashRing` and :class:`ProcessShard`, a
    :class:`LocalShard` in a spawned worker process behind a pipe, with
    crash recovery.
:mod:`~repro.service.client`
    :class:`ServiceClient` (sync) and :class:`AsyncServiceClient`.
:mod:`~repro.service.errors`
    The structured error vocabulary (machine-readable ``error.code``).

Example
-------

>>> from repro.service import ServiceClient, ServiceConfig, ThreadedService
>>> with ThreadedService(ServiceConfig(port=0)) as service:
...     client = ServiceClient(service.host, service.port)
...     payload = client.solve_ok(
...         {"model": {"servers": 4, "arrival_rate": 2.0}}
...     )
>>> payload["solver"]
'spectral'
"""

from .client import AsyncServiceClient, ServiceCallError, ServiceClient, ServiceResponse
from .errors import (
    BadJSONError,
    BadRequestError,
    DeadlineExceededError,
    LoadShedError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    SolveFailedError,
    UnknownPresetError,
    UnknownSolverError,
    UnstableModelError,
    WorkerCrashedError,
)
from .protocol import (
    DEFAULT_SOLVER_ORDERS,
    QUERY_KINDS,
    SolveRequest,
    parse_body,
    parse_solve_request,
)
from .scheduler import BatchScheduler, ScheduledResult
from .server import (
    DEFAULT_SHED_THRESHOLDS,
    SHED_TIER_ORDER,
    ServiceConfig,
    SolverService,
    ThreadedService,
    run_service,
    shed_decision,
)
from .sharding import ConsistentHashRing, ProcessShard, stable_key_digest
from .worker import LocalShard, Shard, ShardWorkerConfig, shard_cache_path, worker_main

__all__ = [
    "AsyncServiceClient",
    "BadJSONError",
    "BadRequestError",
    "BatchScheduler",
    "ConsistentHashRing",
    "DEFAULT_SHED_THRESHOLDS",
    "DEFAULT_SOLVER_ORDERS",
    "DeadlineExceededError",
    "LoadShedError",
    "LocalShard",
    "MethodNotAllowedError",
    "NotFoundError",
    "PayloadTooLargeError",
    "ProcessShard",
    "QUERY_KINDS",
    "QueueFullError",
    "SHED_TIER_ORDER",
    "ScheduledResult",
    "ServiceCallError",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceResponse",
    "Shard",
    "ShardWorkerConfig",
    "SolveFailedError",
    "SolveRequest",
    "SolverService",
    "ThreadedService",
    "UnknownPresetError",
    "UnknownSolverError",
    "UnstableModelError",
    "WorkerCrashedError",
    "parse_body",
    "parse_solve_request",
    "run_service",
    "shard_cache_path",
    "shed_decision",
    "stable_key_digest",
    "worker_main",
]
