"""Shards: the front's view of one key-space slice, and the in-process kind.

The HTTP front (:class:`~repro.service.server.SolverService`) routes every
solution key to exactly one :class:`Shard`, so single-flight coalescing and
LRU locality keep working *per shard* — 100 identical concurrent requests
still cost one solve, no matter which front connection carried them.  There
are two kinds:

:class:`LocalShard`
    A :class:`~repro.service.scheduler.BatchScheduler` and its
    :class:`~repro.solvers.SolutionCache` (with the cache's snapshot
    load/spill) running on the caller's event loop.  ``--workers 1`` serves
    from one of these inside the front process.
:class:`~repro.service.sharding.ProcessShard`
    The same :class:`LocalShard` in a spawned worker process running
    :func:`worker_main`, reached over a pipe.

The front talks to a worker over one :class:`multiprocessing.connection.Connection`.
Messages front → worker::

    ("solve", request_id, model, policy, deadline, trace_id)
    ("stats", request_id)       # scheduler + cache counters for this shard
    ("spill", request_id)       # snapshot the shard cache to disk now
    ("trace", request_id, trace_id)   # look one trace up in the shard's ring
    ("traces", request_id, params)    # list retained traces ({"slow","limit"})
    ("shutdown",)               # graceful: spill, drain, exit

(the trailing ``trace_id`` is optional — a worker unpacks tolerantly, so an
older front sending 5-tuples keeps working) and worker → front::

    ("ready", shard)                      # startup handshake
    (request_id, "ok", answer_dict)       # includes a "trace" span payload
    (request_id, "error", error_dict)     # structured ServiceError fields
    (request_id, "stats", stats_dict)     # includes a "metrics" registry dump
    (request_id, "spilled", entry_count)
    (request_id, "trace", {"trace": ...}) # the retained trace dict, or None
    (request_id, "traces", {"traces": [...]})

Blocking pipe I/O never touches the event loop: a reader thread feeds
incoming messages to the loop via ``call_soon_threadsafe`` and a writer
thread drains an outbox queue, mirroring how the front side bridges the same
pipes.  ``worker_main`` also runs happily inside a *thread* (the coverage
harness does this), so signal handling is installed only when the worker is
a real process's main thread.

Cache persistence is per shard: with ``cache_dir`` set, a shard loads
``shard-<i>.json`` on startup (a corrupt snapshot serves cold rather than
crashing), spills every ``spill_interval`` seconds, and spills once more on
graceful shutdown — a restarted shard answers yesterday's popular queries
from memory without re-solving.
"""

from __future__ import annotations

import asyncio
import queue
import signal
import threading
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .._blas import blas_record
from ..exceptions import CachePersistenceError
from ..obs import TraceBuilder, TraceRecorder
from ..solvers import SolutionCache, SolverPolicy
from ..solvers.cache import CacheKey
from .errors import ServiceError
from .scheduler import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_CACHE_MAXSIZE,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    BatchScheduler,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

#: Default seconds between periodic shard-cache spills.
DEFAULT_SPILL_INTERVAL = 30.0


@dataclass(frozen=True)
class ShardWorkerConfig:
    """Everything one shard needs to run (picklable, so a worker can be spawned)."""

    shard: int
    batch_window: float = DEFAULT_BATCH_WINDOW
    max_queue: int = DEFAULT_MAX_QUEUE
    max_batch: int = DEFAULT_MAX_BATCH
    cache_maxsize: int = DEFAULT_CACHE_MAXSIZE
    cache_dir: str | None = None
    spill_interval: float = DEFAULT_SPILL_INTERVAL
    trace_ring: int = 256
    slow_request_seconds: float = 1.0
    trace_exemplar_interval: int = 32


def shard_cache_path(cache_dir: str | Path, shard: int) -> Path:
    """The snapshot file of one shard's cache inside ``cache_dir``."""
    return Path(cache_dir) / f"shard-{shard}.json"


class Shard(ABC):
    """One slice of the key space, as the HTTP front sees it.

    ``state`` is ``"starting"``, ``"ready"``, ``"dead"`` (a crashed worker
    awaiting its respawn) or ``"stopped"``; the front admits requests only to
    a ready shard.  ``routed_total`` counts the requests the front routed
    here and ``restarts`` the worker respawns.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.state = "starting"
        self.restarts = 0
        self.routed_total = 0

    @property
    @abstractmethod
    def in_flight(self) -> int:
        """Requests submitted to this shard and not yet answered."""

    @abstractmethod
    async def start(self) -> None:
        """Become ready to solve (raises when the shard cannot start)."""

    @abstractmethod
    async def stop(self) -> None:
        """Fail unstarted work, spill the cache when persisted, release resources."""

    @abstractmethod
    async def submit(
        self,
        model: object,
        policy: SolverPolicy,
        *,
        deadline: float | None,
        trace: TraceBuilder,
        key: CacheKey | None = None,
    ) -> dict:
        """Answer one query; its spans land on ``trace`` on the caller's clock.

        ``key`` is the query's cache key when the caller already has it.

        The answer carries ``solver``, ``stable``, ``metrics``, ``error``,
        ``cached`` and ``coalesced``; structured failures raise
        :class:`~repro.service.errors.ServiceError`.
        """

    @abstractmethod
    async def stats(self) -> dict | None:
        """The scheduler section of ``/stats`` plus a ``metrics`` registry
        dump, or ``None`` when the shard cannot answer right now."""

    async def find_trace(self, trace_id: str) -> dict | None:
        """A trace retained by the shard itself (beyond the front's copy)."""
        return None

    async def list_traces(self, *, slow: bool, limit: int) -> list[dict]:
        """Traces retained by the shard itself, newest first."""
        return []


class LocalShard(Shard):
    """A shard on the caller's event loop: scheduler, cache and snapshots.

    Its spans are recorded straight onto the caller's trace, so the front's
    trace ring already holds everything it knows — the trace lookups keep the
    base class's empty answers.
    """

    def __init__(self, config: ShardWorkerConfig, *, cache: SolutionCache | None = None) -> None:
        super().__init__(config.shard)
        self.config = config
        self.scheduler = BatchScheduler(
            batch_window=config.batch_window,
            max_queue=config.max_queue,
            max_batch=config.max_batch,
            cache=cache if cache is not None else SolutionCache(maxsize=config.cache_maxsize),
            shard=config.shard,
        )
        self._snapshot = (
            None if config.cache_dir is None else shard_cache_path(config.cache_dir, config.shard)
        )
        self._spill_task: asyncio.Task | None = None
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    async def start(self) -> None:
        if self._snapshot is not None:
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, self.scheduler.cache.load, self._snapshot)
            except CachePersistenceError as exc:
                # A torn or stale snapshot must not keep the shard down; serving
                # cold is strictly better than not serving.
                warnings.warn(
                    f"shard {self.shard} serves cold: {exc}", RuntimeWarning, stacklevel=1
                )
            if self.config.spill_interval > 0:
                self._spill_task = loop.create_task(self._spill_periodically())
        self.state = "ready"

    async def stop(self) -> None:
        if self._spill_task is not None:
            self._spill_task.cancel()
            await asyncio.gather(self._spill_task, return_exceptions=True)
            self._spill_task = None
        await self.scheduler.close()
        if self.state == "ready":  # a shard that never started must not overwrite its snapshot
            await self.spill()
        self.state = "stopped"

    async def spill(self) -> int:
        """Snapshot the cache now; the number of entries written (0 if not persisted)."""
        if self._snapshot is None:
            return 0
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.scheduler.cache.spill, self._snapshot)

    async def _spill_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.config.spill_interval)
            await self.spill()

    async def submit(
        self,
        model: object,
        policy: SolverPolicy,
        *,
        deadline: float | None,
        trace: TraceBuilder,
        key: CacheKey | None = None,
    ) -> dict:
        self._in_flight += 1
        try:
            result = await self.scheduler.submit(
                model, policy, deadline=deadline, trace=trace, key=key
            )
        finally:
            self._in_flight -= 1
        outcome = result.outcome
        return {
            "solver": outcome.solver,
            "stable": outcome.stable,
            "metrics": dict(outcome.metrics),
            "error": outcome.error,
            "cached": result.cached,
            "coalesced": result.coalesced,
        }

    async def stats(self) -> dict:
        stats = self.scheduler.stats()
        stats["shard"] = self.shard
        stats["blas"] = blas_record()  # read in the process that solves
        stats["metrics"] = self.scheduler.metrics_snapshot()
        return stats


def _error_fields(error: ServiceError) -> dict:
    """A structured error's stable fields, as they cross the pipe."""
    return {
        "code": error.code,
        "message": str(error),
        "http_status": error.http_status,
        "retry_after": error.retry_after,
    }


def worker_main(config: ShardWorkerConfig, conn: "Connection") -> None:
    """Run one shard worker until told to shut down (process entry point)."""
    asyncio.run(_worker_async(config, conn))


async def _worker_async(config: ShardWorkerConfig, conn: "Connection") -> None:
    loop = asyncio.get_running_loop()
    shard = LocalShard(config)
    await shard.start()
    # The worker keeps its own trace rings so the front can fan ``/traces``
    # lookups out over the control pipe.  No logger: the front records the
    # full merged trace and owns slow-request log emission.
    recorder = TraceRecorder(
        config.trace_ring,
        slow_threshold_seconds=config.slow_request_seconds,
        exemplar_interval=config.trace_exemplar_interval,
        logger=None,
    )

    inbox: asyncio.Queue[tuple] = asyncio.Queue()
    outbox: queue.Queue[tuple | None] = queue.Queue()
    answer_tasks: set[asyncio.Task] = set()

    sigterm_installed = False
    if threading.current_thread() is threading.main_thread():
        # A worker process dies gracefully on SIGTERM: the handler enqueues
        # the same shutdown message the front would send onto the worker's
        # *own* inbox, so the cache still spills.  Inside a thread (the
        # coverage harness) signals belong to the host process and are left
        # alone.
        try:
            loop.add_signal_handler(signal.SIGTERM, inbox.put_nowait, ("shutdown",))
            sigterm_installed = True
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix
            signal.signal(
                signal.SIGTERM,
                lambda _signum, _frame: loop.call_soon_threadsafe(
                    inbox.put_nowait, ("shutdown",)
                ),
            )

    def _read_loop() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = ("shutdown",)
            if not isinstance(message, tuple) or not message:
                continue
            try:
                loop.call_soon_threadsafe(inbox.put_nowait, message)
            except RuntimeError:  # pragma: no cover - loop already closed
                return
            if message[0] == "shutdown":
                return

    def _write_loop() -> None:
        while True:
            message = outbox.get()
            if message is None:
                return
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # pragma: no cover - front died
                return

    reader = threading.Thread(target=_read_loop, name=f"shard-{config.shard}-read", daemon=True)
    writer = threading.Thread(target=_write_loop, name=f"shard-{config.shard}-write", daemon=True)
    reader.start()
    writer.start()

    async def _answer(
        request_id: int,
        model: object,
        policy: SolverPolicy,
        deadline: float | None,
        trace_id: str | None,
    ) -> None:
        # The worker builds its own span set relative to its own clock; the
        # front re-bases the offsets by the pipe-send instant on its side.
        trace = TraceBuilder(trace_id=trace_id)
        try:
            answer = await shard.submit(model, policy, deadline=deadline, trace=trace)
        except asyncio.CancelledError:
            raise
        except ServiceError as error:
            recorder.record(trace.finish(error.code))
            outbox.put((request_id, "error", _error_fields(error)))
            return
        except Exception as error:  # noqa: BLE001 - reported, never a hung waiter
            recorder.record(trace.finish("internal-error"))
            internal = ServiceError(f"{type(error).__name__}: {error}")
            outbox.put((request_id, "error", _error_fields(internal)))
            return
        recorder.record(trace.finish("ok"))
        answer["trace"] = {"spans": [span.to_dict() for span in trace.spans]}
        outbox.put((request_id, "ok", answer))

    outbox.put(("ready", config.shard))
    try:
        while True:
            message = await inbox.get()
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "solve":
                _, request_id, model, policy, deadline = message[:5]
                trace_id = message[5] if len(message) > 5 else None
                task = loop.create_task(
                    _answer(request_id, model, policy, deadline, trace_id)
                )
                answer_tasks.add(task)
                task.add_done_callback(answer_tasks.discard)
            elif kind == "stats":
                outbox.put((message[1], "stats", await shard.stats()))
            elif kind == "spill":
                outbox.put((message[1], "spilled", await shard.spill()))
            elif kind == "trace" and len(message) > 2:
                found = recorder.find(str(message[2]))
                outbox.put(
                    (
                        message[1],
                        "trace",
                        {"trace": found.to_dict() if found is not None else None},
                    )
                )
            elif kind == "traces":
                params = message[2] if len(message) > 2 and isinstance(message[2], dict) else {}
                listed = recorder.query(
                    slow=bool(params.get("slow", False)),
                    limit=int(params.get("limit", 32)),
                )
                outbox.put(
                    (
                        message[1],
                        "traces",
                        {"traces": [retained.to_dict() for retained in listed]},
                    )
                )
            # Unknown message kinds are ignored: a newer front speaking to an
            # older worker must degrade, not crash the shard.
    finally:
        if sigterm_installed:
            loop.remove_signal_handler(signal.SIGTERM)
        if answer_tasks:
            await asyncio.gather(*tuple(answer_tasks), return_exceptions=True)
        await shard.stop()
        outbox.put(None)
        await loop.run_in_executor(None, writer.join)
