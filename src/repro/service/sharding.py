"""Consistent-hash routing and the worker-process shard.

The HTTP front routes every request by consistent-hashing its solution key
(:func:`~repro.solvers.cache.solution_cache_key`) onto the ring, so a given
``(model, policy)`` always lands on the same shard — which is what keeps the
per-shard :class:`~repro.solvers.SolutionCache` hot and per-shard
single-flight coalescing exact: 100 identical concurrent requests arriving on
100 connections still cost one solve, because they all route to one shard.

:class:`ConsistentHashRing`
    ``replicas`` virtual nodes per shard on a 64-bit ring built from
    :func:`stable_key_digest` — deterministic across processes and runs
    (``hash()`` is salted per process and would scatter a key's shard
    assignment across restarts).

:class:`ProcessShard`
    One spawned worker process (see :mod:`.worker`), a pipe to it, a sender
    thread draining an outbox queue and a reader thread delivering answers
    back onto the event loop.  Worker processes are spawned and joined in
    *sync* helpers invoked off-loop — creating multiprocessing primitives on
    the event loop blocks it for the whole fork/exec handshake (lint rule
    RPR009).

Crash recovery
    A worker EOF (crash, kill, OOM) fails that shard's in-flight requests
    with the retryable ``worker-crashed`` error, then respawns the worker
    under the same shard id — the ring never changes, so "rehash" is the
    identity and no other shard's keys move.  A periodic health task backs up
    the EOF signal.  Respawns happen only while the shard is live: never
    during startup (a worker that dies before its ready handshake fails
    ``start()``) and never once ``stop()`` has begun.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import multiprocessing
import queue
import threading
import time
from typing import TYPE_CHECKING

from ..obs import Span, TraceBuilder
from ..solvers import SolverPolicy
from ..solvers.cache import CacheKey
from .errors import ServiceClosedError, ServiceError, WorkerCrashedError
from .worker import Shard, ShardWorkerConfig, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = ["ConsistentHashRing", "ProcessShard", "stable_key_digest"]

#: Seconds a worker gets to finish its ready handshake.
_STARTUP_TIMEOUT = 120.0

#: Seconds between liveness sweeps over the worker process.
_HEALTH_INTERVAL = 1.0

#: Seconds a crashed worker's waiters are told to back off before retrying.
RESTART_RETRY_AFTER = 0.5


def stable_key_digest(key: object) -> int:
    """A process-independent 64-bit position for a cache key on the ring.

    Builtin ``hash()`` is salted per process (``PYTHONHASHSEED``), so two
    front processes — or one front before and after a restart — would
    disagree about every key's shard.  Hashing the key's ``repr`` with
    blake2b is deterministic everywhere; cache keys are value-typed trees
    (numbers, strings, tuples, frozen policies) whose reprs are canonical.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """A consistent-hash ring mapping solution keys onto shard ids.

    Each shard owns ``replicas`` virtual nodes, which evens out the key share
    per shard (single-point rings routinely give one shard several times its
    fair share).  Lookup is a binary search over the sorted vnode positions:
    a key belongs to the first vnode clockwise from its digest.
    """

    def __init__(self, shards: int, *, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shards = shards
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                token = f"shard:{shard}:vnode:{replica}".encode()
                position = int.from_bytes(
                    hashlib.blake2b(token, digest_size=8).digest(), "big"
                )
                points.append((position, shard))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for(self, key: object) -> int:
        """The shard owning ``key`` (same key → same shard, always)."""
        index = bisect.bisect_right(self._positions, stable_key_digest(key))
        if index == len(self._positions):
            index = 0
        return self._owners[index]


class _RemoteShardError(ServiceError):
    """A structured failure reported by a shard worker, relayed verbatim.

    The worker serialises the original :class:`ServiceError`'s stable fields
    (code, message, status, retry hint); this shim carries them across the
    pipe so the HTTP layer renders exactly what an in-process shard would
    have raised.  ``code``/``http_status`` are instance attributes on
    purpose: they mirror whatever the worker pinned, they are not a new code.
    """

    def __init__(
        self, code: str, message: str, http_status: int, retry_after: float | None
    ) -> None:
        super().__init__(message, retry_after=retry_after)
        self.code = code
        self.http_status = http_status


def _remote_error(payload: dict) -> ServiceError:
    return _RemoteShardError(
        str(payload.get("code", "internal-error")),
        str(payload.get("message", "shard worker error")),
        int(payload.get("http_status", 500)),
        payload.get("retry_after"),
    )


def _send_loop(conn: "Connection", send_queue: "queue.Queue[tuple | None]") -> None:
    """Sender thread: drain one worker's outbox onto its pipe."""
    while True:
        message = send_queue.get()
        if message is None:
            return
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # pragma: no cover - worker died
            return


class ProcessShard(Shard):
    """A shard served by a spawned worker process over a pipe."""

    def __init__(self, config: ShardWorkerConfig) -> None:
        super().__init__(config.shard)
        self.config = config
        self.process: multiprocessing.process.BaseProcess | None = None
        self._send_queue: queue.Queue[tuple | None] | None = None
        #: In-flight /solve futures — the load that admission and /healthz
        #: count.  Control-plane stats/trace queries live in their own map so
        #: observability polling never pushes real traffic over a shed
        #: threshold.
        self.pending: dict[int, asyncio.Future] = {}
        self.control_pending: dict[int, asyncio.Future] = {}
        self.generation = 0
        self._request_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready: asyncio.Future | None = None
        self._live = False
        self._health_task: asyncio.Task | None = None
        self._respawn_tasks: set[asyncio.Task] = set()

    @property
    def in_flight(self) -> int:
        return len(self.pending)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker and wait for its ready handshake.

        A worker that dies or stays silent before the handshake fails the
        start; the caller stops the shard, which reaps the process.
        """
        self._loop = asyncio.get_running_loop()
        self._ready = self._loop.create_future()
        await self._loop.run_in_executor(None, self._spawn)
        try:
            await asyncio.wait_for(asyncio.shield(self._ready), timeout=_STARTUP_TIMEOUT)
        except TimeoutError:
            raise RuntimeError(
                f"shard worker {self.shard} failed the ready handshake within "
                f"{_STARTUP_TIMEOUT:g}s"
            ) from None
        self._live = True
        self._health_task = self._loop.create_task(self._health_loop())

    async def stop(self) -> None:
        self._live = False
        if self._health_task is not None:
            self._health_task.cancel()
            await asyncio.gather(self._health_task, return_exceptions=True)
            self._health_task = None
        # A respawn already past its liveness check finishes spawning, so the
        # stop below sees (and shuts down) the process it started.
        await asyncio.gather(*tuple(self._respawn_tasks), return_exceptions=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._stop_process)
        self._fail_pending(ServiceClosedError("the service shut down before answering"))

    # -- process management (sync; always invoked off-loop) -----------------

    def _spawn(self) -> None:
        """Spawn (or respawn) the worker and its pipe-bridging threads.

        Spawn, not fork: the front runs an event loop and threads, which fork
        would duplicate into a corrupt child.  The child connection is closed
        on the parent side so a worker death surfaces as EOF on the reader.
        """
        previous = self.process
        if previous is not None:
            # Reap the dead generation before replacing it: nobody else joins
            # a crashed worker, and unreaped children pile up as zombies for
            # the life of the front.
            previous.join(timeout=5.0)
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(self.config, child_conn),
            name=f"repro-shard-{self.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.generation += 1
        self.process = process
        self._send_queue = queue.Queue()
        self.state = "starting"
        threading.Thread(
            target=_send_loop,
            args=(parent_conn, self._send_queue),
            name=f"shard-{self.shard}-send",
            daemon=True,
        ).start()
        threading.Thread(
            target=self._read_loop,
            args=(parent_conn, self.generation),
            name=f"shard-{self.shard}-recv",
            daemon=True,
        ).start()

    def _stop_process(self) -> None:
        process = self.process
        if self._send_queue is not None:
            self._send_queue.put(("shutdown",))
        if process is not None:
            process.join(timeout=15.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
        self.state = "stopped"
        if self._send_queue is not None:
            self._send_queue.put(None)

    def _read_loop(self, conn: "Connection", generation: int) -> None:
        """Reader thread: deliver the worker's answers onto the event loop."""
        loop = self._loop
        if loop is None:  # pragma: no cover - spawn before start()
            return
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            try:
                loop.call_soon_threadsafe(self._on_message, generation, message)
            except RuntimeError:  # pragma: no cover - loop already closed
                return
        try:
            loop.call_soon_threadsafe(self._on_down, generation)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- loop-side worker events -------------------------------------------

    def _on_message(self, generation: int, message: object) -> None:
        if generation != self.generation:
            return  # a stale reader thread from before a respawn
        if not isinstance(message, tuple) or not message:
            return
        if message[0] == "ready":
            self.state = "ready"
            if self._ready is not None and not self._ready.done():
                self._ready.set_result(None)
            return
        if len(message) != 3:
            return
        request_id, kind, payload = message
        future = self.pending.pop(request_id, None)
        if future is None:
            future = self.control_pending.pop(request_id, None)
        if future is None or future.done():
            return
        if kind == "error":
            future.set_exception(_remote_error(payload))
        else:
            future.set_result((kind, payload))

    def _on_down(self, generation: int) -> None:
        if generation != self.generation:
            return
        if not self._live:
            # Startup or shutdown: nothing to respawn.  A worker lost before
            # its handshake fails start() now rather than at the timeout.
            if self._ready is not None and not self._ready.done():
                self._ready.set_exception(
                    RuntimeError(f"shard worker {self.shard} exited during startup")
                )
                self._ready.exception()  # retrieved even if start() already gave up
            return
        # Retire the dead generation here, on the loop: the health sweep and
        # the reader thread's EOF can both report the same death, and the
        # _spawn bump happens later in an executor — too late to stop the
        # second report from scheduling a second respawn.
        self.generation += 1
        self.state = "dead"
        self.restarts += 1
        self._fail_pending(
            WorkerCrashedError(
                f"the worker process of shard {self.shard} died mid-request and is "
                "being restarted; the request is safe to retry",
                shard=self.shard,
                retry_after=RESTART_RETRY_AFTER,
            )
        )
        if self._loop is not None:
            task = self._loop.create_task(self._respawn())
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    def _fail_pending(self, error: ServiceError) -> None:
        pending = list(self.pending.values()) + list(self.control_pending.values())
        self.pending.clear()
        self.control_pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(error)
                # Mark retrieved: a waiter that already gave up would
                # otherwise trigger "exception was never retrieved" noise.
                future.exception()

    async def _respawn(self) -> None:
        """Restart a crashed worker under its original shard id.

        The ring is a function of the shard *count*, which never changes, so
        the replacement worker owns exactly the key range its predecessor did
        — restart-and-rehash is the identity rehash, and no other shard's
        cache locality is disturbed.  The replacement reloads the shard's
        cache snapshot on startup when ``cache_dir`` is set.
        """
        if self._loop is None or not self._live:
            return
        await self._loop.run_in_executor(None, self._spawn)

    async def _health_loop(self) -> None:
        """Back up the pipe-EOF crash signal with a periodic liveness sweep."""
        while True:
            await asyncio.sleep(_HEALTH_INTERVAL)
            process = self.process
            if self.state == "ready" and process is not None and not process.is_alive():
                self._on_down(self.generation)

    # -- request path ------------------------------------------------------

    async def submit(
        self,
        model: object,
        policy: SolverPolicy,
        *,
        deadline: float | None,
        trace: TraceBuilder,
        key: CacheKey | None = None,
    ) -> dict:
        # The key is not sent: pickling it costs what the worker's own
        # computation of it does.
        if self._send_queue is None:  # pragma: no cover - defensive
            raise ServiceClosedError("the shard worker is not running")
        request_id = next(self._request_ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        sent_at = time.perf_counter()
        self._send_queue.put(("solve", request_id, model, policy, deadline, trace.trace_id))
        _kind, payload = await future
        answer = dict(payload)
        # The worker's spans are offsets from *its* trace start; perf_counter
        # is not comparable across processes, so re-base them by the front's
        # pipe-send instant — exact durations, offsets off by one pipe hop.
        worker_trace = answer.pop("trace", None)
        if isinstance(worker_trace, dict) and isinstance(worker_trace.get("spans"), list):
            shift_ms = trace.offset_ms(sent_at)
            for span_payload in worker_trace["spans"]:
                if isinstance(span_payload, dict):
                    trace.add_span(Span.from_dict(span_payload), shift_ms=shift_ms)
        return answer

    async def _query(self, kind: str, *args: object, timeout: float = 5.0) -> dict | None:
        """Ask the worker a control-plane question (``stats``/``trace``/
        ``traces``); ``None`` when the worker is unavailable."""
        if self.state != "ready" or self._send_queue is None:
            return None
        request_id = next(self._request_ids)
        future = asyncio.get_running_loop().create_future()
        self.control_pending[request_id] = future
        self._send_queue.put((kind, request_id, *args))
        try:
            _kind, payload = await asyncio.wait_for(asyncio.shield(future), timeout)
        except (TimeoutError, ServiceError):
            self.control_pending.pop(request_id, None)
            return None
        return dict(payload) if isinstance(payload, dict) else None

    async def stats(self) -> dict | None:
        return await self._query("stats")

    async def find_trace(self, trace_id: str) -> dict | None:
        reply = await self._query("trace", trace_id)
        found = reply.get("trace") if reply is not None else None
        return found if isinstance(found, dict) else None

    async def list_traces(self, *, slow: bool, limit: int) -> list[dict]:
        reply = await self._query("traces", {"slow": slow, "limit": limit})
        listed = reply.get("traces") if reply is not None else None
        if not isinstance(listed, list):
            return []
        return [entry for entry in listed if isinstance(entry, dict)]
