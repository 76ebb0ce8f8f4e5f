"""SLO tracking: rolling latency percentiles, error budgets, shed pressure.

The serving tier's admission control used to look at queue *depth* alone —
a lagging, capacity-shaped proxy for what clients actually feel.  This
module closes the loop: an :class:`SloTracker` ingests the same queue-wait
and solve-latency observations the live histograms record, maintains a
**rolling** view over a short wall-clock window (cumulative histograms never
forget, so a morning spike would poison the evening's p99), and reduces the
current state to a single *pressure* number in ``[0, ∞)``:

    ``pressure = max over objectives of (rolling p99 / target)``

``shed_decision`` treats pressure exactly like queue occupancy: at pressure
0.7 the cheapest tier sheds, at 1.0 everything does.  The service therefore
sheds on *measured latency*, not just depth — a slow backend trips the same
tiered response as a full queue.

The rolling window is a ring of periodic histogram snapshots.  Every
``tick_seconds`` the current cumulative counts are pushed; the rolling view
is the bucket-wise difference between *now* and the oldest retained
snapshot, which is again a valid histogram (the same exact-merge algebra
:mod:`repro.obs.metrics` relies on, run backwards).  Percentiles interpolate
within buckets exactly as :meth:`Histogram.percentile` does.

Error budgets are exact, not bucket-approximated: violations are counted at
observation time against the target, and surface as the monotone
``repro_slo_error_budget_total{slo=...}`` counter.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry

#: Default SLO targets, deliberately generous: CI's sustained-load gate runs
#: a saturated 4-shard service at p99 ≈ 0.2–0.5 s with zero shedding, and the
#: defaults must not turn that healthy baseline into a shed storm.  Operators
#: tighten them per deployment via ``--slo-queue-wait``/``--slo-solve-latency``.
DEFAULT_QUEUE_WAIT_TARGET_SECONDS = 2.0
DEFAULT_SOLVE_LATENCY_TARGET_SECONDS = 30.0


@dataclass(frozen=True)
class SloTargets:
    """The latency objectives admission control defends.

    A non-positive target disables that objective (it contributes neither
    pressure nor budget burn).
    """

    queue_wait_p99_seconds: float = DEFAULT_QUEUE_WAIT_TARGET_SECONDS
    solve_latency_p99_seconds: float = DEFAULT_SOLVE_LATENCY_TARGET_SECONDS


class _RollingHistogram:
    """A cumulative histogram plus a ring of periodic snapshots.

    ``observe`` feeds the cumulative histogram; ``rolling`` returns the
    difference between the current counts and the oldest snapshot within the
    window — i.e. a histogram of (approximately) the last
    ``window_seconds`` of observations.  Snapshot rotation happens lazily on
    access, so an idle tracker costs nothing.  :meth:`p99` is cached until
    an observation arrives or the window rotates, so admission reads it for
    free between those events.
    """

    __slots__ = (
        "_histogram",
        "_lock",
        "_snapshots",
        "_tick_seconds",
        "_last_tick",
        "_depth",
        "_rotations",
        "_p99",
    )

    def __init__(self, *, window_seconds: float, tick_seconds: float) -> None:
        self._histogram = Histogram(DEFAULT_LATENCY_BUCKETS)
        self._lock = threading.Lock()
        self._tick_seconds = max(0.05, float(tick_seconds))
        self._depth = max(1, round(float(window_seconds) / self._tick_seconds))
        self._snapshots: deque[Histogram] = deque(maxlen=self._depth + 1)
        self._last_tick = time.monotonic()
        self._rotations = 0
        # ((observation count, rotations) it was computed at, the p99).
        self._p99: tuple[tuple[int, int], float] | None = None

    def observe(self, seconds: float) -> None:
        self._histogram.observe(seconds)

    def _maybe_rotate(self, now: float) -> None:
        if now - self._last_tick < self._tick_seconds:
            return
        with self._lock:
            while now - self._last_tick >= self._tick_seconds:
                self._snapshots.append(self._histogram.snapshot())
                self._rotations += 1
                self._last_tick += self._tick_seconds
                if now - self._last_tick > self._depth * self._tick_seconds:
                    # Idle gap longer than the window: fast-forward instead of
                    # appending one stale snapshot per missed tick.
                    self._last_tick = now

    def rolling(self) -> Histogram:
        """The windowed histogram: observations since the window's start."""
        self._maybe_rotate(time.monotonic())
        current = self._histogram.snapshot()
        with self._lock:
            base = self._snapshots[0] if self._snapshots else None
        if base is None:
            return current
        delta = Histogram(current.bounds)
        delta.counts = [
            max(0, now_count - then_count)
            for now_count, then_count in zip(current.counts, base.counts)
        ]
        delta.total = max(0.0, current.total - base.total)
        delta.count = max(0, current.count - base.count)
        return delta

    def p99(self) -> float:
        """The windowed p99, recomputed only when its inputs changed."""
        self._maybe_rotate(time.monotonic())
        # Read before computing: an observation landing meanwhile leaves the
        # cache stale, so the next call recomputes — never the reverse.
        stamp = (self._histogram.count, self._rotations)
        cached = self._p99
        if cached is not None and cached[0] == stamp:
            return cached[1]
        value = self.rolling().percentile(0.99)
        self._p99 = (stamp, value)
        return value

    @property
    def cumulative(self) -> Histogram:
        return self._histogram


class SloTracker:
    """Rolling p99 tracking and latency-pressure computation for admission.

    Feed it every request's queue wait and end-to-end latency (seconds);
    read back:

    * :meth:`queue_wait_p99` / :meth:`solve_latency_p99` — rolling p99 over
      the configured window;
    * :meth:`pressure` — ``max(p99 / target)`` across enabled objectives,
      the number :func:`~repro.service.scheduler.shed_decision` compares
      against the shed tiers' thresholds;
    * :meth:`error_budget` — exact counts of target violations so far;
    * :meth:`export_into` — the ``repro_slo_*`` gauge/counter families for
      ``/metrics``.

    Thread-safe; both the asyncio serving loop and the sharded front's pipe
    reader threads may observe concurrently.
    """

    def __init__(
        self,
        targets: SloTargets | None = None,
        *,
        window_seconds: float = 30.0,
        tick_seconds: float = 1.0,
    ) -> None:
        self.targets = targets if targets is not None else SloTargets()
        self._queue_wait = _RollingHistogram(
            window_seconds=window_seconds, tick_seconds=tick_seconds
        )
        self._solve_latency = _RollingHistogram(
            window_seconds=window_seconds, tick_seconds=tick_seconds
        )
        self._budget_lock = threading.Lock()
        self._budget = {"queue-wait": 0, "solve-latency": 0}

    @property
    def enabled(self) -> bool:
        """Whether any objective is active (a disabled tracker is inert)."""
        return (
            self.targets.queue_wait_p99_seconds > 0
            or self.targets.solve_latency_p99_seconds > 0
        )

    # -- feeding -----------------------------------------------------------

    def observe_queue_wait(self, seconds: float) -> None:
        self._queue_wait.observe(seconds)
        target = self.targets.queue_wait_p99_seconds
        if target > 0 and seconds > target:
            with self._budget_lock:
                self._budget["queue-wait"] += 1

    def observe_solve_latency(self, seconds: float) -> None:
        self._solve_latency.observe(seconds)
        target = self.targets.solve_latency_p99_seconds
        if target > 0 and seconds > target:
            with self._budget_lock:
                self._budget["solve-latency"] += 1

    # -- reading -----------------------------------------------------------

    def queue_wait_p99(self) -> float:
        return self._queue_wait.p99()

    def solve_latency_p99(self) -> float:
        return self._solve_latency.p99()

    def pressure(self) -> float:
        """``max(rolling p99 / target)`` over the enabled objectives.

        0.0 when disabled or before any observations; values at or above the
        shed thresholds (0.7/0.85/1.0 by default) engage tiered shedding even
        while queue depth sits below its own thresholds.
        """
        pressure = 0.0
        if self.targets.queue_wait_p99_seconds > 0:
            pressure = max(
                pressure, self.queue_wait_p99() / self.targets.queue_wait_p99_seconds
            )
        if self.targets.solve_latency_p99_seconds > 0:
            pressure = max(
                pressure,
                self.solve_latency_p99() / self.targets.solve_latency_p99_seconds,
            )
        return pressure

    def error_budget(self) -> dict[str, int]:
        """Exact violation counts per objective since the tracker started."""
        with self._budget_lock:
            return dict(self._budget)

    def snapshot(self) -> dict[str, object]:
        """A JSON-safe summary (served under ``/stats``)."""
        return {
            "queue_wait_p99_seconds": round(self.queue_wait_p99(), 6),
            "solve_latency_p99_seconds": round(self.solve_latency_p99(), 6),
            "queue_wait_target_seconds": self.targets.queue_wait_p99_seconds,
            "solve_latency_target_seconds": self.targets.solve_latency_p99_seconds,
            "pressure": round(self.pressure(), 6),
            "error_budget": self.error_budget(),
        }

    # -- exposition --------------------------------------------------------

    def export_into(self, registry: MetricsRegistry) -> None:
        """Write the ``repro_slo_*`` families into a ``/metrics`` registry."""
        registry.gauge(
            "repro_slo_queue_wait_p99_seconds",
            "Rolling p99 queue wait over the SLO window",
        ).set(self.queue_wait_p99())
        registry.gauge(
            "repro_slo_solve_latency_p99_seconds",
            "Rolling p99 end-to-end solve latency over the SLO window",
        ).set(self.solve_latency_p99())
        registry.gauge(
            "repro_slo_queue_wait_target_seconds", "Queue-wait p99 target (0 = disabled)"
        ).set(self.targets.queue_wait_p99_seconds)
        registry.gauge(
            "repro_slo_solve_latency_target_seconds",
            "Solve-latency p99 target (0 = disabled)",
        ).set(self.targets.solve_latency_p99_seconds)
        registry.gauge(
            "repro_slo_pressure",
            "max(rolling p99 / target); sheds engage at the tier thresholds",
        ).set(self.pressure())
        budget = self.error_budget()
        for objective in sorted(budget):
            registry.counter(
                "repro_slo_error_budget_total",
                "Observations that violated their SLO target",
                labels={"slo": objective},
            ).inc(budget[objective])
