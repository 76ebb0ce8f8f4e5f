"""Pure measurement helpers shared by the benchmark's workloads.

Nothing here imports the program under test, so the load generator and the
orchestrator stay out of the measured processes' way, and the helpers can be
unit-tested without numpy or a running service.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import statistics
import time
from collections.abc import Callable, Iterable, Iterator, Sequence

#: A percentile is reported as supported only when at least this many
#: samples lie strictly beyond it.
MIN_BEYOND = 10

#: Registered solver backends and the outcomes their attempts are counted by.
SOLVERS = ("spectral", "geometric", "ctmc", "simulate", "transient")
OUTCOMES = ("ok", "failed", "unsupported")


# -- percentiles ---------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank ``q``-th percentile (``0 < q <= 100``).

    ``+inf`` entries (refused or failed requests) sort last, so they count
    against the tail exactly as a miss should.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count - 1e-9))


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples support the ``q``-th percentile (>= 10 beyond)."""
    return samples_beyond(count, q) >= MIN_BEYOND


def min_samples_for(q: float) -> int:
    """The smallest sample count whose ``q``-th percentile has >= 10 samples beyond."""
    count = 1
    while not supports(count, q):
        count += 1
    return count


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# -- open-loop timing ----------------------------------------------------


def schedule(start: float, rate: float, count: int) -> list[float]:
    """Send instants of an evenly spaced open-loop schedule."""
    return [start + index / rate for index in range(count)]


def latency_from_schedule(scheduled: float, completed: float | None) -> float:
    """Latency of one request timed from when it was *due*, not when it left.

    A request that never completed successfully counts as ``+inf``, so it
    misses every latency limit.
    """
    if completed is None:
        return math.inf
    return completed - scheduled


# -- spans ----------------------------------------------------------------


def self_times(spans: Iterable[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Each span is a mapping with ``id``, ``parent`` (``None`` at the root),
    ``start`` and ``end``.  Overlapping children are merged first, and a
    child's interval is clipped to its parent, so no time is subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result: dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], [])):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


class Tracer:
    """In-memory span recorder wrapped around a program's public functions.

    Spans keep name, start, end, parent and run id; nothing is written until
    :meth:`write`.  :meth:`wrap` replaces an attribute on the object the
    *caller* looks it up on, so the program runs unmodified.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **annotations: object) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": math.nan,
            **annotations,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        annotate: Callable[[dict, object], object] | None = None,
        **annotations: object,
    ) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``annotate(record, result)`` runs inside the span, so it may also
        finish lazy work the caller would otherwise do right after the call.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args: object, **kwargs: object) -> object:
            with tracer.span(name, **annotations) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(record, result)
                return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        own = self_times(self.spans)
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span["end"] - span["start"]
            row["self_s"] += own[span["id"]]
        return table

    def durations(self, name: str) -> list[float]:
        return [span["end"] - span["start"] for span in self.spans if span["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- Prometheus text exposition -------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse Prometheus text exposition 0.0.4 into ``name -> [(labels, value)]``."""
    families: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        name, label_text, value_text = match.groups()
        labels = dict(_LABEL.findall(label_text or ""))
        families.setdefault(name, []).append((labels, float(value_text)))
    return families


def metric_total(families: dict, name: str, **match: str) -> float:
    """Sum of every series of ``name`` whose labels include ``match``."""
    return sum(
        value
        for labels, value in families.get(name, [])
        if all(labels.get(key) == wanted for key, wanted in match.items())
    )


def histogram_buckets(families: dict, name: str) -> list[tuple[float, float]]:
    """Cumulative ``(le, count)`` buckets of histogram ``name``, summed over series."""
    merged: dict[float, float] = {}
    for labels, value in families.get(name + "_bucket", []):
        bound = float(labels["le"])
        merged[bound] = merged.get(bound, 0.0) + value
    return sorted(merged.items())


def bucket_delta(
    after: list[tuple[float, float]], before: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Buckets observed between two scrapes of the same histogram."""
    earlier = dict(before)
    return [(bound, count - earlier.get(bound, 0.0)) for bound, count in after]


def bucket_quantile(buckets: list[tuple[float, float]], q: float) -> float:
    """Upper bound of the bucket holding the ``q``-quantile (``0 < q <= 1``).

    Bucketed, so it overstates by up to one bucket width; ``nan`` when empty.
    """
    if not buckets or buckets[-1][1] <= 0:
        return math.nan
    target = q * buckets[-1][1]
    for bound, count in buckets:
        if count >= target - 1e-9:
            return bound
    return buckets[-1][0]


def registry_metrics(before: dict, after: dict) -> dict[str, float]:
    """Solver and sparse-kernel counts between two parsed scrapes.

    The program keeps them in its numerical-health registry, which both the
    service's ``/metrics`` and an in-process ``numerics_registry().render()``
    expose in the same text format.
    """

    def delta(name: str, **labels: str) -> float:
        return metric_total(after, name, **labels) - metric_total(before, name, **labels)

    metrics = {
        f"solvers.attempts.{solver}.{outcome}": delta(
            "repro_solver_attempts_total", solver=solver, outcome=outcome
        )
        for solver in SOLVERS
        for outcome in OUTCOMES
    }
    metrics["solvers.fallbacks"] = sum(v for k, v in metrics.items() if not k.endswith(".ok"))
    metrics["solvers.warm_start_hits"] = delta("repro_solver_warm_start_hits_total")
    metrics["kernels.direct_solves"] = delta("repro_steady_state_solves_total", path="direct")
    metrics["kernels.iad_solves"] = delta("repro_steady_state_solves_total", path="iad")
    metrics["kernels.iad_sweeps"] = delta("repro_iad_sweeps_sum")
    metrics["kernels.warm_starts"] = delta("repro_iad_warm_starts_total")
    return metrics


# -- -X importtime ---------------------------------------------------------


def import_cumulative_s(stderr: str, module: str) -> float:
    """Cumulative seconds of ``module``'s first import in ``-X importtime`` output."""
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [part.strip() for part in line[len("import time:") :].split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    raise ValueError(f"module {module!r} not in the -X importtime output")
