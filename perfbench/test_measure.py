"""Tests of the benchmark's own helpers (stdlib only; no service, no numpy)."""

from __future__ import annotations

import asyncio
import json
import math
import os

import pytest

import measure
import run
import serving

HERE = os.path.dirname(os.path.abspath(__file__))


def test_percentile_is_exact_nearest_rank() -> None:
    values = [float(v) for v in range(100, 0, -1)]
    assert measure.percentile(values, 50) == 50.0
    assert measure.percentile(values, 99) == 99.0
    assert measure.percentile(values, 100) == 100.0
    assert measure.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_failed_requests_count_as_infinite_latency() -> None:
    values = [1.0] * 98 + [math.inf, math.inf]
    assert measure.percentile(values, 98) == 1.0
    assert measure.percentile(values, 99) == math.inf
    assert measure.latency_from_schedule(1.0, None) == math.inf
    assert measure.latency_from_schedule(1.0, 1.25) == 0.25


def test_p99_needs_ten_samples_beyond_it() -> None:
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.supports(1000, 99)
    assert not measure.supports(999, 99)
    assert measure.min_samples_for(99) == 1000
    assert measure.min_samples_for(50) == 20


def test_quartile_spread_matches_statistics_quantiles() -> None:
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert measure.quartile_spread(values) == pytest.approx((13.5 - 10.5) / 12.0)


def test_self_time_subtracts_merged_children_clipped_to_parent() -> None:
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},  # overlaps span 1
        {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # runs past its parent
        {"id": 4, "parent": 2, "start": 2.5, "end": 3.5},
    ]
    own = measure.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[1] == pytest.approx(2.0)


def test_tracer_wraps_where_the_caller_looks_up_and_restores() -> None:
    class Namespace:
        @staticmethod
        def inner(x: int) -> int:
            return x + 1

        @staticmethod
        def outer(x: int) -> int:
            return Namespace.inner(x) * 2

    original = Namespace.inner
    tracer = measure.Tracer("test")
    tracer.wrap(Namespace, "inner", "inner", annotate=lambda record, result: record.update(out=result))
    tracer.wrap(Namespace, "outer", "outer", task=True)
    assert Namespace.outer(1) == 4
    tracer.restore()
    assert Namespace.inner is original
    outer, inner = sorted(tracer.spans, key=lambda span: span["name"], reverse=True)
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["out"] == 2 and outer["task"] is True
    summary = tracer.summary()
    assert summary["outer"]["count"] == 1
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


EXPOSITION = """\
# HELP repro_queue_wait_seconds Queue wait.
# TYPE repro_queue_wait_seconds histogram
repro_queue_wait_seconds_bucket{shard="0",le="0.001"} 5
repro_queue_wait_seconds_bucket{shard="0",le="0.01"} 9
repro_queue_wait_seconds_bucket{shard="0",le="+Inf"} 10
repro_queue_wait_seconds_sum{shard="0"} 0.05
repro_queue_wait_seconds_count{shard="0"} 10
repro_queue_wait_seconds_bucket{shard="1",le="0.001"} 0
repro_queue_wait_seconds_bucket{shard="1",le="0.01"} 10
repro_queue_wait_seconds_bucket{shard="1",le="+Inf"} 10
repro_solver_attempts_total{outcome="ok",solver="spectral"} 7
repro_solver_attempts_total{outcome="failed",solver="spectral"} 1
repro_shed_total 3
"""


def test_parse_histogram_exposition_and_bucketed_quantiles() -> None:
    families = measure.parse_exposition(EXPOSITION)
    assert measure.metric_total(families, "repro_solver_attempts_total") == 8
    assert measure.metric_total(families, "repro_solver_attempts_total", outcome="ok") == 7
    assert measure.metric_total(families, "repro_shed_total") == 3
    buckets = measure.histogram_buckets(families, "repro_queue_wait_seconds")
    assert buckets == [(0.001, 5.0), (0.01, 19.0), (math.inf, 20.0)]
    assert measure.bucket_quantile(buckets, 0.25) == 0.001
    assert measure.bucket_quantile(buckets, 0.5) == 0.01
    assert measure.bucket_quantile(buckets, 0.99) == math.inf
    earlier = [(0.001, 5.0), (0.01, 9.0), (math.inf, 10.0)]
    window = measure.bucket_delta(buckets, earlier)
    assert window == [(0.001, 0.0), (0.01, 10.0), (math.inf, 10.0)]
    assert math.isnan(measure.bucket_quantile([(0.1, 0.0)], 0.5))
    counts = measure.registry_metrics({}, families)
    assert counts["solvers.attempts.spectral.ok"] == 7
    assert counts["solvers.fallbacks"] == 1
    with pytest.raises(ValueError):
        measure.parse_exposition("not a sample line {")


def test_import_time_parsing() -> None:
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        300 |     scipy.stats._x\n"
        "import time:       500 |     784000 |   scipy.stats\n"
        "import time:      2000 |    1386800 | repro\n"
    )
    assert measure.import_cumulative_s(stderr, "scipy.stats") == pytest.approx(0.784)
    assert measure.import_cumulative_s(stderr, "repro") == pytest.approx(1.3868)
    with pytest.raises(ValueError):
        measure.import_cumulative_s(stderr, "numpy")


def _plans(seed: int) -> tuple[list, list]:
    taken: set[str] = set()
    warmup = serving.plan_requests(seed, 80, "warmup", taken)
    return warmup, serving.plan_requests(seed, 1000, "window", taken)


def test_request_plan_is_seeded_mixed_and_disjoint() -> None:
    warmup, window = _plans(5)
    assert (warmup, window) == _plans(5)
    kinds = [kind for kind, _ in window]
    assert (kinds.count("cold"), kinds.count("hot"), kinds.count("scenario")) == (500, 400, 100)
    distinct = [json.dumps(body, sort_keys=True) for kind, body in warmup + window if kind != "hot"]
    assert len(distinct) == len(set(distinct))
    hot = {json.dumps(body, sort_keys=True) for kind, body in warmup + window if kind == "hot"}
    assert len(hot) == len(serving.HOT_MODELS)
    assert _plans(6)[1] != window


async def _stalling_server(stall: float) -> tuple[asyncio.base_events.Server, int]:
    """A keep-alive HTTP stub whose first answer stalls for ``stall`` seconds."""
    answered = 0

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        nonlocal answered
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:  # the client closed the connection
                break
            length = int(head.decode().lower().split("content-length:")[1].split("\r\n")[0])
            await reader.readexactly(length)
            if answered == 0:
                await asyncio.sleep(stall)
            answered += 1
            body = b'{"status": "ok"}'
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
            await writer.drain()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_latency_is_timed_from_the_scheduled_send() -> None:
    async def scenario() -> list[serving.Sample]:
        server, port = await _stalling_server(0.3)
        try:
            plan = [("hot", {"n": index}) for index in range(3)]
            return await serving.drive(port, plan, rate=20.0, connections=1)
        finally:
            server.close()

    samples = asyncio.run(scenario())
    first, second, third = samples
    assert first.latency >= 0.3
    # The second request was due 50 ms after the first but could only leave
    # once the stall ended: its latency includes the wait, not just its own
    # round trip.
    assert second.sent - second.scheduled >= 0.2
    assert second.latency >= 0.2
    assert second.latency > (second.completed - second.sent) + 0.2
    assert third.scheduled - first.scheduled == pytest.approx(0.1)
    assert all(sample.fired - sample.scheduled < 0.1 for sample in samples)


def test_benchmark_json_lists_exactly_the_metrics_run_py_prints() -> None:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    declared = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    assert benchmark["run_seconds"] * run.SERVE_RATE >= measure.min_samples_for(99)
