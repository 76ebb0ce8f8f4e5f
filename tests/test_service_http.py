"""Integration tests of the running solver service, over real sockets.

A :class:`ThreadedService` on an ephemeral port backs each test; the
synchronous and asyncio clients drive it exactly as external consumers
would.  The headline acceptance criteria live here: all three query kinds
answered concurrently, 100 concurrent identical requests producing exactly
one underlying solve (pinned by the ``/stats`` coalesced counter), and the
queue-full/deadline paths returning structured errors.

The shared ``service``/``client`` fixtures serve from one in-process shard;
the ``...OverWorkerProcesses`` subclasses re-run every test of their suite
against two worker-process shards — one HTTP surface, both shard kinds.
Their service is class-scoped because spawning the workers is the slow part,
so those suites assert counter deltas, never absolute counts.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro._blas import blas_record
from repro.service import (
    AsyncServiceClient,
    ServiceCallError,
    ServiceClient,
    ServiceConfig,
    ThreadedService,
)


def _running_service(workers: int) -> ThreadedService:
    return ThreadedService(ServiceConfig(port=0, batch_window=0.005, workers=workers))


@pytest.fixture
def service():
    with _running_service(workers=1) as running:
        yield running


@pytest.fixture(scope="class")
def two_worker_service():
    with _running_service(workers=2) as running:
        yield running


@pytest.fixture
def client(service):
    with ServiceClient(service.host, service.port, timeout=120.0) as sync_client:
        yield sync_client


class TestEndpoints:
    def test_steady_state_query(self, client):
        payload = client.solve_ok({"model": {"servers": 4, "arrival_rate": 2.0}})
        assert payload["query"] == "steady-state"
        assert payload["solver"] == "spectral"
        assert payload["stable"] is True
        assert payload["metrics"]["mean_queue_length"] > 0
        assert payload["metrics"]["mean_response_time"] > 0

    def test_scenario_query(self, client):
        payload = client.solve_ok({"query": "scenario", "preset": "single-repairman"})
        assert payload["solver"] == "ctmc"
        assert "utilisation" in payload["metrics"]

    def test_transient_query(self, client):
        payload = client.solve_ok(
            {
                "query": "transient",
                "model": {"servers": 3, "arrival_rate": 1.5},
                "times": [1.0, 5.0, 20.0],
            }
        )
        assert payload["solver"] == "transient"
        assert payload["metrics"]["evaluation_time"] == 20.0
        assert 0.0 <= payload["metrics"]["availability"] <= 1.0

    def test_repeat_query_is_served_from_cache(self, client):
        request = {"model": {"servers": 5, "arrival_rate": 3.0}}
        first = client.solve_ok(request)
        second = client.solve_ok(request)
        assert not first["cached"]
        assert second["cached"]
        assert second["metrics"] == first["metrics"]

    def test_healthz(self, client):
        response = client.healthz()
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["uptime_seconds"] >= 0
        assert "queue_depth" in response.payload

    def test_healthz_and_stats_report_each_process_blas_setting(self, client):
        """The front reports its own BLAS setting on /healthz; each shard's
        comes from the process that solves, through /stats."""
        expected = blas_record()
        assert set(expected) == {"numpy", "scipy"}
        for entry in expected.values():
            if entry["source"] == "policy":
                assert entry["threads"] == 1
        assert client.healthz().payload["blas"] == expected
        shards = client.stats().payload["shards"]
        assert [shard["blas"] for shard in shards] == [expected] * len(shards)

    def test_stats_exposes_scheduler_and_cache_counters(self, client):
        answer = client.solve_ok({"model": {"servers": 4, "arrival_rate": 2.0}})
        payload = client.stats().payload
        scheduler = payload["shards"][answer["shard"]]["scheduler"]
        assert scheduler["requests_total"] >= 1
        assert scheduler["batches_total"] >= 1
        cache = scheduler["cache"]
        for key in ("hits", "misses", "hit_rate", "size", "maxsize", "solves", "evictions"):
            assert key in cache
        assert cache["solves"] >= 1

    def test_all_three_query_kinds_concurrently(self, service):
        """One service instance answers heterogeneous queries side by side."""
        queries = [
            {"model": {"servers": 4, "arrival_rate": 2.0}},
            {"query": "scenario", "preset": "single-repairman"},
            {
                "query": "transient",
                "model": {"servers": 3, "arrival_rate": 1.5},
                "times": [2.0, 10.0],
            },
        ]

        async def run():
            async_client = AsyncServiceClient(service.host, service.port, timeout=120.0)
            return await asyncio.gather(*(async_client.solve(query) for query in queries))

        responses = asyncio.run(run())
        assert [response.status for response in responses] == [200, 200, 200]
        assert [response.payload["solver"] for response in responses] == [
            "spectral",
            "ctmc",
            "transient",
        ]


class TestEndpointsOverWorkerProcesses(TestEndpoints):
    @pytest.fixture
    def service(self, two_worker_service):
        return two_worker_service


class TestSingleFlight:
    def test_100_identical_requests_produce_exactly_one_solve(self):
        # A generous batch window guarantees every request lands while the
        # computation is queued or in flight, whatever the CI machine's pace.
        config = ServiceConfig(port=0, batch_window=0.5)
        with ThreadedService(config) as service:
            request = {"model": {"servers": 6, "arrival_rate": 4.0}, "solvers": ["ctmc"]}

            async def run():
                async_client = AsyncServiceClient(service.host, service.port, timeout=120.0)
                return await asyncio.gather(*(async_client.solve(request) for _ in range(100)))

            responses = asyncio.run(run())
            assert all(response.ok for response in responses)
            metrics = {
                json.dumps(response.payload["metrics"], sort_keys=True)
                for response in responses
            }
            assert len(metrics) == 1  # everyone got the same answer

            with ServiceClient(service.host, service.port) as sync_client:
                scheduler = sync_client.stats().payload["shards"][0]["scheduler"]
            # The acceptance pin: one scheduled computation, one real solve,
            # and the coalesced counter accounts for every other request.
            assert scheduler["scheduled_total"] == 1
            assert scheduler["cache"]["solves"] == 1
            assert scheduler["coalesced_total"] == 99
            assert sum(response.payload["coalesced"] for response in responses) == 99


class TestStructuredErrors:
    def test_malformed_json(self, client):
        response = client.raw("POST", "/solve", b"{not json")
        assert response.status == 400
        assert response.error_code == "bad-json"

    def test_empty_body(self, client):
        response = client.raw("POST", "/solve", b"")
        assert response.status == 400
        assert response.error_code == "bad-request"

    def test_unknown_solver(self, client):
        response = client.solve({"model": {"servers": 2, "arrival_rate": 1.0}, "solvers": ["zap"]})
        assert response.status == 400
        assert response.error_code == "unknown-solver"

    def test_unknown_preset(self, client):
        response = client.solve({"query": "scenario", "preset": "nope"})
        assert response.status == 400
        assert response.error_code == "unknown-preset"

    def test_unstable_model(self, client):
        response = client.solve({"model": {"servers": 2, "arrival_rate": 50.0}})
        assert response.status == 422
        assert response.error_code == "unstable-model"

    def test_deadline_exceeded(self, client):
        response = client.solve(
            {
                "model": {"servers": 5, "arrival_rate": 3.0},
                "solvers": ["simulate"],
                "simulate": {"horizon": 30000.0},
                "deadline": 0.01,
            }
        )
        assert response.status == 504
        assert response.error_code == "deadline-exceeded"

    def test_queue_full(self):
        # max_queue=1 and a long window: the first distinct request occupies
        # the queue for the whole window, so the second is rejected.
        config = ServiceConfig(port=0, batch_window=1.0, max_queue=1)
        with ThreadedService(config) as service:
            requests = [
                {"model": {"servers": 3, "arrival_rate": 0.5 + 0.25 * index}}
                for index in range(3)
            ]

            async def run():
                async_client = AsyncServiceClient(service.host, service.port, timeout=120.0)
                return await asyncio.gather(
                    *(async_client.solve(request) for request in requests)
                )

            responses = asyncio.run(run())
            rejected = [r for r in responses if r.status == 429]
            assert len(rejected) == 2
            for response in rejected:
                assert response.error_code == "queue-full"
                assert float(response.headers["retry-after"]) > 0
                assert response.payload["error"]["retry_after"] > 0
            assert sum(1 for r in responses if r.ok) == 1

    def test_not_found(self, client):
        response = client.raw("GET", "/nope")
        assert response.status == 404
        assert response.error_code == "not-found"

    def test_method_not_allowed(self, client):
        response = client.raw("GET", "/solve")
        assert response.status == 405
        assert response.error_code == "method-not-allowed"
        response = client.raw("POST", "/stats")
        assert response.status == 405

    def test_payload_too_large(self):
        config = ServiceConfig(port=0, max_body_bytes=4096)
        with ThreadedService(config) as service:
            with ServiceClient(service.host, service.port) as sync_client:
                response = sync_client.raw("POST", "/solve", b"x" * 8192)
        assert response.status == 413
        assert response.error_code == "payload-too-large"

    def test_oversized_header_line_drops_the_connection_quietly(self, service):
        """A >64 KiB header line must not traceback-spam the server log."""
        import socket

        with socket.create_connection((service.host, service.port), timeout=10.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 80_000 + b"\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        assert b"".join(chunks) == b""  # dropped, no half-written response
        # The service survived and still answers on fresh connections.
        with ServiceClient(service.host, service.port) as sync_client:
            assert sync_client.healthz().status == 200

    def test_errors_are_counted_by_code(self, client):
        before = client.stats().payload
        client.solve({"model": {"servers": 2, "arrival_rate": 50.0}})
        client.raw("POST", "/solve", b"{not json")
        payload = client.stats().payload

        def counted(code):
            return payload["errors_by_code"][code] - before["errors_by_code"].get(code, 0)

        assert counted("unstable-model") == 1
        assert counted("bad-json") == 1
        assert payload["errors_total"] - before["errors_total"] >= 2

    def test_solve_ok_raises_a_typed_error(self, client):
        with pytest.raises(ServiceCallError, match=r"\[unstable-model\]"):
            client.solve_ok({"model": {"servers": 2, "arrival_rate": 50.0}})


class TestStructuredErrorsOverWorkerProcesses(TestStructuredErrors):
    @pytest.fixture
    def service(self, two_worker_service):
        return two_worker_service
