"""Load generators for the :mod:`repro.service` solver service.

Two modes share this script:

Closed loop (the default)
    Each benchmark drives a running service with ``concurrency`` synchronous
    keep-alive clients in a closed loop (every worker sends its next request
    the moment the previous answer lands) until ``total`` requests complete,
    then reports throughput and the p50/p99 latency percentiles.  The shared
    :mod:`_harness` records the wall-clock of each workload in
    ``BENCH_service.json`` and gates it against the committed
    ``BENCH_service_baseline.json`` — a >2x slowdown of the serving path
    (a lost cache, a scheduling regression, an accept-loop stall) fails CI.

``--sustained``
    An *open-loop* arrival schedule: requests are launched at a fixed target
    RPS for a fixed wall-clock window regardless of how fast answers come
    back, which is how real traffic behaves.  Latency is measured from each
    request's **scheduled** arrival time, so a stalled service cannot hide
    behind coordinated omission — the backlog shows up in p99.  429 answers
    (``load-shed``/``queue-full``) count toward the shed rate rather than
    latency: shedding under overload is the designed behaviour, and the gate
    bounds *how much* of it happens.  Results go to
    ``BENCH_service_sustained.json`` and are gated against the committed
    ``BENCH_service_sustained_baseline.json`` on achieved throughput, p99
    and shed rate.

Usage::

    # self-hosted: spin a ThreadedService per workload and measure it
    python benchmarks/service_bench.py --quick

    # CI smoke: aim the load at an already-running `repro serve` instance
    python benchmarks/service_bench.py --quick --url http://127.0.0.1:8765 \
        --output BENCH_service.json --check benchmarks/BENCH_service_baseline.json

    # sustained-load SLO run against a sharded `repro serve --workers 4`
    python benchmarks/service_bench.py --sustained --quick \
        --url http://127.0.0.1:8765 --output BENCH_service_sustained.json \
        --check benchmarks/BENCH_service_sustained_baseline.json

    # refresh a committed baseline after an intentional perf change
    python benchmarks/service_bench.py --quick \
        --update-baseline benchmarks/BENCH_service_baseline.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path
from urllib.parse import urlparse

from _harness import (
    BASELINE_PADDING,
    bench_main,
    child_peak_rss_mb,
    peak_rss_mb,
    run_environment,
)

#: Closed-loop concurrency levels tracked by CI.
CONCURRENCY_LEVELS = (1, 8, 32)

#: Sustained-mode shed-rate floor: below this the gate never fires (a handful
#: of sheds in a short quick-mode window is noise, not a regression).
SHED_RATE_FLOOR = 0.02


def _request_mix() -> list[dict]:
    """The cycled request list: mostly steady-state, plus the other kinds."""
    mix: list[dict] = [
        {"model": {"servers": servers, "arrival_rate": round(0.45 * servers + 0.1 * i, 3)}}
        for i, servers in enumerate(itertools.islice(itertools.cycle((3, 4, 5, 6)), 16))
    ]
    mix.append({"query": "scenario", "preset": "single-repairman"})
    mix.append(
        {
            "query": "transient",
            "model": {"servers": 3, "arrival_rate": 1.2},
            "times": [1.0, 5.0, 20.0],
        }
    )
    return mix


def _drive(host: str, port: int, *, concurrency: int, total: int, label: str) -> None:
    """Run one closed loop and print its throughput and latency percentiles.

    Latencies land in the same log-bucket :class:`repro.obs.Histogram` the
    service's ``/metrics`` endpoint exposes, so the benchmark's percentiles
    and the service's telemetry agree on bucket resolution by construction.
    """
    from repro.obs import Histogram
    from repro.service import ServiceClient

    mix = _request_mix()
    ticket = itertools.count()
    histogram = Histogram()
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()

    def worker() -> None:
        local: list[float] = []
        with ServiceClient(host, port, timeout=120.0) as client:
            while True:
                index = next(ticket)
                if index >= total:
                    break
                request = mix[index % len(mix)]
                started = time.perf_counter()
                response = client.solve(request)
                if response.status == 429:
                    # Backpressure is a correct answer, not a failure: honour
                    # the hint once and resubmit.
                    time.sleep(float(response.headers.get("retry-after", "0.05")))
                    response = client.solve(request)
                local.append(time.perf_counter() - started)
                if not response.ok:
                    with lock:
                        failures.append(str(response.payload)[:200])
                    break
        with lock:
            latencies.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if failures:
        raise RuntimeError(f"{label}: {len(failures)} failed requests, first: {failures[0]}")
    for latency in latencies:
        histogram.observe(latency)
    print(
        f"    {label}: {len(latencies)} requests, {len(latencies) / elapsed:8.1f} req/s, "
        f"p50 {histogram.percentile(0.50) * 1e3:7.2f} ms, "
        f"p99 {histogram.percentile(0.99) * 1e3:7.2f} ms"
    )


def _make_benchmark(concurrency: int, url: str | None) -> Callable[[bool], None]:
    def benchmark(quick: bool) -> None:
        total = 60 * max(1, concurrency // 4) if quick else 400 * max(1, concurrency // 4)
        label = f"concurrency {concurrency}"
        if url is not None:
            parsed = urlparse(url)
            _drive(
                parsed.hostname or "127.0.0.1",
                parsed.port or 80,
                concurrency=concurrency,
                total=total,
                label=label,
            )
            return
        from repro.service import ServiceConfig, ThreadedService

        with ThreadedService(ServiceConfig(port=0, batch_window=0.002)) as service:
            _drive(
                service.host, service.port, concurrency=concurrency, total=total, label=label
            )

    return benchmark


#: Hot keys for the sustained mix: a small set of configurations repeated
#: often enough that the caches (and cross-request coalescing) stay on the
#: measured path alongside the cold solves.
_HOT_MODELS = tuple(
    {"model": {"servers": servers, "arrival_rate": round(0.5 * servers, 3)}}
    for servers in (3, 4, 5, 6, 7, 8, 9, 10)
)


def _sustained_request(index: int) -> dict:
    """The open-loop request for arrival ``index``: 60% cold steady-state
    solves (distinct keys, so extra shards buy real throughput), 30% hot
    cached keys, 10% scenario queries (the cheapest-to-recompute tier, so
    shedding has something to shed first)."""
    bucket = index % 10
    if bucket < 6:
        servers = 3 + index % 4
        rate = round(0.4 * servers + 0.001 * (index % 997), 4)
        return {"model": {"servers": servers, "arrival_rate": rate}}
    if bucket < 9:
        return _HOT_MODELS[index % len(_HOT_MODELS)]
    return {"query": "scenario", "preset": "single-repairman"}


def _run_sustained(
    host: str, port: int, *, rps: float, duration: float, senders: int
) -> dict:
    """Drive an open-loop arrival schedule and return the sustained metrics.

    Arrival ``i`` is *scheduled* at ``start + i / rps`` and its latency is
    measured from that scheduled instant — if the service (or a sender
    thread stuck behind a slow answer) falls behind, the backlog is charged
    to the requests that suffered it instead of silently stretching the
    schedule.
    """
    from repro.obs import Histogram
    from repro.service import ServiceClient

    total = max(1, int(rps * duration))
    interval = 1.0 / rps
    latencies: list[float] = []
    shed = 0
    errors: list[str] = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.25  # let every sender reach its loop

    def sender(offset: int) -> None:
        nonlocal shed
        local_latencies: list[float] = []
        local_shed = 0
        local_errors: list[str] = []
        with ServiceClient(host, port, timeout=120.0) as client:
            for index in range(offset, total, senders):
                scheduled = start + index * interval
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                response = client.solve(_sustained_request(index))
                finished = time.perf_counter()
                if response.status == 429:
                    local_shed += 1
                elif response.ok:
                    local_latencies.append(finished - scheduled)
                else:
                    local_errors.append(str(response.payload)[:200])
        with lock:
            latencies.extend(local_latencies)
            shed += local_shed
            errors.extend(local_errors)

    threads = [threading.Thread(target=sender, args=(k,)) for k in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    # The same log-bucket histogram the service's /metrics exposition uses:
    # percentile resolution here matches the telemetry by construction.
    histogram = Histogram()
    for latency in latencies:
        histogram.observe(latency)
    p50_ms = histogram.percentile(0.50) * 1e3
    p99_ms = histogram.percentile(0.99) * 1e3
    if errors:
        print(f"    first error: {errors[0]}", file=sys.stderr)
    return {
        "target_rps": rps,
        "duration_seconds": round(elapsed, 3),
        "senders": senders,
        "scheduled": total,
        "completed": len(latencies),
        "shed": shed,
        "errors": len(errors),
        "achieved_rps": round(len(latencies) / elapsed, 2),
        "p50_ms": round(p50_ms, 2),
        "p99_ms": round(p99_ms, 2),
        "shed_rate": round(shed / total, 4),
    }


def _check_sustained(record: dict, baseline_path: str, factor: float) -> bool:
    """Gate a sustained record against the committed baseline.

    Three SLOs, all must hold: p99 no worse than ``factor``× the baseline,
    achieved throughput no worse than baseline ÷ ``factor``, and shed rate
    no worse than ``factor``× the baseline (with an absolute floor so a few
    sheds in a short window never fail the gate).
    """
    baseline = json.loads(Path(baseline_path).read_text())
    if baseline.get("mode") != record["mode"]:
        print(
            f"BASELINE MODE MISMATCH: baseline is {baseline.get('mode')!r}, "
            f"this run is {record['mode']!r}",
            file=sys.stderr,
        )
        return False
    ok = True
    p99_limit = factor * baseline["p99_ms"]
    if record["p99_ms"] > p99_limit:
        print(
            f"SUSTAINED REGRESSION: p99 {record['p99_ms']:.2f} ms > "
            f"{p99_limit:.2f} ms ({factor}x baseline {baseline['p99_ms']:.2f} ms)",
            file=sys.stderr,
        )
        ok = False
    rps_floor = baseline["achieved_rps"] / factor
    if record["achieved_rps"] < rps_floor:
        print(
            f"SUSTAINED REGRESSION: achieved {record['achieved_rps']:.1f} req/s < "
            f"{rps_floor:.1f} req/s (baseline {baseline['achieved_rps']:.1f} / {factor})",
            file=sys.stderr,
        )
        ok = False
    shed_limit = max(factor * baseline["shed_rate"], SHED_RATE_FLOOR)
    if record["shed_rate"] > shed_limit:
        print(
            f"SUSTAINED REGRESSION: shed rate {record['shed_rate']:.4f} > "
            f"{shed_limit:.4f} (baseline {baseline['shed_rate']:.4f})",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"sustained SLOs ok vs {baseline_path} "
            f"(p99 {record['p99_ms']:.2f}/{p99_limit:.2f} ms, "
            f"rps {record['achieved_rps']:.1f}/{rps_floor:.1f}, "
            f"shed {record['shed_rate']:.4f}/{shed_limit:.4f})"
        )
    return ok


def sustained_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "open-loop sustained-load generator for the repro.service solver "
            "service (latency from scheduled arrival time; 429s count as shed)"
        )
    )
    parser.add_argument("--quick", action="store_true", help="short CI-sized window")
    parser.add_argument("--rps", type=float, default=None, help="target arrival rate")
    parser.add_argument(
        "--duration", type=float, default=None, help="window length in seconds"
    )
    parser.add_argument("--senders", type=int, default=32, help="sender threads")
    parser.add_argument(
        "--workers", type=int, default=4, help="shards for the self-hosted service"
    )
    parser.add_argument("--url", default=None, help="target a running `repro serve`")
    parser.add_argument("--output", default="BENCH_service_sustained.json")
    parser.add_argument("--check", default=None, metavar="BASELINE")
    parser.add_argument("--factor", type=float, default=2.0)
    parser.add_argument("--update-baseline", default=None, metavar="BASELINE")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    rps = args.rps if args.rps is not None else (60.0 if args.quick else 150.0)
    duration = args.duration if args.duration is not None else (6.0 if args.quick else 30.0)
    print(f"sustained ({mode}): target {rps:g} req/s for {duration:g}s", flush=True)

    if args.url is not None:
        parsed = urlparse(args.url)
        host, port = parsed.hostname or "127.0.0.1", parsed.port or 80
        metrics = _run_sustained(
            host, port, rps=rps, duration=duration, senders=args.senders
        )
    else:
        from repro.service import ServiceConfig, ThreadedService

        config = ServiceConfig(port=0, workers=args.workers, batch_window=0.002)
        with ThreadedService(config) as service:
            metrics = _run_sustained(
                service.host, service.port, rps=rps, duration=duration, senders=args.senders
            )

    record = {
        "mode": mode,
        "kind": "sustained",
        "workers": args.workers,
        **metrics,
        # child_peak_rss_mb covers the sharded tier's reaped worker processes
        # (the hungriest one); peak_rss_mb is this driver/front process.
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "child_peak_rss_mb": round(child_peak_rss_mb(), 1),
        **run_environment(),
    }
    print(
        f"    scheduled {record['scheduled']}, completed {record['completed']}, "
        f"shed {record['shed']} ({record['shed_rate']:.2%}), errors {record['errors']}; "
        f"achieved {record['achieved_rps']:.1f} req/s, "
        f"p50 {record['p50_ms']:.2f} ms, p99 {record['p99_ms']:.2f} ms"
    )
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}")

    status = 0
    error_budget = max(1, record["scheduled"] // 100)
    if record["errors"] > error_budget:
        print(
            f"SUSTAINED FAILURE: {record['errors']} errored requests "
            f"(budget {error_budget})",
            file=sys.stderr,
        )
        status = 1
    if args.update_baseline is not None:
        baseline = {
            "mode": mode,
            "kind": "sustained",
            "workers": args.workers,
            "target_rps": rps,
            # Padded so routine machine variance never trips the gate; only a
            # genuine regression (factor x the padded figure) fails CI.
            "achieved_rps": round(record["achieved_rps"] / BASELINE_PADDING, 2),
            "p99_ms": round(record["p99_ms"] * BASELINE_PADDING, 2),
            "shed_rate": round(min(1.0, record["shed_rate"] * BASELINE_PADDING), 4),
        }
        Path(args.update_baseline).write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"updated baseline {args.update_baseline}")
    if args.check is not None and not _check_sustained(record, args.check, args.factor):
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if "--sustained" in arguments:
        arguments.remove("--sustained")
        return sustained_main(arguments)
    # The --url option is this runner's own; everything else is the shared
    # harness CLI (--quick/--output/--check/--factor/--update-baseline).
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--url", default=None)
    own, rest = parser.parse_known_args(arguments)
    benchmarks = {
        f"serve_c{concurrency}": _make_benchmark(concurrency, own.url)
        for concurrency in CONCURRENCY_LEVELS
    }
    return bench_main(
        benchmarks,
        description=(
            "closed-loop load generator for the repro.service solver service "
            "(add --url to target a running `repro serve` instance; add "
            "--sustained for the open-loop SLO mode)"
        ),
        default_output="BENCH_service.json",
        argv=rest,
    )


if __name__ == "__main__":
    sys.exit(main())
