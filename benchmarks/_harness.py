"""Shared machinery of the benchmark-tracking runners.

Both CI benchmark scripts (``scenario_bench.py``, ``transient_bench.py``)
time a fixed dict of representative workloads, write the wall-clock results
to a JSON file, and optionally compare them against a committed baseline,
failing when any benchmark regresses by more than a tolerance factor.  The
timing loop, the JSON format, the baseline comparison and the CLI live here;
each script contributes only its workload functions.

Wall-clock numbers are noisy across machines, so committed baselines are
recorded generously (the measured time padded by :data:`BASELINE_PADDING`)
and the regression gate is a factor, not a delta: only a genuine slowdown —
an accidental algorithmic regression, a lost cache — trips it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections.abc import Callable
from pathlib import Path

#: Padding applied when recording a baseline, so machine noise and CI runners
#: slower than the recording machine do not trip the regression gate (together
#: with the default 2x factor this gives ~4x headroom over the measured time).
BASELINE_PADDING = 2.0

#: ``ru_maxrss`` is kilobytes on Linux but *bytes* on macOS.
_RSS_TO_MB = 1.0 / (1024.0 * 1024.0) if sys.platform == "darwin" else 1.0 / 1024.0


def peak_rss_mb() -> float:
    """The process's high-water resident set size, in megabytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_TO_MB


def child_peak_rss_mb() -> float:
    """The largest high-water RSS among *reaped* child processes, in megabytes.

    ``RUSAGE_CHILDREN`` only covers children that have been waited on, and
    ``ru_maxrss`` there is the *maximum over children*, not their sum — which
    is exactly the right shape for the sharded service benchmark: after the
    pool shuts down it reports the hungriest worker, where the parent-only
    number used to under-report the tier's footprint entirely.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * _RSS_TO_MB


def run_benchmarks(
    benchmarks: dict[str, Callable[[bool], object]], *, quick: bool, repeats: int
) -> dict[str, dict[str, object]]:
    """Run every benchmark ``repeats`` times and keep the best wall-clock.

    Each record carries the best ``seconds``, the process-wide ``peak_rss_mb``
    observed after the benchmark (monotone over the run — it attributes the
    high-water mark, not the increment), the reaped-children high-water
    ``child_peak_rss_mb`` (the hungriest worker process, for benchmarks that
    spawn a sharded pool), and whatever metadata dict the workload chose to
    return (state-space sizes, truncation levels, ...), so the uploaded JSON
    explains *what* was timed, not just how long it took.
    """
    records: dict[str, dict[str, object]] = {}
    for name, function in benchmarks.items():
        best = float("inf")
        metadata: dict[str, object] = {}
        for _ in range(repeats):
            start = time.perf_counter()
            returned = function(quick)
            best = min(best, time.perf_counter() - start)
            if isinstance(returned, dict):
                metadata = {str(key): value for key, value in returned.items()}
        records[name] = {
            "seconds": best,
            "peak_rss_mb": round(peak_rss_mb(), 1),
            "child_peak_rss_mb": round(child_peak_rss_mb(), 1),
            **metadata,
        }
        sizes = ", ".join(f"{key}={value}" for key, value in metadata.items())
        print(f"{name:>24}: {best:8.3f}s" + (f"  [{sizes}]" if sizes else ""))
    return records


def run_environment() -> dict[str, object]:
    """What every record carries because timings depend on it: the usable CPU
    count and this process's BLAS thread setting (for a self-hosted service,
    its front's; a service under ``--url`` reports its own on ``/healthz``)."""
    from repro._blas import blas_record
    from repro.solvers.facade import default_max_workers

    return {"nproc": default_max_workers(), "blas": blas_record()}


def write_results(path: Path, records: dict[str, dict[str, object]], *, quick: bool) -> None:
    """Write one timing JSON (the artifact CI uploads, and the baseline format)."""
    payload = {
        "mode": "quick" if quick else "full",
        **run_environment(),
        "benchmarks": records,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def check_against_baseline(
    records: dict[str, dict[str, object]], baseline_path: Path, *, factor: float, quick: bool
) -> int:
    """Compare timings to a baseline file; return the number of regressions.

    A baseline recorded in a different mode (quick vs full) makes the factor
    comparison meaningless, so a mode mismatch counts as a failure instead of
    silently disabling the gate.
    """
    payload = json.loads(baseline_path.read_text())
    mode = "quick" if quick else "full"
    baseline_mode = payload.get("mode")
    if baseline_mode != mode:
        print(
            f"baseline {baseline_path} was recorded in {baseline_mode!r} mode but this "
            f"run used {mode!r}; re-record it with --update-baseline"
            + (" --quick" if quick else "")
        )
        return 1
    baseline = payload["benchmarks"]
    regressions = 0
    for name, record in records.items():
        seconds = float(record["seconds"])  # type: ignore[arg-type]
        if name not in baseline:
            print(f"{name:>24}: no baseline entry (new benchmark, skipped)")
            continue
        reference = float(baseline[name]["seconds"])
        ratio = seconds / reference if reference > 0 else float("inf")
        status = "ok"
        if ratio > factor:
            status = f"REGRESSION (> {factor:.1f}x)"
            regressions += 1
        print(f"{name:>24}: {seconds:8.3f}s vs baseline {reference:8.3f}s ({ratio:4.2f}x) {status}")
    for name in baseline:
        if name not in records:
            print(f"{name:>24}: present in baseline but not measured")
    return regressions


def bench_main(
    benchmarks: dict[str, Callable[[bool], object]],
    *,
    description: str,
    default_output: str,
    argv: list[str] | None = None,
) -> int:
    """The CLI shared by the benchmark scripts (run, write, check, re-baseline)."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick", action="store_true", help="reduced workloads (what the CI bench job runs)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="runs per benchmark (best kept)")
    parser.add_argument(
        "--output", default=default_output, help="where to write the timing JSON"
    )
    parser.add_argument("--check", default=None, help="baseline JSON to compare against")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when a benchmark exceeds its baseline by more than this factor",
    )
    parser.add_argument(
        "--update-baseline",
        default=None,
        help="write the measured timings (doubled for headroom) to this baseline file and exit",
    )
    arguments = parser.parse_args(argv)

    records = run_benchmarks(benchmarks, quick=arguments.quick, repeats=arguments.repeats)

    if arguments.update_baseline is not None:
        padded = {
            name: {**record, "seconds": float(record["seconds"]) * BASELINE_PADDING}  # type: ignore[arg-type]
            for name, record in records.items()
        }
        write_results(Path(arguments.update_baseline), padded, quick=arguments.quick)
        return 0

    write_results(Path(arguments.output), records, quick=arguments.quick)
    if arguments.check is not None:
        regressions = check_against_baseline(
            records, Path(arguments.check), factor=arguments.factor, quick=arguments.quick
        )
        if regressions:
            print(f"{regressions} benchmark(s) regressed beyond {arguments.factor:.1f}x")
            return 1
        print("all benchmarks within the regression budget")
    return 0
