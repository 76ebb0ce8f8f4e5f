"""Benchmark of the Palmer & Mitrani reproduction, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 34 --trace 0

Workloads (see README.md in this directory for why each exists):

``paper_figures``
    Section 2 and Figures 5, 7, 8, 9 in one fresh interpreter, serial and
    uncached: the spectral solver behind the solver facade and sweep engine.
``validators``
    The cross-check machinery: lumped scenario chains (IAD and direct
    paths), a warm-started scenario sweep, uniformization, first passage and
    both simulators.
``serve_single``
    ``repro serve --workers 1`` under an open-loop 30 RPS mix for the
    ``--seconds`` window (at least 1000 requests, so p99 has 10 beyond it).
    Its traced run adds a short ``--workers 2`` session for the sharding layer.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is the run record (``nproc``, BLAS libraries and threads, versions, seed).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import time

from measure import OUTCOMES, SOLVERS, import_cumulative_s, min_samples_for, percentile, supports

HERE = os.path.dirname(os.path.abspath(__file__))

#: Thread-count variables removed from the program's environment, so an
#: ambient CI value cannot change what is measured: the benchmark measures the
#: program at its default BLAS threading.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is measured this many times per run; the median is reported.
SETUP_SPAWNS = 3

#: Offered rate of the single-process serving workload.
SERVE_RATE = 30.0

#: The sharded tier's session in a traced serving run: it measures the
#: sharding layer (pipes, shard workers) at the rate the tier sustains.
SHARDED_WORKERS = 2
SHARDED_RATE = 20.0
SHARDED_SECONDS = 20.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "latency.p50_ms": "ms",
    "latency.p99_ms": "ms",
    "import.repro_s": "s",
    "import.scipy_stats_s": "s",
    "import.service_s": "s",
    "spectral.solves": "count",
    "spectral.solve_ms": "ms",
    "spectral.qbd_s": "s",
    "spectral.eigen_s": "s",
    "spectral.boundary_s": "s",
    "spectral.geometric_s": "s",
    "solvers.evaluate_s": "s",
    "solvers.self_s": "s",
    **{
        f"solvers.attempts.{solver}.{outcome}": "count"
        for solver in SOLVERS
        for outcome in OUTCOMES
    },
    "solvers.fallbacks": "count",
    "solvers.warm_start_hits": "count",
    "sweeps.self_s": "s",
    "fitting.section2_s": "s",
    "kernels.assemble_s": "s",
    "kernels.steady_state_s": "s",
    "kernels.direct_solves": "count",
    "kernels.iad_solves": "count",
    "kernels.iad_sweeps": "count",
    "kernels.warm_starts": "count",
    "scenarios.truncation_growths": "count",
    "scenarios.states_solved": "count",
    "transient.solve_s": "s",
    "transient.steps": "count",
    "simulation.queue_sim_s": "s",
    "simulation.scenario_sim_s": "s",
    "client.hot_p50_ms": "ms",
    "client.hot_p99_ms": "ms",
    "client.cold_p50_ms": "ms",
    "client.cold_p99_ms": "ms",
    "client.scenario_p50_ms": "ms",
    "client.late_p99_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.batch_solve_p50_ms": "ms",
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.cache_hit_ratio": "ratio",
    "service.cache_lookups": "count",
    "service.coalesced": "count",
    "service.shed": "count",
    "service.admission_p50_ms": "ms",
    "service.backend_p50_ms": "ms",
    "service.http_self_ms": "ms",
    "sharding.pipe_ms": "ms",
    "sharding.worker_restarts": "count",
    "proc.cpu_front_s": "s",
    "proc.cpu_workers_s": "s",
    "trace.overhead_pct": "%",
    "run.nproc": "count",
    "run.blas_threads": "count",
}

WORKLOADS = ("paper_figures", "validators", "serve_single")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


def program_env(root: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child(root: str, env: dict, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "offline.py"), *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def finish(process: subprocess.Popen, what: str) -> str:
    try:
        output, _ = process.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    if process.returncode != 0:
        raise BenchmarkError(f"{what} exited with code {process.returncode}")
    return output


def run_record(root: str, env: dict) -> dict:
    return json.loads(finish(child(root, env, "--mode", "record"), "run record probe"))


def import_times(root: str, env: dict) -> dict[str, float]:
    """Cumulative import seconds from ``-X importtime`` in a fresh interpreter."""
    process = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro, repro.service"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if process.returncode != 0:
        raise BenchmarkError("importing repro failed")
    return {
        "import.repro_s": import_cumulative_s(process.stderr, "repro"),
        "import.scipy_stats_s": import_cumulative_s(process.stderr, "scipy.stats"),
        "import.service_s": import_cumulative_s(process.stderr, "repro.service"),
    }


def spawn_ready(root: str, env: dict, command: list[str], setups: list[float]) -> subprocess.Popen:
    """Start ``offline.py``; the time until it reports READY joins ``setups``."""
    started = time.perf_counter()
    process = child(root, env, *command)
    if process.stdout.readline().strip() != "READY":
        finish(process, "offline.py " + " ".join(command))
        raise BenchmarkError(f"offline.py {' '.join(command)} did not report READY")
    setups.append(time.perf_counter() - started)
    return process


def offline_pass(root: str, env: dict, args: argparse.Namespace, traced: bool, setups: list) -> dict:
    """One timed pass of the workload in a fresh interpreter."""
    command = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "run"]
    if traced:
        spans = os.path.join(root, ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl")
        command += ["--trace", "1", "--spans", spans]
    process = spawn_ready(root, env, command, setups)
    return json.loads(finish(process, args.workload).strip().splitlines()[-1])


def run_offline(root: str, env: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    setups: list[float] = []
    for _ in range(SETUP_SPAWNS - 1):
        command = ["--workload", args.workload, "--mode", "setup"]
        finish(spawn_ready(root, env, command, setups), args.workload)
    report = offline_pass(root, env, args, False, setups)
    tasks = report["tasks_ms"]
    outcome = {
        "correct": not report["problems"],
        "attempted": len(tasks),
        "failed": len(report["problems"]),
        "problems": report["problems"],
        "samples": {"tasks": len(tasks), "p99_supported": supports(len(tasks), 99)},
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": report["wall_s"],
            "cpu_s": report["cpu_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        return outcome, metrics
    traced = offline_pass(root, env, args, True, setups)
    outcome["correct"] = outcome["correct"] and not traced["problems"]
    outcome["failed"] += len(traced["problems"])
    outcome["problems"] += traced["problems"]
    metrics = dict(traced["layers"])
    metrics["latency.p50_ms"] = percentile(tasks, 50)
    metrics["latency.p99_ms"] = percentile(tasks, 99)
    metrics["trace.overhead_pct"] = (traced["wall_s"] / report["wall_s"] - 1.0) * 100.0
    return outcome, metrics


def serve_session(root: str, env: dict, args: argparse.Namespace, **settings: object) -> dict:
    import serving

    log_path = os.path.join(root, ".perfbench", f"serve-{args.workload}-{args.seed}.log")
    result = asyncio.run(
        serving.serve_run(root, env, seed=args.seed, log_path=log_path, **settings)
    )
    result["problems"] = serving.hot_check(result["samples"], os.path.join(root, "src"))
    if result["server_errors"]:
        result["problems"].append(f"{result['server_errors']} responses with a 5xx status")
    if result["restarts"]:
        result["problems"].append(f"{result['restarts']:g} shard worker restarts")
    return result


def run_serving(root: str, env: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    count = round(SERVE_RATE * args.seconds)
    if count < min_samples_for(99):
        raise BenchmarkError(
            f"--seconds {args.seconds} gives {count} requests at {SERVE_RATE:g} RPS; "
            f"p99 needs at least {min_samples_for(99)}"
        )
    sessions = [
        serve_session(
            root, env, args, workers=1, rate=SERVE_RATE, seconds=args.seconds,
            spawns=SETUP_SPAWNS, trace=bool(args.trace),
        )
    ]
    values = sessions[0]["layers"] if args.trace else sessions[0]["end_to_end"]
    if args.trace:
        sessions.append(
            serve_session(
                root, env, args, workers=SHARDED_WORKERS, rate=SHARDED_RATE,
                seconds=SHARDED_SECONDS, spawns=1, trace=True,
            )
        )
        values.update(
            (name, value)
            for name, value in sessions[1]["layers"].items()
            if name.startswith(("sharding.", "proc."))
        )
    problems = [problem for session in sessions for problem in session["problems"]]
    samples = sessions[0]["samples"]
    outcome = {
        "correct": not problems,
        "attempted": sum(len(session["samples"]) for session in sessions),
        "failed": sum(session["failed"] for session in sessions),
        "problems": problems,
        "samples": {"requests": len(samples), "p99_supported": supports(len(samples), 99)},
    }
    return outcome, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2006, help="input seed (default: %(default)s)")
    parser.add_argument(
        "--seconds", type=float, default=34.0, help="serving window (default: %(default)s)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:  # the in-process hot-key check runs at defaults too
        os.environ.pop(name, None)
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    env = program_env(root)

    try:
        record = run_record(root, env)
        if args.workload == "serve_single":
            outcome, values = run_serving(root, env, args)
        else:
            outcome, values = run_offline(root, env, args)
        if args.trace:
            values.update(import_times(root, env))
            values["run.nproc"] = float(record["nproc"])
            values["run.blas_threads"] = float(max(lib["threads"] for lib in record["blas"].values()))
    except (BenchmarkError, OSError, RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    catalogue = PER_LAYER if args.trace else END_TO_END
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    record["samples"] = outcome["samples"]
    print(json.dumps({"run_record": record, "problems": outcome["problems"]}))
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in catalogue.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
