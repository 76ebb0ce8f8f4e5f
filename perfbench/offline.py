"""The offline workloads, run inside a fresh interpreter of the program.

``run.py`` starts this script once per set-up measurement and once for the
timed work.  Protocol on standard output: one ``READY`` line as soon as the
workload's imports are done and its smallest input is solved (the parent
times set-up from spawn to that line), then, in ``run`` mode, one JSON
object with the measured pass.

A task, for the latency percentiles of a traced run, is one experiment or
validator step as a user would run it (a figure, a chain solve, a
simulation).  Single solves inside a figure take 5-200 ms and vary 1.3-2x
from run to run under default BLAS threading, so they are not the unit.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/offline.py --workload paper_figures --seed 7 --mode run --trace 0
    python perfbench/offline.py --mode record     # run record of this interpreter
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time

from measure import SOLVERS, Tracer, parse_exposition, percentile, registry_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

#: Figure-5 server counts: the smallest grid that brackets all three optima.
FIGURE5_SERVERS = tuple(range(9, 15))

#: The validators' lumped chains: three groups of ``size`` servers at level 60.
LUMPED_LEVEL = 60
LUMPED_SIZES = (10, 6)

#: Simulated horizon of the two simulators.
SIM_HORIZON = 20_000.0

#: Relative tolerance of deterministic numerical outputs against reference.json.
NUMERIC_RTOL = 1e-6

#: Relative tolerance of a seeded simulation against the analytical answer.
SIM_RTOL = 0.10

#: Relative tolerance of the Section-2 fitted means against the published fit.
FIT_RTOL = 0.10


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# -- run record -------------------------------------------------------------


def blas_record() -> dict:
    """Each bundled OpenBLAS library and its effective thread count.

    numpy and scipy wheels each bundle their own scipy-openblas build with its
    own thread pool, so both are reported.  ``threadpoolctl`` is not needed:
    the libraries export ``*_get_num_threads`` and ``*_get_config``.
    """
    import numpy
    import scipy

    record = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            suffix = "64_" if "openblas64_" in os.path.basename(path) else ""
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            threads.argtypes, threads.restype = [], ctypes.c_int
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            config.argtypes, config.restype = [], ctypes.c_char_p
            record[package.__name__] = {
                "library": os.path.basename(path),
                "config": config().decode(),
                "threads": threads(),
            }
    return record


def run_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# -- workloads ----------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap the program's public functions where their callers look them up."""
    import repro.markov.kernels
    import repro.queueing.ctmc_reference
    import repro.scenarios.ctmc
    import repro.simulation.scenario_sim
    import repro.spectral.approximation
    import repro.spectral.solution
    import repro.sweeps.runner
    import repro.transient.analysis
    import repro.transient.first_passage
    from repro.solvers import get_solver

    for name in SOLVERS:
        tracer.wrap(get_solver(name), "solve", f"backend.{name}")
    tracer.wrap(
        repro.spectral.solution,
        "ModulatedQueueMatrices",
        "spectral.qbd",
        # The blocks are cached properties: build them inside the span.
        annotate=lambda record, matrices: (matrices.q0, matrices.q1, matrices.q2),
    )
    tracer.wrap(repro.spectral.solution, "eigenvalues_inside_unit_disk", "spectral.eigen")
    tracer.wrap(repro.spectral.solution, "solve_spectral", "spectral.solve")
    tracer.wrap(repro.spectral.approximation, "solve_geometric", "spectral.geometric")
    tracer.wrap(repro.sweeps.runner.SweepRunner, "run", "sweeps.run")
    tracer.wrap(repro.sweeps.runner, "solve_many", "solvers.solve_many")
    for module in (repro.scenarios.ctmc, repro.queueing.ctmc_reference):
        tracer.wrap(module, "assemble_level_mode_generator", "kernels.assemble")
        tracer.wrap(module, "steady_state_csr", "kernels.steady_state")
    tracer.wrap(repro.markov.kernels, "steady_state_csr", "kernels.steady_state")
    tracer.wrap(
        repro.scenarios.ctmc,
        "solve_scenario_ctmc",
        "scenarios.solve",
        annotate=lambda record, result: record.update(states=result.num_solved_states),
    )
    for module in (repro.transient.analysis, repro.transient.first_passage):
        tracer.wrap(
            module,
            "transient_distributions",
            "transient.uniformization",
            annotate=lambda record, result: record.update(steps=result.steps),
        )
    tracer.wrap(repro.simulation.scenario_sim, "simulate_scenario", "simulation.scenario")


def paper_figures_setup() -> None:
    from repro.experiments import run_figure5
    from repro.sweeps import SweepRunner

    run_figure5(arrival_rates=(7.0,), server_counts=(9,), runner=SweepRunner(cache=False))


def paper_figures(seed: int, tracer: Tracer) -> dict:
    """Section 2 plus Figures 5, 7, 8 and 9 on the serial, uncached path."""
    from repro.experiments import (
        run_figure5,
        run_figure7,
        run_figure8,
        run_figure9,
        run_section2,
    )
    from repro.sweeps import SweepRunner

    runner = SweepRunner(cache=False)
    with tracer.span("fitting.section2", task=True):
        section2 = run_section2(seed=seed)
    with tracer.span("figure5", task=True):
        figure5 = run_figure5(server_counts=FIGURE5_SERVERS, runner=runner)
    with tracer.span("figure7", task=True):
        figure7 = run_figure7(runner=runner)
    with tracer.span("figure8", task=True):
        figure8 = run_figure8(runner=runner)
    with tracer.span("figure9", task=True):
        figure9 = run_figure9(runner=runner)
    return {
        "section2": section2,
        "figure5": figure5,
        "figure7": figure7,
        "figure8": figure8,
        "figure9": figure9,
    }


def paper_figures_outputs(results: dict) -> dict:
    """The deterministic outputs compared against ``reference.json``."""
    figure5 = results["figure5"]
    return {
        "figure5_cost": {
            str(rate): [point.cost for point in curve.points]
            for rate, curve in sorted(figure5.curves.items())
        },
        "figure7": [
            [p.queue_length_exponential, p.queue_length_hyperexponential]
            for p in results["figure7"].points
        ],
        "figure8": [
            [p.exact_queue_length, p.approximate_queue_length] for p in results["figure8"].points
        ],
        "figure9": [
            [p.exact_response_time, p.approximate_response_time]
            for p in results["figure9"].points
        ],
    }


def paper_figures_check(results: dict, reference: dict) -> list[str]:
    from repro.experiments import parameters

    problems = []
    optima = {float(rate): count for rate, count in results["figure5"].optima.items()}
    if optima != {7.0: 11, 8.0: 12, 8.5: 13}:
        problems.append(f"Figure-5 optima {optima} != paper's 11/12/13")
    if results["figure9"].required_servers != parameters.FIGURE9_PAPER_MINIMUM_SERVERS:
        problems.append(f"Figure-9 minimum servers {results['figure9'].required_servers} != 9")
    problems += compare(paper_figures_outputs(results), reference, "")
    section2 = results["section2"]
    for analysis, published in (
        (section2.operative, parameters.FITTED_OPERATIVE),
        (section2.inoperative, parameters.FITTED_INOPERATIVE),
    ):
        fitted = analysis.hyperexponential_fit
        if abs(fitted.mean / published.mean - 1.0) > FIT_RTOL:
            problems.append(
                f"{analysis.label} fitted mean {fitted.mean:.4g} not within "
                f"{FIT_RTOL:.0%} of the published {published.mean:.4g}"
            )
        if not analysis.hyperexponential_ks.passes(0.05):
            problems.append(f"{analysis.label} hyperexponential fit fails KS at 5%")
    return problems


def lumped_scenario(size: int) -> object:
    """Three groups of ``size`` exponential servers sharing four repairers."""
    from repro.distributions import Exponential
    from repro.scenarios import ScenarioModel, ServerGroup

    groups = (
        ("fast", 2.0, 0.05, 1.0),
        ("mid", 1.0, 0.04, 0.8),
        ("slow", 0.5, 0.03, 0.6),
    )
    return ScenarioModel(
        groups=tuple(
            ServerGroup(
                name=name,
                size=size,
                service_rate=speed,
                operative=Exponential(rate=breakdown),
                inoperative=Exponential(rate=repair),
            )
            for name, speed, breakdown, repair in groups
        ),
        arrival_rate=2.0 * size,
        repair_capacity=4,
        name=f"lumped-{size}",
    )


def validators_setup() -> None:
    from repro.scenarios import scenario_preset
    from repro.simulation import simulate_queue  # noqa: F401 - part of the import cost
    from repro.sweeps import SweepRunner  # noqa: F401
    from repro.transient import solve_transient  # noqa: F401

    scenario_preset("single-repairman").solve_ctmc()


def validators(seed: int, tracer: Tracer) -> dict:
    """The cross-check machinery: sparse chains, transients and simulators."""
    from repro.queueing import sun_fitted_model
    from repro.scenarios import scenario_preset
    from repro.simulation import simulate_queue
    from repro.sweeps import SolverPolicy, SweepRunner, SweepSpec
    from repro.transient import first_passage_time, solve_transient

    results: dict = {}
    for size in LUMPED_SIZES:
        model = lumped_scenario(size)
        with tracer.span(f"task.lumped{size}", task=True):
            results[f"lumped{size}_mean"] = model.solve_ctmc(
                max_queue_length=LUMPED_LEVEL
            ).mean_queue_length
    spec = SweepSpec(
        base_model=scenario_preset("two-speed-cluster"),
        axes=[("repair_capacity", (1, 2, 4)), ("arrival_rate", (1.0, 1.2, 1.5, 1.8))],
        policy=SolverPolicy(order=("ctmc",)),
        name="validators-scenario-sweep",
    )
    with tracer.span("task.sweep", task=True):
        sweep = SweepRunner(cache=False).run(spec)
    results["sweep_mean"] = [row.metric("mean_queue_length") for row in sweep]
    with tracer.span("transient.solve", task=True):
        transient = solve_transient(
            lumped_scenario(6), times=(1.0, 5.0, 25.0), max_queue_length=LUMPED_LEVEL
        )
    results["transient_mean"] = [float(value) for value in transient.mean_queue_length]
    results["transient_availability"] = [float(value) for value in transient.availability]
    with tracer.span("transient.first_passage", task=True):
        passage = first_passage_time(scenario_preset("single-repairman"), times=(10.0, 100.0, 1000.0))
    results["first_passage_cdf"] = list(passage.cdf)
    results["first_passage_mean"] = passage.mean
    with tracer.span("simulation.queue", task=True):
        estimate = simulate_queue(sun_fitted_model(10, 7.0), horizon=SIM_HORIZON, seed=seed)
    results["queue_sim"] = estimate.mean_queue_length.estimate
    with tracer.span("task.scenario_sim", task=True):
        estimate = scenario_preset("repair-starved-two-speed").simulate(
            horizon=SIM_HORIZON, seed=seed
        )
    results["scenario_sim"] = estimate.mean_queue_length.estimate
    return results


def validators_outputs(results: dict) -> dict:
    """The deterministic outputs compared against ``reference.json``."""
    return {key: value for key, value in results.items() if not key.endswith("_sim")}


def validators_check(results: dict, reference: dict) -> list[str]:
    from repro.queueing import sun_fitted_model
    from repro.scenarios import scenario_preset

    problems = compare(validators_outputs(results), reference, "")
    steady, late = results["lumped6_mean"], results["transient_mean"][-1]
    if abs(late / steady - 1.0) > 1e-3:
        problems.append(f"transient L(25)={late:.6g} has not reached steady state {steady:.6g}")
    for key, exact in (
        ("queue_sim", sun_fitted_model(10, 7.0).solve_spectral().mean_queue_length),
        ("scenario_sim", scenario_preset("repair-starved-two-speed").solve_ctmc().mean_queue_length),
    ):
        if abs(results[key] / exact - 1.0) > SIM_RTOL:
            problems.append(
                f"{key} mean {results[key]:.4g} not within {SIM_RTOL:.0%} of exact {exact:.4g}"
            )
    return problems


def compare(measured: object, reference: object, where: str) -> list[str]:
    """Every leaf of ``measured`` within :data:`NUMERIC_RTOL` of ``reference``."""
    if isinstance(reference, dict):
        if not isinstance(measured, dict) or set(measured) != set(reference):
            return [f"{where or 'outputs'}: keys differ from the reference"]
        return [
            problem
            for key in reference
            for problem in compare(measured[key], reference[key], f"{where}.{key}".lstrip("."))
        ]
    if isinstance(reference, list):
        if not isinstance(measured, list) or len(measured) != len(reference):
            return [f"{where}: length differs from the reference"]
        return [
            problem
            for index, (got, want) in enumerate(zip(measured, reference))
            for problem in compare(got, want, f"{where}[{index}]")
        ]
    got, want = float(measured), float(reference)  # type: ignore[arg-type]
    if math.isclose(got, want, rel_tol=NUMERIC_RTOL, abs_tol=1e-12) or got == want:
        return []
    return [f"{where}: {got!r} differs from reference {want!r}"]


#: Per workload: set-up, the timed work, its checked outputs and its checks.
WORKLOADS = {
    "paper_figures": (paper_figures_setup, paper_figures, paper_figures_outputs, paper_figures_check),
    "validators": (validators_setup, validators, validators_outputs, validators_check),
}


# -- per-layer metrics -------------------------------------------------------


def numerics_scrape() -> dict:
    """The program's numerical-health registry, parsed like a ``/metrics`` scrape."""
    from repro.obs import numerics_registry

    return parse_exposition(numerics_registry().render())


def layer_metrics(tracer: Tracer, before: dict, after: dict) -> dict[str, float]:
    table = tracer.summary()

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def own(*names: str) -> float:
        return sum(table.get(name, {}).get("self_s", 0.0) for name in names)

    spectral = tracer.durations("spectral.solve")
    scenario_solves = [s for s in tracer.spans if s["name"] == "scenarios.solve"]
    scenario_ids = {s["id"] for s in scenario_solves}
    assemblies_in_scenarios = sum(
        1 for s in tracer.spans if s["name"] == "kernels.assemble" and s["parent"] in scenario_ids
    )
    metrics = {
        "spectral.solves": float(len(spectral)),
        "spectral.solve_ms": percentile(spectral, 50) * 1e3 if spectral else 0.0,
        "spectral.qbd_s": total("spectral.qbd"),
        "spectral.eigen_s": total("spectral.eigen"),
        "spectral.boundary_s": own("spectral.solve"),
        "spectral.geometric_s": total("spectral.geometric"),
        "solvers.evaluate_s": total("solvers.solve_many"),
        "solvers.self_s": own("solvers.solve_many", *(f"backend.{n}" for n in SOLVERS)),
        "sweeps.self_s": own("sweeps.run"),
        "fitting.section2_s": total("fitting.section2"),
        "kernels.assemble_s": total("kernels.assemble"),
        "kernels.steady_state_s": total("kernels.steady_state"),
        "scenarios.truncation_growths": float(assemblies_in_scenarios - len(scenario_solves)),
        "scenarios.states_solved": float(sum(s["states"] for s in scenario_solves)),
        "transient.solve_s": total("transient.solve") + total("transient.first_passage"),
        "transient.steps": float(
            sum(s["steps"] for s in tracer.spans if s["name"] == "transient.uniformization")
        ),
        "simulation.queue_sim_s": total("simulation.queue"),
        "simulation.scenario_sim_s": total("simulation.scenario"),
    }
    metrics.update(registry_metrics(before, after))
    return metrics


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "record", "reference"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    if args.mode == "record":
        print(json.dumps(run_record()), flush=True)
        return 0

    setup, work, outputs, check = WORKLOADS[args.workload]
    setup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
    if args.trace:
        instrument(tracer)
    before = numerics_scrape()
    cpu_start, wall_start = cpu_seconds(), time.perf_counter()
    results = work(args.seed, tracer)
    wall = time.perf_counter() - wall_start
    cpu = cpu_seconds() - cpu_start
    after = numerics_scrape()
    tracer.restore()

    if args.mode == "reference":
        print(json.dumps(outputs(results), indent=1))
        return 0
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)[args.workload]
    problems = check(results, reference)
    tasks = [s["end"] - s["start"] for s in tracer.spans if s.get("task")]
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks_ms": [task * 1e3 for task in tasks],
        "problems": problems,
    }
    if args.trace:
        report["layers"] = layer_metrics(tracer, before, after)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
