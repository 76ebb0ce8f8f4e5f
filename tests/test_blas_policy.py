"""The BLAS thread policy applied by ``import repro``, and how it is reported.

The policy tests run a fresh interpreter: the policy acts once, at import,
on thread pools that live for the whole process, so only a new process shows
what a user (or a spawned worker) gets.  They strip the thread variables
from the child's environment unless they set one on purpose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A backend that answers with the BLAS setting of the process it runs in.
#: It is registered at module level, outside the ``__main__`` guard, so that
#: pool children started by spawn or forkserver register it as well.
REPORTING_SCRIPT = """
import json
import os

from repro import UnreliableQueueModel, register_solver
from repro._blas import blas_record
from repro.distributions import Exponential
from repro.solvers import Solver, solve_many


class BlasReporter(Solver):
    name = "blas-reporter"

    def solve(self, model, **options):
        record = blas_record()
        return {
            "pid": float(os.getpid()),
            "numpy_threads": float(record["numpy"]["threads"]),
            "scipy_threads": float(record["scipy"]["threads"]),
        }

    def metrics(self, solution):
        return dict(solution)


register_solver(BlasReporter())

if __name__ == "__main__":
    models = [
        UnreliableQueueModel(
            num_servers=servers,
            arrival_rate=1.0,
            service_rate=1.0,
            operative=Exponential(rate=0.1),
            inoperative=Exponential(rate=1.0),
        )
        for servers in (3, 4)
    ]
    outcomes = solve_many(
        models, "blas-reporter", parallel=True, max_workers=2, cache=False
    )
    print(json.dumps({"parent": os.getpid(), "children": [o.metrics for o in outcomes]}))
"""


def _run(*arguments: str, **env_overrides: str) -> str:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_overrides)
    completed = subprocess.run(
        [sys.executable, *arguments],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout


def _record(**env_overrides: str) -> dict:
    return json.loads(
        _run(
            "-c",
            "import json, repro; from repro._blas import blas_record; "
            "print(json.dumps(blas_record()))",
            **env_overrides,
        )
    )


def test_import_sets_both_bundled_openblas_pools_to_one_thread():
    record = _record()
    assert set(record) == {"numpy", "scipy"}
    for package, entry in record.items():
        if entry["source"] == "unmanaged":  # pragma: no cover - MKL/system BLAS builds
            pytest.skip(f"{package} bundles no OpenBLAS")
        assert entry == {"library": entry["library"], "threads": 1, "source": "policy"}
        assert entry["library"].startswith("libscipy_openblas")


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_variable_overrides_the_policy(variable):
    record = _record(**{variable: "2"})
    for package, entry in record.items():
        if entry["source"] == "unmanaged":  # pragma: no cover - MKL/system BLAS builds
            pytest.skip(f"{package} bundles no OpenBLAS")
        assert (entry["threads"], entry["source"]) == (2, "env")


def test_solve_many_pool_children_run_under_the_policy(tmp_path):
    script = tmp_path / "report_blas.py"
    script.write_text(REPORTING_SCRIPT)
    payload = json.loads(_run(str(script)))
    children = payload["children"]
    assert len(children) == 2
    assert all(child["pid"] != payload["parent"] for child in children)
    for child in children:
        assert (child["numpy_threads"], child["scipy_threads"]) == (1.0, 1.0)


def test_repro_top_prints_each_shard_blas_setting():
    from repro.obs.dashboard import DashboardSnapshot, render_dashboard

    def blas(threads: int, source: str) -> dict:
        return {
            package: {"library": f"lib{package}.so", "threads": threads, "source": source}
            for package in ("numpy", "scipy")
        }

    stats = {
        "shards": [
            {"shard": 0, "state": "ready", "blas": blas(1, "policy")},
            {"shard": 1, "state": "ready", "blas": blas(1, "policy")},
            {"shard": 2, "state": "ready", "blas": blas(4, "env")},
            {"shard": 3, "state": "dead"},
        ]
    }
    lines = render_dashboard(DashboardSnapshot.from_payloads("", stats, at=0.0))
    (line,) = [line for line in lines if line.startswith("blas")]
    assert "numpy 1 (policy), scipy 1 (policy) on shard(s) 0,1" in line
    assert "numpy 4 (env), scipy 4 (env) on shard(s) 2" in line
    assert "shard(s) 3" not in line
