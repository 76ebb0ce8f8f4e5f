"""Scenario-library benchmark: the preset gallery, CTMC vs simulation.

Every named preset of :mod:`repro.scenarios` is solved by the truncated-CTMC
reference and estimated by the scenario simulator; the benchmark reports the
two side by side.  This is the pytest-benchmark twin of the standalone
``benchmarks/scenario_bench.py`` runner that the CI ``bench`` job tracks.
"""

from __future__ import annotations

from repro.experiments import format_table
from repro.scenarios import preset_names, scenario_preset


def _solve_gallery() -> dict[str, tuple[float, float, float]]:
    results: dict[str, tuple[float, float, float]] = {}
    for name in preset_names():
        scenario = scenario_preset(name)
        ctmc = scenario.solve_ctmc()
        estimate = scenario.simulate(horizon=20_000.0, seed=2006)
        results[name] = (
            ctmc.mean_queue_length,
            estimate.mean_queue_length.estimate,
            estimate.mean_queue_length.half_width,
        )
    return results


def test_scenario_gallery_cross_validation(run_once):
    results = run_once(_solve_gallery)

    print()
    print(
        format_table(
            ("preset", "L (ctmc)", "L (simulation)", "CI half-width"),
            [
                (name, ctmc, simulated, half_width)
                for name, (ctmc, simulated, half_width) in results.items()
            ],
            title="Scenario gallery: truncated CTMC vs simulation",
        )
    )

    # Each preset's CTMC mean queue length lies within a few simulation
    # confidence half-widths (the tests pin this more tightly; the benchmark
    # guards against gross regressions only).
    for name, (ctmc, simulated, half_width) in results.items():
        assert abs(ctmc - simulated) <= 5.0 * half_width + 0.05, name


class TestBaselineCheck:
    """Unit tests of the standalone bench runner's regression gate."""

    def _baseline(self, tmp_path, payload):
        import json

        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload))
        return path

    def test_regression_detected_beyond_factor(self, tmp_path, capsys):
        from scenario_bench import check_against_baseline

        baseline = self._baseline(
            tmp_path,
            {"mode": "quick", "benchmarks": {"a": {"seconds": 1.0}, "b": {"seconds": 1.0}}},
        )
        regressions = check_against_baseline(
            {"a": {"seconds": 2.5, "peak_rss_mb": 1.0}, "b": {"seconds": 1.5}},
            baseline,
            factor=2.0,
            quick=True,
        )
        assert regressions == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_mode_mismatch_fails_instead_of_silently_passing(self, tmp_path, capsys):
        from scenario_bench import check_against_baseline

        baseline = self._baseline(
            tmp_path, {"mode": "full", "benchmarks": {"a": {"seconds": 1.0}}}
        )
        assert (
            check_against_baseline({"a": {"seconds": 0.1}}, baseline, factor=2.0, quick=True)
            == 1
        )
        assert "re-record" in capsys.readouterr().out

    def test_new_benchmark_without_baseline_is_skipped(self, tmp_path, capsys):
        from scenario_bench import check_against_baseline

        baseline = self._baseline(
            tmp_path, {"mode": "quick", "benchmarks": {"a": {"seconds": 1.0}}}
        )
        records = {"a": {"seconds": 1.0}, "new": {"seconds": 9.0, "num_states": 3}}
        assert check_against_baseline(records, baseline, factor=2.0, quick=True) == 0
        assert "no baseline entry" in capsys.readouterr().out

    def test_results_carry_the_cpu_count_and_blas_setting(self, tmp_path):
        import json

        from _harness import write_results

        from repro._blas import blas_record

        path = tmp_path / "BENCH_x.json"
        write_results(path, {"a": {"seconds": 1.0}}, quick=True)
        payload = json.loads(path.read_text())
        assert payload["nproc"] >= 1
        assert payload["blas"] == blas_record()
        assert payload["benchmarks"] == {"a": {"seconds": 1.0}}
