"""Tests of the benchmark itself: span arithmetic, inert wrappers, lost targets.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import child  # noqa: E402
import spans  # noqa: E402


def span(name, start, end, parent=-1, note=None):
    return [name, start, end, parent, -1, note]


class TestSelfTime:
    def test_hand_built_tree(self):
        tree = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 3.0, 6.0, parent=0),    # overlaps a: counted once
            span("a.x", 2.0, 3.0, parent=1),
            span("c", 8.0, 12.0, parent=0),   # clipped to the root's end
            span("other", 20.0, 21.0),
        ]
        got = spans.self_times(tree)
        assert got == pytest.approx([10 - 5 - 2, 2.0, 3.0, 1.0, 4.0, 1.0])

    def test_draw_self_time_excludes_children(self):
        tree = [
            span("divergences.renyi_mc", 0.0, 5.0, note={"samples": 1000}),
            span("model.draw_features", 1.0, 3.0, parent=0),
            span("model.draw_response", 3.5, 4.0, parent=0),
        ]
        got = spans.layer_metrics(tree)
        assert got["model.draw_s"] == pytest.approx(2.5)
        assert got["divergences.renyi_mc_s"] == pytest.approx(5.0)
        assert got["divergences.renyi_mc_samples_per_s"] == pytest.approx(200)

    def test_percentile_nearest_rank(self):
        assert spans.percentile([5, 1, 4, 2, 3], 50) == 3
        assert spans.percentile(list(range(1, 11)), 90) == 9
        assert spans.percentile([], 90) == 0.0


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setitem(child.WORKLOADS, "sim-dense",
                        dict(n=50, p=100, snr=10, trials=4))
    monkeypatch.setitem(child.WORKLOADS, "risk-mc",
                        dict(n=50, p=100, snr=2, trials=1))
    monkeypatch.setattr(child, "RISK_NUM_MC", 200)
    monkeypatch.setattr(child, "RISK_MC_SAMPLES", 5000)


class TestTracedRunIsInert:
    def test_sim_csv_byte_identical(self, small_workloads, tmp_path):
        csvs = []
        for trace in (False, True):
            workdir = tmp_path / str(trace)
            workdir.mkdir()
            out = child.run("sim-dense", 3, str(workdir), trace)
            assert out["rc"] == 0
            with open(out["csv"], "rb") as fh:
                csvs.append(fh.read())
        assert csvs[0] == csvs[1]
        layers = spans.layer_metrics(out["spans"])
        assert layers["lasso.solve_calls"] == 4
        assert layers["lasso.iterations_sum"] > 0
        assert layers["cli.csv_bytes"] == len(csvs[1])

    def test_risk_estimate_identical(self, small_workloads, tmp_path):
        plain = child.run("risk-mc", 3, str(tmp_path), False)
        traced = child.run("risk-mc", 3, str(tmp_path), True)
        for key in ("accepted", "total", "value", "renyi_mc", "renyi_div"):
            assert plain[key] == traced[key]
        layers = spans.layer_metrics(traced["spans"])
        assert layers["typical_set.is_typical_calls"] == 200
        assert layers["typical_set.acceptance"] == traced["accepted"] / 200

    def test_wrappers_removed_after_run(self, small_workloads, tmp_path):
        import mdlasso.sim
        before = mdlasso.sim.solve
        child.run("sim-dense", 3, str(tmp_path), True)
        assert mdlasso.sim.solve is before


class TestMissingTarget:
    def test_names_the_missing_function(self, monkeypatch, small_workloads,
                                        tmp_path):
        import mdlasso.bounds
        import mdlasso.sim
        kept = mdlasso.sim.run_trial
        monkeypatch.delattr(mdlasso.bounds, "is_typical")
        with pytest.raises(spans.MissingTargetError,
                           match=r"mdlasso\.bounds\.is_typical"):
            child.run("sim-dense", 3, str(tmp_path), True)
        assert mdlasso.sim.run_trial is kept  # nothing left wrapped

    def test_missing_method(self, monkeypatch):
        from mdlasso.model import GaussianLinearModel
        monkeypatch.delattr(GaussianLinearModel, "draw_response")
        with pytest.raises(spans.MissingTargetError,
                           match=r"GaussianLinearModel\.draw_response"):
            spans.Tracer().install()

    def test_failed_child_is_reported(self):
        import run
        out = {"exit": 1, "error": "spans.MissingTargetError: traced "
               "function mdlasso.sim.solve not found"}
        problems = run.check("sim-dense", 0, out, {})
        assert len(problems) == 1 and "mdlasso.sim.solve" in problems[0]


class TestContract:
    def test_metric_names_match_benchmark_json(self):
        import run
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            bench = json.load(fh)
        assert [m["name"] for m in bench["end_to_end"]] == list(run.UNITS)
        assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.UNITS
        assert set(spans.layer_metrics([])) | {"trace.overhead_s"} \
            == set(spans.UNITS)
        assert [w["name"] for w in bench["workloads"]] == list(child.WORKLOADS)

    def test_exits_nonzero_without_the_program(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-null",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""

    def test_rounds_stop_before_the_time_is_up(self):
        import run
        assert run.more_rounds(0, 0.0, [], 40)
        assert run.more_rounds(5, 30.0, [5.0, 6.0, 5.5], 40)
        assert not run.more_rounds(5, 35.0, [5.0, 6.0, 5.5], 40)
        assert run.more_rounds(1, 35.0, [35.0], 40)  # minimum rounds
        assert not run.more_rounds(2, 120.0, [60.0, 60.0], 40)  # hard limit


class TestCalibration:
    def test_time_metrics_scale_with_host_speed(self):
        import run
        outs = [{"setup_s": 0.2, "wall_s": 2.0, "cpu_s": 1.9, "run_s": 1.6,
                 "ops": 100, "peak_rss_mb": 80.0}]
        slow = [2 * run.CAL_REF_S] * 3  # host at half the reference speed
        metrics, raw = run.end_to_end(outs, 100, 0, slow)
        assert raw["wall_s"] == 2.0 and raw["trials_per_s"] == 62.5
        assert metrics["setup_s"] == pytest.approx(0.1)
        assert metrics["wall_s"] == pytest.approx(1.0)
        assert metrics["cpu_s"] == pytest.approx(0.95)
        assert metrics["trials_per_s"] == pytest.approx(125.0)
        assert metrics["peak_rss_mb"] == 80.0
        assert metrics["success_frac"] == 1.0

    def test_reference_job_does_not_import_the_program(self):
        import run
        code = ("import runpy, sys; runpy.run_path(sys.argv[1], "
                "run_name='__main__'); "
                "assert not [m for m in sys.modules if 'mdlasso' in m]")
        subprocess.run([sys.executable, "-c", code,
                        os.path.join(BENCH, "calibrate.py")],
                       env=run.child_env(), check=True, timeout=60)

    def test_calibrate_runs(self, tmp_path):
        import run
        walls = run.calibrate(str(tmp_path), 0.0)
        assert len(walls) == 1 and walls[0] > 0
