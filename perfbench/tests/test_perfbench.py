"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from tracer import wrappers_left  # noqa: E402
from workloads import Sizes  # noqa: E402

import crskit.refinement  # noqa: E402
import crskit.selection  # noqa: E402

TINY = Sizes(images=12, classes=4, iterations=1, random_problems=10)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {
        (name, trace): harness.run_workload(name, 3, 0.0, trace, sizes=TINY, out_dir=out)
        for name in run.WORKLOAD_NAMES
        for trace in (False, True)
    }


def test_workload_list_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_named_metric_is_posted_with_its_unit(results, name, trace, capsys):
    result = results[(name, trace)]
    assert result.correct, result.gates
    assert run.post([result]) == 0
    posted = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(posted) == {"correct", "attempted", "failed", "metrics"}
    assert posted["correct"] is True and posted["failed"] == 0 and posted["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        metric: entry["unit"] for metric, entry in posted["metrics"].items()
    }
    for entry in posted["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in posted["metrics"].values())


def test_workload_specific_metrics_are_reported(results):
    assert {"adr_count_guided_s", "adr_top1_s"} <= set(results[("refine", False)].extras)
    assert {"exact_solve_ms.p50", "exact_solve_ms.p99"} <= set(results[("oracle", False)].extras)
    for result in results.values():
        assert result.extras["error_rate"][0] == 0.0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_self_times_fit_in_traced_wall_time(results, name):
    metrics = results[(name, True)].metrics
    self_total = sum(value for key, (value, _, _) in metrics.items() if key.endswith(".self_s"))
    traced = metrics["trace.wall_s"][0] + metrics["trace.setup_s"][0]
    assert 0.0 < self_total <= traced + 1e-9


def test_layer_counts_land_on_the_workload_that_runs_the_layer(results):
    refine = results[("refine", True)].metrics
    cli = results[("cli", True)].metrics
    oracle = results[("oracle", True)].metrics
    assert refine["refinement.select_pseudo_gt.calls"][0] > 0
    assert refine["selection.crs_exact.calls"][0] == 0
    assert cli["dataio.load_dataset.calls"][0] == 3
    assert cli["dataio.load_detections.calls"][0] == 1
    assert cli["refinement.select_pseudo_gt.calls"][0] == 0
    assert oracle["selection.crs_exact.calls"][0] == 2 * oracle["selection.crs_greedy.calls"][0]
    assert oracle["evaluation.build_report.calls"][0] == 0


def test_tracer_restores_the_pristine_functions(results):
    assert wrappers_left() == []
    assert crskit.refinement.nms is crskit.selection.nms
    assert crskit.selection.nms.__module__ == "crskit.selection"


def test_perturbed_golden_file_refuses_to_post(tmp_path, capsys):
    golden = json.loads(harness.GOLDEN.read_text())
    golden["modes"]["count_guided"][2]["mean_ap"] += 1e-6
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(golden))
    result = harness.run_workload(
        "oracle", 0, 0.0, False, sizes=TINY, golden=perturbed, out_dir=tmp_path
    )
    assert not result.correct
    assert result.failed >= 1
    assert [name for name, ok, _ in result.gates if not ok] == ["golden.count_guided"]
    assert run.post([result]) == 1
    captured = capsys.readouterr()
    assert '"correct"' not in captured.out
    assert "no result posted" in captured.err


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "refine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
