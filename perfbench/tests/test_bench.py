"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced for one op cycle
(``--seconds 1``), about three minutes in all on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            cache[workload, trace] = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        return cache[workload, trace]

    return get


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_the_end_to_end_metrics(runs, workload):
    detail, result = runs(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and detail["fail_frac"] == 0.0
    assert detail["samples"]["ops"] == result["attempted"] >= 1
    assert detail["samples"]["setup_s"] >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_the_per_layer_metrics(runs, workload):
    detail, result = runs(workload, 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(BENCH["per_layer"])
    assert result["correct"] is True and result["failed"] == 0
    assert detail["fail_frac"] == 0.0
    assert all(result["metrics"][f"{m}.errors"]["value"] == 0
               for m in ("linalg", "tower", "recovery", "closure", "cli"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_of_an_op_fit_in_its_wall_time(runs, workload):
    detail, _ = runs(workload, 1)
    assert detail["per_op"]
    for op in detail["per_op"]:
        assert 0 < op["self_sum_s"] <= op["wall_s"] + 1e-9, op


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_report_digests(runs, workload):
    first, _ = runs(workload, 0)
    second, _ = runs(workload, 1)
    assert first["report_digests"]["per_cycle"][0] == second["report_digests"]["per_cycle"][0]
    assert first["report_digests"]["warmup_same_in_all_processes"]
    assert second["report_digests"]["traced_same_as_untraced"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_closure_time_shows_only_in_generation(runs, workload):
    detail, result = runs(workload, 1)
    closure_s = result["metrics"]["closure.subalgebra_closure.self_s"]["value"]
    if workload == "generation":
        mean_wall = sum(op["wall_s"] for op in detail["per_op"]) / len(detail["per_op"])
        assert closure_s > 0.5 * mean_wall
    else:
        assert closure_s == 0.0
        assert "closure.subalgebra_closure" in detail["not_called"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
