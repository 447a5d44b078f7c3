"""Smoke test of the layer benchmark at a tiny size.

Runs every workload on the small CAL network for about a second, in both
modes, and checks the printed result against the result format and the
metric names and units in ``BENCHMARK.json``.  Also checks that another
seed changes the generated inputs but not the metric names, and that the
benchmark refuses to run where the program sources are missing.

Run from the repository root::

    python3 -m pytest layerbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = ["--dataset", "CAL", "--setup-repeats", "1", "--min-samples", "20"]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), *TINY,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["layerbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(m["better"] in ("higher", "lower") for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_layer_map_matches_benchmark_json():
    declared = sorted(m["name"] for m in SPEC["per_layer"])
    layers = json.loads((BENCH / "layers.json").read_text())
    grouped = [name for names in layers["layers"].values() for name in names]
    assert sorted(grouped) == declared
    assert sorted(layers["moves"]) == declared
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for pairs in layers["moves"].values():
        for workload, metric in pairs:
            assert workload in workloads and metric in end_to_end


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_its_result(workload):
    details, untraced = _result(_run(workload, 1, 0))
    _check_result(untraced, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert details["provenance"]["seed"] == 1

    other_details, other = _result(_run(workload, 2, 0))
    assert other_details["inputs"] != details["inputs"]
    assert set(other["metrics"]) == set(untraced["metrics"])

    _details, traced = _result(_run(workload, 1, 1))
    _check_result(traced, SPEC["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "layerbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("live-updates", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
