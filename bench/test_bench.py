"""Tests of the benchmark itself, at the tiny ``--smoke`` size.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "7", "--seconds", "0.5", *args],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench("--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
    if trace:
        # The zero-call predictions: no feedback or record-mean calls with
        # the law off in first-order mode, no step-field calls in exact mode.
        calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith("_calls")}
        if workload == "diffuse-wide":
            assert calls["feedback.amplitude_calls"] == calls["homodyne.record_mean_calls"] == 0
        else:
            assert calls["homodyne.step_field_calls"] == 0


def test_flipped_output_byte_is_a_failed_operation():
    proc, result = run_bench("--workload", "stabilize-exact", "--trace", "0", "--smoke", "--corrupt")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] == (result["attempted"] - 1) / result["attempted"]
    details = json.loads(proc.stdout.splitlines()[-2])
    assert "differs from the 1-worker reference" in details["failures"][0]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc, result = run_bench("--workload", WORKLOADS[0], script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert result is None
