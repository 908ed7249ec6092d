"""Tests of the benchmark itself, on tiny inputs (--smoke).

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*flags, cwd=ROOT, seed=3):
    cmd = [sys.executable, "bench/run.py", "--seed", str(seed), "--seconds", "0.5", *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric, spec in zip(res["metrics"].values(), SPEC["end_to_end"]):
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_raises_fail_ratio(workload):
    proc = bench("--workload", workload, "--trace", "0", "--smoke", "--corrupt")
    assert proc.returncode == 1
    res = result(proc)
    assert not res["correct"] and res["failed"] >= 1
    assert "fail_ratio" in proc.stdout and "problem:" in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "scalar_sweep", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = result(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["correlations.born_correlations.calls"]["value"] > 0
    assert metrics["joint.admissibility_scan.rows"]["value"] > 0
    assert metrics["trace_coverage"]["value"] >= 0.9


def test_same_seed_gives_same_output_digest():
    digests = {
        next(line for line in bench("--workload", "cli_short", "--trace", "0", "--smoke")
             .stdout.splitlines() if "output sha256" in line)
        for _ in range(2)
    }
    assert len(digests) == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc_long", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
