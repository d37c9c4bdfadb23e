"""Smoke tests for the benchmark, on its minimal-size ``--quick`` inputs.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_the_contract_result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in metrics
    }
    report = json.loads(lines[-2])["report"]
    if trace:
        for name, m in result["metrics"].items():
            assert report["per_layer"][name] == m
    assert report["env"]["mpmath_backend"]
    assert report["metrics"]["failed_share"]["value"] == 0


def test_same_seed_gives_the_same_verdict_digest():
    digests = set()
    for _ in range(2):
        proc = _run("--workload", "classify", "--seed", "5", "--seconds", "0.2", "--quick")
        digests.add(json.loads(proc.stdout.strip().splitlines()[-2])["report"]["checks"]["verdict_digest"])
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_a_different_backend(tmp_path):
    report = {"workload": "orbit", "metrics": {"ops_per_s": {"value": 10.0, "unit": "1/s"}},
              "env": {"python": "3.11.7", "mpmath": "1.3.0", "mpmath_backend": "python"}}
    (tmp_path / "a.txt").write_text(json.dumps({"report": report}) + "\n")
    report["env"]["mpmath_backend"] = "gmpy"
    (tmp_path / "b.txt").write_text(json.dumps({"report": report}) + "\n")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "NOT COMPARABLE" in proc.stdout
