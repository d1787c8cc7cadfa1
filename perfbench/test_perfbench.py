"""The benchmark's own tests: tiny runs of every workload.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

Each case runs ``run.py`` as a separate process, on the ``tiny`` size, and
checks the result line against ``BENCHMARK.json``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench("--workload", workload, "--size", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name in units:
            assert result["metrics"][name]["value"] > 0, name


def test_perturbed_reference_trips_the_ingest_gate():
    proc, result = run_bench(
        "--workload", "ingest_1hz", "--size", "tiny", "--trace", "1", "--perturb-reference"
    )
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["error_rate"]["value"] > 0
    assert "hourly_td_matches_reference" in proc.stderr


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run_bench("--workload", "wlr_path", cwd=tmp_path,
                        script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
