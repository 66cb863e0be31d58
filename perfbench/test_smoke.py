"""Smoke test of the benchmark at toy shapes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for one second in both modes. The last line must hold
exactly the metrics BENCHMARK.json names for that mode, each with its
unit, and the correctness checks must have run and passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    info = json.loads(info_line)["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if WORKLOADS[workload].selective:
        assert info["stopgrad_norm_rel_err"] <= 1e-10
    if not trace:
        assert result["metrics"]["loss_final"]["value"] < info["first_loss"]
        assert result["metrics"]["peak_bytes"]["value"] > 0
        assert result["metrics"]["activation_bytes"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run exits
    non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0, tiny=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
