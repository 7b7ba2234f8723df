"""Tiny-size smoke run of every workload, traced and untraced.

Checks only that each run succeeds, emits every metric BENCHMARK.json
names for its mode, and fails no operation; no timing is gated.  Run with
``python3 -m pytest benchmark/test_smoke.py`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.splitlines()[-2])["record"]
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], record["failures"]
    assert record["failed_frac"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in DECLARED[kind]]
    for m in DECLARED[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(record["unmeasured_layers"]) == {"stream", "cli"}
    assert not {"gbsample.stream", "gbsample.cli"} & set(record["gbsample_modules"])


def test_fails_without_sources(tmp_path):
    """Outside a source tree the benchmark exits non-zero and prints no result."""
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for f in (ROOT / "benchmark").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
