"""Toy-scale self-check of the benchmark harness.

Runs ``perfbench/run.py --smoke`` end to end (server spawn, identity
gate, durability check, metric names against ``BENCHMARK.json``) in a
few seconds per workload.  Not collected by the repository's test suite;
run it explicitly::

    python3 -m pytest -q perfbench/check_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _summary(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    return summary


def _units(entries: list[dict]) -> dict:
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", ["explore", "panel-exact", "ingest"])
def test_timed_run_reports_every_end_to_end_metric(workload):
    summary = _summary(_run("--smoke", "--workload", workload,
                            "--seed", "3", "--seconds", "2", "--trace", "0"))
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    summary = _summary(_run("--smoke", "--workload", "ingest",
                            "--seed", "3", "--seconds", "2", "--trace", "1"))
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    assert all(v["value"] is not None for v in summary["metrics"].values())


def test_fails_without_the_program():
    """A directory holding only the benchmark exits non-zero, no result."""
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "explore", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
