"""Smoke tests: the shipped examples must run end-to-end, and every
example and paper benchmark must at least import."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
BENCHMARKS = ROOT / "benchmarks"


@pytest.mark.parametrize(
    "path",
    sorted(EXAMPLES.glob("*.py")) + sorted(BENCHMARKS.glob("bench_*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_module_imports(path, monkeypatch):
    """Catches a script that names something the library no longer has,
    including the ones no other test or CI job runs."""
    if path.parent == BENCHMARKS:
        monkeypatch.syspath_prepend(str(ROOT))
        importlib.import_module(f"benchmarks.{path.stem}")
        return
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "fitted theta_sys" in out
    assert "SPEEDUP table" in out


def test_scheduler_comparison_runs():
    out = run_example(
        "scheduler_comparison.py", "--jobs", "4", "--nodes", "2", "--hours", "0.5"
    )
    assert "avg JCT relative to Pollux" in out
    assert "pollux" in out


def test_heterogeneous_cluster_runs():
    out = run_example("heterogeneous_cluster.py", "--jobs", "4", "--hours", "0.5")
    assert "per-type SPEEDUP table" in out
    assert "v100" in out
    assert "per-type GPU utilization" in out


def test_live_scheduler_runs():
    out = run_example(
        "live_scheduler.py", "--jobs", "2", "--time-scale", "2400"
    )
    assert "starting live host" in out
    assert "scheduling rounds" in out
    assert "live host done" in out


def test_live_scheduler_replay_agrees():
    out = run_example("live_scheduler.py", "--replay", "--jobs", "4")
    assert "bit-for-bit agreement" in out


def test_service_client_runs():
    out = run_example("service_client.py")
    assert "research over quota: 429" in out
    assert "cross-tenant read: 404" in out
    assert "complete: jct=" in out
    assert "service stopped" in out
