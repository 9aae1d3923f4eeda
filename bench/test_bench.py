"""Checks of the benchmark harness itself, in quick mode (tiny inputs).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, \
        proc.stderr
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_emits_every_metric_of_every_workload(trace):
    result = _result(_run("--workload", "all", "--quick", "--trace", str(trace)))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in wanted}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_single_workload_reports_exactly_the_end_to_end_metrics():
    result = _result(_run("--workload", "derive-sweep", "--quick", "--seed", "5"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_tracer_restores_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer
    import thermolb.cli
    import thermolb.simulator

    original = thermolb.simulator.run
    with Tracer() as tracer:
        assert thermolb.simulator.run is not original
        assert thermolb.cli.run is thermolb.simulator.run
    assert thermolb.simulator.run is original and thermolb.cli.run is original
    assert tracer.spans == []


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "tube-large", "--quick", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
