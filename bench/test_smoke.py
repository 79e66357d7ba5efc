"""Smoke test of the benchmark: every workload shrunk to one op at small N.

    python -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 1 + trace
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, m["name"]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if trace:
        assert lines[-2].startswith("absent: ")
        absent = json.loads(lines[-2][len("absent: "):])
        assert set(absent) <= set(result["metrics"])
        assert all(absent.values())
    assert "failed_frac=" in proc.stdout


def test_missing_layer_function_is_reported_absent(tmp_path, monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import spans
    import workloads
    from ripl_lab import cli

    gone = ("ripl_lab.ripl", "a_function_that_was_deleted", "jacobi.eig", None)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (gone,))
    wl = workloads.make("certify-fh32", smoke=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, cli.main, wl.argv(config, 5, tmp_path / "out"))
    finally:
        tracer.uninstall()
    assert code == 0
    reason, info = wl.check(tmp_path / "out", 5, {})
    assert reason is None
    layer = spans.layer_metrics(tracer, {0: info}, [1.0], [1.0])
    assert "a_function_that_was_deleted" in layer["jacobi.eig_s"][2]
    assert "a_function_that_was_deleted" in layer["jacobi.matrices"][2]
    assert layer["levels.supports"][2] is None and layer["levels.supports"][0] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
