"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Runs every workload with tracing off and on, and checks that every metric
named in ``BENCHMARK.json`` is printed with its unit, that the correctness
check passes (golden digests included), that the known-defect probe is
printed by name, and that the traced counts match the workload design.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_passes_checks(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, unit in expected.items():
        assert any(l.startswith(f"metric {name} ") and l.endswith(f" {unit}") for l in lines), name
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert '"golden": "checked"' in lines[0]
    assert any(l.startswith("probe conserved-measure-then-cross-window ") for l in lines)
    assert any(l.startswith("wall ") for l in lines)

    if trace:
        v = {name: m["value"] for name, m in result["metrics"].items()}
        assert v["partition.measure_err_max"] <= 1e-9
        if workload == "measure-seq":
            assert v["measurement.measure.calls"] == 2 * 10 * 4
        else:
            assert v["measurement.measure.calls"] == 0
        if workload == "traj-driven":
            assert v["partition.build.calls"] >= 40 and v["partition.extend.calls"] == 0
        if workload == "reads-conserved":
            assert v["partition.build.calls"] <= 5 and v["partition.extend.calls"] >= 40
            assert v["ergodic.reads"] == 300_000


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracer_rebinds_every_namespace():
    sys.path.insert(0, str(ROOT / "src"))
    import qergo.measurement
    import qergo.microstate
    import qergo.partition
    from tracing import Tracer

    original = qergo.partition.build_partition
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = qergo.partition.build_partition
        assert wrapped is not original
        assert qergo.microstate.build_partition is wrapped
        assert qergo.measurement.build_partition is wrapped
        assert qergo.build_partition is wrapped
    finally:
        tracer.uninstall()
    assert qergo.microstate.build_partition is original
    assert qergo.build_partition is original
