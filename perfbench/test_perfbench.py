"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMING_UNITS = ("s", "ns", "ms", "1/s")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """The benchmark at its smallest size: one timed call (or figure pass)."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = result(run(workload, seed=3, trace=0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_quality(workload):
    first, second = (result(run(workload, seed=5, trace=1)) for _ in range(2))
    assert [(k, v["unit"]) for k, v in first["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    assert first["correct"] is True and first["attempted"] == second["attempted"]
    exact = {
        k: v["value"]
        for k, v in first["metrics"].items()
        if v["unit"] not in TIMING_UNITS and k != "trace.overhead_frac"
    }
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    assert first["metrics"]["cli.main.self_s"]["value"] > 0


def test_lm_workloads_bypass_rnf_and_figures_use_it():
    lm = result(run("heart-lm", seed=1, trace=1))["metrics"]
    fig = result(run("figures", seed=1, trace=1))["metrics"]
    assert lm["rnf.rnf_exp.calls"]["value"] == 0
    assert lm["network.jacobian.calls"]["value"] > 0
    assert fig["rnf.rnf_exp.calls"]["value"] > 0
    assert fig["bench.dump_curves.self_s"]["value"] > 0
    assert 0 < fig["rnf.max_rel_err"]["value"] <= 5e-5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*", "traces"))
    proc = run("synthetic-lm", seed=0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children():
    sys.path.insert(0, str(HERE))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(HERE))

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        layer.inner()

    layer = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.patch(layer, "inner", "inner")
    tracer.patch(layer, "outer", "outer")
    layer.outer()
    tracer.restore()
    assert layer.inner is inner and layer.outer is outer
    assert tracer.calls == {"inner": 1, "outer": 1}
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
    assert inner_parent == outer_id and outer_parent is None
    assert tracer.total_s["outer"] >= 0.03
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])
    assert 0.01 <= tracer.self_s["outer"] < 0.02


def test_host_speed_brackets_each_call():
    sys.path.insert(0, str(HERE))
    try:
        from hostspeed import HostSpeed
    finally:
        sys.path.remove(str(HERE))

    host = HostSpeed()
    first = host.mark()
    assert host.mark() == first  # less than REMEASURE_S later: shared
    host.close()
    assert len(host.factors) == 2
    assert host.factor(first) == pytest.approx(sum(host.factors) / 2)
    assert 0.05 < host.factor(first) < 20
