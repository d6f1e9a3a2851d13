"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import check_output, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children A [1, 4] and B [3.5, 6], which overlap, and
    # C [9, 12], which runs past its parent; A has a child A1 [2, 3]
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.5, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    got = self_times(parent, start, end)
    # root: 10 minus the union [1, 6] and the clipped [9, 10]
    assert got == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_patches_every_import_and_restores():
    from qnls import experiments, flow
    from qnls.flow import FlowParams
    from qnls.spectral import FourierField, GridSpec

    original = flow.step
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.step is flow.step is not original
        grid = GridSpec(modes=4)
        u = FourierField(grid, np.full(9, 0.1 + 0j))
        tracer.call("root", experiments.step, u, FlowParams())
    finally:
        tracer.uninstall()
    assert experiments.step is flow.step is original
    totals = tracer.totals()
    assert totals["flow.step"][0] == 1
    assert totals["flow.rhs"][0] == 4
    assert totals["spectral.synthesize"][0] == totals["spectral.analyze"][0] == 4
    assert dict(tracer.fft_calls) == {grid.quintic_pad(): 8}
    root_span = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert sum(busy for _, busy in totals.values()) == pytest.approx(root_span)


def test_check_output_reports_each_kind_of_problem(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("a,b\n")
    digest = hashlib.sha256(data.read_bytes()).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps({"files": {"data.csv": digest}}))
    verdict = SimpleNamespace(name="v", passed=True)
    good = SimpleNamespace(error=None, verdicts=[verdict])
    assert check_output(good, tmp_path, {"v": True}) == []
    assert len(check_output(good, tmp_path, {"v": False})) == 1
    broken = SimpleNamespace(error="ValueError: x", verdicts=[verdict])
    assert len(check_output(broken, tmp_path, {"v": True})) == 1
    data.write_text("changed\n")
    assert len(check_output(good, tmp_path, {"v": True})) == 1


def test_run_pass_counts_a_raising_run_as_failed(tmp_path, monkeypatch):
    from qnls.config import default_config

    def boom(cfg):
        raise RuntimeError("no output")

    monkeypatch.setattr(worker, "OUT", tmp_path)
    steps = [("conservation", default_config("conservation"), {}, 1.0)]
    walls, problems, written = run_pass(steps, boom)
    assert list(walls) == ["conservation"]
    assert len(problems) == 1 and "RuntimeError: no output" in problems[0]
    assert written == 0 and list(tmp_path.iterdir()) == []


def test_times_are_rescaled_by_the_calibration_next_to_them():
    ref = run.CAL_REF_S
    # the host slows after the first pass and recovers after the second:
    # the three passes are matched to calibrations of ref, 1.5 ref and 1.5 ref
    segment = {
        "setup_s": 0.5,
        "calibration": [ref, ref, 2 * ref, ref],
        "untraced": [{"a": 1.0, "b": 1.0}, {"a": 2.0, "b": 1.0}, {"a": 1.5, "b": 1.5}],
        "attempted": 6,
        "problems": [],
        "units": 10.0,
        "peak_rss_mb": 50.0,
    }
    m = run.measure([segment], trace=0)
    assert m["wall_s"] == pytest.approx(2.0)
    assert m["setup_s"] == pytest.approx(0.5)
    assert m["work_per_s"] == pytest.approx(5.0)
    # the same work on a host twice as slow throughout reads the same
    slow = dict(
        segment,
        setup_s=1.0,
        calibration=[2 * c for c in segment["calibration"]],
        untraced=[{k: 2 * v for k, v in p.items()} for p in segment["untraced"]],
    )
    assert run.measure([slow], trace=0) == pytest.approx(m)


def _bench(cwd: Path, *args: str):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"  {m['name']} = " in proc.stdout
    assert lines[0].startswith("machine: ")
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= set(
        json.loads(lines[0].split(": ", 1)[1])
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        tmp_path, "--workload", "fields", "--seed", "0", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
