"""Tests of the benchmark itself: seeds, negative control, exact counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import (AMPLITUDE_RANGE, FAMILIES, WORKLOADS,  # noqa: E402
                       Workload, draw_amplitudes, write_config)

from poincarefp.cli import load_config  # noqa: E402
from poincarefp.solver import solve_problem  # noqa: E402

EXACT_COUNTS = ("hypotheses.quad.integrand_evals", "multipoly.evaluate.calls",
                "solver.picard_iterations", "solver.solve_problem.calls")


def _amplitudes_in_use(family: str, seeds=range(10)) -> set:
    amps = set(AMPLITUDE_RANGE)
    for workload in WORKLOADS.values():
        if family in workload.families:
            for seed in seeds:
                rng = random.Random(seed)
                for _ in range(3):  # the first units of a run
                    amps.add(draw_amplitudes(rng, workload)[family])
    return amps


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeds_converge_in_default_eta_regime(family, tmp_path):
    for amp in sorted(_amplitudes_in_use(family)):
        write_config(tmp_path / "c.conf", family, amp, "out")
        problem = load_config(tmp_path / "c.conf").problem
        for i in range(1, problem.n + 1):
            _, _, cert = solve_problem(problem, i)
            assert cert.eta_regime == "default", (family, amp, i)


def test_fine_grid_range_ends_converge_in_default_eta_regime(tmp_path):
    grid = WORKLOADS["solve_fine"].grid_points
    for amp in AMPLITUDE_RANGE:
        write_config(tmp_path / "c.conf", "e1_n3", amp, "out", grid)
        problem = load_config(tmp_path / "c.conf").problem
        for i in range(1, problem.n + 1):
            _, _, cert = solve_problem(problem, i)
            assert cert.eta_regime == "default", (amp, i)


def test_negative_control_counts_failed_operations(tmp_path):
    # amplitude 4.0 leaves the eta = 0.9 ball on lambda_2, so the solve
    # stage fails and none of its three operations may count as done
    workload = Workload("control", ("e1_n3",), ("solve",))
    runs = run.run_unit(workload, {"e1_n3": 4.0}, tmp_path / "unit",
                        time.monotonic() + 120)
    report = run.merged_report(runs)
    assert report.attempted == 3
    assert report.failed / report.attempted > 0


def test_shipped_amplitude_passes_every_check(tmp_path):
    workload = Workload("shipped", ("decaying_n2",), WORKLOADS[
        "pipeline"].stages)
    runs = run.run_unit(workload, {"decaying_n2": 1.0}, tmp_path / "unit",
                        time.monotonic() + 120)
    report = run.merged_report(runs)
    assert report.attempted == 2 + 3 * 2
    assert report.failures == []
    assert report.residuals and max(report.residuals) < 1e-6


def _traced_metrics(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pipeline",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_counts_repeat_exactly():
    first = _traced_metrics(5)
    second = _traced_metrics(5)
    for name in EXACT_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("work", "results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recorder_self_time_and_parents():
    rec = Recorder("r")
    inner = rec.timed("b.inner", lambda: time.sleep(0.01))

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    with rec.span("a.top"):
        rec.timed("a.outer", outer, keep=True)()
    data = rec.to_json()
    top, out, inn = (data["totals"][k] for k in ("a.top", "a.outer",
                                                   "b.inner"))
    assert inn["calls"] == 2
    assert out["self_ns"] == out["total_ns"] - inn["total_ns"]
    assert top["self_ns"] == top["total_ns"] - out["total_ns"]
    spans = {s["name"]: s for s in data["spans"]}
    assert set(spans) == {"a.top", "a.outer"}  # b.inner keeps no span
    assert spans["a.top"]["parent"] is None
    assert spans["a.outer"]["parent"] == spans["a.top"]["id"]
    assert all(s["run"] == "r" for s in data["spans"])
