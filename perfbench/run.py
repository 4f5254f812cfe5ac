"""Benchmark of the poincarefp pipeline on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S
        --trace {0,1}

NAME is a key of workloads.WORKLOADS (pipeline, check_n4, solve_fine);
BENCHMARK.json lists the ones whose figures are steady enough to gate a
change.

Run from the root of a source checkout; the package is imported from
``src/``.  Every problem runs in a fresh interpreter (perfbench/child.py),
because every CLI call pays import and BLAS warm-up.  All workloads are
closed loop: one client, one problem at a time, stages in sequence.

``--trace 0`` measures end-to-end metrics.  It runs units of work until
another unit would pass ``--seconds``.  A unit is one problem of each
family of the workload, with r_0 amplitudes drawn from the seed.  wall_s
is the median over units of the time spent in stage calls; setup_s is the
median over interpreters of the time from spawn to the first stage call.

``--trace 1`` repeats the seed's first unit untraced and traced (see
trace_run) and reports per-layer self times, exact counts, the tracing
overhead and the solve time with default and single-threaded BLAS.

Both modes check every output (perfbench/checks.py), print a report and
an environment record, write perfbench/results/<workload>-seed<N>-
trace<T>.json, and print the result as one JSON line last.  Metric names
and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, draw_amplitudes, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = HERE / "work" / str(os.getpid())  # per process: runs may overlap
RESULTS = HERE / "results"
RUN_TIMEOUT = 170.0  # seconds; a whole run must end within 180
LAYERS = ("cli", "hypotheses", "reduction", "green", "chebgrid", "solver",
          "asymptotics", "oracle")
COUNTERS = ("problem.r_value.calls", "multipoly.evaluate.calls",
            "hypotheses.quad.calls", "hypotheses.quad.integrand_evals",
            "asymptotics.quad.integrand_evals", "chebgrid.interp_bytes",
            "solver.picard_iterations", "oracle.nfev")


@dataclass
class ChildRun:
    family: str
    amplitude: float
    config_sha256: str
    result: dict | None
    setup_s: float | None
    report: object  # checks.Report

    def stage_seconds(self) -> dict:
        if self.result is None:
            return {}
        return {s["name"]: s["seconds"] for s in self.result["stages"]}


def run_child(workload, family, amplitude, unit_dir: Path, stages,
              deadline: float, trace_id=None, env=None) -> ChildRun:
    import checks  # needs src/ on sys.path, set up by main

    config = unit_dir / f"{family}.conf"
    out_name = f"out_{family}"
    sha = write_config(config, family, amplitude, out_name,
                       workload.grid_points)
    result_path = unit_dir / f"{family}.result.json"
    cmd = [sys.executable, str(CHILD), config.name, "--stages",
           ",".join(stages), "--out", result_path.name]
    if trace_id is not None:
        cmd += ["--trace", f"{trace_id}-{family}"]
    error = None
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=unit_dir, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - spawned))
        if proc.returncode != 0:
            error = proc.stderr or f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = "child timed out"
    result = None
    if error is None and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    setup = result["first_stage"] - spawned if result else None
    report = checks.check_problem(config, unit_dir / out_name, stages,
                                  result, error)
    return ChildRun(family, amplitude, sha, result, setup, report)


def run_unit(workload, amplitudes: dict, unit_dir: Path, deadline: float,
             stages=None, trace_id=None, env=None) -> list[ChildRun]:
    """One problem per family, each in its own interpreter, in a fresh
    directory so that no earlier output can pass a check."""
    shutil.rmtree(unit_dir, ignore_errors=True)
    unit_dir.mkdir(parents=True)
    return [
        run_child(workload, family, amp, unit_dir,
                  workload.stages if stages is None else stages,
                  deadline, trace_id, env)
        for family, amp in amplitudes.items()
    ]


def unit_wall(runs) -> float:
    return sum(sum(r.stage_seconds().values()) for r in runs)


def unit_stage(runs, stage: str) -> float | None:
    times = [r.stage_seconds().get(stage) for r in runs]
    times = [t for t in times if t is not None]
    return sum(times) if times else None


def merged_report(runs):
    import checks

    report = checks.Report()
    for run in runs:
        report.merge(run.report)
    return report


def repeat(body, seconds: float, start: float, deadline: float) -> None:
    """Call ``body`` once, then again while another call is expected to
    end within ``seconds`` of ``start`` and before ``deadline``."""
    durations = []
    while True:
        began = time.monotonic()
        body()
        durations.append(time.monotonic() - began)
        expected_end = time.monotonic() + statistics.mean(durations)
        if expected_end - start > seconds or expected_end > deadline:
            return


def measure(workload, seed: int, seconds: float):
    """Untraced run: units of work until ``seconds``."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT
    rng = random.Random(seed)
    units = []
    repeat(lambda: units.append(run_unit(
        workload, draw_amplitudes(rng, workload),
        WORK / f"unit{len(units)}", deadline)), seconds, start, deadline)

    runs = [r for unit in units for r in unit]
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    report = merged_report(runs)
    walls = [unit_wall(unit) for unit in units]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((r.result["max_rss_kb"] for r in runs
                            if r.result), default=0) / 1024,
    }
    extra = {}
    for stage in ("check", "solve", "verify"):
        times = [unit_stage(unit, stage) for unit in units]
        times = [t for t in times if t is not None]
        if times:
            extra[f"{stage}_s"] = (statistics.median(times), "s")
    extra["failed_frac"] = (report.failed / max(report.attempted, 1), "ratio")
    if report.residuals:
        extra["ode_residual_max"] = (max(report.residuals), "ratio")
    if report.verdicts:
        passed = sum(v.startswith("pass") for v in report.verdicts)
        extra["verdict_pass_frac"] = (passed / len(report.verdicts), "ratio")
    extra["unit_walls"] = ([round(w, 4) for w in walls], "s")
    extra["setup_samples"] = (len(setups), "count")
    return values, extra, report, runs, []


def _merge_traces(runs):
    totals, counts, spans = {}, {}, []
    for run in runs:
        trace = (run.result or {}).get("trace")
        if not trace:
            continue
        for name, tot in trace["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "self_ns": 0})
            acc["calls"] += tot["calls"]
            acc["self_ns"] += tot["self_ns"]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        spans += trace["spans"]
    return totals, counts, spans


def layer_value(name: str, totals: dict, counts: dict):
    """A per-layer metric by naming rule: counters by name, ``X.calls``
    and ``X.s`` (self seconds) of the timed call X, ``L.self_s`` of every
    timed call of layer L."""
    if name in COUNTERS:
        return counts.get(name, 0)
    base, _, kind = name.rpartition(".")
    if kind == "calls":
        return totals.get(base, {}).get("calls", 0)
    if kind == "s":
        return totals.get(base, {}).get("self_ns", 0) / 1e9
    if kind == "self_s" and base in LAYERS:
        return sum(t["self_ns"] for n, t in totals.items()
                   if n.startswith(base + ".")) / 1e9
    raise KeyError(f"no rule for per-layer metric {name!r}")


def trace_run(workload, seed: int, names, seconds: float):
    """Traced run on the seed's first unit.  Each repetition runs it
    untraced, then traced, then, where the workload solves, its solve
    stage with the default BLAS threading and with OPENBLAS_NUM_THREADS=1
    set on that child only; repetitions go on until ``seconds``.  Times
    are medians over repetitions; counts, self times and spans come from
    the first traced unit, so they repeat exactly for a seed."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT
    amps = draw_amplitudes(random.Random(seed), workload)
    single = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    reps = []

    def repetition():
        k = len(reps)
        units = {
            "plain": run_unit(workload, amps, WORK / f"plain{k}", deadline),
            "traced": run_unit(workload, amps, WORK / f"traced{k}",
                               deadline, trace_id=f"{workload.name}-{seed}-{k}"),
        }
        if "solve" in workload.stages:
            units["blas1"] = run_unit(workload, amps, WORK / f"blas1{k}",
                                      deadline, stages=("solve",), env=single)
            units["blasdef"] = run_unit(workload, amps, WORK / f"blasdef{k}",
                                        deadline, stages=("solve",))
        reps.append(units)

    repeat(repetition, seconds, start, deadline)

    def median(kind, value):
        values = [value(rep[kind]) for rep in reps if kind in rep]
        return statistics.median(values) if values else 0.0

    plain = median("plain", unit_wall)
    traced = median("traced", unit_wall)
    totals, counts, spans = _merge_traces(reps[0]["traced"])
    calls = counts.get("problem.r_value.calls", 0)
    special = {
        "problem.r_value.scalar_frac":
            counts.get("problem.r_value.scalar_calls", 0) / calls
            if calls else 0.0,
        "trace.overhead_s": traced - plain,
        "trace.overhead_frac": (traced - plain) / plain if plain else 0.0,
        "blas1.solve_s":
            median("blas1", lambda unit: unit_stage(unit, "solve") or 0.0),
        "blasdef.solve_s":
            median("blasdef", lambda unit: unit_stage(unit, "solve") or 0.0),
    }
    values = {
        name: special[name] if name in special
        else layer_value(name, totals, counts)
        for name in names
    }
    extra = {
        "untraced_wall_s": (plain, "s"),
        "traced_wall_s": (traced, "s"),
        "repetitions": (len(reps), "count"),
    }
    runs = [r for rep in reps for unit in rep.values() for r in unit]
    return values, extra, merged_report(runs), runs, spans


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(runs) -> dict:
    import numpy
    import scipy

    config = getattr(numpy, "__config__", None)
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in
                         ("name", "version", "openblas configuration")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "config_sha256": sorted({r.config_sha256 for r in runs}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "poincarefp" / "__init__.py").is_file():
        print(f"error: no poincarefp sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    if args.trace:
        values, extra, report, runs, spans = trace_run(
            workload, args.seed, list(units), args.seconds)
    else:
        values, extra, report, runs, spans = measure(
            workload, args.seed, args.seconds)
    shutil.rmtree(WORK, ignore_errors=True)

    env = environment(runs)
    amps = ", ".join(f"{r.family} x{r.amplitude:.4f}" for r in runs[:6])
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs)} problems ({amps}{', ...' if len(runs) > 6 else ''})")
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value!r} {unit}")
    for root, stage, reason in report.failures:
        print(f"  FAILED {stage} root {root}: {reason}")
    print(f"env {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, environment=env,
                  report={k: v for k, (v, _) in extra.items()},
                  failures=report.failures, spans=spans)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
