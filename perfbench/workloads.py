"""Seeded workloads: problem families and the config files drawn from them.

A family is one shipped problem of ``configs/`` with the amplitude of its
r_0 perturbation left free.  A seed fixes a ``random.Random`` stream; each
unit of work draws one amplitude per family of the workload, uniformly
from AMPLITUDE_RANGE times the shipped value, and the program under test
receives only the config file written from that draw.  The range is the
one in which every root of every family converges in the default
eta = 0.5 regime (see perfbench/tests/test_perfbench.py).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

AMPLITUDE_RANGE = (0.5, 1.5)

# shipped problems; "{amp}" marks the scaled r_0 amplitude
FAMILIES = {
    "decaying_n2": dict(n=2, a="[-1, 0]", r0="{amp}*exp(-3*t)/10",
                        t_max=120.0, grid_points=160),
    "e1_n3": dict(n=3, a="[-6, 11, -6]", r0="{amp}/(1+t)^3",
                  t_max=220.0, grid_points=200),
    "spread_n4": dict(n=4, a="[4, 0, -5, 0]", r0="{amp}/(2*(1+t)^4)",
                      t_max=160.0, grid_points=200),
}

PIPELINE_STAGES = ("roots", "reduce", "check", "solve", "verify")


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]
    stages: tuple[str, ...]
    grid_points: int | None = None  # overrides the shipped grid


WORKLOADS = {
    # the ordinary user path: every layer takes part, small grids
    "pipeline": Workload("pipeline", ("decaying_n2", "e1_n3"),
                         PIPELINE_STAGES),
    # scalar quadrature in hypotheses/reduction/multipoly, no solver code;
    # one problem takes 30-44 s, jagged in the amplitude, so a run holds a
    # single problem and its time is not steady across seeds
    "check_n4": Workload("check_n4", ("spread_n4",), ("check",)),
    # the dense interpolation matrix of the solver at large N; no quad
    "solve_fine": Workload("solve_fine", ("e1_n3",), ("solve",),
                           grid_points=1600),
}


def draw_amplitudes(rng: random.Random, workload: Workload) -> dict:
    """One amplitude per family of the workload, in family order."""
    lo, hi = AMPLITUDE_RANGE
    return {family: rng.uniform(lo, hi) for family in workload.families}


def config_text(family: str, amplitude: float, output_dir: str,
                grid_points: int | None = None) -> str:
    spec = FAMILIES[family]
    n = spec["n"]
    r = [spec["r0"].format(amp=repr(amplitude))] + ["0"] * (n - 1)
    lines = [
        f"# {family} family, r_0 amplitude {amplitude!r} x shipped",
        f"n = {n}",
        f"a = {spec['a']}",
        "r = [" + ", ".join(f'"{src}"' for src in r) + "]",
        "t0 = 0.0",
        f"t_max = {spec['t_max']!r}",
        f"grid_points = {grid_points or spec['grid_points']}",
        "tol = 1e-10",
        "eta = 0.5",
        "max_iter = 80",
        f"output_dir = {output_dir}",
    ]
    return "\n".join(lines) + "\n"


def write_config(path: Path, family: str, amplitude: float, output_dir: str,
                 grid_points: int | None = None) -> str:
    """Write the generated config; returns its sha256."""
    text = config_text(family, amplitude, output_dir, grid_points)
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
