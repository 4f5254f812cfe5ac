"""Correctness of one child run, judged from the files it wrote.

An operation is one (problem, root, stage); roots and reduce are one
operation per problem.  An operation fails when its stage raised or did
not run, when an expected file is missing or holds a value that does not
parse as a finite number, when a solve did not converge in the default
eta regime, or when the ODE residual exceeds ODE_RESIDUAL_BOUND (the
CLI's own bound).  Adverse check and verify verdicts are results, not
failures; they are collected for the verdict pass share.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from poincarefp import chebgrid
from poincarefp.cli import load_config
from poincarefp.reduction import build_reduced_rhs
from poincarefp.spectral import find_roots, reduced_linear_coefficients

ODE_RESIDUAL_BOUND = 1e-6
PER_PROBLEM_STAGES = ("roots", "reduce")


class CheckFailed(Exception):
    pass


@dataclass
class Report:
    attempted: int = 0
    failures: list = field(default_factory=list)  # (root, stage, reason)
    verdicts: list = field(default_factory=list)  # "pass" or anything else
    residuals: list = field(default_factory=list)  # ODE residual per root

    @property
    def failed(self) -> int:
        return len(self.failures)

    def merge(self, other: "Report") -> None:
        self.attempted += other.attempted
        self.failures += other.failures
        self.verdicts += other.verdicts
        self.residuals += other.residuals


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {text!r}")
    return value


def _read_csv(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"missing {path.name}")
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def ode_residual(problem, mu: float, nodes: np.ndarray,
                 values: np.ndarray) -> float:
    """Relative sup residual of the reduced equation for the iterate read
    back from its CSV; the top derivative comes from spectral
    differentiation, independently of the kernel recurrence."""
    n = problem.n
    dmat = chebgrid.differentiation_matrix(
        nodes, chebgrid.lobatto_weights(len(nodes))
    )
    lhs = dmat @ values[n - 2]
    b = reduced_linear_coefficients(problem.a, mu)
    for j in range(n - 1):
        lhs = lhs + b[j] * values[j]
    rvals = [problem.r_value(k, nodes) for k in range(n)]
    table = build_reduced_rhs(problem.a, n)
    rhs = np.asarray(table.evaluate_rhs(mu, rvals, list(values)), dtype=float)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs((lhs - rhs)[1:-1]))) / scale


class _Problem:
    def __init__(self, config_path: Path, out_dir: Path):
        self.problem = load_config(config_path).problem
        self.out = out_dir
        self.lam = find_roots(self.problem.a).lam

    def roots(self, i, stage, report):
        if stage["code"] != 0 or "(H1) pass" not in stage["stdout"]:
            raise CheckFailed("roots stage did not pass (H1)")

    def reduce(self, i, stage, report):
        path = self.out / "omega_table.txt"
        if not path.is_file() or len(path.read_text().splitlines()) < 3:
            raise CheckFailed("missing or empty omega_table.txt")

    def check(self, i, stage, report):
        rows = [r for r in _read_csv(self.out / "hypotheses.csv")[1:]
                if r[0] == str(i)]
        if not rows or rows[0][1] != "H1":
            raise CheckFailed(f"no hypotheses rows for root {i}")
        for _, quantity, _, value, verdict in rows[1:]:
            if not (quantity.startswith("sigma") and value == "inf"
                    and verdict == "divergent"):
                _finite(value)
        verdicts = re.findall(rf"^lambda_{i}: \(R[123]\) (\w+)",
                              stage["stdout"], flags=re.M)
        if len(verdicts) != 3:
            raise CheckFailed(f"expected 3 verdicts for root {i}")
        report.verdicts += verdicts

    def solve(self, i, stage, report):
        cert_path = self.out / f"certificate_{i}.txt"
        if not cert_path.is_file():
            failed = re.search(r"^solve failed: .*$", stage["stdout"], re.M)
            raise CheckFailed(failed.group(0) if failed
                              else f"missing {cert_path.name}")
        cert = cert_path.read_text(encoding="utf-8")
        if "converged = True" not in cert:
            raise CheckFailed(f"root {i} did not converge")
        if "(default)" not in cert.splitlines()[0]:
            raise CheckFailed(f"root {i} left the default eta regime")
        match = re.search(r"^residual \|\|Tz - z\|\|_0 = (\S+)$", cert, re.M)
        if match is None:
            raise CheckFailed(f"no residual in {cert_path.name}")
        _finite(match.group(1))
        rows = _read_csv(self.out / f"z_lambda_{i}.csv")
        n = self.problem.n
        header = ["t", "z"] + [f"z{j}" for j in range(1, n - 1)]
        if rows[0] != header or len(rows) - 1 != self.problem.grid_points:
            raise CheckFailed(f"z_lambda_{i}.csv has the wrong shape")
        data = np.array([[_finite(x) for x in row] for row in rows[1:]]).T
        expected = chebgrid.lobatto_nodes(self.problem.t0, self.problem.t_max,
                                          self.problem.grid_points)
        if not np.array_equal(data[0], expected):
            raise CheckFailed(f"z_lambda_{i}.csv is not on the solver grid")
        residual = ode_residual(self.problem, self.lam[i - 1], data[0],
                                data[1:])
        report.residuals.append(residual)
        if not residual <= ODE_RESIDUAL_BOUND:
            raise CheckFailed(f"root {i} ODE residual {residual}")

    def verify(self, i, stage, report):
        rows = _read_csv(self.out / "diagnostics.csv")[1:]
        mine = [r for r in rows if r[1] == str(i)]
        shared = [r for r in rows if r[1] == ""]
        quantities = {r[0] for r in mine}
        for name in ("contraction_ratio", "picard_residual", "ode_residual",
                     "derivative_ratio", "envelope_stability"):
            if name not in quantities:
                raise CheckFailed(f"diagnostics.csv lacks {name} for {i}")
        if not shared:
            raise CheckFailed("diagnostics.csv lacks the Wronskian row")
        for quantity, _, _, _, value, _, _ in mine + shared:
            _finite(value)
            if quantity == "ode_residual" and \
                    not float(value) <= ODE_RESIDUAL_BOUND:
                raise CheckFailed(f"root {i} ODE residual {value}")
        report.verdicts += [r[6] for r in mine + (shared if i == 1 else [])]


def check_problem(config_path: Path, out_dir: Path, stages, result,
                  error: str | None) -> Report:
    """Judge every planned operation of one child run.  ``result`` is the
    child's record (None when it wrote none) and ``error`` its stderr
    when it exited abnormally."""
    report = Report()
    ctx = _Problem(config_path, out_dir)
    ran = {s["name"]: s for s in result["stages"]} if result else {}
    for name in stages:
        roots = [None] if name in PER_PROBLEM_STAGES else \
            range(1, ctx.problem.n + 1)
        stage = ran.get(name)
        for i in roots:
            report.attempted += 1
            if stage is None or stage["error"]:
                reason = (stage or {}).get("error") or error or "not run"
                lines = reason.strip().splitlines() or ["failed"]
                report.failures.append((i, name, lines[-1]))
                continue
            try:
                getattr(ctx, name)(i, stage, report)
            except (CheckFailed, ValueError, IndexError) as exc:
                report.failures.append((i, name, str(exc)))
    return report
