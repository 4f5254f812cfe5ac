"""Command-line pipeline: configuration, orchestration, report files.

Subcommands: roots | reduce | check | solve | verify | all.  A stage
returns the statuses of its verdicts (a failed stage: "fail"), which
``exit_code`` folds into 0 (all pass), 2 (one fails) or 3 (none fails,
one is indeterminate); 1 is a usage or configuration error.

The config format is flat ``key = value`` text.  A value is read as a
Python literal: a number, a quoted string or a bracketed list of them;
any other value or list item is kept as its text, so an expression may
go unquoted.  All numeric CSV output uses
the shortest round-trip decimal representation (Python ``repr``) so that
identical inputs reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import asymptotics, oracle
from .errors import (ConfigError, IntegrationFailure, PoincarefpError,
                     QuadratureFailure)
from .hypotheses import Verdict, evaluate_hypotheses, worst
from .problem import Equation, ProblemSpec
from .solver import UNOBSERVED, ode_residual, solve_problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INDETERMINATE = 3

DIAG_T = 50.0  # derivative-ratio and Wronskian time, measured from t0
ORACLE_BOUNDS = {"value": 1e-4, "log-derivative": 1e-3}


@dataclass
class Config:
    problem: ProblemSpec
    output_dir: Path
    # (problem, {root index: solve or its error}) from _solve: the solves
    # hold for that exact problem instance only
    _solved: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)


def _parse_value(text: str):
    """A number, a quoted string or a list of them as Python reads the
    literal; any other value, and any other item of a list, as its text,
    so that an unquoted r expression is kept as written."""
    text = text.strip()
    try:
        node = ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return text
    items = []
    for item in node.elts if type(node) is ast.List else [node]:
        try:
            value = ast.literal_eval(item)
        except (ValueError, TypeError):
            value = None
        if type(value) not in (int, float, str):
            value = ast.get_source_segment(text, item)
        items.append(value)
    return items if type(node) is ast.List else items[0]


def load_config(path) -> Config:
    """Parse and validate a flat key-value config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    raw: dict = {}
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        comment = value.find("#")
        if comment >= 0 and '"' not in value[:comment] \
                and "'" not in value[:comment]:
            value = value[:comment]
        raw[key] = _parse_value(value)

    def take(key, default=None, required=False):
        if key in raw:
            return raw.pop(key)
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def number(key, kind=float):
        """Pop a numeric setting as kind (float or int)."""
        value = raw.pop(key)
        if isinstance(value, (int, float) if kind is float else int):
            return kind(value)
        what = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key} must be {what}, got {value!r}")

    # types only: Equation and ProblemSpec check n and the lengths
    n = take("n", required=True)
    if not isinstance(n, int):
        raise ConfigError(f"n must be an integer, got {n!r}")
    a = take("a", required=True)
    if not isinstance(a, list) or not all(
        isinstance(v, (int, float)) for v in a
    ):
        raise ConfigError("a must be a list of numbers")
    r = take("r", required=True)
    if not isinstance(r, list):
        raise ConfigError("r must be a list of expression strings")
    r = [str(src) for src in r]

    # an absent setting takes ProblemSpec's default
    problem_kwargs = {key: number(key, kind) for key, kind in (
        ("t0", float), ("t_max", float), ("tol", float), ("eta", float),
        ("grid_points", int), ("max_iter", int)) if key in raw}
    output_dir = Path(str(take("output_dir", "out")))
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    try:
        problem = ProblemSpec(
            Equation(n, tuple(float(v) for v in a)),
            r_sources=tuple(r),
            **problem_kwargs,
        )
    except PoincarefpError as exc:
        raise ConfigError(str(exc))
    return Config(problem=problem, output_dir=output_dir)


def _fmt(value) -> str:
    return repr(float(value))


def _render(cells) -> list[str]:
    """The cells as ``csv.writer`` (excel dialect) writes them, each by
    str; a float's str is its repr, the shortest round-trip decimal.  A
    numeric numpy array is rendered in C, through the Python scalars of
    its ``tolist``.  Any other cell goes one by one: a numpy scalar is
    written as the Python value it holds, and text holding a comma, a
    quote or a line break is quoted, its quotes doubled."""
    if isinstance(cells, np.ndarray):
        return list(map(str, cells.tolist()))
    out = []
    for cell in cells:
        text = str(cell.item() if isinstance(cell, np.generic) else cell)
        if any(ch in text for ch in ',"\r\n'):
            text = '"' + text.replace('"', '""') + '"'
        out.append(text)
    return out


def _write_csv(path: Path, header, columns):
    """Write the header and the columns of rendered cells, all of one
    length, as one string: cells joined by commas, every line ended by
    \\r\\n."""
    body = map(",".join, zip(*columns))
    text = "\r\n".join([",".join(_render(header)), *body]) + "\r\n"
    path.write_text(text, encoding="utf-8", newline="")


def exit_code(statuses) -> int:
    """The exit code of the worst of the statuses, EXIT_OK for none."""
    return {"pass": EXIT_OK, "indeterminate": EXIT_INDETERMINATE,
            "fail": EXIT_FAIL}[worst(statuses)]


def cmd_roots(config: Config) -> list[str]:
    try:
        spectrum = config.problem.equation.spectrum
    except PoincarefpError as exc:
        print(f"(H1) fail: {exc}")
        return ["fail"]
    roots_text = ", ".join(_fmt(lam) for lam in spectrum.lam)
    print(f"characteristic roots: {roots_text}")
    print(f"separation: {_fmt(spectrum.separation)}")
    for i, shifted in enumerate(config.problem.equation.shifted, start=1):
        gams = ", ".join(_fmt(g) for g in shifted.gamma)
        print(f"gamma(lambda_{i}): {gams}  [case {shifted.case_index}]")
    print("(H1) pass: roots real and simple")
    return []


def cmd_reduce(config: Config) -> list[str]:
    table = config.problem.equation.table
    out = config.output_dir / "omega_table.txt"
    lines = [
        f"Omega table for n = {config.problem.n}, "
        f"a = ({', '.join(_fmt(v) for v in config.problem.a)})",
        "alpha | Omega_alpha(mu, r)",
    ]
    for alpha, rendered in table.format_rows():
        lines.append(f"{alpha} | {rendered}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(table.table)} coefficients)")
    return []


def cmd_check(config: Config) -> list[str]:
    problem = config.problem
    rows = []
    statuses = []
    for i in range(1, problem.n + 1):
        report = evaluate_hypotheses(problem, i)
        for verdict in report.verdicts:
            print(f"lambda_{i}: ({verdict.quantity}) {verdict}: "
                  f"{verdict.reason}")
            statuses.append(verdict.status)
        r1 = report.verdicts[0]
        rows.append((i, "H1", "", r1.value, r1))
        if r1.status == "fail":
            continue
        for k, samples in enumerate(report.samples):
            verdict = report.parts[min(k, 2)]  # R, L_1, then sum_{k>=2}
            name = f"L_{k}" if k else "R"
            rows += [(i, name, t, value, verdict)
                     for t, value in zip(report.t_grid, samples)]
        rows.append((i, "phi1", "", report.phi1, ""))
        if report.sigma is not None:
            # one sigma serves every shifted root, and it is derived only
            # as divergent
            rows += [(i, f"sigma({_fmt(gam)})", "", report.sigma,
                      "divergent")
                     for gam in problem.equation.shifted[i - 1].gamma]
    _write_csv(
        config.output_dir / "hypotheses.csv",
        ("i", "quantity", "t", "value", "verdict"),
        map(_render, zip(*rows)),
    )
    print(f"wrote {config.output_dir / 'hypotheses.csv'}")
    return statuses


def _solve(config: Config, i: int):
    """Root i's (operator, grid, certificate) for config.problem, or the
    PoincarefpError its solve raised.

    Every root is solved once per problem: the outcome is kept with the
    config and reused until its ``problem`` is replaced."""
    problem = config.problem
    if config._solved is None or config._solved[0] is not problem:
        config._solved = (problem, {})
    solves = config._solved[1]
    if i not in solves:
        try:
            solves[i] = solve_problem(problem, i)
        except PoincarefpError as exc:
            solves[i] = exc.with_traceback(None)  # keeps no solver frame
    return solves[i]


def cmd_solve(config: Config) -> list[str]:
    """Solve the roots one by one and write each z CSV and certificate as
    its root converges; a root whose solve raises is named, and the
    other roots still run."""
    problem = config.problem
    header = ["t", "z"] + [f"z{j}" for j in range(1, problem.n - 1)]
    # every root is solved on the problem's nodes: one t column for all
    t_cells = _render(problem.panel_rule.nodes)
    statuses = []
    for i in range(1, problem.n + 1):
        result = _solve(config, i)
        if isinstance(result, PoincarefpError):
            print(f"solve failed: lambda_{i}: {result}")
            statuses.append("fail")
            continue
        operator, grid, cert = result
        csv_path = config.output_dir / f"z_lambda_{i}.csv"
        _write_csv(csv_path, header, [t_cells, *map(_render, grid.values)])
        cert_path = config.output_dir / f"certificate_{i}.txt"
        cert_path.write_text(cert.format(), encoding="utf-8")
        print(
            f"lambda_{i}: converged in {cert.iterations} iterations, "
            f"residual {_fmt(cert.final_residual)}; wrote {csv_path} and "
            f"{cert_path}"
        )
    return statuses


def cmd_verify(config: Config) -> list[str]:
    """Diagnostics on the solves of every root; reuses those of an
    earlier stage on the same problem.  A root whose solve raised is
    named, and then no row is written."""
    problem = config.problem
    spectrum = problem.equation.spectrum
    results = {i: _solve(config, i) for i in range(1, problem.n + 1)}
    failed = {i: result for i, result in results.items()
              if isinstance(result, PoincarefpError)}
    for i, exc in failed.items():
        print(f"verify: solve stage failed: lambda_{i}: {exc}")
    if failed:
        return ["fail"]
    fs = asymptotics.build_fundamental_system(
        problem, [results[i][1] for i in range(1, problem.n + 1)]
    )
    # every sample point lies inside the solved window [t0, t_max]
    t0, length = problem.t0, problem.t_max - problem.t0
    t_diag = t0 + min(DIAG_T, length)
    t_end = t0 + min(10.0, length)
    window = (t0 + min(10.0, length / 4), t0 + min(100.0, length / 2))
    rows = []

    def record(quantity, i, j, t, value, reference, ok, reason=""):
        """One row; ok None reads indeterminate, for ``reason``."""
        status = "indeterminate" if ok is None else "pass" if ok else "fail"
        rows.append(Verdict(quantity, i, status, reason=reason, j=j, t=t,
                            value=value, reference=reference))

    for i in range(1, problem.n + 1):
        operator, grid, cert = results[i]
        if cert.contraction_ratio is None:
            record("contraction_ratio", i, "", "", "", 1.0, None,
                   UNOBSERVED)
        else:
            record("contraction_ratio", i, "", "", cert.contraction_ratio,
                   1.0, cert.contraction_ratio < 1.0)
        record("picard_residual", i, "", "", cert.final_residual,
               1e-8, cert.final_residual < 1e-8)
        res = ode_residual(operator, grid)
        record("ode_residual", i, "", "", res, 1e-6, res < 1e-6)
        ratio = fs.derivative_ratio(i, 1, t_diag)
        lam = spectrum.lam[i - 1]
        record("derivative_ratio", i, 1, t_diag, ratio, lam,
               abs(ratio - lam) < 0.01)
        try:
            comp = oracle.compare_to_fixed_point(fs, i, t_end)
        except IntegrationFailure as exc:
            # one root's oracle is no reason to drop every other row
            mode = oracle.comparison_mode(i)
            record(f"oracle_{mode}", i, "", t_end, "", ORACLE_BOUNDS[mode],
                   None, str(exc))
        else:
            bound = ORACLE_BOUNDS[comp.mode]
            record(f"oracle_{comp.mode}", i, "", t_end, comp.max_error,
                   bound, comp.max_error < bound)
        lo, hi = asymptotics.admissible_beta_interval(spectrum, i)
        beta = (lo + hi) / 2
        try:
            base, doubled, status = asymptotics.envelope_stability(
                problem, grid, i, beta, window
            )
        except QuadratureFailure as exc:
            # one root's envelope is no reason to drop every other row
            record("envelope_stability", i, "", window[1], "", "", None,
                   str(exc))
        else:
            record("envelope_stability", i, "", window[1],
                   doubled.sup_ratio, base.sup_ratio,
                   status == "pass")

    ratio, vandermonde = asymptotics.wronskian_diagnostic(fs, t_diag)
    record("wronskian_ratio", "", "", t_diag, ratio, vandermonde,
           abs(ratio - vandermonde) <= 0.02 * abs(vandermonde))

    _write_csv(
        config.output_dir / "diagnostics.csv",
        ("quantity", "i", "j", "t", "value", "reference", "verdict"),
        map(_render, zip(*[(v.quantity, v.i, v.j, v.t, v.value, v.reference,
                            v) for v in rows])),
    )
    print(f"wrote {config.output_dir / 'diagnostics.csv'}")
    for v in rows:
        if v.status == "fail":
            print(f"FAIL {v.quantity} i={v.i} value={v.value} "
                  f"ref={v.reference}")
        elif v.status == "indeterminate":
            print(f"INDETERMINATE {v.quantity} i={v.i}: {v.reason}")
    statuses = [v.status for v in rows]
    if worst(statuses) == "pass":
        print("all diagnostics pass")
    return statuses


def cmd_all(config: Config) -> list[str]:
    """Chain every stage.  Hard failures (bad roots, a solve that does
    not converge) stop the pipeline; adverse hypothesis or diagnostic
    verdicts are results, so they are recorded and the chain continues.
    Returns the statuses of every stage that ran."""
    statuses = []
    for name, command, gating in (
        ("roots", cmd_roots, True),
        ("reduce", cmd_reduce, True),
        ("check", cmd_check, False),
        ("solve", cmd_solve, True),
        ("verify", cmd_verify, False),
    ):
        print(f"== {name} ==")
        stage = command(config)
        statuses += stage
        if gating and "fail" in stage:
            print(f"stage {name} failed; stopping")
            break
    return statuses


COMMANDS = {
    "roots": cmd_roots,
    "reduce": cmd_reduce,
    "check": cmd_check,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "all": cmd_all,
}


def run(subcommand: str, config: Config) -> int:
    """Execute one pipeline stage; returns the process exit code."""
    if subcommand not in COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return exit_code(COMMANDS[subcommand](config))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poincarefp",
        description="Fixed-point construction and verification for "
        "Poincare-type equations",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the config file")
    parser.add_argument(
        "--output-dir", default=None, help="override the output directory"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = load_config(args.config)
        if args.output_dir is not None:
            config.output_dir = Path(args.output_dir)
        return run(args.subcommand, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PoincarefpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
