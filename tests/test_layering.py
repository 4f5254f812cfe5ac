"""Module boundaries inside the package."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from poincarefp.hypotheses import STATUSES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "poincarefp"
CONFIGS = ROOT / "configs"


def private_uses(path: Path) -> list[str]:
    """Every ``_name`` that the module imports from, or reads off, another
    poincarefp module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").startswith(
                "poincarefp"
            )
            if not ours:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"from {node.module} import {alias.name}")
                elif node.module in (None, "poincarefp"):
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("poincarefp."):
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    offenders = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := private_uses(path))
    }
    assert not offenders


def test_detector_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .hypotheses import _limit_verdict\n"
        "from . import green\n"
        "x = green._sign_changes\n",
        encoding="utf-8",
    )
    assert private_uses(probe) == [
        "from hypotheses import _limit_verdict", "green._sign_changes",
    ]


DENSE = ("barycentric_matrix", "differentiation_matrix")


def named_calls(path: Path, names) -> list[str]:
    """Every call in the module of a function or method named in names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in names:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_no_module_builds_a_dense_matrix():
    # the package reads every interpolant off its Chebyshev coefficients;
    # the dense matrices stay in chebgrid only as test references
    offenders = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := named_calls(path, DENSE))
    }
    assert not offenders


def test_detector_sees_a_dense_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import chebgrid\n"
        "from .chebgrid import differentiation_matrix\n"
        "m = chebgrid.barycentric_matrix(nodes, weights, t)\n"
        "d = differentiation_matrix(nodes, weights)\n",
        encoding="utf-8",
    )
    assert named_calls(probe, DENSE) == [
        "barycentric_matrix (line 3)", "differentiation_matrix (line 4)",
    ]


def test_only_kernelquad_runs_the_recurrence():
    # every integral against the kernel's exponentials goes through
    # kernelquad's per-term scan, so a second way of weighting and
    # scanning the panels cannot appear beside it
    offenders = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if path.name != "kernelquad.py"
        and (calls := named_calls(path, ("recurrence",)))
    }
    assert not offenders


def test_detector_sees_a_recurrence_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import kernelquad\n"
        "from .kernelquad import recurrence\n"
        "a = kernelquad.recurrence(sums, decay, True)\n"
        "b = recurrence(sums, decay, False, 1.0)\n"
        "c = kernelquad.scan(weights, decay, True, values)\n",
        encoding="utf-8",
    )
    assert named_calls(probe, ("recurrence",)) == [
        "recurrence (line 3)", "recurrence (line 4)",
    ]


def scipy_imports(path: Path) -> list[str]:
    """Every import of scipy in the module, at module level or inside a
    function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: every run path imports only numpy
    offenders = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := scipy_imports(path))
    }
    assert not offenders


def test_detector_sees_a_scipy_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from scipy import optimize\n"
        "def f():\n"
        "    import scipy.integrate as si\n"
        "    from scipy.integrate import solve_ivp\n",
        encoding="utf-8",
    )
    assert scipy_imports(probe) == [
        "scipy (line 2)", "scipy.integrate (line 4)",
        "scipy.integrate (line 5)",
    ]


def caught(path: Path, names) -> list[str]:
    """Every ``except`` clause in the module that names an exception in
    names: alone, in a tuple, or as an attribute such as ``errors.X``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        for part in ast.walk(node.type):
            name = part.attr if isinstance(part, ast.Attribute) else getattr(
                part, "id", None)
            if name in names:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_no_module_catches_an_invariance_violation():
    # eta is a hypothesis of the fixed-point theorem, never relaxed: an
    # iterate that leaves its ball fails the solve, and no handler solves
    # again in a larger one.  The coarse start's fallback catches
    # PoincarefpError, and its fine iteration checks the same ball.
    offenders = {
        path.name: handlers
        for path in sorted(SRC.glob("*.py"))
        if (handlers := caught(path, ("InvarianceViolated",)))
    }
    assert not offenders


def test_detector_sees_a_caught_invariance_violation(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "try:\n"
        "    solve()\n"
        "except InvarianceViolated:\n"
        "    solve(eta=0.9)\n"
        "try:\n"
        "    solve()\n"
        "except (MaxIterations, errors.InvarianceViolated) as exc:\n"
        "    raise InvarianceViolated('left') from exc\n"
        "except PoincarefpError:\n"
        "    pass\n"
        "except:\n"
        "    raise\n",
        encoding="utf-8",
    )
    assert caught(probe, ("InvarianceViolated",)) == [
        "InvarianceViolated (line 3)", "InvarianceViolated (line 7)",
    ]


def multipoly_imports(path: Path) -> list[str]:
    """Every import of the exact-polynomial module, in any form."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                           for alias in node.names]
        else:
            continue
        if any("multipoly" in name.split(".") for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_only_reduction_imports_multipoly():
    # the exact algebra is derived once, in reduction; every run path
    # reads its compiled float arrays or the Leibniz rule instead
    offenders = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if path.name != "reduction.py" and (uses := multipoly_imports(path))
    }
    assert not offenders


def test_detector_sees_a_multipoly_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .multipoly import Poly\n"
        "from . import multipoly\n"
        "import poincarefp.multipoly\n"
        "from poincarefp import chebgrid, multipoly as mp\n"
        "from .reduction import build_reduced_rhs\n"
        "multipoly = 'a name, not an import'\n",
        encoding="utf-8",
    )
    assert multipoly_imports(probe) == [
        "line 1", "line 2", "line 3", "line 4",
    ]


PROBLEM = {"problem", "ProblemSpec"}
ALGEBRA = {"table", "spectrum", "kernel", "OmegaTable", "Spectrum",
           "GreenKernel"}
SYSTEM = {"fs", "FundamentalSystem"}


def _kinds(name: str, ann) -> set[str]:
    """A parameter's or field's name and the name its annotation spells."""
    if isinstance(ann, ast.Constant):
        return {name, str(ann.value)}
    if isinstance(ann, ast.Name):
        return {name, ann.id}
    if isinstance(ann, ast.Attribute):
        return {name, ann.attr}
    return {name}


def restated_algebra(path: Path) -> list[str]:
    """Every public function, public method, ``__init__`` or class with
    annotated fields (a dataclass's ``__init__``) that takes a problem next
    to its own algebra (a table, spectrum or kernel), or next to a
    fundamental system, which holds the problem already."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    params = {}  # name -> (line, [(parameter, annotation)])
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            params[node.name] = (node.lineno, node.args)
        elif isinstance(node, ast.ClassDef):
            params[node.name] = (node.lineno, [
                (field.target.id, field.annotation) for field in node.body
                if isinstance(field, ast.AnnAssign)
                and isinstance(field.target, ast.Name)])
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    params[f"{node.name}.{method.name}"] = (method.lineno,
                                                            method.args)
    found = []
    for name, (line, args) in params.items():
        short = name.rsplit(".", 1)[-1]
        if short.startswith("_") and short != "__init__":
            continue
        if isinstance(args, ast.arguments):
            args = [(arg.arg, arg.annotation) for arg in
                    args.posonlyargs + args.args + args.kwonlyargs]
        kinds = set().union(*(_kinds(*arg) for arg in args))
        if kinds & PROBLEM and kinds & (ALGEBRA | SYSTEM):
            found.append(f"{name} (line {line})")
    return found


def test_no_function_takes_the_problem_and_its_algebra():
    # the problem's equation owns its spectrum, table and kernels, and a
    # fundamental system its problem: a second argument for either could
    # disagree with the first and nothing would notice
    offenders = {
        path.name: defs
        for path in sorted(SRC.glob("*.py"))
        if (defs := restated_algebra(path))
    }
    assert not offenders


def test_detector_sees_restated_algebra(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def envelope(problem, spectrum, i): ...\n"
        "class Operator:\n"
        "    def __init__(self, spec: ProblemSpec, omega: 'OmegaTable'):\n"
        "        ...\n"
        "    def apply(self, values, problem, kernel): ...\n"
        "def abel_check(problem, system: FundamentalSystem, t): ...\n"
        "def check_beta(spectrum, i, beta): ...\n"
        "def _helper(problem, table): ...\n"
        "class System:\n"
        "    problem: ProblemSpec\n"
        "    roots: Spectrum\n",
        encoding="utf-8",
    )
    assert restated_algebra(probe) == [
        "envelope (line 1)", "Operator.__init__ (line 3)",
        "Operator.apply (line 5)", "abel_check (line 6)", "System (line 9)",
    ]


def unread_parameters(path: Path) -> list[str]:
    """Every parameter of a function or method in the module that its
    body, nested functions included, never reads; ``self`` and ``cls``
    are excepted."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if arg]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)}
        found += [f"{node.name}: {param} (line {node.lineno})"
                  for param in params
                  if param not in read and param not in ("self", "cls")]
    return found


def test_no_function_keeps_an_unread_parameter():
    # a parameter nothing reads is API that callers must still fill in
    offenders = {
        path.name: params
        for path in sorted(SRC.glob("*.py"))
        if (params := unread_parameters(path))
    }
    assert not offenders


def test_detector_sees_an_unread_parameter(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def estimate(problem, gamma, t_grid):\n"
        "    return problem.table, gamma\n"
        "class Operator:\n"
        "    def apply(self, values, *extra, scale=1.0, **options):\n"
        "        return values * scale\n"
        "    @classmethod\n"
        "    def build(cls, spec):\n"
        "        def inner(s):\n"
        "            return spec(s)\n"
        "        return cls(inner)\n",
        encoding="utf-8",
    )
    assert unread_parameters(probe) == [
        "estimate: t_grid (line 1)", "apply: extra (line 4)",
        "apply: options (line 4)",
    ]


def unread_module_names(paths) -> list[str]:
    """Every name that a module among ``paths`` assigns at module level
    (dunder names excepted) and that no module among them reads, as a
    name or as an attribute.  Filling a name's items, ``D[0] = ...``, is
    not a read of D."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    read = set()
    for tree in trees.values():
        filled = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if id(node) not in filled:
                    read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = getattr(stmt, "targets", None) or [stmt.target]
            found += [f"{name}: {node.id} (line {stmt.lineno})"
                      for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Store)
                      and not node.id.startswith("__")
                      and node.id not in read]
    return found


def test_no_module_level_name_is_unread():
    # a constant or table nothing reads is a mechanism that outlived its
    # use, such as the weights of a removed continuous extension
    assert not unread_module_names(sorted(SRC.glob("*.py")))


def test_detector_sees_an_unread_module_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "N = 3\n"
        "D = np.zeros((N, N))\n"
        "D[0, [1, 2]] = [1.0, 2.0]\n"
        "DENSE_C, KEPT = 0.1, 0.2\n"
        "LIMIT: float = 1.0\n"
        "__version__ = '0'\n"
        "def step():\n"
        "    local = KEPT\n"
        "    return local + LIMIT\n",
        encoding="utf-8",
    )
    assert unread_module_names([probe]) == [
        "probe.py: D (line 3)", "probe.py: DENSE_C (line 5)",
    ]
    reader = tmp_path / "reader.py"
    reader.write_text("from . import probe\n"
                      "print(probe.DENSE_C)\n", encoding="utf-8")
    assert unread_module_names([probe, reader]) == ["probe.py: D (line 3)"]


def unread_fields(paths, readers) -> list[str]:
    """Every annotated field of a class in a module among ``paths`` (the
    fields of a dataclass) whose name no module among ``readers`` reads
    as an attribute, directly or by ``getattr`` with a literal name.
    Fields are matched by name alone, so a read of ``x.value`` keeps every
    field named ``value`` alive; passing a field to the constructor is not
    a read."""
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            found += [f"{path.name}: {cls.name}.{stmt.target.id} "
                      f"(line {stmt.lineno})" for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)
                      and stmt.target.id not in read]
    return found


def test_no_dataclass_field_is_unread():
    # a field nothing reads is state every constructor must still fill
    # in; the benchmark and the tests count as readers
    readers = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "perfbench").rglob("*.py")]
    assert not unread_fields(sorted(SRC.glob("*.py")), readers)


def test_detector_sees_an_unread_field(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Check:\n"
        "    i: int\n"
        "    ratio: float\n"
        "    label: str = ''\n"
        "    LIMIT = 3.0\n"
        "def use():\n"
        "    check = Check(i=1, ratio=2.0, label='x')\n"
        "    return check.ratio\n",
        encoding="utf-8",
    )
    assert unread_fields([probe], [probe]) == [
        "probe.py: Check.i (line 4)", "probe.py: Check.label (line 6)",
    ]
    reader = tmp_path / "reader.py"
    reader.write_text("print(getattr(check, 'label'))\n", encoding="utf-8")
    assert unread_fields([probe], [probe, reader]) == [
        "probe.py: Check.i (line 4)"]


def status_prefix_calls(path: Path) -> list[str]:
    """Every ``startswith`` call in the module whose argument is a string
    literal that begins with a verdict status."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"startswith({node.args[0].value!r}) (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "startswith"
            and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith(STATUSES)]


def test_no_verdict_is_matched_by_prefix():
    # a status is exactly pass, indeterminate or fail; a qualifier such
    # as "numerical" is a note, so nothing needs to read past the status
    offenders = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := status_prefix_calls(path))
    }
    assert not offenders


def test_detector_sees_a_prefix_match(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "ok = verdict.startswith('pass')\n"
        "bad = str(v).startswith(\"fail (\")\n"
        "plain = name.startswith('sigma')\n",
        encoding="utf-8",
    )
    assert status_prefix_calls(probe) == [
        "startswith('pass') (line 1)", "startswith('fail (') (line 2)",
    ]


def modules_after(code: str) -> set[str]:
    """sys.modules of a fresh interpreter after it ran ``code``."""
    script = code + "\nimport sys\nprint('--', *sys.modules, sep='\\n')\n"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split("\n--\n")[-1].splitlines())


def test_pipeline_run_loads_no_scipy(tmp_path):
    modules = modules_after(
        "from poincarefp.cli import main\n"
        f"main(['all', {str(CONFIGS / 'decaying_n2.conf')!r}, "
        f"'--output-dir', {str(tmp_path)!r}])\n"
    )
    assert (tmp_path / "diagnostics.csv").exists()  # verify ran
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_check_does_not_load_numpy_ma(tmp_path):
    modules = modules_after(
        "from poincarefp.cli import main\n"
        f"main(['check', {str(CONFIGS / 'decaying_n2.conf')!r}, "
        f"'--output-dir', {str(tmp_path)!r}])\n"
    )
    assert (tmp_path / "hypotheses.csv").exists()
    assert "numpy.ma" not in modules


def test_benchmark_hooks_find_every_name(tmp_path):
    # perfbench wraps package functions and methods by name, imports
    # others, and calls some while it judges a run: a traced run of every
    # stage, judged as the benchmark judges it, must find all of them
    bench = ROOT / "perfbench"
    script = (
        "import json, subprocess, sys\n"
        "from pathlib import Path\n"
        f"sys.path[:0] = [{str(bench)!r}, {str(SRC.parent)!r}]\n"
        "import checks, workloads\n"
        "stages = workloads.PIPELINE_STAGES\n"
        f"unit = Path({str(tmp_path)!r})\n"
        "workloads.write_config(unit / 'case.conf', 'decaying_n2', 1.0, "
        "'out')\n"
        f"subprocess.run([sys.executable, {str(bench / 'child.py')!r}, "
        "'case.conf', '--stages', ','.join(stages), '--out', 'run.json', "
        "'--trace', 'hooks'], cwd=unit, check=True)\n"
        "result = json.loads((unit / 'run.json').read_text())\n"
        "report = checks.check_problem(unit / 'case.conf', unit / 'out', "
        "stages, result, None)\n"
        "print(report.attempted, report.failures)\n"
        "print(*sorted(result['trace']['totals']), sep='\\n')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    judged, *timed = proc.stdout.splitlines()
    assert judged == "8 []"  # roots, reduce and three stages per root
    assert {"hypotheses.evaluate_hypotheses", "hypotheses.estimate_sigma",
            "green.derivative", "reduction.omega_eval",
            "solver.solve_problem"} <= set(timed)


CENSUS = """
import contextlib, importlib, inspect, io, sys
from functools import cached_property
from pathlib import Path

src, stage, out, *configs = sys.argv[1:]
modules = [importlib.import_module(f"poincarefp.{path.stem}")
           for path in sorted(Path(src).glob("*.py"))
           if path.stem != "__init__"]
from poincarefp.cli import main


def functions(module):
    # module-level functions and class methods, properties included
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("__") and attr.endswith("__"):
                    continue
                if isinstance(member, property):
                    funcs = [member.fget, member.fset, member.fdel]
                elif isinstance(member, cached_property):
                    funcs = [member.func]
                else:
                    funcs = [getattr(member, "__func__", member)]
                yield from ((f"{name}.{attr}", f) for f in funcs
                            if inspect.isfunction(f))


ran = set()


def hook(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(hook)
with contextlib.redirect_stdout(io.StringIO()):
    for k, config in enumerate(configs):
        main([stage, config, "--output-dir", f"{out}/{k}"])
sys.setprofile(None)
for module in modules:
    short = module.__name__.split(".", 1)[1]
    print(*sorted({f"{short}.{name}" for name, func in functions(module)
                   if func.__code__ not in ran}), sep="\\n")
"""


def never_called(stage: str, configs, out: Path) -> set[str]:
    """Every module-level function and class method of the package (no
    nested function, no dunder) that a run of ``stage`` on ``configs``,
    one after another in one interpreter, never calls."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS, str(SRC), stage, str(out),
         *map(str, configs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


# what `all` on the shipped configs and e1_n3 at 801 nodes never calls,
# and why it stays
NOT_ON_THE_RUN_PATH = {
    "chebgrid.barycentric_matrix": "benchmark: perfbench wraps it",
    "chebgrid.differentiation_matrix": "benchmark: perfbench's checks call it",
    "chebgrid.lobatto_weights": "benchmark: perfbench's checks call it",
    "hypotheses.compute_L": "benchmark: perfbench wraps it",
    "hypotheses.compute_R": "benchmark: perfbench wraps it",
    "multipoly.Poly.evaluate": "benchmark: perfbench counts its calls",
    "asymptotics.log_refined_estimate":
        "ROADMAP item 8: a refined-formula row runs it, or it goes",
    "asymptotics.pi_product": "ROADMAP item 8: log_refined_estimate's factor",
    "kernelquad.integral": "ROADMAP item 8: log_refined_estimate's quadrature",
    "oracle.abel_check": "ROADMAP item 9: the k = n plane replaces it",
}


def test_every_function_runs_or_is_listed(tmp_path):
    # a function no stage calls is API nobody runs: it is deleted, moved
    # to the tests, or listed with its reason; a listed name that starts
    # to run must leave the list.  Every shipped grid is coarse, so e1_n3
    # at 801 nodes runs the solver's coarse start too.
    configs = sorted(CONFIGS.glob("*.conf"))
    assert len(configs) == 3
    fine = tmp_path / "e1_n3_801.conf"
    fine.write_text((CONFIGS / "e1_n3.conf").read_text().replace(
        "grid_points = 200", "grid_points = 801"))
    assert "grid_points = 801" in fine.read_text()
    assert never_called("all", configs + [fine], tmp_path) == set(
        NOT_ON_THE_RUN_PATH)


def test_census_sees_what_a_stage_does_not_run(tmp_path):
    unused = never_called("check", [CONFIGS / "decaying_n2.conf"], tmp_path)
    assert "solver.picard_solve" in unused
    assert "hypotheses.evaluate_hypotheses" not in unused
