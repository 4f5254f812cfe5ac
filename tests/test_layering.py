"""Module boundaries inside the package."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "poincarefp"


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


def dense_calls(path: Path) -> list[str]:
    """Every call of a dense chebgrid reference matrix in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in DENSE:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_no_module_builds_a_dense_matrix():
    # the package reads every interpolant off its Chebyshev coefficients;
    # the dense matrices stay in chebgrid only as test references
    offenders = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := dense_calls(path))
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
    assert dense_calls(probe) == [
        "barycentric_matrix (line 3)", "differentiation_matrix (line 4)",
    ]
