"""Shared fixtures: the golden third-order problem and its solves."""

from __future__ import annotations

import time

import pytest

from poincarefp.asymptotics import build_fundamental_system
from poincarefp.problem import Equation, ProblemSpec
from poincarefp.solver import solve_problem


@pytest.fixture(scope="session")
def e1_problem() -> ProblemSpec:
    """y''' - 6y'' + 11y' + (-6 + (1+t)^-3) y = 0, spectrum (3, 2, 1)."""
    return ProblemSpec(
        Equation(3, (-6.0, 11.0, -6.0)),
        r_sources=("1/(1+t)^3", "0", "0"),
        t0=0.0,
        t_max=220.0,
        grid_points=200,
    )


@pytest.fixture(scope="session")
def e1_solves(e1_problem):
    """(results, elapsed seconds): results[i] = (operator, grid,
    certificate) for i = 1..3."""
    start = time.perf_counter()
    results = {i: solve_problem(e1_problem, i) for i in (1, 2, 3)}
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.fixture(scope="session")
def e1_system(e1_problem, e1_solves):
    results, _ = e1_solves
    return build_fundamental_system(
        e1_problem, [results[i][1] for i in (1, 2, 3)]
    )


@pytest.fixture(scope="session")
def trivial_problem() -> ProblemSpec:
    """Same spectrum as the golden problem but r identically zero."""
    return ProblemSpec(
        Equation(3, (-6.0, 11.0, -6.0)),
        r_sources=("0", "0", "0"),
        t0=0.0,
        t_max=120.0,
        grid_points=120,
    )
