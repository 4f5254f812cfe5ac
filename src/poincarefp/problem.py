"""Problem container: an equation, its perturbation, the window and the
numerical parameters.

An ``Equation`` is the order n and the constant coefficients a_0..a_{n-1};
the change of variables depends on nothing else, so it owns the
``spectrum``, the Omega ``table`` and each root's ``shifted`` spectrum
and Green ``kernels``, derived once, on first use.  A failed spectrum
raises again on every access (and so do the values built on it), as a
raise is not cached.
A ``ProblemSpec`` adds the perturbations r_0..r_{n-1} (expression sources
of t, parsed on construction and required to be finite at the grid's
nodes), the window [t0, t_max] and the tuning
knobs; a ``dataclasses.replace`` of any of them keeps the equation, so it
derives nothing again, and parses a replaced ``r_sources``.  It also
owns the solver's ``panel_rule`` on its window, built on first use and
shared by every root; a replaced problem builds its own, with its own r.
Its ``coarse`` problem, the same one on COARSE_POINTS nodes, is built on
first use too and shared by every root: the solver starts the iteration
on a much finer grid from its solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import inf

import numpy as np

from .chebgrid import AnglePanels, lobatto_nodes
from .errors import ConfigError, PoincarefpError
from .exprparse import Expression, evaluate_expression, parse_expression
from .green import GreenKernel, build_kernel
from .reduction import MAX_ORDER, OmegaTable, build_reduced_rhs
from .spectral import (ShiftedSpectrum, Spectrum, find_roots,
                       shift_spectrum)

COARSE_POINTS = 201  # the grid a fine grid's solve starts from


@dataclass(frozen=True)
class Equation:
    n: int
    a: tuple[float, ...]

    def __post_init__(self):
        if not 2 <= self.n <= MAX_ORDER:
            raise ConfigError(f"n must be in 2..{MAX_ORDER}, got {self.n}")
        if len(self.a) != self.n:
            raise ConfigError(
                f"expected {self.n} coefficients a, got {len(self.a)}"
            )

    @cached_property
    def spectrum(self) -> Spectrum:
        """The characteristic roots of the unperturbed equation."""
        return find_roots(self.a)

    @cached_property
    def table(self) -> OmegaTable:
        """The Omega table of the reduced equation."""
        return build_reduced_rhs(self.a, self.n)

    @cached_property
    def shifted(self) -> tuple[ShiftedSpectrum, ...]:
        """The spectrum shifted to each root; entry i - 1 is root i's."""
        return tuple(shift_spectrum(self.spectrum, i)
                     for i in range(1, self.n + 1))

    @cached_property
    def kernels(self) -> tuple[GreenKernel, ...]:
        """The Green kernel of each root; entry i - 1 is root i's."""
        return tuple(build_kernel(shifted) for shifted in self.shifted)


@dataclass(frozen=True)
class PanelRule:
    """The solver's grid on the window: the Chebyshev-Lobatto nodes, the
    Gauss-Legendre panels between them, and r_0..r_{n-1} at the panel
    points (flattened)."""

    nodes: np.ndarray
    panels: AnglePanels
    r_panels: tuple


@dataclass(frozen=True)
class ProblemSpec:
    equation: Equation
    r_sources: tuple[str, ...]
    t0: float = 0.0
    t_max: float = 220.0
    grid_points: int = 200
    tol: float = 1e-10
    eta: float = 0.9
    max_iter: int = 80
    r_exprs: tuple[Expression, ...] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if len(self.r_sources) != self.n:
            raise ConfigError(
                f"expected {self.n} perturbation expressions, got "
                f"{len(self.r_sources)}"
            )
        if not -inf < self.t0 < self.t_max < inf:
            raise ConfigError("t_max must exceed t0, and both be finite")
        if not 0 < self.tol < inf:
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.grid_points < 16:
            raise ConfigError("grid_points must be at least 16")
        if not 0 < self.eta < inf:
            raise ConfigError(f"eta must be finite and > 0, got {self.eta}")
        exprs = []
        for src in self.r_sources:
            try:
                exprs.append(parse_expression(src))
            except PoincarefpError as exc:
                raise ConfigError(f"bad expression in r: {src!r}: {exc}")
        # every r_i must be finite where ode_residual reads it: at the
        # grid's nodes, t0 and t_max included
        nodes = lobatto_nodes(self.t0, self.t_max, self.grid_points)
        for i, (src, expr) in enumerate(zip(self.r_sources, exprs)):
            try:
                evaluate_expression(expr, nodes)
            except PoincarefpError as exc:
                raise ConfigError(f"r_{i} = {src!r} is not finite on the "
                                  f"grid of [{self.t0}, {self.t_max}]: {exc}")
        object.__setattr__(self, "r_exprs", tuple(exprs))

    @property
    def n(self) -> int:
        return self.equation.n

    @property
    def a(self) -> tuple[float, ...]:
        return self.equation.a

    @cached_property
    def panel_rule(self) -> PanelRule:
        """The solver's grid on [t0, t_max] with grid_points nodes."""
        nodes = lobatto_nodes(self.t0, self.t_max, self.grid_points)
        panels = AnglePanels(self.t0, self.t_max, self.grid_points)
        return PanelRule(nodes, panels,
                         tuple(self.r_list(panels.points.ravel())))

    @cached_property
    def coarse(self) -> ProblemSpec:
        """This problem on COARSE_POINTS nodes; it shares the equation."""
        return replace(self, grid_points=COARSE_POINTS)

    def r_value(self, i: int, t):
        """r_i evaluated at scalar or array t."""
        return evaluate_expression(self.r_exprs[i], t)

    def r_list(self, t) -> list:
        """All perturbations at scalar or array t, as a plain list."""
        return [self.r_value(i, t) for i in range(self.n)]
