"""Problem container: equation data plus numerical parameters.

A problem is the order n, the constant coefficients a_0..a_{n-1}, the
perturbation functions r_0..r_{n-1} (as parsed expressions of t), the
left endpoint t0, and the tuning knobs the pipeline needs downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .errors import ConfigError
from .exprparse import Expression, evaluate_expression, parse_expression

DEFAULT_T_MAX = 220.0
DEFAULT_GRID_POINTS = 200
DEFAULT_TOL = 1e-10
DEFAULT_ETA = 0.5
DEFAULT_MAX_ITER = 80


@dataclass(frozen=True)
class ProblemSpec:
    n: int
    a: tuple[float, ...]
    r_sources: tuple[str, ...]
    t0: float = 0.0
    t_max: float = DEFAULT_T_MAX
    grid_points: int = DEFAULT_GRID_POINTS
    tol: float = DEFAULT_TOL
    eta: float = DEFAULT_ETA
    max_iter: int = DEFAULT_MAX_ITER
    r_exprs: tuple[Expression, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if len(self.a) != self.n:
            raise ConfigError(
                f"expected {self.n} coefficients a, got {len(self.a)}"
            )
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
        if not 0 < self.eta:
            raise ConfigError("eta must be positive")
        if not self.r_exprs:
            object.__setattr__(
                self,
                "r_exprs",
                tuple(parse_expression(src) for src in self.r_sources),
            )

    def r_value(self, i: int, t):
        """r_i evaluated at scalar or array t."""
        return evaluate_expression(self.r_exprs[i], t)

    def r_list(self, t) -> list:
        """All perturbations at scalar or array t, as a plain list."""
        return [self.r_value(i, t) for i in range(self.n)]
