"""Independent verification against a standard adaptive integrator.

The original order-n equation is integrated as a first-order companion
system with DOP853 and compared against the fixed-point reconstruction.
Two comparison modes exist because of the spread of exponential rates:
the dominant solution admits a direct value comparison, while dominated
solutions are compared through their logarithmic derivative y'/y (any
forward integration of a dominated direction is eventually contaminated
by the dominant mode, but its log-derivative stays meaningful until the
contamination actually takes over).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import kernelquad
from .asymptotics import FundamentalSystem
from .exprparse import depends_on_t
from .problem import ProblemSpec

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class TrajectorySample:
    t: np.ndarray
    states: np.ndarray  # shape (n, len(t)): y, y', ..., y^(n-1)
    nfev: int


def companion_rhs(problem: ProblemSpec):
    """Right side of the first-order companion system.

    An r_i that does not depend on t is evaluated once, here, not at
    every step.
    """
    n = problem.n
    a = np.asarray(problem.a, dtype=float)
    varying = [i for i in range(n) if depends_on_t(problem.r_exprs[i])]
    coeffs = a.copy()
    for i in range(n):
        if i not in varying:
            coeffs[i] += problem.r_value(i, problem.t0)

    def rhs(t, state):
        out = np.empty(n)
        out[:-1] = state[1:]
        current = coeffs.copy()
        for i in varying:
            current[i] = a[i] + problem.r_value(i, float(t))
        out[-1] = -np.dot(current, state)
        return out

    return rhs


def integrate_original(problem: ProblemSpec, y0, t_end: float, t_eval,
                       rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL) -> TrajectorySample:
    """Integrate the original equation from the initial jet y0 at t0 and
    sample it at the points t_eval."""
    sol = solve_ivp(
        companion_rhs(problem),
        (problem.t0, t_end),
        np.asarray(y0, dtype=float),
        method="DOP853",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
    )
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return TrajectorySample(t=sol.t, states=sol.y, nfev=sol.nfev)


def initial_jet(fs: FundamentalSystem, i: int) -> np.ndarray:
    """(y, y', ..., y^(n-1)) at t0 for y_i, normalised to y(t0) = 1."""
    n = fs.problem.n
    return np.array([
        fs.derivative_ratio(i, j, fs.problem.t0) for j in range(n)
    ])


@dataclass(frozen=True)
class OracleComparison:
    i: int
    mode: str  # "value" or "log-derivative"
    t: np.ndarray
    error: np.ndarray
    max_error: float
    nfev: int


def compare_to_fixed_point(problem: ProblemSpec, fs: FundamentalSystem,
                           i: int, t_end: float, points: int = 40,
                           mode: str | None = None) -> OracleComparison:
    """Integrate y_i from its reconstructed initial jet and compare.

    mode "value": relative error of y against exp(log y_i).
    mode "log-derivative": absolute error of y'/y against the
    reconstructed ratio.  Default: "value" for the dominant direction
    (i = 1), "log-derivative" otherwise.
    """
    if mode is None:
        mode = "value" if i == 1 else "log-derivative"
    t_eval = np.linspace(problem.t0, t_end, points)
    sample = integrate_original(problem, initial_jet(fs, i), t_end,
                                t_eval=t_eval)
    if mode == "value":
        ref = np.exp(fs.log_y(i, t_eval))
        got = sample.states[0]
        scale = np.maximum(np.abs(ref), 1e-300)
        error = np.abs(got - ref) / scale
    elif mode == "log-derivative":
        ref = fs.derivative_ratio(i, 1, t_eval)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = sample.states[1] / sample.states[0]
        error = np.abs(got - ref)
    else:
        raise ValueError(f"unknown comparison mode {mode!r}")
    return OracleComparison(
        i=i,
        mode=mode,
        t=t_eval,
        error=error,
        max_error=float(np.max(error)),
        nfev=sample.nfev,
    )


def abel_check(problem: ProblemSpec, fs: FundamentalSystem,
               t: float) -> tuple[float, float]:
    """Abel identity cross-check: the log of |W(t)/W(t0)| must equal
    -a_{n-1} (t - t0) - int_{t0}^t r_{n-1}(s) ds.  Returns (measured,
    expected)."""
    ratio_t0, ratio_t = np.linalg.det(fs.ratio_matrix([problem.t0, t]))
    log_sum = sum(fs.log_y(i, t) for i in range(1, problem.n + 1))
    measured = np.log(abs(ratio_t)) + log_sum - np.log(abs(ratio_t0))
    trace = kernelquad.integral(
        lambda s: problem.r_value(problem.n - 1, s), problem.t0, t
    )
    expected = -problem.a[-1] * (t - problem.t0) - trace
    return float(measured), float(expected)
