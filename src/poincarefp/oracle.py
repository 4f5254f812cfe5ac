"""Independent verification against a standard adaptive integrator.

The original order-n equation is integrated as its first-order companion
system y' = M(t) y with DOP853 and compared against the fixed-point
reconstruction.  Two comparison modes exist because of the spread of
exponential rates: the dominant solution admits a direct value
comparison, while dominated solutions are compared through their
logarithmic derivative y'/y (any forward integration of a dominated
direction is eventually contaminated by the dominant mode, but its
log-derivative stays meaningful until the contamination actually takes
over).

The integrator is SciPy's ``solve_ivp(method="DOP853")`` written out for
this linear system: the same tableau (``dop853``), the same embedded
5th/3rd-order error norm and step controller (safety 0.9, step factors
clipped to [0.2, 10], exponent -1/8, Hairer's initial-step selection, a
minimum step of ten ulps of t).  It therefore takes the same steps and
makes the same number of right-hand-side evaluations, and it returns the
solution where ``solve_ivp`` does without ``t_eval``: at t0 and at every
accepted step end.  The comparison reads the reconstruction at those
points, so no continuous extension is formed and none adds its own
interpolation error.  One thing differs: the stage times t + c_i h are
known before a step starts, so each r_i that depends on t is evaluated
once per step attempt as an array over all stage times; an r_i without t
is evaluated once per integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dop853, kernelquad
from .asymptotics import FundamentalSystem
from .errors import IntegrationFailure
from .exprparse import depends_on_t
from .problem import ProblemSpec

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

SAFETY = 0.9
MIN_FACTOR = 0.2  # smallest factor by which a step may shrink
MAX_FACTOR = 10.0  # largest factor by which a step may grow
ERROR_EXPONENT = -1.0 / 8.0  # the error estimator has order 7

STAGES = dop853.N_STAGES
STEP_C = dop853.C[1:]  # stages 1..11 and the end of the step


@dataclass(frozen=True)
class TrajectorySample:
    t: np.ndarray  # t0 and every accepted step end
    states: np.ndarray  # shape (n, len(t)): y, y', ..., y^(n-1)
    nfev: int


def _coefficient_rows(problem: ProblemSpec):
    """rows(times): the coefficients a_i + r_i(t) at every time, shape
    (len(times), n).  An r_i that does not depend on t is evaluated once,
    here."""
    a = np.asarray(problem.a, dtype=float)
    varying = [i for i in range(problem.n)
               if depends_on_t(problem.r_exprs[i])]
    fixed = a.copy()
    for i in range(problem.n):
        if i not in varying:
            fixed[i] += problem.r_value(i, problem.t0)

    def rows(times):
        out = np.tile(fixed, (len(times), 1))
        for i in varying:
            out[:, i] = a[i] + problem.r_value(i, times)
        return out

    return rows


def _companion(out, row, state):
    """out = M(t) state for the coefficient row a + r(t): y_j' = y_{j+1}
    and y_{n-1}' = -sum_i (a_i + r_i) y_i."""
    out[:-1] = state[1:]
    out[-1] = -np.dot(row, state)


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _error_norm(K, h: float, scale) -> float:
    """DOP853's error norm: the 5th-order estimate, damped where the
    3rd-order one is much larger."""
    err5 = np.dot(K.T, dop853.E5) / scale
    err3 = np.dot(K.T, dop853.E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def integrate_original(problem: ProblemSpec, y0, t_end: float,
                       rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL) -> TrajectorySample:
    """Integrate the original equation forward from the initial jet y0 at
    t0 to t_end and return the state at t0 and at every accepted step end.

    Raises IntegrationFailure when the step falls below the minimum step
    or the error estimate is not finite.  The estimate weighs every stage,
    the end derivative included, so a state that overflows makes it NaN
    before the step can be accepted.
    """
    t = float(problem.t0)
    t_end = float(t_end)
    if not t_end > t:
        raise ValueError(f"t_end = {t_end} must exceed t0 = {t}")
    rows = _coefficient_rows(problem)
    y = np.array(y0, dtype=float)
    n = len(y)
    K = np.empty((STAGES + 1, n))
    times, states = [t], [y]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = np.empty(n)
        _companion(f, rows(np.array([t]))[0], y)
        h_abs = _initial_step(rows, t, y, f, t_end, rtol, atol)
        nfev = 2
        while t < t_end:
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationFailure(
                        f"reference integration failed: step {h_abs:.3g} "
                        f"below the minimum at t = {t}")
                t_new = min(t + h_abs, t_end)
                h = t_new - t
                h_abs = np.abs(h)
                stage_rows = rows(t + STEP_C * h)
                K[0] = f
                for s in range(1, STAGES):
                    dy = np.dot(K[:s].T, dop853.A[s, :s]) * h
                    _companion(K[s], stage_rows[s - 1], y + dy)
                y_new = y + h * np.dot(K[:STAGES].T, dop853.B)
                _companion(K[STAGES], stage_rows[-1], y_new)
                nfev += STAGES
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error_norm = _error_norm(K, h, scale)
                if not np.isfinite(error_norm):
                    raise IntegrationFailure(
                        f"reference integration failed: error estimate "
                        f"{error_norm} is not finite at t = {t}")
                if error_norm < 1:
                    factor = MAX_FACTOR if error_norm == 0 else min(
                        MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** ERROR_EXPONENT)
                rejected = True
            t, y, f = t_new, y_new, K[STAGES].copy()
            times.append(t)
            states.append(y)
    return TrajectorySample(t=np.array(times), states=np.array(states).T,
                            nfev=nfev)


def _initial_step(rows, t0, y0, f0, t_end, rtol, atol) -> float:
    """Hairer's starting step (Solving ODEs I, Sec. II.4), as in SciPy's
    ``select_initial_step`` for an error estimator of order 7."""
    interval_length = t_end - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.empty_like(f0)
    _companion(f1, rows(np.array([t0 + h0]))[0], y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def initial_jet(fs: FundamentalSystem, i: int) -> np.ndarray:
    """(y, y', ..., y^(n-1)) at t0 for y_i, normalised to y(t0) = 1."""
    return np.array(fs.ratios(i, fs.problem.t0))


@dataclass(frozen=True)
class OracleComparison:
    mode: str  # "value" or "log-derivative"
    t: np.ndarray
    max_error: float
    nfev: int


def compare_to_fixed_point(fs: FundamentalSystem, i: int,
                           t_end: float) -> OracleComparison:
    """Integrate y_i from its reconstructed initial jet to t_end and
    compare at t0 and every step end of the integration: the relative
    error of y against exp(log y_i) for the dominant direction (i = 1),
    the absolute error of y'/y against the reconstructed ratio for every
    other direction."""
    sample = integrate_original(fs.problem, initial_jet(fs, i), t_end)
    t = sample.t
    if i == 1:
        mode = "value"
        ref = np.exp(fs.log_y(i, t))
        error = np.abs(sample.states[0] - ref) / np.maximum(np.abs(ref),
                                                            1e-300)
    else:
        mode = "log-derivative"
        with np.errstate(divide="ignore", invalid="ignore"):
            got = sample.states[1] / sample.states[0]
        error = np.abs(got - fs.derivative_ratio(i, 1, t))
    return OracleComparison(mode, t, float(np.max(error)), sample.nfev)


def abel_check(fs: FundamentalSystem, t: float) -> tuple[float, float]:
    """Abel identity cross-check: the log of |W(t)/W(t0)| must equal
    -a_{n-1} (t - t0) - int_{t0}^t r_{n-1}(s) ds.  Returns (measured,
    expected)."""
    problem = fs.problem
    ratio_t0, ratio_t = np.linalg.det(fs.ratio_matrix([problem.t0, t]))
    log_sum = sum(fs.log_y(i, t) for i in range(1, problem.n + 1))
    measured = np.log(abs(ratio_t)) + log_sum - np.log(abs(ratio_t0))
    trace = kernelquad.integral(
        lambda s: problem.r_value(problem.n - 1, s), problem.t0, t,
        problem.tol,
    )
    expected = -problem.a[-1] * (t - problem.t0) - trace
    return float(measured), float(expected)
