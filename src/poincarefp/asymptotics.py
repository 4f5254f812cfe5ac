"""Fundamental-system reconstruction and asymptotic diagnostics.

Every solution of the original equation attached to root lambda_i is
rebuilt in log space,

    log y_i(t) = lambda_i (t - t0) + int_{t0}^t z_{lambda_i}(s) ds,

so nothing overflows.  Read backwards, y' = (lambda_i + z) y, so the
Leibniz rule gives y^(j)/y from the z-jet; the Wronskian diagnostic is
the determinant of that ratio matrix, whose limit is the Vandermonde
product of the spectrum.  Envelope checks compare the iterate's
derivative mass against the case-dependent exponentially weighted
integral of |Omega_0(lambda_i, r)| from the equation's table, judging
stability under window extension instead of asserting an unspecified
big-O constant.  One envelope quadrature serves a window and its
double.  The envelope, the z-jet and int z (from the iterate's Chebyshev
coefficients) are evaluated for a whole window of t at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import kernelquad
from .errors import QuadratureFailure
from .green import upsilon
from .problem import ProblemSpec
from .solver import IterateGrid
from .spectral import Spectrum

ENVELOPE_FLOOR = 1e-300
ENVELOPE_POINTS = 25  # sample times per envelope window
STABILITY_FACTOR = 3.0  # largest sup-ratio growth when the window doubles


def admissible_beta_interval(spectrum: Spectrum, i: int) -> tuple[float, float]:
    """Closed-left (open-right at 0) beta interval for index i; for i = n
    the interval is ]0, gamma_{n-1}] and both entries are positive."""
    n = spectrum.n
    lam = spectrum.lam
    if i == 1:
        return (lam[1] - lam[0], 0.0)
    if i == n:
        return (0.0, lam[n - 2] - lam[n - 1])
    return (lam[i] - lam[i - 1], 0.0)


def check_beta(spectrum: Spectrum, i: int, beta: float) -> None:
    """Raise ValueError naming the interval unless beta is admissible."""
    lo, hi = admissible_beta_interval(spectrum, i)
    if i == spectrum.n and not lo < beta <= hi:
        raise ValueError(f"beta {beta} outside ]{lo}, {hi}] for i = {i}")
    if i < spectrum.n and not lo <= beta < hi:
        raise ValueError(f"beta {beta} outside [{lo}, {hi}[ for i = {i}")


def envelope(problem: ProblemSpec, i: int, beta: float, t):
    """Case integral of e^{-beta (t - s)} |Omega_0(lambda_i, s, r(s))|,
    for scalar or array t.

    i = 1 integrates over (t, inf), middle indices over (t0, inf), i = n
    over (t0, t); beta must lie in the case interval.
    """
    spectrum = problem.equation.spectrum
    table = problem.equation.table
    n = spectrum.n
    lam = spectrum.lam[i - 1]
    check_beta(spectrum, i, beta)
    alpha0 = (0,) * (n - 1)

    terms = []
    if i != 1:
        terms.append(kernelquad.ExpTerm(-beta, True))
    if i != n:
        terms.append(kernelquad.ExpTerm(-beta, False))
    # infinite upper limit: the integrand decays at rate -beta minus the
    # decay of the perturbation mass itself; -beta can be 0 at the left
    # endpoint, in which case only the r-decay helps.
    rate = max(-beta, 1e-3)
    return kernelquad.exp_integrals(
        lambda s: np.abs(table.omega_value(alpha0, lam, problem.r_list(s))),
        t, problem.t0, terms, rate, problem.tol,
    )[0].sum(axis=0)


@dataclass(frozen=True)
class EnvelopeCheck:
    sup_ratio: float  # 0.0 for an iterate that vanishes on the window
    samples: tuple[tuple[float, float], ...]  # (t, ratio) where formed


def envelope_stability(problem: ProblemSpec, solution: IterateGrid, i: int,
                       beta: float, window: tuple[float, float],
                       ) -> tuple[EnvelopeCheck, EnvelopeCheck, str]:
    """sup of sum_j |z^(j)(t)| / envelope(t) over the window and over the
    doubled window, both from one envelope quadrature: pass when both
    vanish or the sup grows by less than STABILITY_FACTOR, fail otherwise.

    Points where the envelope underflows are excluded; if every point of
    a window is, its sup is 0 for a vanishing iterate, and otherwise
    there is none: QuadratureFailure.
    """
    lo, hi = window
    start = max(lo, problem.t0)
    ts = np.array([np.linspace(start, min(end, solution.t_max),
                               ENVELOPE_POINTS)
                   for end in (hi, lo + 2 * (hi - lo))])
    checks = []
    for t, env in zip(ts, envelope(problem, i, beta, ts)):
        # one jet per window: a round-off mass over a tiny envelope moves
        # with the batch shape of the series evaluation
        mass = np.abs(solution.jet(t)).sum(axis=0)
        formed = ~(env < ENVELOPE_FLOOR)  # a NaN envelope makes sup NaN
        if not formed.any() and mass.max() != 0.0:
            raise QuadratureFailure(
                "envelope underflowed across the whole window")
        ratios = mass[formed] / env[formed]
        checks.append(EnvelopeCheck(
            sup_ratio=float(ratios.max(initial=0.0)),
            samples=tuple(zip(t[formed].tolist(), ratios.tolist())),
        ))
    base, doubled = checks
    stable = (base.sup_ratio == doubled.sup_ratio == 0.0) or (
        base.sup_ratio > 0
        and doubled.sup_ratio / base.sup_ratio < STABILITY_FACTOR)
    return base, doubled, "pass" if stable else "fail"


def jet_ratios(lam: float, zjet) -> list:
    """y^(j)/y for j = 0 .. len(zjet), from the z-jet rows z .. z^(n-2),
    by the Leibniz rule on y' = w y with w = lam + z:
    rho_0 = 1 and rho_m = sum_{k<m} C(m-1, k) w^(k) rho_{m-1-k}."""
    w = [lam + zjet[0], *zjet[1:]]
    rho = [np.ones_like(w[0])]
    for m in range(1, len(w) + 1):
        rho.append(sum(comb(m - 1, k) * w[k] * rho[m - 1 - k]
                       for k in range(m)))
    return rho


@dataclass(frozen=True)
class FundamentalSystem:
    """The n reconstructed solutions, in log space, on the solver grids."""

    problem: ProblemSpec
    grids: tuple[IterateGrid, ...]  # index i-1 -> z_{lambda_i}

    def log_y(self, i: int, t):
        """log y_i at scalar or array t; y_i(t0) = 1 by construction."""
        lam = self.problem.equation.spectrum.lam[i - 1]
        return lam * (np.asarray(t, dtype=float) - self.problem.t0) \
            + self.grids[i - 1].integral(t)  # zero tail model

    def ratios(self, i: int, t) -> list:
        """y_i^(j) / y_i for j = 0 .. n-1 at scalar or array t."""
        return jet_ratios(self.problem.equation.spectrum.lam[i - 1],
                          self.grids[i - 1].jet(t))

    def derivative_ratio(self, i: int, j: int, t):
        """y_i^(j) / y_i at scalar or array t."""
        n = self.problem.n
        if not 0 <= j <= n - 1:
            raise ValueError(f"derivative order {j} outside 0..{n - 1}")
        value = self.ratios(i, t)[j]
        return float(value) if np.ndim(t) == 0 else value

    def ratio_matrix(self, t) -> np.ndarray:
        """y_i^(j) / y_i with row j and column i - 1, shape (n, n) at
        scalar t and (len(t), n, n) at array t; one jet per root."""
        return np.stack([np.stack(self.ratios(i, t), axis=-1)
                         for i in range(1, self.problem.n + 1)], axis=-1)


def build_fundamental_system(problem: ProblemSpec,
                             solutions) -> FundamentalSystem:
    """Assemble the system from the per-root converged iterates."""
    if len(solutions) != problem.n:
        raise ValueError(
            f"need {problem.n} converged solves, got {len(solutions)}"
        )
    return FundamentalSystem(problem=problem, grids=tuple(solutions))


def wronskian_diagnostic(fs: FundamentalSystem, t) -> tuple[float, float]:
    """(W[y_1..y_n](t) / prod y_i(t), Vandermonde product of the
    spectrum); the common exponential factor cancels in the ratio
    matrix."""
    ratio = float(np.linalg.det(fs.ratio_matrix(t)))
    return ratio, upsilon(fs.problem.equation.spectrum.lam, 0)


def pi_product(spectrum: Spectrum, i: int) -> float:
    """pi_i = prod_{j != i} (lambda_j - lambda_i)."""
    lam = spectrum.lam
    out = 1.0
    for j in range(spectrum.n):
        if j != i - 1:
            out *= lam[j] - lam[i - 1]
    return out


def log_refined_estimate(problem: ProblemSpec, i: int, solution: IterateGrid,
                         t: float) -> float:
    """log of the refined formula: lambda_i (t - t0) +
    (1/pi_i) int_{t0}^t F(lambda_i, s, r(s), z-jet(s)) ds."""
    spectrum = problem.equation.spectrum
    table = problem.equation.table
    lam = spectrum.lam[i - 1]
    pi_i = pi_product(spectrum, i)

    def f(s):
        return table.evaluate_F(lam, problem.r_list(s), solution.jet(s))

    value = kernelquad.integral(f, problem.t0, min(t, solution.t_max),
                                problem.tol)
    if t > solution.t_max:
        alpha0 = (0,) * (problem.n - 1)

        def f_tail(s):
            return table.omega_value(alpha0, lam, problem.r_list(s))

        value += kernelquad.integral(f_tail, solution.t_max, t, problem.tol)
    return lam * (t - problem.t0) + value / pi_i
