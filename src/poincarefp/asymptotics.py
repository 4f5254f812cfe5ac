"""Fundamental-system reconstruction and asymptotic diagnostics.

Every solution of the original equation attached to root lambda_i is
rebuilt in log space,

    log y_i(t) = lambda_i (t - t0) + int_{t0}^t z_{lambda_i}(s) ds,

so nothing overflows; derivative ratios y^(j)/y come from evaluating the
exact P_j polynomials on the z-jet, and the Wronskian diagnostic is the
determinant of the ratio matrix, whose limit is the Vandermonde product
of the spectrum.  The z-jet and int z come from the solved iterate's
Chebyshev coefficients.  Envelope checks compare the iterate's derivative
mass against the case-dependent exponentially weighted integral of the
independent term, judging stability under window extension instead of
asserting an unspecified big-O constant.  The envelope is an exponential
convolution; it and the z-jet are evaluated for a whole window of t at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernelquad
from .errors import QuadratureFailure
from .multipoly import Poly
from .problem import ProblemSpec
from .reduction import OmegaTable, build_derivative_polynomials
from .solver import IterateGrid
from .spectral import Spectrum

ENVELOPE_FLOOR = 1e-300


def _r_mass(problem: ProblemSpec, lam: float, s):
    """|sum_l lam^l r_l(s)|, the independent-term magnitude at mu = lam."""
    total = 0.0
    for ell in range(problem.n):
        total = total + lam ** ell * problem.r_value(ell, s)
    return np.abs(total)


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


def envelope(problem: ProblemSpec, spectrum: Spectrum, i: int, beta: float,
             t, tol: float = 1e-10):
    """Case integral of e^{-beta (t - s)} |Omega_0(lambda_i, s, r(s))|,
    for scalar or array t.

    i = 1 integrates over (t, inf), middle indices over (t0, inf), i = n
    over (t0, t); beta must lie in the case interval.
    """
    n = spectrum.n
    lam = spectrum.lam[i - 1]
    lo, hi = admissible_beta_interval(spectrum, i)
    if i == n:
        if not lo < beta <= hi:
            raise ValueError(
                f"beta {beta} outside ]{lo}, {hi}] for i = {i}"
            )
    elif not lo <= beta < hi:
        raise ValueError(f"beta {beta} outside [{lo}, {hi}[ for i = {i}")

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
        lambda s: _r_mass(problem, lam, s), t, problem.t0, terms, rate, tol
    ).sum(axis=0)


@dataclass(frozen=True)
class EnvelopeCheck:
    i: int
    beta: float
    window: tuple[float, float]
    sup_ratio: float
    samples: tuple[tuple[float, float], ...]  # (t, ratio) where formed
    verdict: str


def check_envelope(problem: ProblemSpec, spectrum: Spectrum,
                   solution: IterateGrid, i: int, beta: float,
                   window: tuple[float, float], points: int = 25,
                   tol: float = 1e-10) -> EnvelopeCheck:
    """sup over the window of sum_j |z^(j)(t)| / envelope(t).

    Points where the envelope underflows are excluded; an entirely
    excluded window with a vanishing iterate is a vacuous pass.
    """
    lo = max(window[0], problem.t0)
    hi = min(window[1], solution.t_max)
    ts = np.linspace(lo, hi, points)
    envs = envelope(problem, spectrum, i, beta, ts, tol)
    masses = np.abs(solution.jet(ts)).sum(axis=0)
    formed = ~(envs < ENVELOPE_FLOOR)  # a NaN envelope makes sup NaN
    ratios = masses[formed] / envs[formed]
    samples = tuple(zip(ts[formed].tolist(), ratios.tolist()))
    sup = float(ratios.max(initial=0.0))
    if not samples:
        if masses.max() == 0.0:
            verdict = "pass (vacuous)"
        else:
            raise QuadratureFailure(
                "envelope underflowed across the whole window"
            )
    else:
        verdict = "computed"  # stability judged by the caller across windows
    return EnvelopeCheck(
        i=i,
        beta=beta,
        window=(lo, hi),
        sup_ratio=sup,
        samples=samples,
        verdict=verdict,
    )


def envelope_stability(problem: ProblemSpec, spectrum: Spectrum,
                       solution: IterateGrid, i: int, beta: float,
                       window: tuple[float, float],
                       factor_bound: float = 3.0) -> tuple[EnvelopeCheck,
                                                           EnvelopeCheck, str]:
    """Compare the sup ratio over the window and the doubled window."""
    base = check_envelope(problem, spectrum, solution, i, beta, window)
    lo, hi = window
    doubled = check_envelope(
        problem, spectrum, solution, i, beta, (lo, lo + 2 * (hi - lo))
    )
    if base.sup_ratio == 0.0 and doubled.sup_ratio == 0.0:
        verdict = "pass (vacuous)"
    elif base.sup_ratio > 0 and (
        doubled.sup_ratio / base.sup_ratio < factor_bound
    ):
        verdict = "pass"
    else:
        verdict = "fail"
    return base, doubled, verdict


@dataclass(frozen=True)
class FundamentalSystem:
    """The n reconstructed solutions, in log space, on the solver grids."""

    problem: ProblemSpec
    spectrum: Spectrum
    grids: tuple[IterateGrid, ...]  # index i-1 -> z_{lambda_i}
    polys: tuple[Poly, ...]  # P_0 .. P_n with y^(j) = P_j * y

    def log_y(self, i: int, t):
        """log y_i at scalar or array t; y_i(t0) = 1 by construction."""
        lam = self.spectrum.lam[i - 1]
        return lam * (np.asarray(t, dtype=float) - self.problem.t0) \
            + self.grids[i - 1].integral(t)  # zero tail model

    def _jet_point(self, i: int, t) -> list:
        """Poly evaluation point (lambda_i, r = 0, z-jet of root i at t)."""
        n = self.problem.n
        point = [0.0] * (2 * n + 2)
        point[0] = self.spectrum.lam[i - 1]
        point[n + 1 : 2 * n] = self.grids[i - 1].jet(t)
        return point

    def derivative_ratio(self, i: int, j: int, t):
        """y_i^(j) / y_i from the exact P_j polynomial on the z-jet, at
        scalar or array t."""
        n = self.problem.n
        if not 0 <= j <= n - 1:
            raise ValueError(f"derivative order {j} outside 0..{n - 1}")
        value = self.polys[j].evaluate(self._jet_point(i, t))
        return float(value) if np.ndim(t) == 0 else value * np.ones_like(t)

    def ratio_matrix(self, t) -> np.ndarray:
        """y_i^(j) / y_i with row j and column i - 1, shape (n, n) at
        scalar t and (len(t), n, n) at array t; one jet per root."""
        n = self.problem.n
        out = np.empty(np.shape(t) + (n, n))
        for i in range(1, n + 1):
            point = self._jet_point(i, t)
            for j in range(n):
                out[..., j, i - 1] = self.polys[j].evaluate(point)
        return out


def build_fundamental_system(problem: ProblemSpec, spectrum: Spectrum,
                             solutions) -> FundamentalSystem:
    """Assemble the system from the per-root converged iterates."""
    if len(solutions) != problem.n:
        raise ValueError(
            f"need {problem.n} converged solves, got {len(solutions)}"
        )
    return FundamentalSystem(
        problem=problem,
        spectrum=spectrum,
        grids=tuple(solutions),
        polys=tuple(build_derivative_polynomials(problem.n)),
    )


def wronskian_diagnostic(fs: FundamentalSystem, t) -> tuple[float, float]:
    """(W[y_1..y_n](t) / prod y_i(t), Vandermonde product of the
    spectrum); the common exponential factor cancels in the ratio
    matrix."""
    ratio = float(np.linalg.det(fs.ratio_matrix(t)))
    lam = fs.spectrum.lam
    vandermonde = 1.0
    n = fs.spectrum.n
    for k in range(n):
        for ell in range(k + 1, n):
            vandermonde *= lam[ell] - lam[k]
    return ratio, vandermonde


def pi_product(spectrum: Spectrum, i: int) -> float:
    """pi_i = prod_{j != i} (lambda_j - lambda_i)."""
    lam = spectrum.lam
    out = 1.0
    for j in range(spectrum.n):
        if j != i - 1:
            out *= lam[j] - lam[i - 1]
    return out


def log_refined_estimate(problem: ProblemSpec, table: OmegaTable,
                         spectrum: Spectrum, i: int, solution: IterateGrid,
                         t: float) -> float:
    """log of the refined formula: lambda_i (t - t0) +
    (1/pi_i) int_{t0}^t F(lambda_i, s, r(s), z-jet(s)) ds."""
    lam = spectrum.lam[i - 1]
    pi_i = pi_product(spectrum, i)

    def f(s):
        return table.evaluate_F(lam, problem.r_list(s), solution.jet(s))

    value = kernelquad.integral(f, problem.t0, min(t, solution.t_max))
    if t > solution.t_max:
        alpha0 = (0,) * (problem.n - 1)

        def f_tail(s):
            return table.omega_value(alpha0, lam, problem.r_list(s))

        value += kernelquad.integral(f_tail, solution.t_max, t)
    return lam * (t - problem.t0) + value / pi_i


def refined_estimate(problem: ProblemSpec, table: OmegaTable,
                     spectrum: Spectrum, i: int, solution: IterateGrid,
                     t: float) -> float:
    """e^{lambda_i (t - t0)} exp((1/pi_i) int F); may overflow for large
    t, in which case use log_refined_estimate."""
    return float(np.exp(
        log_refined_estimate(problem, table, spectrum, i, solution, t)
    ))
