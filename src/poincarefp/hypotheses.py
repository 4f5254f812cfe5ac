"""Numerical verification of the smallness hypotheses behind the fixed point.

Three groups of conditions are checked for a chosen root index i:

  (R1)  the characteristic roots are real and simple;
  (R2)  the kernel-weighted independent term R(t) and the linear
        coefficient mass L_1(t) vanish at infinity, while the higher-order
        masses keep ``limsup sum_{k>=2} L_k < 1``;
  (R3)  for every shifted root gamma, the exponentially weighted
        coefficient mass sigma_gamma = sup_t int_{t0}^inf
        e^{-gamma (t - s)} M(s) ds is finite and phi_1 * sigma_gamma < 1,
        where M collects all coefficient masses of order >= 1 and phi_1
        is the gap-product bound of the kernel.

R and every L_k are integrals of a fixed function of s against the
kernel, evaluated by ``kernelquad`` for the whole t-grid at once; they
share one pass per root, which samples [Omega_0, M_1, ..., M_n] once on a
panel rule cut off where the tail drops below the tolerance.  An
integrand that refuses to decay marks the quantity divergent and the
verdict indeterminate.  sigma_gamma needs no quadrature: z^n enters F
only through (z + mu)^n, so its coefficient is the constant 1, M >= 1,
and sigma_gamma is infinite for every gamma by the derivation in
``estimate_sigma``.  (R3) therefore reads indeterminate on every problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernelquad
from .errors import ComplexRoots, RepeatedRoots
from .green import GreenKernel, upsilon
from .problem import ProblemSpec
from .spectral import Spectrum

LIMIT_TOL = 1e-6  # a sampled limit below this counts as zero
FAIL_FLOOR = 1e-3  # a non-decreasing tail above this counts as nonzero


def kernel_masses(problem: ProblemSpec, i: int, t) -> np.ndarray:
    """Row 0: R(t) = sum_j |int g^(j)(t, s) Omega_0(mu, r(s)) ds|; row
    k = 1..n: L_k(t) = int sum_j |g^(j)(t, s)| M_k(s) ds, with g root i's
    kernel and M_k the order-k coefficient mass; scalar or array t."""
    kernel = problem.equation.kernels[i - 1]
    table = problem.equation.table
    mu = kernel.gamma.mu
    alpha0 = (0,) * (problem.n - 1)

    def stacked(s):
        rvals = problem.r_list(s)
        rows = table.mass_by_order(mu, rvals)
        rows[0] = table.omega_value(alpha0, mu, rvals)
        return rows

    signed, absolute = kernelquad.green_integrals(
        kernel, stacked, t, problem.t0, kernel.decay_rate(), problem.tol
    )
    absolute[0] = np.abs(signed[0]).sum(axis=0)
    return absolute


def compute_R(problem: ProblemSpec, i: int, t):
    """R(t) of ``kernel_masses`` alone."""
    return kernel_masses(problem, i, t)[0]


def compute_L(problem: ProblemSpec, i: int, t, k: int):
    """L_k(t), k = 1..n, of ``kernel_masses`` alone."""
    if not 1 <= k <= problem.n:
        raise ValueError(f"coefficient order {k} outside 1..{problem.n}")
    return kernel_masses(problem, i, t)[k]


def compute_phi1(kernel: GreenKernel) -> float:
    """phi_1 = |Upsilon_0|^{-1} sum_l |Upsilon_l| sum_{j=0}^{n-2}
    |gamma_l|^j."""
    gams = kernel.gamma.gamma
    d = len(gams)
    total = 0.0
    for ell in range(1, d + 1):
        gam = abs(gams[ell - 1])
        total += abs(upsilon(gams, ell)) * sum(gam ** j for j in range(d))
    return total / abs(kernel.upsilon0)


@dataclass(frozen=True)
class SigmaEstimate:
    gamma: float
    value: float  # inf: no table has a finite sigma (estimate_sigma)
    arg_t: float  # nan: no grid point attains the supremum
    status: str  # "divergent"


def estimate_sigma(problem: ProblemSpec, gamma: float,
                   mu: float) -> SigmaEstimate:
    """sigma_gamma = sup_t int_{t0}^inf e^{-gamma (t - s)} M(s) ds with
    M = sum_{k>=1} M_k, by derivation instead of quadrature.

    Let m be the largest |Omega_alpha(mu)| over the table's rows with
    |alpha| >= 1 that do not depend on r; then M(s) >= m for every s.
    For gamma >= 0 the integrand is at least m e^{-gamma (t - t0)} > 0 for
    every s >= t0, so the integral diverges as s -> inf.  For gamma < 0
    the part over [t0, t] alone is at least
    m (e^{|gamma| (t - t0)} - 1) / |gamma|, which is unbounded in t.
    Either way sigma_gamma = inf whenever m > 0, and every table that
    ``build_reduced_rhs`` makes has m >= 1: z^n enters F only through
    (z + mu)^n, so Omega_(n, 0, ..., 0) is the constant 1.  A table
    without such a row is a defect, not a verdict: ValueError.
    """
    table = problem.equation.table
    n = problem.n
    r_free = ~table.coeffs[:, :, 1:].any(axis=(1, 2))
    rows = r_free & (table.exponents.sum(axis=1) >= 1)
    omegas = table.omega_values(mu, [0.0] * n)[rows]
    if np.abs(omegas).max(initial=0.0) > 0:
        return SigmaEstimate(gamma=gamma, value=np.inf, arg_t=np.nan,
                             status="divergent")
    z_n = (n,) + (0,) * (n - 2)
    raise ValueError(
        f"Omega table has no nonzero r-free row of order >= 1 (such as "
        f"Omega{z_n} = 1, the z^{n} coefficient): sigma_gamma is not derived"
    )


@dataclass(frozen=True)
class HypothesisReport:
    base_index: int
    spectrum: Spectrum | None
    h1_verdict: str
    h1_detail: str
    t_grid: tuple[float, ...] = ()
    r_samples: tuple[float, ...] = ()
    l_samples: dict | None = None  # k -> tuple of samples on t_grid
    phi1: float = np.nan
    sigma: tuple[SigmaEstimate, ...] = ()
    r_verdict: str = "indeterminate"  # R(t) -> 0
    l1_verdict: str = "indeterminate"  # L_1(t) -> 0
    higher_verdict: str = "indeterminate"  # limsup sum_{k>=2} L_k < 1
    r2_verdict: str = "indeterminate"  # all three of the above
    r2_detail: str = ""
    r3_verdict: str = "indeterminate"  # every sigma_gamma is inf
    r3_detail: str = ""

    def lines(self) -> list[str]:
        out = [f"(R1) {self.h1_verdict}: {self.h1_detail}"]
        if self.spectrum is not None:
            out.append(f"(R2) {self.r2_verdict}: {self.r2_detail}")
            out.append(f"(R3) {self.r3_verdict}: {self.r3_detail}")
        return out


def _limit_verdict(samples: np.ndarray) -> str:
    """Classify a sampled t -> value curve as vanishing at infinity."""
    tail = samples[-3:]
    if tail[-1] < LIMIT_TOL:
        return "pass (numerical)"
    if tail[-1] > FAIL_FLOOR and not np.all(np.diff(tail) < 0):
        return "fail"
    return "indeterminate"


def _combined_verdict(verdicts) -> str:
    if all(v.startswith("pass") for v in verdicts):
        return "pass (numerical)"
    return "fail" if "fail" in verdicts else "indeterminate"


def hypothesis_grid(problem: ProblemSpec) -> tuple[float, ...]:
    """Geometric sample grid t0 + 1, t0 + 2, t0 + 4, ... inside the
    window."""
    out = []
    offset = 1.0
    while offset <= problem.t_max - problem.t0:
        out.append(problem.t0 + offset)
        offset *= 2.0
    return tuple(out)


def evaluate_hypotheses(problem: ProblemSpec, i: int) -> HypothesisReport:
    """Full hypothesis check for root index i (1-based)."""
    try:
        spectrum = problem.equation.spectrum
    except (ComplexRoots, RepeatedRoots) as exc:
        return HypothesisReport(
            base_index=i,
            spectrum=None,
            h1_verdict="fail",
            h1_detail=str(exc),
        )
    roots_text = ", ".join(f"{lam:.12g}" for lam in spectrum.lam)
    h1_detail = (
        f"roots ({roots_text}), separation {spectrum.separation:.6g}"
    )

    kernel = problem.equation.kernels[i - 1]
    shifted = kernel.gamma
    phi1 = compute_phi1(kernel)
    grid = hypothesis_grid(problem)
    if not grid:
        reason = "no sample point: the grid starts at t0 + 1 > t_max"
        return HypothesisReport(i, spectrum, "pass", h1_detail, l_samples={},
                                phi1=phi1, r2_detail=reason, r3_detail=reason)

    masses = kernel_masses(problem, i, np.array(grid))
    r_verdict = _limit_verdict(masses[0])
    l1_verdict = _limit_verdict(masses[1])
    higher_limsup = float(np.max(masses[2:].sum(axis=0)[-3:]))
    higher_verdict = "pass" if higher_limsup < 1.0 else "fail"
    parts = [
        f"R(t) tail {masses[0, -1]:.3e} [{r_verdict}]",
        f"L_1(t) tail {masses[1, -1]:.3e} [{l1_verdict}]",
        f"limsup sum_(k>=2) L_k ~ {higher_limsup:.3e} [{higher_verdict}]",
    ]
    r2_verdict = _combined_verdict([r_verdict, l1_verdict, higher_verdict])

    sigma = tuple(
        estimate_sigma(problem, gam, shifted.mu) for gam in shifted.gamma
    )
    r3_detail = f"phi1 = {phi1:.6g}; " + "; ".join(
        f"sigma({est.gamma:g}) {est.status}" for est in sigma
    )

    return HypothesisReport(
        base_index=i,
        spectrum=spectrum,
        h1_verdict="pass",
        h1_detail=h1_detail,
        t_grid=grid,
        r_samples=tuple(masses[0].tolist()),
        l_samples={k: tuple(masses[k].tolist())
                   for k in range(1, problem.n + 1)},
        phi1=phi1,
        sigma=sigma,
        r_verdict=r_verdict,
        l1_verdict=l1_verdict,
        higher_verdict=higher_verdict,
        r2_verdict=r2_verdict,
        r2_detail="; ".join(parts),
        r3_detail=r3_detail,
    )
