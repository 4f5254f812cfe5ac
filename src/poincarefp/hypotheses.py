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

Every quantity is an integral of a fixed function of s against
exponentials in t - s, so each one is evaluated by ``kernelquad`` for the
whole t-grid at once: the perturbation data are sampled, vectorised,
on a composite Gauss-Legendre panel rule cut off where the tail drops below
the tolerance.  An integrand that refuses to decay marks the quantity
divergent and the verdict indeterminate instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernelquad
from .errors import ComplexRoots, QuadratureFailure, RepeatedRoots
from .green import GreenKernel, build_kernel, upsilon
from .problem import ProblemSpec
from .reduction import OmegaTable, build_reduced_rhs
from .spectral import Spectrum, find_roots, shift_spectrum

LIMIT_TOL = 1e-6  # a sampled limit below this counts as zero
FAIL_FLOOR = 1e-3  # a non-decreasing tail above this counts as nonzero


def compute_R(problem: ProblemSpec, kernel: GreenKernel, table: OmegaTable,
              t, tol: float = 1e-10):
    """R(t) = sum_j |int g^(j)(t, s) Omega_0(mu, r(s)) ds| over the kernel
    support, for scalar or array t."""
    mu = kernel.gamma.mu
    alpha0 = (0,) * (problem.n - 1)

    def omega0(s):
        return table.omega_value(alpha0, mu, problem.r_list(s))

    parts = kernelquad.derivative_integrals(
        kernel, omega0, t, problem.t0, kernel.decay_rate(), tol
    )
    return np.abs(parts).sum(axis=0)


def compute_L(problem: ProblemSpec, kernel: GreenKernel, table: OmegaTable,
              t, k: int, tol: float = 1e-10):
    """L_k(t) = int_{t0}^inf sum_j |g^(j)(t, s)| M_k(s) ds with M_k the
    coefficient mass of polynomial order k, for scalar or array t."""
    mu = kernel.gamma.mu

    def mass(s):
        return table.mass_by_order(mu, problem.r_list(s))[k]

    return kernelquad.abs_derivative_integral(
        kernel, mass, t, problem.t0, kernel.decay_rate(), tol
    )


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
    value: float  # inf when divergent
    arg_t: float  # grid point attaining the supremum (nan when divergent)
    status: str  # "finite" or "divergent"


def estimate_sigma(problem: ProblemSpec, table: OmegaTable, gamma: float,
                   mu: float, t_grid, tol: float = 1e-8) -> SigmaEstimate:
    """sup_t int_{t0}^inf e^{-gamma (t - s)} M(s) ds with
    M = sum_{k>=1} M_k, maximised over the geometric t-grid.

    Divergence is detected two ways: the inner integral fails to converge
    (its integrand does not decay), or the supremum keeps growing along
    the tail of the grid.
    """
    def mass_ge1(s):
        return sum(table.mass_by_order(mu, problem.r_list(s))[1:])

    # the weight spans [t0, inf), so both sides carry the same exponent;
    # for gamma > 0 the tail decays only if the mass outruns e^{gamma s}
    terms = (kernelquad.ExpTerm(-gamma, True),
             kernelquad.ExpTerm(-gamma, False))
    rate = gamma * 0.5 if gamma > 0 else -gamma

    def sigma_at(t):
        return kernelquad.exp_integrals(
            mass_ge1, t, problem.t0, terms, rate, tol
        ).sum(axis=0)

    try:
        values = sigma_at(np.asarray(t_grid, dtype=float))
    except QuadratureFailure:
        return SigmaEstimate(gamma=gamma, value=np.inf, arg_t=np.nan,
                             status="divergent")

    best = int(np.argmax(values))
    best_t = float(t_grid[best])
    best_value = float(values[best])
    if 0 < best < len(values) - 1:
        # the sup sits inside the grid: refine around the sampled peak
        from scipy import optimize

        refined = optimize.minimize_scalar(
            lambda t: -sigma_at(t),
            bounds=(float(t_grid[best - 1]), float(t_grid[best + 1])),
            method="bounded",
            options={"xatol": 1e-3},
        )
        if -refined.fun > best_value:
            best_value = float(-refined.fun)
            best_t = float(refined.x)
    # a supremum still growing at the end of the geometric grid is not
    # attained on any finite window
    if best >= len(values) - 1 and len(values) >= 3:
        if values[-1] > 1.1 * values[-2] >= 1.1 * 0.9 * values[-3] and (
            values[-1] > values[-3]
        ):
            return SigmaEstimate(gamma=gamma, value=np.inf, arg_t=np.nan,
                                 status="divergent")
    return SigmaEstimate(gamma=gamma, value=best_value, arg_t=best_t,
                         status="finite")


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
    r2_verdict: str = "indeterminate"
    r2_detail: str = ""
    r3_verdict: str = "indeterminate"
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


def hypothesis_grid(problem: ProblemSpec) -> tuple[float, ...]:
    """Geometric sample grid t0 + 1, t0 + 2, t0 + 4, ... inside the
    window."""
    out = []
    offset = 1.0
    while offset <= problem.t_max - problem.t0:
        out.append(problem.t0 + offset)
        offset *= 2.0
    return tuple(out)


def evaluate_hypotheses(problem: ProblemSpec, i: int,
                        tol: float = 1e-10) -> HypothesisReport:
    """Full hypothesis check for root index i (1-based)."""
    try:
        spectrum = find_roots(problem.a)
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

    shifted = shift_spectrum(spectrum, i)
    kernel = build_kernel(shifted)
    table = build_reduced_rhs(problem.a, problem.n)
    grid = hypothesis_grid(problem)

    r_samples = compute_R(problem, kernel, table, np.array(grid), tol)
    l_samples = {
        k: compute_L(problem, kernel, table, np.array(grid), k, tol)
        for k in range(1, problem.n + 1)
    }

    r_verdict = _limit_verdict(r_samples)
    l1_verdict = _limit_verdict(l_samples[1])
    higher = sum(l_samples[k] for k in range(2, problem.n + 1))
    higher_limsup = float(np.max(higher[-3:]))
    higher_ok = higher_limsup < 1.0

    parts = [
        f"R(t) tail {r_samples[-1]:.3e} [{r_verdict}]",
        f"L_1(t) tail {l_samples[1][-1]:.3e} [{l1_verdict}]",
        f"limsup sum_(k>=2) L_k ~ {higher_limsup:.3e} "
        f"[{'pass' if higher_ok else 'fail'}]",
    ]
    verdicts = [r_verdict, l1_verdict, "pass" if higher_ok else "fail"]
    if all(v.startswith("pass") for v in verdicts):
        r2_verdict = "pass (numerical)"
    elif "fail" in verdicts:
        r2_verdict = "fail"
    else:
        r2_verdict = "indeterminate"

    phi1 = compute_phi1(kernel)
    sigma = tuple(
        estimate_sigma(problem, table, gam, shifted.mu, grid, max(tol, 1e-8))
        for gam in shifted.gamma
    )
    sigma_parts = []
    sigma_flags = []
    for est in sigma:
        if est.status == "divergent":
            sigma_parts.append(f"sigma({est.gamma:g}) divergent")
            sigma_flags.append("indeterminate")
        else:
            product = phi1 * est.value
            sigma_parts.append(
                f"phi1*sigma({est.gamma:g}) = {product:.4g} "
                f"at t = {est.arg_t:g}"
            )
            sigma_flags.append("pass" if product < 1.0 else "fail")
    if all(f == "pass" for f in sigma_flags):
        r3_verdict = "pass (numerical)"
    elif "fail" in sigma_flags:
        r3_verdict = "fail"
    else:
        r3_verdict = "indeterminate"
    r3_detail = f"phi1 = {phi1:.6g}; " + "; ".join(sigma_parts)

    return HypothesisReport(
        base_index=i,
        spectrum=spectrum,
        h1_verdict="pass",
        h1_detail=h1_detail,
        t_grid=grid,
        r_samples=tuple(float(v) for v in r_samples),
        l_samples={k: tuple(float(x) for x in v)
                   for k, v in l_samples.items()},
        phi1=phi1,
        sigma=sigma,
        r2_verdict=r2_verdict,
        r2_detail="; ".join(parts),
        r3_verdict=r3_verdict,
        r3_detail=r3_detail,
    )
