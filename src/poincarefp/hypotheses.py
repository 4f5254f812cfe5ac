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
panel rule cut off where the tail drops below the tolerance; where the
tail does not drop below it, (R2) reads indeterminate with the error as
its reason.
sigma_gamma needs no quadrature: z^n enters F only through (z + mu)^n,
so its coefficient is the constant 1, M >= 1, and sigma_gamma is infinite
for every gamma by the derivation in ``estimate_sigma``, which is made
once per root and holds for each of its shifted roots.  (R3) therefore
reads indeterminate on every problem.

Each condition's verdict is a ``Verdict``: pass, indeterminate or fail.
(R2)'s status is the worst of its three parts.  R -> 0 and L_1 -> 0 are
read off samples on a finite grid, so their passes, and (R2)'s, carry the
note "numerical".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernelquad
from .errors import ComplexRoots, QuadratureFailure, RepeatedRoots
from .green import GreenKernel
from .problem import ProblemSpec

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
    |gamma_l|^j, the sum of the kernel's |amplitudes|: |Upsilon_l /
    Upsilon_0| = |c_l|."""
    return float(np.abs(kernel.amplitudes).sum())


def estimate_sigma(problem: ProblemSpec, mu: float) -> float:
    """sigma_gamma = sup_t int_{t0}^inf e^{-gamma (t - s)} M(s) ds with
    M = sum_{k>=1} M_k at the root mu, for every shifted root gamma at
    once, by derivation instead of quadrature.

    Let m be the largest |Omega_alpha(mu)| over the table's rows with
    |alpha| >= 1 that do not depend on r; then M(s) >= m for every s.
    For gamma >= 0 the integrand is at least m e^{-gamma (t - t0)} > 0 for
    every s >= t0, so the integral diverges as s -> inf.  For gamma < 0
    the part over [t0, t] alone is at least
    m (e^{|gamma| (t - t0)} - 1) / |gamma|, which is unbounded in t.
    Either way sigma_gamma = inf whenever m > 0, whatever gamma is, and
    every table that ``build_reduced_rhs`` makes has m >= 1: z^n enters F
    only through (z + mu)^n, so Omega_(n, 0, ..., 0) is the constant 1.
    A table without such a row is a defect, not a verdict: ValueError.
    """
    table = problem.equation.table
    n = problem.n
    r_free = ~table.coeffs[:, :, 1:].any(axis=(1, 2))
    rows = r_free & (table.exponents.sum(axis=1) >= 1)
    omegas = table.omega_values(mu, [0.0] * n)[rows]
    if np.abs(omegas).max(initial=0.0) > 0:
        return np.inf
    z_n = (n,) + (0,) * (n - 2)
    raise ValueError(
        f"Omega table has no nonzero r-free row of order >= 1 (such as "
        f"Omega{z_n} = 1, the z^{n} coefficient): sigma_gamma is not derived"
    )


STATUSES = ("pass", "indeterminate", "fail")  # the mildest first


@dataclass(frozen=True)
class Verdict:
    """One judged quantity of ``check`` or ``verify``: the status is pass,
    indeterminate or fail, and a pass that rests on sampled data notes
    "numerical", which str() renders.  ``reason`` words the figures behind
    the status; a verdict on one value holds it, where it was taken
    (derivative order j, time t) and the reference it was judged against.
    """

    quantity: str
    i: int | str  # root index; "" for a verdict on the whole system
    status: str
    note: str = ""
    reason: str = ""
    j: int | str = ""
    t: float | str = ""
    value: float | str = ""
    reference: float | str = ""

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"verdict status {self.status!r} is not one "
                             f"of {STATUSES}")

    def __str__(self) -> str:
        return f"{self.status} ({self.note})" if self.note else self.status


def worst(statuses) -> str:
    """The most severe of the statuses (fail, then indeterminate); pass
    when there is none."""
    return max(statuses, key=STATUSES.index, default="pass")


@dataclass(frozen=True)
class HypothesisReport:
    """Root i's (R1), (R2) and (R3), or (R1) alone when it fails; the
    parts of (R2): R -> 0, L_1 -> 0 and limsup sum_{k>=2} L_k < 1; the
    samples, row 0 of R and row k of L_k, on ``t_grid``; and sigma, the
    one value of every sigma_gamma of the root, None when there is no
    sample point."""

    verdicts: tuple[Verdict, ...]
    parts: tuple[Verdict, ...] = ()
    t_grid: tuple[float, ...] = ()
    samples: tuple[tuple[float, ...], ...] = ()
    phi1: float = np.nan
    sigma: float | None = None


def _limit_verdict(quantity: str, i: int, samples: np.ndarray) -> Verdict:
    """Classify a sampled t -> value curve as vanishing at infinity."""
    tail = samples[-3:]
    reason = f"{quantity}(t) tail {tail[-1]:.3e}"
    if tail[-1] < LIMIT_TOL:
        return Verdict(quantity, i, "pass", "numerical", reason)
    nonzero = tail[-1] > FAIL_FLOOR and not np.all(np.diff(tail) < 0)
    return Verdict(quantity, i, "fail" if nonzero else "indeterminate",
                   reason=reason)


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
        return HypothesisReport((Verdict("R1", i, "fail", reason=str(exc)),))
    roots_text = ", ".join(f"{lam:.12g}" for lam in spectrum.lam)
    r1 = Verdict("R1", i, "pass", value=spectrum.separation, reason=(
        f"roots ({roots_text}), separation {spectrum.separation:.6g}"))

    kernel = problem.equation.kernels[i - 1]
    shifted = kernel.gamma
    phi1 = compute_phi1(kernel)
    grid = hypothesis_grid(problem)
    if not grid:
        reason = "no sample point: the grid starts at t0 + 1 > t_max"
        return HypothesisReport(
            (r1, Verdict("R2", i, "indeterminate", reason=reason),
             Verdict("R3", i, "indeterminate", reason=reason)), phi1=phi1)

    try:
        masses = kernel_masses(problem, i, np.array(grid))
    except QuadratureFailure as exc:
        # a tail that does not decay leaves (R2) unjudged, not the stage
        parts, samples = (), ()
        r2 = Verdict("R2", i, "indeterminate", reason=str(exc))
    else:
        higher_limsup = float(np.max(masses[2:].sum(axis=0)[-3:]))
        parts = (
            _limit_verdict("R", i, masses[0]),
            _limit_verdict("L_1", i, masses[1]),
            Verdict("L_k", i, "pass" if higher_limsup < 1.0 else "fail",
                    reason=f"limsup sum_(k>=2) L_k ~ {higher_limsup:.3e}"),
        )
        samples = tuple(map(tuple, masses.tolist()))
        status = worst(part.status for part in parts)
        r2 = Verdict("R2", i, status, "numerical" if status == "pass" else "",
                     "; ".join(f"{part.reason} [{part}]" for part in parts))

    sigma = estimate_sigma(problem, shifted.mu)
    r3 = Verdict("R3", i, "indeterminate", reason=(
        f"phi1 = {phi1:.6g}; " + "; ".join(
            f"sigma({gam:g}) divergent" for gam in shifted.gamma)))
    return HypothesisReport(
        verdicts=(r1, r2, r3),
        parts=parts,
        t_grid=grid,
        samples=samples,
        phi1=phi1,
        sigma=sigma,
    )
