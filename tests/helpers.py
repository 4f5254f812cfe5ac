"""Small shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from poincarefp.errors import QuadratureFailure
from poincarefp.multipoly import Poly
from poincarefp.spectral import ShiftedSpectrum


def make_shifted(gammas, mu=0.0) -> ShiftedSpectrum:
    """Build a ShiftedSpectrum directly from a root tuple."""
    gammas = tuple(sorted((float(g) for g in gammas), reverse=True))
    if gammas[0] < 0:
        case = 1
    elif gammas[-1] > 0:
        case = len(gammas) + 1
    else:
        case = next(
            k + 1
            for k in range(1, len(gammas))
            if gammas[k] < 0 < gammas[k - 1]
        )
    return ShiftedSpectrum(gamma=gammas, case_index=case, mu=mu)


def char_coeffs(gammas) -> np.ndarray:
    """Monic coefficients (highest first) of prod (x - gamma_l)."""
    return np.poly(np.asarray(gammas))


def coeffs_from_roots(roots):
    """(a_0, ..., a_{n-1}) of the monic polynomial with the given roots."""
    poly = np.poly(np.asarray(roots))
    return tuple(poly[1:][::-1])


def reduced_char_coeffs(b) -> np.ndarray:
    """Monic coefficients (highest first) of s^{n-1} + sum b_i s^i."""
    b = np.asarray(b, dtype=float)
    return np.concatenate(([1.0], b[::-1]))


def diff_terms(p: Poly, q: Poly) -> dict:
    """Exponent -> (p coefficient minus q coefficient), for every
    monomial where the two differ."""
    out = {}
    for expo in set(p.terms) | set(q.terms):
        delta = p.terms.get(expo, 0) - q.terms.get(expo, 0)
        if delta:
            out[expo] = delta
    return out


# ---------------------------------------------------------------------------
# adaptive-quadrature oracle for the kernel integrals
#
# The package evaluates R, L_k, sigma_gamma and the envelope with the panel
# rule of ``kernelquad``.  These are the scalar scipy ``quad`` versions it
# replaced, kept as a reference: one target t per call, an adaptive finite
# window plus a probed exponential tail.  The integrands are plain-float
# re-implementations of the kernel and of the Omega coefficients, so the
# oracle shares no numerical code with the package beyond the parsed r_i.
# ---------------------------------------------------------------------------

QUAD_LIMIT = 200
QUAD_TAIL_SAFETY = 0.01


def quad_tail_cutoff(f, lo: float, rate: float, tol: float) -> float:
    """Smallest probe point T >= lo with |f(T)| / rate below the tail
    budget; raises QuadratureFailure if doubling the window never gets
    there."""
    budget = QUAD_TAIL_SAFETY * tol
    span = max(10.0, 10.0 / rate)
    prev = np.inf
    for _ in range(40):
        cut = lo + span
        with np.errstate(over="ignore"):
            probe = abs(f(cut))
        if probe / rate < budget:
            return cut
        if not np.isfinite(probe) or probe > prev:
            break
        prev = probe
        span *= 2.0
    raise QuadratureFailure(
        f"integrand tail at {lo + span} is not below {budget}"
    )


def quad_with_tail(f, lo: float, rate: float, tol: float) -> float:
    """int_lo^inf f(s) ds for |f| decaying at exponential rate ``rate``."""
    cut = quad_tail_cutoff(f, lo, rate, tol)
    value, _ = integrate.quad(f, lo, cut, epsabs=tol, epsrel=tol,
                              limit=QUAD_LIMIT)
    return value


def _float_poly(poly):
    """[(coefficient, ((variable, power), ...)), ...] of a Poly."""
    return [
        (float(c), tuple((idx, p) for idx, p in enumerate(expo) if p))
        for expo, c in poly.terms.items()
    ]


def _eval_float_poly(terms, point) -> float:
    total = 0.0
    for coeff, factors in terms:
        for idx, power in factors:
            coeff *= point[idx] ** power
        total += coeff
    return total


class ScalarModel:
    """Scalar kernel derivatives and coefficient masses for root i of the
    problem."""

    def __init__(self, problem, i: int):
        kernel = problem.equation.kernels[i - 1]
        self.problem = problem
        self.n = problem.n
        self.mu = kernel.gamma.mu
        self.terms = [
            (gam, causal, kernel.term_sign(ell) * kernel.coeffs[ell])
            for ell, (gam, causal) in enumerate(
                zip(kernel.gamma.gamma, kernel.causal)
            )
        ]
        self.rate = kernel.decay_rate()
        self.omegas = {
            alpha: _float_poly(poly)
            for alpha, poly in problem.equation.table.table.items()
        }

    def g(self, t: float, s: float, j: int) -> float:
        out = 0.0
        for gam, causal, amp in self.terms:
            if (t >= s) if causal else (s > t):
                out += amp * gam ** j * math.exp(gam * (t - s))
        return out

    def point(self, s: float):
        vals = [0.0] * (2 * self.n + 2)
        vals[0] = self.mu
        for i in range(self.n):
            vals[1 + i] = float(self.problem.r_value(i, s))
        return vals

    def omega0(self, s: float) -> float:
        terms = self.omegas.get((0,) * (self.n - 1), [])
        return _eval_float_poly(terms, self.point(s))

    def mass(self, s: float, orders) -> float:
        point = self.point(s)
        return sum(
            abs(_eval_float_poly(terms, point))
            for alpha, terms in self.omegas.items() if sum(alpha) in orders
        )

    def has_anticausal(self) -> bool:
        return any(not causal for _, causal, _ in self.terms)


def quad_R(model: ScalarModel, t: float, tol: float = 1e-10) -> float:
    total = 0.0
    for j in range(model.n - 1):
        def f(s, j=j):
            return model.g(t, s, j) * model.omega0(s)

        part, _ = integrate.quad(f, model.problem.t0, t, epsabs=tol,
                                 epsrel=tol, limit=QUAD_LIMIT)
        if model.has_anticausal():
            part += quad_with_tail(f, t, model.rate, tol)
        total += abs(part)
    return total


def quad_L(model: ScalarModel, t: float, k: int,
           tol: float = 1e-10) -> float:
    def f(s):
        kern = sum(abs(model.g(t, s, j)) for j in range(model.n - 1))
        return kern * model.mass(s, (k,))

    value, _ = integrate.quad(f, model.problem.t0, t, epsabs=tol,
                              epsrel=tol, limit=QUAD_LIMIT)
    if model.has_anticausal():
        value += quad_with_tail(f, t, model.rate, tol)
    return value


def quad_sigma(model: ScalarModel, gamma: float, t: float,
               tol: float = 1e-8) -> float:
    orders = tuple(range(1, model.n + 1))

    def f(s):
        return math.exp(-gamma * (t - s)) * model.mass(s, orders)

    value, _ = integrate.quad(f, model.problem.t0, t, epsabs=tol,
                              epsrel=tol, limit=QUAD_LIMIT)
    rate = gamma * 0.5 if gamma > 0 else -gamma
    return value + quad_with_tail(f, t, rate, tol)


def quad_envelope(problem, i: int, beta: float, t: float,
                  tol: float = 1e-10) -> float:
    spectrum = problem.equation.spectrum
    lam = spectrum.lam[i - 1]

    def f(s):
        mass = sum(lam ** ell * float(problem.r_value(ell, s))
                   for ell in range(problem.n))
        return math.exp(-beta * (t - s)) * abs(mass)

    if i == spectrum.n:
        value, _ = integrate.quad(f, problem.t0, t, epsabs=tol, epsrel=tol,
                                  limit=QUAD_LIMIT)
        return value
    lower = t if i == 1 else problem.t0
    return quad_with_tail(f, lower, max(-beta, 1e-3), tol)
