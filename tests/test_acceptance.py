"""Acceptance gate: one test (and one printed pass/fail line) per
criterion, at the stated tolerances."""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import integrate

from helpers import coeffs_from_roots, make_shifted, reduced_char_coeffs
from poincarefp.asymptotics import (
    admissible_beta_interval,
    envelope_stability,
    wronskian_diagnostic,
)
from poincarefp.green import build_kernel
from poincarefp.hypotheses import compute_L, compute_R
from poincarefp.multipoly import Poly
from poincarefp.oracle import compare_to_fixed_point
from poincarefp.problem import ProblemSpec
from poincarefp.reduction import (
    _mu,
    _nvars,
    _r,
    build_reduced_rhs,
    char_constant_poly,
    full_substitution_poly,
    linear_part_poly,
)
from poincarefp.solver import ode_residual, solve_problem
from poincarefp.spectral import reduced_linear_coefficients
from printed_formulas import (
    discrepancy_report,
    hhat,
    omega0,
    printed_F_poly,
    printed_F_reference,
)


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


class TestAcceptance:
    def test_criterion_01_root_shift_theorem(self):
        rng = np.random.default_rng(2026)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            roots = np.sort(rng.uniform(-5, 5, size=n))[::-1]
            while n > 1 and np.min(-np.diff(roots)) < 0.1:
                roots = np.sort(rng.uniform(-5, 5, size=n))[::-1]
            a = coeffs_from_roots(roots)
            i = int(rng.integers(1, n + 1))
            mu = roots[i - 1]
            b = reduced_linear_coefficients(a, mu)
            got = np.sort(np.roots(reduced_char_coeffs(b)))
            expected = np.sort(
                [roots[j] - mu for j in range(n) if j != i - 1]
            )
            worst = max(worst, float(np.max(np.abs(got - expected))))
        elapsed = time.perf_counter() - start
        report(
            1,
            worst < 1e-8 and elapsed < 10.0,
            f"200 random shifts, worst root error {worst:.3e}, "
            f"{elapsed:.2f}s",
        )

    def test_criterion_02_symbolic_identities_exact(self):
        start = time.perf_counter()
        ok = True
        for n in range(2, 7):
            rng = np.random.default_rng(n)
            a = tuple(float(v) for v in rng.integers(-6, 7, size=n))
            table = build_reduced_rhs(a, n)
            omega0_expected = Poly(_nvars(n))
            for ell in range(n):
                omega0_expected = omega0_expected + _mu(n) ** ell * _r(n, ell)
            ok = ok and omega0(table) == omega0_expected
            # sum rule (sign convention: the table stores F itself, so
            # the total reconstructs the full substitution polynomial)
            total = (
                table.f_poly
                + linear_part_poly(a, n)
                + char_constant_poly(a, n)
            )
            ok = ok and total == full_substitution_poly(a, n)
            # H-hat agreement: sum_{|alpha|>=1} Omega evaluated at ones
            mu, rv = 0.7, [0.1 * (k + 1) for k in range(n)]
            ones = [1.0] * (n - 1)
            mass = hhat(table, mu, rv)
            expected = table.evaluate_F(mu, rv, ones) - table.omega_value(
                (0,) * (n - 1), mu, rv
            )
            ok = ok and mass == expected
        elapsed = time.perf_counter() - start
        report(
            2,
            ok and elapsed < 30.0,
            f"exact rational identities for n = 2..6, {elapsed:.2f}s",
        )

    def test_criterion_03_printed_formula_cross_check(self):
        outcomes = []
        for n, a in ((3, (-6.0, 11.0, -6.0)), (4, (4.0, 0.0, -5.0, 0.0))):
            table = build_reduced_rhs(a, n)
            printed = printed_F_poly(n, a)
            rng = np.random.default_rng(100 + n)
            max_dev = 0.0
            for _ in range(100):
                mu = float(rng.uniform(-2, 2))
                rv = list(rng.uniform(-1, 1, size=n))
                zv = list(rng.uniform(-1, 1, size=n - 1))
                ours = table.evaluate_rhs(mu, rv, zv)
                theirs = -printed_F_reference(n, a, mu, rv, zv)
                max_dev = max(max_dev, abs(ours - theirs))
            rep = discrepancy_report(table.f_poly, printed, n)
            agrees = max_dev < 1e-12
            outcomes.append(agrees or len(rep) > 0)
        report(
            3,
            all(outcomes),
            "printed-vs-recurrence comparison produced agreement or a "
            "monomial discrepancy report for n = 3, 4",
        )

    def test_criterion_04_green_kernel(self):
        rng = np.random.default_rng(4)
        start = time.perf_counter()
        worst_res = 0.0
        worst_jump = 0.0
        count = 0
        while count < 20:
            d = int(rng.integers(1, 5))
            gams = rng.uniform(-4, 4, size=d)
            kind = count % 3
            if kind == 0:
                gams = -np.abs(gams) - 0.2
            elif kind == 1:
                gams = np.abs(gams) + 0.2
            elif not (np.any(gams > 0.1) and np.any(gams < -0.1)):
                continue
            gams = np.where(np.abs(gams) < 0.15, np.sign(gams) * 0.2, gams)
            if len(set(np.round(gams, 4))) < d:
                continue
            kernel = build_kernel(make_shifted(tuple(gams)))
            coeffs = np.poly(np.sort(gams)[::-1])
            for t, s in ((0.3, -0.4), (1.2, 0.9), (-0.8, 0.5)):
                residual = sum(
                    coeffs[d - j] * kernel.derivative(t, s, j)
                    for j in range(d + 1)
                )
                worst_res = max(worst_res, abs(residual))
            eps = 1e-12
            t = 0.6
            jump = kernel.derivative(t, t, d - 1) - kernel.derivative(
                t, t + eps, d - 1
            )
            worst_jump = max(worst_jump, abs(abs(jump) - 1.0))
            count += 1
        elapsed = time.perf_counter() - start
        report(
            4,
            worst_res < 1e-10 and worst_jump < 1e-10 and elapsed < 5.0,
            f"20 kernels: residual {worst_res:.2e}, jump defect "
            f"{worst_jump:.2e}, {elapsed:.2f}s",
        )

    def test_criterion_05_fixed_point_convergence(self, e1_solves):
        results, elapsed = e1_solves
        ok = elapsed < 60.0
        details = []
        for i in (1, 2, 3):
            operator, grid, cert = results[i]
            res = ode_residual(operator, grid)
            ok = ok and cert.contraction_ratio < 1.0
            ok = ok and cert.final_residual < 1e-8
            ok = ok and res < 1e-6
            details.append(
                f"i={i}: ratio {cert.contraction_ratio:.3f}, "
                f"residual {cert.final_residual:.2e}, ode {res:.2e}"
            )
        report(5, ok, "; ".join(details) + f"; {elapsed:.1f}s")

    def test_criterion_06_oracle_equivalence(self, e1_system):
        comp1 = compare_to_fixed_point(e1_system, 1, 10.0)
        ok = comp1.max_error < 1e-4
        details = [f"i=1 value {comp1.max_error:.2e}"]
        for i in (2, 3):
            comp = compare_to_fixed_point(e1_system, i, 10.0)
            ok = ok and comp.max_error < 1e-3
            details.append(f"i={i} log-deriv {comp.max_error:.2e}")
        report(6, ok, "; ".join(details))

    def test_criterion_07_asymptotic_ratios(self, e1_system):
        ok = True
        details = []
        for i, lam in zip((1, 2, 3),
                          e1_system.problem.equation.spectrum.lam):
            ratio = e1_system.derivative_ratio(i, 1, 50.0)
            err = abs(ratio - lam)
            ok = ok and err < 0.01
            details.append(f"i={i}: |y'/y - {lam:.0f}| = {err:.2e}")
        report(7, ok, "; ".join(details))

    def test_criterion_08_wronskian_asymptote(self, e1_system):
        ratio, vandermonde = wronskian_diagnostic(e1_system, 50.0)
        err = abs(ratio - (-2.0)) / 2.0
        report(
            8,
            err < 0.02 and vandermonde == pytest.approx(-2.0, rel=1e-9),
            f"W/prod y = {ratio:.6f} vs -2, relative error {err:.2e}",
        )

    def test_criterion_09_envelope_stability(self, e1_problem, e1_solves):
        results, _ = e1_solves
        spectrum = e1_problem.equation.spectrum
        ok = True
        details = []
        for i in (1, 2, 3):
            lo, hi = admissible_beta_interval(spectrum, i)
            beta = (lo + hi) / 2.0
            _, grid, _ = results[i]
            base, doubled, verdict = envelope_stability(
                e1_problem, grid, i, beta, (10.0, 100.0)
            )
            factor = (
                doubled.sup_ratio / base.sup_ratio
                if base.sup_ratio > 0 else 1.0
            )
            ok = ok and verdict.startswith("pass")
            details.append(f"i={i} beta={beta:+.2f} factor {factor:.2f}")
        report(9, ok, "; ".join(details))

    def test_criterion_10_quadrature_identity(self):
        t0 = 0.0
        worst = 0.0
        for a in (1.0, -1.0):
            for t in (1.0, 5.0):
                # exponents combined inside a single exp so the decaying
                # product never overflows on the semi-infinite range
                def inner(tau):
                    val, _ = integrate.quad(
                        lambda s: np.exp((a - 2) * s), tau,
                        np.inf, epsabs=1e-12, epsrel=1e-12, limit=200,
                    )
                    return val

                left, _ = integrate.quad(
                    lambda tau: np.exp(-a * tau) * inner(tau), t0, t,
                    epsabs=1e-12, epsrel=1e-12, limit=200,
                )
                first, _ = integrate.quad(
                    lambda s: np.exp(-a * (t - s) - 2 * s), t,
                    np.inf, epsabs=1e-12, epsrel=1e-12, limit=200,
                )
                second, _ = integrate.quad(
                    lambda s: np.exp(-a * (t0 - s) - 2 * s), t0,
                    np.inf, epsabs=1e-12, epsrel=1e-12, limit=200,
                )
                third, _ = integrate.quad(
                    lambda s: np.exp(-2 * s), t0, t, epsabs=1e-12,
                    epsrel=1e-12,
                )
                right = (second - first - third) / a
                worst = max(worst, abs(left - right))
        report(
            10, worst < 1e-8,
            f"double-integral identity defect {worst:.2e} over "
            "a in {+1,-1}, t in {1,5}",
        )

    def test_criterion_11_trivial_limit(self, trivial_problem):
        from poincarefp.asymptotics import build_fundamental_system

        ok = True
        grids = []
        for i in (1, 2, 3):
            _, grid, cert = solve_problem(trivial_problem, i)
            ok = ok and float(np.max(np.abs(grid.values))) == 0.0
            grids.append(grid)
            for t in (1.0, 8.0):
                ok = ok and compute_R(trivial_problem, i, t) == 0.0
                ok = ok and compute_L(trivial_problem, i, t, 1) == 0.0
        fs = build_fundamental_system(trivial_problem, grids)
        worst = 0.0
        for i, lam in zip((1, 2, 3), trivial_problem.equation.spectrum.lam):
            for t in (1.0, 10.0):
                worst = max(
                    worst,
                    abs(fs.log_y(i, t) - lam * t)
                    * max(1.0, np.exp(min(lam * t, 0.0))),
                )
        ok = ok and worst < 1e-9
        report(
            11, ok,
            f"r = 0 pipeline: z = 0, R = L_1 = 0, log y defect {worst:.1e}",
        )
