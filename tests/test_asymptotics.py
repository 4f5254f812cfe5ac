"""Envelopes, fundamental system, Wronskian, refined estimate, and the
double-integral quadrature identity."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from helpers import coeffs_from_roots
from poincarefp import chebgrid, kernelquad
from poincarefp.asymptotics import (
    ENVELOPE_FLOOR,
    ENVELOPE_POINTS,
    admissible_beta_interval,
    build_fundamental_system,
    envelope,
    envelope_stability,
    equation_defect,
    jet_ratios,
    log_refined_estimate,
    pi_product,
    wronskian_diagnostic,
)
from poincarefp.cli import load_config
from poincarefp.errors import QuadratureFailure
from poincarefp.problem import Equation, ProblemSpec
from poincarefp.reduction import OmegaTable, build_derivative_polynomials
from poincarefp.solver import IterateGrid, solve_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def exp_problem():
    """n = 2, roots (1, -1), r-mass e^{-s} at lambda = 1 and -1 alike
    up to the lambda^l weights; here r0 = e^{-t} only, so the mass is
    exactly e^{-s} for every root."""
    return ProblemSpec(
        Equation(2, (-1.0, 0.0)), r_sources=("exp(-t)", "0"), t_max=64.0,
        grid_points=64,
    )


class TestEnvelope:
    def test_zero_perturbation(self, trivial_problem):
        assert envelope(trivial_problem, 3, 0.5, 4.0) == 0.0

    def test_case_n_closed_form(self, exp_problem):
        # i = n, beta = 0.5: int_0^t e^{-0.5 (t-s)} e^{-s} ds
        #                     = 2 (e^{-0.5 t} - e^{-t})
        for t in (1.0, 3.0):
            expected = 2 * (np.exp(-0.5 * t) - np.exp(-t))
            got = envelope(exp_problem, 2, 0.5, t)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_case_1_closed_form(self, exp_problem):
        # i = 1, beta = -0.5: int_t^inf e^{0.5 (t-s)} e^{-s} ds
        #                      = (2/3) e^{-t}
        for t in (0.5, 2.0):
            expected = (2.0 / 3.0) * np.exp(-t)
            got = envelope(exp_problem, 1, -0.5, t)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_beta_interval_enforced(self, exp_problem):
        with pytest.raises(ValueError):
            envelope(exp_problem, 1, 0.5, 1.0)
        with pytest.raises(ValueError):
            envelope(exp_problem, 2, -0.5, 1.0)
        with pytest.raises(ValueError):
            envelope(exp_problem, 1, -3.0, 1.0)

    def test_boundary_beta_admissible(self, exp_problem):
        # closed endpoints: beta = gamma_1 for i = 1, beta = gamma_{n-1}
        # for i = n
        assert envelope(exp_problem, 1, -2.0, 1.0) > 0.0
        assert envelope(exp_problem, 2, 2.0, 1.0) > 0.0

    def test_overflow_at_a_target_raises(self):
        # a middle root's causal weight is e^{|beta| (t - s)}: on roots
        # (30, 1, -1, -30), lambda_3 at its default beta = -14.5 overflows
        # from about t = 49 on, which must raise rather than read inf;
        # below that, and on (10, 1, -1, -10) at beta = -4.5, every target
        # stays finite, however far past them the scan overflows
        def spread(outer):
            roots = (outer, 1.0, -1.0, -outer)
            return ProblemSpec(
                Equation(4, coeffs_from_roots(roots)),
                r_sources=("1/(2*(1+t)^4)", "0", "0", "0"), t_max=160.0,
            )

        wide, narrow = spread(30.0), spread(10.0)
        ts = np.array([10.0, 45.0, 80.0, 115.0, 150.0])
        with pytest.raises(QuadratureFailure,
                           match=r"t = 80.0 is not finite"):
            envelope(wide, 3, -14.5, ts)
        assert np.isfinite(envelope(wide, 3, -14.5, ts[:2])).all()
        values = envelope(narrow, 3, -4.5, ts)
        assert np.isfinite(values).all() and values[-1] > 1e291

    def test_intervals(self, e1_problem):
        spectrum = e1_problem.equation.spectrum
        assert admissible_beta_interval(spectrum, 1) == pytest.approx(
            (-1.0, 0.0)
        )
        assert admissible_beta_interval(spectrum, 2) == pytest.approx(
            (-1.0, 0.0)
        )
        assert admissible_beta_interval(spectrum, 3) == pytest.approx(
            (0.0, 1.0)
        )


class TestEnvelopeCheck:
    def test_trivial_vacuous_pass(self, trivial_problem):
        _, grid, _ = solve_problem(trivial_problem, 3)
        base, doubled, status = envelope_stability(
            trivial_problem, grid, 3, 0.5, (10.0, 20.0))
        assert base.sup_ratio == doubled.sup_ratio == 0.0
        assert status == "pass"

    @staticmethod
    def constant_iterate(problem, value):
        nodes = chebgrid.lobatto_nodes(problem.t0, problem.t_max, 32)
        values = np.full((1, 32), value)
        return IterateGrid(
            nodes=nodes, values=values,
            coeffs=chebgrid.chebyshev_coefficients(values),
        )

    def test_envelope_below_floor_is_left_out(self):
        # r0 = e^{-7t}/10 makes the i = 1 envelope e^{-7t}/80: above
        # the floor up to t = 98, positive but below it from t = 99 on.
        # A constant iterate z = 1e-3 would give ratios up to 1e-3 / 1e-318
        # there, so those points must be missing from samples and sup,
        # in the window and in the doubled window alike.
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=("exp(-7*t)/10", "0"),
            t_max=120.0, grid_points=32,
        )
        solution = self.constant_iterate(problem, 1e-3)
        checks = envelope_stability(problem, solution, 1, -1.0,
                                    (80.0, 104.0))[:2]
        # t = 80, 81, ..., 104 and t = 80, 81 2/3, ..., 120 (t_max); the
        # points below the floor are positive but for the doubled window's
        # last nine, where the envelope underflows to 0
        for check, hi, count, positive in zip(checks, (104.0, 120.0),
                                              (6, 14), (6, 5)):
            ts = np.linspace(80.0, hi, ENVELOPE_POINTS)
            envs = envelope(problem, 1, -1.0, ts)
            below = envs < ENVELOPE_FLOOR
            assert below.sum() == count
            assert (envs[below] > 0.0).sum() == positive
            sampled = [t for t, _ in check.samples]
            assert sampled == pytest.approx(list(ts[~below]), abs=1e-12)
            ratios = [ratio for _, ratio in check.samples]
            assert check.sup_ratio == max(ratios)
            assert check.sup_ratio == pytest.approx(
                1e-3 / envs[~below].min(), rel=1e-6)

    def test_envelope_underflowed_everywhere(self):
        # past t = 99 no point of either window forms a ratio: a vanishing
        # iterate reads sup 0, any other has no sup
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=("exp(-7*t)/10", "0"),
            t_max=120.0, grid_points=32,
        )
        window = (100.0, 110.0)
        base, doubled, status = envelope_stability(
            problem, self.constant_iterate(problem, 0.0), 1, -1.0, window)
        assert base == doubled
        assert (base.sup_ratio, base.samples, status) == (0.0, (), "pass")
        with pytest.raises(QuadratureFailure, match="underflowed"):
            envelope_stability(problem, self.constant_iterate(problem, 1e-3),
                               1, -1.0, window)

    @pytest.mark.parametrize("name", ["e1_n3", "spread_n4"])
    def test_one_quadrature_for_both_windows(self, monkeypatch, name):
        problem = load_config(CONFIGS / f"{name}.conf").problem
        spectrum = problem.equation.spectrum
        window = (problem.t0 + 10.0,
                  problem.t0 + min(100.0, (problem.t_max - problem.t0) / 2))
        for i in range(1, problem.n + 1):
            beta = sum(admissible_beta_interval(spectrum, i)) / 2
            _, grid, _ = solve_problem(problem, i)
            # one envelope quadrature per window, as the sup was taken
            # before both windows shared one
            reference = []
            for hi in (window[1], window[0] + 2 * (window[1] - window[0])):
                ts = np.linspace(window[0], min(hi, grid.t_max),
                                 ENVELOPE_POINTS)
                masses = np.abs(grid.jet(ts)).sum(axis=0)
                reference.append(max(masses / envelope(problem, i, beta,
                                                       ts)))
            calls = []
            exp_integrals = kernelquad.exp_integrals

            def spy(*args, **kwargs):
                calls.append(args[1])
                return exp_integrals(*args, **kwargs)

            monkeypatch.setattr(kernelquad, "exp_integrals", spy)
            base, doubled, _ = envelope_stability(problem, grid, i, beta,
                                                  window)
            monkeypatch.undo()
            assert len(calls) == 1
            assert np.shape(calls[0]) == (2, ENVELOPE_POINTS)
            assert [base.sup_ratio, doubled.sup_ratio] == pytest.approx(
                reference, rel=1e-13, abs=0)

    def test_golden_stability(self, e1_problem, e1_solves):
        results, _ = e1_solves
        _, grid, _ = results[3]
        base, doubled, verdict = envelope_stability(
            e1_problem, grid, 3, 0.5, (10.0, 50.0)
        )
        assert verdict == "pass"
        assert doubled.sup_ratio < 3.0 * base.sup_ratio


class TestFundamentalSystem:
    def test_y_at_t0_is_one(self, e1_system):
        for i in (1, 2, 3):
            assert e1_system.log_y(i, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_is_pure_exponential(self, trivial_problem):
        grids = [solve_problem(trivial_problem, i)[1] for i in (1, 2, 3)]
        fs = build_fundamental_system(trivial_problem, grids)
        for i, lam in zip((1, 2, 3), (3.0, 2.0, 1.0)):
            for t in (1.0, 10.0, 50.0):
                assert fs.log_y(i, t) == pytest.approx(lam * t, abs=1e-9)

    def test_derivative_ratio_tends_to_lambda(self, e1_system):
        for i, lam in zip((1, 2, 3), (3.0, 2.0, 1.0)):
            ratio = e1_system.derivative_ratio(i, 1, 50.0)
            assert ratio == pytest.approx(lam, abs=0.01)

    def test_ratio_order_zero_is_one(self, e1_system):
        assert e1_system.derivative_ratio(2, 0, 7.0) == 1.0

    def test_missing_solve_rejected(self, e1_problem, e1_solves):
        results, _ = e1_solves
        with pytest.raises(ValueError):
            build_fundamental_system(e1_problem, [results[1][1]])


class TestLeibnizRatios:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_match_the_exact_polynomials(self, n):
        # y^(j) = P_j y with the P_j of the reduction's recurrence; their
        # coefficients are positive, so P_j at |point| bounds the terms
        polys = build_derivative_polynomials(n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            lam = rng.uniform(-4.0, 4.0)
            zjet = rng.uniform(-2.0, 2.0, size=n - 1)
            got = jet_ratios(lam, zjet)
            assert len(got) == n
            point = [lam] + [0.0] * n + list(zjet) + [0.0, 0.0]
            for j in range(n):
                want = polys[j].evaluate(point)
                bound = polys[j].evaluate([abs(v) for v in point])
                assert abs(got[j] - want) <= 1e-13 * bound, (j, got[j], want)

    def test_rows_of_an_array_jet(self):
        zjet = np.array([[0.1, -0.2, 0.3], [0.5, 0.0, -1.0]])
        got = jet_ratios(2.0, zjet)
        for col in range(3):
            single = jet_ratios(2.0, zjet[:, col])
            assert [rho[col] for rho in got] == single
        assert got[0].shape == (3,)


# Negative controls of the defect row.  Each must fail every root of
# every shipped config; neither scale was tuned until it failed.
#
# z scaled by 1 + Z_SCALE: for small z the defect moves by about
# Z_SCALE |z^(n-1) + sum_j b_j z^(j)| = Z_SCALE |F(z)|, and F is about
# Omega_0(lambda_i, r) = r_0 on the shipped configs: 0.1, 1 and 0.5 at
# t0, over a scale sum_k |c_k| |rho_k| of 2 to 120.  So the row should
# read at least 8e-3 Z_SCALE, and 1e-6 predicts 8e-9 or more against
# bounds of at most 1.1e-9 (tol = 1e-10 and estimates up to 1.1e-10).
Z_SCALE = 1e-6
# One nonlinear Omega row scaled by 1 + OMEGA_SCALE and re-solved: the new
# z solves the reduced equation of the wrong table, so y_i misses the
# original one by OMEGA_SCALE Omega_alpha z^alpha.  At the heaviest row
# that is at most 1e-2 x its weight (2e-4 .. 0.26) over the scale, and
# 1.4e-7 to 1.3e-5 in fact (the weight takes sup_norm for every factor),
# against bounds of at most 1.1e-9.
OMEGA_SCALE = Fraction(1, 100)


def heaviest_nonlinear_row(problem, i, sup_norm):
    """The alpha with |alpha| >= 2 of largest weight
    sup_t |Omega_alpha(lambda_i, r(t))| sup_norm^|alpha|.  A row's position
    says nothing of its size: the first row of spread_n4's table is z^4,
    which weighs sup_norm^4 ~ 2e-5 there, against 0.025 .. 0.05 for
    z z' (alpha = (1, 1, 0)).  The linear rows carry only
    r_1 .. r_{n-1}, zero on the shipped configs, and Omega_0 is the
    forcing r itself, so the rows that the change of variables produces
    are the nonlinear ones."""
    table = problem.equation.table
    lam = problem.equation.spectrum.lam[i - 1]
    omegas = table.omega_values(lam, problem.r_list(problem.panel_rule.nodes))
    weights = {
        tuple(alpha): float(np.max(np.abs(omega))) * sup_norm ** sum(alpha)
        for alpha, omega in zip(table.exponents.tolist(), omegas)
        if sum(alpha) >= 2
    }
    return max(weights, key=weights.get)


def with_scaled_row(problem, alpha, factor):
    """The problem with Omega_alpha of its table scaled by factor; the
    equation's a, r and everything else are unchanged."""
    table = problem.equation.table
    rows = dict(table.table)
    rows[alpha] = rows[alpha] * factor
    equation = Equation(problem.n, problem.a)
    equation.__dict__["table"] = OmegaTable(n=problem.n, table=rows,
                                            f_poly=table.f_poly)
    return replace(problem, equation=equation)


class TestEquationDefect:
    def test_zero_perturbation_is_round_off(self, trivial_problem):
        # r = 0: z = 0 and y_i = e^{lambda_i t}, so D is the characteristic
        # polynomial at the float root
        for i in (1, 2, 3):
            _, grid, cert = solve_problem(trivial_problem, i)
            defect, bound = equation_defect(trivial_problem, grid, i,
                                            cert.discretisation_error)
            assert defect < 1e-15 and defect <= bound

    @pytest.mark.parametrize("name", ["decaying_n2", "e1_n3", "spread_n4"])
    def test_passes_and_both_controls_fail_every_root(self, name):
        problem = load_config(CONFIGS / f"{name}.conf").problem
        for i in range(1, problem.n + 1):
            _, grid, cert = solve_problem(problem, i)
            error = cert.discretisation_error
            defect, bound = equation_defect(problem, grid, i, error)
            assert defect <= bound, (i, defect, bound)

            scaled = replace(grid, values=grid.values * (1 + Z_SCALE),
                             coeffs=grid.coeffs * (1 + Z_SCALE))
            moved, _ = equation_defect(problem, scaled, i, error)
            assert moved > bound, (i, "z", moved, bound)

            alpha = heaviest_nonlinear_row(problem, i, cert.sup_norm)
            wrong = with_scaled_row(problem, alpha, 1 + OMEGA_SCALE)
            _, grid_w, cert_w = solve_problem(wrong, i)
            # judged against the original equation
            moved, bound_w = equation_defect(problem, grid_w, i,
                                             cert_w.discretisation_error)
            assert moved > bound_w, (i, alpha, moved, bound_w)

    def test_reads_the_original_equation_not_the_table(self, e1_problem,
                                                       e1_solves):
        # the same z judged against a problem whose table is wrong: the
        # defect does not move, since it never reads the table
        results, _ = e1_solves
        _, grid, cert = results[2]
        wrong = with_scaled_row(e1_problem, (1, 1), 2)
        assert equation_defect(wrong, grid, 2, cert.discretisation_error) \
            == equation_defect(e1_problem, grid, 2,
                               cert.discretisation_error)


class TestWronskian:
    def test_trivial_equals_vandermonde(self, trivial_problem):
        grids = [solve_problem(trivial_problem, i)[1] for i in (1, 2, 3)]
        fs = build_fundamental_system(trivial_problem, grids)
        ratio, vandermonde = wronskian_diagnostic(fs, 4.0)
        assert vandermonde == pytest.approx(-2.0, rel=1e-12)
        assert ratio == pytest.approx(vandermonde, rel=1e-10)

    def test_golden_converges_to_vandermonde(self, e1_system):
        errors = [
            abs(wronskian_diagnostic(e1_system, t)[0] - (-2.0))
            for t in (5.0, 10.0, 20.0, 50.0)
        ]
        # noise-tolerant monotonicity: most consecutive pairs decrease
        decreases = sum(
            1 for a, b in zip(errors, errors[1:]) if b <= a + 1e-12
        )
        assert decreases >= 2
        assert errors[-1] < 0.04


class TestRefinedEstimate:
    def test_pi_products(self, e1_problem):
        spectrum = e1_problem.equation.spectrum
        assert pi_product(spectrum, 1) == pytest.approx(2.0)
        assert pi_product(spectrum, 2) == pytest.approx(-1.0)
        assert pi_product(spectrum, 3) == pytest.approx(2.0)

    def test_trivial_reduces_to_exponential(self, trivial_problem):
        _, grid, _ = solve_problem(trivial_problem, 2)
        got = log_refined_estimate(trivial_problem, 2, grid, 3.0)
        assert abs(got - 2.0 * 3.0) <= 1e-10

    def test_golden_tracks_reconstruction(self, e1_problem, e1_solves,
                                          e1_system):
        results, _ = e1_solves
        _, grid, _ = results[1]
        gaps = [
            log_refined_estimate(e1_problem, 1, grid, t)
            - e1_system.log_y(1, t)
            for t in (20.0, 50.0)
        ]
        # the residual multiplicative factor is reported, not certified;
        # it must be moderate and settle to a constant
        assert abs(gaps[0]) < np.log(3.0)
        assert abs(gaps[1] - gaps[0]) < 0.01


    def test_config_tolerance_reaches_every_plain_integral(
            self, e1_problem, e1_system, e1_solves, monkeypatch):
        # log_refined_estimate and abel_check integrate at the problem's
        # tol, not at a default of their own
        from poincarefp import kernelquad
        from poincarefp.oracle import abel_check

        integral = kernelquad.integral
        tols = []

        def spy(f, lo, hi, tol):
            tols.append(tol)
            return integral(f, lo, hi, tol)

        monkeypatch.setattr(kernelquad, "integral", spy)
        problem = replace(e1_problem, tol=1e-7)
        grid = e1_solves[0][1][1]
        log_refined_estimate(problem, 1, grid,
                             grid.t_max + 5.0)  # window and tail
        abel_check(replace(e1_system, problem=problem), 5.0)
        assert tols == [1e-7, 1e-7, 1e-7]


class TestQuadratureIdentity:
    @pytest.mark.parametrize("a", [1.0, -1.0])
    @pytest.mark.parametrize("t", [1.0, 5.0])
    def test_double_integral_identity(self, a, t):
        t0 = 0.0

        def big_h(s):
            return np.exp(-2 * s)

        # exponents combined inside a single exp so the decaying product
        # never overflows on the semi-infinite range
        def inner(tau):
            val, _ = integrate.quad(
                lambda s: np.exp((a - 2) * s), tau, np.inf,
                epsabs=1e-12, epsrel=1e-12, limit=200,
            )
            return val

        left, _ = integrate.quad(
            lambda tau: np.exp(-a * tau) * inner(tau), t0, t,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )

        first, _ = integrate.quad(
            lambda s: np.exp(-a * (t - s) - 2 * s), t, np.inf,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        second, _ = integrate.quad(
            lambda s: np.exp(-a * (t0 - s) - 2 * s), t0, np.inf,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        third, _ = integrate.quad(big_h, t0, t, epsabs=1e-12, epsrel=1e-12)
        right = (second - first - third) / a
        assert left == pytest.approx(right, abs=1e-8)
