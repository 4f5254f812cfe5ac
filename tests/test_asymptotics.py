"""Envelopes, fundamental system, Wronskian, refined estimate, and the
double-integral quadrature identity."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate

from poincarefp import chebgrid
from poincarefp.asymptotics import (
    ENVELOPE_FLOOR,
    admissible_beta_interval,
    build_fundamental_system,
    check_envelope,
    envelope,
    envelope_stability,
    log_refined_estimate,
    pi_product,
    refined_estimate,
    wronskian_diagnostic,
)
from poincarefp.problem import ProblemSpec
from poincarefp.reduction import build_reduced_rhs
from poincarefp.solver import IterateGrid
from poincarefp.spectral import find_roots


@pytest.fixture(scope="module")
def exp_problem():
    """n = 2, roots (1, -1), r-mass e^{-s} at lambda = 1 and -1 alike
    up to the lambda^l weights; here r0 = e^{-t} only, so the mass is
    exactly e^{-s} for every root."""
    return ProblemSpec(
        n=2, a=(-1.0, 0.0), r_sources=("exp(-t)", "0"), t_max=64.0,
        grid_points=64,
    )


class TestEnvelope:
    def test_zero_perturbation(self, trivial_problem):
        spectrum = find_roots(trivial_problem.a)
        assert envelope(trivial_problem, spectrum, 3, 0.5, 4.0) == 0.0

    def test_case_n_closed_form(self, exp_problem):
        # i = n, beta = 0.5: int_0^t e^{-0.5 (t-s)} e^{-s} ds
        #                     = 2 (e^{-0.5 t} - e^{-t})
        spectrum = find_roots(exp_problem.a)
        for t in (1.0, 3.0):
            expected = 2 * (np.exp(-0.5 * t) - np.exp(-t))
            got = envelope(exp_problem, spectrum, 2, 0.5, t)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_case_1_closed_form(self, exp_problem):
        # i = 1, beta = -0.5: int_t^inf e^{0.5 (t-s)} e^{-s} ds
        #                      = (2/3) e^{-t}
        spectrum = find_roots(exp_problem.a)
        for t in (0.5, 2.0):
            expected = (2.0 / 3.0) * np.exp(-t)
            got = envelope(exp_problem, spectrum, 1, -0.5, t)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_beta_interval_enforced(self, exp_problem):
        spectrum = find_roots(exp_problem.a)
        with pytest.raises(ValueError):
            envelope(exp_problem, spectrum, 1, 0.5, 1.0)
        with pytest.raises(ValueError):
            envelope(exp_problem, spectrum, 2, -0.5, 1.0)
        with pytest.raises(ValueError):
            envelope(exp_problem, spectrum, 1, -3.0, 1.0)

    def test_boundary_beta_admissible(self, exp_problem):
        # closed endpoints: beta = gamma_1 for i = 1, beta = gamma_{n-1}
        # for i = n
        spectrum = find_roots(exp_problem.a)
        assert envelope(exp_problem, spectrum, 1, -2.0, 1.0) > 0.0
        assert envelope(exp_problem, spectrum, 2, 2.0, 1.0) > 0.0

    def test_intervals(self, e1_spectrum):
        assert admissible_beta_interval(e1_spectrum, 1) == pytest.approx(
            (-1.0, 0.0)
        )
        assert admissible_beta_interval(e1_spectrum, 2) == pytest.approx(
            (-1.0, 0.0)
        )
        assert admissible_beta_interval(e1_spectrum, 3) == pytest.approx(
            (0.0, 1.0)
        )


class TestEnvelopeCheck:
    def test_trivial_vacuous_pass(self, trivial_problem):
        from poincarefp import solve_problem

        spectrum = find_roots(trivial_problem.a)
        _, grid, _ = solve_problem(trivial_problem, 3)
        check = check_envelope(
            trivial_problem, spectrum, grid, 3, 0.5, (10.0, 20.0)
        )
        assert check.sup_ratio == 0.0
        assert check.verdict == "pass (vacuous)"

    def test_envelope_below_floor_is_left_out(self):
        # r0 = e^{-7t}/10 makes the i = 1 envelope e^{-7t}/80: above
        # the floor up to t = 98, positive but below it from t = 99 on.
        # A constant iterate z = 1e-3 would give ratios up to 1e-3 / 1e-318
        # there, so those points must be missing from samples and sup.
        problem = ProblemSpec(
            n=2, a=(-1.0, 0.0), r_sources=("exp(-7*t)/10", "0"),
            t_max=120.0, grid_points=32,
        )
        spectrum = find_roots(problem.a)
        nodes = chebgrid.lobatto_nodes(problem.t0, problem.t_max, 32)
        values = np.full((1, 32), 1e-3)
        solution = IterateGrid(
            nodes=nodes, values=values,
            coeffs=chebgrid.chebyshev_coefficients(values), mu=1.0,
        )
        ts = np.linspace(95.0, 104.0, 10)
        envs = envelope(problem, spectrum, 1, -1.0, ts)
        below = (envs > 0.0) & (envs < ENVELOPE_FLOOR)
        assert below.sum() == 6 and not np.any(envs == 0.0)
        check = check_envelope(problem, spectrum, solution, 1, -1.0,
                               (95.0, 104.0), points=10)
        sampled = [t for t, _ in check.samples]
        assert sampled == pytest.approx(list(ts[~below]), abs=1e-12)
        ratios = [ratio for _, ratio in check.samples]
        assert check.sup_ratio == max(ratios)
        assert check.sup_ratio == pytest.approx(1e-3 / envs[~below].min(),
                                                rel=1e-6)
        assert check.verdict == "computed"

    def test_golden_stability(self, e1_problem, e1_spectrum, e1_solves):
        results, _ = e1_solves
        _, grid, _ = results[3]
        base, doubled, verdict = envelope_stability(
            e1_problem, e1_spectrum, grid, 3, 0.5, (10.0, 50.0)
        )
        assert verdict == "pass"
        assert doubled.sup_ratio < 3.0 * base.sup_ratio


class TestFundamentalSystem:
    def test_y_at_t0_is_one(self, e1_system):
        for i in (1, 2, 3):
            assert e1_system.log_y(i, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_is_pure_exponential(self, trivial_problem):
        from poincarefp import solve_problem

        spectrum = find_roots(trivial_problem.a)
        grids = [solve_problem(trivial_problem, i)[1] for i in (1, 2, 3)]
        fs = build_fundamental_system(trivial_problem, spectrum, grids)
        for i, lam in zip((1, 2, 3), spectrum.lam):
            for t in (1.0, 10.0, 50.0):
                assert fs.log_y(i, t) == pytest.approx(lam * t, abs=1e-9)

    def test_derivative_ratio_tends_to_lambda(self, e1_system):
        for i, lam in zip((1, 2, 3), e1_system.spectrum.lam):
            ratio = e1_system.derivative_ratio(i, 1, 50.0)
            assert ratio == pytest.approx(lam, abs=0.01)

    def test_ratio_order_zero_is_one(self, e1_system):
        assert e1_system.derivative_ratio(2, 0, 7.0) == 1.0

    def test_missing_solve_rejected(self, e1_problem, e1_spectrum,
                                    e1_solves):
        results, _ = e1_solves
        with pytest.raises(ValueError):
            build_fundamental_system(
                e1_problem, e1_spectrum, [results[1][1]]
            )


class TestWronskian:
    def test_trivial_equals_vandermonde(self, trivial_problem):
        from poincarefp import solve_problem

        spectrum = find_roots(trivial_problem.a)
        grids = [solve_problem(trivial_problem, i)[1] for i in (1, 2, 3)]
        fs = build_fundamental_system(trivial_problem, spectrum, grids)
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
    def test_pi_products(self, e1_spectrum):
        assert pi_product(e1_spectrum, 1) == pytest.approx(2.0)
        assert pi_product(e1_spectrum, 2) == pytest.approx(-1.0)
        assert pi_product(e1_spectrum, 3) == pytest.approx(2.0)

    def test_trivial_reduces_to_exponential(self, trivial_problem):
        from poincarefp import solve_problem

        spectrum = find_roots(trivial_problem.a)
        table = build_reduced_rhs(trivial_problem.a, trivial_problem.n)
        _, grid, _ = solve_problem(trivial_problem, 2)
        got = refined_estimate(
            trivial_problem, table, spectrum, 2, grid, 3.0
        )
        assert got == pytest.approx(np.exp(2.0 * 3.0), rel=1e-10)

    def test_golden_tracks_reconstruction(self, e1_problem, e1_table,
                                          e1_spectrum, e1_solves,
                                          e1_system):
        results, _ = e1_solves
        _, grid, _ = results[1]
        gaps = [
            log_refined_estimate(
                e1_problem, e1_table, e1_spectrum, 1, grid, t
            ) - e1_system.log_y(1, t)
            for t in (20.0, 50.0)
        ]
        # the residual multiplicative factor is reported, not certified;
        # it must be moderate and settle to a constant
        assert abs(gaps[0]) < np.log(3.0)
        assert abs(gaps[1] - gaps[0]) < 0.01


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
