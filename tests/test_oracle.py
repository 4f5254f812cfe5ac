"""Reference integrator and fixed-point comparison."""

from __future__ import annotations

import numpy as np
import pytest

from poincarefp.oracle import (
    abel_check,
    companion_rhs,
    compare_to_fixed_point,
    initial_jet,
    integrate_original,
)
from poincarefp.problem import ProblemSpec


class TestIntegrateOriginal:
    def test_pure_exponential_n2(self):
        problem = ProblemSpec(
            n=2, a=(-1.0, 0.0), r_sources=("0", "0"), t_max=32.0,
            grid_points=32,
        )
        sample = integrate_original(
            problem, (1.0, 1.0), 1.0, t_eval=np.array([1.0])
        )
        assert sample.states[0][-1] == pytest.approx(np.e, rel=1e-9)

    def test_pure_exponential_growth_ratio(self):
        problem = ProblemSpec(
            n=3, a=(-6.0, 11.0, -6.0), r_sources=("0", "0", "0"),
            t_max=32.0, grid_points=32,
        )
        t_eval = np.array([0.999, 1.0])
        sample = integrate_original(problem, (1.0, 3.0, 9.0), 1.0,
                                    t_eval=t_eval)
        ratio = sample.states[0][1] / sample.states[0][0]
        assert ratio == pytest.approx(np.exp(3 * 0.001), rel=1e-8)

    def test_tolerance_tightening_improves_error(self):
        problem = ProblemSpec(
            n=2, a=(-1.0, 0.0), r_sources=("0", "0"), t_max=32.0,
            grid_points=32,
        )
        t_eval = np.array([2.0])
        exact = np.exp(2.0)
        loose = integrate_original(problem, (1.0, 1.0), 2.0, t_eval=t_eval,
                                   rtol=1e-6, atol=1e-8)
        tight = integrate_original(problem, (1.0, 1.0), 2.0, t_eval=t_eval,
                                   rtol=1e-12, atol=1e-14)
        err_loose = abs(loose.states[0][0] - exact)
        err_tight = abs(tight.states[0][0] - exact)
        assert err_tight < err_loose


class TestCompanionRhs:
    def test_constant_perturbations_evaluated_once(self, monkeypatch):
        problem = ProblemSpec(
            n=3, a=(-6.0, 11.0, -6.0),
            r_sources=("1/(1+t)^3", "0", "exp(1)/100"),
            t_max=32.0, grid_points=32,
        )
        calls = []
        r_value = ProblemSpec.r_value

        def counted(self, i, t):
            calls.append(i)
            return r_value(self, i, t)

        monkeypatch.setattr(ProblemSpec, "r_value", counted)
        rhs = companion_rhs(problem)
        calls.clear()
        state = np.array([1.0, -2.0, 3.0])
        for t in (0.0, 0.5, 7.25):
            out = rhs(t, state)
            # same arithmetic as evaluating every r_i at every step
            coeffs = np.asarray(problem.a) + np.array(
                [r_value(problem, i, t) for i in range(3)]
            )
            assert out[-1] == -np.dot(coeffs, state)
            assert list(out[:-1]) == [-2.0, 3.0]
        assert calls == [0, 0, 0]


class TestComparisons:
    def test_trivial_problem_value_agreement(self, trivial_problem):
        from poincarefp import find_roots, solve_problem
        from poincarefp.asymptotics import build_fundamental_system

        spectrum = find_roots(trivial_problem.a)
        grids = [solve_problem(trivial_problem, i)[1] for i in (1, 2, 3)]
        fs = build_fundamental_system(trivial_problem, spectrum, grids)
        comp = compare_to_fixed_point(trivial_problem, fs, 1, 5.0,
                                      mode="value")
        assert comp.max_error < 1e-9

    def test_golden_initial_jet(self, e1_system):
        jet = initial_jet(e1_system, 1)
        assert jet[0] == pytest.approx(1.0)
        # lambda_1 + z(t0) with z(t0) = 0 for the causal case-1 kernel
        assert jet[1] == pytest.approx(3.0, abs=1e-9)

    def test_golden_dominant_value_comparison(self, e1_problem, e1_system):
        comp = compare_to_fixed_point(e1_problem, e1_system, 1, 10.0)
        assert comp.mode == "value"
        assert comp.max_error < 1e-4

    def test_golden_dominated_log_derivative(self, e1_problem, e1_system):
        for i in (2, 3):
            comp = compare_to_fixed_point(e1_problem, e1_system, i, 10.0)
            assert comp.mode == "log-derivative"
            assert comp.max_error < 1e-3

    def test_unknown_mode_rejected(self, e1_problem, e1_system):
        with pytest.raises(ValueError):
            compare_to_fixed_point(e1_problem, e1_system, 1, 5.0,
                                   mode="bogus")


class TestAbel:
    def test_abel_identity_on_golden(self, e1_problem, e1_system):
        measured, expected = abel_check(e1_problem, e1_system, 5.0)
        # relative to the size of the exponent a_{n-1} (t - t0)
        assert measured == pytest.approx(expected, rel=1e-6)

    def test_trace_perturbation_enters_expected_value(self):
        # y'' + (1+t)^-2 y' - y = 0: a_1 = 0, so the whole Wronskian decay
        # comes from -int_0^10 r_1 = -(1 - 1/11)
        from poincarefp import find_roots, solve_problem
        from poincarefp.asymptotics import build_fundamental_system

        problem = ProblemSpec(
            n=2, a=(-1.0, 0.0), r_sources=("0", "1/(1+t)^2"), t_max=120.0,
            grid_points=160,
        )
        grids = [solve_problem(problem, i)[1] for i in (1, 2)]
        fs = build_fundamental_system(problem, find_roots(problem.a), grids)
        measured, expected = abel_check(problem, fs, 10.0)
        assert expected == pytest.approx(-10.0 / 11.0, rel=1e-12)
        assert measured == pytest.approx(expected, rel=1e-8)
