"""Reference integrator and fixed-point comparison."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from poincarefp import dop853
from poincarefp.asymptotics import build_fundamental_system
from poincarefp.cli import load_config
from poincarefp.errors import IntegrationFailure
from poincarefp.oracle import (
    abel_check,
    compare_to_fixed_point,
    initial_jet,
    integrate_original,
)
from poincarefp.problem import Equation, ProblemSpec
from poincarefp.solver import solve_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def every_step_rhs(problem: ProblemSpec):
    """The companion system with every r_i evaluated at every call, for
    SciPy's ``solve_ivp``."""
    a = np.asarray(problem.a, dtype=float)

    def rhs(t, state):
        out = np.empty(problem.n)
        out[:-1] = state[1:]
        coeffs = a + np.array(
            [problem.r_value(i, float(t)) for i in range(problem.n)]
        )
        out[-1] = -np.dot(coeffs, state)
        return out

    return rhs


class TestIntegrateOriginal:
    def test_pure_exponential_n2(self):
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=("0", "0"), t_max=32.0,
            grid_points=32,
        )
        sample = integrate_original(problem, (1.0, 1.0), 1.0)
        assert sample.t[-1] == 1.0
        assert sample.states[0][-1] == pytest.approx(np.e, rel=1e-9)

    def test_pure_exponential_growth_ratio(self):
        problem = ProblemSpec(
            Equation(3, (-6.0, 11.0, -6.0)), r_sources=("0", "0", "0"),
            t_max=32.0, grid_points=32,
        )
        sample = integrate_original(problem, (1.0, 3.0, 9.0), 1.0)
        ratio = sample.states[0][-1] / sample.states[0][-2]
        step = sample.t[-1] - sample.t[-2]
        assert ratio == pytest.approx(np.exp(3 * step), rel=1e-8)

    def test_tolerance_tightening_improves_error(self):
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=("0", "0"), t_max=32.0,
            grid_points=32,
        )
        exact = np.exp(2.0)
        loose = integrate_original(problem, (1.0, 1.0), 2.0, rtol=1e-6,
                                   atol=1e-8)
        tight = integrate_original(problem, (1.0, 1.0), 2.0, rtol=1e-12,
                                   atol=1e-14)
        err_loose = abs(loose.states[0][-1] - exact)
        err_tight = abs(tight.states[0][-1] - exact)
        assert err_tight < err_loose


class TestTableau:
    def test_equals_scipy_coefficients(self):
        # the 13 stages of a step; SciPy's 3 further rows serve only its
        # continuous extension
        stages = dop853_coefficients.N_STAGES + 1
        assert dop853.N_STAGES == dop853_coefficients.N_STAGES
        assert np.array_equal(
            dop853.A, dop853_coefficients.A[:stages, :stages])
        assert np.array_equal(dop853.C, dop853_coefficients.C[:stages])
        for name in ("B", "E3", "E5"):
            ours = getattr(dop853, name)
            assert np.array_equal(ours, getattr(dop853_coefficients, name))

    def test_quadrature_conditions_up_to_order_eight(self):
        c = dop853.C[:dop853.N_STAGES]
        for k in range(8):
            assert dop853.B @ c ** k == pytest.approx(1 / (k + 1),
                                                      abs=1e-15)
        # an 8th-order rule stops there
        assert abs(dop853.B @ c ** 8 - 1 / 9) > 1e-6

    def test_rows_of_a_sum_to_c(self):
        assert np.allclose(dop853.A.sum(axis=1), dop853.C, rtol=0,
                           atol=2e-15)


def config_system(name):
    config = load_config(CONFIGS / f"{name}.conf")
    problem = config.problem
    grids = [solve_problem(problem, i)[1] for i in range(1, problem.n + 1)]
    return problem, build_fundamental_system(problem, grids)


class TestAgainstSolveIvp:
    @pytest.mark.parametrize("name", ["decaying_n2", "e1_n3", "spread_n4"])
    def test_same_steps_as_scipy_on_every_root(self, name):
        problem, fs = config_system(name)
        for i in range(1, problem.n + 1):
            y0 = initial_jet(fs, i)
            ours = integrate_original(problem, y0, 10.0)
            ref = solve_ivp(every_step_rhs(problem), (problem.t0, 10.0), y0,
                            method="DOP853", t_eval=None, rtol=1e-10,
                            atol=1e-12)
            np.testing.assert_array_equal(ours.t, ref.t)
            assert ours.nfev == ref.nfev, i
            if i == 1:
                np.testing.assert_allclose(ours.states, ref.y, rtol=1e-12,
                                           atol=0)

    def test_steps_too_small_fail_like_scipy(self):
        # at t ~ 1e17 the minimum step (ten ulps, 160) is far above the
        # step that e^{10 t} needs
        problem = ProblemSpec(
            Equation(2, (-100.0, 0.0)), r_sources=("0", "0"), t0=1e17,
            t_max=1e17 + 1e4, grid_points=32,
        )
        t_end = 1e17 + 1024.0
        ref = solve_ivp(every_step_rhs(problem), (problem.t0, t_end),
                        [1.0, 10.0], method="DOP853", rtol=1e-10,
                        atol=1e-12)
        assert ref.status == -1
        with pytest.raises(IntegrationFailure, match="below the minimum"):
            integrate_original(problem, (1.0, 10.0), t_end)

    def test_overflow_raises_without_warning(self):
        # y'' = 1e6 y grows like e^{1000 t} and overflows before t = 1
        problem = ProblemSpec(
            Equation(2, (-1e6, 0.0)), r_sources=("0", "0"), t_max=32.0,
            grid_points=32,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationFailure, match="not finite"):
                integrate_original(problem, (1.0, 1000.0), 1.0)


class TestCompanionRhs:
    def test_constant_perturbations_evaluated_once(self, monkeypatch):
        problem = ProblemSpec(
            Equation(3, (-6.0, 11.0, -6.0)),
            r_sources=("1/(1+t)^3", "0", "exp(1)/100"),
            t_max=32.0, grid_points=32,
        )
        calls = []
        r_value = ProblemSpec.r_value

        def counted(self, i, t):
            calls.append((i, np.size(t)))
            return r_value(self, i, t)

        monkeypatch.setattr(ProblemSpec, "r_value", counted)
        sample = integrate_original(problem, (1.0, 3.0, 9.0), 4.0)
        monkeypatch.undo()

        assert sorted(c for c in calls if c[0] != 0) == [(1, 1), (2, 1)]
        sizes = [size for i, size in calls if i == 0]
        # the initial step, then the stage times of each attempt (11
        # stages and the end point)
        assert sizes[:2] == [1, 1]
        attempts = sizes.count(12)
        assert len(sizes) == 2 + attempts
        assert sample.nfev == 2 + 12 * attempts

        ref = solve_ivp(every_step_rhs(problem), (0.0, 4.0),
                        [1.0, 3.0, 9.0], method="DOP853", rtol=1e-10,
                        atol=1e-12)
        assert sample.nfev == ref.nfev
        np.testing.assert_allclose(sample.states, ref.y, rtol=1e-12, atol=0)


class TestComparisons:
    def test_trivial_problem_value_agreement(self, trivial_problem):
        grids = [solve_problem(trivial_problem, i)[1] for i in (1, 2, 3)]
        fs = build_fundamental_system(trivial_problem, grids)
        comp = compare_to_fixed_point(fs, 1, 5.0)
        assert comp.max_error < 1e-9

    def test_golden_initial_jet(self, e1_system):
        jet = initial_jet(e1_system, 1)
        assert jet[0] == pytest.approx(1.0)
        # lambda_1 + z(t0) with z(t0) = 0 for the causal case-1 kernel
        assert jet[1] == pytest.approx(3.0, abs=1e-9)

    def test_golden_dominant_value_comparison(self, e1_system):
        comp = compare_to_fixed_point(e1_system, 1, 10.0)
        assert comp.mode == "value"
        assert comp.max_error < 1e-4

    def test_golden_dominated_log_derivative(self, e1_system):
        for i in (2, 3):
            comp = compare_to_fixed_point(e1_system, i, 10.0)
            assert comp.mode == "log-derivative"
            assert comp.max_error < 1e-3


class TestAbel:
    def test_abel_identity_on_golden(self, e1_system):
        measured, expected = abel_check(e1_system, 5.0)
        # relative to the size of the exponent a_{n-1} (t - t0)
        assert measured == pytest.approx(expected, rel=1e-6)

    def test_trace_perturbation_enters_expected_value(self):
        # y'' + (1+t)^-2 y' - y = 0: a_1 = 0, so the whole Wronskian decay
        # comes from -int_0^10 r_1 = -(1 - 1/11)
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=("0", "1/(1+t)^2"),
            t_max=120.0, grid_points=160,
        )
        grids = [solve_problem(problem, i)[1] for i in (1, 2)]
        fs = build_fundamental_system(problem, grids)
        measured, expected = abel_check(fs, 10.0)
        assert expected == pytest.approx(-10.0 / 11.0, rel=1e-12)
        assert measured == pytest.approx(expected, rel=1e-8)
