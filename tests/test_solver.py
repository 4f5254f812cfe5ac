"""Fixed-point operator and Picard iteration."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from poincarefp import chebgrid, solver
from poincarefp.cli import load_config
from poincarefp.errors import (DivergenceDetected, InvarianceViolated,
                               MaxIterations)
from poincarefp.multipoly import Poly
from poincarefp.problem import COARSE_POINTS, Equation, ProblemSpec
from poincarefp.reduction import OmegaTable
from poincarefp.solver import (
    UNOBSERVED,
    FixedPointOperator,
    ode_residual,
    picard_solve,
    solve_problem,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestKernelIntegrals:
    def test_matches_adaptive_quadrature(self, e1_problem):
        # one application of T from zero forcing P = -Omega_0; compare the
        # panel recurrence against scipy quad per node and per gamma
        operator = FixedPointOperator(e1_problem, 2)
        zero = operator.zero()
        forcing = operator.forcing(zero)
        integrals = operator.kernel_integrals(forcing)
        mu = operator.mu
        alpha0 = (0,) * (e1_problem.n - 1)

        def p_of(s):
            return -e1_problem.equation.table.omega_value(
                alpha0, mu, e1_problem.r_list(s)
            )

        for ell, gam in enumerate(operator.kernel.gamma.gamma):
            for k in (1, 7, 40):
                t = operator.nodes[k]
                if operator.kernel.causal[ell]:
                    ref, _ = integrate.quad(
                        lambda s: np.exp(gam * (t - s)) * p_of(s),
                        e1_problem.t0, t, epsabs=1e-12, epsrel=1e-12,
                        limit=200,
                    )
                else:
                    ref, _ = integrate.quad(
                        lambda s: np.exp(gam * (t - s)) * p_of(s),
                        t, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200,
                    )
                assert integrals[ell][k] == pytest.approx(
                    ref, rel=1e-8, abs=1e-12
                )


class TestTrivialProblem:
    def test_zero_perturbation_fixed_point_is_zero(self, trivial_problem):
        for i in (1, 2, 3):
            operator = FixedPointOperator(trivial_problem, i)
            grid, cert = picard_solve(operator)
            assert cert.iterations == 1
            assert np.max(np.abs(grid.values)) == 0.0

    def test_contraction_is_not_observed(self, trivial_problem):
        # one zero difference measures no contraction
        _, _, cert = solve_problem(trivial_problem, 1)
        assert cert.diffs == (0.0,)
        assert cert.contraction_ratio is None
        assert (f"observed contraction ratio = not observed ({UNOBSERVED})"
                in cert.format().splitlines())

    def test_apply_T_of_zero_is_zero(self, trivial_problem):
        operator = FixedPointOperator(trivial_problem, 1)
        out = operator.apply(operator.zero())
        assert np.max(np.abs(out)) == 0.0


class TestLinearOracle:
    def test_first_iterate_solves_linear_equation(self, e1_problem):
        # after one application from zero, z = T0 satisfies the linear
        # equation z' jet vs spectral differentiation consistency
        operator = FixedPointOperator(e1_problem, 1)
        first = operator.apply(operator.zero())
        dmat = chebgrid.differentiation_matrix(
            operator.nodes, chebgrid.lobatto_weights(len(operator.nodes))
        )
        diff = dmat @ first[0] - first[1]
        assert np.max(np.abs(diff[1:-1])) < 1e-8

    def test_n2_closed_form(self):
        # n = 2, a = (-1, 0), mu = 1, r0 = c e^{-3t} with tiny c: the
        # first iterate is z_1(t) = -c int_0^t e^{-2(t-s)} e^{-3s} ds
        c = 1e-6
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=(f"{c!r}*exp(-3*t)", "0"),
            t_max=40.0, grid_points=120,
        )
        operator = FixedPointOperator(problem, 1)
        first = operator.apply(operator.zero())
        for k in (5, 30, 80):
            t = operator.nodes[k]
            expected = -c * (np.exp(-2 * t) - np.exp(-3 * t))
            assert first[0][k] == pytest.approx(expected, rel=1e-8,
                                                abs=1e-18)


class TestPicardOnGolden:
    def test_all_three_roots_converge(self, e1_solves):
        results, _ = e1_solves
        for i in (1, 2, 3):
            _, grid, cert = results[i]
            assert cert.final_residual < 1e-8
            assert cert.contraction_ratio < 1.0
            assert cert.sup_norm <= cert.eta

    def test_difference_norms_decay_geometrically(self, e1_solves):
        results, _ = e1_solves
        for i in (1, 2, 3):
            _, _, cert = results[i]
            diffs = np.array(cert.diffs)
            assert np.all(diffs[1:] < diffs[:-1])

    def test_ode_residual_small(self, e1_solves):
        results, _ = e1_solves
        for i in (1, 2, 3):
            operator, grid, _ = results[i]
            assert ode_residual(operator, grid) < 1e-6

    def test_iterate_evaluation_interpolates(self, e1_solves):
        results, _ = e1_solves
        _, grid, _ = results[2]
        # the cosine series reproduces the node values
        k = 17
        assert grid.jet(grid.nodes[k])[0] == pytest.approx(
            grid.values[0][k], rel=1e-12
        )
        # beyond the window the tail model is zero
        assert grid.jet(grid.t_max + 5.0)[0] == 0.0

    def test_jet_matches_barycentric_reference(self, e1_solves):
        results, _ = e1_solves
        _, grid, _ = results[2]
        t = np.concatenate((np.linspace(0.0, 220.0, 41), [1e-10, 220.0]))
        dense = chebgrid.barycentric_matrix(
            grid.nodes, chebgrid.lobatto_weights(len(grid.nodes)), t
        ) @ grid.values.T
        got = grid.jet(t)
        assert got.shape == (2, len(t))
        for ref, row, v in zip(dense.T, got, grid.values):
            assert np.max(np.abs(ref - row)) <= 1e-13 * np.max(np.abs(v))
        assert grid.jet(t[5]) == pytest.approx(got[:, 5], rel=1e-14)

    def test_integral_is_antiderivative(self, e1_solves):
        results, _ = e1_solves
        _, grid, _ = results[2]
        # the integral at the nodes against a 20-point Gauss rule on each
        # inter-node interval of the interpolant; constant beyond t_max
        x, w = np.polynomial.legendre.leggauss(20)
        lo, hi = grid.nodes[:-1, None], grid.nodes[1:, None]
        pts = (lo + hi) / 2 + (hi - lo) / 2 * x
        sums = (grid.jet(pts.ravel())[0].reshape(pts.shape)
                * (hi - lo) / 2 * w).sum(axis=1)
        expected = np.concatenate(([0.0], np.cumsum(sums)))
        got = grid.integral(grid.nodes)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(
            np.abs(expected))
        assert grid.integral(grid.t_max + 30.0) == grid.integral(grid.t_max)

    def test_below_t0_rejected(self, e1_solves):
        results, _ = e1_solves
        _, grid, _ = results[1]
        with pytest.raises(ValueError):
            grid.jet(grid.t0 - 1.0)[0]


class TestFailureModes:
    def test_invariance_violation_raised(self, e1_problem):
        operator = FixedPointOperator(replace(e1_problem, eta=1e-4), 2)
        with pytest.raises(InvarianceViolated):
            picard_solve(operator)

    def test_configured_eta_is_never_relaxed(self):
        # Picard still contracts here, but lambda_2's iterate leaves the
        # configured ball: the error names that ball, and no larger one
        # is tried instead
        problem = ProblemSpec(
            Equation(3, (-6.0, 11.0, -6.0)), r_sources=("1/(1+t)^3", "0", "0"),
            t_max=120.0, grid_points=120, eta=0.2,
        )
        with pytest.raises(InvarianceViolated,
                           match=r"left the eta = 0\.2 ball"):
            solve_problem(problem, 2)

    def test_a_larger_configured_eta_is_not_retried_smaller(self):
        # the iterate norm reaches 1.19 > 1.0: the error names the
        # configured ball
        problem = ProblemSpec(
            Equation(3, (-6.0, 11.0, -6.0)), r_sources=("4/(1+t)^3", "0", "0"),
            t_max=220.0, grid_points=200, eta=1.0,
        )
        with pytest.raises(InvarianceViolated,
                           match=r"left the eta = 1\.0 ball"):
            solve_problem(problem, 2)

    def test_divergence_detected_for_strong_coupling(self):
        # blow the perturbation up so Picard stops contracting
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=("40/(1+t)^2", "0"),
            t_max=60.0, grid_points=100, eta=1e6, max_iter=60,
        )
        operator = FixedPointOperator(problem, 1)
        with pytest.raises(DivergenceDetected):
            picard_solve(operator)


def e1_at(grid_points):
    return ProblemSpec(
        Equation(3, (-6.0, 11.0, -6.0)), r_sources=("1/(1+t)^3", "0", "0"),
        t_max=220.0, grid_points=grid_points,
    )


def count_applies(monkeypatch) -> list[int]:
    """Spy on FixedPointOperator.apply: the node count of each call."""
    calls = []
    apply = FixedPointOperator.apply

    def spy(self, values):
        calls.append(len(self.nodes))
        return apply(self, values)

    monkeypatch.setattr(FixedPointOperator, "apply", spy)
    return calls


class TestCoarseStart:
    @pytest.mark.parametrize("amplitude", [0.5, 1.0, 1.5])
    def test_fine_solve_starts_from_the_coarse_fixed_point(
            self, monkeypatch, amplitude):
        problem = replace(e1_at(1600),
                          r_sources=(f"{amplitude}/(1+t)^3", "0", "0"))
        for i in (1, 2, 3):
            reference, from_zero = picard_solve(
                FixedPointOperator(problem, i))
            calls = count_applies(monkeypatch)
            _, grid, cert = solve_problem(problem, i)
            monkeypatch.undo()
            # one fine step and the independent residual; the coarse
            # stage applies T once per difference it records
            assert calls.count(1600) <= 2, (amplitude, i)
            assert calls.count(COARSE_POINTS) == len(cert.start_diffs) >= 2
            assert set(calls) == {1600, COARSE_POINTS}
            assert np.max(np.abs(grid.values - reference.values)) <= \
                problem.tol
            assert cert.final_residual <= problem.tol
            assert cert.contraction_ratio == pytest.approx(
                from_zero.contraction_ratio, abs=0.01)
            assert cert.start_points == COARSE_POINTS
            lines = cert.format().splitlines()
            at = lines.index(f"coarse start = {COARSE_POINTS} nodes, "
                             f"{len(cert.start_diffs)} iterations")
            assert lines[at + 1] == "coarse successive difference norms:"
            assert lines[at + 2:] == [f"  {d!r}" for d in cert.start_diffs]

    def test_coarse_and_fine_share_the_tail_constants(self, monkeypatch):
        problem = e1_at(1600)
        computed = []
        tail_constants = FixedPointOperator._tail_constants

        def spy(self):
            computed.append(len(self.nodes))
            return tail_constants(self)

        monkeypatch.setattr(FixedPointOperator, "_tail_constants", spy)
        solve_problem(problem, 2)
        assert computed == [1600]

    def test_failed_coarse_stage_starts_from_zero(self, monkeypatch):
        problem = e1_at(1600)
        reference = picard_solve(FixedPointOperator(problem, 2))
        iterate = solver.picard_iterate

        def coarse_fails(operator, *args, **kwargs):
            if len(operator.nodes) == COARSE_POINTS:
                raise MaxIterations("coarse stage")
            return iterate(operator, *args, **kwargs)

        monkeypatch.setattr(solver, "picard_iterate", coarse_fails)
        _, grid, cert = solve_problem(problem, 2)
        assert np.array_equal(grid.values, reference[0].values)
        assert cert == reference[1]
        assert cert.format() == reference[1].format()
        assert "coarse" not in cert.format()

    @pytest.mark.parametrize("points", [200, 800])
    def test_no_coarse_problem_below_the_threshold(self, monkeypatch,
                                                   points):
        # 800 nodes are fewer than four times the coarse panels
        problem = e1_at(points)
        calls = count_applies(monkeypatch)
        _, _, cert = solve_problem(problem, 2)
        assert set(calls) == {points}
        assert "coarse" not in vars(problem)
        assert cert.start_points is None


class TestBenchmarkMargin:
    @pytest.mark.parametrize("points", [200, 1600])
    def test_top_amplitude_stays_in_the_configured_ball(self, points):
        # the benchmark draws e1_n3's r_0 amplitude from [0.5, 1.5] and
        # configures eta = 0.5; an iterate that left that ball would fail
        # the solve, so the top of the range must converge inside it
        problem = replace(e1_at(points), eta=0.5,
                          r_sources=("1.5/(1+t)^3", "0", "0"))
        for i in (1, 2, 3):
            _, _, cert = solve_problem(problem, i)
            assert cert.sup_norm <= cert.eta == 0.5, i


class TestDiscretisationError:
    def test_estimate_separates_coarse_from_resolved_grid(self):
        # at N = 100 z(50) of lambda_2 is about 1% off although Picard
        # converges; at N = 200 the grid resolves the iterate
        _, grid, coarse = solve_problem(e1_at(100), 2)
        _, _, fine = solve_problem(e1_at(200), 2)
        assert coarse.discretisation_error > 1e-7
        assert fine.discretisation_error < 1e-9
        # the largest sum of |d_m| over the last ceil(100/16) = 7 cosine
        # coefficients, with d from a dense solve of the series at the nodes
        phi = np.pi * np.arange(100) / 99
        series = np.cos(np.outer(phi, np.arange(100)))
        coeffs = np.linalg.solve(series, grid.values.T).T
        expected = np.max(np.abs(coeffs[:, -7:]).sum(axis=1))
        assert coarse.discretisation_error == pytest.approx(expected,
                                                            rel=1e-6)

    def test_reported_after_residual(self, e1_solves):
        results, _ = e1_solves
        lines = results[2][2].format().splitlines()
        at = next(k for k, line in enumerate(lines)
                  if line.startswith("residual ||Tz - z||_0 = "))
        assert lines[at + 1].startswith("discretisation error estimate = ")


class TestMemory:
    def test_fine_grid_solve_stays_linear_in_memory(self):
        # a dense node-to-panel matrix at N = 1600 alone would take
        # 12 * 1599 * 1600 * 8 B = 245 MB, and a dense differentiation
        # matrix for the ODE residual 1600 * 1600 * 8 B = 20 MB
        tracemalloc.start()
        try:
            operator, grid, _ = solve_problem(e1_at(1600), 2)
            solve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            residual = ode_residual(operator, grid)
            residual_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solve_peak < 32e6
        assert residual < 1e-6
        assert residual_peak < 4e6


class TestOmegaHoisted:
    def test_apply_evaluates_no_polynomial(self, e1_problem, monkeypatch):
        operator = FixedPointOperator(e1_problem, 2)
        values = operator.apply(operator.zero())
        calls = []
        evaluate = Poly.evaluate

        def counted(self, point):
            calls.append(1)
            return evaluate(self, point)

        monkeypatch.setattr(Poly, "evaluate", counted)
        operator.apply(values)
        ode_residual(operator, operator.grid(values))
        assert calls == []

    def test_forcing_equals_table_rhs(self, e1_problem, monkeypatch):
        operator = FixedPointOperator(e1_problem, 2)
        values = operator.apply(operator.zero())
        n = e1_problem.n
        pts = operator.panels.points.ravel()
        zjet = list(operator.panels.interpolate(values).reshape(n - 1, -1))
        table = e1_problem.equation.table
        expected = table.evaluate_rhs(
            operator.mu, [e1_problem.r_value(i, pts) for i in range(n)], zjet
        )
        assert np.array_equal(operator.forcing(values), expected)
        # ode_residual's right side is the table's -F at the nodes
        calls = []
        evaluate_rhs = OmegaTable.evaluate_rhs

        def spy(self, mu, rvals, zvals):
            calls.append((self, mu, rvals, zvals))
            return evaluate_rhs(self, mu, rvals, zvals)

        monkeypatch.setattr(OmegaTable, "evaluate_rhs", spy)
        ode_residual(operator, operator.grid(values))
        [(used, mu, rvals, zvals)] = calls
        assert used is table and mu == operator.mu
        for i in range(n):
            assert np.array_equal(rvals[i],
                                  e1_problem.r_value(i, operator.nodes))
        assert np.array_equal(zvals, values)


class TestPanelRule:
    def test_roots_share_the_problems_rule(self, e1_problem):
        first, second = (FixedPointOperator(e1_problem, i) for i in (1, 2))
        assert first.panels is second.panels
        assert first.nodes is second.nodes

    def test_replaced_r_is_solved_at_the_panel_points(self, e1_problem):
        # a replace builds its own rule with the new r, and solves as a
        # problem built with that r from the start
        original = FixedPointOperator(e1_problem, 1)
        sources = ("2/(1+t)^3", "0", "0")
        scaled = replace(e1_problem, r_sources=sources)
        operator = FixedPointOperator(scaled, 1)
        assert operator.panels is not original.panels
        pts = operator.panels.points.ravel()
        expected = scaled.equation.table.omega_values(
            operator.mu, scaled.r_list(pts))
        assert np.array_equal(operator.omega_panels, expected)
        assert not np.array_equal(operator.omega_panels,
                                  original.omega_panels)
        fresh = ProblemSpec(e1_problem.equation, r_sources=sources,
                            t_max=e1_problem.t_max,
                            grid_points=e1_problem.grid_points)
        _, grid, _ = solve_problem(scaled, 1)
        _, reference, _ = solve_problem(fresh, 1)
        _, unscaled, _ = solve_problem(e1_problem, 1)
        assert np.array_equal(grid.values, reference.values)
        assert not np.allclose(grid.values, unscaled.values)


# z at the nodes nearest t = 1, 10 and 50 of every root of the shipped
# configs: (node index, t, z of root 1, 2, ...), as solved before the
# mirrored panel interpolation; a change of method that moves them beyond
# round-off shows here
SHIPPED_Z = {
    "e1_n3": [
        (9, 1.1084358779387173, (-0.09124542588801854, 0.10982723413153392,
                                 -0.015866043136423064)),
        (27, 9.842340728279154, (-0.0007656752691300809,
                                 0.0009093653760142537,
                                 -0.00027703867399934067)),
        (63, 50.065434877142245, (-4.119589501842767e-06,
                                  7.544590083456791e-06,
                                  -3.4513236627978665e-06)),
    ],
    "spread_n4": [
        (10, 0.9948358267581057, (-0.005505786300508939,
                                  0.008378991592131724,
                                  -0.007366093820140489,
                                  0.00046964492089338517)),
        (32, 9.993038201712508, (-8.866520968796343e-06,
                                 5.941792747344761e-06,
                                 -8.429078176491143e-06,
                                 1.7692376072370029e-06)),
        (75, 49.823415087713926, (-7.125159160036342e-09,
                                  1.2389634804671506e-08,
                                  -1.2726533719037468e-08,
                                  5.546042731939051e-09)),
    ],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_Z))
def test_shipped_z_at_fixed_t_is_pinned(name):
    problem = load_config(CONFIGS / f"{name}.conf").problem
    for i in range(1, problem.n + 1):
        _, grid, _ = solve_problem(problem, i)
        for (k, t, zs), target in zip(SHIPPED_Z[name], (1.0, 10.0, 50.0)):
            assert np.argmin(np.abs(grid.nodes - target)) == k
            assert grid.nodes[k] == t
            assert abs(grid.values[0][k] - zs[i - 1]) <= 1e-14, (i, t)
