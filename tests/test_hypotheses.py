"""Hypothesis quantities against closed-form exponential-integral
oracles.

The second-order workhorse: y'' - y + r0(t) y = 0 with roots (1, -1).
At mu = 1 the shifted spectrum is (-2,), the kernel is the causal
g(t, s) = e^{-2(t-s)} on t >= s, and every quantity below has a closed
form for exponential r0.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from helpers import coeffs_from_roots
from poincarefp import kernelquad
from poincarefp.green import build_kernel
from poincarefp.hypotheses import (
    Verdict,
    compute_L,
    compute_R,
    compute_phi1,
    estimate_sigma,
    evaluate_hypotheses,
)
from poincarefp.multipoly import Poly
from poincarefp.problem import Equation, ProblemSpec
from poincarefp.reduction import OmegaTable, _nvars, _r


@pytest.fixture(scope="module")
def n2_problem():
    """Root 1 (mu = 1) has gamma = (-2,); root 2 (mu = -1) gamma = (2,)."""
    return ProblemSpec(
        Equation(2, (-1.0, 0.0)),
        r_sources=("exp(-3*t)", "0"),
        t0=0.0,
        t_max=64.0,
        grid_points=64,
    )


class TestComputeR:
    def test_closed_form_exponential(self, n2_problem):
        # R(t) = |int_0^t e^{-2(t-s)} e^{-3s} ds| = e^{-2t} - e^{-3t}
        for t in (0.5, 1.0, 2.0):
            expected = np.exp(-2 * t) - np.exp(-3 * t)
            got = compute_R(n2_problem, 1, t)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_vanishes_at_t0(self, n2_problem):
        # the causal kernel support collapses at the left endpoint
        assert compute_R(n2_problem, 1, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_decays_to_zero(self, n2_problem):
        assert compute_R(n2_problem, 1, 20.0) < 1e-15

    def test_zero_perturbation(self, n2_problem):
        problem = replace(n2_problem, r_sources=("0", "0"))
        assert compute_R(problem, 1, 3.0) == 0.0

    def test_quadrature_self_consistency(self, n2_problem):
        loose = compute_R(replace(n2_problem, tol=1e-8), 1, 1.5)
        tight = compute_R(replace(n2_problem, tol=1e-10), 1, 1.5)
        assert loose == pytest.approx(tight, abs=1e-8)

    def test_config_tolerance_reaches_R(self, n2_problem, monkeypatch):
        # mu = -1: the anticausal kernel e^{2(t-s)} on s >= t, so
        # R(t) = int_t^inf e^{2(t-s)} e^{-3s} ds = e^{-3t} / 5, and the
        # tail cutoff follows the problem's tol; the rule is exact enough
        # that R itself need not move with it
        cutoff = kernelquad.tail_cutoff
        cuts = []

        def spy(*args):
            cuts.append(cutoff(*args))
            return cuts[-1]

        monkeypatch.setattr(kernelquad, "tail_cutoff", spy)
        loose = compute_R(replace(n2_problem, tol=1e-6), 2, 1.5)
        tight = compute_R(n2_problem, 2, 1.5)
        assert len(cuts) == 2 and cuts[0] < cuts[1]
        assert loose == pytest.approx(np.exp(-4.5) / 5, rel=1e-6)
        assert tight == pytest.approx(np.exp(-4.5) / 5, rel=1e-10)


class TestComputeL:
    def test_constant_mass_closed_form(self, n2_problem):
        # order-2 mass is the constant 1 (the z^2 coefficient), so
        # L_2(t) = int_0^t e^{-2(t-s)} ds = (1 - e^{-2t}) / 2
        for t in (0.5, 2.0, 10.0):
            expected = (1.0 - np.exp(-2 * t)) / 2.0
            got = compute_L(n2_problem, 1, t, 2)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_linear_mass_vanishes_without_r1(self, n2_problem):
        assert compute_L(n2_problem, 1, 2.0, 1) == 0.0

    def test_anticausal_side_included(self, n2_problem):
        # mu = -1 gives gamma = (+2): anticausal kernel, so L_2 covers
        # [t, inf) and equals int_t^inf e^{2(t-s)} ds = 1/2 everywhere
        problem = replace(n2_problem, r_sources=("0", "0"))
        got = compute_L(problem, 2, 3.0, 2)
        assert got == pytest.approx(0.5, rel=1e-8)


class TestPhi1:
    def test_two_positive_roots(self, ):
        from helpers import make_shifted

        k = build_kernel(make_shifted((2.0, 1.0)))
        assert compute_phi1(k) == pytest.approx(5.0)

    def test_mixed_pair(self):
        from helpers import make_shifted

        k = build_kernel(make_shifted((1.0, -1.0)))
        assert compute_phi1(k) == pytest.approx(2.0)

    def test_single_root(self, n2_problem):
        kernel = n2_problem.equation.kernels[0]
        assert compute_phi1(kernel) == pytest.approx(1.0)


def r1_only_table(monkeypatch):
    """Make the next equation derive a custom n = 2 table whose only
    |alpha| >= 1 coefficient is r1: it lacks the z^2 row that makes
    every real table's sigma infinite."""
    table = OmegaTable(
        n=2,
        table={(1,): _r(2, 1)},
        f_poly=Poly(_nvars(2)),
    )
    monkeypatch.setattr("poincarefp.problem.build_reduced_rhs",
                        lambda a, n: table)


class TestSigma:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_z_n_row_is_the_constant_one(self, n):
        # the premise of the derivation: z^n enters F only through
        # (z + mu)^n, so Omega_(n, 0, ..., 0) has the constant 1 as its
        # only nonzero coefficient, and every sigma reads divergent
        roots = tuple(float(k) for k in range(n, 0, -1))
        equation = Equation(n, coeffs_from_roots(roots))
        table = equation.table
        row = list(table.table).index((n,) + (0,) * (n - 2))
        expected = np.zeros((n, n + 1))
        expected[0, 0] = 1.0
        assert np.array_equal(table.coeffs[row], expected)
        problem = ProblemSpec(equation, r_sources=("0",) * n, t_max=32.0,
                              grid_points=32)
        for shifted in equation.shifted:
            assert estimate_sigma(problem, shifted.mu) == np.inf

    def test_constant_mass_diverges(self, n2_problem):
        # the z^2 coefficient contributes constant mass 1, so the
        # weighted integral cannot converge for gamma > 0 (root 2,
        # mu = -1, gamma = 2) ...
        assert estimate_sigma(n2_problem, -1.0) == np.inf

    def test_negative_gamma_supremum_diverges(self, n2_problem):
        # ... and for gamma < 0 (root 1, mu = 1, gamma = -2) the inner
        # integral grows like e^{|gamma| t}
        assert estimate_sigma(n2_problem, 1.0) == np.inf

    def test_table_without_z_n_row_is_a_defect(self, monkeypatch):
        # the negative control: a table whose only |alpha| >= 1 row
        # carries r has no derived lower bound on M, and that must raise,
        # not read as a verdict
        r1_only_table(monkeypatch)
        problem = ProblemSpec(
            Equation(2, (-1.0, 0.0)), r_sources=("0", "exp(-3*t)"),
            t_max=64.0, grid_points=64,
        )
        with pytest.raises(ValueError, match=r"Omega\(2,\) = 1"):
            estimate_sigma(problem, 1.0)
        with pytest.raises(ValueError, match="not derived"):
            evaluate_hypotheses(problem, 1)


class TestVerdict:
    @pytest.mark.parametrize("status", [
        "pass (numerical)", "pass (vacuous)", "computed", "divergent",
        "PASS", ""])
    def test_only_three_statuses(self, status):
        with pytest.raises(ValueError, match="is not one of"):
            Verdict("R", 1, status)

    def test_str_renders_the_note(self):
        assert str(Verdict("R", 1, "pass", "numerical")) == "pass (numerical)"
        assert str(Verdict("L_k", 1, "pass")) == "pass"

    def test_r2_reads_the_worst_part(self, e1_problem):
        # e1_n3: R and L_1 vanish, sum_{k>=2} L_k stays near 7
        report = evaluate_hypotheses(e1_problem, 1)
        assert [str(part) for part in report.parts] == [
            "pass (numerical)", "pass (numerical)", "fail"]
        assert [v.quantity for v in report.verdicts] == ["R1", "R2", "R3"]
        assert [str(v) for v in report.verdicts] == [
            "pass", "fail", "indeterminate"]


class TestEvaluateHypotheses:
    def test_trivial_problem(self, trivial_problem):
        report = evaluate_hypotheses(trivial_problem, 1)
        assert report.verdicts[0].status == "pass"
        assert all(v == 0.0 for v in report.samples[0])
        assert all(v == 0.0 for v in report.samples[1])

    def test_repeated_roots_suppress_downstream(self):
        problem = ProblemSpec(
            Equation(2, (1.0, -2.0)), r_sources=("0", "0"), t_max=32.0,
            grid_points=32,
        )
        report = evaluate_hypotheses(problem, 1)
        assert [str(v) for v in report.verdicts] == ["fail"]
        assert report.samples == ()

    def test_complex_roots_fail_h1(self):
        problem = ProblemSpec(
            Equation(2, (1.0, 0.0)), r_sources=("0", "0"), t_max=32.0,
            grid_points=32,
        )
        # a failed spectrum is not cached: every root meets the error again
        for i in (1, 2):
            report = evaluate_hypotheses(problem, i)
            assert [str(v) for v in report.verdicts] == ["fail"]

    def test_root_finder_bug_propagates(self, n2_problem, monkeypatch):
        # only the two spectrum hypotheses are verdicts; any other error
        # of the root finder is a defect and must not read as "(R1) fail"
        def broken(a):
            raise RuntimeError("root finder defect")

        monkeypatch.setattr("poincarefp.problem.find_roots", broken)
        fresh = Equation(n2_problem.n, n2_problem.a)  # nothing cached yet
        with pytest.raises(RuntimeError, match="defect"):
            evaluate_hypotheses(replace(n2_problem, equation=fresh), 1)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_one_kernel_pass_per_root(self, e1_problem, monkeypatch, i):
        # R and every L_k come from one panel rule over the kernel's
        # exponentials; sigma is derived, not integrated
        gammas = e1_problem.equation.kernels[i - 1].gamma.gamma
        sample = kernelquad._sample
        passes = []

        def spy(f, t, t0, terms, *args, **kwargs):
            passes.append(tuple(term.gamma for term in terms))
            return sample(f, t, t0, terms, *args, **kwargs)

        monkeypatch.setattr(kernelquad, "_sample", spy)
        evaluate_hypotheses(e1_problem, i)
        assert passes.count(tuple(gammas)) == 1
        assert len(passes) == 1

    def test_golden_problem_shape(self, e1_problem):
        report = evaluate_hypotheses(e1_problem, 1)
        assert report.verdicts[0].status == "pass"
        # R decays along the geometric grid
        assert report.samples[0][-1] < 1e-6
        assert report.samples[0][-1] < report.samples[0][0]
        assert report.phi1 == pytest.approx(5.0, rel=1e-9)
        assert report.sigma == np.inf  # one value for both shifted roots
