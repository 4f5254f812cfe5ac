"""Symbolic reduction: derivative polynomials, the Omega table, and the
printed-formula cross-checks."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from poincarefp.cli import main
from poincarefp.multipoly import Poly
from poincarefp.reduction import (
    OmegaTable,
    _mu,
    _nvars,
    _r,
    _v,
    build_derivative_polynomials,
    build_reduced_rhs,
    char_constant_poly,
    discrepancy_report,
    full_substitution_poly,
    linear_part_poly,
    printed_F_poly,
    printed_F_reference,
    printed_H_poly,
)


class TestDerivativePolynomials:
    def test_p1_is_z_plus_mu(self):
        n = 3
        polys = build_derivative_polynomials(n)
        assert polys[1] == _v(n, 0) + _mu(n)

    def test_p2_expansion(self):
        # P_2 = (z + mu)^2 + z'
        n = 3
        polys = build_derivative_polynomials(n)
        expected = (_v(n, 0) + _mu(n)) ** 2 + _v(n, 1)
        assert polys[2] == expected

    def test_p3_expansion(self):
        # P_3 = (z + mu)^3 + 3 (z + mu) z' + z''
        n = 4
        polys = build_derivative_polynomials(n)
        zp = _v(n, 0) + _mu(n)
        expected = zp ** 3 + Fraction(3) * zp * _v(n, 1) + _v(n, 2)
        assert polys[3] == expected

    def test_order_guard(self):
        with pytest.raises(ValueError):
            build_derivative_polynomials(9)
        with pytest.raises(ValueError):
            build_derivative_polynomials(1)

    def test_numeric_consistency_with_log_derivative(self):
        # for y = exp(mu t + int z) with z = sin, compare P_j against
        # finite differences of y at a point
        n = 3
        polys = build_derivative_polynomials(n)
        mu = 0.7
        t = 0.4

        def y(s):
            # int_0^s sin = 1 - cos(s)
            return np.exp(mu * s + 1 - np.cos(s))

        point = [0.0] * _nvars(n)
        point[0] = mu
        point[n + 1] = np.sin(t)  # z
        point[n + 2] = np.cos(t)  # z'
        point[n + 3] = -np.sin(t)  # z''
        h = 1e-3
        stencil = y(t + np.arange(-3, 4) * h)
        d1 = np.gradient(stencil, h)[3]
        d2 = (y(t + h) - 2 * y(t) + y(t - h)) / h ** 2
        assert polys[1].evaluate(point) * y(t) == pytest.approx(d1, rel=1e-4)
        assert polys[2].evaluate(point) * y(t) == pytest.approx(d2, rel=1e-4)


class TestOmegaTable:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_omega0_identity_exact(self, n):
        rng = np.random.default_rng(n)
        a = tuple(float(v) for v in rng.integers(-5, 5, size=n))
        table = build_reduced_rhs(a, n)
        expected = Poly(_nvars(n))
        for ell in range(n):
            expected = expected + _mu(n) ** ell * _r(n, ell)
        assert table.omega0() == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sum_rule_exact(self, n):
        a = tuple(float(v) for v in range(-n, 0))
        table = build_reduced_rhs(a, n)
        total = (
            table.f_poly
            + linear_part_poly(a, n)
            + char_constant_poly(a, n)
        )
        assert total == full_substitution_poly(a, n)

    def test_golden_table_entries(self):
        table = build_reduced_rhs((-6.0, 11.0, -6.0), 3)
        n = 3
        # F = Omega_0 + r2 z' + (r1 + 2 mu r2) z + 3 z z'
        #     + (3 mu + a2 + r2) z^2 + z^3
        assert table.table[(1, 1)] == Poly.constant(_nvars(n), 3)
        assert table.table[(3, 0)] == Poly.constant(_nvars(n), 1)
        assert table.table[(2, 0)] == (
            Fraction(3) * _mu(n) + Poly.constant(_nvars(n), -6) + _r(n, 2)
        )
        assert table.table[(0, 1)] == _r(n, 2)
        assert table.table[(1, 0)] == _r(n, 1) + Fraction(2) * _mu(n) * _r(n, 2)

    def test_evaluate_rhs_is_minus_F(self):
        table = build_reduced_rhs((-6.0, 11.0, -6.0), 3)
        mu, rv, zv = 1.0, [0.3, -0.2, 0.1], [0.05, -0.04]
        assert table.evaluate_rhs(mu, rv, zv) == pytest.approx(
            -table.evaluate_F(mu, rv, zv)
        )

    def test_hhat_is_F_at_ones_minus_omega0(self):
        table = build_reduced_rhs((-6.0, 11.0, -6.0), 3)
        mu, rv = 1.3, [0.2, 0.1, -0.4]
        expected = table.evaluate_F(mu, rv, [1.0, 1.0]) - table.omega_value(
            (0, 0), mu, rv
        )
        assert table.hhat(mu, rv) == pytest.approx(expected)

    def test_mass_by_order_vectorizes(self):
        table = build_reduced_rhs((-6.0, 11.0, -6.0), 3)
        s = np.linspace(0.0, 2.0, 7)
        rv = [1.0 / (1.0 + s) ** 3, np.zeros_like(s), np.zeros_like(s)]
        masses = table.mass_by_order(1.0, rv)
        assert np.all(np.asarray(masses[0]) >= 0.0)
        assert np.shape(masses[0]) == s.shape
        # order-3 mass is the constant z^3 coefficient
        assert np.allclose(masses[3], 1.0)

    def test_r_zero_at_root_kills_omega0(self):
        table = build_reduced_rhs((-6.0, 11.0, -6.0), 3)
        for mu in (3.0, 2.0, 1.0):
            assert table.omega_value((0, 0), mu, [0.0, 0.0, 0.0]) == 0.0


def _poly_at(poly: Poly, n: int, mu, rvals):
    """Exact-table reference: the Poly at (mu, r), z-jet zero, and the
    same evaluation with every coefficient and value made nonnegative
    (the scale of the rounding error)."""
    point = [mu, *rvals] + [0.0] * (n + 1)
    mags = Poly(poly.nvars, {e: abs(c) for e, c in poly.terms.items()})
    return poly.evaluate(point), mags.evaluate([np.abs(v) for v in point])


class TestCompiledTable:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_exact_table(self, n):
        rng = np.random.default_rng(n)
        a = tuple(float(v) for v in rng.integers(-5, 6, size=n))
        table = build_reduced_rhs(a, n)
        assert table.coeffs.shape == (len(table.table), n, n + 1)
        points = [
            (float(rng.uniform(-3, 3)), list(rng.uniform(-1, 1, size=n))),
            (rng.uniform(-3, 3, size=5), list(rng.uniform(-1, 1, (n, 5)))),
        ]
        for mu, rv in points:
            omegas = table.omega_values(mu, rv)
            assert omegas.shape == (len(table.table),) + np.shape(mu)
            for row, (alpha, poly) in enumerate(table.table.items()):
                want, scale = _poly_at(poly, n, mu, rv)
                err = np.abs(omegas[row] - want)
                assert np.all(err <= 1e-13 * scale)
                assert np.all(np.abs(table.omega_value(alpha, mu, rv)
                                     - want) <= 1e-13 * scale)

    def test_array_r_with_scalar_mu_broadcasts(self):
        table = build_reduced_rhs((-6.0, 11.0, -6.0), 3)
        s = np.linspace(0.0, 2.0, 4)
        rv = [1.0 / (1.0 + s) ** 3, 0.0, 0.5 * s]
        omegas = table.omega_values(2.0, rv)
        assert omegas.shape == (len(table.table), 4)
        for k in range(4):
            assert omegas[:, k] == pytest.approx(
                table.omega_values(2.0, [r if np.ndim(r) == 0 else r[k]
                                         for r in rv]), rel=1e-15)

    def test_missing_rows_read_as_zero(self):
        n = 3
        table = OmegaTable(n=n, a=(0.0, 0.0, 0.0),
                           table={(1, 0): _r(n, 1)}, f_poly=Poly(_nvars(n)))
        mu, rv, zv = 0.7, [0.3, -0.4, 0.2], [0.5, 0.25]
        assert table.omega_value((0, 0), mu, rv) == 0.0
        assert table.omega_value((0, 1), mu, rv) == 0.0
        assert table.omega_value((1, 0), mu, rv) == -0.4
        assert table.evaluate_F(mu, rv, zv) == pytest.approx(-0.2)
        assert table.hhat(mu, rv) == pytest.approx(-0.4)
        masses = table.mass_by_order(mu, rv)
        assert masses.shape == (n + 1,)
        assert list(masses) == [0.0, 0.4, 0.0, 0.0]

    def test_term_not_affine_in_r_rejected(self):
        n = 3
        for poly in (_r(n, 0) * _r(n, 1), _r(n, 2) ** 2, _v(n, 0)):
            with pytest.raises(ValueError, match="affine"):
                OmegaTable(n=n, a=(0.0, 0.0, 0.0), table={(0, 0): poly},
                           f_poly=Poly(_nvars(n)))

    def test_mass_by_order_sums_in_table_order(self):
        table = build_reduced_rhs((4.0, 0.0, -5.0, 0.0), 4)
        mu, rv = 2.0, [0.3, -0.1, 0.2, 0.05]
        omegas = table.omega_values(mu, rv)
        masses = table.mass_by_order(mu, rv)
        for k in range(5):
            want = 0.0
            for alpha, omega in zip(table.table, omegas):
                if sum(alpha) == k:
                    want = want + abs(omega)
            assert masses[k] == want

    def test_check_and_solve_make_no_exact_evaluation(self, tmp_path,
                                                      monkeypatch):
        calls = []
        evaluate = Poly.evaluate

        def counted(self, values):
            calls.append(1)
            return evaluate(self, values)

        monkeypatch.setattr(Poly, "evaluate", counted)
        config = (Path(__file__).resolve().parent.parent / "configs"
                  / "spread_n4.conf")
        for stage in ("check", "solve"):
            main([stage, str(config), "--output-dir", str(tmp_path)])
            assert not calls, f"{stage} evaluated {len(calls)} Polys"
        # the verify stage still reads the exact P_j
        main(["verify", str(config), "--output-dir", str(tmp_path)])
        assert calls


class TestPrintedCrossChecks:
    def test_discrepancy_report_produced_for_n3(self):
        n = 3
        a = (-6.0, 11.0, -6.0)
        table = build_reduced_rhs(a, n)
        printed = printed_F_poly(n, a)
        report = discrepancy_report(table.f_poly, printed, n)
        # the printed leading group differs from the recurrence (the
        # report is the contract; agreement would leave it empty)
        assert isinstance(report, list)
        assert all(isinstance(line, str) for line in report)
        deltas = printed.diff_terms(table.f_poly)
        assert len(report) == len(deltas)

    def test_printed_reference_matches_polynomial(self):
        n = 3
        a = (-6.0, 11.0, -6.0)
        rng = np.random.default_rng(3)
        poly = printed_F_poly(n, a)
        for _ in range(10):
            mu = float(rng.uniform(-1, 1))
            rv = list(rng.uniform(-1, 1, size=n))
            zv = list(rng.uniform(-1, 1, size=n - 1))
            point = [mu] + rv + zv + [0.0, 0.0]
            assert printed_F_reference(n, a, mu, rv, zv) == pytest.approx(
                poly.evaluate(point), rel=1e-12, abs=1e-12
            )

    def test_printed_H_builds_for_n3_and_n4(self):
        for n, a in ((3, (-6.0, 11.0, -6.0)), (4, (4.0, 0.0, -5.0, 0.0))):
            h = printed_H_poly(n, a)
            assert not h.is_zero()

    def test_agreement_on_low_order_terms(self):
        # independent term and linear-in-z, r-weighted terms agree between
        # the printed formula and the recurrence for n = 3
        n = 3
        a = (-6.0, 11.0, -6.0)
        table = build_reduced_rhs(a, n)
        printed = printed_F_poly(n, a)
        deltas = printed.diff_terms(table.f_poly)
        for expo in deltas:
            alpha = expo[n + 1 : 2 * n]
            assert sum(alpha) >= 2, (
                "low-order monomials must agree; got a delta at "
                f"{expo}"
            )
