"""Exact multivariate polynomial arithmetic."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from helpers import diff_terms
from poincarefp.multipoly import Poly


def xyz():
    return (Poly.variable(3, 0), Poly.variable(3, 1), Poly.variable(3, 2))


class TestArithmetic:
    def test_binomial_square(self):
        x, y, _ = xyz()
        square = (x + y) ** 2
        assert square == x ** 2 + Fraction(2) * x * y + y ** 2

    def test_product_distributes(self):
        x, y, z = xyz()
        left = (x + y) * (y + z)
        right = x * y + x * z + y * y + y * z
        assert left == right

    def test_subtraction_cancels_exactly(self):
        x, y, _ = xyz()
        p = (x + y) ** 3
        assert not (p - p).terms

    def test_rational_coefficients_stay_exact(self):
        x, _, _ = xyz()
        p = Fraction(1, 3) * x + Fraction(1, 6) * x
        assert p == Fraction(1, 2) * x

    def test_power_zero_is_one(self):
        x, _, _ = xyz()
        assert x ** 0 == Poly.constant(3, 1)

    def test_coefficient_lookup(self):
        x, y, _ = xyz()
        p = Fraction(5) * x ** 2 * y
        assert p.terms[(2, 1, 0)] == Fraction(5)
        assert (0, 0, 0) not in p.terms


class TestEvaluate:
    def test_scalar_point(self):
        x, y, z = xyz()
        p = x * y + z ** 2
        assert p.evaluate([2.0, 3.0, 4.0]) == pytest.approx(22.0)

    def test_array_point_broadcasts(self):
        x, y, _ = xyz()
        p = x ** 2 + y
        xs = np.array([1.0, 2.0, 3.0])
        out = p.evaluate([xs, 1.0, 0.0])
        assert np.allclose(out, xs ** 2 + 1.0)

    def test_evaluate_matches_horner_reference(self):
        rng = np.random.default_rng(7)
        x, y, z = xyz()
        p = (x + Fraction(2) * y - z) ** 3
        for _ in range(50):
            a, b, c = rng.uniform(-2, 2, size=3)
            assert p.evaluate([a, b, c]) == pytest.approx(
                (a + 2 * b - c) ** 3, rel=1e-12, abs=1e-12
            )


class TestDiffTerms:
    def test_reports_monomial_deltas(self):
        x, y, _ = xyz()
        p = x + Fraction(2) * y
        q = x + Fraction(5) * y
        deltas = diff_terms(p, q)
        assert deltas == {(0, 1, 0): Fraction(-3)}

    def test_identical_polys_no_deltas(self):
        x, y, _ = xyz()
        p = (x - y) ** 2
        assert diff_terms(p, (x - y) ** 2) == {}


class TestFormat:
    def test_renders_names_and_powers(self):
        x, y, _ = xyz()
        p = Fraction(3) * x ** 2 * y - y
        text = p.format(["u", "v", "w"])
        assert "u^2" in text and "v" in text

    def test_zero_polynomial(self):
        assert Poly(2).format(["a", "b"]) == "0"
