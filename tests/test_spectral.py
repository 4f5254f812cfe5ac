"""Characteristic roots, shifted spectra, and the reduced linear part."""

from __future__ import annotations

import re

import numpy as np
import pytest

from helpers import reduced_char_coeffs
from poincarefp.errors import ComplexRoots, RepeatedRoots
from poincarefp.spectral import (
    char_poly_coeffs,
    find_roots,
    reduced_linear_coefficients,
    shift_spectrum,
)


def coeffs_from_roots(roots):
    """(a_0, ..., a_{n-1}) of the monic polynomial with the given roots."""
    poly = np.poly(np.asarray(roots))
    return tuple(poly[1:][::-1])


class TestFindRoots:
    def test_golden_cubic(self):
        s = find_roots((-6.0, 11.0, -6.0))
        assert np.allclose(s.lam, (3.0, 2.0, 1.0))
        assert s.separation == pytest.approx(1.0)

    def test_sorted_strictly_decreasing(self):
        s = find_roots(coeffs_from_roots([-2.5, 4.0, 0.5, 1.5]))
        assert all(
            s.lam[i] > s.lam[i + 1] for i in range(s.n - 1)
        )

    def test_complex_roots_rejected(self):
        with pytest.raises(ComplexRoots):
            find_roots((1.0, 0.0))  # x^2 + 1

    def test_repeated_roots_rejected(self):
        with pytest.raises(RepeatedRoots):
            find_roots((1.0, -2.0))  # (x - 1)^2

    def test_close_roots_reported_as_found(self):
        # roots (1, 1 - 1e-8, -1): the Newton polish moves both close
        # roots to 0.97297297, so the message reports the eigenvalues
        a = coeffs_from_roots([1.0, 1.0 - 1e-8, -1.0])
        with pytest.raises(RepeatedRoots) as err:
            find_roots(a)
        listed = re.search(r"\[(.*)\]", str(err.value))[1].split()
        assert np.allclose([float(v) for v in listed], [1.0, 1.0, -1.0],
                           atol=1e-6)

    def test_residual_bound(self):
        a = coeffs_from_roots([3.0, 2.0, 1.0, -1.0, -2.0])
        s = find_roots(a)
        coeffs = char_poly_coeffs(a)
        res = np.abs(np.polyval(coeffs, s.lam))
        assert np.max(res) <= 1e-9 * max(1.0, np.max(np.abs(a)))


class TestShiftSpectrum:
    def test_golden_cases(self):
        s = find_roots((-6.0, 11.0, -6.0))
        sh1 = shift_spectrum(s, 1)
        assert np.allclose(sh1.gamma, (-1.0, -2.0))
        assert sh1.case_index == 1
        sh2 = shift_spectrum(s, 2)
        assert np.allclose(sh2.gamma, (1.0, -1.0))
        assert sh2.case_index == 2
        sh3 = shift_spectrum(s, 3)
        assert np.allclose(sh3.gamma, (2.0, 1.0))
        assert sh3.case_index == 3

    def test_no_zero_and_decreasing(self):
        s = find_roots(coeffs_from_roots([5.0, 1.0, -0.5, -3.0]))
        for i in range(1, 5):
            sh = shift_spectrum(s, i)
            assert 0.0 not in sh.gamma
            assert all(
                sh.gamma[j] > sh.gamma[j + 1]
                for j in range(len(sh.gamma) - 1)
            )

    def test_bad_index_rejected(self):
        s = find_roots((-6.0, 11.0, -6.0))
        with pytest.raises(ValueError):
            shift_spectrum(s, 0)
        with pytest.raises(ValueError):
            shift_spectrum(s, 4)


class TestReducedLinearCoefficients:
    def test_golden_cubic_at_mu_1(self):
        b = reduced_linear_coefficients((-6.0, 11.0, -6.0), 1.0)
        assert b == pytest.approx((2.0, -3.0))

    def test_n2_example(self):
        b = reduced_linear_coefficients((-1.0, 0.0), 1.0)
        assert b == pytest.approx((2.0,))

    def test_mu_zero_returns_a(self):
        a = (2.0, -3.0, 0.5, 1.0)
        b = reduced_linear_coefficients(a, 0.0)
        assert b == pytest.approx((a[1], a[2], a[3]))

    def test_root_shift_property_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            roots = np.sort(rng.uniform(-4, 4, size=n))[::-1]
            while np.min(np.abs(np.diff(roots))) < 0.1:
                roots = np.sort(rng.uniform(-4, 4, size=n))[::-1]
            a = coeffs_from_roots(roots)
            for i in range(1, n + 1):
                mu = roots[i - 1]
                b = reduced_linear_coefficients(a, mu)
                got = np.sort(np.roots(reduced_char_coeffs(b)))
                expected = np.sort(
                    [roots[j] - mu for j in range(n) if j != i - 1]
                )
                assert np.allclose(got, expected, atol=1e-8)
