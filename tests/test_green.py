"""Green kernel: support orientation, jump, and homogeneous residual."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import char_coeffs, make_shifted
from poincarefp.green import build_kernel, upsilon
from poincarefp.spectral import find_roots, shift_spectrum


class TestUpsilon:
    def test_full_product(self):
        # ordered pairs of (2, 1): (1 - 2) = -1
        assert upsilon((2.0, 1.0), 0) == pytest.approx(-1.0)

    def test_omitting_pairs(self):
        vals = (3.0, 1.0, -2.0)
        # ell = 2 keeps only the pair (index 0, index 2): -2 - 3 = -5
        assert upsilon(vals, 2) == pytest.approx(-5.0)

    def test_single_value_empty_product(self):
        assert upsilon((4.0,), 1) == pytest.approx(1.0)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            upsilon((1.0, 2.0), 5)


class TestKernelStructure:
    def test_case1_support_is_causal(self):
        k = build_kernel(make_shifted((-1.0, -2.0)))
        assert all(k.causal)
        # below the diagonal the kernel vanishes
        assert k.derivative(1.0, 2.0, 0) == 0.0
        assert k.derivative(2.0, 1.0, 0) != 0.0

    def test_case_n_support_is_anticausal(self):
        k = build_kernel(make_shifted((2.0, 1.0)))
        assert not any(k.causal)
        assert k.derivative(2.0, 1.0, 0) == 0.0
        assert k.derivative(1.0, 2.0, 0) != 0.0

    def test_mixed_case_decays_both_sides(self):
        k = build_kernel(make_shifted((1.0, -1.0)))
        assert abs(k.derivative(0.0, 30.0, 0)) < 1e-12
        assert abs(k.derivative(30.0, 0.0, 0)) < 1e-12
        assert abs(k.derivative(0.0, 0.5, 0)) > 1e-3
        assert abs(k.derivative(0.5, 0.0, 0)) > 1e-3

    def test_coefficients_match_upsilon_ratio(self):
        gams = (2.5, 0.5, -1.5)
        k = build_kernel(make_shifted(gams))
        for ell in range(len(gams)):
            expected = abs(upsilon(gams, ell + 1) / upsilon(gams, 0))
            assert abs(k.coeffs[ell]) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(ValueError):
            build_kernel(make_shifted((1.0, 1.0)))


class TestKernelAnalytics:
    @pytest.mark.parametrize(
        "gammas",
        [
            (-1.0, -2.0),
            (2.0, 1.0),
            (1.0, -1.0),
            (3.0, 1.5, -0.5),
            (-0.5, -1.5, -3.0),
            (2.0, 1.0, -1.0, -2.0),
        ],
    )
    def test_homogeneous_residual_off_diagonal(self, gammas):
        k = build_kernel(make_shifted(gammas))
        coeffs = char_coeffs(gammas)  # highest power first
        d = len(gammas)
        s = 1.0
        for t in (-1.3, 0.2, 0.7, 2.4):
            if abs(t - s) < 1e-9:
                continue
            residual = sum(
                coeffs[d - j] * k.derivative(t, s, j) for j in range(d + 1)
            )
            assert abs(residual) < 1e-10

    @pytest.mark.parametrize(
        "gammas", [(-1.0, -2.0), (2.0, 1.0), (1.0, -1.0), (3.0, 1.0, -2.0)]
    )
    def test_jump_of_top_retained_derivative(self, gammas):
        k = build_kernel(make_shifted(gammas))
        d = len(gammas)
        t = 0.8
        eps = 1e-12
        above = k.derivative(t, t, d - 1)  # t >= s branch
        below = k.derivative(t, t + eps, d - 1)
        assert above - below == pytest.approx(1.0, abs=1e-9)

    def test_derivative_matches_finite_difference(self):
        k = build_kernel(make_shifted((1.5, -0.5, -2.0)))
        s = 0.3
        h = 1e-5
        for t in (1.1, -0.9):
            fd = (k.derivative(t + h, s, 0) - k.derivative(t - h, s, 0)) / (
                2 * h
            )
            assert fd == pytest.approx(k.derivative(t, s, 1), rel=1e-8)

    def test_vectorized_over_s(self):
        k = build_kernel(make_shifted((1.0, -2.0)))
        s = np.linspace(-1.0, 1.0, 11)
        vec = k.derivative(0.0, s, 0)
        scalar = np.array([k.derivative(0.0, float(v), 0) for v in s])
        assert np.allclose(vec, scalar)


class TestFromSpectrum:
    def test_golden_shifts_build(self):
        s = find_roots((-6.0, 11.0, -6.0))
        for i in (1, 2, 3):
            k = build_kernel(shift_spectrum(s, i))
            assert k.gamma.case_index == i
            assert k.decay_rate() == pytest.approx(1.0, rel=1e-9)
