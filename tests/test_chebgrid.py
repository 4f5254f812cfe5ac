"""Lobatto grid, the cosine series through its nodes (FFT interpolation
onto the panels, evaluation at any t, antiderivative, derivative) and the
angle panel rule."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from poincarefp import chebgrid


def grid(count, a=0.0, b=220.0):
    nodes = chebgrid.lobatto_nodes(a, b, count)
    return nodes, chebgrid.AnglePanels(a, b, count)


def mpmath_error(order):
    """Largest error of the interpolant of random node data at the exact
    angles phi_k + delta_g, against the barycentric formula in
    x = -cos(phi) at 30 digits; checks one phase row per mirror pair of
    offsets on the way."""
    count = 65
    _, panels = grid(count, -1.0, 1.0)
    assert panels.phases.shape == ((order + 1) // 2, count)
    values = np.random.default_rng(7).uniform(-1, 1, count)
    h = np.pi / (count - 1)
    x, _ = np.polynomial.legendre.leggauss(order)
    delta = h * (1 + x) / 2
    got = panels.interpolate(values)
    assert got.shape == (count - 1, order)
    with mpmath.workdps(30):
        angles = [mpmath.pi * k / (count - 1) for k in range(count)]
        nodes = [-mpmath.cos(phi) for phi in angles]
        bary = [(-1) ** k * (0.5 if k in (0, count - 1) else 1)
                for k in range(count)]
        worst = 0.0
        for k in range(count - 1):
            for g, d in enumerate(delta):
                xt = -mpmath.cos(angles[k] + mpmath.mpf(float(d)))
                kern = [w / (xt - xn) for w, xn in zip(bary, nodes)]
                ref = sum(c * float(v) for c, v in zip(kern, values)) \
                    / sum(kern)
                worst = max(worst, abs(float(ref) - got[k, g]))
    return worst


class TestInterpolation:
    # at count = 200 the transform length 2 * 199 has the prime factor 199
    @pytest.mark.parametrize("count", [16, 17, 160, 200])
    def test_matches_barycentric_matrix(self, count):
        nodes, panels = grid(count)
        weights = chebgrid.lobatto_weights(count)
        values = np.vstack((
            np.exp(-nodes / 30) * np.cos(nodes / 9),
            1 / (1 + nodes) ** 3,
        ))
        dense = chebgrid.barycentric_matrix(
            nodes, weights, panels.points.ravel()
        )
        got = panels.interpolate(values)
        assert got.shape == (2, count - 1, chebgrid.GL_ORDER)
        for row, fft_row in zip(values, got):
            err = np.max(np.abs(dense @ row - fft_row.ravel()))
            assert err <= 1e-13 * np.max(np.abs(row))

    def test_random_data_against_mpmath(self):
        assert mpmath_error(chebgrid.GL_ORDER) < 1e-14

    def test_odd_order_against_mpmath(self, monkeypatch):
        # the middle offset h / 2 of an odd order pairs with itself
        monkeypatch.setattr(chebgrid, "GL_ORDER", 11)
        assert mpmath_error(11) < 1e-14

    def test_coefficients_reproduce_nodes(self):
        count = 33
        nodes, _ = grid(count, -1.0, 1.0)
        values = np.cos(3 * np.arccos(nodes)) + 0.5  # T_3 + T_0 / 2
        coeffs = chebgrid.chebyshev_coefficients(values)
        # x = -cos(phi), so T_3(x) = -cos(3 phi)
        expected = np.zeros(count)
        expected[0], expected[3] = 0.5, -1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-14
        phi = np.pi * np.arange(count) / (count - 1)
        series = np.cos(np.outer(phi, np.arange(count))) @ coeffs
        assert np.max(np.abs(series - values)) < 1e-14


class TestAngleRule:
    @pytest.mark.parametrize("count", [16, 17, 160, 1600])
    def test_points_increase_inside_their_panels(self, count):
        nodes, panels = grid(count)
        assert np.all(np.diff(panels.points.ravel()) > 0)
        assert np.all(panels.points > nodes[:-1, None])
        assert np.all(panels.points < nodes[1:, None])
        assert np.all(panels.weights > 0)

    @pytest.mark.parametrize("count", [16, 160])
    def test_integrates_damped_cosine(self, count):
        nodes, panels = grid(count)
        s = panels.points
        panel_sums = (np.exp(-s / 7) * np.cos(s / 3) * panels.weights).sum(
            axis=1)
        c = complex(-1 / 7, 1 / 3)
        exact = ((np.exp(c * nodes[1:]) - 1) / c).real
        assert np.max(np.abs(np.cumsum(panel_sums) - exact)) \
            <= 1e-13 * np.max(np.abs(exact))


def damped_cosine(count):
    nodes = chebgrid.lobatto_nodes(0.0, 220.0, count)
    return nodes, np.vstack((
        np.exp(-nodes / 30) * np.cos(nodes / 9),
        1 / (1 + nodes) ** 3,
    ))


def targets(count):
    """Random t in [0, 220], some within 1e-9 of either end, and both
    ends."""
    rng = np.random.default_rng(count)
    return np.concatenate((
        rng.uniform(0.0, 220.0, 200), rng.uniform(0.0, 1e-9, 10),
        220.0 - rng.uniform(0.0, 1e-9, 10), [0.0, 220.0],
    ))


class TestSeries:
    @pytest.mark.parametrize("count", [16, 17, 160, 1600])
    def test_matches_barycentric_matrix(self, count):
        nodes, values = damped_cosine(count)
        t = targets(count)
        dense = chebgrid.barycentric_matrix(
            nodes, chebgrid.lobatto_weights(count), t
        ) @ values.T
        got = chebgrid.series_at(chebgrid.chebyshev_coefficients(values),
                                 0.0, 220.0, t)
        assert got.shape == (2, len(t))
        for ref, row, v in zip(dense.T, got, values):
            assert np.max(np.abs(ref - row)) <= 1e-13 * np.max(np.abs(v))

    @pytest.mark.parametrize("count", [16, 17, 160, 1600])
    def test_nodes_round_trip(self, count):
        _, values = damped_cosine(count)
        coeffs = chebgrid.chebyshev_coefficients(values)
        back = chebgrid.series_at_nodes(coeffs)
        assert np.max(np.abs(back - values)) <= 1e-15 * count

    @pytest.mark.parametrize("count", [160, 1600])
    def test_antiderivative_of_damped_cosine(self, count):
        nodes = chebgrid.lobatto_nodes(0.0, 220.0, count)
        coeffs = chebgrid.chebyshev_coefficients(
            np.exp(-nodes / 7) * np.cos(nodes / 3))
        t = targets(count)
        got = chebgrid.series_at(
            chebgrid.antiderivative(coeffs, 0.0, 220.0), 0.0, 220.0, t)
        c = complex(-1 / 7, 1 / 3)
        exact = ((np.exp(c * t) - 1) / c).real
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert abs(got[-2]) <= 1e-15  # pinned to 0 at t0

    @pytest.mark.parametrize("count", [16, 17, 160])
    def test_node_derivative_matches_differentiation_matrix(self, count):
        nodes, values = damped_cosine(count)
        dense = chebgrid.differentiation_matrix(
            nodes, chebgrid.lobatto_weights(count)) @ values.T
        for ref, coeffs in zip(dense.T,
                               chebgrid.chebyshev_coefficients(values)):
            got = chebgrid.series_at_nodes(
                chebgrid.derivative(coeffs, 0.0, 220.0))
            assert np.max(np.abs(ref - got)) <= 1e-12 * np.max(np.abs(ref))
