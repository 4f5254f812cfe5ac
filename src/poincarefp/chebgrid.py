"""Chebyshev-Lobatto grids, node-to-panel interpolation, panel quadrature.

Iterates of the fixed-point operator are smooth and decaying, so a single
global Chebyshev-Lobatto grid keeps the node count small.  On [a, b] the
nodes are t(phi_k) with

    t(phi) = mid - half cos(phi),   phi_k = k h,   h = pi / (count - 1),

so they are uniform in the angle phi.  Integrals between nodes use
GL_ORDER Gauss-Legendre points per panel [phi_k, phi_k + h], placed
uniformly in phi as well: every panel point is phi_k + delta_g with the
same offsets delta_g for every k.  In phi the node interpolant is the
cosine series p(phi) = sum_m d_m cos(m phi), whose coefficients come from
one real FFT of the evenly extended node values (Trefethen, Approximation
Theory and Approximation Practice, ch. 3), and its value at
phi_k + delta_g for every k is one inverse real FFT of d_m e^{i m delta_g}.
So interpolating onto all panels costs O(count log count) and needs no
matrix.  Barycentric interpolation remains for evaluation at arbitrary t.
"""

from __future__ import annotations

import numpy as np

GL_ORDER = 12


def lobatto_nodes(a: float, b: float, count: int) -> np.ndarray:
    """Chebyshev-Lobatto points mapped to [a, b], ascending, endpoints
    included."""
    if count < 2:
        raise ValueError("need at least 2 nodes")
    k = np.arange(count)
    x = np.cos(np.pi * k / (count - 1))  # descending on [-1, 1]
    return (a + b) / 2 + (b - a) / 2 * x[::-1]


def lobatto_weights(count: int) -> np.ndarray:
    """Barycentric weights for the Lobatto points (ascending order)."""
    w = (-1.0) ** np.arange(count)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w[::-1]


def barycentric_matrix(nodes: np.ndarray, weights: np.ndarray,
                       targets: np.ndarray) -> np.ndarray:
    """Matrix M with (M @ values)[i] = interpolant(targets[i])."""
    targets = np.asarray(targets, dtype=float)
    diff = targets[:, None] - nodes[None, :]
    exact_rows, exact_cols = np.nonzero(diff == 0.0)
    diff[exact_rows, :] = 1.0  # avoid 0/0; fixed up below
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = weights[None, :] / diff
        mat = kernel / kernel.sum(axis=1, keepdims=True)
    for row, col in zip(exact_rows, exact_cols):
        mat[row, :] = 0.0
        mat[row, col] = 1.0
    return mat


def barycentric_eval(nodes, weights, values, x):
    """Interpolant of ``values`` at scalar or array ``x``."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = barycentric_matrix(nodes, weights, x_arr) @ values
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def differentiation_matrix(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix for the barycentric grid."""
    count = len(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    mat = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat


class AnglePanels:
    """GL_ORDER Gauss-Legendre points on every inter-node panel of the
    Lobatto grid on [a, b], uniform in the Chebyshev angle.

    ``points`` and ``weights`` have shape (count - 1, GL_ORDER): row k
    holds panel [t_k, t_{k+1}] in ascending order.
    """

    def __init__(self, a: float, b: float, count: int):
        x, w = np.polynomial.legendre.leggauss(GL_ORDER)
        h = np.pi / (count - 1)
        delta = h * (1 + x) / 2
        angles = h * np.arange(count - 1)[:, None] + delta
        mid = (a + b) / 2
        half = (b - a) / 2
        self.count = count
        self.points = mid - half * np.cos(angles)
        self.weights = half * np.sin(angles) * (h / 2) * w
        # e^{i m delta_g}: shifts the cosine series by one panel offset
        self.phases = np.exp(1j * np.outer(delta, np.arange(count)))

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        """Node interpolant of ``values`` (shape (..., count)) at every
        panel point, shape (..., count - 1, GL_ORDER)."""
        spectrum = _even_spectrum(values)
        # entry k of irfft(V e^{i m delta}) is sum_m d_m cos(m (phi_k +
        # delta)): its 1/L and the doubled interior terms turn V into d,
        # and it keeps only the real part of the Nyquist term, which is
        # all of that term since (count - 1) phi_k is a multiple of pi
        shifted = np.fft.irfft(spectrum[..., None, :] * self.phases,
                               n=2 * (self.count - 1), axis=-1)
        return np.swapaxes(shifted[..., : self.count - 1], -1, -2)

    def cumulative_integral(self, panel_values: np.ndarray) -> np.ndarray:
        """Antiderivative at the nodes, zero at the first node, of a
        function sampled at the panel points."""
        out = np.zeros(self.count)
        out[1:] = np.cumsum((panel_values * self.weights).sum(axis=1))
        return out


def _even_spectrum(values: np.ndarray) -> np.ndarray:
    """Real FFT of the even extension [v_0 .. v_{N-1}, v_{N-2} .. v_1],
    which is real: (N - 1) d_m, with d_0 and d_{N-1} doubled."""
    ext = np.concatenate((values, values[..., -2:0:-1]), axis=-1)
    return np.fft.rfft(ext, axis=-1).real


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """d with p(phi) = sum_m d_m cos(m phi) through the node values
    (shape (..., count)); |d_m| is the m-th Chebyshev coefficient's
    magnitude."""
    coeffs = _even_spectrum(values) / (values.shape[-1] - 1)
    coeffs[..., 0] /= 2
    coeffs[..., -1] /= 2
    return coeffs
