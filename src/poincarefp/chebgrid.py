"""Chebyshev-Lobatto grids and the cosine series through their nodes.

Iterates of the fixed-point operator are smooth and decaying, so a single
global Chebyshev-Lobatto grid keeps the node count small.  On [a, b] the
nodes are t(phi_k) with

    t(phi) = mid - half cos(phi),   phi_k = k h,   h = pi / (count - 1),

so they are uniform in the angle phi.  In phi the node interpolant is the
cosine series p(phi) = sum_m d_m cos(m phi), whose coefficients come from
one real FFT of the evenly extended node values (Trefethen, Approximation
Theory and Approximation Practice, ch. 3).  Every value read off the
interpolant comes from d: at the nodes and at the panel points below by
one inverse real FFT, at arbitrary t by one product with cos(m phi(t)),
and its antiderivative and derivative as Chebyshev series in
x = cos(phi).  Integrals between nodes use GL_ORDER Gauss-Legendre points
per panel [phi_k, phi_k + h], placed uniformly in phi as well, so every
panel point is phi_k + delta_g with the same offsets delta_g for every k,
and the inverse FFT of d_m e^{i m delta_g} gives p at phi_j + delta_g for
all 2(count - 1) angles phi_j.  The Gauss-Legendre offsets are mirror
pairs, delta_{G-1-g} = h - delta_g, and p is even and 2 pi-periodic, so
the second half of that transform, read backwards, is every panel at the
mirrored offset: interpolating onto all panels is one inverse FFT over
ceil(GL_ORDER / 2) offsets.  The dense barycentric matrices below are
kept only as test references.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

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
        # the offsets pair up, delta_{G-1-g} = h - delta_g (leggauss
        # nodes are exactly antisymmetric), so only the first ceil(G / 2)
        # get a phase row e^{i m delta_g}
        kept = (GL_ORDER + 1) // 2
        self.phases = np.exp(1j * np.outer(delta[:kept], np.arange(count)))
        # panel k at offset g as a flat index into the (kept, L)
        # transforms, L = 2 (count - 1): entry k of row g, or for a
        # mirrored offset entry L - 1 - k of row G - 1 - g
        length = 2 * (count - 1)
        g = np.arange(GL_ORDER)
        k = np.arange(count - 1)[:, None]
        self._mirror = np.where(g < kept, g * length + k,
                                (GL_ORDER - g) * length - 1 - k)

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        """Node interpolant of ``values`` (shape (..., count)) at every
        panel point, shape (..., count - 1, GL_ORDER)."""
        spectrum = _even_spectrum(values)
        # entry j of irfft(V e^{i m delta}) is sum_m d_m cos(m (phi_j +
        # delta)): its 1/L and the doubled interior terms turn V into d,
        # and it keeps only the real part of the Nyquist term, which is
        # all of that term since (count - 1) phi_j is a multiple of pi.
        # Entry L - 1 - k is at 2 pi - phi_k - h + delta, which by
        # evenness is panel k at the mirrored offset h - delta.
        shifted = np.fft.irfft(spectrum[..., None, :] * self.phases,
                               n=2 * (self.count - 1), axis=-1)
        flat = shifted.reshape(shifted.shape[:-2] + (-1,))
        # np.take: several times faster here than the same fancy index
        return np.take(flat, self._mirror, axis=-1)


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
    coeffs[..., [0, -1]] /= 2
    return coeffs


def series_at_nodes(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``chebyshev_coefficients``: sum_m d_m cos(m phi_k) at
    every node, shape (..., count)."""
    count = coeffs.shape[-1]
    spectrum = (count - 1) * coeffs
    spectrum[..., [0, -1]] *= 2
    return np.fft.irfft(spectrum, n=2 * (count - 1), axis=-1)[..., :count]


def series_at(coeffs: np.ndarray, a: float, b: float, t) -> np.ndarray:
    """sum_m d_m cos(m phi(t)) for every row of ``coeffs`` (shape
    (..., count)) at every t of the array t in [a, b], shape (..., len(t)).
    """
    x = np.clip((a + b - 2 * np.asarray(t, dtype=float)) / (b - a), -1, 1)
    basis = np.cos(np.outer(np.arccos(x), np.arange(coeffs.shape[-1])))
    return (basis @ coeffs.T).T


def antiderivative(coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
    """Coefficients (one more) of int_a^t p(s) ds: x = (mid - t) / half,
    so the Chebyshev antiderivative from x = 1 is scaled by -half."""
    return -(b - a) / 2 * chebyshev.chebint(coeffs, lbnd=1)


def derivative(coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
    """Coefficients of dp/dt, padded with a zero to the length of
    ``coeffs``."""
    return np.append(-2 / (b - a) * chebyshev.chebder(coeffs), 0.0)
