"""Characteristic spectrum of the unperturbed equation and its shifts.

The unperturbed operator has the monic characteristic polynomial
``p(x) = x^n + a_{n-1} x^{n-1} + ... + a_1 x + a_0``.  The whole pipeline
requires its roots to be real and simple (strictly decreasing once
sorted); shifting the spectrum by one of its own roots gives the
characteristic set of the order-reduced linear operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ComplexRoots, RepeatedRoots

# Roots closer than this (relative to the spectral radius) are declared
# repeated: downstream kernel weights divide by root gaps, so
# near-degeneracy has to be rejected early.
SIMPLICITY_RTOL = 1e-7
IMAG_TOL = 1e-8
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """All n characteristic roots, sorted strictly decreasing."""

    lam: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def separation(self) -> float:
        return min(
            self.lam[i] - self.lam[i + 1] for i in range(self.n - 1)
        )


@dataclass(frozen=True)
class ShiftedSpectrum:
    """The n-1 shifted roots lam_j - lam_i, sorted strictly decreasing.

    ``case_index`` classifies the sign pattern: 1 when every shifted root
    is negative, n when every one is positive, and k in between when zero
    falls in the open interval (gamma_k, gamma_{k-1}).
    """

    gamma: tuple[float, ...]
    case_index: int
    mu: float

    @property
    def n(self) -> int:
        return len(self.gamma) + 1


def char_poly_coeffs(a) -> np.ndarray:
    """Coefficients of x^n + a_{n-1}x^{n-1} + ... + a_0, highest first."""
    a = np.asarray(a, dtype=float)
    return np.concatenate(([1.0], a[::-1]))


def find_roots(a) -> Spectrum:
    """Roots of the monic characteristic polynomial, strictly decreasing.

    Companion-matrix eigenvalues followed by one Newton polish per root;
    raises ComplexRoots / RepeatedRoots when the real-simple hypothesis
    fails.
    """
    a = tuple(float(v) for v in a)
    n = len(a)
    if n < 2:
        raise ValueError("need n >= 2 coefficients")
    coeffs = char_poly_coeffs(a)
    roots = np.roots(coeffs)

    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.max(np.abs(roots.imag)) > IMAG_TOL * scale:
        raise ComplexRoots(
            f"complex characteristic roots detected: {roots}"
        )
    real = roots.real.copy()

    # one Newton step per root restores accuracy lost to balancing
    deriv = np.polyder(coeffs)
    for idx in range(n):
        p = np.polyval(coeffs, real[idx])
        dp = np.polyval(deriv, real[idx])
        if dp != 0.0:
            real[idx] -= p / dp

    real = np.sort(real)[::-1]
    gaps = real[:-1] - real[1:]
    if n > 1 and np.min(gaps) < SIMPLICITY_RTOL * (1.0 + scale):
        # near a double root the polish moves both roots off it, so the
        # eigenvalues are the ones to report
        raise RepeatedRoots(
            f"characteristic roots too close: {np.sort(roots.real)[::-1]}"
        )

    residuals = np.abs(np.polyval(coeffs, real))
    bound = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(a))))
    if np.max(residuals) > bound:
        # refuse to hand downstream code roots it cannot trust
        raise RepeatedRoots(
            f"root residuals {residuals} exceed {bound}"
        )
    return Spectrum(lam=tuple(real))


def shift_spectrum(s: Spectrum, i: int) -> ShiftedSpectrum:
    """Shifted spectrum gamma_j(lam_i), i is 1-based.

    gamma_j = lam_j - lam_i for j < i and lam_{j+1} - lam_i for j >= i,
    which keeps the tuple strictly decreasing and zero-free.
    """
    n = s.n
    if not 1 <= i <= n:
        raise ValueError(f"base index {i} outside 1..{n}")
    mu = s.lam[i - 1]
    gamma = tuple(s.lam[j] - mu for j in range(n) if j != i - 1)

    if gamma[0] < 0:
        case = 1
    elif gamma[-1] > 0:
        case = n
    else:
        # zero sits strictly between gamma_k and gamma_{k-1}
        case = next(
            k + 1 for k in range(1, n - 1) if gamma[k] < 0 < gamma[k - 1]
        )
    return ShiftedSpectrum(gamma=gamma, case_index=case, mu=mu)


def reduced_linear_coefficients(a, mu: float) -> tuple[float, ...]:
    """Coefficients (b_0, ..., b_{n-2}) of the order-reduced linear part
    ``z^(n-1) + b_{n-2} z^(n-2) + ... + b_1 z' + b_0 z``.

    b_{i-1} = sum_{k=i}^{n} a_k C(k,i) mu^{k-i} for i = 2..n-1 with the
    monic convention a_n = 1, and b_0 = n mu^{n-1} + sum i a_i mu^{i-1}.
    """
    a = tuple(float(v) for v in a)
    n = len(a)
    full = a + (1.0,)  # a_n = 1
    b = [0.0] * (n - 1)
    b[0] = n * mu ** (n - 1) + sum(
        i * a[i] * mu ** (i - 1) for i in range(1, n)
    )
    for i in range(2, n):
        b[i - 1] = sum(
            full[k] * comb(k, i) * mu ** (k - i) for k in range(i, n + 1)
        )
    return tuple(b)
