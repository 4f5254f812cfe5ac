"""Piecewise-exponential Green kernel for the reduced linear operator.

The reduced linear operator factors as ``prod_l (d/dt - gamma_l)`` over
the shifted spectrum.  Its unique kernel that decays away from the
diagonal takes one exponential term per root,

    g(t, s) = sum_l  sign_l * c_l * exp(gamma_l (t - s)),
    c_l = 1 / prod_{j != l} (gamma_l - gamma_j),

where a term with gamma_l < 0 lives on t >= s (causal, sign +1) and a
term with gamma_l > 0 lives on s >= t (anticausal, sign -1).  Partial
fractions of 1 / prod(s - gamma_l) give the c_l, which also makes the
jump of the (n-2)-th t-derivative across t = s exactly +1; the jump is
still measured at construction time and the recorded sign is trusted over
any printed bookkeeping.

Note the support orientation: a spectrum that is entirely negative
(case 1) yields a kernel supported on s <= t, an entirely positive one
(case n) on s >= t, and mixed spectra decay on both sides.  This is the
orientation forced by requiring g to actually satisfy the homogeneous
equation off the diagonal; it is the mirror of a common convention that
attaches the Heaviside factors the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize

from .spectral import ShiftedSpectrum

JUMP_TOL = 1e-10
SIGN_SAMPLES = 2048  # scan points per side when bracketing sign changes


def upsilon(values, ell: int) -> float:
    """Gap products: ell = 0 is the full product over ordered pairs,
    ell >= 1 omits every pair touching index ell (1-based); an empty
    product is 1."""
    vals = tuple(float(v) for v in values)
    d = len(vals)
    if not 0 <= ell <= d:
        raise ValueError(f"ell={ell} outside 0..{d}")
    out = 1.0
    for i in range(d):
        for j in range(i + 1, d):
            if ell and (i == ell - 1 or j == ell - 1):
                continue
            out *= vals[j] - vals[i]
    return out


@dataclass(frozen=True)
class GreenKernel:
    gamma: ShiftedSpectrum
    upsilon0: float
    case_index: int
    coeffs: tuple[float, ...]  # c_l = 1 / prod_{j != l}(gamma_l - gamma_j)
    causal: tuple[bool, ...]  # True: term lives on t >= s
    jump_sign: float  # sign of the (n-2)-th derivative jump at t = s

    @property
    def n(self) -> int:
        return self.gamma.n

    def term_sign(self, ell: int) -> float:
        return self.jump_sign * (1.0 if self.causal[ell] else -1.0)

    def derivative(self, t, s, j: int):
        """d^j g / dt^j at (t, s); t and s scalars or arrays that
        broadcast against each other.

        Orders up to n-2 are the kernel contract (the n-2 one jumps at
        t = s, where the t > s branch is returned); higher orders are
        one-sided values used by diagnostics.
        """
        u = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        out = np.zeros(u.shape)
        for ell, gam in enumerate(self.gamma.gamma):
            if self.causal[ell]:
                mask = u >= 0
            else:
                mask = u < 0
            if not np.any(mask):
                continue
            term = (
                self.term_sign(ell)
                * self.coeffs[ell]
                * gam ** j
                * np.exp(gam * u[mask])
            )
            out[mask] += term
        if out.ndim == 0:
            return float(out)
        return out

    def abs_derivative_sum(self, t, s):
        """sum_{j=0}^{n-2} |d^j g/dt^j| at (t, s)."""
        total = 0.0
        for j in range(self.n - 1):
            total = total + np.abs(self.derivative(t, s, j))
        return total

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """A[j, l] = sign_l c_l gamma_l^j, so that g^(j)(u) = sum_l
        A[j, l] e^{gamma_l u} on the support of term l; j = 0..n-2."""
        gams = np.asarray(self.gamma.gamma)
        signs = np.array([self.term_sign(ell) for ell in range(len(gams))])
        orders = np.arange(self.n - 1)[:, None]
        return signs * np.asarray(self.coeffs) * gams ** orders

    @cached_property
    def sign_changes(self) -> tuple[float, ...]:
        """Every u = t - s != 0 where some g^(j), j = 0..n-2, changes
        sign.  On either side of the diagonal g^(j) is an exponential sum
        in |u| with negative rates: gamma_l for u > 0, -gamma_l for
        u < 0."""
        gams = np.asarray(self.gamma.gamma)
        changes = []
        for amps in self.amplitudes:
            for side, orient in ((True, 1.0), (False, -1.0)):
                idx = np.asarray(self.causal) == side
                changes += [orient * v for v in
                            _sign_changes(amps[idx], orient * gams[idx])]
        return tuple(sorted(changes))

    def decay_rate(self) -> float:
        """Slowest decay rate away from the diagonal."""
        return min(abs(g) for g in self.gamma.gamma)


def _sign_changes(amps, rates) -> list[float]:
    """Every v > 0 where h(v) = sum_l amps[l] e^{rates[l] v} changes sign,
    for rates < 0.

    Past V, the slowest term outweighs the sum of all the others, so
    every sign change lies in (0, V]; it is bracketed on a uniform scan
    and refined by Brent's method.
    """
    amps = np.asarray(amps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if len(amps) < 2:
        return []
    lead = int(np.argmax(rates))
    rest = np.arange(len(rates)) != lead
    ratio = np.abs(amps[rest]).sum() / abs(amps[lead])
    gap = rates[lead] - rates[rest].max()
    if ratio <= 1.0:
        return []
    # a sign change can sit exactly at the bound, so scan a little past it
    v = np.linspace(0.0, 1.1 * np.log(ratio) / gap, SIGN_SAMPLES)

    def h(x):
        return float(np.dot(amps, np.exp(rates * x)))

    vals = amps @ np.exp(rates[:, None] * v[None, :])
    nonzero = np.flatnonzero(vals)
    out = []
    for a, b in zip(nonzero[:-1], nonzero[1:]):
        if vals[a] * vals[b] >= 0:
            continue
        fa, fb = h(v[a]), h(v[b])
        if fa * fb < 0:
            out.append(optimize.brentq(h, v[a], v[b], xtol=1e-14))
        else:  # the scan saw a rounding-level value at one end
            out.append(v[a] if abs(fa) <= abs(fb) else v[b])
    return out


def build_kernel(gamma: ShiftedSpectrum) -> GreenKernel:
    """Assemble the kernel and pin its global sign with the jump check."""
    gams = gamma.gamma
    d = len(gams)
    if d != len(set(gams)) or any(g == 0.0 for g in gams):
        raise ValueError(f"degenerate shifted spectrum {gams}")

    coeffs = []
    for ell, gam in enumerate(gams):
        denom = 1.0
        for j, other in enumerate(gams):
            if j != ell:
                denom *= gam - other
        coeffs.append(1.0 / denom)
    causal = tuple(g < 0 for g in gams)

    # jump of the (n-2)-th t-derivative at t = s: causal terms enter the
    # t > s side, anticausal ones the t < s side with their minus sign
    jump = sum(c * g ** (d - 1) for c, g in zip(coeffs, gams))
    if abs(abs(jump) - 1.0) > JUMP_TOL:
        raise ValueError(f"kernel jump magnitude {jump} is not 1")
    jump_sign = 1.0 if jump > 0 else -1.0

    return GreenKernel(
        gamma=gamma,
        upsilon0=upsilon(gams, 0),
        case_index=gamma.case_index,
        coeffs=tuple(coeffs),
        causal=causal,
        jump_sign=jump_sign,
    )
