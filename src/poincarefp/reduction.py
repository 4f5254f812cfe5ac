"""Symbolic order reduction: the nonlinear side of the reduced equation.

Writing a solution as ``y = exp(int(z + mu))`` turns the order-n linear
equation into an order-(n-1) Riccati-type equation for ``z``:

    z^(n-1) + b_{n-2} z^(n-2) + ... + b_0 z = -F(mu, t, r, z-jet)

This module constructs F exactly, as a table of rational-coefficient
polynomials ``Omega_alpha(mu, r_0..r_{n-1})`` indexed by the multi-index
``alpha`` of the monomial ``z^a1 (z')^a2 ... (z^(n-2))^a_{n-1}``.

The construction is the derivative recurrence forced by the change of
variable: with P_j defined by ``y^(j) = P_j * y`` one has P_0 = 1 and
P_{j+1} = (z + mu) P_j + P_j' (formal derivation z^(k) -> z^(k+1)).
Substituting into the original equation and removing the linear part and
the characteristic constant leaves F.

The original equation is linear in a_i + r_i and no P_j contains r, so
every Omega_alpha is affine in r, with coefficients polynomial in mu of
degree below n.  ``OmegaTable`` compiles its table once into float arrays,
the alpha exponents and ``coeffs[alpha, mu power, (1, r_0..r_{n-1})]``;
every numeric Omega, F and coefficient mass is read off them.  The
paper's printed F and H formulas, which this table is checked against,
are test references (``tests/printed_formulas.py``).

Variable layout inside every Poly (nvars = 2n + 2):
    index 0            mu
    index 1 .. n       r_0 .. r_{n-1}
    index n+1 .. 2n+1  v_0 .. v_n     (v_k stands for z^(k))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .multipoly import Poly

MAX_ORDER = 8  # symbolic blow-up guard


def _nvars(n: int) -> int:
    return 2 * n + 2


def var_names(n: int) -> list[str]:
    names = ["mu"] + [f"r{i}" for i in range(n)]
    names += ["z"] + [f"z{k}" for k in range(1, n + 1)]
    return names


def _mu(n: int) -> Poly:
    return Poly.variable(_nvars(n), 0)


def _r(n: int, i: int) -> Poly:
    return Poly.variable(_nvars(n), 1 + i)


def _v(n: int, k: int) -> Poly:
    return Poly.variable(_nvars(n), n + 1 + k)


def _derive(p: Poly, n: int) -> Poly:
    """Formal derivation: v_k -> v_{k+1}, mu and r treated as constants in t
    (r-symbols never appear inside P_j, so nothing else is needed)."""
    out = Poly(p.nvars)
    for expo, coeff in p.terms.items():
        for k in range(n + 1):
            idx = n + 1 + k
            power = expo[idx]
            if power == 0:
                continue
            if k == n:
                raise ValueError("derivation order exceeded the v range")
            new = list(expo)
            new[idx] -= 1
            new[idx + 1] += 1
            out = out + Poly(p.nvars, {tuple(new): coeff * power})
    return out


def build_derivative_polynomials(n: int) -> list[Poly]:
    """P_0 .. P_n with y^(j) = P_j * y, exact rational coefficients."""
    if not 2 <= n <= MAX_ORDER:
        raise ValueError(f"order n={n} outside 2..{MAX_ORDER}")
    zp = _v(n, 0) + _mu(n)
    polys = [Poly.constant(_nvars(n), 1)]
    for _ in range(n):
        prev = polys[-1]
        polys.append(zp * prev + _derive(prev, n))
    return polys


def linear_part_poly(a, n: int) -> Poly:
    """v_{n-1} + sum b_i(mu) v_i as a Poly, b per the closed formulas."""
    full = [Fraction(float(v)) for v in a] + [Fraction(1)]
    mu = _mu(n)
    out = _v(n, n - 1)
    # b_0 = n mu^{n-1} + sum_{i=1}^{n-1} i a_i mu^{i-1}
    b0 = Fraction(n) * mu ** (n - 1)
    for i in range(1, n):
        b0 = b0 + full[i] * Fraction(i) * mu ** (i - 1)
    out = out + b0 * _v(n, 0)
    for i in range(2, n):
        bi = Poly(_nvars(n))
        for k in range(i, n + 1):
            bi = bi + full[k] * Fraction(comb(k, i)) * mu ** (k - i)
        out = out + bi * _v(n, i - 1)
    return out


def char_constant_poly(a, n: int) -> Poly:
    """mu^n + sum a_i mu^i (vanishes when mu is a characteristic root)."""
    mu = _mu(n)
    out = mu ** n
    for i, ai in enumerate(a):
        out = out + Fraction(float(ai)) * mu ** i
    return out


def full_substitution_poly(a, n: int) -> Poly:
    """P_n + sum_i (a_i + r_i) P_i: the original equation divided by y."""
    polys = build_derivative_polynomials(n)
    out = polys[n]
    for i in range(n):
        out = out + (Fraction(float(a[i])) + _r(n, i)) * polys[i]
    return out


@dataclass(frozen=True)
class OmegaTable:
    """alpha-indexed coefficients of F, plus the pieces they came from.

    ``table[alpha]`` is a Poly in mu and the r-symbols only; alpha has
    n-1 entries (exponents of z, z', ..., z^(n-2)).  Row k of
    ``exponents`` and ``coeffs`` is the k-th alpha of the table.
    """

    n: int
    a: tuple[float, ...]
    table: dict
    f_poly: Poly  # sum_alpha Omega_alpha v^alpha, all variables
    exponents: np.ndarray = field(init=False, repr=False, compare=False)
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        coeffs = np.zeros((len(self.table), n, n + 1))
        for row, (alpha, poly) in enumerate(self.table.items()):
            for expo, coeff in poly.terms.items():
                rpow = expo[1 : n + 1]
                if sum(rpow) > 1 or any(expo[n + 1 :]) or expo[0] >= n:
                    raise ValueError(f"Omega{alpha} term {expo} is not "
                                     f"affine in r with mu powers below n")
                col = rpow.index(1) + 1 if any(rpow) else 0
                coeffs[row, expo[0], col] = float(coeff)
        exponents = np.array(list(self.table), dtype=int).reshape(-1, n - 1)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coeffs", coeffs)

    def alphas(self):
        return sorted(self.table, key=lambda al: (sum(al), al))

    def _evaluate(self, coeffs, mu, rvals) -> np.ndarray:
        """Rows of ``coeffs`` at (mu, r), shape (rows,) + the broadcast
        shape of mu and the r entries: per row the r-free part plus
        sum_i c_i(mu) r_i, in i order."""
        ndim = max(np.ndim(v) for v in [mu, *rvals])
        cols = coeffs.reshape(coeffs.shape + (1,) * ndim)
        poly = cols[:, 0]
        for p in range(1, coeffs.shape[1]):
            poly = poly + cols[:, p] * mu ** p
        out = poly[:, 0]
        for i, r in enumerate(rvals):
            out = out + poly[:, 1 + i] * r
        return out

    def omega_value(self, alpha, mu, rvals):
        """Numeric Omega_alpha(mu, r), 0 for an alpha outside the table;
        mu and the rvals entries may be arrays."""
        alpha = tuple(alpha)
        if alpha not in self.table:
            return 0.0
        row = list(self.table).index(alpha)
        return self._evaluate(self.coeffs[row : row + 1], mu, rvals)[0]

    def omega_values(self, mu, rvals) -> np.ndarray:
        """Omega_alpha(mu, r) for every table row, shape (rows, ...);
        mu and the rvals entries may be arrays."""
        return self._evaluate(self.coeffs, mu, rvals)

    def combine(self, omegas: np.ndarray, zvals):
        """sum_alpha omegas[row] * z-jet^alpha in table order, for
        omegas from ``omega_values``; zvals holds z .. z^(n-2).

        Each power z_k^p is formed once per call by repeated
        multiplication and shared across rows.  No ``**``: numpy's float
        pow takes a slow scalar path on negative bases, and products are
        exact per operation, so an odd power of -z_k is bitwise -(z_k^p).
        """
        powers = []  # powers[k][p - 1] = z_k^p
        for z, top in zip(zvals, self.exponents.max(axis=0, initial=0)):
            row = [z]
            for _ in range(1, top):
                row.append(row[-1] * z)
            powers.append(row)
        total = 0.0
        for omega, alpha in zip(omegas, self.exponents.tolist()):
            term = omega
            for k, power in enumerate(alpha):
                if power:
                    term = term * powers[k][power - 1]
            total = total + term
        return total

    def evaluate_F(self, mu, rvals, zvals):
        """F = sum_alpha Omega_alpha(mu, r) * z-jet^alpha.

        rvals has n entries, zvals has n-1 entries (z .. z^(n-2));
        entries may be numpy arrays of a common shape.
        """
        return self.combine(self.omega_values(mu, rvals), zvals)

    def evaluate_rhs(self, mu, rvals, zvals):
        """Right side of the reduced equation: -F."""
        return -self.evaluate_F(mu, rvals, zvals)

    def mass_by_order(self, mu, rvals) -> np.ndarray:
        """Row k: sum_{|alpha| = k} |Omega_alpha(mu, r)| for k = 0..n.

        Vectorizes over array-valued mu and rvals entries.
        """
        omegas = self.omega_values(mu, rvals)
        out = np.zeros((self.n + 1,) + omegas.shape[1:])
        for order, omega in zip(self.exponents.sum(axis=1), np.abs(omegas)):
            out[order] += omega
        return out

    def format_rows(self):
        names = var_names(self.n)
        rows = []
        for alpha in self.alphas():
            rows.append((alpha, self.table[alpha].format(names)))
        return rows


def build_reduced_rhs(a, n: int | None = None) -> OmegaTable:
    """Collect F = full - linear - characteristic constant into the
    alpha-indexed table.

    Sign convention: the table stores the coefficients of F itself, so the
    independent term is exactly sum_l mu^l r_l and the reduced equation
    reads ``linear part = -sum_alpha Omega_alpha z^alpha``.
    """
    if n is None:
        n = len(a)
    if len(a) != n:
        raise ValueError("coefficient count must equal n")
    f_poly = (
        full_substitution_poly(a, n)
        - linear_part_poly(a, n)
        - char_constant_poly(a, n)
    )

    table: dict[tuple[int, ...], Poly] = {}
    for expo, coeff in f_poly.terms.items():
        alpha = tuple(expo[n + 1 : 2 * n])  # exponents of v_0 .. v_{n-2}
        if any(expo[2 * n :]):
            raise AssertionError(
                "derivative of order > n-2 survived the reduction"
            )
        if sum(alpha) == 1 and not any(expo[1 : n + 1]):
            raise AssertionError(
                "r-free linear monomial escaped the linear part"
            )
        coeff_expo = expo[: n + 1] + (0,) * (n + 1)
        entry = table.setdefault(alpha, Poly(_nvars(n)))
        table[alpha] = entry + Poly(_nvars(n), {coeff_expo: coeff})
    return OmegaTable(n=n, a=tuple(float(v) for v in a), table=table, f_poly=f_poly)
