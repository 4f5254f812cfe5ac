"""The paper's printed formulas for F and H, as test references.

The package builds F from the derivative recurrence of
``reduction.build_derivative_polynomials``; that table is authoritative.
The literal formulas printed for F and for the coefficient-mass function
H are reproduced here (``printed_F_poly`` and ``printed_H_poly``) purely
as cross-checks, and the comparison produces a monomial-level
discrepancy report.  ``omega0`` and ``hhat`` read the independent term
and the signed coefficient mass off a built table.

Every Poly uses the variable layout of ``reduction``:
``mu, r_0 .. r_{n-1}, v_0 .. v_n`` with v_k standing for z^(k).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from helpers import diff_terms
from poincarefp.multipoly import Poly
from poincarefp.reduction import OmegaTable, _mu, _nvars, _r, _v, var_names


def omega0(table: OmegaTable) -> Poly:
    """The independent term Omega_(0,...,0) of the table, 0 if absent."""
    return table.table.get((0,) * (table.n - 1), Poly(_nvars(table.n)))


def hhat(table: OmegaTable, mu, rvals):
    """Signed coefficient mass sum_{|alpha| >= 1} Omega_alpha, i.e.
    F at z = z' = ... = 1 minus the independent term."""
    ones = [1.0] * (table.n - 1)
    return table.evaluate_F(mu, rvals, ones) - table.omega_value(
        (0,) * (table.n - 1), mu, rvals
    )


def _zp(n: int, ell: int) -> Poly:
    """(z + mu)^(ell): the sum itself for ell = 0, z^(ell) for ell >= 1."""
    if ell == 0:
        return _v(n, 0) + _mu(n)
    return _v(n, ell)


def _s_sums(n: int, m: int, j: int, term_of_tuple) -> Poly:
    """Shared skeleton of the nested Leibniz sums S_{m,j}: iterate the
    admissible (l_1..l_m) tuples with their binomial weights and add
    ``weight * term_of_tuple(ls)``."""
    out = Poly(_nvars(n))

    def rec(ls, weight):
        nonlocal out
        depth = len(ls)
        if depth == m:
            out = out + Fraction(weight) * term_of_tuple(tuple(ls))
            return
        used = sum(ls)
        upper = j - used - (m + 2)
        for ell in range(upper + 1):
            if depth == 0:
                w = weight * comb(j - 1, ell)
            else:
                w = weight * comb(j - used - depth - 1, ell)
            rec(ls + [ell], w)

    rec([], 1)
    return out


def printed_S(n: int, m: int, j: int) -> Poly:
    """S_{m,j} exactly as printed (m >= 1); S_{0,j} handled separately."""

    def term(ls):
        used = sum(ls)
        lead = j - used - m - 1
        prod = Poly.constant(_nvars(n), 1)
        for ell in ls:
            prod = prod * _zp(n, ell)
        bracket = _zp(n, lead) + Fraction(lead) * _zp(n, lead - 1) * _zp(n, 0)
        return prod * bracket

    return _s_sums(n, m, j, term)


def printed_S0(n: int, j: int) -> Poly:
    """S_{0,j} = z^(j-1) + (j-1) z^(j-2) (z + mu)."""
    return _v(n, j - 1) + Fraction(j - 1) * _v(n, j - 2) * _zp(n, 0)


def printed_F_poly(n: int, a) -> Poly:
    """The printed F formula, taken literally, as a polynomial.

    Superscripts are read as derivative orders except in the explicitly
    parenthesized powers (z + mu)^i and z^2.
    """
    if n < 3:
        raise ValueError("printed F is stated for n >= 3")
    full = [Fraction(float(v)) for v in a]
    nv = _nvars(n)
    mu = _mu(n)
    out = Fraction(n - 1) * _v(n, n - 2) * _v(n, 0)
    for m in range(1, n - 2):
        out = out + printed_S(n, m, n)
    for i in range(3, n):
        ai_group = Fraction(i - 1) * _v(n, i - 2) * _v(n, 0)
        for m in range(1, i - 2):
            ai_group = ai_group + printed_S(n, m, i)
        ai_group = ai_group + _v(n, i - 1) * _v(n, 1)
        for j in range(1, i - 1):
            ai_group = ai_group + Fraction(comb(i, j)) * _v(n, i - j) * mu ** j
        ri_group = printed_S0(n, i)
        for m in range(1, i - 2):
            ri_group = ri_group + printed_S(n, m, i)
        ri_group = ri_group + _v(n, i - 1) * _v(n, 1) + _zp(n, 0) ** i
        out = out + full[i] * ai_group + _r(n, i) * ri_group
    out = out + full[2] * _v(n, 0) ** 2
    out = out + _r(n, 2) * (_v(n, 1) + _zp(n, 0) ** 2)
    out = out + _r(n, 1) * _zp(n, 0)
    out = out + _r(n, 0) * Poly.constant(nv, 1)
    return out


def printed_F_reference(n: int, a, mu, rvals, zvals) -> float:
    """Numeric value of the printed F formula at a point."""
    point = [mu, *rvals, *zvals]
    return printed_F_poly(n, a).evaluate(
        point + [0.0] * (_nvars(n) - len(point)))


def printed_Shat(n: int, m: int, j: int) -> Poly:
    """The hat version of S_{m,j} used by the printed H formula."""

    def term(ls):
        lead = j - sum(ls) - m - 1
        bracket = Poly.constant(_nvars(n), 1) + Fraction(lead) * (
            Poly.constant(_nvars(n), 1) + _mu(n)
        )
        return bracket

    return _s_sums(n, m, j, term)


def printed_H_poly(n: int, a) -> Poly:
    """The printed coefficient-mass function H(t, mu), literally."""
    if n < 3:
        raise ValueError("printed H is stated for n >= 3")
    full = [Fraction(float(v)) for v in a]
    nv = _nvars(n)
    mu = _mu(n)
    one = Poly.constant(nv, 1)
    out = Fraction(n - 1) * one + full[2] * one
    out = out + _r(n, 2) * (Fraction(2) * one + Fraction(2) * mu)
    out = out + _r(n, 1) * one
    for m in range(1, n - 2):
        out = out + printed_Shat(n, m, n)
    for i in range(3, n):
        ai_group = Fraction(i - 1) * one
        for m in range(1, i - 2):
            ai_group = ai_group + printed_Shat(n, m, i)
        ai_group = ai_group + one
        for j in range(1, i - 1):
            ai_group = ai_group + Fraction(comb(i, j)) * mu ** j
        shat0 = Fraction(i) * one + Fraction(i - 1) * mu  # hat S_{0,i}
        ri_group = shat0
        for m in range(1, i - 2):
            ri_group = ri_group + printed_Shat(n, m, i)
        ri_group = ri_group + (one + mu) ** i
        out = out + full[i] * ai_group + _r(n, i) * ri_group
    return out


def discrepancy_report(authoritative: Poly, printed: Poly, n: int) -> list[str]:
    """Monomial-level differences (printed minus authoritative), rendered
    with the shared variable names; empty list means exact agreement."""
    names = var_names(n)
    rows = []
    for expo, delta in sorted(diff_terms(printed, authoritative).items()):
        factors = [
            f"{names[idx]}^{p}" if p > 1 else names[idx]
            for idx, p in enumerate(expo)
            if p
        ]
        mono = "*".join(factors) if factors else "1"
        rows.append(f"{mono}: printed - recurrence = {delta}")
    return rows
