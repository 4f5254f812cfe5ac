"""Exact multivariate polynomials with rational coefficients.

A tiny dedicated implementation for the symbolic order reduction: exact
arithmetic (so identities hold with zero tolerance), numeric evaluation
and rendering, nothing more.  Terms are stored as a dict mapping exponent
tuples to ``Fraction`` coefficients; zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    """Polynomial in ``nvars`` variables over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    self.terms[tuple(expo)] = coeff

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        zero = (0,) * nvars
        return cls(nvars, {zero: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = out.get(expo, Fraction(0)) + coeff
            if acc:
                out[expo] = acc
            else:
                out.pop(expo, None)
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(expo, Fraction(0)) + c1 * c2
                if acc:
                    out[expo] = acc
                else:
                    out.pop(expo, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            other = self._coerce(other)
        return self.terms == other.terms

    # -- queries ------------------------------------------------------

    def evaluate(self, values) -> float:
        """Numeric value at the given point (one value per variable).

        Works elementwise when some entries are numpy arrays.
        """
        total = 0.0
        for expo, coeff in self.terms.items():
            term = float(coeff)
            for idx, power in enumerate(expo):
                if power:
                    term = term * values[idx] ** power
            total = total + term
        return total

    def format(self, names: list[str]) -> str:
        """Human-readable rendering using the given variable names."""
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[expo]
            factors = []
            for idx, power in enumerate(expo):
                if power == 1:
                    factors.append(names[idx])
                elif power > 1:
                    factors.append(f"{names[idx]}^{power}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly(nvars={self.nvars}, nterms={len(self.terms)})"
