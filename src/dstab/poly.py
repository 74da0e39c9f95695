"""Sparse multivariate polynomials in the diagonal variables d_1, d_2, ...

Coefficients are exact rationals, stored as plain ints whenever the value
is integral (int arithmetic is much faster than Fraction and the two
compare and hash equal).  A monomial is stored as a tuple of
(variable, exponent) pairs sorted by variable index; the empty tuple is the
constant monomial.  Zero coefficients are never stored, so two equal
polynomials always have identical term dictionaries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Monomial = tuple  # tuple[(var, exp), ...], var >= 1, exp >= 1

IDENTICALLY_ZERO = "identically_zero"
NONNEG = "nonneg"
NONNEG_STRICT = "nonneg_strict"
MIXED = "mixed"


def as_exact(x):
    """Exact rational scalar, demoted to int when the value is integral.

    Floats are taken at their exact binary value (``Fraction(0.1)`` is not
    1/10), so no input is rounded.  int and Fraction compare and hash equal,
    and int arithmetic is far cheaper.
    """
    if isinstance(x, int):
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = as_exact(coeff)
                if coeff != 0:
                    clean[mono] = coeff
        self.terms = clean

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): as_exact(c)})

    @staticmethod
    def var(i: int) -> "Poly":
        if i < 1:
            raise ValueError("variable indices are 1-based")
        return Poly({((i, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = terms.get(mono, 0) + coeff
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        p = Poly.__new__(Poly)
        p.terms = terms
        return p

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _merge_monomials(m1, m2)
                s = terms.get(mono, 0) + c1 * c2
                if s:
                    terms[mono] = s
                else:
                    terms.pop(mono, None)
        p = Poly.__new__(Poly)
        p.terms = terms
        return p

    def scale(self, r) -> "Poly":
        r = as_exact(r)
        if r == 0:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p.terms = {m: c * r for m, c in self.terms.items()}
        return p

    def collect(self, i: int) -> tuple["Poly", "Poly", "Poly"]:
        """Split into (p0, p1, p2) with self == p2*d_i^2 + p1*d_i + p0.

        The returned parts do not contain d_i.  Raises if the degree in d_i
        exceeds 2.
        """
        parts = [{}, {}, {}]
        for mono, coeff in self.terms.items():
            exp = 0
            rest = []
            for v, e in mono:
                if v == i:
                    exp = e
                else:
                    rest.append((v, e))
            if exp > 2:
                raise ValueError(f"degree in d_{i} exceeds 2")
            parts[exp][tuple(rest)] = coeff
        out = []
        for part in parts:
            p = Poly.__new__(Poly)
            p.terms = part
            out.append(p)
        return out[0], out[1], out[2]

    def coefficient(self, mono: Iterable[tuple[int, int]]) -> Fraction:
        """Coefficient of an explicit monomial, given as (var, exp) pairs."""
        key = tuple(sorted((v, e) for v, e in mono if e))
        return self.terms.get(key, 0)

    def evaluate(self, point: Mapping[int, Fraction]) -> Fraction:
        """Exact value at a point assigning every variable of the polynomial."""
        missing = self.variables() - set(point)
        if missing:
            raise ValueError(f"point does not assign variables {sorted(missing)}")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for v, e in mono:
                val *= as_exact(point[v]) ** e
            total += val
        return total

    def coeffwise_sign(self) -> str:
        """Classify the stored coefficients.

        ``nonneg_strict`` certifies strict positivity on the open positive
        orthant; ``mixed`` means the certificate does not apply (it does not
        imply the polynomial takes negative values).  Since explicit zero
        coefficients are never stored, the plain ``nonneg`` class can only be
        realized by the zero polynomial and is reported as identically_zero.
        """
        if not self.terms:
            return IDENTICALLY_ZERO
        if all(c > 0 for c in self.terms.values()):
            return NONNEG_STRICT
        return MIXED

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms ordered by total degree, then lexicographically by variable."""
        def key(item):
            mono, _ = item
            total = sum(e for _, e in mono)
            return (total, mono)
        return sorted(self.terms.items(), key=key)

    def render(self) -> str:
        """Canonical text form, e.g. ``3 - 4*d1*d2 + 2*d2^2``."""
        if not self.terms:
            return "0"
        pieces = []
        for idx, (mono, coeff) in enumerate(self.sorted_terms()):
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            factors = []
            if mag != 1 or not mono:
                factors.append(str(mag))
            for v, e in mono:
                factors.append(f"d{v}" if e == 1 else f"d{v}^{e}")
            body = "*".join(factors)
            if idx == 0:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{sign} {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self.render()})"


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[int, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))
