"""Sparse multivariate polynomials in the diagonal variables d_1, d_2, ...

Coefficients are exact rationals, stored as plain ints whenever the value
is integral (int arithmetic is much faster than Fraction and the two
compare and hash equal).  A monomial is stored as one packed int: the
exponent of d_v sits in the ``EXP_BITS``-wide field starting at bit
``EXP_BITS*(v-1)``, so 0 is the constant monomial, a monomial product is an
integer addition and collecting a variable is a shift and a mask.  The top
bit of every field is a guard: exponents stay at or below ``MAX_EXP``, so
adding two keys never carries into the next field, and a product whose
exponent would pass the limit is refused instead of wrapping.  Zero
coefficients are never stored, so two equal polynomials always have
identical term dictionaries.

The public interface speaks in (variable, exponent) pairs: the constructor
takes them, and ``sorted_terms``, ``coefficient``, ``evaluate``,
``variables`` and ``render`` decode the keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

Monomial = tuple  # tuple[(var, exp), ...] sorted by var, var >= 1, exp >= 1

EXP_BITS = 8
MAX_EXP = (1 << (EXP_BITS - 1)) - 1
MAX_VAR = 64
_FIELD = (1 << EXP_BITS) - 1
_GUARDS = sum(1 << (EXP_BITS * v - 1) for v in range(1, MAX_VAR + 1))

IDENTICALLY_ZERO = "identically_zero"
NONNEG = "nonneg"
NONNEG_STRICT = "nonneg_strict"
MIXED = "mixed"


def _checked_int(value, message: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` if it is an int, not a bool, in lo..hi, else
    ValueError(message): the check of every public integer argument."""
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(message)
    return value


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


def _encode(mono: Iterable[tuple[int, int]]) -> int:
    """Packed key of a monomial given as (var, exp) pairs.

    Pairs may come in any order; a repeated variable multiplies (its
    exponents add) and zero exponents are ignored.
    """
    key = 0
    for v, e in mono:
        if not 1 <= v <= MAX_VAR:
            raise ValueError(f"variable indices lie in 1..{MAX_VAR}, got {v}")
        if e < 0:
            raise ValueError(f"negative exponent {e} of d{v}")
        shift = EXP_BITS * (v - 1)
        if ((key >> shift) & _FIELD) + e > MAX_EXP:
            raise OverflowError(f"exponent of d{v} exceeds {MAX_EXP}")
        key += e << shift
    return key


def _decode(key: int) -> Monomial:
    """(var, exp) pairs of a packed key, sorted by variable."""
    out = []
    v = 1
    while key:
        e = key & _FIELD
        if e:
            out.append((v, e))
        key >>= EXP_BITS
        v += 1
    return tuple(out)


def _wrap(terms: dict) -> "Poly":
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                key = _encode(mono)
                clean[key] = clean.get(key, 0) + as_exact(coeff)
        self.terms = {k: as_exact(c) for k, c in clean.items() if c != 0}

    @staticmethod
    def from_packed(terms: dict) -> "Poly":
        """Wrap a dict of packed keys to nonzero exact coefficients, as is.

        The caller vouches that every key is a valid packed monomial and
        that no coefficient is zero.
        """
        return _wrap(terms)

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): as_exact(c)})

    @staticmethod
    def var(i: int) -> "Poly":
        _checked_int(i, f"variable indices lie in 1..{MAX_VAR}, got {i!r}",
                     1, MAX_VAR)
        return Poly({((i, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0)

    def variables(self) -> set[int]:
        present = 0
        for key in self.terms:
            present |= key
        return {v for v, _ in _decode(present)}

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
        return _wrap(terms)

    def __neg__(self) -> "Poly":
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        terms: dict[int, Fraction] = {}
        get = terms.get
        right = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2
        clean = {}
        present = 0
        for m, c in terms.items():
            if c:
                clean[m] = c
                present |= m
        # a set guard bit is an exponent past MAX_EXP; no field carried
        if present & _GUARDS:
            raise OverflowError(f"product has an exponent above {MAX_EXP}")
        return _wrap(clean)

    def scale(self, r) -> "Poly":
        r = as_exact(r)
        if r == 0:
            return Poly.zero()
        return _wrap({m: c * r for m, c in self.terms.items()})

    def collect(self, i: int) -> tuple["Poly", "Poly", "Poly"]:
        """Split into (p0, p1, p2) with self == p2*d_i^2 + p1*d_i + p0.

        The returned parts do not contain d_i.  Raises if the degree in d_i
        exceeds 2.
        """
        shift = EXP_BITS * (i - 1)
        parts: tuple[dict, dict, dict] = ({}, {}, {})
        for key, coeff in self.terms.items():
            exp = (key >> shift) & _FIELD
            if exp > 2:
                raise ValueError(f"degree in d_{i} exceeds 2")
            parts[exp][key - (exp << shift)] = coeff
        return _wrap(parts[0]), _wrap(parts[1]), _wrap(parts[2])

    def coefficient(self, mono: Iterable[tuple[int, int]]) -> Fraction:
        """Coefficient of an explicit monomial, given as (var, exp) pairs."""
        return self.terms.get(_encode(mono), 0)

    def evaluate(self, point: Mapping[int, Fraction]) -> Fraction:
        """Exact value at a point assigning every variable of the polynomial."""
        missing = self.variables() - set(point)
        if missing:
            raise ValueError(f"point does not assign variables {sorted(missing)}")
        total = Fraction(0)
        for key, coeff in self.terms.items():
            val = coeff
            for v, e in _decode(key):
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
        """(monomial, coefficient) pairs ordered by total degree, then
        lexicographically by the monomial's (var, exp) pairs."""
        def key(item):
            mono, _ = item
            return (sum(e for _, e in mono), mono)
        return sorted(((_decode(k), c) for k, c in self.terms.items()),
                      key=key)

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
