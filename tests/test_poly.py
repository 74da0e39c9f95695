import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dstab.poly import IDENTICALLY_ZERO, MAX_EXP, MIXED, NONNEG_STRICT, Poly


def random_poly(rng, nvars=3, nterms=5, maxexp=2):
    terms = {}
    for _ in range(nterms):
        mono = tuple(sorted((v, rng.randint(1, maxexp))
                            for v in rng.sample(range(1, nvars + 1),
                                                rng.randint(0, nvars))))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly(terms)


def test_zero_and_const():
    assert Poly.zero().is_zero()
    p = Poly.const(Fraction(3, 2))
    assert p.is_constant()
    assert p.constant_value() == Fraction(3, 2)
    assert Poly.const(0) == Poly.zero()


def test_ring_axioms():
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Poly.zero()
        assert p * Poly.const(1) == p
        assert p * Poly.zero() == Poly.zero()


def test_collect_reassembles():
    rng = random.Random(7)
    for _ in range(100):
        p = random_poly(rng, nvars=4, nterms=8)
        for v in (1, 2, 3, 4):
            c0, c1, c2 = p.collect(v)
            d = Poly.var(v)
            assert c2 * d * d + c1 * d + c0 == p
            for part in (c0, c1, c2):
                assert v not in part.variables()


def test_collect_rejects_high_degree():
    p = Poly({((1, 3),): 1})
    with pytest.raises(ValueError):
        p.collect(1)
    # other variables are unaffected
    assert p.collect(2)[0] == p


def test_evaluate_matches_term_sum():
    rng = random.Random(5)
    for _ in range(100):
        p = random_poly(rng, nvars=3, nterms=6, maxexp=3)
        point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for v in (1, 2, 3)}
        expected = sum((coeff * _mono_value(mono, point)
                        for mono, coeff in p.sorted_terms()), Fraction(0))
        assert p.evaluate(point) == expected


def _mono_value(mono, point):
    val = Fraction(1)
    for v, e in mono:
        val *= Fraction(point[v]) ** e
    return val


def test_evaluate_requires_all_variables():
    p = Poly.var(1) * Poly.var(2)
    with pytest.raises(ValueError):
        p.evaluate({1: Fraction(1)})


def test_coeffwise_sign_classes():
    assert Poly.zero().coeffwise_sign() == IDENTICALLY_ZERO
    assert (Poly.const(2) + Poly.var(1)).coeffwise_sign() == NONNEG_STRICT
    assert (Poly.const(2) - Poly.var(1)).coeffwise_sign() == MIXED
    # cancellation produces the zero polynomial, not a stored zero
    p = Poly.var(1) - Poly.var(1)
    assert p.coeffwise_sign() == IDENTICALLY_ZERO


def test_coefficient_lookup():
    p = Poly.const(3) + Poly.var(2).scale(-4) * Poly.var(1)
    assert p.coefficient(()) == 3
    assert p.coefficient(((1, 1), (2, 1))) == -4
    assert p.coefficient(((1, 2),)) == 0
    # zero exponents are ignored in the key
    assert p.coefficient(((1, 1), (2, 1), (3, 0))) == -4


def test_integral_coefficients_stay_int():
    p = Poly.const(Fraction(6, 2)) * Poly.var(1)
    (coeff,) = p.terms.values()
    assert isinstance(coeff, int) and coeff == 3
    q = Poly.const(Fraction(1, 2)).scale(2)
    assert q == Poly.const(1)


def test_render_and_sorted_terms():
    p = Poly.const(3) - Poly.var(1) * Poly.var(2).scale(4) \
        + (Poly.var(2) * Poly.var(2)).scale(2)
    assert p.render() == "3 - 4*d1*d2 + 2*d2^2"
    assert Poly.zero().render() == "0"
    assert Poly.var(3).render() == "d3"
    degs = [sum(e for _, e in m) for m, _ in p.sorted_terms()]
    assert degs == sorted(degs)


def test_monomials_are_canonical_whatever_order_they_come_in():
    """One monomial is one key: pair order and zero exponents do not split it."""
    p = Poly({((2, 1), (1, 1)): 1}) - Poly({((1, 1), (2, 1)): 1})
    assert p == Poly.zero() and p.render() == "0"
    q = Poly({((1, 1), (2, 0)): 1, ((1, 1),): 2})
    assert q.coefficient(((1, 1),)) == 3
    assert q.collect(2) == (Poly.var(1).scale(3), Poly.zero(), Poly.zero())
    # a repeated variable multiplies
    assert Poly({((1, 1), (1, 1)): 1}) == Poly.var(1) * Poly.var(1)


D = sympy.symbols("d1:7")

# up to 6 variables, exponents up to 4 (discriminants in quadratic_refine
# reach degree 4); pairs come unsorted and may repeat a variable
_monomials = st.lists(st.tuples(st.integers(1, 6), st.integers(0, 4)),
                      max_size=4).filter(
    lambda pairs: all(sum(e for w, e in pairs if w == v) <= 4
                      for v, _ in pairs)).map(tuple)
_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
raw_polys = st.dictionaries(_monomials, _coeffs, max_size=8)


def _sym(terms):
    """sympy expression of (var, exp)-pair monomials -> coefficient."""
    return sympy.expand(sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*[D[v - 1] ** e for v, e in mono])
         for mono, c in terms), sympy.Integer(0)))


def _sym_poly(p: Poly):
    return _sym(p.sorted_terms())


@settings(max_examples=150, deadline=None)
@given(rp=raw_polys, rq=raw_polys, var=st.integers(1, 6),
       point=st.lists(st.fractions(min_value=-4, max_value=4,
                                   max_denominator=5),
                      min_size=6, max_size=6))
def test_arithmetic_matches_sympy(rp, rq, var, point):
    p, q = Poly(rp), Poly(rq)
    sp, sq = _sym(rp.items()), _sym(rq.items())
    assert _sym_poly(p) == sp
    assert _sym_poly(p + q) == sympy.expand(sp + sq)
    assert _sym_poly(p - q) == sympy.expand(sp - sq)
    assert _sym_poly(p * q) == sympy.expand(sp * sq)
    subs = {D[i]: sympy.Rational(x.numerator, x.denominator)
            for i, x in enumerate(point)}
    assert p.evaluate(dict(enumerate(point, start=1))) == sp.subs(subs)
    d = D[var - 1]
    if sympy.degree(sp, d) <= 2:
        assert [_sym_poly(c) for c in p.collect(var)] == \
            [sympy.expand(sp.coeff(d, k)) for k in (0, 1, 2)]
    else:
        with pytest.raises(ValueError):
            p.collect(var)


@settings(max_examples=100, deadline=None)
@given(var=st.integers(1, 64), e1=st.integers(0, MAX_EXP),
       e2=st.integers(1, MAX_EXP))
def test_exponent_overflow_is_refused(var, e1, e2):
    """A product past the exponent limit raises instead of wrapping; one
    within it is exact."""
    left = Poly({((var, e1),): 2})
    right = Poly({((var, e2),): 3, (): 1})
    if e1 + e2 > MAX_EXP:
        with pytest.raises(OverflowError):
            left * right
    else:
        want = Poly({((var, e1 + e2),): 6, ((var, e1),): 2})
        assert left * right == want
    with pytest.raises(OverflowError):
        Poly({((var, e1), (var, MAX_EXP + 1 - e1)): 1})
    with pytest.raises(ValueError):
        Poly.var(65)
