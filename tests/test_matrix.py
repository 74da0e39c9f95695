import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dstab.matrix import (DEFAULT_MINOR_CAP, Matrix, MinorCapExceeded,
                          _hurwitz_stable, all_principal_minors, char_poly,
                          classify_P, det_complex, hurwitz_determinants,
                          is_positive_stable, necessary_filter, parse_matrix,
                          principal_minor)


def random_matrix(rng, n, lo=-9, hi=9, denom=1):
    return Matrix([[Fraction(rng.randint(lo, hi), rng.randint(1, denom))
                    for _ in range(n)] for _ in range(n)])


def det_laplace(rows):
    """Cofactor expansion along the first row; slow reference determinant."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_laplace(minor)
    return total


# ---------------------------------------------------------------------------
# construction and parsing


def test_constructor_rejects_non_square():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])


def test_parse_matrix_formats():
    a = parse_matrix("1, 2\n3 4")
    assert a[1, 2] == 2 and a[2, 1] == 3
    b = parse_matrix("""
    # leading comment
    17.85  0.5   # trailing comment
    -1/3   2
    """)
    assert b[1, 1] == Fraction(357, 20)
    assert b[2, 1] == Fraction(-1, 3)
    with pytest.raises(ValueError):
        parse_matrix("1 x\n2 3")
    with pytest.raises(ValueError):
        parse_matrix("# only comments")


def test_entries_demoted_to_int():
    a = parse_matrix("2.0 1\n0.5 3")
    assert isinstance(a[1, 1], int) and a[1, 1] == 2
    assert isinstance(a[2, 1], Fraction)


def test_float_entries_are_taken_exactly():
    a = Matrix([[0.1, 0.3], [1e-13, 2.0]])
    assert a[2, 1] == Fraction(1e-13) != 0
    assert a[1, 1] == Fraction(0.1) != Fraction(1, 10)
    assert isinstance(a[2, 2], int) and a[2, 2] == 2
    assert a.scale(0.5)[2, 2] == 1


def test_matmul_transpose_permute():
    rng = random.Random(3)
    a = random_matrix(rng, 4, denom=3)
    ident = Matrix.identity(4)
    assert a @ ident == a
    assert a.transpose().transpose() == a
    perm = (3, 1, 4, 2)
    p = a.permuted(perm)
    for i in range(1, 5):
        for j in range(1, 5):
            assert p[i, j] == a[perm[i - 1], perm[j - 1]]
    assert a.permuted((1, 2, 3, 4)) == a
    assert all_principal_minors(a).permuted(perm).values \
        == all_principal_minors(p).values


# ---------------------------------------------------------------------------
# determinants and minors


def test_det_against_laplace():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        for denom in (3, 12):
            a = random_matrix(rng, n, denom=denom)
            assert a.det() == det_laplace([list(r) for r in a.rows])
    # zero pivots after the first step: the elimination exchanges rows
    # mid-loop on permutations times a diagonal and on 0/+-1 matrices
    for _ in range(40):
        n = rng.randint(2, 6)
        perm = rng.sample(range(n), n)
        diag = [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                for _ in range(n)]
        signs = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)]
                 for _ in range(n)]
        for rows in ([[diag[i] * (j == perm[i]) for j in range(n)]
                      for i in range(n)], signs):
            assert Matrix(rows).det() == det_laplace(rows)


def test_det_singular_and_permutation_sign():
    a = Matrix([[0, 1], [0, 2]])
    assert a.det() == 0
    # row swap needed for a nonzero pivot
    b = Matrix([[0, 1], [1, 0]])
    assert b.det() == -1


def test_principal_minor_conventions():
    a = Matrix([[2, 1], [1, 3]])
    assert principal_minor(a, []) == 1
    assert principal_minor(a, [1]) == 2
    assert principal_minor(a, [1, 2]) == 5
    # duplicates collapse
    assert principal_minor(a, [2, 2]) == 3


def test_minor_table_complete_and_consistent():
    rng = random.Random(29)
    a = random_matrix(rng, 4, denom=2)
    table = all_principal_minors(a)
    assert len(table) == 2 ** 4
    for k in range(5):
        for combo in itertools.combinations(range(1, 5), k):
            assert table[combo] == principal_minor(a, combo)
    sums = table.order_sums()
    assert len(sums) == 4
    assert sums[0] == sum(a[i, i] for i in range(1, 5))
    assert sums[3] == a.det()


def test_minor_cap():
    a = Matrix.identity(5)
    with pytest.raises(MinorCapExceeded):
        all_principal_minors(a, cap=4)
    assert DEFAULT_MINOR_CAP >= 7


# ---------------------------------------------------------------------------
# characteristic polynomial and stability


def test_char_poly_against_sympy():
    rng = random.Random(53)
    lam = sympy.symbols("lam")
    for _ in range(40):
        n = rng.randint(1, 5)
        for denom in (2, 12):
            a = random_matrix(rng, n, denom=denom)
            cp = char_poly(a)
            m = sympy.Matrix([[sympy.Rational(x) for x in row]
                              for row in a.rows])
            ref = (m - lam * sympy.eye(n)).det(method="berkowitz").expand()
            for k in range(n + 1):
                c = sympy.Rational(ref.coeff(lam, k))
                assert cp.coeffs[k] == Fraction(int(c.p), int(c.q))


def test_char_poly_evaluation():
    a = Matrix([[2, 1], [0, 3]])
    cp = char_poly(a)
    # det(A - lambda*I) = (2 - lambda)(3 - lambda) = 6 - 5*lambda + lambda^2
    assert cp.coeffs == (6, -5, 1)
    assert cp.degree == 2


def test_hurwitz_determinants_reference():
    # x^2 + 3x + 2 = (x+1)(x+2): H1 = 3, H2 = 3*2
    dets = hurwitz_determinants([Fraction(2), Fraction(3), Fraction(1)])
    assert dets == [3, 6]


def test_stability_against_numpy_eigenvalues():
    rng = random.Random(61)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        a = random_matrix(rng, n, lo=-6, hi=6, denom=1)
        arr = np.array([[float(x) for x in row] for row in a.rows])
        margins = np.linalg.eigvals(arr).real
        # skip numerically borderline spectra; the exact decision is strict
        if abs(margins.min()) < 1e-7:
            continue
        checked += 1
        assert is_positive_stable(a) == bool(margins.min() > 0)
    assert checked > 400


@st.composite
def stability_cases(draw):
    """An integer or rational matrix at n=1..6, its diagonal shifted by a
    random amount so that stable and unstable draws both occur.  Its rows
    may then be scaled by exact float diagonals, log-uniform over
    [1e-3, 1e3], as the falsifier's exact re-check builds D*A: this adds
    power-of-two denominators of up to 53 significant bits."""
    n = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([
        st.integers(-9, 9),
        st.fractions(-9, 9, max_denominator=12)]))
    shift = draw(st.integers(0, 25))
    rows = [[draw(entry) + (shift if i == j else 0) for j in range(n)]
            for i in range(n)]
    if draw(st.booleans()):
        d = [math.exp(draw(st.floats(math.log(1e-3), math.log(1e3))))
             for _ in range(n)]
        rows = [[Fraction(di) * x for x in row] for di, row in zip(d, rows)]
    return Matrix(rows)


@settings(max_examples=200, deadline=None)
@given(a=stability_cases())
def test_stability_from_order_sums_matches_char_poly(a):
    minors = all_principal_minors(a)
    assert is_positive_stable(a, minors) == is_positive_stable(a)
    # det(lambda*I + A) = sum_k (-1)^k c_k lambda^k, c_k of det(A - lambda*I)
    coeffs = [(-1) ** k * c for k, c in enumerate(char_poly(a).coeffs)]
    assert coeffs == [*reversed(minors.order_sums()), 1]


@st.composite
def hurwitz_cases(draw):
    """Coefficients, lowest degree first, of a product of up to six factors
    x + r and x^2 + b*x + c with small integer or rational r, b, c, so up
    to degree 12 (the minor cap).  A zero r or b puts a root on the
    imaginary axis and a Hurwitz minor at zero."""
    number = draw(st.sampled_from([
        st.integers(-3, 4),
        st.fractions(-3, 4, max_denominator=6)]))
    coeffs = [draw(st.sampled_from([1, 2, Fraction(1, 3)]))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            factor = [draw(number), 1]
        else:
            factor = [draw(number), draw(number), 1]
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        coeffs = out
    if draw(st.booleans()):   # perturb one coefficient
        k = draw(st.integers(0, len(coeffs) - 1))
        coeffs[k] += draw(number)
    return coeffs


@settings(max_examples=300, deadline=None)
@given(coeffs=hurwitz_cases())
def test_one_pass_routh_hurwitz_matches_the_hurwitz_determinants(coeffs):
    if coeffs[-1] <= 0:
        return
    want = all(d > 0 for d in hurwitz_determinants(coeffs))
    assert _hurwitz_stable(coeffs) == want


def test_one_pass_routh_hurwitz_boundary_cases():
    # (x + 1)(x^2 + 1): H2 = 0, the imaginary pair; x^2 + x: H2 = 0
    for coeffs in ([1, 1, 1, 1], [0, 1, 1], [2, 0, 1]):
        assert 0 in hurwitz_determinants(coeffs)
        assert not _hurwitz_stable(coeffs)
    assert _hurwitz_stable([2, 3, 1])
    # x^3 + 3x^2 + x + 1: D_3 = 2 lies below D_1 = 3, so dividing the
    # Routh array by D_{k-1} in place of D_{k-2} truncates its last lead to 0
    assert hurwitz_determinants([1, 1, 3, 1]) == [3, 2, 2]
    assert _hurwitz_stable([1, 1, 3, 1])
    assert _hurwitz_stable([Fraction(1, 6), Fraction(5, 6), Fraction(1)])


def test_stability_boundary_is_rejected():
    # purely imaginary spectrum
    assert not is_positive_stable(Matrix([[0, 1], [-1, 0]]))
    assert is_positive_stable(Matrix.identity(3))
    assert not is_positive_stable(Matrix([[-1]]))
    for a in (Matrix([[0, 1], [-1, 0]]), Matrix([[-1]]), Matrix([[0]])):
        assert not is_positive_stable(a, all_principal_minors(a))


# ---------------------------------------------------------------------------
# P-matrix classes


def test_classify_P_examples():
    assert classify_P(Matrix.identity(3)) == "P"
    assert classify_P(Matrix([[0, 0], [0, 0]])) == "P0"
    assert classify_P(Matrix([[-1, 0], [0, 1]])) == "none"
    # zero minor but positive order sums
    a = Matrix([[1, 1], [1, 1]])
    assert classify_P(a) == "P0"
    # zero diagonal minor, every order sum positive
    b = Matrix([[0, -1], [1, 1]])
    assert classify_P(b) == "P0_plus"


def test_classify_P_permutation_invariant():
    rng = random.Random(67)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, denom=2)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert classify_P(a) == classify_P(a.permuted(perm))


def test_necessary_filter():
    assert necessary_filter(Matrix.identity(4))
    assert not necessary_filter(Matrix([[-1, -4], [4, 3]]))


# ---------------------------------------------------------------------------
# complex determinant


def test_det_complex_against_numpy():
    rng = random.Random(71)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, denom=2)
        d = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
        re, im = det_complex(a, d)
        arr = np.array([[float(x) for x in row] for row in a.rows],
                       dtype=complex)
        arr += 1j * np.diag([float(x) for x in d])
        ref = np.linalg.det(arr)
        assert abs(float(re) - ref.real) < 1e-8 * max(1, abs(ref))
        assert abs(float(im) - ref.imag) < 1e-8 * max(1, abs(ref))


def test_det_complex_zero_diagonal_is_real_det():
    rng = random.Random(73)
    a = random_matrix(rng, 4, denom=2)
    re, im = det_complex(a, [Fraction(0)] * 4)
    assert re == a.det() and im == 0
