"""Oracle properties of the dense exact kernels: the bitmask minor table
built from shared Bareiss prefixes, the seed product on the grid
{0, 1, inf}^(n-1), and one seed coefficient recomputed from the table."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dstab.certifier import seed_polys
from dstab.matrix import Matrix, all_principal_minors, principal_minor
from dstab.poly import EXP_BITS
from dstab.recursion import _seed_coefficient, build_tree, fg_pair

INTEGERS = st.integers(-5, 5)
# mixed denominators within one matrix
RATIONALS = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from([1, 1, 2, 3, 5, 12]))


@st.composite
def matrices(draw, lo: int, hi: int):
    """An integer or rational matrix, often with zero pivots forced.

    Zero pivots come from zeroed diagonal entries (the worked example has
    one) and from a leading block made singular by copying a row, so that
    some minor on a prefix vanishes while larger minors need not.
    """
    n = draw(st.integers(lo, hi))
    entry = draw(st.sampled_from([INTEGERS, RATIONALS]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    pivots = draw(st.sampled_from(["none", "zero diagonal", "singular block"]))
    if pivots == "zero diagonal":
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            rows[i][i] = 0
    elif pivots == "singular block" and n >= 2:
        k = draw(st.integers(2, n))
        src, dst = draw(st.permutations(range(k)))[:2]
        rows[dst][:k] = rows[src][:k]
    return Matrix(rows)


@settings(max_examples=150, deadline=None)
@given(a=matrices(1, 8))
def test_minor_table_equals_per_subset_determinants(a):
    """The table holds the integer minors of L*A, for L the lcm of the
    denominators, and a lookup returns A's own minor."""
    table = all_principal_minors(a)
    assert table.scale == math.lcm(*(Fraction(x).denominator
                                     for row in a.rows for x in row))
    assert len(table.values) == 2 ** a.n
    for mask, value in enumerate(table.values):
        alpha = [i + 1 for i in range(a.n) if mask >> i & 1]
        minor = principal_minor(a, alpha)
        assert type(value) is int
        assert value == table.scale ** len(alpha) * minor
        assert table[alpha] == minor
        if table.scale == 1:   # an integer table builds no Fraction
            assert type(table[alpha]) is int
    assert table.items() == [(frozenset(alpha), principal_minor(a, alpha))
                             for alpha, _ in table.items()]


@settings(max_examples=80, deadline=None)
@given(a=matrices(2, 7))
def test_seed_product_equals_the_depth_one_tree_product(a):
    tree = build_tree(a, depth=1)
    pair = fg_pair(tree["0"], tree["1"])
    f, g = seed_polys(a, minors=all_principal_minors(a))
    assert f.terms == pair.F.terms and g.terms == pair.G.terms
    assert f.render() == pair.F.render() and g.render() == pair.G.render()
    # without a table, seed_polys enumerates one; with a tree it uses it
    assert seed_polys(a) == (f, g) == seed_polys(a, tree)


@settings(max_examples=100, deadline=None)
@given(a=matrices(1, 7), data=st.data())
def test_permuted_table_and_order_sums_match_a_fresh_table(a, data):
    table = all_principal_minors(a)
    perm = data.draw(st.permutations(range(1, a.n + 1)))
    moved = table.permuted(perm)
    fresh = all_principal_minors(a.permuted(perm))
    assert moved.values == fresh.values
    assert moved.scale == table.scale == fresh.scale
    sums = [sum(principal_minor(a, alpha)
                for alpha in itertools.combinations(range(1, a.n + 1), k))
            for k in range(1, a.n + 1)]
    assert table.order_sums() == sums == moved.order_sums()


@settings(max_examples=60, deadline=None)
@given(a=matrices(2, 6))
def test_one_seed_coefficient_equals_the_seed_product(a):
    """Every grid position's exact coefficient, read from the integer table
    of L*A, is L^(2n-1-|gamma|) times that of F(0,1) + G(0,1)."""
    n, m = a.n, a.n - 1
    f, g = seed_polys(a, minors=all_principal_minors(a))
    minors = all_principal_minors(a)
    table, scale = minors.values, minors.scale
    for flat, exps in enumerate(itertools.product(range(3), repeat=m)):
        # exps holds e_m first, so d_v's digit is the one of 3^(v-1)
        key = sum(e << EXP_BITS * (m - 1 - k) for k, e in enumerate(exps))
        want = (f.terms.get(key, 0) + g.terms.get(key, 0)) \
            * scale ** (2 * n - 1 - sum(exps))
        assert _seed_coefficient(table, m, flat) == want
