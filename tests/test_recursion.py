import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstab.matrix import Matrix, all_principal_minors, det_complex, principal_minor
from dstab.poly import Poly
from dstab.recursion import (alpha_set, build_tree, fg_pair, leaf_pair,
                             node_det_direct, surviving_indices)


def random_matrix(rng, n, denom=1):
    return Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, denom))
                    for _ in range(n)] for _ in range(n)])


def test_label_index_sets():
    assert alpha_set("01", 5) == [5]
    assert alpha_set("10", 5) == [4]
    assert surviving_indices("01", 5) == [1, 2, 3, 5]
    assert surviving_indices("", 3) == [1, 2, 3]


def test_tree_matches_direct_expansion():
    """The recurrence-built tree agrees with subset expansion everywhere."""
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, denom=2)
        tree = build_tree(a)
        for k in range(n):
            for bits in itertools.product("01", repeat=k):
                label = "".join(bits)
                direct = node_det_direct(a, label)
                assert tree[label].P == direct.P, label
                assert tree[label].Q == direct.Q, label


def test_root_node_is_full_complex_determinant():
    rng = random.Random(103)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, denom=2)
        root = build_tree(a)[""]
        d = [Fraction(rng.randint(1, 7), rng.randint(1, 3)) for _ in range(n)]
        re, im = det_complex(a, d)
        point = {i + 1: d[i] for i in range(n)}
        assert root.P.evaluate(point) == re
        assert root.Q.evaluate(point) == im


def test_leaf_identity():
    """Leaves read off the minor table: P constant, Q linear in d1."""
    rng = random.Random(107)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, denom=2)
        minors = all_principal_minors(a)
        for bits in itertools.product("01", repeat=n - 1):
            label = "".join(bits)
            leaf = leaf_pair(a, label, minors)
            alpha = alpha_set(label, n)
            assert leaf.P == Poly.const(principal_minor(a, [1] + alpha))
            assert leaf.Q == Poly.var(1).scale(principal_minor(a, alpha))
            assert leaf_pair(a, label) == leaf  # minor table optional
    with pytest.raises(ValueError):
        leaf_pair(Matrix.identity(3), "0")


def test_child_recurrence_holds_at_every_node():
    rng = random.Random(109)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, denom=2)
        tree = build_tree(a)
        for label, node in tree.items():
            k = len(label)
            if k == n - 1:
                continue
            d = Poly.var(n - k - 1 + 1)  # variable freed at this split
            zero, one = tree["0" + label], tree["1" + label]
            assert node.P == one.P - d * zero.Q
            assert node.Q == one.Q + d * zero.P


def test_four_by_four_depth_one_formulas():
    """Explicit check of the two depth-1 nodes of a 4x4 matrix."""
    rng = random.Random(113)
    a = random_matrix(rng, 4, denom=2)
    tree = build_tree(a)
    minors = all_principal_minors(a)
    d1, d2, d3 = Poly.var(1), Poly.var(2), Poly.var(3)

    # deletion child: indices 1..3 survive with free variables d1..d3
    p0 = Poly.const(minors[[1, 2, 3]]) \
        - d1 * d2 * Poly.const(minors[[3]]) \
        - d1 * d3 * Poly.const(minors[[2]]) \
        - d2 * d3 * Poly.const(minors[[1]])
    q0 = d1 * Poly.const(minors[[2, 3]]) + d2 * Poly.const(minors[[1, 3]]) \
        + d3 * Poly.const(minors[[1, 2]]) - d1 * d2 * d3
    assert tree["0"].P == p0 and tree["0"].Q == q0

    # zeroed child: index 4 kept with d4 = 0
    p1 = Poly.const(minors[[1, 2, 3, 4]]) \
        - d1 * d2 * Poly.const(minors[[3, 4]]) \
        - d1 * d3 * Poly.const(minors[[2, 4]]) \
        - d2 * d3 * Poly.const(minors[[1, 4]])
    q1 = d1 * Poly.const(minors[[2, 3, 4]]) + d2 * Poly.const(minors[[1, 3, 4]]) \
        + d3 * Poly.const(minors[[1, 2, 4]]) - d1 * d2 * d3 * Poly.const(minors[[4]])
    assert tree["1"].P == p1 and tree["1"].Q == q1


@st.composite
def matrices_and_depths(draw):
    n = draw(st.integers(1, 6))
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=3)
    a = Matrix([[draw(entries) for _ in range(n)] for _ in range(n)])
    return a, draw(st.integers(0, n - 1))


@settings(max_examples=80, deadline=None)
@given(case=matrices_and_depths())
def test_depth_k_nodes_read_off_the_minor_table(case):
    """build_tree(depth=k) is the full tree cut to labels of length <= k."""
    a, k = case
    full = build_tree(a)
    cut = build_tree(a, depth=k, minors=all_principal_minors(a))
    assert cut == {lbl: node for lbl, node in full.items() if len(lbl) <= k}


def test_depth_truncation_and_n1():
    a = Matrix([[3, 1], [0, 2]])
    shallow = build_tree(a, depth=0)
    assert set(shallow) == {""}
    with pytest.raises(ValueError):
        build_tree(a, depth=5)
    single = build_tree(Matrix([[7]]))
    assert single[""].P == Poly.const(7)
    assert single[""].Q == Poly.var(1)


def test_fg_symmetry_and_diagonal():
    rng = random.Random(127)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, denom=2)
        tree = build_tree(a)
        s, t = tree["0"], tree["1"]
        st = fg_pair(s, t)
        ts = fg_pair(t, s)
        assert st.F == ts.F
        assert st.G == -ts.G
        ss = fg_pair(s, s)
        assert ss.G == Poly.zero()
        assert ss.F == s.P * s.P + s.Q * s.Q
    with pytest.raises(ValueError):
        fg_pair(tree[""], tree["0"])


def test_fg_diagonal_nonnegative_at_points():
    """F(s,s) = |det|^2 must be nonnegative wherever it is evaluated."""
    rng = random.Random(131)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n, denom=2)
        tree = build_tree(a)
        for label in ("0", "1"):
            f = fg_pair(tree[label], tree[label]).F
            point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 3))
                     for v in f.variables()}
            if f.variables():
                assert f.evaluate(point) >= 0


def test_fg_child_recurrences():
    """F and G of a parent pair expand through the children with the freed
    variable: F(s,t) = F(0s,0t) d^2 + (G(0s,1t) - G(1s,0t)) d + F(1s,1t)."""
    rng = random.Random(137)
    for _ in range(20):
        n = rng.randint(3, 5)
        a = random_matrix(rng, n, denom=2)
        tree = build_tree(a)
        for s, t in (("0", "1"), ("0", "0"), ("1", "1")):
            k = len(s)
            d = Poly.var(n - k)
            f = fg_pair(tree[s], tree[t])
            f00 = fg_pair(tree["0" + s], tree["0" + t])
            f01 = fg_pair(tree["0" + s], tree["1" + t])
            f10 = fg_pair(tree["1" + s], tree["0" + t])
            f11 = fg_pair(tree["1" + s], tree["1" + t])
            assert f.F == f00.F * d * d + (f01.G - f10.G) * d + f11.F
            assert f.G == f00.G * d * d + (f10.F - f01.F) * d + f11.G
