"""The delete/zero tree of determinant expansions.

A node is labelled by a binary string s processing the trailing indices of
the matrix: a label of length k covers indices n-k+1..n, character j of the
string describing index n-k+1+j.  Bit 0 means the row and column were
deleted, bit 1 means they were kept with the corresponding diagonal
variable set to zero.  Each node carries the polynomials

    P_s = Re(det(A_s + i*D_s)),   Q_s = Im(det(A_s + i*D_s))

in the surviving variables d_1..d_{n-k}.

``build_tree`` reads the nodes of its deepest requested level off the
principal-minor table and fills ancestors upward through the recurrence

    P_s = -d_{n-k} * Q_{0s} + P_{1s};   Q_s = d_{n-k} * P_{0s} + Q_{1s}.

``node_det_direct`` is an independently coded subset-expansion path kept for
cross-validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .matrix import Matrix, MinorTable, all_principal_minors, principal_minor
from .poly import Poly


@dataclass(frozen=True)
class DetPair:
    """Real and imaginary part of det(A_s + i*D_s) for one tree node."""

    label: str
    P: Poly
    Q: Poly


@dataclass(frozen=True)
class PairFG:
    """F(s,t) = Re(conj(det A_s) * det A_t) and G(s,t) = Im(...)."""

    labels: tuple[str, str]
    F: Poly
    G: Poly


def alpha_set(label: str, n: int) -> list[int]:
    """Indices kept with their diagonal variable zeroed (bit 1)."""
    start = n - len(label) + 1
    return [start + j for j, bit in enumerate(label) if bit == "1"]


def surviving_indices(label: str, n: int) -> list[int]:
    """Rows/columns of A present in A_s: the free block plus alpha(s)."""
    k = len(label)
    return list(range(1, n - k + 1)) + alpha_set(label, n)


def node_det_direct(a: Matrix, label: str) -> DetPair:
    """Subset-expansion evaluation of (P_s, Q_s); the test oracle path.

    det(A_s + i*D_free) is expanded over subsets beta of the free indices
    1..n-k, each subset contributing i^{|beta|} * prod(d_j) times the
    principal minor of A on the remaining surviving indices.
    """
    n = a.n
    free = list(range(1, n - len(label) + 1))
    kept = surviving_indices(label, n)
    p_terms: dict = {}
    q_terms: dict = {}
    for r in range(len(free) + 1):
        for beta in itertools.combinations(free, r):
            rest = [i for i in kept if i not in beta]
            minor = principal_minor(a, rest)
            if minor == 0:
                continue
            mono = tuple((j, 1) for j in beta)
            # i^r cycles 1, i, -1, -i
            if r % 4 == 0:
                p_terms[mono] = p_terms.get(mono, Fraction(0)) + minor
            elif r % 4 == 1:
                q_terms[mono] = q_terms.get(mono, Fraction(0)) + minor
            elif r % 4 == 2:
                p_terms[mono] = p_terms.get(mono, Fraction(0)) - minor
            else:
                q_terms[mono] = q_terms.get(mono, Fraction(0)) - minor
    return DetPair(label, Poly(p_terms), Poly(q_terms))


def _expanded_node(n: int, label: str, minor) -> DetPair:
    """(P_s, Q_s) by subset expansion, with minors read through ``minor``.

    Each subset beta of the free indices 1..n-k contributes
    i^{|beta|} * d^beta * A(kept minus beta).
    """
    kept = surviving_indices(label, n)
    free = kept[:n - len(label)]
    parts: tuple[dict, dict] = ({}, {})   # real, imaginary
    for r in range(len(free) + 1):
        sign = -1 if r % 4 >= 2 else 1   # i^r cycles 1, i, -1, -i
        terms = parts[r % 2]
        for beta in itertools.combinations(free, r):
            terms[tuple((j, 1) for j in beta)] = \
                sign * minor([i for i in kept if i not in beta])
    return DetPair(label, Poly(parts[0]), Poly(parts[1]))


def leaf_pair(a: Matrix, label: str, minors: MinorTable | None = None) -> DetPair:
    """Depth n-1 node read off the minor table:

    P_s = A(1 U alpha(s)),  Q_s = d_1 * A(alpha(s)).
    """
    if len(label) != a.n - 1:
        raise ValueError("leaf labels have length n-1")
    if minors is None:
        return _expanded_node(a.n, label, lambda idx: principal_minor(a, idx))
    return _expanded_node(a.n, label, minors.__getitem__)


def build_tree(a: Matrix, depth: int | None = None,
               minors: MinorTable | None = None) -> dict[str, DetPair]:
    """All delete/zero nodes with labels of length <= depth (default n-1).

    The depth-``depth`` nodes are read off the minor table by subset
    expansion over their free indices (at depth n-1 these are the leaves of
    ``leaf_pair``); their ancestors are filled in by the recurrence, so
    every returned node above the bottom level satisfies it exactly.
    """
    n = a.n
    if depth is None:
        depth = n - 1
    if not 0 <= depth <= n - 1:
        raise ValueError("depth must lie in 0..n-1")
    if minors is None:
        minors = all_principal_minors(a, cap=max(n, 12))
    nodes: dict[str, DetPair] = {}
    for bits in itertools.product("01", repeat=depth):
        label = "".join(bits)
        nodes[label] = _expanded_node(n, label, minors.__getitem__)
    for k in range(depth - 1, -1, -1):
        d = Poly.var(n - k)
        for bits in itertools.product("01", repeat=k):
            label = "".join(bits)
            zero_child = nodes["0" + label]
            one_child = nodes["1" + label]
            p = one_child.P - d * zero_child.Q
            q = one_child.Q + d * zero_child.P
            nodes[label] = DetPair(label, p, q)
    return nodes


def fg_pair(a: DetPair, b: DetPair) -> PairFG:
    """F(s,t) = P_s P_t + Q_s Q_t and G(s,t) = P_s Q_t - Q_s P_t."""
    if len(a.label) != len(b.label):
        raise ValueError("labels must have equal length")
    f = a.P * b.P + a.Q * b.Q
    g = a.P * b.Q - a.Q * b.P
    return PairFG((a.label, b.label), f, g)
