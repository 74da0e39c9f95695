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
cross-validation.  The pipeline builds no tree: ``seed_fg`` forms the seeds
F(0,1) and G(0,1), the product of the two depth-1 nodes, straight from the
minor table, and ``build_tree`` with ``fg_pair`` stays as its oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import (Matrix, MinorTable, _checked_int, all_principal_minors,
                     principal_minor)
from .poly import EXP_BITS, Poly


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
    start = _checked_int(n, f"n must be an integer >= {len(label)}",
                         len(label)) - len(label) + 1
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
    depth = _checked_int(n - 1 if depth is None else depth,
                         "depth must lie in 0..n-1", 0, n - 1)
    if minors is None:
        minors = all_principal_minors(a, cap=n)
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


# ---------------------------------------------------------------------------
# the seed product on dense grids


# i^k = re + i*im for k = 0..3
_UNIT = ((1, 0), (0, 1), (-1, 0), (0, -1))


@functools.lru_cache(maxsize=None)
def _seed_signs(m: int, dtype) -> np.ndarray:
    """The signs that turn the minors A(K_s minus beta) into the
    coefficients of P0, Q0, P1 + Q1 and P1 - Q1 at d^beta."""
    re, im = zip(*(_UNIT[b.bit_count() % 4] for b in range(1 << m)))
    return np.array([re, im, [x + y for x, y in zip(re, im)],
                     [x - y for x, y in zip(re, im)]], dtype=dtype)


@functools.lru_cache(maxsize=None)
def _seed_layout(m: int):
    """Per parity of the total degree, the flat grid positions of ``seed_fg``
    with their packed keys and degrees."""
    # flat position f = sum of e_v * 3^(v-1), where e_v is the exponent of d_v
    exps = list(itertools.product(range(3), repeat=m))   # e_m first
    keys = [sum(e << EXP_BITS * (m - 1 - k) for k, e in enumerate(es))
            for es in exps]
    degrees = [sum(es) for es in exps]
    layout = []
    for parity in (0, 1):
        pos = np.array([f for f, deg in enumerate(degrees) if deg % 2 == parity],
                       dtype=np.intp)
        layout.append((pos, [keys[f] for f in pos], [degrees[f] for f in pos]))
    return layout


def _to_grid(x: np.ndarray, m: int) -> np.ndarray:
    """Values of multilinear polynomials on the grid {0, 1, inf}^m.

    Row b of ``x`` holds the coefficients of one polynomial by bitmask (bit
    v-1 for d_v); along each variable, a + b*d takes the values (a, a+b, b)
    at d = 0, 1 and infinity (the leading coefficient).
    """
    batch = len(x)
    for k in range(m):
        x = x.reshape(batch, 3 ** k, 2, 2 ** (m - 1 - k))
        lo, hi = x[:, :, 0], x[:, :, 1]
        x = np.stack([lo, lo + hi, hi], axis=2)
    return x.reshape(batch, 3 ** m)


def _from_grid(y: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of a polynomial of degree <= 2 in each variable from its
    grid values: along each variable, (v0, v1, vinf) maps to the
    coefficients (v0, v1 - v0 - vinf, vinf) of 1, d and d^2."""
    for k in range(m):
        v = y.reshape(3 ** k, 3, 3 ** (m - 1 - k))
        v[:, 1] -= v[:, 0] + v[:, 2]
    return y


def _seed_product(table: list, m: int, dtype) -> np.ndarray:
    """H = P0*(P1 + Q1) - Q0*(P1 - Q1) by flat grid position, computed in
    ``dtype`` from the minors A(K_s minus beta) of an integer table."""
    half = 1 << m
    rows = np.array([table[half - 1::-1], table[:half - 1:-1]], dtype=dtype)
    grid = _to_grid(rows[[0, 0, 1, 1]] * _seed_signs(m, dtype), m)
    return _from_grid(grid[0] * grid[2] - grid[1] * grid[3], m)


def seed_fg(minors: MinorTable) -> tuple[Poly, Poly]:
    """F(0,1) and G(0,1) read straight off the minor table.

    With m = n-1, z_s = det(A_s + i*D) = P_s + i*Q_s has the coefficient
    i^|beta| * A(K_s minus beta) at d^beta, for K_0 = {1..m} and
    K_1 = {1..n}.  F has only even-degree terms and G only odd ones, so
    H = F + G = P0*(P1 + Q1) - Q0*(P1 - Q1) holds both.  The four factors
    are evaluated on {0, 1, inf}^m, multiplied pointwise and interpolated
    back; every step adds, subtracts or multiplies integers, so the result
    is exact.  It runs on the table's integer minors of L*A, whose seeds
    are A's with the coefficient of d^gamma times L^(2n-1-|gamma|), since
    det(L*A_s + i*D) = L^k det(A_s + i*D/L) for a k x k block A_s; the
    table divides that power out.
    """
    n, m = minors.n, minors.n - 1
    h = _seed_product(minors.values, m, object)
    seeds = []
    for pos, keys, degrees in _seed_layout(m):
        coeffs = h[pos].tolist()
        if minors.scale != 1:
            coeffs = [minors.unscaled(c, 2 * n - 1 - deg)
                      for c, deg in zip(coeffs, degrees)]
        seeds.append(Poly.from_packed(
            {key: c for key, c in zip(keys, coeffs) if c}))
    return seeds[0], seeds[1]


def _seed_coefficient(table: list, m: int, flat: int) -> int:
    """One coefficient of H = F + G of L*A, exactly: the one at grid
    position ``flat``, that is at d^gamma with gamma_v the base-3 digit of
    3^(v-1).

    With T the variables of exponent 2 and O those of exponent 1, it is
    the sum over S within O of x0(T+S)*x2(T+O-S) - x1(T+S)*x3(T+O-S), for
    x0..x3 the coefficients of P0, Q0, P1 + Q1 and P1 - Q1 (at most 2^m
    products).
    """
    twos = ones = 0
    for v in range(m):
        flat, digit = divmod(flat, 3)
        if digit == 2:
            twos |= 1 << v
        elif digit == 1:
            ones |= 1 << v
    half = 1 << m
    top = (1 << (m + 1)) - 1

    def factors(beta):
        # i^|beta| = re + i*im; A(K_0 minus beta) and A(K_1 minus beta)
        re, im = _UNIT[beta.bit_count() % 4]
        z0, z1 = table[half - 1 - beta], table[top - beta]
        return re * z0, im * z0, (re + im) * z1, (re - im) * z1

    total = 0
    sub = ones
    while True:   # every S within O, ending with the empty set
        x0, x1, _, _ = factors(twos | sub)
        _, _, x2, x3 = factors(twos | (ones ^ sub))
        total += x0 * x2 - x1 * x3
        if not sub:
            return total
        sub = (sub - 1) & ones


def seed_negative_screen(minors: MinorTable) -> tuple[bool, bool]:
    """Whether F(0,1) and G(0,1) are proven to have a negative coefficient.

    The seed product runs once in float64 on the integer table, and for
    each seed the most negative float coefficient is recomputed exactly by
    ``_seed_coefficient``.  The signs of the coefficients are those of L*A,
    since each is divided by a positive power of L.  Floats only pick the
    candidate: True is an exact proof, while False (no negative float
    coefficient, an exact recheck that is not negative, or a float
    overflow) proves nothing.
    """
    m, table = minors.n - 1, minors.values
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            h = _seed_product(table, m, np.float64)
    except OverflowError:   # an integer minor beyond the float range
        return False, False
    if not np.isfinite(h).all():
        return False, False
    proven = []
    for pos, _, _ in _seed_layout(m):
        coeffs = h[pos]
        k = int(np.argmin(coeffs))
        proven.append(bool(coeffs[k] < 0)
                      and _seed_coefficient(table, m, int(pos[k])) < 0)
    return proven[0], proven[1]
