"""Sufficient D-stability tests on the delete/zero expansion.

The certification surface consists of:

* the step-1 sufficient test on F(0,1) / G(0,1) coefficient signs,
* the branched ternary coefficient trees obtained by repeatedly collecting
  powers of the highest remaining variable, checked level by level with
  early stopping (Tests I and II),
* an optional per-variable quadratic-discriminant refinement for nodes in
  at most two variables,
* exact constant-coefficient primitives for the second recursion step
  (the region S, zero location, the Q_0 = P_1 = 0 system), decided by the
  signs of a quadratic at an interval's ends and its vertex.

All verdicts returned here are sound: Certified is only produced from an
exact positivity certificate, never from sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .matrix import (Matrix, MinorTable, _checked_int, all_principal_minors,
                     is_positive_stable, necessary_filter)
from .poly import IDENTICALLY_ZERO, NONNEG_STRICT, Poly
from .recursion import fg_pair, seed_fg, seed_negative_screen

CERTIFIED = "Certified"
INCONCLUSIVE = "Inconclusive"
NOT_STABLE = "NotStable"
FAILED_NECESSARY = "FailedNecessary"
FALSIFIED = "Falsified"

# branch certification statuses
_ZERO = "zero"
_STRICT = "strict"
_UNKNOWN = "unknown"


@dataclass
class NodeRecord:
    """Per-node outcome in a test report."""

    path: str            # ternary path, newest digit first ("" = seed)
    level: int
    poly: Poly
    sign_class: str
    status: str
    refinement: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "path": self.path,
            "level": self.level,
            "variables": len(self.poly.variables()),
            "poly": self.poly.render(),
            "sign_class": self.sign_class,
            "status": self.status,
        }
        if self.refinement is not None:
            out["refinement"] = {
                "variable": self.refinement["variable"],
                "leading": self.refinement["leading"].render(),
                "discriminant": self.refinement["discriminant"].render(),
            }
        return out


@dataclass
class TestReport:
    """Outcome of the certification pipeline for one matrix."""

    verdict: str
    test: Optional[str] = None          # "I", "II" or "both"
    depth: Optional[int] = None
    nodes: list[NodeRecord] = field(default_factory=list)
    counterexample: Optional[object] = None
    detail: Optional[str] = None
    permutation: Optional[tuple[int, ...]] = None

    def refinement_traces(self) -> list[dict]:
        return [rec.refinement for rec in self.nodes if rec.refinement]

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict}
        if self.test is not None:
            out["test"] = self.test
        if self.depth is not None:
            out["depth"] = self.depth
        if self.detail is not None:
            out["detail"] = self.detail
        if self.permutation is not None:
            out["permutation"] = list(self.permutation)
        if self.nodes:
            out["nodes"] = [rec.to_dict() for rec in self.nodes]
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out


# ---------------------------------------------------------------------------
# seeds and coefficient trees


def seed_polys(a: Matrix, tree=None, *,
               minors: MinorTable | None = None) -> tuple[Poly, Poly]:
    """(F(0,1), G(0,1)), read off the minor table by ``seed_fg``.

    Given a delete/zero tree instead, they are the product of its two
    depth-1 nodes.  Without either, the table is enumerated here.
    """
    if a.n < 2:
        raise ValueError("seed polynomials need n >= 2")
    if tree is not None:
        pair = fg_pair(tree["0"], tree["1"])
        return pair.F, pair.G
    if minors is None:
        minors = all_principal_minors(a, cap=a.n)
    return seed_fg(minors)


@dataclass
class CoeffTree:
    """Full ternary coefficient tree of a seed polynomial.

    Level j holds 3^j nodes keyed by ternary paths of length j; digit k of a
    child (1/2/3) selects the d^2 / d^1 / d^0 coefficient of its parent with
    respect to the variable processed at that level.  New digits are
    prepended, matching the subscript convention c_{k_i ... k_1}.
    """

    seed_name: str            # "F01" or "G01"
    n: int
    depth: int
    nodes: dict[str, Poly]


def collect_variable(n: int, level: int) -> int:
    """Variable processed when expanding a node at the given level.

    The seed lives in d_1..d_{n-1}; level-j nodes live in d_1..d_{n-1-j}.
    """
    return n - 1 - level


def coeff_tree(a: Matrix, seed: str = "F01", depth: int = 0, *,
               seeds: tuple[Poly, Poly] | None = None) -> CoeffTree:
    """The coefficient tree of ``seed`` to ``depth`` levels; the seeds are
    ``seeds`` when given, else ``seed_polys(a)``."""
    n = a.n
    _checked_int(depth, "depth must lie in 0..n-2", 0, n - 2)
    if seed not in ("F01", "G01"):
        raise ValueError("seed must be 'F01' or 'G01'")
    f01, g01 = seeds if seeds is not None else seed_polys(a)
    root = f01 if seed == "F01" else g01
    nodes = {"": root}
    frontier = {"": root}
    for j in range(depth):
        var = collect_variable(n, j)
        nxt = {}
        for path, poly in frontier.items():
            p0, p1, p2 = poly.collect(var)
            nxt["1" + path] = p2
            nxt["2" + path] = p1
            nxt["3" + path] = p0
        nodes.update(nxt)
        frontier = nxt
    return CoeffTree(seed, n, depth, nodes)


# ---------------------------------------------------------------------------
# positivity certificates


def quadratic_refine(p: Poly) -> Optional[dict]:
    """Per-variable quadratic-discriminant positivity certificate.

    Collecting p by one of its variables v gives p = a*v^2 + b*v + c with
    polynomial coefficients.  If a has strictly positive coefficients and
    the discriminant b^2 - 4ac has strictly negative coefficients, then p is
    positive for all real v and all positive remaining variables.  Returns
    the successful trace or None.
    """
    for v in sorted(p.variables(), reverse=True):
        c0, c1, c2 = p.collect(v)
        if c2.coeffwise_sign() != NONNEG_STRICT:
            continue
        disc = c1 * c1 - (c2 * c0).scale(4)
        if (-disc).coeffwise_sign() == NONNEG_STRICT:
            return {"variable": v, "leading": c2, "discriminant": disc}
    return None


def _certify_branch(poly: Poly, path: str, level: int, n: int, depth: int,
                    refine: bool, records: list[NodeRecord]) -> str:
    """Certify one branch of the coefficient tree, expanding as needed.

    Returns "zero" (identically zero), "strict" (provably positive on the
    open positive orthant) or "unknown".  A node is strict as soon as all
    its children are nonnegative with at least one strict, mirroring the
    quadratic reassembly with positive d.
    """
    sign = poly.coeffwise_sign()
    if sign == IDENTICALLY_ZERO:
        records.append(NodeRecord(path, level, poly, sign, _ZERO))
        return _ZERO
    if sign == NONNEG_STRICT:
        records.append(NodeRecord(path, level, poly, sign, _STRICT))
        return _STRICT
    if refine and len(poly.variables()) <= 2:
        trace = quadratic_refine(poly)
        if trace is not None:
            records.append(NodeRecord(path, level, poly, sign, _STRICT, trace))
            return _STRICT
    if level >= depth:
        records.append(NodeRecord(path, level, poly, sign, _UNKNOWN))
        return _UNKNOWN
    c0, c1, c2 = poly.collect(collect_variable(n, level))
    statuses = [
        _certify_branch(c2, "1" + path, level + 1, n, depth, refine, records),
        _certify_branch(c1, "2" + path, level + 1, n, depth, refine, records),
        _certify_branch(c0, "3" + path, level + 1, n, depth, refine, records),
    ]
    if _UNKNOWN in statuses:
        status = _UNKNOWN
    elif _STRICT in statuses:
        status = _STRICT
    else:
        status = _ZERO
    records.append(NodeRecord(path, level, poly, sign, status))
    return status


def _run_single_test(root: Poly, n: int, depth: int,
                     refine: bool) -> tuple[bool, list[NodeRecord]]:
    """Certify one seed polynomial: (certified, records in level order)."""
    records: list[NodeRecord] = []
    status = _certify_branch(root, "", 0, n, depth, refine, records)
    records.sort(key=lambda r: (r.level, r.path))
    return status == _STRICT, records


def one_by_one_report(a: Matrix, which: str) -> TestReport:
    """The verdict on a 1x1 matrix, which has no seed polynomials: a
    positive entry is trivially D-stable, a nonpositive one not stable."""
    if a.rows[0][0] > 0:
        return TestReport(CERTIFIED, test=which, depth=0,
                          detail="positive 1x1 matrix is trivially D-stable")
    return TestReport(NOT_STABLE, detail="nonpositive 1x1 matrix")


def hierarchy_depths(n: int, which: str,
                     depth: int | str | None = "auto") -> range | list[int]:
    """The depths ``test_hierarchy`` walks; refuses a bad depth or seed."""
    top = max(n - 2, 0)
    if depth is None:
        depth = top
    if depth != "auto":
        _checked_int(depth, f"depth must be 'auto' or an integer in 0..{top}",
                     0, top)
    if which not in ("I", "II", "both"):
        raise ValueError("which must be 'I', 'II' or 'both'")
    return range(top + 1) if depth == "auto" else [depth]


def test_hierarchy(a: Matrix, which: str = "I",
                   depth: int | str | None = None, refine: bool = False,
                   tree=None, check_preconditions: bool = True, *,
                   minors: MinorTable | None = None,
                   seeds: tuple[Poly, Poly] | None = None) -> TestReport:
    """Depth-limited sufficient test on the branched coefficient trees.

    ``which`` selects the seed: "I" (F(0,1)), "II" (G(0,1)) or "both".
    ``depth`` is an integer in 0..n-2 (default n-2) or "auto", which walks
    the depths upward over the same seeds and returns the first that
    certifies (else the depth n-2 report).
    The seeds are ``seeds`` when given, else they come from ``tree`` when
    one is given, else from ``minors`` (enumerated here when absent).
    Certification is hierarchical with early stopping: a branch whose node
    polynomial certifies positive (by coefficient signs or, with ``refine``,
    by quadratic-discriminant analysis on nodes of at most two variables)
    is not expanded further.  Never returns a false Certified.
    """
    n = a.n
    depths = hierarchy_depths(n, which, depth)
    if n == 1:
        return one_by_one_report(a, which)
    if check_preconditions:
        if minors is None:
            minors = all_principal_minors(a)
        if not is_positive_stable(a, minors):
            return TestReport(NOT_STABLE, detail="matrix is not positive stable")
        if not necessary_filter(a, minors=minors):
            return TestReport(FAILED_NECESSARY,
                              detail="matrix is not a P0+-matrix")
    f01, g01 = (seeds if seeds is not None
                else seed_polys(a, tree, minors=minors))
    roots = {"I": [f01], "II": [g01], "both": [f01, g01]}[which]
    for k in depths:
        # "both" reports Test I's nodes followed by Test II's
        nodes: list[NodeRecord] = []
        for root in roots:
            certified, records = _run_single_test(root, n, k, refine)
            nodes += records
            if certified:
                return TestReport(CERTIFIED, test=which, depth=k, nodes=nodes)
    return TestReport(INCONCLUSIVE, test=which, depth=k, nodes=nodes)


def screened_verdict(a: Matrix, which: str = "I", *,
                     minors: MinorTable) -> str:
    """The verdict of ``test_hierarchy(a, which, refine=False)``, at any depth.

    Without refinement the walk certifies exactly when a seed is nonzero
    with no negative coefficient: a node's children split its terms, so a
    negative coefficient reaches a leaf of any depth and leaves it
    unknown.  A seed that ``seed_negative_screen`` proves negative
    somewhere needs no exact product; otherwise the seeds are formed
    exactly and their sign class decides, so Certified rests on them alone.
    """
    hierarchy_depths(a.n, which)   # refuses a bad seed
    tests = {"I": (0,), "II": (1,), "both": (0, 1)}[which]
    negative = seed_negative_screen(minors)
    if all(negative[t] for t in tests):
        return INCONCLUSIVE
    seeds = seed_polys(a, minors=minors)
    if any(seeds[t].coeffwise_sign() == NONNEG_STRICT for t in tests):
        return CERTIFIED
    return INCONCLUSIVE


def step1_sufficient(a: Matrix, *,
                     seeds: tuple[Poly, Poly] | None = None) -> TestReport:
    """Certify via coefficientwise positivity of F(0,1) or G(0,1).

    The seeds are ``seeds`` when given, else ``seed_polys(a)``.
    """
    f01, g01 = seeds if seeds is not None else seed_polys(a)
    for name, poly in (("I", f01), ("II", g01)):
        sign = poly.coeffwise_sign()
        if sign == NONNEG_STRICT:
            rec = NodeRecord("", 0, poly, sign, _STRICT)
            return TestReport(CERTIFIED, test=name, depth=0, nodes=[rec])
    recs = [NodeRecord("", 0, f01, f01.coeffwise_sign(), _UNKNOWN),
            NodeRecord("", 0, g01, g01.coeffwise_sign(), _UNKNOWN)]
    return TestReport(INCONCLUSIVE, test="both", depth=0, nodes=recs)


# ---------------------------------------------------------------------------
# constant-coefficient quadratic primitives (second recursion step)


@dataclass(frozen=True)
class Quadratic:
    """q(d) = a*d^2 + b*d + c with exact rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __call__(self, d: Fraction) -> Fraction:
        return self.a * d * d + self.b * d + self.c


def make_quadratic(a, b, c) -> Quadratic:
    return Quadratic(Fraction(a), Fraction(b), Fraction(c))


@dataclass(frozen=True)
class IntervalSet:
    """Union of at most two disjoint open intervals; None = +infinity."""

    intervals: tuple[tuple[Fraction, Optional[Fraction]], ...]

    def __post_init__(self):
        if len(self.intervals) > 2:
            raise ValueError("at most two intervals supported")
        for lo, hi in self.intervals:
            if hi is not None and hi <= lo:
                raise ValueError("empty or inverted interval")

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: Fraction) -> bool:
        for lo, hi in self.intervals:
            if x > lo and (hi is None or x < hi):
                return True
        return False

    def __repr__(self):
        if not self.intervals:
            return "IntervalSet(empty)"
        parts = [f"({lo}, {'+inf' if hi is None else hi})"
                 for lo, hi in self.intervals]
        return "IntervalSet(" + " U ".join(parts) + ")"


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _signs(q: Quadratic, lo: Fraction, hi: Optional[Fraction]) -> list[int]:
    """Signs of q at lo, at its vertex when that lies strictly inside
    (lo, hi), and at hi; at hi = +inf, the sign of the leading nonzero
    coefficient.  q is monotone between consecutive points."""
    signs = [_sign(q(lo))]
    if q.a:
        vertex = -q.b / (2 * q.a)
        if vertex > lo and (hi is None or vertex < hi):
            signs.append(_sign(q(vertex)))
    signs.append(_sign(q.a or q.b or q.c) if hi is None else _sign(q(hi)))
    return signs


def region_S(p00, q01, p11, q10) -> IntervalSet:
    """The admissible region S = (0, inf) intersected with
    {(-d*Q01 + P11) * (d*P00 + Q10) > 0}, for constant inputs.

    The positive rational roots of the two linear factors cut (0, inf)
    into at most three pieces, on each of which the product keeps one
    sign; a piece belongs to S when the product is positive at its
    midpoint (at the last root + 1 for the unbounded piece).
    """
    p00, q01 = Fraction(p00), Fraction(q01)
    p11, q10 = Fraction(p11), Fraction(q10)
    roots = {p11 / q01 if q01 else 0, -q10 / p00 if p00 else 0}
    ends = [Fraction(0), *sorted(r for r in roots if r > 0), None]
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        d = lo + 1 if hi is None else (lo + hi) / 2
        if (-d * q01 + p11) * (d * p00 + q10) > 0:
            pieces.append((lo, hi))
    return IntervalSet(tuple(pieces))


def quadratic_zero_location(q: Quadratic, region: IntervalSet) -> bool:
    """True iff q has no real root inside the open region, exactly.

    q vanishes inside (lo, hi) exactly when it is zero at its vertex (the
    one inner point of ``_signs``) or changes sign strictly between two
    consecutive points; an identically zero q vanishes on any nonempty
    region.
    """
    if not (q.a or q.b or q.c):
        return region.is_empty()
    for lo, hi in region.intervals:
        s = _signs(q, lo, hi)
        if 0 in s[1:-1] or any(x * y < 0 for x, y in zip(s, s[1:])):
            return False
    return True


def step2_nondegenerate(f0001, gterm, f1011, p00, q01, p11, q10) -> bool:
    """No positive solution of the step-2 system, for constant inputs.

    The system couples F(00,01)*d^2 + (G(00,11)-G(10,01))*d + F(10,11) = 0
    with the admissibility inequality defining region S.
    """
    q = make_quadratic(f0001, gterm, f1011)
    return quadratic_zero_location(q, region_S(p00, q01, p11, q10))


def step2_Q0_system(p00, q00, p10, q10, p01, q01, p11, q11) -> bool:
    """True iff the Q_0 = P_1 = 0 branch system has no positive solution.

    The system, in the single unknown d:

        d*P00 + Q10 = 0;  -d*Q01 + P11 = 0;
        (-d*Q00 + P10) * (d*P01 + Q11) < 0.

    When P00^2 + Q01^2 > 0 the two linear equations pin d down, and the
    only candidate is d = (P11*Q01 - P00*Q10) / (P00^2 + Q01^2).  When it
    is 0, the equations hold for every d only if Q10 = P11 = 0, and then
    the inequality alone decides: the product is negative somewhere on
    (0, inf) exactly when one of its ``_signs`` on [0, inf) is negative.
    """
    p00, q00 = Fraction(p00), Fraction(q00)
    p10, q10 = Fraction(p10), Fraction(q10)
    p01, q01 = Fraction(p01), Fraction(q01)
    p11, q11 = Fraction(p11), Fraction(q11)

    norm = p00 * p00 + q01 * q01
    if norm == 0:
        if q10 or p11:
            return True
        q = Quadratic(-q00 * p01, p10 * p01 - q00 * q11, p10 * q11)
        return -1 not in _signs(q, Fraction(0), None)
    d = (p11 * q01 - p00 * q10) / norm
    return not (d > 0 and d * p00 + q10 == 0 and -d * q01 + p11 == 0
                and (-d * q00 + p10) * (d * p01 + q11) < 0)


def degenerate_step2(f00, f01, f10, f11, f0010, f0111, g0010, g0111) -> bool:
    """True iff {F_0 = 0, F_1 = 0} has no common positive solution.

    Inputs are the constant values F_00, F_01, F_10, F_11, F(00,10),
    F(01,11), G(00,10), G(01,11); the quadratics are

        F_0 = F_00*d^2 + 2*G(00,10)*d + F_10,
        F_1 = F_01*d^2 + 2*G(01,11)*d + F_11.

    Relies on the structural identity F_a*F_b = F(a,b)^2 + G(a,b)^2, which
    pins the discriminants to -4*F(a,b)^2: a nondegenerate quadratic is
    solvable only at its vertex, and only when the cross term F(a,b)
    vanishes.
    """
    def solutions(fa, gab, fb, fab):
        """The d solving F_a*d^2 + 2*G(a,b)*d + F_b = 0: None when every d
        does, else a set of at most one point, the vertex."""
        fa, gab = Fraction(fa), Fraction(gab)
        if fa != 0:
            return {-gab / fa} if fab == 0 and gab < 0 else set()
        # degenerate leading coefficient: F_s is the constant F_b
        return None if fb == 0 else set()

    # None stands for every d, so it drops out of the intersection
    sets = [s for s in (solutions(f00, g0010, f10, f0010),
                        solutions(f01, g0111, f11, f0111)) if s is not None]
    return bool(sets) and not set.intersection(*sets)
