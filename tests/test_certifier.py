import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dstab import certifier, recursion
from dstab.certifier import (CERTIFIED, FAILED_NECESSARY, INCONCLUSIVE,
                             NOT_STABLE, IntervalSet, coeff_tree,
                             collect_variable, degenerate_step2,
                             make_quadratic, quadratic_refine,
                             quadratic_zero_location, region_S,
                             screened_verdict, seed_polys, step1_sufficient,
                             step2_Q0_system, step2_nondegenerate)
from dstab.certifier import test_hierarchy as hierarchy
from dstab.harness import RunConfig, check_matrix
from dstab.matrix import Matrix, all_principal_minors, parse_matrix
from dstab.poly import NONNEG_STRICT, Poly
from dstab.recursion import fg_pair, node_det_direct, seed_negative_screen

OLP = parse_matrix("""
2 -2 1 0 0
1 0 0 0 -1
1 -1 1 0 0
0 -1 0 1 -1
0 1 0 0 2
""")


def _frac(rng, lo=-6, hi=6, denom=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, denom))


# ---------------------------------------------------------------------------
# seed polynomials on the worked 5x5 example


def test_seed_spot_coefficients():
    f, _ = seed_polys(OLP)
    assert f.coefficient(()) == 3
    assert f.coefficient(((4, 2),)) == 3
    assert f.coefficient(((1, 1), (2, 1))) == -4
    assert f.coefficient(((3, 2),)) == 12
    assert f.coefficient(((1, 2), (2, 2), (3, 2), (4, 2))) == 2
    assert len(f.terms) == 20


def test_seed_matches_independent_expansion():
    direct = fg_pair(node_det_direct(OLP, "0"), node_det_direct(OLP, "1"))
    f, g = seed_polys(OLP)
    assert f == direct.F
    assert g == direct.G


def test_coeff_tree_level_one():
    ct = coeff_tree(OLP, seed="F01", depth=1)
    assert collect_variable(5, 0) == 4
    assert ct.nodes["2"] == Poly.zero()
    assert ct.nodes["1"] == ct.nodes["3"]


def test_coeff_tree_level_two():
    ct = coeff_tree(OLP, seed="F01", depth=2)
    d1, d2 = Poly.var(1), Poly.var(2)
    assert ct.nodes["21"] == d1 + (d1 * d2 * d2).scale(4)
    expected_c11 = Poly.const(12) - (d1 * d2).scale(8) + (d2 * d2).scale(8) \
        + (d1 * d1 * d2 * d2).scale(2)
    expected_c31 = Poly.const(3) - (d1 * d2).scale(4) + (d2 * d2).scale(2) \
        + (d1 * d1 * d2 * d2).scale(2)
    assert ct.nodes["11"] == expected_c11
    assert ct.nodes["31"] == expected_c31


def test_coeff_tree_reassembles():
    """Children of every node recombine to the parent: c = c1 d^2 + c2 d + c3."""
    rng = random.Random(301)
    for _ in range(15):
        n = rng.randint(3, 5)
        a = Matrix([[_frac(rng, denom=1) for _ in range(n)] for _ in range(n)])
        ct = coeff_tree(a, seed="F01", depth=n - 2)
        for path, poly in ct.nodes.items():
            if len(path) == ct.depth:
                continue
            d = Poly.var(collect_variable(n, len(path)))
            child = lambda k: ct.nodes[str(k) + path]
            assert child(1) * d * d + child(2) * d + child(3) == poly


def test_coeff_tree_argument_validation():
    with pytest.raises(ValueError):
        coeff_tree(OLP, seed="H01")
    with pytest.raises(ValueError):
        coeff_tree(OLP, depth=4)


def test_coeff_tree_reads_given_seeds_and_checks_the_name_first(monkeypatch):
    seeds = seed_polys(OLP)
    formed = []
    seed_fg = certifier.seed_fg
    monkeypatch.setattr(certifier, "seed_fg",
                        lambda *args: formed.append(1) or seed_fg(*args))
    with pytest.raises(ValueError, match="seed must be"):
        coeff_tree(OLP, seed="H01")
    assert formed == []
    for name, root in zip(("F01", "G01"), seeds):
        formed.clear()
        given_seeds = coeff_tree(OLP, seed=name, depth=2, seeds=seeds)
        assert formed == []
        assert given_seeds.nodes[""] == root
        assert given_seeds == coeff_tree(OLP, seed=name, depth=2)
        assert formed == [1]


# ---------------------------------------------------------------------------
# hierarchy verdicts on the worked example


def test_worked_example_certifies_with_refinement():
    rep = hierarchy(OLP, which="I", depth=3, refine=True)
    assert rep.verdict == CERTIFIED
    discs = sorted({t["discriminant"].render() for t in rep.refinement_traces()})
    assert discs == ["-24 - 8*d1^2", "-384 - 32*d1^2"]


def test_worked_example_needs_refinement():
    rep = hierarchy(OLP, which="I", depth=3, refine=False)
    assert rep.verdict == INCONCLUSIVE
    assert step1_sufficient(OLP).verdict == INCONCLUSIVE


def test_precondition_short_circuits():
    rotation = Matrix([[0, 1], [-1, 0]])
    assert hierarchy(rotation).verdict == NOT_STABLE
    not_p0 = Matrix([[-1, -4], [4, 3]])
    assert hierarchy(not_p0).verdict == FAILED_NECESSARY
    # with preconditions disabled the test itself still cannot certify them
    assert hierarchy(not_p0, check_preconditions=False).verdict \
        == INCONCLUSIVE


def test_identity_certifies_at_depth_zero():
    rep = hierarchy(Matrix.identity(4), which="I", depth=0)
    assert rep.verdict == CERTIFIED
    assert step1_sufficient(Matrix.identity(4)).verdict == CERTIFIED


def test_one_by_one_gets_the_check_matrix_verdict():
    assert hierarchy(Matrix([[2]])).verdict == CERTIFIED
    assert hierarchy(Matrix([[2]])).depth == 0
    assert hierarchy(Matrix([[0]])).verdict == NOT_STABLE
    for entry in (2, Fraction(1, 3), 0, -5):
        a = Matrix([[entry]])
        for which in ("I", "II", "both"):
            for depth in (None, 0, "auto"):
                assert hierarchy(a, which=which, depth=depth).to_dict() == \
                    check_matrix(a, RunConfig(test=which)).to_dict()
    with pytest.raises(ValueError):
        hierarchy(Matrix([[2]]), depth=1)


def test_both_mode_falls_through_to_second_seed():
    # the antisymmetric part vanishes for symmetric matrices, so the G seed
    # is identically zero and only the F seed can certify
    a = Matrix([[2, 1], [1, 2]])
    rep = hierarchy(a, which="both", depth=0)
    assert rep.verdict == CERTIFIED
    assert rep.test == "both"
    with pytest.raises(ValueError):
        hierarchy(a, which="III")
    with pytest.raises(ValueError):
        hierarchy(a, depth=7)


@st.composite
def small_matrices(draw):
    """Integer matrices with a small positive diagonal, n = 3..5; most pass
    the preconditions, and a few certify only at depth 1 or deeper."""
    n = draw(st.integers(3, 5))
    return Matrix([[draw(st.integers(1, 3)) if i == j
                    else draw(st.integers(-2, 2)) for j in range(n)]
                   for i in range(n)])


@st.composite
def olp_variants(draw):
    """D*P^T A P (or its transpose) for the worked example A: D-stable, and
    often certified only at depth 2 or 3."""
    a = OLP.permuted(draw(st.permutations(range(1, 6))))
    d = draw(st.lists(st.integers(1, 3), min_size=5, max_size=5))
    a = Matrix([[d[i] * x for x in row] for i, row in enumerate(a.rows)])
    return a.transpose() if draw(st.booleans()) else a


@settings(max_examples=150, deadline=None)
@given(a=st.one_of(small_matrices(), olp_variants()),
       which=st.sampled_from(["I", "II", "both"]), refine=st.booleans())
@example(a=OLP, which="I", refine=True)
def test_auto_depth_is_the_lowest_certifying_depth(a, which, refine):
    auto = hierarchy(a, which=which, depth="auto", refine=refine)
    # depth None (a failed precondition) reruns at the default depth
    fixed = hierarchy(a, which=which, depth=auto.depth, refine=refine)
    assert fixed.to_dict() == auto.to_dict()
    if auto.verdict == CERTIFIED:
        for k in range(auto.depth):
            assert hierarchy(a, which=which, depth=k,
                             refine=refine).verdict == INCONCLUSIVE
    elif auto.verdict == INCONCLUSIVE:
        assert auto.depth == a.n - 2


@st.composite
def screen_matrices(draw, lo: int, hi: int):
    """Integer matrices at n = lo..hi: dense ones with a small positive
    diagonal, diagonal ones, and block upper triangular ones.  The last two
    factor det(A + iD), so their seeds often have zero coefficients or
    terms that cancel."""
    n = draw(st.integers(lo, hi))
    kind = draw(st.sampled_from(["dense", "diagonal", "block"]))
    rows = [[draw(st.integers(1, 4)) if i == j else draw(st.integers(-3, 3))
             for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        rows = [[rows[i][i] if i == j else 0 for j in range(n)]
                for i in range(n)]
    elif kind == "block":
        k = draw(st.integers(1, n - 1))
        for i in range(k, n):
            rows[i][:k] = [0] * k
    return Matrix(rows)


def _sign_class_verdict(seed: Poly) -> str:
    return (CERTIFIED if seed.coeffwise_sign() == NONNEG_STRICT
            else INCONCLUSIVE)


@settings(max_examples=120, deadline=None)
@given(a=st.one_of(screen_matrices(2, 6), olp_variants()),
       which=st.sampled_from(["I", "II"]))
@example(a=Matrix.identity(4), which="I")
@example(a=OLP, which="I")
def test_unrefined_walk_decides_by_the_seed_sign_class(a, which):
    f01, g01 = seed_polys(a)
    want = _sign_class_verdict(f01 if which == "I" else g01)
    for k in range(a.n - 1):
        rep = hierarchy(a, which=which, depth=k, check_preconditions=False)
        assert rep.verdict == want


@settings(max_examples=150, deadline=None)
@given(a=st.one_of(screen_matrices(2, 7), olp_variants()),
       which=st.sampled_from(["I", "II", "both"]))
@example(a=Matrix.identity(5), which="both")
@example(a=Matrix([[2, 1], [1, 2]]), which="II")
def test_screened_verdict_equals_the_unrefined_walk(a, which):
    minors = all_principal_minors(a)
    want = hierarchy(a, which=which, check_preconditions=False,
                     minors=minors).verdict
    assert screened_verdict(a, which, minors=minors) == want
    # a seed proven negative somewhere never certifies
    f01, g01 = seed_polys(a, minors=minors)
    for seed, negative in zip((f01, g01), seed_negative_screen(minors)):
        if negative:
            assert any(c < 0 for c in seed.terms.values())


def test_screen_falls_back_to_the_exact_seeds(monkeypatch):
    formed = []
    seed_fg = certifier.seed_fg
    monkeypatch.setattr(certifier, "seed_fg",
                        lambda *args: formed.append(1) or seed_fg(*args))
    # the screen settles the worked example without the exact seeds; a
    # seed with no negative coefficient, minors beyond the float range and
    # products beyond it need them
    cases = [(OLP, INCONCLUSIVE, []), (Matrix.identity(4), CERTIFIED, [1])]
    cases += [(OLP.scale(10 ** k), INCONCLUSIVE, [1]) for k in (100, 40)]
    for a, verdict, products in cases:
        minors = all_principal_minors(a)
        formed.clear()
        assert screened_verdict(a, "I", minors=minors) == verdict
        assert formed == products
        assert seed_negative_screen(minors) == (not products,) * 2
    # a float candidate that the exact recheck does not confirm
    monkeypatch.setattr(recursion, "_seed_coefficient", lambda *args: 0)
    formed.clear()
    assert screened_verdict(OLP, "both", minors=all_principal_minors(OLP)) \
        == INCONCLUSIVE
    assert formed == [1]


def test_screened_verdict_refuses_a_bad_seed():
    with pytest.raises(ValueError, match="which must be"):
        screened_verdict(OLP, "III", minors=all_principal_minors(OLP))


def test_certified_report_is_serializable():
    rep = hierarchy(OLP, which="I", depth=3, refine=True)
    d = rep.to_dict()
    assert d["verdict"] == CERTIFIED
    assert all("poly" in node for node in d["nodes"])


def test_refinement_certificate_is_sound_numerically():
    """Spot-check a refined node: the polynomial is positive at random
    positive points even though its coefficients are mixed."""
    rng = random.Random(307)
    rep = hierarchy(OLP, which="I", depth=3, refine=True)
    refined = [rec for rec in rep.nodes if rec.refinement]
    assert refined
    for rec in refined:
        for _ in range(50):
            point = {v: Fraction(rng.randint(1, 40), rng.randint(1, 10))
                     for v in rec.poly.variables()}
            assert rec.poly.evaluate(point) > 0


def test_quadratic_refine_rejects_indefinite():
    d1, d2 = Poly.var(1), Poly.var(2)
    # d1^2 - 4 d1 d2 + d2^2 is negative at d1 = d2 = 1
    p = d1 * d1 - (d1 * d2).scale(4) + d2 * d2
    assert quadratic_refine(p) is None
    # d1^2 - d1 d2 + d2^2 is positive definite
    q = d1 * d1 - d1 * d2 + d2 * d2
    trace = quadratic_refine(q)
    assert trace is not None
    assert (-trace["discriminant"]).coeffwise_sign() == "nonneg_strict"


# ---------------------------------------------------------------------------
# interval sets


def test_interval_set_basics():
    s = IntervalSet(((Fraction(0), Fraction(1)), (Fraction(2), None)))
    assert s.contains(Fraction(1, 2))
    assert not s.contains(Fraction(1))
    assert s.contains(Fraction(100))
    assert not s.contains(Fraction(-1))
    assert IntervalSet(()).is_empty()
    with pytest.raises(ValueError):
        IntervalSet(((Fraction(1), Fraction(1)),))
    with pytest.raises(ValueError):
        IntervalSet(((0, 1), (1, 2), (2, 3)))


# ---------------------------------------------------------------------------
# admissible region: membership fuzz against the defining inequality


def region_member(p00, q01, p11, q10, x):
    return x > 0 and (-x * q01 + p11) * (x * p00 + q10) > 0


def test_region_membership_fuzz():
    rng = random.Random(311)
    for _ in range(500):
        vals = [_frac(rng) if rng.random() > 0.25 else Fraction(0)
                for _ in range(4)]
        region = region_S(*vals)
        probes = [Fraction(rng.randint(1, 60), rng.randint(1, 12))
                  for _ in range(12)]
        # include the interval endpoints' neighborhoods
        for lo, hi in region.intervals:
            probes += [lo + Fraction(1, 997)]
            if hi is not None:
                probes += [hi - Fraction(1, 997), (lo + hi) / 2]
        for x in probes:
            if x <= 0:
                continue
            assert region.contains(x) == region_member(*vals, x), (vals, x)


def test_region_shapes():
    # both factors positive for all d > 0
    assert region_S(1, 0, 1, 1).contains(Fraction(5))
    # constant negative product
    assert region_S(0, 0, 1, -1).is_empty()
    # two crossings: positive between the roots only
    region = region_S(1, 1, 3, -1)  # roots at 3 and 1, lead = -1
    assert region.contains(Fraction(2))
    assert not region.contains(Fraction(4))
    assert not region.contains(Fraction(1, 2))
    # tangent: a double positive root splits the axis and is excluded
    region = region_S(1, -1, -2, -2)  # (d - 2)^2
    assert region.intervals == ((0, 2), (2, None))
    assert not region.contains(Fraction(2))
    # roots at or below 0 do not cut the axis
    assert region_S(1, -1, 1, 1).intervals == ((0, None),)   # (d + 1)^2
    assert region_S(1, 0, 1, 0).intervals == ((0, None),)    # d
    assert region_S(1, 1, 3, 1).intervals == ((0, 3),)       # (3 - d)(d + 1)


# ---------------------------------------------------------------------------
# quadratic zero location against sympy root isolation


def sympy_has_root_in(q, region):
    x = sympy.symbols("x")
    expr = sympy.Rational(q.a) * x**2 + sympy.Rational(q.b) * x + sympy.Rational(q.c)
    if expr == 0:
        return not region.is_empty()
    roots = sympy.real_roots(sympy.Poly(expr, x))
    for r in roots:
        for lo, hi in region.intervals:
            inside = sympy.Rational(lo) < r
            if hi is not None:
                inside = inside and r < sympy.Rational(hi)
            if inside:
                return True
    return False


def test_zero_location_fuzz():
    rng = random.Random(313)
    for _ in range(300):
        q = make_quadratic(_frac(rng), _frac(rng), _frac(rng))
        vals = [_frac(rng) if rng.random() > 0.3 else Fraction(0)
                for _ in range(4)]
        region = region_S(*vals)
        assert quadratic_zero_location(q, region) == \
            (not sympy_has_root_in(q, region))
    # roots or vertex exactly on the region's endpoints or at an inner
    # point (double roots included), where a zero at an inner point and a
    # strict sign change must be told apart
    for _ in range(150):
        vals = [_frac(rng) if rng.random() > 0.3 else Fraction(0)
                for _ in range(4)]
        region = region_S(*vals)
        points = [Fraction(0)]
        for lo, hi in region.intervals:
            points += [lo, lo + 1] if hi is None else [lo, (lo + hi) / 2, hi]
        r1 = rng.choice(points)
        r2 = rng.choice(points + [r1, _frac(rng)])
        k = _frac(rng) or Fraction(1)
        for q in (make_quadratic(k, -k * (r1 + r2), k * r1 * r2),
                  make_quadratic(k, -2 * k * r1, _frac(rng))):
            assert quadratic_zero_location(q, region) == \
                (not sympy_has_root_in(q, region)), (q, region)


def test_zero_location_degenerate_cases():
    empty = IntervalSet(())
    axis = IntervalSet(((Fraction(0), None),))
    assert quadratic_zero_location(make_quadratic(0, 0, 0), empty)
    assert not quadratic_zero_location(make_quadratic(0, 0, 0), axis)
    assert quadratic_zero_location(make_quadratic(0, 0, 5), axis)
    assert not quadratic_zero_location(make_quadratic(0, 1, -2), axis)
    assert quadratic_zero_location(make_quadratic(1, 0, 1), axis)
    # double root on the boundary of an open interval does not count
    q = make_quadratic(1, -2, 1)  # (x-1)^2
    assert quadratic_zero_location(q, IntervalSet(((Fraction(1), None),)))
    assert not quadratic_zero_location(q, axis)


def test_step2_nondegenerate_consistency():
    """step2_nondegenerate is exactly the zero-location call on region_S."""
    rng = random.Random(317)
    for _ in range(100):
        coeffs = [_frac(rng) for _ in range(3)]
        vals = [_frac(rng) if rng.random() > 0.3 else Fraction(0)
                for _ in range(4)]
        expected = quadratic_zero_location(make_quadratic(*coeffs),
                                           region_S(*vals))
        assert step2_nondegenerate(*coeffs, *vals) == expected


# ---------------------------------------------------------------------------
# the pinned linear system


def q0_system_oracle(p00, q00, p10, q10, p01, q01, p11, q11):
    """Independent decision via sympy: does a positive d satisfy
    d*P00 + Q10 = 0, -d*Q01 + P11 = 0 and (-d*Q00 + P10)(d*P01 + Q11) < 0?"""
    d = sympy.symbols("d", positive=True)
    eq1 = d * sympy.Rational(p00) + sympy.Rational(q10)
    eq2 = -d * sympy.Rational(q01) + sympy.Rational(p11)
    ineq = (-d * sympy.Rational(q00) + sympy.Rational(p10)) * \
        (d * sympy.Rational(p01) + sympy.Rational(q11))
    if eq1 == 0 and eq2 == 0:
        sol = sympy.solveset(ineq < 0, d, sympy.Interval.open(0, sympy.oo))
        return sol != sympy.S.EmptySet
    candidates = sympy.solve([eq1, eq2], d, dict=True)
    for cand in candidates:
        val = cand[d]
        if val.is_positive and ineq.subs(d, val) < 0:
            return True
    # one equation may be trivially zero with the other pinning d
    for eq in (eq1, eq2):
        if eq == 0:
            continue
        for val in sympy.solve(eq, d):
            if val.is_positive and eq1.subs(d, val) == 0 \
                    and eq2.subs(d, val) == 0 and ineq.subs(d, val) < 0:
                return True
    return False


def test_q0_system_fuzz():
    rng = random.Random(331)
    for _ in range(300):
        vals = [_frac(rng, lo=-4, hi=4, denom=2) if rng.random() > 0.35
                else Fraction(0) for _ in range(8)]
        assert step2_Q0_system(*vals) == (not q0_system_oracle(*vals)), vals


def test_q0_system_hand_cases():
    # d = 1 solves both equations and makes the product negative
    assert not step2_Q0_system(1, 1, -1, -1, 1, 1, 1, 1)
    # equations force d = 1 but the product is positive there
    assert step2_Q0_system(1, 0, 1, -1, 1, 1, 1, 1)
    # inconsistent equations
    assert step2_Q0_system(1, 0, 0, 1, 0, 0, 1, 0)
    # both equations vanish (P00 = Q01 = Q10 = P11 = 0): the product
    # (-d*Q00 + P10)(d*P01 + Q11) alone decides
    # (d - 1)(d - 3) is negative only between its roots, at the vertex
    assert not step2_Q0_system(0, -1, -1, 0, 1, 0, 0, -3)
    # (d - 2)^2 touches zero at d = 2 but is never negative
    assert step2_Q0_system(0, -1, -2, 0, 1, 0, 0, -2)
    # (1 - d)(d + 1) is negative as d -> inf
    assert not step2_Q0_system(0, 1, 1, 0, 1, 0, 0, 1)


# ---------------------------------------------------------------------------
# coupled degenerate quadratics


def degenerate_oracle(f00, f01, f10, f11, f0010, f0111, g0010, g0111):
    d = sympy.symbols("d")
    q0 = sympy.Rational(f00) * d**2 + 2 * sympy.Rational(g0010) * d + sympy.Rational(f10)
    q1 = sympy.Rational(f01) * d**2 + 2 * sympy.Rational(g0111) * d + sympy.Rational(f11)
    if q0 == 0 and q1 == 0:
        return False  # every positive d works
    if q0 == 0:
        q0, q1 = q1, q0
    roots0 = sympy.real_roots(sympy.Poly(q0, d)) if q0 != 0 else None
    for r in roots0:
        if r > 0 and (q1 == 0 or q1.subs(d, r) == 0):
            return False
    return True


def random_degenerate_inputs(rng):
    """Inputs realizable as |det|^2 data of two constant node pairs."""
    def pq():
        if rng.random() < 0.3:
            return Fraction(0), Fraction(0)
        return _frac(rng, lo=-3, hi=3, denom=2), _frac(rng, lo=-3, hi=3, denom=2)
    p00, q00 = pq()
    p10, q10 = pq()
    p01, q01 = pq()
    p11, q11 = pq()
    f00 = p00 * p00 + q00 * q00
    f10 = p10 * p10 + q10 * q10
    f01 = p01 * p01 + q01 * q01
    f11 = p11 * p11 + q11 * q11
    f0010 = p00 * p10 + q00 * q10
    g0010 = p00 * q10 - q00 * p10
    f0111 = p01 * p11 + q01 * q11
    g0111 = p01 * q11 - q01 * p11
    return f00, f01, f10, f11, f0010, f0111, g0010, g0111


def test_degenerate_step2_fuzz():
    rng = random.Random(337)
    for _ in range(200):
        vals = random_degenerate_inputs(rng)
        f00, f01, f10, f11, f0010, f0111, g0010, g0111 = vals
        expected = degenerate_oracle(f00, f01, f10, f11,
                                     f0010, f0111, g0010, g0111)
        assert degenerate_step2(*vals) == expected, vals


def test_degenerate_step2_hand_cases():
    # q0 = (d-1)^2 scaled, q1 = (d-1)^2 scaled: common root at 1
    # realized by P,Q pairs (1,0),(0,-1) for both seeds: F = 1, G = -1
    assert not degenerate_step2(1, 1, 1, 1, 0, 0, -1, -1)
    # pinned points 1 and 2 differ
    assert degenerate_step2(1, 1, 1, 4, 0, 0, -1, -2)
    # everything zero: all positive d solve both
    assert not degenerate_step2(0, 0, 0, 0, 0, 0, 0, 0)
