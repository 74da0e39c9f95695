import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dstab import certifier, cli, harness, matrix, recursion
from dstab.certifier import (CERTIFIED, FAILED_NECESSARY, FALSIFIED,
                             INCONCLUSIVE, NOT_STABLE)
from dstab.falsifier import falsify, first_stage_trials, stable_seed
from dstab.harness import (GeneratorStyle, RunConfig, check_matrix,
                           random_stable_matrix, run_experiment)
from dstab.matrix import (Matrix, MinorCapExceeded, is_positive_stable,
                          necessary_filter, parse_matrix)
from test_acceptance import (PUBLISHED_5X5_TEST_I, PUBLISHED_5X5_TEST_II,
                             PUBLISHED_6X6_TEST_I)

OLP = parse_matrix("""
2 -2 1 0 0
1 0 0 0 -1
1 -1 1 0 0
0 -1 0 1 -1
0 1 0 0 2
""")


def test_pipeline_on_worked_example():
    rep = check_matrix(OLP, RunConfig(test="I", depth="auto", refine=True))
    assert rep.verdict == CERTIFIED
    # the auto schedule stops at the first depth that certifies
    assert rep.depth <= 3


def test_pipeline_orders_cheap_filters_first():
    assert check_matrix(Matrix([[0, 1], [-1, 0]])).verdict == NOT_STABLE
    assert check_matrix(parse_matrix("-1 -4\n4 3")).verdict == FAILED_NECESSARY


def test_pipeline_one_by_one():
    assert check_matrix(Matrix([[5]])).verdict == CERTIFIED
    assert check_matrix(Matrix([[-2]])).verdict == NOT_STABLE
    assert check_matrix(Matrix([[0]])).verdict == NOT_STABLE


def test_pipeline_identity_uses_step1():
    rep = check_matrix(Matrix.identity(3))
    assert rep.verdict == CERTIFIED
    assert rep.depth == 0


def test_pipeline_depth_validation():
    with pytest.raises(ValueError):
        check_matrix(OLP, RunConfig(depth=9))
    # a bool or a float is refused although it equals a valid depth
    for depth in (True, 1.0):
        with pytest.raises(ValueError, match=r"depth must be .* 0\.\.3"):
            check_matrix(OLP, RunConfig(depth=depth))
        with pytest.raises(ValueError, match=r"depth must be .* 0\.\.3"):
            certifier.test_hierarchy(OLP, depth=depth)
    # depth and test are checked before any stage: step 1 certifies the
    # first matrix and stability rejects the second
    for text in ("2 1\n1 2", "0 1\n-1 0"):
        a = parse_matrix(text)
        with pytest.raises(ValueError, match=r"depth must be .* 0\.\.0"):
            check_matrix(a, RunConfig(depth=9))
        with pytest.raises(ValueError, match="which must be"):
            check_matrix(a, RunConfig(test="III"))
        check_matrix(a, RunConfig(depth=0, test="both"))


def test_pipeline_never_runs_char_poly(monkeypatch):
    """Generation, experiments and checks decide stability from the minor
    table; Faddeev-LeVerrier is left to the oracle path."""
    def refuse(a):
        raise AssertionError("char_poly called")
    monkeypatch.setattr(matrix, "char_poly", refuse)
    assert sum(run_experiment(5, 20).counts.values()) == 20
    assert sum(run_experiment(7, 2).counts.values()) == 2
    for a in (PUBLISHED_5X5_TEST_I, PUBLISHED_5X5_TEST_II,
              PUBLISHED_6X6_TEST_I, OLP):
        assert check_matrix(a).verdict in (CERTIFIED, INCONCLUSIVE)
    assert check_matrix(OLP.scale(-1)).verdict == NOT_STABLE


def test_one_minor_table_per_draw_and_per_check(monkeypatch):
    tables = []

    def recording(a, cap=matrix.DEFAULT_MINOR_CAP):
        tables.append(a.rows)
        return matrix.all_principal_minors(a, cap=cap)
    for owner in (harness, certifier, recursion):
        monkeypatch.setattr(owner, "all_principal_minors", recording)
    trials = 20
    run_experiment(5, trials, seed=3, style="diag_lo=1,diag_hi=10,noise=10")
    # one table per draw, rejected draws included, and none enumerated twice
    assert len(set(tables)) == len(tables)
    assert sum(is_positive_stable(Matrix(rows)) for rows in tables) == trials
    draws = len(tables)
    assert draws > trials
    check_matrix(OLP, RunConfig(test="both", refine=True, permutations=2))
    assert len(tables) == draws + 1


def _old_generator(n, seed, style):
    """The generator before it drew hundredths as ints: two-decimal
    Fractions, stability of 100*A by Faddeev-LeVerrier."""
    style = GeneratorStyle.parse(style)
    rng = random.Random(stable_seed("dstab-gen", n, seed))
    while True:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    x = rng.uniform(style.diag_lo, style.diag_hi)
                else:
                    x = rng.uniform(-style.noise, style.noise)
                row.append(Fraction(f"{x:.2f}"))
            rows.append(row)
        a = Matrix(rows)
        if is_positive_stable(a.scale(100)):
            return a


def test_generator_matches_the_two_decimal_reference():
    for style in ("default", "diag_lo=1,diag_hi=10,noise=10", "noise=0.01"):
        for n in range(1, 8):
            for seed in range(2):
                want = _old_generator(n, seed, style)
                got = random_stable_matrix(n, seed, style)
                assert got == want and repr(got) == repr(want)


def test_generation_above_the_cap_fails_before_the_first_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew a matrix")
    monkeypatch.setattr(harness.random, "Random", refuse)
    n = matrix.DEFAULT_MINOR_CAP + 1
    with pytest.raises(MinorCapExceeded):
        random_stable_matrix(n, 0)
    with pytest.raises(MinorCapExceeded):
        run_experiment(n, 0)


def test_pipeline_permutation_retries_recorded():
    cfg = RunConfig(test="I", depth="auto", refine=True, permutations=2, seed=4)
    rep = check_matrix(OLP, cfg)
    assert rep.verdict == CERTIFIED
    # the unpermuted matrix certifies, so no permutation should be reported
    assert rep.permutation is None


def test_check_makes_one_minor_table_and_one_seed_per_permutation(
        monkeypatch):
    calls = {"seed_polys": 0, "all_principal_minors": 0}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    # the generator enumerates its own table, outside the counted window
    a = random_stable_matrix(6, 0)
    count(certifier, "seed_polys")
    for owner in (harness, recursion):
        count(owner, "all_principal_minors")
    cfg = RunConfig(test="both", depth="auto", refine=True, permutations=2)
    rep = check_matrix(a, cfg)
    # every permutation is tried, each at every depth
    assert rep.verdict == INCONCLUSIVE and rep.permutation is not None
    assert rep.depth == 4
    # one seed product per permutation: step 1 and the identity share one
    assert calls == {"seed_polys": 1 + cfg.permutations,
                     "all_principal_minors": 1}


def test_hot_path_builds_no_tree(monkeypatch):
    """The seeds are read off the minor table; no production path builds a
    delete/zero tree, which stays a test oracle."""
    def no_tree(*args, **kwargs):
        raise AssertionError("build_tree called")
    for owner in (harness, recursion):
        monkeypatch.setattr(owner, "build_tree", no_tree)
    # no other module holds a name it could call
    assert not hasattr(certifier, "build_tree")
    assert not hasattr(cli, "build_tree")
    run_experiment(4, 20, seed=3)
    cfg = RunConfig(test="both", depth="auto", refine=True, permutations=2)
    assert check_matrix(random_stable_matrix(6, 0), cfg).permutation
    assert certifier.test_hierarchy(OLP).verdict == INCONCLUSIVE
    certifier.seed_polys(OLP)
    assert len(certifier.coeff_tree(OLP, depth=3).nodes) == 1 + 3 + 9 + 27


def test_unrefined_trial_forms_an_exact_seed_product_only_to_certify(
        monkeypatch):
    """At n >= 5 an Inconclusive trial is settled by one exact seed
    coefficient, and only a Certified one forms the exact seed product;
    with refinement every trial walks the tree on its exact seeds."""
    formed = []
    seed_fg = recursion.seed_fg
    for owner in (certifier, recursion):
        monkeypatch.setattr(owner, "seed_fg",
                            lambda *args: formed.append(1) or seed_fg(*args))
    stats = run_experiment(5, 100, seed=3)
    assert stats.counts == {CERTIFIED: 1, INCONCLUSIVE: 99,
                            FAILED_NECESSARY: 0, FALSIFIED: 0}
    assert len(formed) == 1
    formed.clear()
    assert run_experiment(7, 6, seed=0, depth=3).counts[INCONCLUSIVE] == 6
    assert formed == []
    refined = run_experiment(5, 10, seed=3, refine=True)
    assert len(formed) == 10 - refined.counts[FAILED_NECESSARY]


def test_generator_style_parse():
    s = GeneratorStyle.parse("noise=10,diag_hi=80")
    assert s.noise == 10 and s.diag_hi == 80 and s.diag_lo == 20
    assert GeneratorStyle.parse("default") == GeneratorStyle()
    with pytest.raises(ValueError):
        GeneratorStyle.parse("sigma=3")
    assert "noise=" in s.describe()
    for spec in ("noise=nan", "diag_hi=inf", "diag_lo=-inf", "noise=abc"):
        key, _, value = spec.partition("=")
        with pytest.raises(ValueError, match=f"{key} must be a finite "
                                             f"number, got '{value}'"):
            GeneratorStyle.parse(spec)


def test_random_stable_matrix_postconditions():
    for seed in (0, 1, 2):
        a = random_stable_matrix(4, seed)
        assert is_positive_stable(a)
        for i in range(1, 5):
            assert a[i, i] > 0
            for j in range(1, 5):
                entry = Fraction(a[i, j])
                assert 100 % entry.denominator == 0  # two-decimal entries
    assert random_stable_matrix(4, 7) == random_stable_matrix(4, 7)
    assert random_stable_matrix(4, 7) != random_stable_matrix(4, 8)


def test_experiment_counts_sum_and_determinism():
    a = run_experiment(3, 60, seed=5)
    b = run_experiment(3, 60, seed=5)
    assert sum(a.counts.values()) == 60
    assert a.counts == b.counts
    assert a.counts[CERTIFIED] + a.counts[INCONCLUSIVE] \
        + a.counts[FAILED_NECESSARY] + a.counts["Falsified"] == 60


def test_experiment_empty():
    st = run_experiment(3, 0, seed=0)
    assert sum(st.counts.values()) == 0
    assert st.hit_rate == 0.0
    assert st.wilson_interval() == (0.0, 0.0)


def test_experiment_refuses_negative_counts():
    for kwargs in ({"trials": -1}, {"trials": 0, "falsify_trials": -5}):
        with pytest.raises(ValueError, match="must be nonnegative, got -"):
            run_experiment(3, **kwargs)
    # a non-int count is refused before the first trial
    for name, count in (("trials", 2.0), ("trials", True),
                        ("falsify_trials", 1.5), ("falsify_trials", False)):
        kwargs = {"trials": 3, name: count}
        with pytest.raises(ValueError, match=f"{name} must be nonnegative, "
                                             f"got {count!r}"):
            run_experiment(3, **kwargs)


def test_experiment_refuses_a_bad_dimension_or_test_before_any_trial():
    for n in (0, -3):
        for trials in (0, 2):
            with pytest.raises(ValueError, match=f"n must be at least 1, "
                                                 f"got {n}"):
                run_experiment(n, trials)
    for n in (1, 4):
        with pytest.raises(ValueError, match="which must be"):
            run_experiment(n, 0, test="III")


def test_experiment_checks_depth_before_any_trial():
    for n, trials in ((3, 0), (1, 3)):
        with pytest.raises(ValueError, match=r"integer in 0\.\.%d" % max(n - 2, 0)):
            run_experiment(n, trials, depth=9)
    for depth in (True, 1.0):
        with pytest.raises(ValueError, match=r"integer in 0\.\.2"):
            run_experiment(4, 3, depth=depth)
    with pytest.raises(ValueError):
        run_experiment(4, 0, depth=-1)
    assert run_experiment(4, 0, depth=2).depth == 2


def test_check_refuses_negative_counts():
    for field_name in ("permutations", "falsify_trials"):
        for count in (-1, 2.0, True):
            with pytest.raises(ValueError, match=field_name):
                check_matrix(OLP, RunConfig(**{field_name: count}))
            with pytest.raises(ValueError, match=field_name):
                check_matrix(Matrix([[1]]), RunConfig(**{field_name: count}))


def test_experiment_2x2_dominant_is_mostly_certified():
    st = run_experiment(2, 50, seed=0, style="noise=5")
    assert st.counts[CERTIFIED] >= 45


def test_wilson_interval_brackets_rate():
    st = run_experiment(3, 80, seed=2)
    lo, hi = st.wilson_interval()
    assert 0.0 <= lo <= st.hit_rate <= hi <= 1.0


def test_experiment_report_dict():
    st = run_experiment(3, 10, seed=1)
    d = st.to_dict()
    assert d["n"] == 3 and d["trials"] == 10
    assert d["counts"] == st.counts
    assert len(d["hit_rate_wilson_95"]) == 2
    assert "generator" in d


SOUNDNESS_CFG = RunConfig(test="both", depth="auto", refine=True,
                          falsify_trials=300)


@st.composite
def soundness_cases(draw):
    """A small-diagonal integer matrix at n=3..4 (a mix of NotStable,
    FailedNecessary, Falsified, Inconclusive and Certified verdicts), a
    positive multiple and a permutation."""
    n = draw(st.integers(3, 4))
    a = Matrix([[draw(st.integers(0, 2) if i == j else st.integers(-3, 3))
                 for j in range(n)] for i in range(n)])
    c = Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 7)))
    return a, c, draw(st.permutations(range(1, n + 1)))


def witness_holds(a, d):
    """D*A is not positive stable, with D read exactly and decided by
    Faddeev-LeVerrier."""
    diag = [Fraction(x) for x in d]
    da = Matrix([[di * x for x in row] for di, row in zip(diag, a.rows)])
    return min(diag) > 0 and not is_positive_stable(da)


@settings(max_examples=300, deadline=None)
@given(case=soundness_cases())
def test_verdicts_agree_on_d_stability_preserving_transforms(case):
    """D-stability is invariant under transposition, positive scaling and
    permutation similarity, so no transform of a Certified matrix is
    Falsified; stability and P0+ are invariant too."""
    a, c, perm = case
    verdicts = set()
    for m in (a, a.transpose(), a.scale(c), a.permuted(perm)):
        rep = check_matrix(m, SOUNDNESS_CFG)
        if rep.verdict == FALSIFIED:
            assert witness_holds(m, rep.counterexample.sample.d)
        verdicts.add(rep.verdict)
    assert not {CERTIFIED, FALSIFIED} <= verdicts
    for verdict in (NOT_STABLE, FAILED_NECESSARY):
        assert verdict not in verdicts or verdicts == {verdict}


# ---------------------------------------------------------------------------
# the falsifier's first stage, then the proofs, then the rest of the samples


def recording_falsify(calls):
    """harness.falsify, recording each call's (start, trials)."""
    def recording(a, **kwargs):
        calls.append((kwargs.get("start", 0), kwargs["trials"]))
        return falsify(a, **kwargs)
    return recording


def test_certified_checks_sample_only_the_first_stage(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "falsify", recording_falsify(calls))
    cfg = RunConfig(test="both", depth="auto", refine=True,
                    falsify_trials=1000)
    for a in (OLP, PUBLISHED_5X5_TEST_I, PUBLISHED_5X5_TEST_II,
              PUBLISHED_6X6_TEST_I):
        calls.clear()
        assert check_matrix(a, cfg).verdict == CERTIFIED
        assert calls == [(0, first_stage_trials(a.n))]
    calls.clear()
    st = run_experiment(2, 50, style="noise=5", falsify_trials=1000)
    assert st.counts[CERTIFIED] == 50
    assert calls == [(0, first_stage_trials(2))] * 50


def falsifier_first(a, cfg):
    """Test oracle: check_matrix with the whole falsifier run right after
    the filter, before step 1 and the hierarchy."""
    if cfg.falsify_trials > 0 and is_positive_stable(a) \
            and necessary_filter(a):
        found = falsify(a, trials=cfg.falsify_trials, seed=cfg.seed)
        if found is not None:
            return certifier.TestReport(FALSIFIED, counterexample=found,
                                        detail="positive diagonal with "
                                               "nonpositive spectral margin")
    return check_matrix(a, replace(cfg, falsify_trials=0))


@st.composite
def order_cases(draw):
    """An integer or two-decimal matrix at n=2..5 with small diagonals (a
    mix of all five verdicts), and a check configuration whose falsifier
    may end within its first stage or go past it."""
    n = draw(st.integers(2, 5))
    # integers, quarters or hundredths
    scale = draw(st.sampled_from([1, 4, 100]))
    a = Matrix([[Fraction(draw(st.integers(0, 5 * scale) if i == j
                               else st.integers(-2 * scale, 2 * scale)),
                          scale)
                 for j in range(n)] for i in range(n)])
    cfg = RunConfig(test=draw(st.sampled_from(["I", "II", "both"])),
                    refine=draw(st.booleans()),
                    permutations=draw(st.integers(0, 2)),
                    falsify_trials=draw(st.one_of(st.just(0),
                                                  st.integers(1, 300),
                                                  st.integers(301, 600))),
                    seed=draw(st.integers(0, 2 ** 32)))
    return a, cfg


# P0+ and stable, yet Falsified: by a probe, by a draw of the first stage,
# and by a draw after it (index 306 at seed 0)
FALSIFIED_BY_PROBE = parse_matrix("2 0 -2 -2\n-1 0 -1 -1\n3 1 4 -3\n1 2 2 2")
FALSIFIED_BY_DRAW = parse_matrix("""
 1.24 -0.09  0.34  0.45
 0.71  0.06 -0.94 -0.09
-0.48  2.09  2.20 -2.87
-0.26  2.53  0.92  0.93
""")
FALSIFIED_LATE = parse_matrix("4 -3 -2 -3\n1 4 0 2\n1 -1 0 -3\n3 -3 3 1")


@settings(max_examples=300, deadline=None)
@given(case=order_cases())
@example(case=(FALSIFIED_BY_PROBE, RunConfig(test="both", falsify_trials=20)))
@example(case=(FALSIFIED_BY_DRAW, RunConfig(test="both", refine=True,
                                            permutations=2,
                                            falsify_trials=300)))
@example(case=(FALSIFIED_LATE, RunConfig(test="both", refine=True,
                                         permutations=2, falsify_trials=600)))
def test_splitting_the_falsifier_changes_no_report(case):
    """The falsifier's first stage, the proofs and then the rest of the
    samples give the same report as the whole falsifier first.  Only a
    matrix that every proof leaves Inconclusive is sampled past the first
    stage: a Certified matrix is D-stable, so it survives any number of
    exactly re-checked samples."""
    a, cfg = case
    calls = []
    with mock.patch.object(harness, "falsify", recording_falsify(calls)):
        got = check_matrix(a, cfg).to_dict()
    verdict = got["verdict"]
    event(verdict)
    assert got == falsifier_first(a, cfg).to_dict()
    first = min(cfg.falsify_trials, first_stage_trials(a.n))
    expected = []
    if first and verdict not in (NOT_STABLE, FAILED_NECESSARY):
        expected.append((0, first))
    late = verdict == INCONCLUSIVE or (
        verdict == FALSIFIED
        and got["counterexample"]["sample"]["index"] >= first)
    if late and cfg.falsify_trials > first:
        event("sampled past the first stage")
        expected.append((first, cfg.falsify_trials - first))
    assert calls == expected
    if verdict == CERTIFIED:
        assert falsify(a, trials=300, seed=cfg.seed) is None


def test_the_order_examples_are_falsified():
    for a, trials, index in ((FALSIFIED_BY_PROBE, 300, 14),
                             (FALSIFIED_BY_DRAW, 300, 59),
                             (FALSIFIED_LATE, 600, 306)):
        rep = check_matrix(a, RunConfig(test="both", refine=True,
                                        falsify_trials=trials))
        assert rep.verdict == FALSIFIED
        assert rep.counterexample.sample.index == index
    assert index >= first_stage_trials(FALSIFIED_LATE.n)
