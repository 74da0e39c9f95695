"""Every public entry point either takes an argument exactly or refuses it.

An integer argument given a bool, a float (integral or not), a string,
None, a negative int or, where it is bounded, 2^70 is refused with a
``ValueError``; a valid int is taken.  The only other outcome is
``MinorCapExceeded`` for an int cap below the dimension.  No call ends in
a ``TypeError``, an ``OverflowError`` or a numpy error.  The command line
likewise answers any matrix text with a documented exit code.
"""

import contextlib
import io

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dstab import certifier, cli
from dstab.certifier import coeff_tree, screened_verdict
from dstab.falsifier import falsify
from dstab.harness import (RunConfig, check_matrix, random_stable_matrix,
                           run_experiment)
from dstab.matrix import (DEFAULT_MINOR_CAP, Matrix, MinorCapExceeded,
                          all_principal_minors, parse_matrix, principal_minor)
from dstab.poly import MAX_VAR, Poly
from dstab.recursion import alpha_set, build_tree

# stable, so a check below its minor cap reaches the cap error
A = parse_matrix("3 1 0\n-1 2 1\n0 1/2 4")
TABLE = all_principal_minors(A)
HUGE = 2 ** 70
TESTS = ("I", "II", "both")


@st.composite
def mostly(draw, valid, wrong):
    """A value of ``valid`` in three draws of four, else one of ``wrong``."""
    return draw(valid if draw(st.integers(0, 3)) else wrong)


def args(lo, hi, huge=False, extra=()):
    """Ints in lo..hi and the ``extra`` values, or values an integer
    argument must refuse, with 2^70 when ``huge``.  A count gets no huge
    value: it is a valid request that would run for hours."""
    ints = st.integers(lo, hi)
    return mostly(ints | st.sampled_from([lo, *extra]), st.one_of(
        st.booleans(), st.floats(), ints.map(float), st.text(max_size=3),
        st.none(), st.integers(-10 ** 6, -1),
        *([st.just(HUGE)] if huge else [])))


def depths():
    return args(0, 2, huge=True, extra=["auto", None])


def names():
    return mostly(st.sampled_from(TESTS),
                  st.sampled_from(["III", "", 1, None, True]))


def is_int(value, lo, hi=HUGE) -> bool:
    return type(value) is int and lo <= value <= hi


def outcome(call) -> str:
    try:
        call()
    except MinorCapExceeded:
        event("cap")
        return "cap"
    except ValueError as exc:
        # numpy's LinAlgError is a ValueError too, and is not a refusal
        assert type(exc) is ValueError, repr(exc)
        event("refused")
        return "refused"
    event("returned")
    return "returned"


def expect(valid: bool, cap_below_n: bool = False) -> str:
    return "refused" if not valid else "cap" if cap_below_n else "returned"


@settings(max_examples=150, deadline=None)
@given(test=names(), depth=depths(),
       permutations=args(0, 2),
       falsify_trials=args(0, 3),
       minor_cap=args(3, 12, huge=True, extra=[0, 2]))
def test_check_matrix_takes_or_refuses(test, depth, permutations,
                                       falsify_trials, minor_cap):
    cfg = RunConfig(test=test, depth=depth, permutations=permutations,
                    falsify_trials=falsify_trials, minor_cap=minor_cap)
    valid = (test in TESTS and (depth in ("auto", None) or is_int(depth, 0, 1))
             and is_int(permutations, 0) and is_int(falsify_trials, 0)
             and is_int(minor_cap, -HUGE))
    assert outcome(lambda: check_matrix(A, cfg)) == \
        expect(valid, valid and A.n > minor_cap)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=args(1, 4, huge=True), trials=args(0, 2),
       falsify_trials=args(0, 3), test=names(), minor_cap=args(2, 12))
def test_run_experiment_takes_or_refuses(data, n, trials, falsify_trials,
                                         test, minor_cap):
    # no huge cap: it would let a huge n through to the draws
    top = max(n - 2, 0) if is_int(n, 1, 4) else 2
    depth = data.draw(args(0, top + 1, huge=True, extra=[None]))
    valid = (is_int(n, 1) and is_int(trials, 0) and is_int(falsify_trials, 0)
             and (depth is None or is_int(depth, 0, max(n - 2, 0)))
             and test in TESTS and is_int(minor_cap, -HUGE))
    assert outcome(lambda: run_experiment(
        n, trials, test=test, depth=depth, falsify_trials=falsify_trials,
        minor_cap=minor_cap)) == expect(valid, valid and n > minor_cap)


@settings(max_examples=100, deadline=None)
@given(n=args(1, 4, huge=True))
def test_random_stable_matrix_takes_or_refuses(n):
    valid = is_int(n, 1)
    assert outcome(lambda: random_stable_matrix(n, 0)) == \
        expect(valid, valid and n > DEFAULT_MINOR_CAP)


@settings(max_examples=100, deadline=None)
@given(cap=args(-2, 5, huge=True))
def test_all_principal_minors_takes_or_refuses(cap):
    valid = is_int(cap, -HUGE)
    assert outcome(lambda: all_principal_minors(A, cap=cap)) == \
        expect(valid, valid and A.n > cap)


@settings(max_examples=100, deadline=None)
@given(which=names(), depth=depths(), refine=st.booleans())
def test_test_hierarchy_takes_or_refuses(which, depth, refine):
    valid = which in TESTS and (depth in ("auto", None)
                                or is_int(depth, 0, A.n - 2))
    assert outcome(lambda: certifier.test_hierarchy(A, which, depth,
                                                    refine)) == expect(valid)


@settings(max_examples=50, deadline=None)
@given(which=names())
def test_screened_verdict_takes_or_refuses(which):
    minors = all_principal_minors(A)
    assert outcome(lambda: screened_verdict(A, which, minors=minors)) == \
        expect(which in TESTS)


@settings(max_examples=100, deadline=None)
@given(depth=args(0, 3, huge=True),
       tree_depth=args(0, 3, huge=True, extra=[None]))
def test_coefficient_and_delete_zero_trees_take_or_refuse(depth, tree_depth):
    assert outcome(lambda: coeff_tree(A, "G01", depth)) == \
        expect(is_int(depth, 0, A.n - 2))
    assert outcome(lambda: build_tree(A, tree_depth)) == \
        expect(tree_depth is None or is_int(tree_depth, 0, A.n - 1))


@settings(max_examples=100, deadline=None)
@given(trials=args(1, 4), start=args(0, 300))
def test_falsify_takes_or_refuses(trials, start):
    assert outcome(lambda: falsify(A, trials, start=start)) == \
        expect(is_int(trials, 1) and is_int(start, 0))


@settings(max_examples=100, deadline=None)
@given(n=args(1, 4), var=args(1, MAX_VAR, huge=True),
       index=args(1, A.n, huge=True), last=args(1, A.n, huge=True),
       label_n=args(2, 4, huge=True))
def test_matrix_and_polynomial_helpers_take_or_refuse(n, var, index, last,
                                                      label_n):
    # no huge n: the identity of a valid huge dimension would not fit
    assert outcome(lambda: Matrix.identity(n)) == expect(is_int(n, 1))
    assert outcome(lambda: Poly.var(var)) == expect(is_int(var, 1, MAX_VAR))
    assert outcome(lambda: principal_minor(A, [1, index])) == \
        expect(is_int(index, 1, A.n))
    # a permutation of 1..3 only when ``last`` is 3
    assert outcome(lambda: A.permuted([2, 1, last])) == \
        expect(is_int(last, A.n, A.n))
    assert outcome(lambda: TABLE.permuted([2, 1, last])) == \
        expect(is_int(last, A.n, A.n))
    assert outcome(lambda: alpha_set("01", label_n)) == \
        expect(is_int(label_n, 2))


def test_permuted_minor_table_refuses_what_the_matrix_refuses():
    """A repeated, short, float or bool entry is not a permutation of 1..n,
    for the table as for the matrix."""
    for perm in ([1, 1, 2], [1, 2], [1, 2.0, 3], [True, 2, 3], [1, 2, 3, 4],
                 [0, 1, 2]):
        for permuted in (A.permuted, TABLE.permuted):
            with pytest.raises(ValueError,
                               match="perm must be a permutation of 1..n"):
                permuted(perm)
    assert TABLE.permuted([3, 1, 2]).values == \
        all_principal_minors(A.permuted([3, 1, 2])).values


# ---------------------------------------------------------------------------
# the command line on arbitrary matrix text

# at most three exponent digits: Fraction("1e999999999") is an exact
# integer of a billion digits
_EXACT = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 9)),
    st.builds("{}.{:02d}".format, st.integers(-30, 30), st.integers(0, 99)),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-999, 999)))
_TOKEN = st.one_of(
    _EXACT,
    st.builds("{}{}{}".format, st.sampled_from(["", "-", "+"]),
              st.from_regex(r"[0-9]{0,4}(\.[0-9]{0,3})?(/[0-9]{0,3})?",
                            fullmatch=True),
              st.just("") | st.from_regex(r"e[+-]?[0-9]{0,3}",
                                          fullmatch=True)),
    st.sampled_from(["nan", "inf", "-inf", "/", ".", "e", "-", "1/0"]))


@st.composite
def matrix_texts(draw):
    """1 to 4 rows with separators, comments and blank lines: in two
    draws of three a square matrix of exact numbers, half of them with a
    dominant positive diagonal, else arbitrary tokens in ragged rows."""
    n = draw(st.integers(1, 4))
    square = draw(st.integers(0, 2))
    dominant = square and draw(st.booleans())
    lines = []
    for i in range(n):
        width = n if square else draw(st.sampled_from([n, n, 0, 1, 5]))
        row = draw(st.lists(_EXACT if square else _TOKEN, min_size=width,
                            max_size=width))
        if dominant:
            row[i] = str(draw(st.integers(30, 99)))
        line = draw(st.sampled_from([" ", ",", " , ", "\t"])).join(row)
        lines.append(line + draw(st.sampled_from(["", "  # note", "#"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "matrix.txt"


@settings(max_examples=150, deadline=None)
@given(text=matrix_texts(), depth=st.integers(-1, 3))
def test_cli_answers_any_matrix_text_with_an_exit_code(matrix_file, text,
                                                       depth):
    path = matrix_file
    path.write_text(text)
    for argv in (["check", "--json", "--test", "both", "--refine",
                  "--falsify", "50"], ["minors"], ["expand", "--depth",
                                                   str(depth)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert err.getvalue().startswith("dstab: error:"), err.getvalue()
