import random
from fractions import Fraction
from math import exp, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstab import falsifier
from dstab.falsifier import (CHUNK, GUARD_TOLERANCE, SCREEN_MAX_N,
                             Counterexample, DiagonalSample, _chunk_margins,
                             _draw_block, _np, _offending_eigenvalue,
                             _proved_stable, _sample_chunks, _verify_exact,
                             deterministic_probes, falsify,
                             first_stage_trials, johnson_F, spectral_margin,
                             stable_seed)
from dstab.matrix import (Matrix, all_principal_minors, is_positive_stable,
                          parse_matrix)
from dstab.recursion import build_tree

# stable but not D-stable: scaling the second row down destabilizes it
NOT_D_STABLE = parse_matrix("-1 -4\n4 3")


def test_stable_seed_is_deterministic_and_mixes():
    assert stable_seed(1, 2) == stable_seed(1, 2)
    assert stable_seed(1, 2) != stable_seed(2, 1)
    assert stable_seed("a") != stable_seed("b")
    assert 0 <= stable_seed("x", 3) < 2 ** 64


def test_johnson_functional_identity():
    """johnson_F equals P^2 + Q^2 of the root expansion node, exactly."""
    rng = random.Random(401)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)])
        d = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
        root = build_tree(a)[""]
        point = {i + 1: d[i] for i in range(n)}
        expected = root.P.evaluate(point) ** 2 + root.Q.evaluate(point) ** 2
        assert johnson_F(a, d, exact=True) == expected
        approx = johnson_F(a, [float(x) for x in d])
        assert abs(approx - float(expected)) <= 1e-9 * max(1.0, float(expected))


def test_johnson_identity_matrix():
    assert johnson_F(Matrix.identity(2), (Fraction(1), Fraction(1)),
                     exact=True) == 4


def test_spectral_margin():
    assert spectral_margin(Matrix.identity(3), (1.0, 2.0, 3.0)) == \
        pytest.approx(1.0)
    # D = diag(1, eps) pushes an eigenvalue of D*A across zero
    assert spectral_margin(NOT_D_STABLE, (1.0, 0.001)) < 0


def test_deterministic_probes_shape():
    probes = deterministic_probes(3)
    assert probes[0] == (1.0, 1.0, 1.0)
    assert len(probes) == 1 + 4 * 3
    assert all(len(p) == 3 and min(p) > 0 for p in probes)


def test_falsify_finds_witness():
    ce = falsify(NOT_D_STABLE, trials=2000, seed=1)
    assert isinstance(ce, Counterexample)
    assert ce.margin <= 1e-9
    assert ce.eigenvalue.real <= 1e-9
    # the witness is exact: the scaled matrix really is not positive stable
    diag = Matrix.diagonal([Fraction(x) for x in ce.sample.d])
    assert not is_positive_stable(diag @ NOT_D_STABLE)


def test_falsify_is_deterministic():
    a = falsify(NOT_D_STABLE, trials=2000, seed=9)
    b = falsify(NOT_D_STABLE, trials=2000, seed=9)
    assert a == b


def test_falsify_returns_none_on_d_stable_input():
    assert falsify(Matrix.identity(4), trials=300, seed=0) is None
    # triangular with positive diagonal is D-stable
    tri = Matrix([[1, 5], [0, 2]])
    assert falsify(tri, trials=300, seed=0) is None


def test_falsify_argument_validation():
    with pytest.raises(ValueError):
        falsify(Matrix.identity(2), trials=0)
    with pytest.raises(ValueError):
        falsify(Matrix.identity(2), lo=1.0, hi=0.5)
    with pytest.raises(ValueError):
        falsify(Matrix.identity(2), start=-1)
    for lo, hi in ((1e-3, float("inf")), (float("nan"), 1.0),
                   (1e-3, float("nan")), (0.0, 1.0)):
        with pytest.raises(ValueError):
            falsify(Matrix.identity(2), lo=lo, hi=hi)


def test_counterexample_serialization():
    ce = falsify(NOT_D_STABLE, trials=2000, seed=1)
    d = ce.to_dict()
    assert d["d"] == list(ce.sample.d)
    assert d["eigenvalue"]["re"] == ce.eigenvalue.real
    assert "seed" in d["sample"]


def test_no_false_positives_from_eigensolver_noise():
    """Near-boundary but stable scalings must not be reported: every
    candidate is re-verified exactly before becoming a counterexample."""
    rng = random.Random(11)
    for _ in range(20):
        # normal matrices are D-stable when positive definite symmetric
        b = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        sym = b @ b.T + 3 * np.eye(3)
        a = Matrix([[Fraction(x).limit_denominator(10**6) for x in row]
                    for row in sym])
        assert falsify(a, trials=200, seed=3) is None


# ---------------------------------------------------------------------------
# the batched falsifier against the per-sample loop it replaced


def per_sample_diagonals(n, trials, seed, lo=1e-3, hi=1e3):
    """Reference draws: the probes, then one seeded RNG per sample."""
    probes = deterministic_probes(n)
    log_lo, log_hi = log(lo), log(hi)
    for index in range(trials):
        if index < len(probes):
            yield probes[index]
        else:
            rng = random.Random(stable_seed(seed, index))
            yield tuple(exp(log_lo + (log_hi - log_lo) * rng.random())
                        for _ in range(n))


def per_sample_falsify(a, trials, seed):
    """Reference falsifier: one eigensolve per sample."""
    for index, d in enumerate(per_sample_diagonals(a.n, trials, seed)):
        margin = spectral_margin(a, d)
        if margin > GUARD_TOLERANCE or not _verify_exact(a, d):
            continue
        return Counterexample(DiagonalSample(d, seed=seed, index=index),
                              _offending_eigenvalue(a, d), margin)
    return None


@st.composite
def falsifier_cases(draw):
    """A small integer or two-decimal matrix at n=2..6, a trial count
    below the probe count, within one chunk of draws, or across chunks, and
    a seed, negative or at least 2**64 too, as the draws hash its repr."""
    n = draw(st.integers(2, 6))
    entry = draw(st.sampled_from([
        st.integers(-6, 6).map(Fraction),
        st.integers(-900, 900).map(lambda h: Fraction(h, 100))]))
    a = Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    probes = len(deterministic_probes(n))
    trials = draw(st.one_of(st.integers(1, probes),
                            st.integers(probes + 1, probes + CHUNK),
                            st.integers(probes + CHUNK + 1,
                                        probes + 2 * CHUNK + 1)))
    seed = draw(st.one_of(st.integers(0, 2 ** 32), st.integers(max_value=-1),
                          st.integers(min_value=2 ** 64)))
    return a, trials, seed


@settings(max_examples=60, deadline=None)
@given(case=falsifier_cases())
def test_batched_falsify_matches_per_sample_loop(case):
    a, trials, seed = case
    expected = per_sample_falsify(a, trials, seed)
    assert falsify(a, trials=trials, seed=seed) == expected
    assert falsify(a, trials=trials, seed=seed,
                   minors=all_principal_minors(a)) == expected
    # the chunks hold the reference draws in order, and their margins are
    # spectral_margin's, bit for bit
    drawn = []
    for start, chunk in _sample_chunks(a.n, 0, trials, seed, 1e-3, 1e3):
        assert start == len(drawn)
        drawn += map(tuple, chunk.tolist())
        assert _chunk_margins(a, _np(a), chunk).tolist() == \
            [spectral_margin(a, d) for d in chunk]
    assert drawn == list(per_sample_diagonals(a.n, trials, seed))
    # a search split in two draws the same samples and finds the same
    # witness
    k = trials // 2
    assert [tuple(d) for _, chunk in _sample_chunks(a.n, k, trials, seed,
                                                    1e-3, 1e3)
            for d in chunk.tolist()] == drawn[k:]
    if k:
        later = falsify(a, trials=trials - k, seed=seed, start=k)
        assert later is None or later.sample.index >= k
        assert (falsify(a, trials=k, seed=seed) or later) == \
            falsify(a, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# the float stability screen against the exact check


def scaled(a, d):
    """diag(d) * A exactly, each float of d taken at its binary value."""
    return Matrix([[Fraction(di) * x for x in row]
                   for di, row in zip(d, a.rows)])


@st.composite
def screen_cases(draw):
    """A at n=2..9: small int or mixed-denominator entries (so zero and
    negative minors), shifted along the diagonal to be stable often, and
    dense, singular (a repeated row) or upper triangular with a corner
    entry of +-10^304, near the float limit that falsify accepts; a dense
    A may be scaled by 10^-300, 10^150 or 10^302, where the float minors
    underflow or overflow.  Then some probe rows and log-uniform draws
    over a drawn range."""
    n = draw(st.integers(2, 9))
    entry = draw(st.sampled_from([
        st.integers(-6, 6).map(Fraction),
        st.builds(Fraction, st.integers(-60, 60),
                  st.sampled_from([1, 2, 3, 7, 10, 49]))]))
    shift = draw(st.sampled_from([0, 3, 12, 40, 200]))
    rows = [[draw(entry) + (shift if i == j else 0) for j in range(n)]
            for i in range(n)]
    kind = draw(st.sampled_from(["dense", "dense", "singular",
                                 "triangular"]))
    if kind == "singular":
        rows[-1] = rows[0]
    if kind == "triangular":
        rows = [[x if j >= i else 0 for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
        rows[0][-1] = draw(st.sampled_from([1, -1])) * 10 ** 304
    scale = draw(st.sampled_from([1, 1, 1, Fraction(1, 10 ** 300),
                                  10 ** 150, 10 ** 302]))
    a = Matrix(rows).scale(1 if kind == "triangular" else scale)
    probes = deterministic_probes(n)
    picks = draw(st.lists(st.integers(0, len(probes) - 1), max_size=4))
    lo = draw(st.sampled_from([1e-3, 1e-6, 0.5]))
    hi = draw(st.sampled_from([1e3, 1e6, 2.0]))
    seed = draw(st.integers(0, 2 ** 32))
    _, draws = next(_sample_chunks(n, len(probes), len(probes) + 6, seed,
                                   lo, hi))
    chunk = np.array([probes[i] for i in picks] + draws.tolist())
    return a, chunk


@settings(max_examples=40, deadline=None)
@given(case=screen_cases())
def test_a_screened_row_is_exactly_positive_stable(case):
    a, chunk = case
    proved = _proved_stable(all_principal_minors(a), chunk)
    assert proved.shape == (len(chunk),)
    for d in chunk[proved].tolist():
        assert is_positive_stable(scaled(a, d))


def marginal_cases(rng, count):
    """(A, d) with diag(d) * A = M exactly, M having a pair of eigenvalues
    on the imaginary axis: a trace-0 2x2 block with positive determinant,
    alone or beside a positive entry (its second Routh lead is 0).  A =
    diag(d)^-1 * M, so the float minors of A times d^alpha miss those of M
    by rounding only."""
    for _ in range(count):
        m = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        w = Fraction(rng.randint(10, 30), rng.randint(1, 9))
        block = [[m, w], [-(1 + m * m) / w, -m]]      # det = 1
        rows = block if rng.random() < 0.5 else [
            block[0] + [0], block[1] + [0],
            [0, 0, Fraction(rng.randint(1, 30), rng.randint(1, 7))]]
        d = [exp(rng.uniform(-5, 5)) for _ in rows]
        yield Matrix([[x / Fraction(di) for x in row]
                      for di, row in zip(d, rows)]), d


def test_the_radius_keeps_marginal_scalings_unproved(monkeypatch):
    """With the radius the screen proves none of these exactly marginal
    scalings; with the radius set to 0 the midpoints alone prove some,
    which is what the radius is there to stop."""
    cases = list(marginal_cases(random.Random(19), 80))
    for a, d in cases:
        assert not is_positive_stable(scaled(a, d))
        assert not _proved_stable(all_principal_minors(a), np.array([d]))[0]
    monkeypatch.setattr(falsifier, "_U", 0.0)
    monkeypatch.setattr(falsifier, "_FLOOR", 0.0)
    assert sum(_proved_stable(all_principal_minors(a), np.array([d]))[0]
               for a, d in cases) >= 5


def test_the_screen_proves_every_sample_of_a_d_stable_matrix():
    """Diagonal, triangular and symmetric positive definite matrices with a
    positive diagonal are D-stable: the screen proves each of their probes
    and draws at n=2..SCREEN_MAX_N."""
    rng = random.Random(23)
    for n in range(2, SCREEN_MAX_N + 1):
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        diagonal = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                    for _ in range(n)]
        for a in (Matrix.diagonal(diagonal),
                  Matrix([[diagonal[i] if i == j else
                           Fraction(b[i][j], 7) * (j > i)
                           for j in range(n)] for i in range(n)]),
                  Matrix([[sum(b[i][k] * b[j][k] for k in range(n))
                           + n * (i == j) for j in range(n)]
                          for i in range(n)])):
            table = all_principal_minors(a)
            for _, chunk in _sample_chunks(n, 0, first_stage_trials(n), 0,
                                           1e-3, 1e3):
                assert _proved_stable(table, chunk).all()


def test_no_screen_above_its_size_limit(monkeypatch):
    """At n > SCREEN_MAX_N every sample goes to the eigensolver, and a
    table passed in is not read."""
    def refuse(*args):
        raise AssertionError("screened above the size limit")

    monkeypatch.setattr(falsifier, "_proved_stable", refuse)
    n = SCREEN_MAX_N + 1
    assert falsify(Matrix.identity(n), trials=60, minors=object()) is None
    with pytest.raises(AssertionError):
        falsify(Matrix.identity(SCREEN_MAX_N), trials=60)


# ---------------------------------------------------------------------------
# the memoised blocks of draws against the per-sample reseeding they cache


def sampled_bytes(n, start, stop, seed, lo, hi):
    """The diagonals of _sample_chunks for start..stop-1, as float64 bytes,
    after checking that the runs are contiguous, that the draws are cut
    only at block boundaries, and that each run of draws is a whole array
    of _draw_block, not a slice of a larger draw."""
    runs = list(_sample_chunks(n, start, stop, seed, lo, hi))
    firsts = [first for first, _ in runs]
    assert firsts == [start] + [first + len(chunk)
                                for first, chunk in runs[:-1]]
    p = len(deterministic_probes(n))
    assert all((first - p) % CHUNK == 0 for first in firsts[1:])
    assert all(chunk.base is None for first, chunk in runs if first >= p)
    return np.concatenate([chunk for _, chunk in runs]).tobytes()


def reference_bytes(n, start, stop, seed, lo, hi):
    rows = list(per_sample_diagonals(n, stop, seed, lo, hi))[start:]
    return np.array(rows, dtype=np.float64).tobytes()


@st.composite
def draw_cases(draw):
    """n=2..6, a seed as in falsifier_cases, a range [lo, hi], and a run
    of samples that may start among the probes and cross block
    boundaries."""
    n = draw(st.integers(2, 6))
    seed = draw(st.one_of(st.integers(0, 2 ** 32), st.integers(max_value=-1),
                          st.integers(min_value=2 ** 64)))
    lo = draw(st.floats(1e-6, 10.0))
    hi = draw(st.floats(lo, 1e6).filter(lambda h: h > lo))
    probes = len(deterministic_probes(n))
    start = draw(st.one_of(st.integers(0, probes),
                           st.integers(probes, probes + 3 * CHUNK)))
    trials = draw(st.one_of(st.integers(1, 3),
                            st.integers(CHUNK - 2, CHUNK + 2),
                            st.integers(1, 3 * CHUNK)))
    return n, seed, lo, hi, start, start + trials


@settings(max_examples=60, deadline=None)
@given(case=draw_cases())
def test_memoised_blocks_match_per_sample_draws_bit_for_bit(case):
    n, seed, lo, hi, start, stop = case
    # a neighbouring seed and range at the same n and blocks, drawn first,
    # must not be served from the same cache entries
    keys = [(seed, lo, hi), (seed + 1, lo, hi), (seed, lo, (lo + hi) / 2)]
    _draw_block.cache_clear()
    for key in keys + keys[:1]:
        assert sampled_bytes(n, start, stop, *key) == \
            reference_bytes(n, start, stop, *key)


def test_blocks_are_keyed_on_every_draw_parameter():
    """Each seed and range draws its own blocks; 1, True and 1.0 are equal
    as dict keys but seed different draws, as stable_seed hashes the repr."""
    first = first_stage_trials(3)
    for key in ((1, 1e-3, 1e3), (True, 1e-3, 1e3), (1.0, 1e-3, 1e3),
                ("1", 1e-3, 1e3), (1, 1e-2, 1e3), (1, 1e-2, 1e2),
                (1, 1e-3, 1e3)):
        assert sampled_bytes(3, 0, first, *key) == \
            reference_bytes(3, 0, first, *key)


def test_a_repeated_search_returns_an_equal_counterexample():
    _draw_block.cache_clear()
    cold = falsify(RARE_HIT, trials=4 * CHUNK, seed=LATE_SEED)
    warm = falsify(RARE_HIT, trials=4 * CHUNK, seed=LATE_SEED)
    assert _draw_block.cache_info().hits > 0
    assert cold == warm == per_sample_falsify(RARE_HIT, 4 * CHUNK, LATE_SEED)
    assert type(warm.sample.d) is tuple
    assert all(type(x) is float for x in warm.sample.d)


def test_a_search_draws_only_the_indices_it_asks_for():
    """A first search of 50 samples at n=5 draws its 29 after the 21
    probes, not the whole block of CHUNK."""
    _draw_block.cache_clear()
    assert falsify(Matrix.identity(5), trials=50) is None
    info = _draw_block.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    _, chunk = list(_sample_chunks(5, 0, 50, 0, 1e-3, 1e3))[-1]
    assert chunk.shape == (50 - len(deterministic_probes(5)), 5)
    assert _draw_block.cache_info().hits == 1


def test_cached_blocks_are_read_only():
    p = len(deterministic_probes(2))
    block = _draw_block(2, repr(0), 1e-3, 1e3, p, p + CHUNK)
    assert block.shape == (CHUNK, 2)
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    _, chunk = list(_sample_chunks(2, 0, first_stage_trials(2), 0, 1e-3,
                                   1e3))[-1]
    with pytest.raises(ValueError):
        chunk[0] = 1.0
    assert _draw_block(2, repr(0), 1e-3, 1e3, p, p + CHUNK) is block


# Every sample of this block-diagonal matrix is a float candidate, since the
# 1e-13 block keeps the spectral margin below GUARD_TOLERANCE, and the exact
# check rejects all of them except those with d3/d2 > 1e5, which destabilise
# the 2x2 block.
RARE_HIT = Matrix([[Fraction(1, 10 ** 13), 0, 0],
                   [0, 1, 1],
                   [0, -1, Fraction(-1, 10 ** 5)]])


# with this seed the first verified hit comes after the first chunk of draws
LATE_SEED = 34


def test_first_verified_hit_in_a_later_chunk():
    expected = per_sample_falsify(RARE_HIT, 4 * CHUNK, LATE_SEED)
    assert expected.sample.index >= len(deterministic_probes(3)) + CHUNK
    assert spectral_margin(RARE_HIT, (1.0, 1.0, 1.0)) <= GUARD_TOLERANCE
    assert not _verify_exact(RARE_HIT, (1.0, 1.0, 1.0))
    assert falsify(RARE_HIT, trials=4 * CHUNK, seed=LATE_SEED) == expected


def test_second_half_of_a_split_search_finds_a_late_witness():
    expected = per_sample_falsify(RARE_HIT, 4 * CHUNK, LATE_SEED)
    first = first_stage_trials(3)
    assert first == len(deterministic_probes(3)) + CHUNK
    assert falsify(RARE_HIT, trials=first, seed=LATE_SEED) is None
    assert falsify(RARE_HIT, trials=4 * CHUNK - first, seed=LATE_SEED,
                   start=first) == expected
    # the samples before ``start`` are not searched
    after = expected.sample.index + 1
    later = falsify(RARE_HIT, trials=4 * CHUNK - after, seed=LATE_SEED,
                    start=after)
    assert later is None or later.sample.index > expected.sample.index


def screened_stacks(a, trials, seed, start=0):
    """The runs of draws of a search that hold a sample the screen leaves to
    the eigensolver, up to the run of its witness."""
    found = falsify(a, trials=trials, seed=seed, start=start)
    table = all_principal_minors(a)
    stacks = 0
    for first, chunk in _sample_chunks(a.n, start, start + trials, seed,
                                       1e-3, 1e3):
        if found is not None and first > found.sample.index:
            break
        stacks += not _proved_stable(table, chunk).all()
    return stacks


def test_stacked_eigensolve_failure_falls_back_per_sample(monkeypatch):
    """Every stack the screen leaves is refused, and the per-sample
    fallback finds the same witnesses.  The screen proves all but a few
    samples of each run of RARE_HIT, so the second search, past the first
    witness, is there to refuse more stacks."""
    after = per_sample_falsify(RARE_HIT, 4 * CHUNK,
                               LATE_SEED).sample.index + 1
    searches = [(RARE_HIT, 4 * CHUNK, LATE_SEED, 0),
                (RARE_HIT, 4 * CHUNK - after, LATE_SEED, after),
                (NOT_D_STABLE, 2000, 1, 0)]
    expected = [falsify(a, trials=trials, seed=seed, start=start)
                for a, trials, seed, start in searches]
    assert expected[0] == per_sample_falsify(RARE_HIT, 4 * CHUNK, LATE_SEED)
    assert expected[2] == per_sample_falsify(NOT_D_STABLE, 2000, 1)
    stacks = sum(screened_stacks(*search) for search in searches)
    assert stacks >= 3
    eigvals = np.linalg.eigvals
    refused = []

    def no_stacks(m):
        if np.ndim(m) == 3:
            refused.append(len(m))
            raise np.linalg.LinAlgError("stacked input refused")
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", no_stacks)
    assert [falsify(a, trials=trials, seed=seed, start=start)
            for a, trials, seed, start in searches] == expected
    assert len(refused) == stacks
    # only the samples the screen leaves reach the eigensolver
    assert all(size < CHUNK for size in refused)


def test_falsify_refuses_entries_beyond_the_float_range(monkeypatch):
    """An entry whose product with the largest diagonal, max(hi, 1e3),
    leaves the float range is refused before any sample is drawn."""
    draws = []
    sample_chunks = falsifier._sample_chunks
    monkeypatch.setattr(falsifier, "_sample_chunks",
                        lambda *args: draws.append(1) or sample_chunks(*args))
    for big in (10 ** 400, -(10 ** 400), 1e307, 10 ** 306):
        with pytest.raises(ValueError, match="largest diagonal 1000 "):
            falsify(Matrix([[big, 0], [0, 1]]), trials=300)
    with pytest.raises(ValueError, match="largest diagonal 1e\\+06 "):
        falsify(Matrix([[1e303, 0], [0, 1]]), hi=1e6)
    assert draws == []
    # just inside the range the search runs
    assert falsify(Matrix([[1e303, 0], [0, 1]]), trials=300) is None
    assert draws == [1]
