"""Randomized disproof of D-stability.

Samples positive diagonal scalings D and inspects the spectrum of D*A.  A
single sample with an eigenvalue real part <= 0 disproves D-stability;
absence of such a sample proves nothing.  Candidate counterexamples found
with the floating-point eigensolver are re-verified exactly (rational D,
Routh-Hurwitz) before being reported, so a returned counterexample is never
eigensolver noise.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import exp, isfinite, log
from typing import Optional, Sequence

import numpy as np

from .matrix import (Matrix, MinorTable, _checked_int, all_principal_minors,
                     det_complex, is_positive_stable)

GUARD_TOLERANCE = 1e-9
# samples per stacked eigensolve in falsify
CHUNK = 256
# the largest n that falsify screens: the screen costs about k*2^n, and at
# n = 10 it is slower than eigvals (BENCH_falsifier_screen.json)
SCREEN_MAX_N = 9
_U = 2.0 ** -53          # unit roundoff of float64
_TINY = 2.0 ** -1022     # smallest normal float64
# the screen's absolute error term: far above the at most 2^n * 2^-1074 that
# underflow costs, and a normal float, so that the radii of exact zeros stay
# clear of subnormals (ten times slower to multiply)
_FLOOR = 2.0 ** -600


def stable_seed(*parts) -> int:
    """Mix arbitrary values into a 64-bit RNG seed.

    Unlike hash(), this is stable across processes (string hashing is
    randomized per interpreter run), so seeded runs reproduce exactly.
    """
    data = ":".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


@dataclass(frozen=True)
class DiagonalSample:
    """One positive diagonal, with provenance for reproducibility."""

    d: tuple[float, ...]
    seed: Optional[int] = None
    index: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"d": list(self.d)}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.index is not None:
            out["index"] = self.index
        return out


@dataclass(frozen=True)
class Counterexample:
    """Witness of non-D-stability: D*A has an eigenvalue with Re <= 0."""

    sample: DiagonalSample
    eigenvalue: complex
    margin: float

    def to_dict(self) -> dict:
        return {
            "d": list(self.sample.d),
            "eigenvalue": {"re": self.eigenvalue.real, "im": self.eigenvalue.imag},
            "margin": self.margin,
            "sample": self.sample.to_dict(),
        }


def _np(a: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a.rows], dtype=float)


def johnson_F(a: Matrix, d: Sequence, exact: bool = False):
    """|det(A + i*D)|^2, the Johnson positivity functional.

    Float mode accepts any positive diagonal; exact mode interprets the
    entries as rationals and evaluates the complex determinant exactly.
    """
    if exact:
        diag = [x if isinstance(x, Fraction) else Fraction(x) for x in d]
        re, im = det_complex(a, diag)
        return re * re + im * im
    m = _np(a) + 1j * np.diag(np.asarray([float(x) for x in d]))
    return float(abs(np.linalg.det(m)) ** 2)


def spectral_margin(a: Matrix, d: Sequence) -> float:
    """Minimum eigenvalue real part of D*A (floating point)."""
    da = np.diag(np.asarray([float(x) for x in d])) @ _np(a)
    try:
        eig = np.linalg.eigvals(da)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvals(da + 1e-12 * np.eye(a.n))
    return float(eig.real.min())


def _offending_eigenvalue(a: Matrix, d: Sequence) -> complex:
    da = np.diag(np.asarray([float(x) for x in d])) @ _np(a)
    eig = np.linalg.eigvals(da)
    return complex(eig[int(eig.real.argmin())])


def _verify_exact(a: Matrix, d: Sequence) -> bool:
    """Exact confirmation that D*A is not positive stable."""
    da = Matrix([[Fraction(float(di)) * x for x in row]
                 for di, row in zip(d, a.rows)])
    return not is_positive_stable(da)


def deterministic_probes(n: int) -> list[tuple[float, ...]]:
    """All-ones plus single-coordinate spikes at several magnitudes."""
    probes = [tuple(1.0 for _ in range(n))]
    for k in (-3, -1, 1, 3):
        scale = 10.0 ** k
        for i in range(n):
            probes.append(tuple(scale if j == i else 1.0 for j in range(n)))
    return probes


def first_stage_trials(n: int) -> int:
    """Samples in the falsifier's first two runs: the probes and one CHUNK
    of draws."""
    return len(deterministic_probes(n)) + CHUNK


@lru_cache(maxsize=64)
def _draw_block(n: int, seed_repr: str, lo: float, hi: float, first: int,
                stop: int) -> np.ndarray:
    """Read-only (stop - first, n) array of the draws at indices
    first..stop-1 for the seed of repr ``seed_repr`` (1, 1.0 and True are
    equal keys, their reprs not), reseeding one generator per sample."""
    log_lo = log(lo)
    width = log(hi) - log_lo
    prefix = hashlib.sha256(f"{seed_repr}:".encode())
    rng = random.Random()
    block = np.empty((stop - first, n))
    for i in range(first, stop):
        h = prefix.copy()
        h.update(repr(i).encode())
        rng.seed(int.from_bytes(h.digest()[:8], "big"))
        block[i - first] = [exp(log_lo + width * rng.random())
                            for _ in range(n)]
    block.flags.writeable = False
    return block


def _sample_chunks(n: int, start: int, stop: int, seed: int, lo: float,
                   hi: float):
    """Yield (first index, diagonals) runs covering indices start..stop-1,
    as float arrays, one diagonal per row: the probes as one run, then the
    draws cut at the blocks p + k*CHUNK (p the probe count), each run the
    array ``_draw_block`` memoises for (n, repr(seed), lo, hi, first, stop).
    A search that repeats its arguments redraws nothing while the last 64
    runs used hold it; any other search draws just the indices it covers.
    """
    probes = deterministic_probes(n)
    p = len(probes)
    if start < p:
        yield start, np.array(probes[start:stop])
    for base in range(p + max(start - p, 0) // CHUNK * CHUNK, stop, CHUNK):
        first = max(start, base)
        yield first, _draw_block(n, repr(seed), lo, hi, first,
                                 min(stop, base + CHUNK))


# Midpoint-radius arithmetic (Rump, BIT 39(3), 1999) in round-to-nearest: a
# pair (m, r) stands for the reals within r of m.  Each operation bounds the
# error left by its operands' radii, adds u|m| + 2^-1075 for the rounding of
# m, and inflates the radius by (1 + 16u) and _FLOOR for the few rounded,
# maybe underflowing, operations that computed it.


def _rounded(mid, err):
    return mid, (err + _U * np.abs(mid)) * (1 + 16 * _U) + _FLOOR


def _mul(x, y):
    (xm, xr), (ym, yr) = x, y
    return _rounded(xm * ym, np.abs(xm) * yr + xr * (np.abs(ym) + yr))


def _sub(x, y):
    (xm, xr), (ym, yr) = x, y
    return _rounded(xm - ym, xr + yr)


def _div(x, y):
    """x / y where ym - yr > 0, with |xm / ym| <= |m| + _FLOOR."""
    (xm, xr), (ym, yr) = x, y
    m = xm / ym
    return _rounded(m, (xr + (np.abs(m) + _FLOOR) * yr) / (ym - yr))


def _proved_stable(a_minors: MinorTable, chunk) -> np.ndarray:
    """Bool per diagonal d of ``chunk``: True only if diag(d)*A is proved
    positive stable, so that the exact check would reject it.

    Its characteristic coefficients are c_k = sum of d^alpha * A(alpha) over
    |alpha| = k, from A's table ``a_minors``.  A float term takes |alpha| + 1
    roundings (A(alpha) by int true division, NaN on overflow or underflow)
    and a sum at most 2^n, so c_k is off by at most (2^n + n + 1)u times the
    sum of the |terms| (Higham, Accuracy and Stability, 3.1 and 4.2); twice
    that covers the radius's own rounding, and _FLOOR underflowing products.
    A row with a monomial below the normal range is not proved.  The Routh
    array runs on the pairs; a row is proved when every lead is in (0, inf).
    """
    n = len(chunk[0])
    mono = np.ones((1 << n, len(chunk)))    # mono[mask] holds d^alpha
    for i in range(n):                      # bit i of a mask is index i + 1
        half = 1 << i
        mono[half:2 * half] = mono[:half] * chunk[:, i]
    minors, orders = np.empty(1 << n), np.empty(1 << n, dtype=int)
    for mask, value in enumerate(a_minors.values):
        order = orders[mask] = mask.bit_count()
        try:
            x = value / a_minors.scale ** order
        except OverflowError:
            x = np.nan
        minors[mask] = np.nan if value and abs(x) < _TINY else x
    # the masks grouped by order, c_k being the sum over group k; add.reduceat
    # rather than a matmul with a 0/1 matrix, whose BLAS threads cost more
    # than the screen when the machine is busy (about 8 ms a call at n = 9)
    by_order = np.argsort(orders, kind="stable")
    starts = np.searchsorted(orders[by_order], np.arange(n + 1))
    # table[:, j] is Routh row j as a (mid, rad) pair of (n // 2 + 1, k)
    # arrays, zero-padded; rows 0 and 1 are (c_0 = 1, c_2, ...), (c_1, ...)
    table = np.zeros((2, n + 1, n // 2 + 1, len(chunk)))
    with np.errstate(all="ignore"):
        terms = (mono * minors[:, None])[by_order]
        mid = np.add.reduceat(terms, starts)
        rad = (2 * ((1 << n) + n + 2) * _U
               * np.add.reduceat(np.abs(terms), starts) + _FLOOR)
        for j in (0, 1):
            table[:, j, :len(mid[j::2])] = mid[j::2], rad[j::2]
        for j in range(1, n):
            above, row = table[:, j - 1], table[:, j]
            q = _div(above[:, :1], row[:, :1])
            table[:, j + 1, :-1] = _sub(above[:, 1:], _mul(q, row[:, 1:]))
        lead_mid, lead_rad = table[:, 1:, 0]
        proved = ((lead_mid - lead_rad > 0)
                  & (lead_mid + lead_rad < np.inf)).all(axis=0)
    return proved & (mono.min(axis=0) >= _TINY)


def _chunk_margins(a: Matrix, a_float: np.ndarray, chunk) -> np.ndarray:
    """spectral_margin of every diagonal in ``chunk``, one eigensolve.

    d[:, :, None] * A has the same entries as diag(d) @ A, and eigvals runs
    the same LAPACK routine on each matrix of the stack, so the margins
    equal spectral_margin's bit for bit; ``falsify`` passes only the rows
    that ``_proved_stable`` leaves.
    """
    try:
        eig = np.linalg.eigvals(chunk[:, :, None] * a_float)
    except np.linalg.LinAlgError:
        # one sample that LAPACK rejects fails the whole stack
        return np.array([spectral_margin(a, d) for d in chunk])
    return eig.real.min(axis=1)


def falsify(a: Matrix, trials: int = 10_000, seed: int = 0,
            lo: float = 1e-3, hi: float = 1e3, *, start: int = 0,
            minors: MinorTable | None = None) -> Optional[Counterexample]:
    """Search for a positive diagonal witnessing non-D-stability.

    Deterministic probes run first, then per-coordinate log-uniform samples
    over [lo, hi].  Deterministic given (seed, start, trials, lo, hi): the
    sample at ``index`` is drawn from
    ``random.Random(stable_seed(seed, index))``, and a returned
    counterexample records that seed and index.  Returns the first exactly
    verified counterexample, or None.  Margins are computed a chunk of
    samples at a time; the samples, and so the witness, are the same as
    when each sample is checked on its own.  A repeated search reuses the
    draws (see ``_sample_chunks``); a first one pays about 10 us a draw.

    Up to n = SCREEN_MAX_N (9) a rigorous float screen runs first: from
    ``minors``, A's principal minor table (built here when not given), it
    encloses the characteristic coefficients of each D*A and proves by the
    Routh array that D*A is positive stable (``_proved_stable``).  The exact
    check would reject such a sample, so skipping it cannot change the
    witness; only the other samples meet the eigensolver.

    The search covers the ``trials`` indices from ``start`` on, so that
    ``falsify(a, k, seed)`` and then ``falsify(a, n - k, seed, start=k)``
    find the witness of ``falsify(a, n, seed)``.  A matrix with an entry
    that times max(hi, 1e3) leaves the float range is refused (ValueError).
    """
    _checked_int(trials, "trials must be >= 1", 1)
    _checked_int(start, "start must be >= 0", 0)
    if not (0 < lo < hi and isfinite(hi)):
        raise ValueError("need finite 0 < lo < hi")
    # the probes reach 1e3, so no sampled D*A has an entry beyond top*|A|
    top = max(hi, 1e3)
    try:
        a_float = _np(a)
        finite = isfinite(float(np.abs(a_float).max()) * top)
    except OverflowError:   # an entry beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"falsify needs every entry times the largest "
                         f"diagonal {top:g} to be finite in float64 (at "
                         f"most {np.finfo(float).max:.6g})")
    if a.n > SCREEN_MAX_N:
        minors = None
    elif minors is None:
        minors = all_principal_minors(a)
    for first, chunk in _sample_chunks(a.n, start, start + trials, seed,
                                       lo, hi):
        rest = (np.arange(len(chunk)) if minors is None
                else np.flatnonzero(~_proved_stable(minors, chunk)))
        if not rest.size:
            continue
        margins = _chunk_margins(a, a_float, chunk[rest])
        # not (margin > tolerance), as a NaN margin is a candidate too
        for i in np.flatnonzero(~(margins > GUARD_TOLERANCE)):
            d = tuple(chunk[rest[i]].tolist())
            if _verify_exact(a, d):
                sample = DiagonalSample(d, seed=seed,
                                        index=first + int(rest[i]))
                return Counterexample(sample, _offending_eigenvalue(a, d),
                                      float(margins[i]))
    return None
