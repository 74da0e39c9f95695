"""Exact rational matrix arithmetic for the stability certification pipeline.

Determinants and principal minors (fraction-free Bareiss elimination),
characteristic polynomials (Faddeev-LeVerrier) and a strict Routh-Hurwitz
stability decision (the fraction-free Routh array), all on one elimination
step.  Each elimination runs on the integer matrix L*A, for L the lcm of
A's denominators, and divides by a power of L once at the end.
Indices in the public API are 1-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import _checked_int, as_exact

DEFAULT_MINOR_CAP = 12

P_CLASS = "P"
P0_PLUS_CLASS = "P0_plus"
P0_CLASS = "P0"
NO_P_CLASS = "none"


class MinorCapExceeded(RuntimeError):
    """Raised when a full minor enumeration would exceed the dimension cap."""


class Matrix:
    """Dense square matrix of exact rationals.

    Entries are converted with ``as_exact``: floats are taken at their exact
    binary value, and integral values are kept as plain ints so that integer
    matrices stay integer through the fraction-free elimination below.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        if n < 1:
            raise ValueError("matrix must have dimension >= 1")
        out = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            out.append(tuple(as_exact(x) for x in row))
        self.n = n
        self.rows = tuple(out)

    @staticmethod
    def identity(n: int) -> "Matrix":
        _checked_int(n, "matrix must have dimension >= 1", 1)
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        n = len(values)
        return Matrix([[values[i] if i == j else 0 for j in range(n)]
                       for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        return Matrix([[sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def scale(self, c) -> "Matrix":
        c = as_exact(c)
        return Matrix([[c * x for x in row] for row in self.rows])

    def permuted(self, perm: Sequence[int]) -> "Matrix":
        """P^T A P for the permutation sending position k to index perm[k] (1-based)."""
        idx = _perm_indices(perm, self.n)
        return Matrix([[self.rows[i][j] for j in idx] for i in idx])

    def submatrix(self, indices: Iterable[int]) -> "Matrix":
        """Principal submatrix on the given 1-based rows/columns."""
        idx = sorted({_checked_int(i, "index out of range", 1, self.n)
                      for i in indices})
        if not idx:
            raise ValueError("empty index set has no submatrix")
        idx0 = [i - 1 for i in idx]
        return Matrix([[self.rows[i][j] for j in idx0] for i in idx0])

    def det(self) -> Fraction:
        return _det_bareiss(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix([{body}])"


def _perm_indices(perm: Sequence[int], n: int) -> list[int]:
    """The 0-based indices of a permutation of 1..n, or ValueError."""
    idx = [_checked_int(p, "perm must be a permutation of 1..n", 1, n) - 1
           for p in perm]
    if sorted(idx) != list(range(n)):
        raise ValueError("perm must be a permutation of 1..n")
    return idx


def _scaled_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The int rows of L*M and L, the lcm of the entries' denominators."""
    scale = math.lcm(*(x.denominator for row in rows for x in row
                       if not isinstance(x, int)))
    if scale == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (scale // x.denominator) for x in row]
            for row in rows], scale


def _unscale(value: int, scale: int, order: int):
    """value / scale^order, kept an int when it is integral."""
    if scale == 1:
        return value
    return as_exact(Fraction(value, scale ** order))


def _bareiss_step(block: list[list[int]], c: int, prev: int) -> list:
    """One fraction-free elimination step on the pivot (c, c) of an integer
    block: the block below and to the right of the pivot, with entries
    (pivot*x - left*y) // prev.  When ``prev`` is the previous pivot, each
    entry is a bordered minor, so the division is exact (Sylvester)."""
    pivot = block[c][c]
    head = block[c][c + 1:]
    out = []
    for row in block[c + 1:]:
        left = row[c]
        out.append([(pivot * x - left * y) // prev
                    for x, y in zip(row[c + 1:], head)])
    return out


def _det_bareiss(rows: Sequence[Sequence]) -> Fraction:
    """Bareiss elimination of the integer matrix L*M by ``_bareiss_step``,
    exchanging rows at a zero pivot; det(M) = det(L*M) / L^n."""
    m, scale = _scaled_rows(rows)
    n = len(m)
    sign, prev = 1, 1
    while len(m) > 1:
        if m[0][0] == 0:
            r = next((r for r, row in enumerate(m) if row[0] != 0), None)
            if r is None:
                return 0
            m[0], m[r], sign = m[r], m[0], -sign
        prev, m = m[0][0], _bareiss_step(m, 0, prev)
    return _unscale(sign * m[0][0], scale, n)


def parse_matrix(text: str) -> Matrix:
    """Parse the plain-text matrix format.

    One row per line; entries separated by whitespace or commas; each entry
    an integer, a decimal (parsed exactly, e.g. 17.85 -> 357/20) or a
    fraction ``p/q``.  Blank lines and ``#`` comments are ignored.
    """
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        entries = [tok for tok in line.replace(",", " ").split() if tok]
        try:
            rows.append([Fraction(tok) for tok in entries])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse matrix row {line!r}: {exc}") from exc
    if not rows:
        raise ValueError("no matrix rows found")
    return Matrix(rows)


def load_matrix(path) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


# ---------------------------------------------------------------------------
# principal minors


def principal_minor(a: Matrix, alpha: Iterable[int]) -> Fraction:
    """Determinant of the principal submatrix on rows/columns alpha.

    The empty index set yields 1 by convention.
    """
    alpha = list(alpha)
    return a.submatrix(alpha).det() if alpha else 1


def index_mask(alpha: Iterable[int]) -> int:
    """Bitmask of a 1-based index set: bit i-1 stands for index i."""
    mask = 0
    for i in alpha:
        mask |= 1 << (i - 1)
    return mask


def mask_indices(mask: int) -> list[int]:
    """The 1-based indices of a bitmask, in increasing order."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


class MinorTable:
    """All 2^n principal minors of A, kept as the integer minors of L*A.

    ``scale`` is L, the lcm of A's denominators, and ``values[mask]`` is
    L^|alpha| * A(alpha) for the indices alpha of ``mask`` (bit i-1 for
    index i; ``values[0]`` is 1).  Lookups take 1-based index sets and
    return A's minors, the values themselves when L = 1.
    """

    __slots__ = ("n", "values", "scale")

    def __init__(self, n: int, values: list, scale: int):
        self.n = n
        self.values = values
        self.scale = scale

    def unscaled(self, value: int, order: int):
        """A's value of a table quantity of this order: value / L^order."""
        return _unscale(value, self.scale, order)

    def __getitem__(self, alpha) -> Fraction:
        mask = index_mask(alpha)
        return self.unscaled(self.values[mask], mask.bit_count())

    def __len__(self):
        return len(self.values)

    def items(self):
        """(frozen index set, minor of A) pairs in bitmask order."""
        return [(frozenset(mask_indices(mask)),
                 self.unscaled(val, mask.bit_count()))
                for mask, val in enumerate(self.values)]

    def permuted(self, perm: Sequence[int]) -> "MinorTable":
        """The table of ``a.permuted(perm)``, relabelled without a determinant.

        The minor of P^T A P on positions S is the minor of A on perm(S).
        """
        # moved[mask] is the position mask of the index mask ``mask``; it
        # adds the lowest index's position to the mask without that index
        bit = {1 << i: 1 << k
               for k, i in enumerate(_perm_indices(perm, self.n))}
        moved = [0] * len(self.values)
        out = [1] * len(self.values)
        for mask in range(1, len(self.values)):
            low = mask & -mask
            moved[mask] = moved[mask ^ low] | bit[low]
            out[moved[mask]] = self.values[mask]
        return MinorTable(self.n, out, self.scale)

    def order_sums(self) -> list[Fraction]:
        """Sum of all principal minors of A of order k, for k = 1..n."""
        sums = [0] * (self.n + 1)
        for mask, val in enumerate(self.values):
            sums[mask.bit_count()] += val
        return [self.unscaled(s, k) for k, s in enumerate(sums) if k]


def check_minor_cap(n: int, cap: int = DEFAULT_MINOR_CAP) -> None:
    if n > _checked_int(cap, f"minor cap must be an integer, got {cap!r}"):
        raise MinorCapExceeded(
            f"minor enumeration needs 2^{n} determinants; cap is n <= {cap}")


def all_principal_minors(a: Matrix, cap: int = DEFAULT_MINOR_CAP) -> MinorTable:
    """The minor table, by Bareiss elimination with shared prefixes.

    The elimination runs on the integer matrix L*A, for L the least
    positive integer that makes it integral (the lcm of A's denominators);
    the table keeps its minors L^|alpha| * A(alpha) and L.
    """
    check_minor_cap(a.n, cap)
    n = a.n
    rows, scale = _scaled_rows(a.rows)
    values = [1] * (1 << n)
    _fill_minors(values, rows, 0, rows, list(range(n)), 1)
    return MinorTable(n, values, scale)


def _fill_minors(values: list, rows: list[list[int]], mask: int,
                 block: list[list[int]], idx: list[int], prev: int) -> None:
    """Fill the minors of every mask | {j, ...} with j in ``idx``.

    ``block`` is the trailing block left by Bareiss elimination of the
    indices in ``mask`` (in increasing order) on the integer matrix
    ``rows``: its entry (p, q) is the determinant of rows mask + idx[p] by
    columns mask + idx[q], and ``prev`` is the minor on ``mask``.  By
    Sylvester's identity the diagonal entry (c, c) is the minor on
    mask + idx[c], and ``_bareiss_step`` on that pivot gives the block of
    the child.  A zero pivot cannot divide, so that child's subtree is
    filled by direct elimination.
    """
    for c, j in enumerate(idx):
        pivot = block[c][c]
        child = mask | 1 << j
        values[child] = pivot
        rest = idx[c + 1:]
        if not rest:
            continue
        if pivot == 0:
            _fill_direct(values, rows, child, rest)
            continue
        _fill_minors(values, rows, child, _bareiss_step(block, c, prev),
                     rest, pivot)


def _fill_direct(values: list, rows: list[list[int]], mask: int,
                 rest: list[int]) -> None:
    """Minors of mask | U for every nonempty U within ``rest``, one
    determinant each."""
    base = [i - 1 for i in mask_indices(mask)]
    for k in range(1, len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            idx = base + list(extra)
            values[mask | sum(1 << j for j in extra)] = _det_bareiss(
                [[rows[i][j] for j in idx] for i in idx])


# ---------------------------------------------------------------------------
# characteristic polynomial and stability


@dataclass(frozen=True)
class CharPoly:
    """Coefficients c_0..c_n of det(A - lambda*I)."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def char_poly(a: Matrix) -> CharPoly:
    """Exact characteristic polynomial via Faddeev-LeVerrier on B = L*A.

    det(lambda*I - B) = sum b_k lambda^k has integer coefficients, so the
    recurrence M <- B*M + b_{n-k}*I, b_{n-k} = -tr(B*M)/k, stays in the
    integers and divides by k exactly; A's coefficient k is b_k / L^(n-k).
    """
    n = a.n
    rows, scale = _scaled_rows(a.rows)
    b = [0] * n
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols]
             for row in rows]
        b[n - k] = bk = -sum(m[i][i] for i in range(n)) // k
        for i in range(n):
            m[i][i] += bk
    # det(A - lambda I) = (-1)^n det(lambda I - A)
    sign = (-1) ** n
    coeffs = [_unscale(sign * b[k], scale, n - k) for k in range(n)] + [sign]
    return CharPoly(tuple(coeffs))


def _hurwitz_matrix(coeffs: Sequence) -> list[list]:
    """The n x n Hurwitz matrix of a_n x^n + ... + a_0, entry (i, j) being
    a_{n-2j+i} (zero outside 0..n); ``coeffs`` lowest-degree first."""
    n = len(coeffs) - 1

    def at(k: int):
        return coeffs[k] if 0 <= k <= n else 0

    return [[at(n - 2 * j + i) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def hurwitz_determinants(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Leading principal minors of the Hurwitz matrix of a_n x^n + ... + a_0.

    ``coeffs`` are given lowest-degree first; the leading coefficient must be
    positive.
    """
    n = len(coeffs) - 1
    h = _hurwitz_matrix(coeffs)
    return [_det_bareiss([row[:k] for row in h[:k]]) for k in range(1, n + 1)]


def _hurwitz_stable(coeffs: Sequence[Fraction]) -> bool:
    """True iff every Hurwitz determinant D_k of a_n x^n + ... + a_0, for
    a_n > 0, is positive, decided by the fraction-free Routh array:
    R_0 = (a_n, a_{n-2}, ...), R_1 = (a_{n-1}, a_{n-3}, ...), and R_{k+1} is
    ``_bareiss_step`` on [R_k, zero-padded to the length of R_{k-1}; R_{k-1}]
    over D_{k-2} (D_{-1} = D_0 = 1).  Each of the n nonempty rows R_k leads
    with D_k, so the first nonpositive lead decides.  Scaling the
    coefficients to integers by L > 0 multiplies D_k by L^k."""
    (scaled,), _ = _scaled_rows([coeffs])
    high = scaled[::-1]
    above, row = high[0::2], high[1::2]
    before, last = 1, 1                  # D_{k-2}, D_{k-1}
    while row:
        if row[0] <= 0:
            return False
        padded = row + [0] * (len(above) - len(row))
        (below,) = _bareiss_step([padded, above], 0, before)
        above, row, before, last = row, below, last, row[0]
    return True


def is_positive_stable(a: Matrix, minors: MinorTable | None = None) -> bool:
    """True iff every eigenvalue of A has strictly positive real part.

    Decided exactly: A is positive stable iff det(lambda*I + A) is Hurwitz
    stable, which the fraction-free Routh array on ``_bareiss_step`` decides
    with strict inequalities.  Its coefficients are the order sums E_n, ...,
    E_1, 1 of the minor table when one is given, else (-1)^k times those of
    ``char_poly``; both come from integer eliminations on L*A.  Boundary
    cases (a vanishing Hurwitz determinant) count as not stable.
    """
    if minors is None:
        coeffs = [(-1) ** k * c for k, c in enumerate(char_poly(a).coeffs)]
    else:
        coeffs = [*reversed(minors.order_sums()), 1]
    return _hurwitz_stable(coeffs)


# ---------------------------------------------------------------------------
# P-matrix classes and the necessary-condition filter


def classify_P(a: Matrix, minors: MinorTable | None = None) -> str:
    """Strongest applicable class among P, P0_plus, P0, none."""
    if minors is None:
        minors = all_principal_minors(a)
    vals = minors.values[1:]   # the signs of A's minors, as L > 0
    if any(v < 0 for v in vals):
        return NO_P_CLASS
    if all(v > 0 for v in vals):
        return P_CLASS
    if all(s > 0 for s in minors.order_sums()):
        return P0_PLUS_CLASS
    return P0_CLASS


def necessary_filter(a: Matrix, minors: MinorTable | None = None) -> bool:
    """Necessary condition for D-stability of a stable matrix.

    A positive D-stable matrix must be a P0+-matrix; returning False is a
    certificate of non-D-stability.
    """
    return classify_P(a, minors=minors) in (P_CLASS, P0_PLUS_CLASS)


# ---------------------------------------------------------------------------
# exact complex-rational determinant (used by the Johnson functional and as
# an independent oracle for the recursion)


def det_complex(a: Matrix, diag: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """Exact (Re, Im) of det(A + i*diag(d)) by Gaussian elimination over Q(i)."""
    n = a.n
    if len(diag) != n:
        raise ValueError("diagonal length mismatch")
    m = [[(Fraction(a.rows[i][j]),
           Fraction(diag[i]) if i == j else Fraction(0))
          for j in range(n)] for i in range(n)]
    re_det, im_det = Fraction(1), Fraction(0)
    sign = 1
    for k in range(n):
        pivot_row = None
        for r in range(k, n):
            if m[r][k] != (Fraction(0), Fraction(0)):
                pivot_row = r
                break
        if pivot_row is None:
            return Fraction(0), Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pr, pi = m[k][k]
        norm = pr * pr + pi * pi
        re_det, im_det = re_det * pr - im_det * pi, re_det * pi + im_det * pr
        for r in range(k + 1, n):
            xr, xi = m[r][k]
            if xr == 0 and xi == 0:
                continue
            # factor = m[r][k] / pivot
            fr = (xr * pr + xi * pi) / norm
            fi = (xi * pr - xr * pi) / norm
            for c in range(k, n):
                yr, yi = m[k][c]
                zr, zi = m[r][c]
                m[r][c] = (zr - (fr * yr - fi * yi), zi - (fr * yi + fi * yr))
    if sign < 0:
        re_det, im_det = -re_det, -im_det
    return re_det, im_det
