"""Moment sequences, Hankel determinants, minors, and the binomial transform.

A sequence prefix s_0..s_M determines the Hankel matrices
H_n = (s_{i+j})_{i,j=0..n}.  This module computes their determinants D_n,
the shifted determinants D'_{n+1} (last column advanced one step), arbitrary
single-entry minors, matrix ranks, and the determinant-preserving binomial
transform.  Everything here is exact.

Every D_n, D'_{n+1} and determinant polynomial P_n of a prefix comes from
one O(M^2) pass (:func:`hankel_scan`): it closes each run of vanishing
determinants by the gap formula and advances P_n by the block three-term
recurrence, on Python integers.  Fraction-free (Bareiss) elimination on
integer matrices obtained by clearing denominators row by row remains for
single minors (:func:`hankel_minor`), for solving and ranking small systems,
and as the independent route the tests and the inverse-problem certificate
check the pass against.

All statements about "all n" are certified only up to the prefix horizon
(the number of known terms); results carry that horizon where relevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import IndexOutOfRange, ParseError
from .scalars import format_rational, parse_rational

SequenceLike = Union["MomentSequence", Sequence]


@dataclass(frozen=True)
class MomentSequence:
    """An immutable finite prefix s_0..s_M of exact rational moments."""

    terms: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Iterable) -> "MomentSequence":
        return cls(tuple(parse_rational(v) for v in values))

    @classmethod
    def from_json(cls, doc) -> "MomentSequence":
        if not isinstance(doc, dict) or "sequence" not in doc:
            raise ParseError('expected a JSON object {"sequence": [...]}')
        values = doc["sequence"]
        if not isinstance(values, list):
            raise ParseError('"sequence" must be a list of rational strings')
        return cls.from_values(values)

    def to_json(self) -> dict:
        return {"sequence": [format_rational(t) for t in self.terms]}

    @property
    def max_index(self) -> int:
        """M, the largest known moment index."""
        return len(self.terms) - 1

    @property
    def horizon(self) -> int:
        """Number of known terms (M + 1)."""
        return len(self.terms)

    def is_zero(self) -> bool:
        return all(t == 0 for t in self.terms)

    def prefix(self, length: int) -> "MomentSequence":
        """The first `length` terms s_0..s_{length-1}."""
        return MomentSequence(self.terms[:length])

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, idx):
        return self.terms[idx]


def as_moments(s: SequenceLike) -> MomentSequence:
    """Coerce lists/tuples of rationals (or rational strings) to MomentSequence."""
    if isinstance(s, MomentSequence):
        return s
    return MomentSequence.from_values(s)


@dataclass(frozen=True)
class DeterminantProfile:
    """All determinants computable from a prefix: D_0..D_N and D'_1..D'_{N'}."""

    d_values: tuple[Fraction, ...]
    d_prime_values: tuple[Fraction, ...]
    horizon: int

    def to_json(self) -> dict:
        return {
            "D": [format_rational(v) for v in self.d_values],
            "Dprime": [format_rational(v) for v in self.d_prime_values],
        }


# ---------------------------------------------------------------------------
# Exact elimination kernels
# ---------------------------------------------------------------------------


def _clear_denominators(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale each row to integers by its denominator lcm; return (matrix, product of scalings)."""
    cleared: list[list[int]] = []
    scaling = 1
    for row in rows:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        scaling *= lcm
        cleared.append([int(x * lcm) for x in row])
    return cleared, scaling


def fraction_free_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant via one-step Bareiss elimination (denominators cleared first)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m, scaling = _clear_denominators([list(r) for r in rows])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return Fraction(sign * m[n - 1][n - 1], scaling)


def solve_unique(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a nonsingular square system by the same fraction-free elimination.

    Raises ValueError on a singular matrix; callers are expected to have
    checked the relevant leading determinant already.
    """
    n = len(rows)
    m, _ = _clear_denominators([list(r) + [b] for r, b in zip(rows, rhs)])
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                raise ValueError("singular system")
            m[k], m[pivot] = m[pivot], m[k]
        pk = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(m[i][n])
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x


def echelonize(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    """Reduce to row echelon form using only row swaps and row additions.

    Those operations preserve every maximal minor up to the swap sign, which
    is what the bordered-determinant expansion below relies on.  Returns
    (echelon matrix, swap sign, pivot columns).  Pivot search scans the
    remaining rows and columns deterministically; with exact arithmetic any
    nonzero pivot is as good as any other.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    sign = 1
    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            sign = -sign
        pv = m[row][col]
        row_r = m[row]
        for i in range(row + 1, nrows):
            if m[i][col] != 0:
                factor = m[i][col] / pv
                row_i = m[i]
                for j in range(col, ncols):
                    row_i[j] -= factor * row_r[j]
        pivot_cols.append(col)
        row += 1
    return m, sign, pivot_cols


def bottom_row_minors(rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """All maximal minors M_j (column j deleted) of an n x (n+1) matrix, one pass.

    If the matrix has full row rank, its kernel is spanned by the vector
    w_j = c (-1)^j M_j (Cramer); one elimination yields both a kernel vector
    and one known minor (the pivot-column product), which fixes the scale c.
    Rank < n makes every maximal minor zero.
    """
    n = len(rows)
    width = n + 1
    if n == 0:
        return [Fraction(1)]
    echelon, sign, pivot_cols = echelonize(rows)
    if len(pivot_cols) < n:
        return [Fraction(0)] * width
    q = next(c for c in range(width) if c not in pivot_cols)
    minor_q = Fraction(sign)
    for i, c in enumerate(pivot_cols):
        minor_q *= echelon[i][c]
    w = [Fraction(0)] * width
    w[q] = Fraction(1)
    for i in range(n - 1, -1, -1):
        c = pivot_cols[i]
        acc = Fraction(0)
        for j in range(c + 1, width):
            if w[j] != 0:
                acc += echelon[i][j] * w[j]
        w[c] = -acc / echelon[i][c]
    return [minor_q * w[j] if (j + q) % 2 == 0 else -minor_q * w[j] for j in range(width)]


# ---------------------------------------------------------------------------
# Single-pass determinant engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HankelScan:
    """Every D_n (2n <= M), D'_{n+1} (2n+1 <= M) and optionally P_n (2n-1 <= M).

    The P_n are kept as integer coefficients of the scaled sequence
    lambda*s (lambda the lcm of the prefix denominators), whose bordered
    determinants are lambda^n P_n; :meth:`p_coeffs` divides the scale out.
    """

    d_values: tuple[Fraction, ...]
    d_prime_values: tuple[Fraction, ...]
    scale: int
    p_scaled: Optional[tuple[tuple[int, ...], ...]]

    def p_coeffs(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients of P_n, lowest degree first (empty for the zero polynomial)."""
        if self.p_scaled is None:
            raise ValueError("scan was run without polynomials")
        den = self.scale**n
        return tuple(Fraction(c, den) for c in self.p_scaled[n])


def hankel_scan(s: SequenceLike, polys: bool = False) -> HankelScan:
    """All computable D_n, D'_{n+1} and (with polys) P_n of a prefix, in one pass.

    The pass over s_0..s_M takes O(M^2) operations on Python ints.  It keeps
    the current full-degree index r (D_{r-1} != 0), P_r and P_{r-1},
    and the modified moments m_r[j] = L(x^j P_r), which vanish for j < r.  The
    first nonzero u = m_r[r+d] closes a zero run D_r = ... = D_{r+d-1} = 0 by
    the gap formula D_{r+d} = (-1)^{d(d+1)/2} u^{d+1} / D_{r-1}^d; inside it
    P_{r+1} .. P_{r+d-1} vanish and P_{r+d} = gamma P_r with gamma = D_{r+d}/u,
    so D'_{n+1} = L(x^{n+1} P_n) is read off m_r.  The next full-degree
    polynomial is the block three-term recurrence
    P_{r+d+1} = A(x) P_r + beta P_{r-1}, deg A = d+1: its leading coefficient
    fixes a_{d+1} = D_{r+d}/D_{r-1}, orthogonality to x^{r-1} fixes beta and
    orthogonality to x^r .. x^{r+d} is a (d+1)-row triangular system in the
    rest of A.  The same combination updates the modified moments.

    Everything runs on the scaled integer sequence lambda*s, where every
    quantity is a determinant of an integer matrix, so each updated entry is
    one exact integer division by the common denominator of A and beta.
    """
    terms = as_moments(s).terms
    m_top = len(terms) - 1
    scale = math.lcm(*(t.denominator for t in terms))
    s = [t.numerator * (scale // t.denominator) for t in terms]
    d_out = [0] * (m_top // 2 + 1)
    dp_out = [0] * ((m_top + 1) // 2)
    p_out: Optional[list[tuple[int, ...]]] = [()] * ((m_top + 1) // 2 + 1) if polys else None
    if polys:
        p_out[0] = (1,)

    r = 0
    d_prev = 1  # D_{r-1}, with D_{-1} = 1
    m_cur = s  # m_r[j] for r <= j <= M - r
    m_prev = [0] * (m_top + 2)  # L(x^j P_{r-1}), with P_{-1} = 0
    p_cur: list[int] = [1]
    p_prev: list[int] = []
    while 2 * r <= m_top:
        j = r
        while j <= m_top - r and m_cur[j] == 0:
            j += 1
        if j > m_top - r:
            break  # the zero run reaches the horizon: every later D, D', P is 0
        gap = j - r
        u = m_cur[j]
        n = r + gap  # the next nonzero determinant, D_{r+gap}
        sign = -1 if (gap * (gap + 1) // 2) % 2 else 1
        d_new = sign * (u ** (gap + 1) // d_prev**gap)
        if n < len(d_out):
            d_out[n] = d_new
        if r < len(dp_out):
            dp_out[r] = m_cur[r + 1]  # D'_{r+1} = L(x^{r+1} P_r)
        # P_n = gamma P_r and its moments; they are P_{r-1} of the next block.
        if gap:
            m_gamma = [d_new * x // u for x in m_cur]
            p_gamma = [d_new * c // u for c in p_cur] if polys else p_cur
        else:
            m_gamma, p_gamma = m_cur, p_cur
        if n < len(dp_out):
            dp_out[n] = m_gamma[n + 1]
        if polys and n < len(p_out):
            p_out[n] = tuple(p_gamma)

        r_next = n + 1
        if 2 * r_next - 1 > m_top:
            break
        a: list[Fraction] = [Fraction(0)] * (gap + 2)
        a[gap + 1] = Fraction(d_new, d_prev)
        beta = -a[gap + 1] * u / d_prev if r else Fraction(0)
        for t in range(gap + 1):
            acc = beta * m_prev[r + t]
            for i in range(gap - t + 1, gap + 2):
                acc += a[i] * m_cur[r + t + i]
            a[gap - t] = -acc / u
        den = math.lcm(beta.denominator, *(x.denominator for x in a))
        a_int = [x.numerator * (den // x.denominator) for x in a]
        beta_int = beta.numerator * (den // beta.denominator)

        lo, hi = r_next, m_top - r_next
        acc_m = [beta_int * x for x in m_prev[lo : hi + 1]]
        for i, ai in enumerate(a_int):
            if ai:
                acc_m = [x + ai * y for x, y in zip(acc_m, m_cur[lo + i : hi + i + 1])]
        m_next = [0] * lo + [x // den for x in acc_m]
        if polys:
            acc_p = [beta_int * c for c in p_prev] + [0] * (r_next + 1 - len(p_prev))
            for i, ai in enumerate(a_int):
                if ai:
                    for k, c in enumerate(p_cur):
                        acc_p[i + k] += ai * c
            p_next = [x // den for x in acc_p]
            if r_next < len(p_out):
                p_out[r_next] = tuple(p_next)
            p_prev, p_cur = p_gamma, p_next
        r, d_prev, m_prev, m_cur = r_next, d_new, m_gamma, m_next

    powers = [1]
    for _ in range(len(d_out)):
        powers.append(powers[-1] * scale)
    return HankelScan(
        d_values=tuple(Fraction(v, powers[n + 1]) for n, v in enumerate(d_out)),
        d_prime_values=tuple(Fraction(v, powers[n + 1]) for n, v in enumerate(dp_out)),
        scale=scale,
        p_scaled=None if p_out is None else tuple(p_out),
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _require_index(s: MomentSequence, needed: int) -> None:
    if needed > s.max_index:
        raise IndexOutOfRange(needed, s.horizon)


def hankel_matrix(s: SequenceLike, n: int) -> list[list[Fraction]]:
    """The (n+1) x (n+1) matrix (s_{i+j})."""
    seq = as_moments(s)
    _require_index(seq, 2 * n)
    return [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]


def hankel_det(s: SequenceLike, n: int) -> Fraction:
    """D_n, the determinant of (s_{i+j})_{i,j=0..n}, by one scan of s_0..s_{2n}."""
    seq = as_moments(s)
    _require_index(seq, 2 * n)
    if n < 0:
        return Fraction(1)  # the empty determinant
    return hankel_scan(seq.prefix(2 * n + 1)).d_values[n]


def shifted_det(s: SequenceLike, n: int) -> Fraction:
    """D'_{n+1}: determinant of H_n with its last column advanced one step.

    Equivalently the minor of H_{n+1} deleting the last row and column n+1;
    D'_1 = s_1.  Needs moments through s_{2n+1}.
    """
    seq = as_moments(s)
    _require_index(seq, 2 * n + 1)
    if n < 0:
        return Fraction(1)  # the empty determinant
    return hankel_scan(seq.prefix(2 * n + 2)).d_prime_values[n]


def hankel_minor(s: SequenceLike, n: int, k: int, m: int) -> Fraction:
    """Minor of H_n deleting row k and column m (both 1-indexed)."""
    seq = as_moments(s)
    _require_index(seq, 2 * n)
    if not 1 <= k <= n + 1:
        raise IndexOutOfRange(k, n + 1, what="row")
    if not 1 <= m <= n + 1:
        raise IndexOutOfRange(m, n + 1, what="column")
    rows = [
        [seq[i + j] for j in range(n + 1) if j != m - 1]
        for i in range(n + 1)
        if i != k - 1
    ]
    return fraction_free_det(rows)


def determinant_transform(s: SequenceLike) -> DeterminantProfile:
    """All computable D_n (2n <= M) and D'_{n+1} (2n+1 <= M) for the prefix."""
    seq = as_moments(s)
    if len(seq) == 0:
        raise IndexOutOfRange(0, 0)
    scan = hankel_scan(seq)
    return DeterminantProfile(scan.d_values, scan.d_prime_values, seq.horizon)


def binomial_transform(s: SequenceLike) -> MomentSequence:
    """beta(s)_n = sum_k C(n,k) s_k; preserves the determinant profile."""
    seq = as_moments(s)
    out = []
    for n in range(len(seq)):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += math.comb(n, k) * seq[k]
        out.append(acc)
    return MomentSequence(tuple(out))


def matrix_rank(s: SequenceLike, n: int) -> int:
    """Rank of H_n by exact elimination."""
    rows = hankel_matrix(s, n)
    _, _, pivot_cols = echelonize(rows)
    return len(pivot_cols)
