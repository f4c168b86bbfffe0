"""Moment sequences, Hankel determinants, minors, and the binomial transform.

A sequence prefix s_0..s_M determines the Hankel matrices
H_n = (s_{i+j})_{i,j=0..n}.  This module computes their determinants D_n,
the shifted determinants D'_{n+1} (last column advanced one step), arbitrary
single-entry minors, matrix ranks, and the determinant-preserving binomial
transform.  Everything here is exact.

Every D_n, D'_{n+1} and determinant polynomial P_n of a prefix comes from
one O(M^2) pass (:func:`hankel_scan`): it closes each run of vanishing
determinants by the gap formula and advances P_n by the block three-term
recurrence, on integers over one denominator, reduced at every step.  Most
of each reduction is known in advance: P_n's coefficients and L(x^j P_n) are
minors of s of order n and n + 1 (Sylvester's identity), so P_n's reduced
denominator q_n divides lambda^{n+1}, lambda the lcm of the term
denominators.  A step whose integers are over a k longer than lambda^{n+1}
first divides them exactly by k / gcd(k, lambda^{n+1}), and the content gcd
runs only against what is left.  The pass is resumable
(:class:`HankelScanner`): a caller that builds a sequence term by term, as
the inverse-problem construction does, feeds one scanner instead of
rescanning its growing prefix.  One fraction-free (Bareiss)
elimination kernel, on rows cleared to integers, serves everything else:
determinants and single minors (:func:`hankel_minor`), rank, solves and
maximal minors.  It is also the independent route the tests check the pass
against.

The moment functional L(x^j p) = sum_i p_i s_{i+j} on lcm-scaled terms is
:func:`_moment`, and :func:`_is_witness` tests "deg p = r and L(x^j p) = 0
for j < stop"; the certificate, the degree profile, the FiniteRank rule, Q_r
and ``apply_L`` evaluate L through them.  The pass keeps its own sums: the
certificate and the profile check exist to catch a faulty pass, so they
share no code with it.

D_n is fixed by s_0..s_{2n}, D'_{n+1} by s_0..s_{2n+1} and P_n by
s_0..s_{2n-1}.  Every function, here and in the other modules, that reads
them up to an index it is given scans exactly those terms through one
helper, which raises IndexOutOfRange naming the last of them when the prefix
is shorter.

All statements about "all n" are certified only up to the prefix horizon
(the number of known terms); results carry that horizon where relevant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import IndexOutOfRange, ParseError
from .scalars import format_rational, parse_rational

SequenceLike = Union["MomentSequence", Sequence]


@dataclass(frozen=True)
class MomentSequence:
    """An immutable finite prefix s_0..s_M of exact rational moments."""

    terms: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Iterable) -> "MomentSequence":
        return cls(tuple([parse_rational(v) for v in values]))

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
# Exact elimination kernel
# ---------------------------------------------------------------------------


def scale_to_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale rationals to integers by the lcm of their denominators; return (integers, lcm)."""
    scale = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _moment(p: Sequence[int], ints: Sequence[int], j: int = 0) -> int:
    """lambda L(x^j p) = sum_i p_i u_{i+j} for integer p, on the terms scaled
    to integers u = lambda s; the sum stops at the last term."""
    return sum(map(operator.mul, p, ints[j : j + len(p)]))


def _is_witness(p: Sequence[int], ints: Sequence[int], r: int, stop: int) -> bool:
    """Whether p has degree r and L(x^j p) = 0 for 0 <= j < stop."""
    return len(p) == r + 1 and not any(_moment(p, ints, j) for j in range(stop))


def _bareiss(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int, int]:
    """Rank-revealing fraction-free (Bareiss) row echelon form.

    Rows are first scaled to integers by their denominator lcm.  A column's
    first nonzero entry below the earlier pivots is its pivot: with exact
    arithmetic any nonzero pivot is as good as any other.  A pivot step sets
    row = (pivot * row - entry * pivot row) / previous pivot, an exact
    division whose k-th pivot is the minor on the first k rows and pivot
    columns (Sylvester's identity).  A column without a pivot is skipped.
    Returns (integer echelon rows, pivot columns, row-swap sign, product of
    the row scalings).
    """
    scaled = [scale_to_integers(row) for row in rows]
    m = [ints for ints, _ in scaled]
    scaling = math.prod(lcm for _, lcm in scaled)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivot_cols: list[int] = []
    sign = 1
    prev = 1
    for col in range(ncols):
        k = len(pivot_cols)
        if k == nrows:
            break
        pivot = next((i for i in range(k, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][col]
        row_k = m[k]
        for i in range(k + 1, nrows):
            row_i = m[i]
            mik = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[col] = 0
        prev = pk
        pivot_cols.append(col)
    return m, pivot_cols, sign, scaling


def fraction_free_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix: the last Bareiss pivot, unscaled
    (0 when a column has no pivot)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m, pivot_cols, sign, scaling = _bareiss(rows)
    if len(pivot_cols) < n:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], scaling)


def solve_unique(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a nonsingular square system by Cramer's rule on the maximal minors of [A | b].

    Raises ValueError on a singular matrix; callers are expected to have
    checked the relevant leading determinant already.
    """
    n = len(rows)
    minors = bottom_row_minors([list(r) + [b] for r, b in zip(rows, rhs)])
    if minors[n] == 0:  # det A
        raise ValueError("singular system")
    return [(-1) ** (n + j + 1) * minors[j] / minors[n] for j in range(n)]


def echelonize(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int, list[int]]:
    """Row echelon form by the Bareiss kernel: (integer rows, swap sign, pivot columns).

    The rows span the input's row space, so the pivot count is its rank, but
    they are scaled Bareiss rows: their minors are not the input's.
    """
    m, pivot_cols, sign, _ = _bareiss(rows)
    return m, sign, pivot_cols


def bottom_row_minors(rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """All maximal minors M_j (column j deleted) of an n x (n+1) matrix."""
    return [
        fraction_free_det([[x for i, x in enumerate(row) if i != j] for row in rows])
        for j in range(len(rows) + 1)
    ]


# ---------------------------------------------------------------------------
# Single-pass determinant engine
# ---------------------------------------------------------------------------


class ScanStep(NamedTuple):
    """One block step r -> r_next between full-degree indices: the integers of
    P_{r_next} are proportional to sum_i c[i] x^i p_int[r] + c_b p_int[r'],
    r' the full-degree index before r (c_b = 0 when r = 0).  This holds for a
    scanner given its terms in pieces too, on the p_int it returns."""

    r: int
    r_next: int
    c: tuple[int, ...]
    c_b: int


@dataclass(frozen=True)
class HankelScan:
    """Every D_n (2n <= M), D'_{n+1} (2n+1 <= M) and optionally P_n (2n-1 <= M).

    P_n is kept as the rational p_factor[n] times the integer coefficients
    p_int[n]; :meth:`p_coeffs` multiplies them out.  steps holds the block
    recurrence of every full-degree P_{r_next} (2 r_next - 1 <= M).
    """

    d_values: tuple[Fraction, ...]
    d_prime_values: tuple[Fraction, ...]
    p_int: Optional[tuple[tuple[int, ...], ...]]
    p_factor: Optional[tuple[Fraction, ...]]
    steps: tuple[ScanStep, ...]

    def p_coeffs(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients of P_n, lowest degree first (empty for the zero polynomial)."""
        if self.p_int is None:
            raise ValueError("scan was run without polynomials")
        factor = self.p_factor[n]
        return tuple([Fraction(c * factor.numerator, factor.denominator) for c in self.p_int[n]])


class HankelScanner:
    """The pass of :func:`hankel_scan`, resumable: :meth:`extend` takes more terms.

    Its fields are those of :class:`HankelScan`, as lists that grow with the
    prefix; :meth:`result` freezes them.  Resuming needs P_r and P_{r'} (r'
    the full-degree index before r), whose modified moments L(x^j P) at the new
    indices j come from their integer coefficients and the new terms; so a
    scanner without polys takes all its terms in its first extend.
    """

    def __init__(self, polys: bool = False):
        self.polys = polys
        self.terms: list[Fraction] = []
        self.d_values: list[Fraction] = []
        self.d_prime_values: list[Fraction] = []
        self.p_int: Optional[list[tuple[int, ...]]] = [(1,)] if polys else None
        self.p_factor: Optional[list[Fraction]] = [Fraction(1)] if polys else None
        self.steps: list[ScanStep] = []
        self._ints: list[int] = []  # lambda s_0 .. lambda s_M
        self._scale = 1  # lambda, the lcm of the term denominators
        # The open block: full-degree index r, D_{r-1}, the search position j >= r;
        # P_r = p_cur / q_cur with m_cur[j] = L(x^j p_cur) for j <= M - r, and
        # P_{r'} = f_prev p_prev (the P_{r-1} = gamma P_{r'} of the last block) with
        # m_prev[j] = L(x^j p_prev).  P_{-1} = 0.
        self._r, self._j, self._d_prev = 0, 0, Fraction(1)
        self._p_cur: list[int] = [1] if polys else []
        self._m_cur: list[int] = []
        self._q_cur = 1
        self._p_prev: list[int] = []
        self._m_prev: list[int] = []
        self._f_prev = Fraction(1)
        self._prev_mu = 1  # what _moments has multiplied p_prev by since p_int[r'] stored it

    def result(self) -> HankelScan:
        """The scan of the terms so far, as :func:`hankel_scan` returns it."""
        return HankelScan(
            d_values=tuple(self.d_values),
            d_prime_values=tuple(self.d_prime_values),
            p_int=tuple(self.p_int) if self.polys else None,
            p_factor=tuple(self.p_factor) if self.polys else None,
            steps=tuple(self.steps),
        )

    def extend(self, values: SequenceLike) -> "HankelScanner":
        """Append terms and carry the pass as far as the longer prefix allows."""
        new = as_moments(values).terms
        first = not self.terms
        if not (first or self.polys):
            raise ValueError("a scan without polynomials takes all its terms in one extend")
        self.terms += new
        scale = math.lcm(self._scale, *[x.denominator for x in new])
        if scale != self._scale:
            self._ints = [x * (scale // self._scale) for x in self._ints]
            self._scale = scale
        self._ints += [x.numerator * (scale // x.denominator) for x in new]
        m_top = len(self.terms) - 1
        if first:  # M_0 = lambda s and P_0 = lambda, over lambda
            self._m_cur, self._q_cur = list(self._ints), scale
            self._p_cur = [scale] if self.polys else []
            self._m_prev = [0] * len(self._ints)
        else:
            self._p_cur, self._m_cur, mu = self._moments(self._p_cur, self._m_cur, m_top - self._r)
            self._q_cur *= mu
            self._p_prev, self._m_prev, mu = self._moments(self._p_prev, self._m_prev, m_top - self._r)
            self._f_prev /= mu
            self._prev_mu *= mu
        for out, size, fill in (
            (self.d_values, m_top // 2 + 1, Fraction(0)),
            (self.d_prime_values, (m_top + 1) // 2, Fraction(0)),
            (self.p_int, (m_top + 1) // 2 + 1, ()),
            (self.p_factor, (m_top + 1) // 2 + 1, Fraction(0)),
        ):
            if out is not None:
                out += [fill] * (size - len(out))
        self._run()
        return self

    def _moments(self, p: list[int], m: list[int], upto: int) -> tuple[list[int], list[int], int]:
        """m continued to L(x^j p) for j <= upto, with p and m multiplied by the
        least mu that keeps the new values integers: (p, m, mu)."""
        ints = self._ints
        sums = [sum(map(operator.mul, p, ints[j : j + len(p)])) for j in range(len(m), upto + 1)]
        g = math.gcd(self._scale, *sums)  # the new values are sums / lambda
        mu = self._scale // g
        if mu > 1:
            p, m = [x * mu for x in p], [x * mu for x in m]
        return p, m + [x // g for x in sums], mu

    def _step(self, r: int, r_next: int, c: list[int], c_b: int, k: int) -> ScanStep:
        """The step whose c and c_b, over k, act on p_cur and p_prev, recorded on
        p_int[r] and p_int[r']: p_cur is p_int[r], but p_prev is p_int[r'] times
        _prev_mu, so c_b takes that factor and the step its gcd with k out."""
        c_b *= self._prev_mu
        if self._prev_mu != 1:
            h = math.gcd(k, c_b, *c)
            c, c_b = [x // h for x in c], c_b // h
        return ScanStep(r, r_next, tuple(c), c_b)

    def _run(self) -> None:
        """The pass from the open block on; see :func:`hankel_scan`."""
        m_top = len(self.terms) - 1
        polys = self.polys
        d_out, dp_out, p_out, f_out = self.d_values, self.d_prime_values, self.p_int, self.p_factor
        r, j, d_prev = self._r, self._j, self._d_prev
        p_cur, m_cur, q_cur = self._p_cur, self._m_cur, self._q_cur
        p_prev, m_prev, f_prev = self._p_prev, self._m_prev, self._f_prev
        while True:
            if polys:
                p_tuple = tuple(p_cur)
                p_out[r], f_out[r] = p_tuple, Fraction(1, q_cur)
            while j <= m_top - r and m_cur[j] == 0:
                j += 1
            if j > m_top - r:
                break  # the zero run reaches the horizon: every later D, D', P is 0 so far
            gap = j - r
            u_int = m_cur[j]  # u = u_int / q_cur
            n = r + gap  # the next nonzero determinant, D_{r+gap}
            if r < len(dp_out):
                dp_out[r] = Fraction(m_cur[r + 1], q_cur)  # D'_{r+1} = L(x^{r+1} P_r)
            # D_{r-1} = dn / dd, P_{r'} = (fn / fd) p_prev.
            dn, dd = d_prev.numerator, d_prev.denominator
            fn, fd = f_prev.numerator, f_prev.denominator
            sigma = -1 if (gap * (gap + 1) // 2) % 2 else 1
            u_g, dd_g, q_g1, dn_g = u_int**gap, dd**gap, q_cur ** (gap + 1), dn**gap
            u_g1 = u_g * u_int
            if gap:
                # D_n = sigma u^{gap+1} / D_{r-1}^gap; P_n = gamma P_r with gamma = D_n / u,
                # the same integers with factor gamma / q_cur; P_{r-1} of the next block.
                d_new = Fraction(sigma * u_g1 * dd_g, q_g1 * dn_g)
                f_gamma = Fraction(sigma * u_g * dd_g, q_g1 * dn_g)
                if n < len(dp_out):
                    dp_out[n] = Fraction(sigma * u_g * dd_g * m_cur[n + 1], q_g1 * dn_g)
                if polys and n < len(p_out):
                    p_out[n], f_out[n] = p_tuple, f_gamma
            else:
                d_new = Fraction(u_int, q_cur)
                f_gamma = f_out[r] if polys else Fraction(1, q_cur)
            if n < len(d_out):
                d_out[n] = d_new

            r_next = n + 1
            if 2 * r_next - 1 > m_top:
                break  # the step needs s_{2 r_next - 1}
            # Integer coefficients c (on x^i M_r) and c_b (on M_{r-1}) of the recurrence, over k:
            # c_top / k = a_{gap+1} / q_cur with a_{gap+1} = D_n / D_{r-1}, and
            # c_b / k = beta = -a_{gap+1} u f_prev / D_{r-1}, all cleared by the
            # positive sign * q_cur^{gap+2} dn^{gap+2} fd, sign that of (q_cur dn)^gap.
            if gap:
                sign = -1 if gap % 2 and (q_cur < 0) != (dn < 0) else 1
                dd_g1 = dd_g * dd
                c_top = sign * sigma * u_g1 * dd_g1 * dn * fd
                c_b = -sign * sigma * u_g1 * u_int * dd_g1 * dd * fn if r else 0
                k = sign * q_g1 * q_cur * dn_g * dn * dn * fd
                c = [0] * (gap + 1) + [c_top]
                for t in range(gap + 1):  # orthogonality to x^{r+t} fixes c[gap-t]; the pivot is u
                    acc = c_b * m_prev[r + t] + sum(c[i] * m_cur[r + t + i] for i in range(gap - t + 1, gap + 2))
                    c, c_b, k = [x * u_int for x in c], c_b * u_int, k * u_int
                    c[gap - t] = -acc
            else:
                # The same coefficients with the pivot u divided out of all four (negated when
                # u < 0): c_0 = -(c_b m_prev[r] + c_1 m_cur[r+1]) / u, and m_prev[0] = 0.
                c_b = -u_int * u_int * dd * dd * fn if r else 0
                c = [dd * (u_int * dd * fn * m_prev[r] - dn * fd * m_cur[r + 1]), u_int * dd * dn * fd]
                k = q_cur * q_cur * dn * dn * fd
                if u_int < 0:
                    c, c_b, k = [-x for x in c], -c_b, -k
            h = math.gcd(k, c_b, *c)
            c, c_b, k = [x // h for x in c], c_b // h, k // h
            self.steps.append(self._step(r, r_next, c, c_b, k))

            # The combination over k gives P_{r_next} and L(x^j P_{r_next}): minors of order
            # r_next and r_next + 1 of s, whose denominators divide lambda^{r_next + 1}.  So does
            # the reduced denominator k / g, and e = k / gcd(k, lambda^{r_next + 1}) divides g.
            # e >= k / lambda^{r_next + 1}, so it is sure to exceed 1 only when k is longer.
            e = 1
            if abs(k).bit_length() > (r_next + 1) * self._scale.bit_length():
                common = math.gcd(k, self._scale)  # gcd(k, common^(r_next+1)) = gcd(k, lambda^(r_next+1))
                e = abs(k) // math.gcd(k, common ** (r_next + 1))
            k //= e
            # The combination, divided by e, updates m at lo..hi and, with polys, P.
            lo, hi = r_next, m_top - r_next
            if gap:
                acc_m = [c_b * x for x in m_prev[lo : hi + 1]]
                for i, ci in enumerate(c):
                    if ci:
                        acc_m = [x + ci * y for x, y in zip(acc_m, m_cur[lo + i : hi + i + 1])]
                acc_p = [c_b * x for x in p_prev] + [0] * (r_next + 1 - len(p_prev)) if polys else []
                for i, ci in enumerate(c):
                    if ci:
                        for t, x in enumerate(p_cur):
                            acc_p[i + t] += ci * x
                if e > 1:
                    acc_m, acc_p = [x // e for x in acc_m], [x // e for x in acc_p]
            else:
                c0, c1 = c
                acc_m = [
                    (c_b * a + c0 * b + c1 * x) // e
                    for a, b, x in zip(m_prev[lo : hi + 1], m_cur[lo : hi + 1], m_cur[lo + 1 : hi + 2])
                ]
                acc_p = [
                    (c_b * a + c0 * b + c1 * x) // e
                    for a, b, x in zip(p_prev + [0] * (r_next + 1 - len(p_prev)), p_cur + [0], [0] + p_cur)
                ] if polys else []
            g = math.gcd(k, *acc_m, *acc_p)  # what the integers share with the denominator
            if g > 1:
                acc_m, acc_p, k = [x // g for x in acc_m], [x // g for x in acc_p], k // g
            p_prev, m_prev, f_prev = p_cur, m_cur, f_gamma
            self._prev_mu = 1
            p_cur, m_cur, q_cur = acc_p, [0] * lo + acc_m, k
            r, j, d_prev = r_next, r_next, d_new
        self._r, self._j, self._d_prev = r, j, d_prev
        self._p_cur, self._m_cur, self._q_cur = p_cur, m_cur, q_cur
        self._p_prev, self._m_prev, self._f_prev = p_prev, m_prev, f_prev


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
    rest of A.  The same combination updates the modified moments.  The
    reduced integer coefficients of each step are kept as a :class:`ScanStep`.

    Each full-degree P_k and its m_k are integer vectors over one denominator
    q_k, from M_0 = lambda s and P'_0 = q_0 = lambda, the lcm of the prefix
    denominators.  A step combines them with integer coefficients over k, then
    divides k and the vectors by their gcd, so the integers stay as long as the
    values; as determinants of lambda*s they would carry lambda^k, out of all
    proportion when late terms have long denominators.  Most of that gcd is
    known before it is taken: the new values are minors of s of order n and
    n + 1 (n the new index; Bareiss 1968, Sylvester's identity), so their
    reduced denominator q_n divides lambda^{n+1}, and e = k / gcd(k,
    lambda^{n+1}) divides the gcd.  When k is longer than lambda^{n+1}, and e
    is sure to exceed 1, the step divides by e first, exactly, and takes the
    content gcd only against gcd(k, lambda^{n+1}), a short number when lambda
    is; the result is the same reduced vector.

    A step runs on integers only, fraction-free in the manner of Bareiss:
    u is the integer m_r[r+d] over q_r, and D_{r-1} and the factor of
    P_{r'} enter by their numerators and denominators.  The coefficients
    (c, c_b) over k are first a positive multiple of (a_{d+1}/q_r, beta, 1),
    which the triangular solve and the gcd reduce to the same :class:`ScanStep`
    as reduced rationals would.  A generic step (d = 0) solves its one row in
    closed form, without the factor u that the solve would bring.  Only the
    values the scan returns are rationals: each D_n, D'_{n+1} and factor of
    P_n is one reduced Fraction of an integer numerator and denominator.

    This is one :meth:`HankelScanner.extend` with every term.  A scanner
    given its terms in pieces stops where the prefix ends (inside a zero run,
    or before a step whose coefficients need the next terms) and continues
    from there: the m_r of its open block and of the one before it are
    continued at the new indices as L(x^j P) from the integers of P, which
    are first multiplied up where the new terms bring new denominators.
    """
    return HankelScanner(polys).extend(s).result()


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _require_index(s: MomentSequence, needed: int) -> None:
    if needed > s.max_index:
        raise IndexOutOfRange(needed, s.horizon)


def _scan_through(seq: MomentSequence, top: int, polys: bool = False) -> HankelScan:
    """The scan of s_0..s_top (top >= -1), the terms that fix what the caller
    reads off it; IndexOutOfRange names s_top when the prefix lacks it."""
    _require_index(seq, top)
    return hankel_scan(seq.prefix(top + 1), polys)


def hankel_matrix(s: SequenceLike, n: int) -> list[list[Fraction]]:
    """The (n+1) x (n+1) matrix (s_{i+j})."""
    seq = as_moments(s)
    _require_index(seq, 2 * n)
    return [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]


def hankel_det(s: SequenceLike, n: int) -> Fraction:
    """D_n, the determinant of (s_{i+j})_{i,j=0..n}, by one scan of s_0..s_{2n}."""
    seq = as_moments(s)
    if n < 0:
        return Fraction(1)  # the empty determinant
    return _scan_through(seq, 2 * n).d_values[n]


def shifted_det(s: SequenceLike, n: int) -> Fraction:
    """D'_{n+1}: determinant of H_n with its last column advanced one step.

    Equivalently the minor of H_{n+1} deleting the last row and column n+1;
    D'_1 = s_1.  Needs moments through s_{2n+1}.
    """
    seq = as_moments(s)
    if n < 0:
        return Fraction(1)  # the empty determinant
    return _scan_through(seq, 2 * n + 1).d_prime_values[n]


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
