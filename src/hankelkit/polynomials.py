"""Hankel determinant polynomials and the moment-functional calculus.

P_n is the determinant of H_n with the last row replaced by the monomials
1, x, ..., x^n; expanding along that row shows the coefficient of x^j is the
signed maximal minor (-1)^{n+j} M_j of the first n rows of H_n.  No minor is
ever eliminated here: the whole family P_0, P_1, ... comes from the single
O(M^2) pass of :func:`core.hankel_scan`, which advances P_n by the gap
formula and the block three-term recurrence.  Q_n, the second-kind
companion, has coefficients given by a convolution of the P_n coefficients
with the moments, again with no extra determinants.

Jacobi data and determinant targets carry the same information:
D_n = prod_{k<=n} b_k^{n+1-k} and D'_{n+1} = (a_0 + ... + a_n) D_n.  So the
prescribed-determinant solver reads (a, b) off its targets in closed form,
and one routine rebuilds the moments from (a, b) by the mixed-moment
recurrence of the three-term relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import (
    HankelScan,
    MomentSequence,
    SequenceLike,
    _moment,
    _require_index,
    _scan_through,
    as_moments,
    scale_to_integers,
)
from .errors import (
    IndexOutOfRange,
    NonConstantResidual,
    NotQuasiDefinite,
    ParseError,
    ZeroB,
    ZeroTarget,
)
from .scalars import format_rational, parse_rational


def _normalize(coeffs: Iterable) -> tuple[Fraction, ...]:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients.

    The zero polynomial is the empty coefficient tuple; its degree is None
    (a distinguished value, never used in arithmetic).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Fraction | None:
        return self.coeffs[-1] if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(format_rational(c))
            else:
                mag = "" if abs(c) == 1 else f"{format_rational(abs(c))}*"
                term = f"{mag}x" if k == 1 else f"{mag}x^{k}"
                parts.append(term if c > 0 or parts else f"-{term}")
                if c < 0 and len(parts) > 1:
                    parts[-1] = f"-{term}"
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return f"Polynomial({text})"

    def __str__(self) -> str:
        return repr(self)[len("Polynomial(") : -1]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[k] + other[k] for k in range(n))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[k] - other[k] for k in range(n))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other: Union["Polynomial", Fraction, int]) -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            return Polynomial(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def times_x(self, power: int = 1) -> "Polynomial":
        if self.is_zero():
            return self
        return Polynomial((Fraction(0),) * power + self.coeffs)

    def derivative(self) -> "Polynomial":
        return Polynomial(k * self.coeffs[k] for k in range(1, len(self.coeffs)))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.is_zero():
            return {"coeffs": ["0"]}
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, doc) -> "Polynomial":
        if not isinstance(doc, dict) or "coeffs" not in doc or not isinstance(doc["coeffs"], list):
            raise ParseError('expected a JSON object {"coeffs": [...]}')
        return cls(parse_rational(c) for c in doc["coeffs"])


ZERO = Polynomial()
ONE = Polynomial((Fraction(1),))
X = Polynomial((Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# Determinant polynomials
# ---------------------------------------------------------------------------


def poly_P(s: SequenceLike, n: int) -> Polynomial:
    """P_n: bordered Hankel determinant with monomial last row; P_0 = 1.

    Coefficient of x^j is (-1)^{n+j} times the maximal minor M_j of the
    first n rows of H_n.  Computed by one scan of s_0..s_{2n-1}, the
    moments it needs.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ONE
    return Polynomial(_scan_through(as_moments(s), 2 * n - 1, polys=True).p_coeffs(n))


def p_family(s: SequenceLike, n_max: int) -> tuple[Polynomial, ...]:
    """P_0..P_{n_max} from one scan of s_0..s_{2 n_max - 1}."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    seq = as_moments(s)
    first_missing = len(seq) // 2 + 1  # a short prefix names the last term of this P_n
    scan = _scan_through(seq, 2 * min(n_max, first_missing) - 1, polys=True)
    return tuple([Polynomial(scan.p_coeffs(n)) for n in range(n_max + 1)])


def second_kind(s: SequenceLike, p: Polynomial) -> Polynomial:
    """The second-kind companion L_t[(p(x) - p(t)) / (x - t)] of p.

    Its coefficients are L of p shifted down: q_m = L(sum_k p_{k+m+1} x^k)
    = sum_k p_{k+m+1} s_k.  For p = P_n this is Q_n.  It reads s_0..s_{deg p - 1},
    and raises IndexOutOfRange naming s_{deg p - 1} when the prefix is shorter.
    """
    seq = as_moments(s)
    n = len(p.coeffs) - 1
    _require_index(seq, n - 1)
    # Integer sums over the two denominator lcms, then one division per q_m.
    p_int, p_scale = scale_to_integers(p.coeffs[1:])
    s_int, s_scale = scale_to_integers([seq[k] for k in range(n)])
    scale = p_scale * s_scale
    return Polynomial(Fraction(_moment(p_int[m:], s_int), scale) for m in range(n))


def poly_Q(s: SequenceLike, n: int) -> Polynomial:
    """Q_n, the second-kind polynomial; Q_0 = 0, Q_1 = s_0^2.

    Its coefficients are convolutions of the P_n coefficients with the
    moments: q_{n,m} = sum_{k=0}^{n-m-1} p_{n,k+m+1} s_k.
    """
    if n == 0:
        return ZERO
    seq = as_moments(s)
    return second_kind(seq, poly_P(seq, n))


def apply_L(s: SequenceLike, p: Polynomial) -> Fraction:
    """The moment functional: L(sum c_k x^k) = sum c_k s_k."""
    seq = as_moments(s)
    if not p.is_zero() and p.degree > seq.max_index:
        raise IndexOutOfRange(p.degree, seq.horizon)
    p_int, p_scale = scale_to_integers(p.coeffs)
    s_int, s_scale = scale_to_integers(seq.terms[: len(p_int)])
    return Fraction(_moment(p_int, s_int), p_scale * s_scale)


def kronecker_residual(s: SequenceLike, r: int) -> Fraction:
    """Residual of the constant identity P_{r-1} Q_r - P_r Q_{r-1} = D_{r-1}^2.

    Verifies the left side is a constant polynomial, then returns the
    difference against D_{r-1}^2 (always 0 for exact inputs).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    seq = as_moments(s)
    scan = _scan_through(seq, 2 * r - 1, polys=True)
    p_prev, p_cur = (Polynomial(scan.p_coeffs(n)) for n in (r - 1, r))
    combo = p_prev * second_kind(seq, p_cur) - p_cur * second_kind(seq, p_prev)
    if combo.degree not in (None, 0):
        raise NonConstantResidual(combo.degree)
    d = scan.d_values[r - 1]
    return combo[0] - d * d


def frobenius_recurrence_residual(s: SequenceLike, n: int) -> Polynomial:
    """Residual of the three-term relation linking P_{n-1}, P_n, P_{n+1}.

    D_{n-1} D_n x P_n - D_{n-1}^2 P_{n+1} - (D_{n-1} D'_{n+1} - D_n D'_n) P_n
    - D_n^2 P_{n-1}, with the conventions P_{-1} = 0, D_{-1} = 1, D'_0 = 0.
    Must be the zero polynomial.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = as_moments(s)
    scan = _scan_through(seq, 2 * n + 1, polys=True)
    d = (Fraction(1),) + scan.d_values  # D_{n-1} at index n
    dp = (Fraction(0),) + scan.d_prime_values  # D'_n at index n
    d_prev, d_cur, dp_cur, dp_next = d[n], d[n + 1], dp[n], dp[n + 1]
    p_prev = ZERO if n == 0 else Polynomial(scan.p_coeffs(n - 1))
    p_cur, p_next = Polynomial(scan.p_coeffs(n)), Polynomial(scan.p_coeffs(n + 1))
    return (
        (d_prev * d_cur) * p_cur.times_x()
        - (d_prev * d_prev) * p_next
        - (d_prev * dp_next - d_cur * dp_cur) * p_cur
        - (d_cur * d_cur) * p_prev
    )


# ---------------------------------------------------------------------------
# Jacobi form and prescribed determinants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobiCoeffs:
    """Three-term recurrence data: p_{n+1} = (x - a_n) p_n - b_n p_{n-1}."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal length")

    def to_json(self) -> dict:
        return {
            "a": [format_rational(v) for v in self.a],
            "b": [format_rational(v) for v in self.b],
        }

    @classmethod
    def from_json(cls, doc) -> "JacobiCoeffs":
        if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
            raise ParseError('expected a JSON object {"a": [...], "b": [...]}')
        if not isinstance(doc["a"], list) or not isinstance(doc["b"], list):
            raise ParseError('"a" and "b" must be lists of rational strings')
        if len(doc["a"]) != len(doc["b"]):
            raise ParseError('"a" and "b" must have equal length')
        return cls(
            tuple([parse_rational(v) for v in doc["a"]]),
            tuple([parse_rational(v) for v in doc["b"]]),
        )


def jacobi_from_moments(s: SequenceLike, n_terms: int) -> JacobiCoeffs:
    """Recurrence coefficients a_0..a_{N-1}, b_0..b_{N-1} from a quasi-definite prefix.

    Both come from one scan of s_0..s_{2N-1}.  Every step of a quasi-definite
    prefix is r -> r+1: P_{n+1} is proportional to (c_0 + c_1 x) P_n + c_b P_{n-1},
    so a_n = -c_0/c_1, which equals D'_{n+1}/D_n - D'_n/D_{n-1} (D_{-1} = 1,
    D'_0 = 0).  b_0 = D_0 and b_n = D_n D_{n-2} / D_{n-1}^2.
    """
    if n_terms < 1:
        raise ValueError("need at least one coefficient pair")
    scan = _scan_through(as_moments(s), 2 * n_terms - 1)
    for n, value in enumerate(scan.d_values):
        if value == 0:
            raise NotQuasiDefinite(n)
    return JacobiCoeffs(*_jacobi_read_off(scan, n_terms))


def _jacobi_read_off(scan: HankelScan, n_terms: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(a_0..a_{N-1}, b_0..b_{N-1}) of a scan whose D_0..D_{N-1} are nonzero
    (so its first N steps are r -> r+1): a_n = -c_0/c_1 of step n."""
    a = tuple([Fraction(-step.c[0], step.c[1]) for step in scan.steps[:n_terms]])
    return a, _b_from_dets(scan.d_values[:n_terms])


def _b_from_dets(d: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """b_n = D_n D_{n-2} / D_{n-1}^2 (D_{-2} = D_{-1} = 1, so b_0 = D_0) of nonzero D_0..D_{N-1}."""
    d = (Fraction(1), Fraction(1), *d)  # D_{n-2} at index n
    return tuple([
        Fraction(
            cur.numerator * prev2.numerator * prev.denominator**2,
            cur.denominator * prev2.denominator * prev.numerator**2,
        )
        for prev2, prev, cur in zip(d, d[1:], d[2:])
    ])


def moments_from_jacobi(j: JacobiCoeffs) -> MomentSequence:
    """The unique moments s_0..s_{2N-1} whose recurrence data is exactly j.

    The mixed moments sigma_{n,k} = L(p_n x^k) vanish for k < n and obey
    sigma_{n,k+1} = sigma_{n+1,k} + a_n sigma_{n,k} + b_n sigma_{n-1,k}
    (x p_n = p_{n+1} + a_n p_n + b_n p_{n-1}) from sigma_{0,0} = b_0, and
    s_k = sigma_{0,k}; column k needs n <= min(k, 2N-1-k) < N only.  Every
    lambda a_n and lambda^2 b_n (n >= 1) is an integer for lambda the lcm of
    the denominators of a, multiplied in turn by what lambda^2 misses of each
    b_n's denominator.  Column k holds integers v_n with sigma_{n,k} =
    b_0 v_n / (lambda^n q), q | lambda^k: the step runs on lambda a_n and
    lambda^2 b_n, then divides v and q by their gcd.
    """
    for k, bk in enumerate(j.b):
        if bk == 0:
            raise ZeroB(k)
    top = 2 * len(j.a) - 1
    if top < 0:
        return MomentSequence(())
    scale = math.lcm(*[v.denominator for v in j.a])
    for v in j.b[1:]:
        scale *= v.denominator // math.gcd(v.denominator, scale * scale)
    a = [v.numerator * (scale // v.denominator) for v in j.a]
    b = [0] + [v.numerator * (scale * scale // v.denominator) for v in j.b[1:]]
    b0 = j.b[0]
    s, column, q = [b0], [1], 1
    for k in range(1, top + 1):
        prev = [0] + column + [0, 0]  # v_{n-1} of column k-1 at index n
        column = [prev[n + 2] + a[n] * prev[n + 1] + b[n] * prev[n] for n in range(min(k, top - k) + 1)]
        q *= scale
        g = math.gcd(q, *column)
        if g > 1:
            column, q = [x // g for x in column], q // g
        s.append(Fraction(b0.numerator * column[0], b0.denominator * q))
    return MomentSequence(tuple(s))


def solve_prescribed(t: Sequence, t_prime: Sequence) -> MomentSequence:
    """The unique s_0..s_{2N-1} with D_n = t_n and D'_{n+1} = t'_n (all t_n != 0).

    By the identities above, b_n = t_n t_{n-2} / t_{n-1}^2 (t_{-1} = t_{-2} = 1)
    and a_n = t'_n / t_n - t'_{n-1} / t_{n-1} (t'_{-1} = 0); then
    :func:`moments_from_jacobi`.
    """
    targets = [parse_rational(v) for v in t]
    targets_prime = [parse_rational(v) for v in t_prime]
    if len(targets) != len(targets_prime):
        raise ValueError("t and t_prime must have equal length")
    for n, value in enumerate(targets):
        if value == 0:
            raise ZeroTarget(n)
    sums = [Fraction(0)] + [tp / tv for tp, tv in zip(targets_prime, targets)]  # a_0 + ... + a_{n-1} at n
    a = tuple([cur - prev for prev, cur in zip(sums, sums[1:])])
    return moments_from_jacobi(JacobiCoeffs(a, _b_from_dets(targets)))
