"""Hankel determinant polynomials and the moment-functional calculus.

P_n is the determinant of H_n with the last row replaced by the monomials
1, x, ..., x^n; expanding along that row shows the coefficient of x^j is the
signed maximal minor (-1)^{n+j} M_j of the first n rows of H_n.  No minor is
ever eliminated here: the whole family P_0, P_1, ... comes from the single
O(M^2) pass of :func:`core.hankel_scan`, which advances P_n by the gap
formula and the block three-term recurrence.  Q_n, the second-kind
companion, has coefficients given by a convolution of the P_n coefficients
with the moments, again with no extra determinants.

The same bottom-row expansion gives two workhorse identities used by the
prescribed-determinant solver: L(x^n P_n) = D_n and L(x^{n+1} P_n) = D'_{n+1},
which, read as linear equations in the newest moment, determine s_{2n} and
s_{2n+1} from determinant targets (t_n, t'_n) uniquely when all t_n != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from mpmath import mp

from .core import (
    MomentSequence,
    SequenceLike,
    as_moments,
    hankel_scan,
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

    def padded(self, length: int) -> tuple[Fraction, ...]:
        return tuple(self[k] for k in range(length))

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

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lead = self.leading
        return Polynomial(c / lead for c in self.coeffs)

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division over the rationals."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = divisor.leading
        ddeg = divisor.degree
        quot = [Fraction(0)] * max(len(rem) - ddeg, 0)
        while len(rem) - 1 >= ddeg and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < ddeg:
                break
            shift = len(rem) - 1 - ddeg
            factor = rem[-1] / dlead
            quot[shift] = factor
            for k in range(ddeg + 1):
                rem[shift + k] -= factor * divisor.coeffs[k]
        return Polynomial(quot), Polynomial(rem)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor (constant 1 for coprime inputs)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.monic()

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mpf(self, x, precision_bits: int):
        """Horner evaluation in mpmath arithmetic at the stated precision."""
        with mp.workprec(precision_bits):
            acc = mp.mpf(0)
            for c in reversed(self.coeffs):
                term = mp.mpf(c.numerator) / c.denominator
                acc = acc * x + term
            return +acc

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
    seq = as_moments(s)
    if 2 * n - 1 > seq.max_index:
        raise IndexOutOfRange(2 * n - 1, seq.horizon)
    return Polynomial(hankel_scan(seq.prefix(2 * n), polys=True).p_coeffs(n))


def p_family(s: SequenceLike, n_max: int) -> tuple[Polynomial, ...]:
    """P_0..P_{n_max} from one scan of s_0..s_{2 n_max - 1}."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    seq = as_moments(s)
    if 2 * n_max - 1 > seq.max_index:
        first_missing = len(seq) // 2 + 1  # the smallest n whose P_n the prefix lacks
        raise IndexOutOfRange(2 * first_missing - 1, seq.horizon)
    scan = hankel_scan(seq.prefix(2 * n_max), polys=True)
    return tuple(Polynomial(scan.p_coeffs(n)) for n in range(n_max + 1))


def second_kind(s: SequenceLike, p: Polynomial) -> Polynomial:
    """The second-kind companion L_t[(p(x) - p(t)) / (x - t)] of p.

    Its coefficients are convolutions of p's coefficients with the moments:
    q_m = sum_k p_{k+m+1} s_k.  For p = P_n this is Q_n.
    """
    seq = as_moments(s)
    n = len(p.coeffs) - 1
    # One integer convolution over the two denominator lcms, then one division per q_m.
    p_int, p_scale = scale_to_integers(p.coeffs[1:])
    s_int, s_scale = scale_to_integers([seq[k] for k in range(n)])
    scale = p_scale * s_scale
    return Polynomial(Fraction(sum(p_int[k + m] * s_int[k] for k in range(n - m)), scale) for m in range(n))


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
    acc = Fraction(0)
    for k, c in enumerate(p.coeffs):
        acc += c * seq[k]
    return acc


def kronecker_residual(s: SequenceLike, r: int) -> Fraction:
    """Residual of the constant identity P_{r-1} Q_r - P_r Q_{r-1} = D_{r-1}^2.

    Verifies the left side is a constant polynomial, then returns the
    difference against D_{r-1}^2 (always 0 for exact inputs).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    seq = as_moments(s)
    if 2 * r - 1 > seq.max_index:
        raise IndexOutOfRange(2 * r - 1, seq.horizon)
    scan = hankel_scan(seq.prefix(2 * r), polys=True)
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
    seq = as_moments(s)
    if 2 * n + 1 > seq.max_index:
        raise IndexOutOfRange(2 * n + 1, seq.horizon)
    scan = hankel_scan(seq.prefix(2 * n + 2), polys=True)
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
            tuple(parse_rational(v) for v in doc["a"]),
            tuple(parse_rational(v) for v in doc["b"]),
        )


def jacobi_from_moments(s: SequenceLike, n_terms: int) -> JacobiCoeffs:
    """Recurrence coefficients a_0..a_{N-1}, b_0..b_{N-1} from a quasi-definite prefix.

    a_n = D'_{n+1}/D_n - D'_n/D_{n-1} and b_0 = D_0,
    b_n = D_n D_{n-2} / D_{n-1}^2, with D_{-1} = 1 and D'_0 = 0.
    """
    if n_terms < 1:
        raise ValueError("need at least one coefficient pair")
    seq = as_moments(s)
    if 2 * n_terms - 1 > seq.max_index:
        raise IndexOutOfRange(2 * n_terms - 1, seq.horizon)
    scan = hankel_scan(seq.prefix(2 * n_terms))
    for n, value in enumerate(scan.d_values):
        if value == 0:
            raise NotQuasiDefinite(n)
    d = [Fraction(1)] + list(scan.d_values)  # D_{-1} at index 0
    dp = [Fraction(0)] + list(scan.d_prime_values)  # D'_0..D'_N
    a = tuple(dp[n + 1] / d[n + 1] - dp[n] / d[n] for n in range(n_terms))
    b_list = [d[1]]
    for n in range(1, n_terms):
        prev2 = d[n - 1]  # D_{n-2}, with D_{-1} = 1 at index 0
        b_list.append(d[n + 1] * prev2 / (d[n] * d[n]))
    return JacobiCoeffs(a, tuple(b_list))


def moments_from_jacobi(j: JacobiCoeffs) -> MomentSequence:
    """The unique moments s_0..s_{2N-1} whose recurrence data is exactly j.

    Determinant targets follow from D_n = prod b_k^{n+1-k} and
    D'_{n+1} = (a_0 + ... + a_n) D_n; the prescribed solver does the rest.
    """
    n_terms = len(j.a)
    for k, bk in enumerate(j.b):
        if bk == 0:
            raise ZeroB(k)
    t: list[Fraction] = []
    t_prime: list[Fraction] = []
    det = Fraction(1)
    b_product = Fraction(1)
    a_sum = Fraction(0)
    for n in range(n_terms):
        b_product *= j.b[n]
        det *= b_product
        a_sum += j.a[n]
        t.append(det)
        t_prime.append(a_sum * det)
    return solve_prescribed(t, t_prime)


def solve_prescribed(t: Sequence, t_prime: Sequence) -> MomentSequence:
    """The unique s_0..s_{2N-1} with D_n = t_n and D'_{n+1} = t'_n (all t_n != 0).

    Expanding D_n and D'_{n+1} along their last rows gives
    s_{2n} t_{n-1} = t_n - sum_{j<n} p_{n,j} s_{n+j} and
    s_{2n+1} t_{n-1} = t'_n - sum_{j<n} p_{n,j} s_{n+1+j},
    so each step needs one P_n and two dot products.
    """
    targets = [parse_rational(v) for v in t]
    targets_prime = [parse_rational(v) for v in t_prime]
    if len(targets) != len(targets_prime):
        raise ValueError("t and t_prime must have equal length")
    for n, value in enumerate(targets):
        if value == 0:
            raise ZeroTarget(n)
    if not targets:
        return MomentSequence(())
    s: list[Fraction] = [targets[0], targets_prime[0]]
    for n in range(1, len(targets)):
        p = poly_P(MomentSequence(tuple(s)), n).padded(n + 1)
        lead = p[n]  # = D_{n-1} = t_{n-1}, nonzero by induction on the targets
        acc_even = Fraction(0)
        for jj in range(n):
            acc_even += p[jj] * s[n + jj]
        s.append((targets[n] - acc_even) / lead)
        acc_odd = Fraction(0)
        for jj in range(n):
            acc_odd += p[jj] * s[n + 1 + jj]
        s.append((targets_prime[n] - acc_odd) / lead)
    return MomentSequence(tuple(s))
