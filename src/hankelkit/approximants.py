"""Rank-r approximating sequences, gap determinants, and degree structure.

Whenever D_{r-1} != 0 the prefix s_0..s_{2r-1} determines a unique length-r
linear recurrence; running it forward yields the approximating sequence
s^(r), the unique rank-r extension agreeing with s through index 2r-1.
Comparing s against s^(r) converts determinant questions into term
comparisons: the first disagreement index is the characteristic d_r, a run of
agreements is equivalent to a run of vanishing determinants, and the first
disagreement value gives D_{r+d} in closed form (the gap formula) without any
large determinant.

Every rank-r recurrence in the package is read off P_r by
:func:`_recurrence_from_p` and run by :func:`_extension_values`.  As
d_k = -p_{r,k}/D_{r-1} is a ratio of P_r's own coefficients (D_{r-1} leads),
any multiple of P_r gives it: the scan's integers p_int[r] serve as they are.

The degree profile organizes the determinant polynomials P_n of an arbitrary
nonzero sequence: full-degree indices n_0 < n_1 < ..., identically-zero
blocks between them, the constant proportionality P_{n_{k+1}-1} = gamma_k
P_{n_k} across gaps, and the block three-term recurrence
p_{n_{k+1}} = a_k(x) p_{n_k} - beta_k p_{n_{k-1}} on the monic normalizations
(with p at the index before n_0 taken to be 0, which leaves beta_0 free; it
is reported as 1 by convention).  All of it is read off the block steps of
one :func:`core.hankel_scan`, which builds P_n by that recurrence; an anomaly
means a full-degree P_n failed the independent check against the moments,
L(x^j P_n) = 0 for j < n (:func:`core._is_witness`, no code of the scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence, Union

from .core import (
    MomentSequence,
    SequenceLike,
    _is_witness,
    _require_index,
    _scan_through,
    as_moments,
    hankel_scan,
    scale_to_integers,
)
from .errors import GapHypothesisViolated, SingularLeadingMinor, ZeroSequence
from .polynomials import Polynomial
from .scalars import format_rational


@dataclass(frozen=True)
class ApproxRecurrence:
    """Recurrence data (r, d_0..d_{r-1}), Fraction or mpf, generating the rank-r extension s^(r)."""

    r: int
    d: tuple

    def to_json(self) -> dict:
        return {"r": self.r, "d": [format_rational(v) for v in self.d]}


@dataclass(frozen=True)
class ExceedsHorizon:
    """Verdict value: no mismatch was found within the known prefix.

    Finite data can never certify that the characteristic is infinite, so
    this carries the horizon up to which agreement was verified.
    """

    horizon: int


def recurrence_coeffs(s: SequenceLike, r: int) -> ApproxRecurrence:
    """The solution d of (s_{i+j})_{i,j<r} d = (s_{r+i})_i, exactly.

    Read off P_r as d_k = -p_{r,k}/D_{r-1} (D_{r-1} is P_r's leading
    coefficient); tests cross-validate it against an elimination solve.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    return _recurrence_from_p(_scan_through(as_moments(s), 2 * r - 1, polys=True).p_int[r], r)


def _recurrence_from_p(p: Sequence, r: int) -> ApproxRecurrence:
    """d_k = -p_k/p_r off the coefficients p, lowest first, of any multiple
    c P_r, c != 0 (the scan's integers p_int[r], or a Polynomial's Fractions):
    -c p_{r,k}/(c D_{r-1}) = -p_{r,k}/D_{r-1}, so c cancels.  A zero or short p
    (D_{r-1} = 0) raises SingularLeadingMinor(r)."""
    if len(p) <= r or p[r] == 0:
        raise SingularLeadingMinor(r)
    return ApproxRecurrence(r, tuple([Fraction(-p[k], p[r]) for k in range(r)]))


def _extension_values(seq: Sequence, rec: ApproxRecurrence, upto: int) -> list:
    """Values s^(r)_0..s^(r)_upto: copied prefix (up to 2r terms of seq), then the
    recurrence, summed in index order from the first product (seq and rec.d:
    Fraction or mpf)."""
    r = rec.r
    values = [seq[i] for i in range(min(2 * r, len(seq), upto + 1))]
    for idx in range(len(values), upto + 1):
        acc = rec.d[0] * values[idx - r]
        for k in range(1, r):
            acc += rec.d[k] * values[idx - r + k]
        values.append(acc)
    return values


def approx_sequence(s: SequenceLike, r: int, m_out: int) -> MomentSequence:
    """The approximating sequence s^(r) on indices 0..m_out."""
    if m_out < 2 * r - 1:
        raise ValueError("m_out must be at least 2r-1 (the copied prefix)")
    seq = as_moments(s)
    rec = recurrence_coeffs(seq, r)
    return MomentSequence(tuple(_extension_values(seq, rec, m_out)))


def shifted_recurrence_coeffs(
    ar: ApproxRecurrence, s: SequenceLike, n: int
) -> tuple[Fraction, ...]:
    """Coefficients d_{n,k} with sum_k d_{n,k} s^(r)_{k+m} = s^(r)_{r+n+m}.

    They form the first row of the (n+1)-th power of the companion matrix of
    the recurrence; d_{0,k} = d_k.
    """
    if n < 0:
        raise ValueError("shift must be >= 0")
    seq = as_moments(s)
    r = ar.r
    _require_index(seq, 2 * r - 1)
    if _extension_values(seq.terms[:r], ar, 2 * r - 1) != list(seq.terms[: 2 * r]):
        raise ValueError("recurrence does not generate this sequence prefix")
    # v tracks the first row of successive companion-matrix powers.
    v = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for _ in range(n + 1):
        v = [
            v[0] * ar.d[r - 1 - j] + (v[j + 1] if j + 1 < r else Fraction(0))
            for j in range(r)
        ]
    return tuple(reversed(v))


def characteristic(s: SequenceLike, r: int) -> Union[int, ExceedsHorizon]:
    """Smallest m with s_{2r+m} != s^(r)_{2r+m}, or ExceedsHorizon.

    Equals the length of the zero-determinant run after D_{r-1} whenever
    both quantities are within the horizon.
    """
    seq = as_moments(s)
    rec = recurrence_coeffs(seq, r)
    sigma = _extension_values(seq, rec, seq.max_index)
    for idx in range(2 * r, seq.max_index + 1):
        if seq[idx] != sigma[idx]:
            return idx - 2 * r
    return ExceedsHorizon(seq.horizon)


def gap_determinant(s: SequenceLike, r: int, d: int) -> Fraction:
    """D_{r+d} from the gap formula, assuming D_r = ... = D_{r+d-1} = 0.

    The hypothesis is verified through the equivalent term agreements
    s_{2r+j} = s^(r)_{2r+j}, j < d.  Then
    D_{r+d} = (-1)^{d(d+1)/2} (s_{2r+d} - s^(r)_{2r+d})^{d+1} D_{r-1};
    d = 0 is the rank-one update D_r = (s_{2r} - s^(r)_{2r}) D_{r-1}.
    """
    if d < 0:
        raise ValueError("gap must be >= 0")
    seq = as_moments(s)
    _require_index(seq, 2 * (r + d))
    if r < 1:
        raise ValueError("r must be >= 1")
    scan = _scan_through(seq, 2 * r - 1, polys=True)  # P_r and D_{r-1}
    rec = _recurrence_from_p(scan.p_int[r], r)
    lead = scan.d_values[r - 1]
    sigma = _extension_values(seq, rec, 2 * r + d)
    for j in range(d):
        if seq[2 * r + j] != sigma[2 * r + j]:
            raise GapHypothesisViolated(r + j)
    diff = seq[2 * r + d] - sigma[2 * r + d]
    sign = -1 if (d * (d + 1) // 2) % 2 else 1
    return sign * diff ** (d + 1) * lead


def shifted_gap_det(s: SequenceLike, r: int) -> Fraction:
    """D'_{r+1} via the rank-one update:

    D'_{r+1} = (s_{2r+1} - s^(r)_{2r+1}) D_{r-1} - (s_{2r} - s^(r)_{2r}) D'_r.
    """
    seq = as_moments(s)
    _require_index(seq, 2 * r + 1)
    if r < 1:
        raise ValueError("r must be >= 1")
    scan = _scan_through(seq, 2 * r - 1, polys=True)  # P_r, D_{r-1} and D'_r
    rec = _recurrence_from_p(scan.p_int[r], r)
    sigma = _extension_values(seq, rec, 2 * r + 1)
    return (seq[2 * r + 1] - sigma[2 * r + 1]) * scan.d_values[r - 1] - (
        seq[2 * r] - sigma[2 * r]
    ) * scan.d_prime_values[r - 1]


# ---------------------------------------------------------------------------
# Degree structure of the P_n family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockStep:
    """One step of the block recurrence p_{n_{k+1}} = a p_{n_k} - beta p_{n_{k-1}}."""

    k: int
    a: Polynomial
    beta: Fraction
    consistent: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "a": self.a.to_json(),
            "beta": format_rational(self.beta),
            "consistent": self.consistent,
        }


@dataclass(frozen=True)
class StructureReport:
    """Degree structure of P_0..P_{n_max} certified up to the prefix horizon."""

    full_degree_indices: tuple[int, ...]
    gammas: tuple[tuple[int, Fraction], ...]
    blocks: tuple[BlockStep, ...]
    zero_blocks: tuple[tuple[int, int], ...]
    tail_zero: bool
    horizon: int
    anomalies: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "full_degree_indices": list(self.full_degree_indices),
            "gammas": [{"k": k, "value": format_rational(g)} for k, g in self.gammas],
            "blocks": [b.to_json() for b in self.blocks],
            "zero_blocks": [list(pair) for pair in self.zero_blocks],
            "tail_zero": self.tail_zero,
            "horizon": self.horizon,
            "anomalies": list(self.anomalies),
        }


def degree_profile(s: SequenceLike) -> StructureReport:
    """Classify every computable P_n: full degree, zero, or gamma-multiple.

    The whole report is read off one :func:`core.hankel_scan`: full-degree
    indices and zero blocks from its P_n, gamma_k from the factors of P_{b-1}
    and P_a (the same integers), and a_k, beta_k from its block steps.  Each
    full-degree P_n is then checked against the moments alone, by the defining
    orthogonality L(x^j P_n) = 0 for j < n.  A failure, which the theory rules
    out and so signals an implementation bug, is reported as an anomaly and
    marks the block that built P_n inconsistent.
    """
    seq = as_moments(s)
    if seq.is_zero():
        raise ZeroSequence()
    n_max = len(seq) // 2
    scan = hankel_scan(seq.prefix(2 * n_max), polys=True)
    p_int, p_factor = scan.p_int, scan.p_factor
    full = tuple([n for n in range(n_max + 1) if len(p_int[n]) == n + 1])
    runs = (list(g) for is_zero, g in groupby(range(n_max + 1), key=lambda n: not p_int[n]) if is_zero)
    zero_blocks = [(run[0], run[-1]) for run in runs]
    gammas = [
        (k, p_factor[b - 1] / p_factor[a])
        for k, (a, b) in enumerate(zip(full, full[1:]))
        if b - a >= 2
    ]

    ints, _ = scale_to_integers(seq.terms[: 2 * n_max])
    anomalies: list[str] = []
    blocks: list[BlockStep] = []
    for k, (r, r_next, c, c_b) in enumerate(scan.steps):
        # On monic forms, p_int[r_next] ~ sum c_i x^i lead_r p_r + c_b lead_r' p_r'.
        top = c[-1]
        a = Polynomial(Fraction(ci, top) for ci in c)
        if k == 0:
            beta = Fraction(1)  # multiplies the (zero) polynomial below n_0; free
        else:
            beta = Fraction(-c_b * p_int[scan.steps[k - 1].r][-1], top * p_int[r][-1])
        p = p_int[r_next]
        consistent = _is_witness(p, ints, r_next, r_next)
        if not consistent:
            anomalies.append(f"P_{r_next} from block k={k} fails L(x^j P_{r_next}) = 0, j < {r_next}")
        blocks.append(BlockStep(k, a, beta, consistent))

    tail = range(full[-1] + 1, n_max + 1)
    return StructureReport(
        full_degree_indices=full,
        gammas=tuple(gammas),
        blocks=tuple(blocks),
        zero_blocks=tuple(zero_blocks),
        tail_zero=bool(tail) and all(not p_int[n] for n in tail),
        horizon=seq.horizon,
        anomalies=tuple(anomalies),
    )
