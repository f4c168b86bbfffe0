"""Finite-rank certification for infinite Hankel matrices.

A sequence has Hankel rank r exactly when four equivalent statements hold:
the infinite Hankel matrix has matrix rank r; the determinants satisfy
D_{r-1} != 0 with D_n = 0 for every n >= r; the generating series
sum s_k / x^{k+1} is the rational function Q_r(x)/P_r(x) with deg P_r = r;
and the terms satisfy the length-r recurrence
D_{r-1} s_{r+m} + sum_{k<r} p_{r,k} s_{k+m} = 0 for all m >= 0.

`hankel_rank` certifies via the recurrence route (the cheapest exact one) and
`finite_rank_checks` evaluates every route independently so tests can insist
they agree.  All verdicts are horizon-certified: finite data can only attest
prefix consistency, so the certificate records how far it looked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .approximants import ApproxRecurrence, _recurrence_from_p, approx_sequence
from .core import (
    DeterminantProfile,
    MomentSequence,
    SequenceLike,
    as_moments,
    determinant_transform,
    echelonize,
    hankel_det,
    hankel_scan,
    scale_to_integers,
)
from .errors import DegreeViolation, IndexOutOfRange, SingularLeadingMinor
from .polynomials import Polynomial, poly_P, poly_Q
from .scalars import RealScalar, format_rational, real_scalar, to_mpf

from mpmath import mp


@dataclass(frozen=True)
class RationalForm:
    """Numerator/denominator pair (Q_r, P_r) of a generating series."""

    p: Polynomial
    q: Polynomial

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "q": self.q.to_json()}


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of rank certification over a finite prefix.

    verdict is one of "ZeroSequence", "FiniteRank", "RankAtLeast"; rank is the
    largest r with D_{r-1} != 0 in the prefix (0 for the zero sequence); the
    witness recurrence is present exactly for FiniteRank verdicts.
    """

    verdict: str
    rank: int
    horizon: int
    witness: Optional[ApproxRecurrence]
    d_profile: DeterminantProfile

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "rank": self.rank,
            "horizon": self.horizon,
            "recurrence": (
                [format_rational(v) for v in self.witness.d]
                if self.witness is not None
                else None
            ),
        }


def hankel_rank(s: SequenceLike) -> RankCertificate:
    """Certify the Hankel rank of s as far as the prefix allows.

    FiniteRank(r) is emitted iff D_{r-1} != 0, the recurrence
    D_{r-1} s_{r+m} + sum_{k<r} p_{r,k} s_{k+m} = 0 holds for every in-prefix
    m >= 0, and r's defining data s_0..s_{2r-1} is in the prefix; otherwise
    RankAtLeast(r) with r the last nonvanishing-determinant index + 1.
    The profile and P_r come from one scan with polynomials.
    """
    seq = as_moments(s)
    scan = hankel_scan(seq, polys=True)
    profile = DeterminantProfile(scan.d_values, scan.d_prime_values, seq.horizon)
    if seq.is_zero():
        return RankCertificate("ZeroSequence", 0, seq.horizon, None, profile)
    r_star = 0
    for n, value in enumerate(profile.d_values):
        if value != 0:
            r_star = n + 1
    if r_star == 0 or 2 * r_star - 1 > seq.max_index:
        return RankCertificate("RankAtLeast", r_star, seq.horizon, None, profile)
    if not recurrence_holds(seq, scan.p_int[r_star], r_star):
        return RankCertificate("RankAtLeast", r_star, seq.horizon, None, profile)
    witness = _recurrence_from_p(scan.p_coeffs(r_star), r_star)
    return RankCertificate("FiniteRank", r_star, seq.horizon, witness, profile)


def recurrence_holds(seq: MomentSequence, p: Sequence[int], r: int) -> bool:
    """Whether sum_{k<=r} p_k s_{k+m} = 0 for every in-prefix m >= 0.

    p holds integer coefficients of a nonzero multiple of P_r, lowest first,
    with absent high ones zero (the scan's p_int); the sequence is scaled to integers
    by the lcm of its denominators, so the check is exact integer arithmetic.
    """
    s, _ = scale_to_integers(seq.terms)
    return all(
        sum(c * x for c, x in zip(p, s[m : m + r + 1])) == 0 for m in range(len(s) - r)
    )


def rational_form(s: SequenceLike, r: int) -> RationalForm:
    """The pair (P_r, Q_r); for a FiniteRank-r sequence, its generating
    rational function sum s_k/x^{k+1} = Q_r(x)/P_r(x)."""
    seq = as_moments(s)
    if 2 * r - 1 > seq.max_index:
        raise IndexOutOfRange(2 * r - 1, seq.horizon)
    if r >= 1 and hankel_det(seq, r - 1) == 0:
        raise SingularLeadingMinor(r)
    return RationalForm(p=poly_P(seq, r), q=poly_Q(seq, r))


def expand_rational(rf: RationalForm, m_out: int) -> MomentSequence:
    """Exact expansion coefficients a_0..a_{m_out} of q/p = sum a_m/x^{m+1}.

    The first deg(p) coefficients come from a triangular system matching
    powers of x, after which each term follows from the recurrence
    pi_rho a_{m+rho} + sum_{k<rho} pi_k a_{m+k} = 0.
    """
    if m_out < 0:
        raise ValueError("m_out must be >= 0")
    if rf.p.is_zero():
        raise DegreeViolation("denominator polynomial is zero")
    rho = rf.p.degree
    if rf.q.degree is not None and rf.q.degree >= rho:
        raise DegreeViolation(
            f"numerator degree {rf.q.degree} must be below denominator degree {rho}"
        )
    if rho == 0:
        return MomentSequence((Fraction(0),) * (m_out + 1))
    pi = rf.p.padded(rho + 1)
    terms: list[Fraction] = []
    for m in range(min(rho, m_out + 1)):
        acc = rf.q[rho - 1 - m]
        for k in range(m):
            acc -= pi[rho - (m - k)] * terms[k]
        terms.append(acc / pi[rho])
    for m in range(m_out + 1 - rho):
        acc = Fraction(0)
        for k in range(rho):
            acc += pi[k] * terms[m + k]
        terms.append(-acc / pi[rho])
    return MomentSequence(tuple(terms[: m_out + 1]))


def growth_estimate(s: SequenceLike, precision_bits: int) -> RealScalar:
    """max |s_k|^{1/k} over the tail half of the prefix.

    A finite-sample proxy for the limsup growth rate; approximate by nature,
    but evaluated at the requested precision.
    """
    seq = as_moments(s)
    if len(seq) < 8:
        raise ValueError("growth estimate needs at least 8 terms")
    with mp.workprec(precision_bits):
        best = mp.mpf(0)
        for k in range(len(seq) // 2, len(seq)):
            term = abs(to_mpf(seq[k], precision_bits))
            value = mp.root(term, k) if term != 0 else mp.mpf(0)
            if value > best:
                best = value
        return real_scalar(best, precision_bits)


def finite_rank_checks(s: SequenceLike, r: int) -> dict[str, bool]:
    """Evaluate each equivalent characterization of 'Hankel rank r' separately.

    Returns a dict of independent boolean verdicts; on any genuine rank-r
    prefix they must all be True, and tests rely on their unanimity:

    - "window_rank": the largest rectangular Hankel window of the prefix has
      matrix rank exactly r (row reduction, no determinants).
    - "determinants_vanish": D_{r-1} != 0 and every computable D_n = 0 for n >= r.
    - "recurrence_holds": the length-r recurrence with weights from P_r's
      coefficients annihilates the whole prefix.
    - "approximant_match": the rank-r approximating sequence reproduces the
      prefix term-for-term.
    - "rational_expansion_match": re-expanding Q_r/P_r reproduces the prefix.
    """
    seq = as_moments(s)
    m = seq.max_index
    if 2 * r - 1 > m:
        raise IndexOutOfRange(2 * r - 1, seq.horizon)

    n_rows = m // 2 + 1
    n_cols = m + 2 - n_rows
    window = [[seq[i + j] for j in range(n_cols)] for i in range(n_rows)]
    window_rank = len(echelonize(window)[2]) == r

    profile = determinant_transform(seq) if len(seq) else DeterminantProfile((), (), 0)
    lead_ok = r == 0 or (len(profile.d_values) >= r and profile.d_values[r - 1] != 0)
    determinants_vanish = lead_ok and all(
        value == 0 for value in profile.d_values[r:]
    )

    p = hankel_scan(seq.prefix(2 * r), polys=True).p_int[r]
    annihilates = recurrence_holds(seq, p, r)

    if r >= 1 and hankel_det(seq, r - 1) != 0:
        approximant_match = approx_sequence(seq, r, m) == seq
        rational_expansion_match = expand_rational(rational_form(seq, r), m) == seq
    elif r == 0:
        approximant_match = seq.is_zero()
        rational_expansion_match = seq.is_zero()
    else:
        approximant_match = False
        rational_expansion_match = False

    return {
        "window_rank": window_rank,
        "determinants_vanish": determinants_vanish,
        "recurrence_holds": annihilates,
        "approximant_match": approximant_match,
        "rational_expansion_match": rational_expansion_match,
    }
