"""Finite-rank certification for infinite Hankel matrices.

A sequence has Hankel rank r exactly when four equivalent statements hold:
the infinite Hankel matrix has matrix rank r; the determinants satisfy
D_{r-1} != 0 with D_n = 0 for every n >= r; the generating series
sum s_k / x^{k+1} is the rational function Q_r(x)/P_r(x) with deg P_r = r;
and the terms satisfy the length-r recurrence
L(x^m P_r) = D_{r-1} s_{r+m} + sum_{k<r} p_{r,k} s_{k+m} = 0 for all m >= 0.

`hankel_rank` certifies by the FiniteRank rule (:func:`_finite_rank`: the
recurrence route, the cheapest exact one) and `finite_rank_checks` evaluates
the routes, one elimination and four readings of one scan, so tests can
insist they agree.  All verdicts are horizon-certified: finite data can
only attest prefix consistency, so the certificate records how far it looked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .approximants import ApproxRecurrence, _extension_values, _recurrence_from_p
from .core import (
    DeterminantProfile,
    HankelScan,
    MomentSequence,
    SequenceLike,
    _is_witness,
    _require_index,
    as_moments,
    echelonize,
    hankel_scan,
    scale_to_integers,
)
from .errors import DegreeViolation, SingularLeadingMinor
from .polynomials import Polynomial, poly_P, second_kind
from .scalars import RealScalar, format_rational, real_scalar, to_mpf


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

    With r the last nonvanishing-determinant index + 1, FiniteRank(r) is
    emitted iff the rule of :func:`_finite_rank` holds for r; otherwise
    RankAtLeast(r).  The profile and P_r come from one scan with polynomials.
    """
    seq = as_moments(s)
    scan = hankel_scan(seq, polys=True)
    profile = DeterminantProfile(scan.d_values, scan.d_prime_values, seq.horizon)
    if seq.is_zero():
        return RankCertificate("ZeroSequence", 0, seq.horizon, None, profile)
    r_star = 1 + max((n for n, value in enumerate(scan.d_values) if value != 0), default=-1)
    if not _finite_rank(seq, scan, r_star):
        return RankCertificate("RankAtLeast", r_star, seq.horizon, None, profile)
    witness = _recurrence_from_p(scan.p_int[r_star], r_star)
    return RankCertificate("FiniteRank", r_star, seq.horizon, witness, profile)


def _finite_rank(seq: MomentSequence, scan: HankelScan, r: int) -> bool:
    """The FiniteRank(r) rule on a scan with polynomials of all of seq: P_r is
    in the scan (s_0..s_{2r-1} are known) with degree r (D_{r-1} != 0), and
    L(x^m P_r) = 0 for every in-prefix m >= 0, on the integers of P_r and
    the lcm-scaled terms."""
    p = scan.p_int[r] if r < len(scan.p_int) else ()
    return _is_witness(p, scale_to_integers(seq.terms)[0], r, len(seq) - r)


def rational_form(s: SequenceLike, r: int) -> RationalForm:
    """The pair (P_r, Q_r); for a FiniteRank-r sequence, its generating
    rational function sum s_k/x^{k+1} = Q_r(x)/P_r(x).  One scan gives P_r,
    whose leading coefficient is D_{r-1}."""
    seq = as_moments(s)
    p = poly_P(seq, r)
    if r >= 1 and p[r] == 0:
        raise SingularLeadingMinor(r)
    return RationalForm(p=p, q=second_kind(seq, p))


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
    pi = rf.p.coeffs
    terms: list[Fraction] = []
    for m in range(min(rho, m_out + 1)):
        acc = rf.q[rho - 1 - m]
        for k in range(m):
            acc -= pi[rho - (m - k)] * terms[k]
        terms.append(acc / pi[rho])
    return MomentSequence(tuple(_extension_values(terms, _recurrence_from_p(pi, rho), m_out)))


def growth_estimate(s: SequenceLike, precision_bits: int) -> RealScalar:
    """max |s_k|^{1/k} over the tail half of the prefix.

    A finite-sample proxy for the limsup growth rate; approximate by nature,
    but evaluated at the requested precision.
    """
    from mpmath import mp

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

    Returns a dict of boolean verdicts; on any genuine rank-r prefix they must
    all be True, and tests rely on their unanimity.  The window rank is one
    elimination; the other four read one scan with polynomials of the prefix:

    - "window_rank": the largest rectangular Hankel window of the prefix has
      matrix rank exactly r (row reduction, no determinants).
    - "determinants_vanish": D_{r-1} != 0 and every computable D_n = 0 for n >= r.
    - "recurrence_holds": the FiniteRank(r) rule of :func:`_finite_rank`: P_r has
      degree r and its length-r recurrence, L(x^m P_r) = 0, annihilates the
      whole prefix.
    - "approximant_match": the rank-r approximating sequence reproduces the
      prefix term-for-term.
    - "rational_expansion_match": re-expanding Q_r/P_r reproduces the prefix.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    seq = as_moments(s)
    _require_index(seq, 2 * r - 1)
    scan = hankel_scan(seq, polys=True)
    d = scan.d_values
    m = seq.max_index

    n_rows = m // 2 + 1
    n_cols = m + 2 - n_rows
    window = [[seq[i + j] for j in range(n_cols)] for i in range(n_rows)]
    window_rank = len(echelonize(window)[2]) == r

    lead_ok = r == 0 or d[r - 1] != 0
    determinants_vanish = lead_ok and all(value == 0 for value in d[r:])

    approximant_match = rational_expansion_match = r == 0 and seq.is_zero()
    if r and lead_ok:
        p = Polynomial(scan.p_coeffs(r))
        approximant_match = _extension_values(seq, _recurrence_from_p(scan.p_int[r], r), m) == list(seq.terms)
        rational_expansion_match = expand_rational(RationalForm(p, second_kind(seq, p)), m) == seq

    return {
        "window_rank": window_rank,
        "determinants_vanish": determinants_vanish,
        "recurrence_holds": _finite_rank(seq, scan, r),
        "approximant_match": approximant_match,
        "rational_expansion_match": rational_expansion_match,
    }
