"""Recovery of a discrete measure from a positive-definite flat prefix.

If D_0..D_{r-1} > 0 and every later computable determinant vanishes, the
sequence is the moment sequence of a unique positive measure supported on r
distinct real points: the atoms sit at the r (real, simple) roots of P_r and
the weight at root lambda is the partial-fraction residue
Q_r(lambda) / P_r'(lambda), equivalently the reciprocal of the
Christoffel-Darboux sum  sum_{k<r} P_k(lambda)^2 / (D_k D_{k-1}).

Roots are isolated with exact Sturm chains over the integers (primitive
pseudo-remainders, each a positive multiple of the rational chain's element),
and each isolated (simple) root is refined by the sign of P_r alone: a Newton
step from the cell's midpoint, computed in integers, proposes a much narrower
cell and exact integer signs at its two ends must confirm it (Abbott's
quadratic interval refinement), otherwise the cell is halved.  Both stages
cut on one dyadic grid, so the enclosures are guaranteed disjoint; no
floating point enters isolation.  Weights are computed by both formulas on
mpmath's raw mpf tuples at precision_bits, every step rounded to nearest
(each rational converted once per measure, as mp.mpf(numerator) / denominator
converts it), and must agree.  The recovered measure's moments are re-checked
against the input in interval arithmetic on raw interval tuples at
precision_bits, rounded outward at every step; the residual's upper end is
rounded up and never rounded again.  Nothing in this module trusts an
unverified numeric step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence

from mpmath import mp
from mpmath.libmp import (
    fone,
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_shift,
    mpf_sign,
    mpf_sub,
    mpi_abs,
    mpi_add,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
    round_nearest,
)

from .core import (
    HankelScan,
    MomentSequence,
    SequenceLike,
    as_moments,
    hankel_scan,
    scale_to_integers,
)
from .errors import (
    DegreeViolation,
    IndexOutOfRange,
    NonPositiveWeight,
    NotPSDFlat,
    NotQuasiDefinite,
    RootCountMismatch,
    WeightMismatch,
    ZeroSequence,
)
from .polynomials import ZERO, Polynomial, second_kind
from .rank import recurrence_holds
from .scalars import (
    DEFAULT_PRECISION_BITS,
    RealScalar,
    format_rational,
    parse_rational,
)


@dataclass(frozen=True)
class Interval:
    """Rational enclosure (lo, hi]; after isolation it brackets one root."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_json(self) -> list[str]:
        return [format_rational(self.lo), format_rational(self.hi)]


@dataclass(frozen=True)
class Atom:
    location: RealScalar
    enclosure: Interval
    weight: RealScalar

    def to_json(self) -> dict:
        return {
            "location": self.location.to_str(),
            "enclosure": self.enclosure.to_json(),
            "weight": self.weight.to_str(),
        }


@dataclass(frozen=True)
class DiscreteMeasure:
    """A sum of r positive point masses at distinct real locations."""

    atoms: tuple[Atom, ...]
    r: int

    def to_json(self) -> dict:
        return {"atoms": [atom.to_json() for atom in self.atoms], "r": self.r}


def psd_finite_rank_check(s: SequenceLike) -> int:
    """Return r if the determinant profile is strictly positive then flat zero.

    Requires D_0 .. D_{r-1} > 0, all later computable D_n = 0, and the rank
    certificate to confirm FiniteRank r.  Raises NotPSDFlat at the first
    offending determinant (or missing flat region) otherwise.
    """
    return _psd_flat_scan(as_moments(s))[0]


def _psd_flat_scan(seq: MomentSequence) -> tuple[int, HankelScan]:
    """psd_finite_rank_check's r, with the one scan (every D_n and P_n) it read."""
    if seq.is_zero():
        raise ZeroSequence()
    scan = hankel_scan(seq, polys=True)
    d = scan.d_values
    r = 0
    while r < len(d) and d[r] > 0:
        r += 1
    if r < len(d) and d[r] < 0:
        raise NotPSDFlat(r, d[r], "negative determinant")
    for n in range(r, len(d)):
        if d[n] != 0:
            raise NotPSDFlat(n, d[n], "determinant becomes nonzero after the zero run")
    if r == len(d):
        raise NotPSDFlat(
            r - 1, d[r - 1], "determinants never vanish within the horizon"
        )
    # The FiniteRank(r) certificate of hankel_rank: r = 0 has none, otherwise
    # the recurrence read off P_r must annihilate the whole prefix.
    if r == 0 or not recurrence_holds(seq, scan.p_int[r], r):
        raise NotPSDFlat(
            r,
            d[r - 1] if r else Fraction(0),
            "prefix is not rank-consistent with a finite-rank extension",
        )
    return r, scan


# ---------------------------------------------------------------------------
# Exact real-root isolation
# ---------------------------------------------------------------------------


def _horner(coeffs: Sequence[int], num: int, den: int) -> int:
    """The polynomial with integer coeffs (lowest first, degree d) at num/den,
    times den^d: sum c_i num^i den^(d-i), entirely over the integers."""
    acc = 0
    den_power = 1
    for c in reversed(coeffs):
        acc = acc * num + c * den_power
        den_power *= den
    return acc


class _Unreduced(NamedTuple):
    """The rational numerator / denominator (denominator > 0), not reduced:
    grid points skip Fraction's gcd, and only their signs are needed."""

    numerator: int
    denominator: int


def _sign_at(coeffs: Sequence[int], x: Fraction | _Unreduced) -> int:
    """Sign of the polynomial with integer coeffs at rational x (see _horner)."""
    value = _horner(coeffs, x.numerator, x.denominator)
    return (value > 0) - (value < 0)


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """coeffs divided by their content (a positive gcd); [] stays []."""
    content = gcd(*coeffs) or 1
    return [c // content for c in coeffs]


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of -(a mod b), primitive, for integer a, b (b nonzero).

    Pseudo-division that never multiplies by a negative number: each step
    scales the running remainder by |lc(b)| and cancels its top coefficient
    against a shifted b, so after k steps it is |lc(b)|^k times the rational
    remainder, whatever the sign of lc(b).
    """
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    rem = list(a)
    while len(rem) >= len(b):
        factor = rem[-1] * sign  # factor * lead = scale * top, so the top cancels
        shift = len(rem) - len(b)
        rem = [scale * c for c in rem]
        for k, c in enumerate(b):
            rem[shift + k] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return _primitive([-c for c in rem])


def _sturm_chain(p: Polynomial) -> list[list[int]]:
    """The Sturm chain of p over the integers, lowest coefficient first.

    Starts from the primitive integer multiple of p and of its derivative;
    each later element is the primitive negated pseudo-remainder of the two
    before it.  Every element is a positive multiple of the classical chain
    p, p', -rem(p, p'), ... over the rationals, so every sign, and every
    sign-change count, is the classical one.
    """
    a = _primitive(scale_to_integers(p.coeffs)[0])
    b = _primitive([k * c for k, c in enumerate(a)][1:])
    chain = [a]
    while b:
        chain.append(b)
        a, b = b, _negated_remainder(a, b)
    return chain


def _sign_changes(chain: list[list[int]], x: Fraction | _Unreduced) -> int:
    signs = [s for s in (_sign_at(c, x) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_bound(p: Polynomial) -> Fraction:
    """max(1, sum |p_k / p_lead|): all real roots lie within [-B, B]."""
    if p.is_zero() or p.degree == 0:
        return Fraction(1)
    lead = p.leading
    total = sum(abs(c / lead) for c in p.coeffs[:-1])
    return max(Fraction(1), total)


def isolate_real_roots(p: Polynomial, precision_bits: int = DEFAULT_PRECISION_BITS) -> list[Interval]:
    """Disjoint rational enclosures of ALL real roots of p, each of width
    at most 2^-precision_bits * max(1, root bound).

    Every enclosure is a cell (lo, hi] of one dyadic grid over
    [-B-1, B+1] (B the Cauchy bound): the cell at the first depth whose width
    is at most that target, or a deeper one where two roots share it.  Sturm
    bisection only isolates (it stops at one root per cell); each root is then
    refined by the sign of p alone (see _refine_root).

    Multiple roots are counted once (the generalized Sturm chain counts
    distinct roots).  Raises RootCountMismatch when p has fewer real roots
    than its degree, since callers in this package expect totally real
    polynomials.
    """
    if p.is_zero() or p.degree < 1:
        raise DegreeViolation("root isolation requires degree >= 1")
    chain = _sturm_chain(p)
    bound = cauchy_bound(p)
    lo, hi = -bound - 1, bound + 1
    target = max(Fraction(1), bound) / (Fraction(2) ** precision_bits)
    v_lo, v_hi = _sign_changes(chain, lo), _sign_changes(chain, hi)
    if v_lo - v_hi < p.degree:
        raise RootCountMismatch(p.degree, v_lo - v_hi)
    width = hi - lo

    def point(i: int, depth: int) -> _Unreduced:
        """Grid point lo + width * i / 2^depth; cell i at depth is (point i, point i+1]."""
        return _Unreduced(hi.numerator * ((i << 1) - (1 << depth)), hi.denominator << depth)

    ratio = width / target  # depth_k: the least k with 2^k >= ratio
    depth_k = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    coeffs = chain[0]
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    cells = []
    pending = [(0, 0, v_lo, v_hi)]  # (index, depth, V(left end), V(right end))
    while pending:
        i, depth, v_left, v_right = pending.pop()
        count = v_left - v_right
        if count == 1:
            cells.append(_refine_root(coeffs, slope, point, width, i, depth, depth_k))
        elif count > 1:
            v_mid = _sign_changes(chain, point(2 * i + 1, depth + 1))
            pending.append((2 * i, depth + 1, v_left, v_mid))
            pending.append((2 * i + 1, depth + 1, v_mid, v_right))
    intervals = [Interval(Fraction(*point(i, d)), Fraction(*point(i + 1, d))) for i, d in cells]
    intervals.sort(key=lambda interval: interval.lo)
    return intervals


def _newton_guess(
    coeffs: Sequence[int], slope: Sequence[int], x: _Unreduced, width: Fraction, bits: int
) -> tuple[int, int]:
    """One exact Newton step x' = x - p(x) / p'(x) from x = num/den.

    Returns p(x) den^d, whose sign is p's at x, and
    floor((x' - x) 2^bits / width), the offset of x' from x in cells of width
    width / 2^bits (0 where p'(x) = 0).  coeffs are p's integer coefficients
    and slope p''s, lowest first; only integers are used.
    """
    num, den = x.numerator, x.denominator
    value = _horner(coeffs, num, den)
    derivative = _horner(slope, num, den)  # p'(x) den^(d-1)
    if derivative == 0:
        return value, 0
    return value, ((-value * width.denominator) << bits) // (derivative * den * width.numerator)


def _refine_root(
    coeffs: Sequence[int],
    slope: Sequence[int],
    point: Callable[[int, int], _Unreduced],
    width: Fraction,
    i: int,
    depth: int,
    depth_k: int,
) -> tuple[int, int]:
    """(index, depth) of the cell at depth max(depth, depth_k) holding the one
    root of p in cell i at depth.

    Quadratic interval refinement (Abbott, ISSAC 2006) on the sign of p
    alone: the root is simple and alone in its cell, so p changes sign across
    it and keeps the sign of the right end s on (root, hi].  An exact Newton
    step from the cell's midpoint names one of the 2^step subcells; it is
    accepted only when the exact signs at the subcell's ends bracket the root,
    and step doubles.  Otherwise the cell is halved by the sign at its
    midpoint and step halves.  A zero sign puts the root on that grid point,
    whose target-depth cell ends there.
    """
    if depth >= depth_k:
        return i, depth

    def ending_at(j: int, d: int) -> tuple[int, int]:
        return (j << (depth_k - d)) - 1, depth_k

    s = _sign_at(coeffs, point(i + 1, depth))
    if s == 0:
        return ending_at(i + 1, depth)
    step = 2
    while depth < depth_k:
        step = min(step, depth_k - depth)
        half = 1 << (step - 1)
        value, offset = _newton_guess(coeffs, slope, point(2 * i + 1, depth + 1), width, depth + step)
        s_mid = (value > 0) - (value < 0)
        if s_mid == 0:
            return ending_at(2 * i + 1, depth + 1)

        def sign(k: int) -> int:
            """Sign of p at subcell boundary k; the cell's ends and midpoint are known."""
            if k % half == 0:
                return (-s, s_mid, s)[k // half]
            return _sign_at(coeffs, point((i << step) + k, depth + step))

        j = min(max(half + offset, 0), 2 * half - 1)
        s_left = sign(j)
        if s_left == 0:
            return ending_at((i << step) + j, depth + step)
        if s_left == -s:
            s_right = sign(j + 1)
            if s_right == 0:
                return ending_at((i << step) + j + 1, depth + step)
            if s_right == s:
                i, depth, step = (i << step) + j, depth + step, 2 * step
                continue
        i, depth, step = 2 * i + (s_mid != s), depth + 1, max(1, step // 2)
    return i, depth


# ---------------------------------------------------------------------------
# Measure recovery
# ---------------------------------------------------------------------------


def recover_measure(s: SequenceLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> DiscreteMeasure:
    """Atoms at the roots of P_r with residue weights, double-checked.

    The two weight formulas (partial-fraction residue and reciprocal
    Christoffel-Darboux sum) must agree within 2^-(precision_bits/2) relative
    on every atom, and every weight must be strictly positive.

    All float arithmetic is on mpmath's raw mpf tuples at precision_bits,
    each operation rounded to nearest.  Every rational (a coefficient of
    Q_r, P_r' or P_0..P_{r-1}, a norm D_k D_{k-1}, an enclosure's midpoint)
    enters as mp.mpf(numerator) / denominator does: the numerator rounded
    first, then divided by the exact denominator.  Polynomials are evaluated
    in mp.polyval's Horner order, c + x * acc from the top coefficient down.
    """
    seq = as_moments(s)
    r, scan = _psd_flat_scan(seq)
    p_r = Polynomial(scan.p_coeffs(r))
    q_r = second_kind(seq, p_r)
    intervals = isolate_real_roots(p_r, precision_bits)
    if len(intervals) != r:
        raise RootCountMismatch(r, len(intervals))
    d = [Fraction(1)] + list(scan.d_values)  # d[k+1] = D_k, d[0] = D_{-1}
    prec = precision_bits

    def rounded(values: Sequence[Fraction]) -> list[tuple]:
        return [
            mpf_div(from_int(v.numerator, prec, round_nearest), from_int(v.denominator), prec, round_nearest)
            for v in values
        ]

    def horner(coeffs: Sequence[tuple], x: tuple) -> tuple:
        """coeffs highest first, as mp.polyval takes them."""
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = mpf_add(c, mpf_mul(x, acc, prec, round_nearest), prec, round_nearest)
        return acc

    q_mpf = rounded(q_r.coeffs[::-1])
    p_prime_mpf = rounded(p_r.derivative().coeffs[::-1])
    family_mpf = [rounded(scan.p_coeffs(k)[::-1]) for k in range(r)]  # P_k has degree k: D_{k-1} > 0
    norms = rounded([d[k + 1] * d[k] for k in range(r)])
    atoms = []
    for index, (interval, lam) in enumerate(zip(intervals, rounded([cell.midpoint for cell in intervals]))):
        w_residue = mpf_div(horner(q_mpf, lam), horner(p_prime_mpf, lam), prec, round_nearest)
        cd_sum = fzero
        for coeffs, norm in zip(family_mpf, norms):
            value = horner(coeffs, lam)
            term = mpf_div(mpf_mul(value, value, prec, round_nearest), norm, prec, round_nearest)
            cd_sum = mpf_add(cd_sum, term, prec, round_nearest)
        w_cd = mpf_div(fone, cd_sum, prec, round_nearest)
        delta = mpf_abs(mpf_sub(w_residue, w_cd, prec, round_nearest))
        scale = mpf_abs(w_residue)
        if mpf_gt(delta, mpf_shift(scale if mpf_gt(scale, fone) else fone, -(prec // 2))):
            raise WeightMismatch(index, mp.nstr(mp.make_mpf(delta), 10))
        if mpf_sign(w_residue) <= 0:
            raise NonPositiveWeight(index, mp.nstr(mp.make_mpf(w_residue), 10))
        atoms.append(
            Atom(
                location=RealScalar(mp.make_mpf(lam), prec),
                enclosure=interval,
                weight=RealScalar(mp.make_mpf(w_residue), prec),
            )
        )
    return DiscreteMeasure(atoms=tuple(atoms), r=r)


def verify_moments(
    measure: DiscreteMeasure,
    s: SequenceLike,
    precision_bits: Optional[int] = None,
) -> RealScalar:
    """Upper bound on max_n |sum_k mu_k lambda_k^n - s_n| over the prefix.

    Interval arithmetic on mpmath's raw interval tuples at precision_bits:
    locations enter as their full enclosures and moments as intervals, both
    rounded outward, and every sum, product and absolute value rounds its
    lower end down and its upper end up.  The result is the largest upper
    end, returned as computed (never rounded again), so it is a certified
    bound, not an estimate; callers compare it with their tolerance.
    """
    seq = as_moments(s)
    if precision_bits is None:
        precision_bits = max(
            (atom.location.precision_bits for atom in measure.atoms),
            default=DEFAULT_PRECISION_BITS,
        )
    prec = precision_bits

    def outward(lo: Fraction, hi: Fraction) -> tuple:
        return (
            from_rational(lo.numerator, lo.denominator, prec, round_floor),
            from_rational(hi.numerator, hi.denominator, prec, round_ceiling),
        )

    locations = [outward(atom.enclosure.lo, atom.enclosure.hi) for atom in measure.atoms]
    weights = [(atom.weight.value._mpf_,) * 2 for atom in measure.atoms]
    powers = [(fone, fone)] * len(measure.atoms)
    worst = fzero
    for n in range(len(seq)):
        total = (fzero, fzero)
        for k, (weight, location) in enumerate(zip(weights, locations)):
            total = mpi_add(total, mpi_mul(weight, powers[k], prec), prec)
            powers[k] = mpi_mul(powers[k], location, prec)
        upper = mpi_abs(mpi_sub(total, outward(seq[n], seq[n]), prec), prec)[1]
        if mpf_gt(upper, worst):
            worst = upper
    return RealScalar(mp.make_mpf(worst), prec)


def cd_identity_residual(s: SequenceLike, r: int) -> Polynomial:
    """P_r' P_{r-1} - P_r P_{r-1}' - D_{r-1}^2 sum_{k<r} P_k^2/(D_k D_{k-1}).

    Identically zero whenever D_0..D_{r-1} are all nonzero; computed exactly
    so any deviation is a hard failure, not a tolerance question.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    seq = as_moments(s)
    if 2 * r - 1 > seq.max_index:
        raise IndexOutOfRange(2 * r - 1, seq.horizon)
    scan = hankel_scan(seq.prefix(2 * r), polys=True)
    if 0 in scan.d_values:
        raise NotQuasiDefinite(scan.d_values.index(0))
    d = (Fraction(1),) + scan.d_values  # D_{-1}, D_0..D_{r-1}
    polys = [Polynomial(scan.p_coeffs(k)) for k in range(r + 1)]
    combo = polys[r].derivative() * polys[r - 1] - polys[r] * polys[r - 1].derivative()
    cd_sum = ZERO
    for k in range(r):
        cd_sum = cd_sum + polys[k] * polys[k] * (Fraction(1) / (d[k + 1] * d[k]))
    return combo - d[r] * d[r] * cd_sum


def moments_of_atoms(atoms: Sequence[tuple], m_max: int) -> MomentSequence:
    """Exact moments s_n = sum_k mu_k x_k^n, n <= m_max, of rational atoms.

    atoms is a sequence of (location, weight) pairs in any rational-scalar
    notation accepted by parse_rational.  Test and demo helper: composing
    with recover_measure must return the same atoms.
    """
    pairs = [(parse_rational(x), parse_rational(w)) for x, w in atoms]
    terms = []
    powers = [Fraction(1) for _ in pairs]
    for _ in range(m_max + 1):
        terms.append(sum((w * p for (_, w), p in zip(pairs, powers)), Fraction(0)))
        powers = [p * x for (x, _), p in zip(pairs, powers)]
    return MomentSequence(tuple(terms))
