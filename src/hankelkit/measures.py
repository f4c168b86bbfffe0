"""Recovery of a discrete measure from a positive-definite flat prefix.

If D_0..D_{r-1} > 0 and every later computable determinant vanishes, the
sequence is the moment sequence of a unique positive measure supported on r
distinct real points: the atoms sit at the r (real, simple) roots of P_r and
the weight at root lambda is the partial-fraction residue
Q_r(lambda) / P_r'(lambda), equivalently the reciprocal of the
Christoffel-Darboux sum  sum_{k<r} P_k(lambda)^2 / (D_k D_{k-1}).

Roots are isolated by exact Sturm counts, bisecting from the grid cells next
to 0 that cover Fujiwara's bound on the roots, and each isolated (simple)
root is refined by the sign of P_r alone.  In a measure, P_0..P_r are
orthogonal polynomials, so (P_r, ..., P_0) is itself a Sturm sequence for
P_r, evaluated at each point in O(r) integer operations by the three-term
recurrence the scan already holds as its one-step ScanSteps (Barth, Martin &
Wilkinson 1967).  isolate_real_roots, for any polynomial, counts with a Sturm
chain over the integers instead (primitive pseudo-remainders, each a positive
multiple of the rational chain's element); only the counter differs.
An approximate root (safeguarded Newton in floats, then in fixed-point
integers at doubling precision) names the target cell, and exact integer
signs at its two ends must confirm it; otherwise exact Newton steps propose
narrower cells that exact signs confirm (Abbott's quadratic interval
refinement), or the cell is halved.  Every stage cuts on one dyadic grid, so
the enclosures are guaranteed disjoint, and only exact signs decide them: an
approximation never reaches the output.

When the roots of P_r are rational, as they are for the moments of rational
atoms, recover_measure proves the measure exactly.  Each root is m / L for
the leading coefficient L of the primitive integer P_r; an approximate root
names m in each isolating cell, and P_r(m / L) = 0 must hold exactly.  r such roots in
r disjoint cells are all the roots.  The enclosure is the target-depth cell
that holds m / L, which is the cell refinement would end in; the weight is
the rational Q_r(x) / P_r'(x), read by integer Horner; and verify_moments
computes the residual exactly, 0 for the true measure, rounded up at
precision_bits.

Otherwise (an irrational root, or two roots closer than the target width)
the same isolating cells are refined, and weights are computed by both
formulas on mpmath's raw mpf tuples at precision_bits, every step rounded to
nearest (each rational converted once per measure, as mp.mpf(numerator) /
denominator converts it), and must agree; the Christoffel-Darboux sum runs
through the monic pi_k = P_k / D_{k-1}, whose recurrence coefficients a_k,
b_k are jacobi_from_moments', as sum_k pi_k(lambda)^2 / h_k with
h_k = D_k / D_{k-1}, O(r) per atom.  The recovered measure's moments are
then re-checked against the input in interval arithmetic on raw interval
tuples at precision_bits, rounded outward at every step; the residual's
upper end is rounded up and never rounded again.  Nothing in this module
trusts an unverified numeric step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import frexp, gcd, isfinite
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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
    _moment,
    _scan_through,
    as_moments,
    hankel_scan,
    scale_to_integers,
)
from .errors import (
    DegreeViolation,
    NonPositiveWeight,
    NotPSDFlat,
    NotQuasiDefinite,
    RootCountMismatch,
    WeightMismatch,
    ZeroSequence,
)
from .polynomials import ZERO, Polynomial, _jacobi_read_off, second_kind
from .rank import _finite_rank
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
    """One point mass.  exact_location and exact_weight are set when the atom
    is rational and proved exactly; location and weight are then their mpf
    roundings (location that of the enclosure's midpoint, as for any atom)."""

    location: RealScalar
    enclosure: Interval
    weight: RealScalar
    exact_location: Optional[Fraction] = None
    exact_weight: Optional[Fraction] = None

    def to_json(self) -> dict:
        payload = {
            "location": self.location.to_str(),
            "enclosure": self.enclosure.to_json(),
            "weight": self.weight.to_str(),
        }
        if self.exact_location is not None:
            payload["exact_location"] = format_rational(self.exact_location)
        if self.exact_weight is not None:
            payload["exact_weight"] = format_rational(self.exact_weight)
        return payload


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
    if not _finite_rank(seq, scan, r):
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


def _changes(signs: Sequence[int]) -> int:
    """Sign changes along signs, zeros skipped."""
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_changes(chain: list[list[int]], x: Fraction | _Unreduced) -> int:
    return _changes([_sign_at(c, x) for c in chain])


def cauchy_bound(p: Polynomial) -> Fraction:
    """max(1, sum |p_k / p_lead|): all real roots lie within [-B, B]."""
    return _cauchy_bound(p.coeffs)


def _cauchy_bound(coeffs: Sequence) -> Fraction:
    """cauchy_bound for the coefficients c_0..c_n, lowest first, c_n != 0:
    integers or Fractions."""
    if len(coeffs) < 2:
        return Fraction(1)
    return max(Fraction(1), Fraction(sum(map(abs, coeffs[:-1])), abs(coeffs[-1])))


def _root_exponent(coeffs: Sequence[int]) -> Optional[int]:
    """An e with |root| < 2^e for every root of the integer polynomial
    (lowest coefficient first), or None when 0 is its only root.

    Fujiwara's bound 2 max_k |c_k / c_n|^(1/(n-k)), with each ratio below
    2^(bitlen(c_k) - bitlen(c_n) + 1): bit lengths only, no division.
    """
    n = len(coeffs) - 1
    top = coeffs[-1].bit_length()
    exponents = [-((top - c.bit_length() - 1) // (n - k)) for k, c in enumerate(coeffs[:-1]) if c]
    return 1 + max(exponents) if exponents else None


def isolate_real_roots(p: Polynomial, precision_bits: int = DEFAULT_PRECISION_BITS) -> list[Interval]:
    """Disjoint rational enclosures of ALL real roots of p, each of width
    at most 2^-precision_bits * max(1, root bound).

    Every enclosure is a cell (lo, hi] of one dyadic grid over
    [-B-1, B+1] (B the Cauchy bound): the cell at the first depth whose width
    is at most that target, or a deeper one where two roots share it.  Sturm
    bisection only isolates (it stops at one root per cell), and it starts
    from the two grid cells next to 0 that cover Fujiwara's bound 2^e on
    |root|, which is often far below B; sign counts at their outer ends are
    those at -inf and +inf, read off the chain's leading coefficients.  Each
    root is then refined by the sign of p alone (see _refine_root).

    Multiple roots are counted once (the generalized Sturm chain counts
    distinct roots).  Raises RootCountMismatch when p has fewer real roots
    than its degree, since callers in this package expect totally real
    polynomials.
    """
    if p.is_zero() or p.degree < 1:
        raise DegreeViolation("root isolation requires degree >= 1")
    chain = _sturm_chain(p)
    # V(-inf) and V(+inf), from each element's leading term.
    leads = [1 if c[-1] > 0 else -1 for c in chain]
    v_lo = _changes([lead if len(c) % 2 else -lead for lead, c in zip(leads, chain)])
    v_hi = _changes(leads)
    if v_lo - v_hi < p.degree:
        raise RootCountMismatch(p.degree, v_lo - v_hi)
    coeffs = chain[0]
    grid = _grid(coeffs, precision_bits)
    return _refined(coeffs, grid, _isolate(coeffs, lambda x: _sign_changes(chain, x), v_lo, v_hi, grid))


class _Grid(NamedTuple):
    """The dyadic grid isolation cuts on: the points -hi + width i / 2^depth
    of [-hi, hi], hi = B + 1 for the Cauchy bound B, with cell i at depth
    the interval (point i, point i + 1].  depth_k, the target depth, is the
    least whose cells are at most max(1, B) 2^-precision_bits wide; only it
    depends on the precision.
    """

    hi: Fraction
    width: Fraction
    depth_k: int

    def point(self, i: int, depth: int) -> _Unreduced:
        hi = self.hi
        return _Unreduced(hi.numerator * ((i << 1) - (1 << depth)), hi.denominator << depth)

    def interval(self, i: int, depth: int) -> Interval:
        return Interval(Fraction(*self.point(i, depth)), Fraction(*self.point(i + 1, depth)))

    def cell(self, num: int, den: int) -> int:
        """The index of the cell at depth_k that holds num / den (den > 0):
        the i with i < (x + hi) 2^depth_k / width <= i + 1, one integer ceiling."""
        h_num, h_den = self.hi.numerator, self.hi.denominator
        return -(-((num * h_den + h_num * den) << self.depth_k) // (2 * h_num * den)) - 1


def _grid(coeffs: Sequence[int], precision_bits: int) -> _Grid:
    """The grid over [-B-1, B+1], B the Cauchy bound of p, at precision_bits."""
    bound = _cauchy_bound(coeffs)
    hi = bound + 1
    width = 2 * hi
    target = max(Fraction(1), bound) / (Fraction(2) ** precision_bits)
    ratio = width / target  # depth_k: the least k with 2^k >= ratio
    return _Grid(hi, width, (-(-ratio.numerator // ratio.denominator) - 1).bit_length())


def _isolate(
    coeffs: list[int],
    sign_changes: Callable[[_Unreduced], int],
    v_lo: int,
    v_hi: int,
    grid: _Grid,
) -> list[tuple[int, int]]:
    """The isolating cells of p's roots, for its primitive integer
    coefficients (lowest first), given a Sturm sequence of p as its count V
    of sign changes at a grid point and as V(-inf), V(+inf): one cell
    (index, depth) per root, in increasing order, each the first cell of the
    bisection that holds that root alone.  A cell is deeper than
    grid.depth_k only where two roots share a cell at depth_k.

    No root lies outside the grid, so V(-inf) and V(+inf) stand in for V at
    the grid's ends: only differences of V, which count roots, are used.
    """
    point, width, depth_k = grid.point, grid.width, grid.depth_k
    # Start at the deepest d0 <= depth_k whose cells are at least 2^e wide:
    # every root then lies in (point(half - 1), 0] or (0, point(half + 1)].
    e = _root_exponent(coeffs)
    if e is None:
        d0 = depth_k
    else:
        d0 = width.numerator.bit_length() - width.denominator.bit_length() - e
        if Fraction(2) ** (d0 + e) > width:
            d0 -= 1
        d0 = min(max(d0, 0), depth_k)
    if d0 == 0:
        pending = [(0, 0, v_lo, v_hi)]  # (index, depth, V(left end), V(right end))
    else:
        half = 1 << (d0 - 1)  # 0 is grid point half at depth d0
        v_zero = sign_changes(_Unreduced(0, 1))
        pending = [(half - 1, d0, v_lo, v_zero), (half, d0, v_zero, v_hi)]
    cells = []
    while pending:
        i, depth, v_left, v_right = pending.pop()
        count = v_left - v_right
        if count == 1:
            cells.append((i, depth))
        elif count > 1:
            v_mid = sign_changes(point(2 * i + 1, depth + 1))
            pending.append((2 * i, depth + 1, v_left, v_mid))
            pending.append((2 * i + 1, depth + 1, v_mid, v_right))
    top = max((depth for _, depth in cells), default=0)
    cells.sort(key=lambda cell: cell[0] << (top - cell[1]))
    return cells


def _fixed_horner(coeffs: Sequence[int], x: int, bits: int) -> int:
    """About p(x / 2^bits) 2^bits: Horner's rule in fixed point, each step
    truncated to a whole unit 2^-bits."""
    acc = 0
    for c in reversed(coeffs):
        acc = ((acc * x) >> bits) + (c << bits)
    return acc


def _approximate_root(
    coeffs: Sequence[int], slope: Sequence[int], lo: _Unreduced, hi: _Unreduced, s: int, bits: int
) -> Optional[tuple[int, int]]:
    """(x, f) with x / 2^f meant to lie within 2^-bits of the one root of p
    in the cell (lo, hi] (both ends over one denominator), where p has the
    sign s on (root, hi]; or None.

    Safeguarded Newton in floats first: the cell shrinks around the root by
    the float sign of p, and a step that leaves it is replaced by bisection.
    Then Newton in fixed-point integers at doubling precision, up to bits
    plus guard bits for Horner's rounding, estimated from the float stage.
    None on a float overflow, a zero derivative, a step out of the cell or
    no convergence.  Nothing here is exact: callers confirm the answer by
    exact signs.
    """
    den = lo.denominator
    try:
        p_float, slope_float = [float(c) for c in reversed(coeffs)], [float(c) for c in reversed(slope)]
        a, b = lo.numerator / den, hi.numerator / den
    except OverflowError:
        return None

    def horner(high_first: Sequence[float], x: float) -> float:
        acc = 0.0
        for c in high_first:
            acc = acc * x + c
        return acc

    x = (a + b) / 2
    for _ in range(100):
        value, derivative = horner(p_float, x), horner(slope_float, x)
        if not (isfinite(value) and isfinite(derivative)):
            return None
        if value == 0:
            break
        if (value > 0) == (s > 0):
            b = x
        else:
            a = x
        nx = x - value / derivative if derivative else a
        if not a < nx < b:
            nx = (a + b) / 2
        converged = nx == x or abs(nx - x) <= abs(nx) * 2.0**-50
        x = nx
        if converged:
            break
    # Each fixed-point Horner step is off by at most one unit, which later
    # steps multiply by |x|: the value is off by under n max(1, |x|)^n units,
    # and the Newton limit by that over |p'|, below 2^guard units.
    derivative = horner(slope_float, x)
    if derivative == 0 or not isfinite(derivative):
        return None
    n = len(coeffs) - 1
    guard = max(0, n.bit_length() + n * frexp(max(1.0, abs(x)))[1] - frexp(derivative)[1] + 1) + 4
    top = max(bits, 1) + guard
    precisions = [top]
    while precisions[-1] > 80:
        precisions.append((precisions[-1] + 1) // 2)
    num, pow2 = x.as_integer_ratio()
    f = precisions[-1]
    xf = (num << f) // pow2
    for next_f in precisions[::-1] + [top] * 3:  # up to three more steps at the top
        xf, f = xf << (next_f - f), next_f
        derivative = _fixed_horner(slope, xf, f)
        if derivative == 0:
            return None
        step = (_fixed_horner(coeffs, xf, f) << f) // derivative
        xf -= step
        if not (lo.numerator << f) // den <= xf <= -(-(hi.numerator << f) // den):
            return None
        if f == top and abs(step) <= 1 << guard:
            return xf, f
    return None


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
    grid: _Grid,
    i: int,
    depth: int,
) -> tuple[int, int]:
    """(index, depth) of the cell at depth max(depth, grid.depth_k) holding
    the one root of p in cell i at depth.

    The root is simple and alone in its cell, so p changes sign across it
    and keeps the sign of the right end s on (root, hi].  First guess: an
    approximate root (_approximate_root) names one of the cell's subcells at
    depth_k, and exact signs at that subcell's two ends accept it, so a root
    costs about two exact evaluations.  The cell's own ends are never
    evaluated there: its left end may be a neighbour's root, and its sign
    counts as -s.

    Otherwise, quadratic interval refinement (Abbott, ISSAC 2006) on the
    sign of p alone: an exact Newton step from the cell's midpoint names one
    of the 2^step subcells; it is accepted only when the exact signs at the
    subcell's ends bracket the root, and step doubles.  Otherwise the cell
    is halved by the sign at its midpoint and step halves.  A zero sign puts
    the root on that grid point, whose target-depth cell ends there.
    """
    point, width, depth_k = grid.point, grid.width, grid.depth_k
    if depth >= depth_k:
        return i, depth

    def ending_at(j: int, d: int) -> tuple[int, int]:
        return (j << (depth_k - d)) - 1, depth_k

    s = _sign_at(coeffs, point(i + 1, depth))
    if s == 0:
        return ending_at(i + 1, depth)
    step = depth_k - depth
    lo, hi = point(i, depth), point(i + 1, depth)
    span = hi.numerator - lo.numerator  # the subcells are span / (den 2^step) wide
    bits = lo.denominator.bit_length() + step - span.bit_length() + 3  # 2^-bits <= a quarter of that
    guess = _approximate_root(coeffs, slope, lo, hi, s, bits)
    if guess is not None:
        x, f = guess
        j = ((x * lo.denominator - (lo.numerator << f)) << step) // (span << f)
        j = min(max(j, 0), (1 << step) - 1)
        first = i << step
        s_left = -s if j == 0 else _sign_at(coeffs, point(first + j, depth_k))
        if s_left == 0:
            return first + j - 1, depth_k
        if s_left == -s:
            s_right = s if j == (1 << step) - 1 else _sign_at(coeffs, point(first + j + 1, depth_k))
            if s_right != -s:  # s, or 0 with the root on the subcell's right end
                return first + j, depth_k
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


def _recurrence_sign_changes(scan: HankelScan, r: int) -> Callable[[_Unreduced], int]:
    """V(x), the sign changes of (P_r(x), ..., P_0(x)), zeros skipped, for a
    scan of one pass with D_0..D_{r-1} > 0; O(r) integer operations per x.

    P_0..P_r are then orthogonal with leading coefficients D_{k-1} > 0, so
    the sequence is a Sturm sequence for P_r (Barth, Martin & Wilkinson
    1967): V(x) counts the roots of P_r in (x, +inf), V(-inf) = r and
    V(+inf) = 0.  The scan's denominators are positive, so P_k =
    p_factor[k] p_int[k] with p_factor[k] > 0 (checked), and at x = num/den
    the integers u_k = p_int[k](x) den^k have the signs of P_k(x).  Step k
    of the scan says g_k p_int[k+1] = (c_0 + c_1 x) p_int[k] + c_b p_int[k-1],
    g_k > 0 the gcd it divided out, read off the leading coefficients; so
    g_k u_{k+1} = (c_0 den + c_1 num) u_k + c_b den^2 u_{k-1}, one exact
    division per step.
    """
    p_int = scan.p_int
    if not all(f > 0 for f in scan.p_factor[: r + 1]):
        raise RuntimeError("internal error: a scan factor of P_0..P_r is not positive")
    table = []
    for k, step in enumerate(scan.steps[:r]):
        (c_0, c_1), c_b = step.c, step.c_b
        table.append((c_0, c_1, c_b, c_1 * p_int[k][-1] // p_int[k + 1][-1]))
    start = p_int[0][0]

    def sign_changes(x: _Unreduced) -> int:
        num, den = x
        den_squared = den * den
        before, value, positive, changes = 0, start, True, 0
        for c_0, c_1, c_b, g in table:
            before, value = value, ((c_0 * den + c_1 * num) * value + c_b * den_squared * before) // g
            if value and (value > 0) != positive:
                positive, changes = not positive, changes + 1
        return changes

    return sign_changes


def _measure_cells(scan: HankelScan, r: int, precision_bits: int) -> tuple[list[int], _Grid, list[tuple[int, int]]]:
    """For a scan with D_0..D_{r-1} > 0: the primitive integer coefficients
    of P_r, its grid at precision_bits, and the isolating cells of its roots
    (_isolate), counted with the recurrence: no Sturm chain.  Refined
    (_refined), they are isolate_real_roots(P_r)."""
    sign_changes = _recurrence_sign_changes(scan, r)  # checks p_int[r] has P_r's sign
    coeffs = _primitive(scan.p_int[r])
    grid = _grid(coeffs, precision_bits)
    return coeffs, grid, _isolate(coeffs, sign_changes, r, 0, grid)


def _refined(coeffs: list[int], grid: _Grid, cells: Sequence[tuple[int, int]]) -> list[Interval]:
    """Each isolating cell refined to grid.depth_k (_refine_root), as an Interval."""
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    return [grid.interval(*_refine_root(coeffs, slope, grid, i, depth)) for i, depth in cells]


def _exact_roots(coeffs: list[int], grid: _Grid, cells: Sequence[tuple[int, int]]) -> Optional[list[int]]:
    """m per isolating cell, the root m / L of p in the cell (L = coeffs[-1]
    > 0); or None.

    p is primitive, so each rational root has a denominator dividing L: it
    is m / L for an integer m.  An approximate root within a quarter of 1 / L
    (_approximate_root, after one exact sign at the cell's right end) names
    m.  Where it does not land inside the cell (it may stop at a neighbour's
    root on the cell's left end), the cell is refined (_refine_root) to a
    subcell under 1 / (4L) wide, whose midpoint names m.  Then p(m / L) = 0
    must hold exactly, by integer Horner, and m / L must lie in the cell.
    The cells are disjoint, so r such m are r distinct roots of the
    degree-r p: all of them.  None when a candidate fails, and at once when
    a cell is deeper than depth_k: two roots share a cell there, so their
    enclosures are deeper cells, which the numeric path finds.
    """
    if any(depth > grid.depth_k for _, depth in cells):
        return None
    lead = coeffs[-1]
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    narrow = grid._replace(depth_k=(4 * lead * grid.width.numerator // grid.width.denominator).bit_length())
    roots = []
    for i, depth in cells:
        lo, hi = grid.point(i, depth), grid.point(i + 1, depth)
        den = lo.denominator
        s = _sign_at(coeffs, hi)
        if s == 0:  # the root is the cell's right end
            m = hi.numerator * lead // den
        else:
            guess = _approximate_root(coeffs, slope, lo, hi, s, lead.bit_length() + 2)
            if guess is not None and lo.numerator << guess[1] < guess[0] * den < hi.numerator << guess[1]:
                x, f = guess
                m = (x * lead + (1 << (f - 1))) >> f
            else:
                j, d = _refine_root(coeffs, slope, narrow, i, depth)
                ends = grid.point(j, d).numerator + grid.point(j + 1, d).numerator
                m = (ends * lead + (den << (d - depth))) // (2 * den << (d - depth))
        if not lo.numerator * lead < m * den <= hi.numerator * lead or _horner(coeffs, m, lead):
            return None
        roots.append(m)
    return roots


def _exact_weights(seq: MomentSequence, coeffs: list[int], roots: Sequence[int]) -> list[Fraction]:
    """The residues Q(x) / p'(x) at the roots x = m / L of p (L = coeffs[-1]),
    exactly: the ratio is the same for every multiple of P_r, so it is
    taken for the primitive p.  With the moments s_k = u_k / lambda over
    integers u, lambda Q has the integer coefficients
    q_j = lambda L(sum_k c_{k+j+1} x^k), and both sides are read by Horner.
    """
    r, lead = len(coeffs) - 1, coeffs[-1]
    u, scale = scale_to_integers([seq[k] for k in range(r)])
    q = [_moment(coeffs[j + 1 :], u) for j in range(r)]
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    return [Fraction(_horner(q, m, lead), scale * _horner(slope, m, lead)) for m in roots]


def _rounded(values: Sequence[Fraction], prec: int) -> list[tuple]:
    """Each rational as mp.mpf(numerator) / denominator makes it: the
    numerator rounded to nearest at prec, then divided, rounded to nearest."""
    return [
        mpf_div(from_int(v.numerator, prec, round_nearest), from_int(v.denominator), prec, round_nearest)
        for v in values
    ]


def recover_measure(s: SequenceLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> DiscreteMeasure:
    """Atoms at the roots of P_r with residue weights, each proved.

    Roots are isolated once, by the recurrence's Sturm counts
    (_measure_cells).  When P_r has r rational roots, each isolating cell
    names one (_exact_roots), and the atoms are exact: every location x has
    P_r(x) = 0, the weight is Q_r(x) / P_r'(x) as a rational, strictly
    positive, and the enclosure is the target-depth cell that holds x,
    found by one integer ceiling: the cell refinement would end in.  The
    atom's location is the mpf of that enclosure's midpoint, as on the
    numeric path, and its weight the correctly rounded mpf of the exact
    weight; exact_location and exact_weight carry the rationals, and
    verify_moments then checks them exactly.

    Otherwise (an irrational root, or two roots closer than the target
    width) the same isolating cells are refined to the target depth and the
    weights are computed numerically (_numeric_measure).
    """
    seq = as_moments(s)
    r, scan = _psd_flat_scan(seq)
    coeffs, grid, cells = _measure_cells(scan, r, precision_bits)
    if len(cells) != r:
        raise RootCountMismatch(r, len(cells))
    roots = _exact_roots(coeffs, grid, cells)
    if roots is None:
        return _numeric_measure(seq, scan, r, _refined(coeffs, grid, cells), precision_bits)
    prec, lead = precision_bits, coeffs[-1]
    enclosures = [grid.interval(grid.cell(m, lead), grid.depth_k) for m in roots]
    locations = _rounded([cell.midpoint for cell in enclosures], prec)
    weights = _exact_weights(seq, coeffs, roots)
    atoms = []
    for index, (m, weight, cell, lam) in enumerate(zip(roots, weights, enclosures, locations)):
        w_mpf = from_rational(weight.numerator, weight.denominator, prec, round_nearest)
        if weight <= 0:
            raise NonPositiveWeight(index, mp.nstr(mp.make_mpf(w_mpf), 10))
        atoms.append(
            Atom(
                location=RealScalar(mp.make_mpf(lam), prec),
                enclosure=cell,
                weight=RealScalar(mp.make_mpf(w_mpf), prec),
                exact_location=Fraction(m, lead),
                exact_weight=weight,
            )
        )
    return DiscreteMeasure(atoms=tuple(atoms), r=r)


def _numeric_measure(
    seq: MomentSequence, scan: HankelScan, r: int, intervals: Sequence[Interval], precision_bits: int
) -> DiscreteMeasure:
    """Atoms at the midpoints of the enclosures of P_r's roots, with residue
    weights, double-checked.

    The two weight formulas (partial-fraction residue and reciprocal
    Christoffel-Darboux sum) must agree within 2^-(precision_bits/2) relative
    on every atom, and every weight must be strictly positive.

    All float arithmetic is on mpmath's raw mpf tuples at precision_bits,
    each operation rounded to nearest.  Every rational (a coefficient of
    Q_r or P_r', a recurrence coefficient a_k or b_k, a reciprocal norm
    D_{k-1} / D_k, an enclosure's midpoint) enters as
    mp.mpf(numerator) / denominator does: the numerator rounded first, then
    divided by the exact denominator.  Q_r and P_r' are evaluated in
    mp.polyval's Horner order, c + x * acc from the top coefficient down;
    the Christoffel-Darboux sum adds pi_k^2 (D_{k-1} / D_k) for k = 0..r-1,
    with pi_0 = 1 and pi_{k+1} = (lambda - a_k) pi_k - b_k pi_{k-1}.
    """
    p_r = Polynomial(scan.p_coeffs(r))
    q_r = second_kind(seq, p_r)
    a, b = _jacobi_read_off(scan, r)
    d = (Fraction(1),) + scan.d_values  # D_{k-1} at index k
    prec = precision_bits

    def horner(coeffs: Sequence[tuple], x: tuple) -> tuple:
        """coeffs highest first, as mp.polyval takes them."""
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = mpf_add(c, mpf_mul(x, acc, prec, round_nearest), prec, round_nearest)
        return acc

    q_mpf = _rounded(q_r.coeffs[::-1], prec)
    p_prime_mpf = _rounded(p_r.derivative().coeffs[::-1], prec)
    # The monic pi_k = P_k / D_{k-1} follow pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1},
    # and P_k^2 / (D_k D_{k-1}) = pi_k^2 / h_k with h_k = D_k / D_{k-1}.
    a_mpf = _rounded(a[: r - 1], prec)
    b_mpf = [fzero] + _rounded(b[1 : r - 1], prec)  # b_0 meets pi_{-1} = 0
    inverse_norms = _rounded([d[k] / d[k + 1] for k in range(r)], prec)  # 1 / h_k
    atoms = []
    for index, (interval, lam) in enumerate(zip(intervals, _rounded([cell.midpoint for cell in intervals], prec))):
        slope = horner(p_prime_mpf, lam)
        if slope == fzero:  # atoms closer than the precision resolves: the residue has no value
            raise WeightMismatch(index, "inf")
        w_residue = mpf_div(horner(q_mpf, lam), slope, prec, round_nearest)
        cd_sum, before, pi = fzero, fzero, fone
        for k, inverse_norm in enumerate(inverse_norms):
            term = mpf_mul(mpf_mul(pi, pi, prec, round_nearest), inverse_norm, prec, round_nearest)
            cd_sum = mpf_add(cd_sum, term, prec, round_nearest)
            if k + 1 < r:
                step = mpf_mul(mpf_sub(lam, a_mpf[k], prec, round_nearest), pi, prec, round_nearest)
                before, pi = pi, mpf_sub(step, mpf_mul(b_mpf[k], before, prec, round_nearest), prec, round_nearest)
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

    When every atom carries its exact location and weight, the residual is
    computed exactly, on integers (_atom_moments), and rounded up at
    precision_bits: 0 for the measure the moments came from.

    Otherwise interval arithmetic on mpmath's raw interval tuples at
    precision_bits: locations enter as their full enclosures and moments as
    intervals, both rounded outward, weights as points of either sign, and
    every sum, product and absolute value rounds its lower end down and its
    upper end up.  The result is the largest upper end, returned as computed
    (never rounded again).  Either way it is a certified bound, not an
    estimate; callers compare it with their tolerance.
    """
    seq = as_moments(s)
    if precision_bits is None:
        precision_bits = max(
            (atom.location.precision_bits for atom in measure.atoms),
            default=DEFAULT_PRECISION_BITS,
        )
    prec = precision_bits
    if all(atom.exact_location is not None and atom.exact_weight is not None for atom in measure.atoms):
        pairs = [(atom.exact_location, atom.exact_weight) for atom in measure.atoms]
        worst = Fraction(0)
        for (num, den), s_n in zip(_atom_moments(pairs, len(seq) - 1), seq.terms):
            difference = abs(num * s_n.denominator - s_n.numerator * den)
            if difference:
                worst = max(worst, Fraction(difference, den * s_n.denominator))
        return RealScalar(mp.make_mpf(from_rational(worst.numerator, worst.denominator, prec, round_ceiling)), prec)

    def outward(lo: Fraction, hi: Fraction) -> tuple:
        return (
            from_rational(lo.numerator, lo.denominator, prec, round_floor),
            from_rational(hi.numerator, hi.denominator, prec, round_ceiling),
        )

    locations = [outward(atom.enclosure.lo, atom.enclosure.hi) for atom in measure.atoms]
    weights = [atom.weight.value._mpf_ for atom in measure.atoms]
    # A weight is a point w: w [lo, hi] is [w lo, w hi] for w >= 0 and
    # [w hi, w lo] for w < 0, each end rounded outward, as mpi_mul has it.
    negative = [mpf_sign(w) < 0 for w in weights]
    powers = [(fone, fone)] * len(measure.atoms)
    worst = fzero
    for n in range(len(seq)):
        total_lo, total_hi = fzero, fzero
        for k, (weight, location) in enumerate(zip(weights, locations)):
            lo, hi = powers[k][::-1] if negative[k] else powers[k]
            total_lo = mpf_add(total_lo, mpf_mul(weight, lo, prec, round_floor), prec, round_floor)
            total_hi = mpf_add(total_hi, mpf_mul(weight, hi, prec, round_ceiling), prec, round_ceiling)
            powers[k] = mpi_mul(powers[k], location, prec)
        upper = mpi_abs(mpi_sub((total_lo, total_hi), outward(seq[n], seq[n]), prec), prec)[1]
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
    scan = _scan_through(as_moments(s), 2 * r - 1, polys=True)
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
    return MomentSequence(tuple(Fraction(num, den) for num, den in _atom_moments(pairs, m_max)))


def _atom_moments(pairs: Sequence[tuple[Fraction, Fraction]], m_max: int) -> Iterator[tuple[int, int]]:
    """s_0..s_m_max of the atoms (x_k, w_k) as unreduced (numerator,
    denominator) integers: with x_k = X_k / dx and w_k = W_k / dw over common
    denominators, s_n = sum_k W_k X_k^n / (dw dx^n)."""
    xs, dx = scale_to_integers([x for x, _ in pairs])
    ws, dw = scale_to_integers([w for _, w in pairs])
    powers, dx_power = [1] * len(xs), 1
    for _ in range(m_max + 1):
        yield sum(w * power for w, power in zip(ws, powers)), dw * dx_power
        powers = [power * x for power, x in zip(powers, xs)]
        dx_power *= dx
