"""The Hankel determinant problem: prescribe D_n(s) = t_n and solve for s.

Solvability is governed by Frobenius sign conditions on the support
n_0 < n_1 < ... of the target t: writing Delta_0 = (-1)^{(n_0+1)/2} t_{n_0}
(a condition only when n_0 + 1 is even) and, for each consecutive pair with
even gap g = n_{k+1} - n_k, Delta_{k+1} = (-1)^{g/2} t_{n_{k+1}} t_{n_k},
the problem is solvable iff every such Delta is strictly positive.

The solver works inductively on the support.  The initial block uses the
anti-triangular determinant evaluation D_{n_0} = (-1)^{n_0(n_0+1)/2}
s_{n_0}^{n_0+1} of a sequence starting with n_0 zeros.  Each later step
compares s against its rank-(n_k+1) approximating extension: entries copied
from the extension force the in-gap determinants to vanish, and the gap
formula pins the single entry whose offset realizes D_{n_{k+1}} = t_{n_{k+1}},
via a real g-th root (positive branch when g is even).  Entries the
determinants do not constrain are filled by a policy: zeros, or seeded
pseudorandom rationals.

The roots depend on the target alone (`_root_steps`), so the arithmetic is
chosen before the construction runs, once, and both arithmetics run one
induction, `_construct`.  When every root is rational the run is exact: one
resumable scan (`core.HankelScanner`) takes each entry as the construction
fixes it, and each step reads the extension's recurrence
d_k = -p_{r,k}/D_{r-1} off its P_r, r = n_k + 1, once s_0..s_{2r-1} are in.
Otherwise the run is in big-float arithmetic at a configurable precision and
solves for the recurrence with partial pivoting.  Either way one certificate
checks a solution before it is returned, on exact rationals: in exact mode the
terms themselves, in big-float mode the decimals the solution prints as, read
back exactly.  A scan of those rationals (in exact mode the construction's
own, run on to the last term) offers each full-degree P_r as a witness; the
certificate checks it by integer dot products L(x^j P_r) and proves every D_n
from the checked witnesses and the gap formula, so it trusts no value the scan
computed.  In exact mode every D_n must equal t_n.  In big-float mode the
certified residual max |D_n - t_n| / max(1, |t_n|) is the exact residual of
the printed solution, rounded up; it must not exceed the requested tolerance.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .approximants import ApproxRecurrence, _extension_values, _recurrence_from_p
from .core import HankelScanner, MomentSequence, _is_witness, _moment, scale_to_integers
from .errors import NotSolvable, ParseError, PrecisionExhausted
from .scalars import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOLERANCE,
    _QUOTE,
    exact_kth_root,
    format_mpf,
    format_rational,
    parse_rational,
    real_kth_root,
    to_mpf,
)


@dataclass(frozen=True)
class TargetSequence:
    """Prescribed determinant values t_0..t_N."""

    terms: tuple[Fraction, ...]

    @staticmethod
    def from_values(values: Sequence) -> "TargetSequence":
        return TargetSequence(tuple([parse_rational(v) for v in values]))

    @staticmethod
    def from_json(payload: dict) -> "TargetSequence":
        if not isinstance(payload, dict) or "target" not in payload:
            raise ParseError('expected an object with a "target" array')
        values = payload["target"]
        if not isinstance(values, list):
            raise ParseError('"target" must be an array')
        return TargetSequence.from_values(values)

    def to_json(self) -> dict:
        return {"target": [format_rational(t) for t in self.terms]}

    @property
    def support(self) -> tuple[int, ...]:
        return tuple([n for n, t in enumerate(self.terms) if t != 0])

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, index: int) -> Fraction:
        return self.terms[index]


TargetLike = Union[TargetSequence, Sequence]


def as_targets(t: TargetLike) -> TargetSequence:
    if isinstance(t, TargetSequence):
        return t
    return TargetSequence.from_values(t)


@dataclass(frozen=True)
class SolvabilityReport:
    """Outcome of the Frobenius sign conditions.

    deltas lists the tested Delta values in order (the initial one when
    n_0 + 1 is even, then one per even-gap support pair); violation, when
    present, is (delta_index, gap, value) for the first nonpositive Delta.
    """

    solvable: bool
    support: tuple[int, ...]
    deltas: tuple[Fraction, ...]
    violation: Optional[tuple[int, int, Fraction]]

    def to_json(self) -> dict:
        return {
            "solvable": self.solvable,
            "support": list(self.support),
            "deltas": [format_rational(d) for d in self.deltas],
            "violation": (
                None
                if self.violation is None
                else {
                    "delta_index": self.violation[0],
                    "gap": self.violation[1],
                    "value": format_rational(self.violation[2]),
                }
            ),
        }


def _root_steps(targets: TargetSequence) -> list[tuple[Fraction, Fraction, int]]:
    """The real roots the construction takes, as (t_a, c, k): the root is the
    k-th root of c / t_a, with c = (-1)^{k(k-1)/2} t_b.

    The first step sets s_{n_0} (t_a = 1, t_b = t_{n_0}, k = n_0 + 1); then
    there is one step a -> b of gap k = b - a per consecutive support pair.
    The list is empty for the all-zero target.
    """
    steps = []
    a = -1  # s_{n_0} is a step from D_{-1} = 1
    for b in targets.support:
        k = b - a
        c = -targets[b] if (k * (k - 1) // 2) % 2 else targets[b]
        steps.append((targets[a] if a >= 0 else Fraction(1), c, k))
        a = b
    return steps


def frobenius_check(t: TargetLike) -> SolvabilityReport:
    """Test the sign conditions; the all-zero target is (trivially) solvable.

    Each condition is the existence of the real root its step takes: a root
    of even order k needs a positive radicand (-1)^{k(k-1)/2} t_b / t_a,
    that is Delta = (-1)^{k(k-1)/2} t_b t_a > 0; odd orders always have one.
    """
    targets = as_targets(t)
    return _report(targets, _root_steps(targets))


def _report(targets: TargetSequence, steps: list[tuple[Fraction, Fraction, int]]) -> SolvabilityReport:
    """frobenius_check's report, from the target's _root_steps."""
    deltas: list[Fraction] = []
    violation: Optional[tuple[int, int, Fraction]] = None
    for index, (t_a, c, k) in enumerate(steps):
        if k % 2 == 0:
            delta = c * t_a
            deltas.append(delta)
            if delta <= 0 and violation is None:
                violation = (index, k, delta)
    return SolvabilityReport(
        solvable=violation is None,
        support=targets.support,
        deltas=tuple(deltas),
        violation=violation,
    )


# ---------------------------------------------------------------------------
# Free-entry policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreePolicy:
    """How to fill entries left free by the construction.

    kind "zeros" fills with 0; kind "seed" draws deterministic pseudorandom
    rationals from the given seed, useful for fuzzing the independence of the
    certified determinants from the free entries.
    """

    kind: str
    seed: Optional[int] = None

    def stream(self) -> Iterator[Fraction]:
        if self.kind == "zeros":
            return itertools.repeat(Fraction(0))
        if self.kind == "seed":
            rng = random.Random(self.seed)

            def generate() -> Iterator[Fraction]:
                while True:
                    yield Fraction(rng.randint(-99, 99), rng.randint(1, 16))

            return generate()
        raise ParseError(f"unknown free-entry policy {self.kind!r}")

    @staticmethod
    def parse(text: str) -> "FreePolicy":
        if text == "zeros":
            return ZEROS
        if text.startswith("seed:"):
            try:
                seed = int(text[len("seed:") :])
            except ValueError:
                raise ParseError(f"invalid seed in policy {_QUOTE.repr(text)}") from None
            if not 0 <= seed < 2**64:
                raise ParseError("policy seed must be an unsigned 64-bit integer")
            return FreePolicy("seed", seed)
        raise ParseError(f"unknown policy {_QUOTE.repr(text)}; expected zeros or seed:<u64>")


ZEROS = FreePolicy("zeros")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _residual_text(value) -> str:
    """A residual to 10 digits.  It is rounded to 53 bits first: mp.nstr of a
    tiny value with a mantissa over about 14,000 bits converts an integer past
    Python's int-string limit and raises."""
    from mpmath import mp

    return mp.nstr(mp.mpf(value, prec=53), 10)


@dataclass(frozen=True)
class InverseSolution:
    """A verified solution of the prescribed-determinant problem.

    terms holds Fractions in exact mode and mpmath floats in bigfloat mode.
    certificate holds D_0..D_N of the solution as to_json prints it (the
    terms themselves in exact mode, their printed decimals in bigfloat mode),
    each proved exactly from witness polynomials P_r that the certificate
    checked against those terms, and max_residual bounds the largest
    |D_n - t_n| / max(1, |t_n|) of those D_n: it is 0 in exact mode, and in
    bigfloat mode that exact value rounded up at precision_bits.  report is
    the target's frobenius_check report, which the construction followed.
    """

    terms: tuple
    mode: str  # "exact" | "bigfloat"
    precision_bits: Optional[int]
    certificate: tuple
    max_residual: object  # Fraction(0) in exact mode, mpf otherwise
    report: SolvabilityReport

    @property
    def sequence(self) -> MomentSequence:
        if self.mode != "exact":
            raise ValueError("bigfloat solutions are not exact moment sequences")
        return MomentSequence(self.terms)

    def to_json(self) -> dict:
        if self.mode == "exact":
            payload = {
                "solution": [format_rational(v) for v in self.terms],
                "mode": "exact",
                "max_residual": "0",
            }
        else:
            payload = {
                "solution": [format_mpf(v, self.precision_bits) for v in self.terms],
                "mode": "bigfloat",
                "max_residual": _residual_text(self.max_residual),
                "precision_bits": self.precision_bits,
            }
        return payload


def _construct(
    targets: TargetSequence,
    policy: FreePolicy,
    offsets: Sequence,
    recurrence: Callable[[list, int], ApproxRecurrence],
    convert: Callable[[Fraction], object],
) -> list:
    """Run the inductive construction on a target with a nonzero entry, in
    the arithmetic of the offsets.

    offsets are the roots of the _root_steps steps: the first is s_{n_0},
    and each later one is what step a -> b adds to the extension's value at
    a + b + 1.  A gap-1 step is a root of order 1, so it copies no extension
    values and draws no entries after its offset.  recurrence(s, r) is the
    rank-r recurrence of the extension of s_0..s_{2r-1}, and convert takes 0
    and each entry the policy draws into the offsets' arithmetic.
    """
    support = targets.support
    n_top = len(targets) - 1
    draw = map(convert, policy.stream()).__next__

    n0 = support[0]
    s: list = [convert(Fraction(0))] * n0 + [offsets[0]]
    s.extend(draw() for _ in range(n0 + 1, 2 * n0 + 1))
    for a, b, offset in zip(support, support[1:], offsets[1:]):
        s.append(draw())  # s_{2a+1}: free, but needed to define the extension
        sigma = _extension_values(s, recurrence(s, a + 1), a + b + 1)
        s.extend(sigma[2 * a + 2 : a + b + 1])
        s.append(sigma[a + b + 1] + offset)
        s.extend(draw() for _ in range(a + b + 2, 2 * b + 1))

    last = support[-1]
    if last < n_top:
        s.append(draw())  # s_{2·last+1}
        sigma = _extension_values(s, recurrence(s, last + 1), 2 * n_top)
        s.extend(sigma[2 * last + 2 :])
    return s


def _certify(
    terms: Sequence[Fraction], targets: TargetSequence, scanner: HankelScanner
) -> tuple[tuple, Fraction]:
    """Every D_n of the terms, proved by witnesses, and the exact largest
    |D_n - t_n| / max(1, |t_n|).

    The witnesses are the polynomials P_r of the given scanner (with
    polynomials), first extended over the terms it has not taken.
    Nothing the scan computed is trusted.  Each check is an integer dot
    product L(x^j P) = sum_i p_i s_{i+j} over the lcm-scaled terms
    (:func:`core._moment`).  From D_{-1} = 1 and P_0 = 1, at each full-degree
    index r:

    (a) P_r must be a witness (:func:`core._is_witness`, stop = r): degree r
        and L(x^j P_r) = 0 for j < r, with leading coefficient the D_{r-1}
        proved here (nonzero);
    (b) if j >= r is the first index with u = L(x^j P_r) != 0, then P_r is a
        kernel vector of H_m, so D_m = 0, for r <= m < j;
    (c) D_j = (-1)^{g(g-1)/2} u^g / D_{r-1}^{g-1}, g = j - r + 1, and the
        next full-degree index is j + 1.

    (c) is det(T^T H_j T) = D_{r-1}^{2g} D_j for the triangular
    T = [e_0 .. e_{r-1}, P_r, x P_r, .., x^{g-1} P_r]: the dot products of (a)
    and (b) zero its off-diagonal blocks, and its last block is
    anti-triangular with u D_{r-1} on the antidiagonal.  A witness that fails
    (a) is an internal error.
    """
    n_top = len(targets) - 1
    ints, scale = scale_to_integers(terms)
    if len(terms) > len(scanner.terms):
        scanner.extend(terms[len(scanner.terms) :])

    dets = [Fraction(0)] * len(targets)
    r, d_prev, p, factor = 0, Fraction(1), (1,), Fraction(1)
    while r <= n_top:
        if r:
            p, factor = scanner.p_int[r], scanner.p_factor[r]
            if not _is_witness(p, ints, r, r) or factor * p[r] != d_prev:
                raise RuntimeError(
                    f"internal error: the scan's P_{r} is not the determinantal "
                    "polynomial of the solution"
                )
        j = r
        while j <= n_top and not (u_int := _moment(p, ints, j)):
            j += 1
        if j > n_top:
            break  # D_r = .. = D_N = 0
        g = j - r + 1
        d_prev = (factor * Fraction(u_int, scale)) ** g / d_prev ** (g - 1)
        if (g * (g - 1) // 2) % 2:
            d_prev = -d_prev
        dets[j] = d_prev
        r = j + 1
    residual = max(
        (abs(d - t) / max(1, abs(t)) for d, t in zip(dets, targets.terms) if d != t),
        default=Fraction(0),
    )
    return tuple(dets), residual


def solve_inverse(
    t: TargetLike,
    free_policy: FreePolicy = ZEROS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol: str = DEFAULT_TOLERANCE,
) -> InverseSolution:
    """Construct s_0..s_{2N} with D_n(s) = t_n for all n <= N.

    Exact mode is used when every real root the construction needs is
    rational; otherwise the construction runs once in big-float arithmetic,
    and the certified residual of the printed solution, rounded up, must not
    exceed tol rounded down: else PrecisionExhausted.  Raises NotSolvable
    when the sign conditions fail.
    """
    targets = as_targets(t)
    steps = _root_steps(targets)
    report = _report(targets, steps)
    if not report.solvable:
        raise NotSolvable(report)
    offsets = [exact_kth_root(c / t_a, k) for t_a, c, k in steps]
    if None not in offsets:
        scanner = HankelScanner(polys=True)

        def scan_recurrence(values: list, r: int) -> ApproxRecurrence:
            scanner.extend(values[len(scanner.terms) :])
            return _recurrence_from_p(scanner.p_int[r], r)

        if steps:
            terms = _construct(targets, free_policy, offsets, scan_recurrence, Fraction)
        else:  # the all-zero target: the zero sequence
            terms = [Fraction(0)] * max(2 * len(targets) - 1, 0)
        certificate, residual = _certify(terms, targets, scanner)
        if residual:
            n = next(n for n, d in enumerate(certificate) if d != targets[n])
            raise RuntimeError(
                f"internal error: exact construction gives D_{n} = "
                f"{format_rational(certificate[n])}, target {format_rational(targets[n])}"
            )
        return InverseSolution(tuple(terms), "exact", None, certificate, residual, report)

    from mpmath import mp
    from mpmath.libmp import from_rational, round_ceiling

    bits = precision_bits

    def solve_recurrence(values: list, r: int) -> ApproxRecurrence:
        rows = [[values[i + j] for j in range(r)] for i in range(r)]
        rhs = [values[r + i] for i in range(r)]
        try:
            solution = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
        except ZeroDivisionError:  # mpmath: "matrix is numerically singular"
            # Its pivots vanish at this precision; more bits may separate them from zero.
            raise PrecisionExhausted(bits, "inf", tol) from None
        return ApproxRecurrence(r, tuple(solution))

    with mp.workprec(bits):
        offsets = [real_kth_root(to_mpf(c, bits) / to_mpf(t_a, bits), k, bits) for t_a, c, k in steps]
        terms = _construct(targets, free_policy, offsets, solve_recurrence, lambda v: to_mpf(v, bits))
    # The certificate reads the solution as to_json prints it: big floats as
    # their decimals, read back exactly (Decimal, unlike parse_rational, takes
    # any number of digits), and scanned afresh for witnesses.
    printed = [Fraction(Decimal(format_mpf(v, bits))) for v in terms]
    certificate, residual = _certify(printed, targets, HankelScanner(polys=True))
    worst = mp.make_mpf(from_rational(residual.numerator, residual.denominator, bits, round_ceiling))
    if worst > mp.mpf(tol, prec=bits, rounding="d"):
        raise PrecisionExhausted(bits, _residual_text(worst), tol)
    return InverseSolution(tuple(terms), "bigfloat", bits, certificate, worst, report)
