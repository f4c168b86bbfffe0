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

When every required root is rational the whole run is exact: one resumable
scan (`core.HankelScanner`) takes each entry as the construction fixes it,
and each step reads the extension's recurrence d_k = -p_{r,k}/D_{r-1} off its
P_r, r = n_k + 1, once s_0..s_{2r-1} are in.  Otherwise the construction
restarts in big-float arithmetic at a configurable precision and solves for
the recurrence with partial pivoting.  Either way one certificate checks a
solution before it is returned: it recomputes every D_n by Bareiss
elimination, independent of the scan and the gap formulas, on exact
rationals.  In exact mode these are the terms themselves, and every D_n must
equal t_n.  In big-float mode they are the decimals the solution prints as,
read back exactly, so the certified residual max |D_n - t_n| / max(1, |t_n|)
is the exact residual of the printed solution, rounded up; it must not
exceed the requested tolerance.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from mpmath import mp
from mpmath.libmp import from_rational, round_ceiling

from .approximants import ApproxRecurrence, _extension_values, _recurrence_from_p
from .core import HankelScanner, MomentSequence, fraction_free_det, hankel_matrix
from .errors import NotSolvable, ParseError, PrecisionExhausted
from .scalars import (
    DEFAULT_PRECISION_BITS,
    _QUOTE,
    exact_kth_root,
    format_mpf,
    format_rational,
    parse_rational,
    real_kth_root,
    to_mpf,
)

DEFAULT_TOLERANCE = "1e-30"


@dataclass(frozen=True)
class TargetSequence:
    """Prescribed determinant values t_0..t_N."""

    terms: tuple[Fraction, ...]

    @staticmethod
    def from_values(values: Sequence) -> "TargetSequence":
        return TargetSequence(tuple(parse_rational(v) for v in values))

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
        return tuple(n for n, t in enumerate(self.terms) if t != 0)

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


def frobenius_check(t: TargetLike) -> SolvabilityReport:
    """Test the sign conditions; the all-zero target is (trivially) solvable."""
    targets = as_targets(t)
    support = targets.support
    deltas: list[Fraction] = []
    violation: Optional[tuple[int, int, Fraction]] = None
    delta_index = 0
    if support:
        n0 = support[0]
        if (n0 + 1) % 2 == 0:
            sign = -1 if ((n0 + 1) // 2) % 2 else 1
            delta0 = sign * targets[n0]
            deltas.append(delta0)
            if delta0 <= 0:
                violation = (0, n0 + 1, delta0)
        delta_index = 1
        for k in range(len(support) - 1):
            gap = support[k + 1] - support[k]
            if gap % 2 == 0:
                sign = -1 if (gap // 2) % 2 else 1
                delta = sign * targets[support[k + 1]] * targets[support[k]]
                deltas.append(delta)
                if delta <= 0 and violation is None:
                    violation = (delta_index, gap, delta)
            delta_index += 1
    return SolvabilityReport(
        solvable=violation is None,
        support=support,
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


class _IrrationalRoot(Exception):
    """Internal: an exact-mode root does not exist in the rationals."""


def _residual_text(value) -> str:
    """A residual to 10 digits.  It is rounded to 53 bits first: mp.nstr of a
    tiny value with a mantissa over about 14,000 bits converts an integer past
    Python's int-string limit and raises."""
    return mp.nstr(mp.mpf(value, prec=53), 10)


@dataclass(frozen=True)
class InverseSolution:
    """A verified solution of the prescribed-determinant problem.

    terms holds Fractions in exact mode and mpmath floats in bigfloat mode.
    certificate holds D_0..D_N recomputed exactly from the solution as
    to_json prints it (the terms themselves in exact mode, their printed
    decimals in bigfloat mode), and max_residual bounds the largest
    |D_n - t_n| / max(1, |t_n|) of those D_n: it is 0 in exact mode, and in
    bigfloat mode that exact value rounded up at precision_bits.
    """

    terms: tuple
    mode: str  # "exact" | "bigfloat"
    precision_bits: Optional[int]
    certificate: tuple
    max_residual: object  # Fraction(0) in exact mode, mpf otherwise

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
    targets: TargetSequence, policy: FreePolicy, exact: bool, bits: int, tol: str
) -> list:
    """Run the inductive construction in one arithmetic (exact or big-float).

    A big-float recurrence system that is singular at the working precision
    raises PrecisionExhausted: more bits may separate its pivots from zero.
    """
    support = targets.support
    n_top = len(targets) - 1
    if not support:  # the all-zero target: the zero sequence
        return [Fraction(0)] * max(2 * n_top + 1, 0)
    draws = policy.stream()

    if exact:
        zero = Fraction(0)

        def lift(fr: Fraction):
            return fr

        scanner = HankelScanner(polys=True)

        def recurrence(values: list, r: int) -> ApproxRecurrence:
            scanner.extend(values[len(scanner.terms) :])
            return _recurrence_from_p(scanner.p_coeffs(r), r)

        def root(value, k: int):
            result = exact_kth_root(value, k)
            if result is None:
                raise _IrrationalRoot()
            return result

    else:
        zero = mp.mpf(0)

        def lift(fr: Fraction):
            return to_mpf(fr, bits)

        def recurrence(values: list, r: int) -> ApproxRecurrence:
            rows = [[values[i + j] for j in range(r)] for i in range(r)]
            rhs = [values[r + i] for i in range(r)]
            with mp.workprec(bits):
                try:
                    solution = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
                except ZeroDivisionError:  # mpmath: "matrix is numerically singular"
                    raise PrecisionExhausted(bits, "inf", tol) from None
            return ApproxRecurrence(r, tuple(solution))

        def root(value, k: int):
            return real_kth_root(value, k, bits)

    def draw():
        return lift(next(draws))

    s: list = []
    n0 = support[0]
    s.extend(zero for _ in range(n0))
    sign = -1 if (n0 * (n0 + 1) // 2) % 2 else 1
    s.append(root(lift(targets[n0]) * sign, n0 + 1))
    s.extend(draw() for _ in range(n0 + 1, 2 * n0 + 1))

    for k in range(len(support) - 1):
        a, b = support[k], support[k + 1]
        g = b - a
        s.append(draw())  # s_{2a+1}: free, but needed to define the extension
        rec = recurrence(s, a + 1)
        sigma = _extension_values(s, rec, 2 * b)
        ratio = lift(targets[b]) / lift(targets[a])
        if g == 1:
            s.append(sigma[2 * b] + ratio)
        else:
            s.extend(sigma[2 * a + 2 : a + b + 1])
            gap_sign = -1 if (g * (g - 1) // 2) % 2 else 1
            s.append(sigma[a + b + 1] + root(ratio * gap_sign, g))
            s.extend(draw() for _ in range(a + b + 2, 2 * b + 1))

    last = support[-1]
    if last < n_top:
        s.append(draw())  # s_{2·last+1}
        rec = recurrence(s, last + 1)
        sigma = _extension_values(s, rec, 2 * n_top)
        s.extend(sigma[2 * last + 2 :])
    return s


def _certify(terms: Sequence[Fraction], targets: TargetSequence) -> tuple[tuple, Fraction]:
    """Every D_n of the terms, by Bareiss elimination, and the exact largest
    |D_n - t_n| / max(1, |t_n|).  Bareiss is independent of the gap formulas
    the construction (and ``hankel_det``) rely on."""
    seq = MomentSequence(tuple(terms))
    dets = tuple(fraction_free_det(hankel_matrix(seq, n)) for n in range(len(targets)))
    residual = max(
        (abs(d - t) / max(1, abs(t)) for d, t in zip(dets, targets.terms)), default=Fraction(0)
    )
    return dets, residual


def solve_inverse(
    t: TargetLike,
    free_policy: FreePolicy = ZEROS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol: str = DEFAULT_TOLERANCE,
) -> InverseSolution:
    """Construct s_0..s_{2N} with D_n(s) = t_n for all n <= N.

    Exact mode is used when every real root the construction needs is
    rational; otherwise the whole construction reruns in big-float arithmetic
    (same policy draws), and the certified residual of the printed solution,
    rounded up, must not exceed tol rounded down: else PrecisionExhausted.
    Raises NotSolvable when the sign conditions fail.
    """
    targets = as_targets(t)
    report = frobenius_check(targets)
    if not report.solvable:
        raise NotSolvable(report)
    bits = None
    try:
        terms = _construct(targets, free_policy, exact=True, bits=precision_bits, tol=tol)
    except _IrrationalRoot:
        bits = precision_bits
        with mp.workprec(bits):
            terms = _construct(targets, free_policy, exact=False, bits=bits, tol=tol)
    # The certificate reads the solution as to_json prints it: big floats as
    # their decimals, read back exactly (Decimal, unlike parse_rational, takes
    # any number of digits).
    printed = terms if bits is None else [Fraction(Decimal(format_mpf(v, bits))) for v in terms]
    certificate, residual = _certify(printed, targets)
    if bits is None:
        if residual:
            n = next(n for n, d in enumerate(certificate) if d != targets[n])
            raise RuntimeError(
                f"internal error: exact construction gives D_{n} = "
                f"{format_rational(certificate[n])}, target {format_rational(targets[n])}"
            )
        worst = residual
    else:
        worst = mp.make_mpf(from_rational(residual.numerator, residual.denominator, bits, round_ceiling))
        if worst > mp.mpf(tol, prec=bits, rounding="d"):
            raise PrecisionExhausted(bits, _residual_text(worst), tol)
    mode = "exact" if bits is None else "bigfloat"
    return InverseSolution(tuple(terms), mode, bits, certificate, worst)
