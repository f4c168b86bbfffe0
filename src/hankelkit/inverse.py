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
restarts in big-float arithmetic at a configurable precision, solves for the
recurrence with partial pivoting, and the recomputed-determinant certificate
enforces the requested tolerance.  Either way a solution is verified before
it is returned; the exact certificate recomputes every D_n by Bareiss
elimination, independent of the scan.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from mpmath import mp
import mpmath

from .approximants import ApproxRecurrence, _extension_values, _recurrence_from_p
from .core import HankelScanner, MomentSequence, fraction_free_det, hankel_matrix
from .errors import NotSolvable, ParseError, PrecisionExhausted
from .scalars import (
    DEFAULT_PRECISION_BITS,
    exact_kth_root,
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
                raise ParseError(f"invalid seed in policy {text!r}") from None
            if not 0 <= seed < 2**64:
                raise ParseError("policy seed must be an unsigned 64-bit integer")
            return FreePolicy("seed", seed)
        raise ParseError(f"unknown policy {text!r}; expected zeros or seed:<u64>")


ZEROS = FreePolicy("zeros")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class _IrrationalRoot(Exception):
    """Internal: an exact-mode root does not exist in the rationals."""


@dataclass(frozen=True)
class InverseSolution:
    """A verified solution of the prescribed-determinant problem.

    terms holds Fractions in exact mode and mpmath floats in bigfloat mode;
    certificate holds the recomputed D_0..D_N and max_residual the largest
    |D_n - t_n| / max(1, |t_n|).
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
            digits = mpmath.libmp.prec_to_dps(self.precision_bits)
            payload = {
                "solution": [mp.nstr(v, digits) for v in self.terms],
                "mode": "bigfloat",
                "max_residual": mp.nstr(self.max_residual, 10),
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


def _verify_exact(terms: list, targets: TargetSequence) -> tuple:
    """Recompute every D_n by Bareiss elimination, independent of the gap
    formulas the construction (and ``hankel_det``) rely on."""
    seq = MomentSequence(tuple(terms))
    recomputed = tuple(
        fraction_free_det(hankel_matrix(seq, n)) for n in range(len(targets))
    )
    for n, value in enumerate(recomputed):
        if value != targets[n]:
            raise RuntimeError(
                f"internal error: exact construction gives D_{n} = {value}, "
                f"target {targets[n]}"
            )
    return recomputed


def _det_mpf(rows: list) -> mp.mpf:
    """Determinant by partial-pivot elimination.

    Unlike mp.det, a pivot column that is exactly zero yields an exact zero
    determinant instead of an internal error (Hankel matrices of sequences
    with leading zeros are exactly singular in this way).
    """
    a = [list(row) for row in rows]
    n = len(a)
    det = mp.mpf(1)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda k: abs(a[k][col]))
        if a[pivot_row][col] == 0:
            return mp.mpf(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        det *= a[col][col]
        for k in range(col + 1, n):
            factor = a[k][col] / a[col][col]
            for j in range(col + 1, n):
                a[k][j] -= factor * a[col][j]
    return det


def _verify_bigfloat(terms: list, targets: TargetSequence, bits: int):
    with mp.workprec(bits):
        recomputed = []
        worst = mp.mpf(0)
        for n in range(len(targets)):
            value = _det_mpf(
                [[terms[i + j] for j in range(n + 1)] for i in range(n + 1)]
            )
            recomputed.append(value)
            target = to_mpf(targets[n], bits)
            scale = max(mp.mpf(1), abs(target))
            residual = abs(value - target) / scale
            if residual > worst:
                worst = residual
        return tuple(recomputed), worst


def solve_inverse(
    t: TargetLike,
    free_policy: FreePolicy = ZEROS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol: str = DEFAULT_TOLERANCE,
) -> InverseSolution:
    """Construct s_0..s_{2N} with D_n(s) = t_n for all n <= N.

    Exact mode is used when every real root the construction needs is
    rational; otherwise the whole construction reruns in big-float arithmetic
    (same policy draws) and the verified certificate must meet tol.
    Raises NotSolvable when the sign conditions fail.
    """
    targets = as_targets(t)
    report = frobenius_check(targets)
    if not report.solvable:
        raise NotSolvable(report)
    n_top = len(targets) - 1
    if not targets.support:
        terms = tuple(Fraction(0) for _ in range(2 * n_top + 1)) if n_top >= 0 else ()
        return InverseSolution(
            terms=terms,
            mode="exact",
            precision_bits=None,
            certificate=tuple(Fraction(0) for _ in range(len(targets))),
            max_residual=Fraction(0),
        )
    try:
        terms = _construct(targets, free_policy, exact=True, bits=precision_bits, tol=tol)
    except _IrrationalRoot:
        with mp.workprec(precision_bits):
            terms = _construct(targets, free_policy, exact=False, bits=precision_bits, tol=tol)
        certificate, worst = _verify_bigfloat(terms, targets, precision_bits)
        with mp.workprec(precision_bits):
            if worst > mp.mpf(tol):
                raise PrecisionExhausted(
                    precision_bits, mp.nstr(worst, 10), tol
                ) from None
        return InverseSolution(
            terms=tuple(terms),
            mode="bigfloat",
            precision_bits=precision_bits,
            certificate=certificate,
            max_residual=worst,
        )
    certificate = _verify_exact(terms, targets)
    return InverseSolution(
        terms=tuple(terms),
        mode="exact",
        precision_bits=None,
        certificate=certificate,
        max_residual=Fraction(0),
    )
