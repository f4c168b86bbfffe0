"""Scalar plumbing: exact rationals, integer k-th roots, and big-float values.

Exact scalars are ``fractions.Fraction`` throughout the package (canonical
form and exact arithmetic come for free).  Irrational values forced by root
extractions are carried as :class:`RealScalar`: an arbitrary-precision
``mpmath`` float tagged with the precision it was computed at.  ``mpmath`` is
imported by the functions that compute or print such a value, not by this
module, so the exact layers never load it.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .errors import ParseError
from .printing import format_rational  # noqa: F401 - formatting stays public here

if TYPE_CHECKING:
    import mpmath

RationalLike = Union[Fraction, int, str]

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 256
# The default tolerance of solve_inverse's certificate and of ``solve --tol``.
DEFAULT_TOLERANCE = "1e-30"

# Python's default limit on int <-> str conversion, which already rejects
# longer digit strings; exponent notation must not expand past it either.
MAX_RATIONAL_DIGITS = 4300
_DECIMAL = r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*"
# The common input: an ASCII integer or integer ratio, parsed without Fraction's
# own regular expression.
_INTEGER_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# Quotes a rejected input in an error message.  It looks at no more than it
# prints: a string's first characters and a list's first items, with the
# lists inside those shown as [...].
_QUOTE = reprlib.Repr()
_QUOTE.maxstring = _QUOTE.maxother = 60
_QUOTE.maxlevel = 1


def _check_expanded_size(text: str) -> None:
    """Raise ParseError when a decimal or exponent string expands past MAX_RATIONAL_DIGITS.

    m.f e x is int(mf) * 10^shift with shift = x - len(f): before reduction
    the numerator has len(mf) + max(shift, 0) digits at most and the
    denominator 1 + max(-shift, 0).
    """
    match = re.fullmatch(_DECIMAL, text)  # compiled on first use, not at import
    if match is None:
        return  # malformed: Fraction rejects it
    whole, fraction, exponent = (part.replace("_", "") for part in match.groups(""))
    try:
        shift = int(exponent or "0") - len(fraction)
    except ValueError as exc:
        raise ParseError(f"not a rational: {_QUOTE.repr(text)}") from exc
    digits = max(len(whole) + len(fraction) + max(shift, 0), 1 + max(-shift, 0))
    if digits > MAX_RATIONAL_DIGITS:
        raise ParseError(f"rational expands past {MAX_RATIONAL_DIGITS} digits: {text[:40]!r}")


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from ``"p/q"`` / ``"p"`` strings or integers.

    Decimal and exponent strings (``"1.5e3"``) are accepted when their
    numerator and denominator stay within MAX_RATIONAL_DIGITS digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value or "E" in value:
            _check_expanded_size(value)
        try:
            match = _INTEGER_RATIO.fullmatch(value)
            if match is not None:
                num, den = match.groups()
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {_QUOTE.repr(value)}") from exc
    raise ParseError(f"not a rational: {_QUOTE.repr(value)} (floats are not accepted; use strings)")


def int_kth_root(n: int, k: int) -> tuple[int, bool]:
    """Return (floor(n**(1/k)), is_exact) for n >= 0, k >= 1, by integer Newton."""
    if n < 0 or k < 1:
        raise ValueError("int_kth_root needs n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n, True
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) >= n^(1/k)
    # No iterate falls below floor(n^(1/k)) (AM-GM), and each one above it decreases.
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x**k == n


def exact_kth_root(value: Fraction, k: int) -> Fraction | None:
    """Exact real k-th root of a rational, or None when it is irrational.

    Odd k admits negative inputs (the real branch); even k requires value >= 0.
    """
    if k < 1:
        raise ValueError("root order must be >= 1")
    if value < 0:
        if k % 2 == 0:
            return None
        flipped = exact_kth_root(-value, k)
        return None if flipped is None else -flipped
    num_root, num_exact = int_kth_root(value.numerator, k)
    if not num_exact:
        return None
    den_root, den_exact = int_kth_root(value.denominator, k)
    if not den_exact:
        return None
    return Fraction(num_root, den_root)


def to_mpf(value: Fraction | int, precision_bits: int) -> mpmath.mpf:
    """Convert an exact value to an mpf, rounding once at the stated precision."""
    from mpmath import mp

    with mp.workprec(precision_bits):
        if isinstance(value, int):
            return +mp.mpf(value)
        return mp.mpf(value.numerator) / value.denominator


def real_kth_root(value: mpmath.mpf, k: int, precision_bits: int) -> mpmath.mpf:
    """Real k-th root at the stated precision; odd k follows the sign of value."""
    from mpmath import mp

    with mp.workprec(precision_bits):
        if value < 0:
            if k % 2 == 0:
                raise ValueError("even root of a negative value has no real branch")
            return -mp.root(-value, k)
        return +mp.root(value, k)


def format_mpf(value: mpmath.mpf, precision_bits: int) -> str:
    """The decimal text a big-float value prints as: the digits precision_bits carries."""
    from mpmath import mp
    from mpmath.libmp import prec_to_dps

    return mp.nstr(value, prec_to_dps(precision_bits))


@dataclass(frozen=True)
class RealScalar:
    """An arbitrary-precision float together with the precision it carries."""

    value: mpmath.mpf
    precision_bits: int

    def __post_init__(self) -> None:
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS}")

    def to_str(self) -> str:
        return format_mpf(self.value, self.precision_bits)

    def __str__(self) -> str:
        return self.to_str()


def real_scalar(value, precision_bits: int) -> RealScalar:
    """Build a RealScalar, converting exact values at the stated precision."""
    if isinstance(value, (Fraction, int)):
        return RealScalar(to_mpf(value, precision_bits), precision_bits)
    return RealScalar(+value, precision_bits)
