"""Decimal text of exact values of any length.

Python refuses ``str`` of an integer over 4300 digits (its int-string limit),
so exact values are printed here, without changing that limit for the
process.  This module imports nothing from the package: ``errors`` prints
exact values in its messages with it, and ``scalars`` builds on ``errors``.
"""

from __future__ import annotations

from fractions import Fraction


def _decimal(n: int) -> str:
    """str(n), split at a power of ten while n is over the int-string limit (left unchanged)."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half of n's decimal digits
        high, low = divmod(abs(n), 10**half)
        return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


def format_rational(value: Fraction | int) -> str:
    """Serialize a rational, of any length, as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    text = _decimal(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


def format_value(value) -> str:
    """str(value), except that exact rationals and integers print at any length."""
    if isinstance(value, (Fraction, int)):
        return format_rational(value)
    return str(value)
