"""Input guards and edge values that the rest of the suite never reaches.

Each row names one call, the error kind it must raise and its message, or
the value it must return.  The rows pin the guards of `apply_L` and
`second_kind`, the empty-matrix values of `bottom_row_minors`,
`fraction_free_det` and the determinant readers, the constant, printing
and hashing edges of `Polynomial`, `scalars` and `cauchy_bound`, and the
refusal of a non-positive weight on the exact `measure` path.
"""

from fractions import Fraction as F

import pytest
from mpmath import mp

from hankelkit import (
    IndexOutOfRange,
    NonPositiveWeight,
    ParseError,
    apply_L,
    cd_identity_residual,
    expand_rational,
    hankel_det,
    jacobi_from_moments,
    kronecker_residual,
    moments_of_atoms,
    rational_form,
    recover_measure,
    recurrence_coeffs,
    second_kind,
    shifted_det,
    shifted_recurrence_coeffs,
    solve_prescribed,
)
from hankelkit import measures
from hankelkit.core import MomentSequence, bottom_row_minors, fraction_free_det
from hankelkit.inverse import FreePolicy
from hankelkit.measures import Interval, cauchy_bound
from hankelkit.polynomials import ZERO, JacobiCoeffs, Polynomial
from hankelkit.scalars import RealScalar, exact_kth_root, int_kth_root, parse_rational, real_kth_root, to_mpf

S = [2, 1, 1, 1, 1, 1, 1, 1]


def _assign_coeffs():
    p = Polynomial([1])
    p.coeffs = (F(2),)


RAISES = [
    ("recurrence_coeffs r=0", lambda: recurrence_coeffs(S, 0), ValueError, "r must be >= 1"),
    ("kronecker_residual r=0", lambda: kronecker_residual(S, 0), ValueError, "r must be >= 1"),
    ("cd_identity_residual r=0", lambda: cd_identity_residual(S, 0), ValueError, "r must be >= 1"),
    (
        "shifted_recurrence_coeffs shift=-1",
        lambda: shifted_recurrence_coeffs(recurrence_coeffs(S, 1), S, -1),
        ValueError,
        "shift must be >= 0",
    ),
    ("expand_rational m_out=-1", lambda: expand_rational(rational_form(S, 1), -1), ValueError, "m_out must be >= 0"),
    ("jacobi_from_moments n=0", lambda: jacobi_from_moments(S, 0), ValueError, "need at least one coefficient pair"),
    (
        "solve_prescribed unequal lengths",
        lambda: solve_prescribed([1], []),
        ValueError,
        "t and t_prime must have equal length",
    ),
    ("JacobiCoeffs unequal lengths", lambda: JacobiCoeffs((F(1),), ()), ValueError, "a and b must have equal length"),
    (
        "JacobiCoeffs.from_json a not a list",
        lambda: JacobiCoeffs.from_json({"a": "1", "b": []}),
        ParseError,
        '"a" and "b" must be lists of rational strings',
    ),
    (
        "apply_L past the horizon",
        lambda: apply_L([1, 2], Polynomial([0, 0, 1])),
        IndexOutOfRange,
        "needs moment index 2 but only indices 0..1 are known",
    ),
    (
        "second_kind past the horizon",
        lambda: second_kind([1], Polynomial([0, 0, 0, 1])),
        IndexOutOfRange,
        "needs moment index 2 but only indices 0..0 are known",
    ),
    ("Interval out of order", lambda: Interval(1, 0), ValueError, "interval endpoints out of order"),
    ("FreePolicy unknown", lambda: FreePolicy("bogus").stream(), ParseError, "unknown free-entry policy 'bogus'"),
    ("int_kth_root n<0", lambda: int_kth_root(-1, 2), ValueError, "int_kth_root needs n >= 0 and k >= 1"),
    ("exact_kth_root k=0", lambda: exact_kth_root(2, 0), ValueError, "root order must be >= 1"),
    (
        "real_kth_root even root of a negative",
        lambda: real_kth_root(-2, 2, 64),
        ValueError,
        "even root of a negative value has no real branch",
    ),
    ("RealScalar below 64 bits", lambda: RealScalar(1, 32), ValueError, "precision_bits must be >= 64"),
    ("parse_rational bad exponent", lambda: parse_rational("1e-_"), ParseError, "not a rational: '1e-_'"),
    ("Polynomial.coeffs assignment", _assign_coeffs, AttributeError, "Polynomial is immutable"),
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_guard_raises(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_apply_L_past_the_horizon_names_index_and_horizon():
    with pytest.raises(IndexOutOfRange) as info:
        apply_L([1, 2], Polynomial([0, 0, 1]))
    assert (info.value.needed, info.value.horizon) == (2, 2)


def test_second_kind_past_the_horizon_names_index_and_horizon():
    # Q of a degree-3 p reads s_0..s_2; the zero polynomial and constants read nothing.
    with pytest.raises(IndexOutOfRange) as info:
        second_kind([1], Polynomial([0, 0, 0, 1]))
    assert (info.value.needed, info.value.horizon) == (2, 1)
    assert second_kind([1, 2, 3], Polynomial([0, 0, 0, 1])) == Polynomial([3, 2, 1])
    assert second_kind([], Polynomial([5])).is_zero()
    assert second_kind([], Polynomial([])).is_zero()


VALUES = [
    ("hankel_det n=-1", lambda: hankel_det(S, -1), F(1)),
    ("shifted_det n=-1", lambda: shifted_det(S, -1), F(1)),
    ("fraction_free_det empty", lambda: fraction_free_det([]), F(1)),
    ("bottom_row_minors empty", lambda: bottom_row_minors([]), [F(1)]),
    ("cauchy_bound constant", lambda: cauchy_bound(Polynomial([5])), 1),
    ("exact_kth_root irrational", lambda: exact_kth_root(F(1, 2), 2), None),
    ("to_mpf integer", lambda: to_mpf(5, 64), 5),
    ("RealScalar str", lambda: str(RealScalar(mp.mpf(1), 64)), "1.0"),
    ("Polynomial repr zero", lambda: repr(ZERO), "Polynomial(0)"),
    ("Polynomial str", lambda: str(Polynomial([1, 1])), "x + 1"),
    ("Polynomial hash", lambda: hash(Polynomial([1, F(1, 2)])) == hash(Polynomial([F(1), F(1, 2)])), True),
    ("MomentSequence iteration", lambda: list(MomentSequence((F(1), F(2)))), [F(1), F(2)]),
]


@pytest.mark.parametrize("call, value", [row[1:] for row in VALUES], ids=[row[0] for row in VALUES])
def test_edge_value(call, value):
    assert call() == value


def test_exact_measure_refuses_a_non_positive_weight(monkeypatch):
    # The PSD-flat check comes first, and a PSD-flat sequence has positive
    # weights, so the weights are negated where they are computed.
    exact_weights = measures._exact_weights
    monkeypatch.setattr(measures, "_exact_weights", lambda *args: [-w for w in exact_weights(*args)])
    with pytest.raises(NonPositiveWeight) as info:
        recover_measure(moments_of_atoms([(0, 1), (1, 2)], 5), 64)
    assert info.value.kind == "non_positive_weight"
    assert str(info.value) == "weight at atom 0 is -1.0, expected > 0"
