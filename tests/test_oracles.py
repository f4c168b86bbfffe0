"""Freeze the reference oracles against hand-computed values.

Every helper in oracles.py is checked here against literals worked out by
hand, so the cross-checks elsewhere rest on something independently trusted.
The polynomial helpers are checked against the library's ring operations.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit.polynomials import ONE, X, ZERO, Polynomial

from oracles import (
    cofactor_det,
    oracle_hankel_det,
    oracle_poly_coeffs,
    oracle_q_coeffs,
    oracle_rank,
    oracle_shifted_det,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_monic,
)

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=8)
poly_st = st.builds(Polynomial, st.lists(fractions_st, max_size=6))


class TestCofactorDet:
    def test_order_one(self):
        assert cofactor_det([[F(7)]]) == 7

    def test_order_two(self):
        assert cofactor_det([[F(1), F(2)], [F(3), F(4)]]) == -2

    def test_order_three_by_hand(self):
        # 2*(1*1-0*3) - 0 + 1*(1*3-1*0) = 2 + 3
        rows = [[F(2), F(0), F(1)], [F(1), F(1), F(0)], [F(0), F(3), F(1)]]
        assert cofactor_det(rows) == 5

    def test_empty_matrix_is_one(self):
        assert cofactor_det([]) == 1

    def test_rational_entries(self):
        rows = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
        assert cofactor_det(rows) == F(1, 10) - F(1, 12)


class TestOracleHankel:
    def test_catalan_prefix(self):
        # det [[1,1,2],[1,2,5],[2,5,14]] = 1, worked by hand
        assert oracle_hankel_det([F(1), F(1), F(2), F(5), F(14)], 2) == 1

    def test_antidiagonal(self):
        assert oracle_hankel_det([F(0), F(0), F(1), F(0), F(0)], 2) == -1

    def test_geometric(self):
        assert oracle_hankel_det([F(1), F(3), F(9), F(27), F(81)], 1) == 0


class TestOracleShifted:
    def test_order_one_is_s1(self):
        assert oracle_shifted_det([F(1), F(5)], 0) == 5

    def test_order_two_by_hand(self):
        # det [[s0, s2], [s1, s3]] = det [[1, 1/2], [0, 0]] = 0
        assert oracle_shifted_det([F(1), F(0), F(1, 2), F(0)], 1) == 0

    def test_order_two_nonzero(self):
        # det [[1, 9], [3, 27]] = 0 for 3^n
        assert oracle_shifted_det([F(1), F(3), F(9), F(27)], 1) == 0
        # det [[2, 1], [1, 1]] = 1
        assert oracle_shifted_det([F(2), F(1), F(1), F(1)], 1) == 1


class TestOraclePoly:
    def test_p1(self):
        assert oracle_poly_coeffs([F(1), F(2)], 1) == [F(-2), F(1)]

    def test_p2_flat(self):
        assert oracle_poly_coeffs([F(2), F(1), F(1), F(1)], 2) == [F(0), F(-1), F(1)]

    def test_p2_even(self):
        assert oracle_poly_coeffs([F(1), F(0), F(1, 2), F(0)], 2) == [
            F(-1, 4),
            F(0),
            F(1, 2),
        ]

    def test_q1_is_s0_squared(self):
        assert oracle_q_coeffs([F(1), F(9)], 1) == [F(1)]
        assert oracle_q_coeffs([F(2), F(1)], 1) == [F(4)]

    def test_q2_by_hand(self):
        assert oracle_q_coeffs([F(2), F(1), F(1), F(1)], 2) == [F(-1), F(2)]


class TestOracleRank:
    def test_zero_matrix(self):
        assert oracle_rank([[F(0), F(0)], [F(0), F(0)]]) == 0

    def test_repeated_row(self):
        assert oracle_rank([[F(1), F(1)], [F(1), F(1)]]) == 1

    def test_full_rank(self):
        rows = [[F(1), F(1), F(2)], [F(1), F(2), F(5)], [F(2), F(5), F(14)]]
        assert oracle_rank(rows) == 3

    def test_rectangular(self):
        assert oracle_rank([[F(1), F(2), F(3)], [F(2), F(4), F(6)]]) == 1


class TestPolynomialHelpers:
    @settings(max_examples=40, deadline=None)
    @given(poly_st, poly_st, fractions_st)
    def test_mul_distributes_over_eval(self, a, b, x):
        assert poly_eval(a * b, x) == poly_eval(a, x) * poly_eval(b, x)
        assert poly_eval(a + b, x) == poly_eval(a, x) + poly_eval(b, x)

    @settings(max_examples=40, deadline=None)
    @given(poly_st, poly_st)
    def test_divmod_invariant(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                poly_divmod(a, b)
            return
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    def test_gcd_of_common_factor(self):
        p = (X - ONE) * (X * X + ONE)
        q = (X - ONE) * X
        assert poly_gcd(p, q) == X - ONE

    def test_gcd_of_zeros(self):
        assert poly_gcd(ZERO, ZERO).is_zero()

    def test_monic(self):
        assert poly_monic(Polynomial([2, 4])) == Polynomial([F(1, 2), 1])
        with pytest.raises(ValueError):
            poly_monic(ZERO)
