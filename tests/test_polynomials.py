"""Determinant polynomials P_n/Q_n, the moment functional, and Jacobi data."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit import (
    JacobiCoeffs,
    MomentSequence,
    NotQuasiDefinite,
    ParseError,
    Polynomial,
    ZeroB,
    ZeroTarget,
    apply_L,
    determinant_transform,
    frobenius_recurrence_residual,
    hankel_det,
    jacobi_from_moments,
    kronecker_residual,
    moments_from_jacobi,
    poly_P,
    poly_Q,
    second_kind,
    shifted_det,
    solve_prescribed,
)
from hankelkit.polynomials import ONE, X, ZERO

from oracles import oracle_poly_coeffs, oracle_q_coeffs, random_sequence

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=8)
poly_st = st.builds(Polynomial, st.lists(fractions_st, max_size=6))


class TestPolynomialArithmetic:
    def test_zero_representation(self):
        assert Polynomial([0, 0]).is_zero()
        assert Polynomial([0, 0]).degree is None
        assert Polynomial([0, 0]) == ZERO

    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_getitem_out_of_range(self):
        assert Polynomial([1, 2])[5] == 0

    @settings(max_examples=40, deadline=None)
    @given(poly_st, poly_st)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @settings(max_examples=40, deadline=None)
    @given(poly_st, poly_st, fractions_st)
    def test_mul_distributes_over_eval(self, a, b, x):
        assert (a * b).eval(x) == a.eval(x) * b.eval(x)
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)

    @settings(max_examples=40, deadline=None)
    @given(poly_st, poly_st)
    def test_divmod_invariant(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    def test_gcd_of_common_factor(self):
        p = (X - ONE) * (X * X + ONE)
        q = (X - ONE) * X
        assert p.gcd(q) == X - ONE

    def test_derivative(self):
        assert Polynomial([5, 3, 0, 2]).derivative() == Polynomial([3, 0, 6])

    def test_times_x(self):
        assert X.times_x(2) == Polynomial([0, 0, 0, 1])
        assert ZERO.times_x(3) == ZERO

    def test_monic(self):
        assert Polynomial([2, 4]).monic() == Polynomial([F(1, 2), 1])
        with pytest.raises(ValueError):
            ZERO.monic()

    def test_json_zero_poly(self):
        assert ZERO.to_json() == {"coeffs": ["0"]}
        assert Polynomial.from_json({"coeffs": ["0"]}) == ZERO

    def test_json_roundtrip(self):
        p = Polynomial([F(1, 3), F(-2), F(0), F(7)])
        assert Polynomial.from_json(p.to_json()) == p

    def test_json_validation(self):
        with pytest.raises(ParseError):
            Polynomial.from_json({"coeffs": "1"})
        with pytest.raises(ParseError):
            Polynomial.from_json(["1"])


class TestPolyP:
    def test_linear(self):
        assert poly_P([1, 2], 1) == X - Polynomial([2])

    def test_flat(self):
        assert poly_P([2, 1, 1, 1], 2) == Polynomial([0, -1, 1])

    def test_even(self):
        assert poly_P([1, 0, F(1, 2), 0], 2) == Polynomial([F(-1, 4), 0, F(1, 2)])

    def test_p0_is_one(self):
        assert poly_P([], 0) == ONE

    def test_matches_cofactor_oracle(self):
        rng = random.Random(1001)
        for _ in range(30):
            n = rng.randint(0, 4)
            s = random_sequence(rng, 2 * n + 1)
            assert list(poly_P(s, n).padded(n + 1)) == oracle_poly_coeffs(s, n)

    def test_leading_coefficient_is_previous_det(self):
        rng = random.Random(1002)
        for _ in range(25):
            n = rng.randint(1, 4)
            s = random_sequence(rng, 2 * n + 1)
            p = poly_P(s, n)
            d_prev = hankel_det(s, n - 1)
            assert p[n] == d_prev
            assert (p.degree == n) == (d_prev != 0)


class TestPolyQ:
    def test_q1_is_s0_squared(self):
        assert poly_Q([1, 99], 1) == ONE
        assert poly_Q([2, 1], 1) == Polynomial([4])

    def test_q2(self):
        assert poly_Q([2, 1, 1, 1], 2) == Polynomial([-1, 2])

    def test_q0_is_zero(self):
        assert poly_Q([5], 0) == ZERO

    def test_matches_divided_difference_oracle(self):
        rng = random.Random(1003)
        for _ in range(30):
            n = rng.randint(0, 4)
            s = random_sequence(rng, 2 * n + 1)
            assert list(poly_Q(s, n).coeffs) == oracle_q_coeffs(s, n)

    @settings(max_examples=60, deadline=None)
    @given(poly_st, st.lists(fractions_st, min_size=5, max_size=5))
    def test_second_kind_of_any_polynomial_is_the_convolution(self, p, s):
        n = len(p.coeffs) - 1
        q = [sum((p[k + m + 1] * s[k] for k in range(n - m)), F(0)) for m in range(n)]
        assert second_kind(s, p) == Polynomial(q)

    def test_degree_bound(self):
        rng = random.Random(1004)
        for _ in range(20):
            n = rng.randint(1, 4)
            s = random_sequence(rng, 2 * n + 1)
            q = poly_Q(s, n)
            assert q.is_zero() or q.degree <= n - 1


class TestMomentFunctional:
    def test_constant(self):
        assert apply_L([7, 1], ONE) == 7

    def test_shifted_p1(self):
        s = [2, 1, 1, 1]
        p1 = poly_P(s, 1)
        assert apply_L(s, p1.times_x()) == 1
        assert apply_L(s, p1) == 0

    def test_square_identity(self):
        s = [1, 0, F(1, 2), 0, F(3, 4)]
        p2 = poly_P(s, 2)
        assert apply_L(s, p2 * p2) == hankel_det(s, 2) * hankel_det(s, 1)

    def test_orthogonality(self):
        rng = random.Random(1005)
        for _ in range(20):
            n = rng.randint(1, 4)
            s = random_sequence(rng, 2 * n + 1)
            p = poly_P(s, n)
            for k in range(n):
                assert apply_L(s, p.times_x(k)) == 0

    def test_laplace_values(self):
        # L(x^n P_n) = D_n and L(x^{n+1} P_n) = D'_{n+1}, unconditionally
        rng = random.Random(1006)
        for _ in range(20):
            n = rng.randint(1, 4)
            s = random_sequence(rng, 2 * n + 2)
            p = poly_P(s, n)
            assert apply_L(s, p.times_x(n)) == hankel_det(s, n)
            assert apply_L(s, p.times_x(n + 1)) == shifted_det(s, n)


class TestKronecker:
    def test_flat_example(self):
        assert kronecker_residual([2, 1, 1, 1], 2) == 0

    def test_r_one(self):
        assert kronecker_residual([3, 5], 1) == 0
        assert kronecker_residual([F(-7, 2), 1], 1) == 0

    def test_random_instances(self):
        rng = random.Random(1007)
        for _ in range(30):
            r = rng.randint(1, 5)
            s = random_sequence(rng, 2 * r + 1)
            assert kronecker_residual(s, r) == 0

    def test_coprimality_when_finite_rank(self):
        # gcd(P_r, Q_r) and gcd(P_r, P_{r-1}) constant when D_{r-1} != 0
        rng = random.Random(1008)
        for _ in range(15):
            r = rng.randint(1, 4)
            s = random_sequence(rng, 2 * r + 1)
            if hankel_det(s, r - 1) == 0:
                continue
            p_r, q_r = poly_P(s, r), poly_Q(s, r)
            p_prev = poly_P(s, r - 1)
            assert p_r.gcd(q_r).degree in (None, 0)
            assert p_r.gcd(p_prev).degree in (None, 0)


class TestThreeTermRecurrence:
    def test_even_sequence(self):
        s = [1, 0, F(1, 2), 0, F(3, 4), 0]
        assert frobenius_recurrence_residual(s, 1) == ZERO

    def test_n_zero(self):
        rng = random.Random(1009)
        for _ in range(10):
            s = random_sequence(rng, 2)
            assert frobenius_recurrence_residual(s, 0) == ZERO

    def test_random(self):
        rng = random.Random(1010)
        for _ in range(30):
            n = rng.randint(0, 4)
            s = random_sequence(rng, 2 * n + 2)
            assert frobenius_recurrence_residual(s, n) == ZERO


class TestJacobi:
    def test_even_moments(self):
        j = jacobi_from_moments([1, 0, F(1, 2), 0], 2)
        assert j.a == (F(0), F(0))
        assert j.b == (F(1), F(1, 2))

    def test_catalan_prefix(self):
        j = jacobi_from_moments([1, 1, 2, 5], 2)
        assert j.a == (F(1), F(2))
        assert j.b == (F(1), F(1))

    def test_not_quasi_definite(self):
        with pytest.raises(NotQuasiDefinite) as err:
            jacobi_from_moments([1, 0, 0, 0], 2)
        assert err.value.params["n"] == 1

    def test_inverse_even(self):
        seq = moments_from_jacobi(JacobiCoeffs((F(0), F(0)), (F(1), F(1, 2))))
        assert seq.terms == (F(1), F(0), F(1, 2), F(0))

    def test_inverse_single(self):
        c = F(5, 3)
        seq = moments_from_jacobi(JacobiCoeffs((c,), (F(1),)))
        assert seq.terms == (F(1), c)

    def test_zero_b_rejected(self):
        with pytest.raises(ZeroB):
            moments_from_jacobi(JacobiCoeffs((F(1),), (F(0),)))

    def test_roundtrip_random(self):
        rng = random.Random(1011)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = tuple(F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n))
            b = []
            for _ in range(n):
                v = F(0)
                while v == 0:
                    v = F(rng.randint(-5, 5), rng.randint(1, 5))
                b.append(v)
            j = JacobiCoeffs(a, tuple(b))
            back = jacobi_from_moments(moments_from_jacobi(j), n)
            assert back == j

    def test_json_roundtrip(self):
        j = JacobiCoeffs((F(1, 2),), (F(-3),))
        assert JacobiCoeffs.from_json(j.to_json()) == j
        with pytest.raises(ParseError):
            JacobiCoeffs.from_json({"a": ["1"]})
        with pytest.raises(ParseError):
            JacobiCoeffs.from_json({"a": ["1"], "b": ["1", "2"]})


class TestSolvePrescribed:
    def test_single(self):
        assert solve_prescribed([1], [0]).terms == (F(1), F(0))

    def test_even(self):
        assert solve_prescribed([1, F(1, 2)], [0, 0]).terms == (F(1), F(0), F(1, 2), F(0))

    def test_roundtrip_values(self):
        seq = solve_prescribed([2, 1], [1, 0])
        profile = determinant_transform(seq)
        assert profile.d_values == (F(2), F(1))
        assert profile.d_prime_values[0] == 1

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTarget) as err:
            solve_prescribed([1, 0], [0, 0])
        assert err.value.params["n"] == 1

    def test_roundtrip_random(self):
        rng = random.Random(1012)
        for _ in range(20):
            n = rng.randint(1, 5)
            t = []
            for _ in range(n):
                v = F(0)
                while v == 0:
                    v = F(rng.randint(-6, 6), rng.randint(1, 6))
                t.append(v)
            t_prime = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            seq = solve_prescribed(t, t_prime)
            profile = determinant_transform(seq)
            assert list(profile.d_values) == t
            assert list(profile.d_prime_values) == t_prime
