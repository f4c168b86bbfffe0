"""Rank certificates, rational forms, series expansion, and growth estimates."""

import random
from fractions import Fraction as F

import pytest
from mpmath import mp

from hankelkit import (
    DegreeViolation,
    DeterminantProfile,
    IndexOutOfRange,
    Polynomial,
    RankCertificate,
    RationalForm,
    SingularLeadingMinor,
    approx_sequence,
    expand_rational,
    finite_rank_checks,
    growth_estimate,
    hankel_rank,
    rational_form,
)
from hankelkit.polynomials import ONE, X, ZERO

from oracles import random_fraction

from test_approximants import random_recurrent


class TestHankelRank:
    def test_geometric(self):
        cert = hankel_rank([1, 3, 9, 27, 81, 243])
        assert cert.verdict == "FiniteRank"
        assert cert.rank == 1
        assert cert.horizon == 6
        assert cert.witness.d == (F(3),)

    def test_eventually_constant(self):
        cert = hankel_rank([2, 1, 1, 1, 1, 1, 1])
        assert cert.verdict == "FiniteRank"
        assert cert.rank == 2
        assert cert.witness.d == (F(0), F(1))

    def test_catalan_prefix_is_open(self):
        cert = hankel_rank([1, 1, 2, 5, 14])
        assert cert.verdict == "RankAtLeast"
        assert cert.rank == 3
        assert cert.witness is None

    def test_zero_sequence(self):
        cert = hankel_rank([0, 0, 0, 0])
        assert cert.verdict == "ZeroSequence"
        assert cert.rank == 0
        assert cert.horizon == 4
        assert hankel_rank([]) == RankCertificate(
            "ZeroSequence", 0, 0, None, DeterminantProfile((), (), 0)
        )

    def test_recurrence_failure_blocks_finite_verdict(self):
        # D_1 = D_2 = 0 yet s_4 breaks the geometric recurrence: the
        # determinant route alone would wrongly certify rank 1
        cert = hankel_rank([1, 2, 4, 8, 17])
        assert cert.verdict == "RankAtLeast"
        assert cert.rank == 1
        assert cert.witness is None

    def test_json_shapes(self):
        finite = hankel_rank([1, 3, 9, 27, 81, 243]).to_json()
        assert finite == {
            "verdict": "FiniteRank",
            "rank": 1,
            "horizon": 6,
            "recurrence": ["3"],
        }
        open_ = hankel_rank([1, 1, 2, 5, 14]).to_json()
        assert open_ == {
            "verdict": "RankAtLeast",
            "rank": 3,
            "horizon": 5,
            "recurrence": None,
        }

    def test_certificate_depends_only_on_prefix(self):
        rng = random.Random(3001)
        for _ in range(10):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 6)
            t = list(s)
            t[-1] += 1  # diverges only at the last index
            shared = len(s) - 1
            assert hankel_rank(s[:shared]) == hankel_rank(t[:shared])

    def test_planted_rank_certified(self):
        rng = random.Random(3002)
        for _ in range(20):
            r = rng.randint(1, 4)
            s = random_recurrent(rng, r, 2 * r + 5)
            cert = hankel_rank(s)
            assert cert.verdict == "FiniteRank"
            assert cert.rank == r
            assert cert.witness is not None


class TestRationalForm:
    def test_geometric(self):
        rf = rational_form([1, 2, 4, 8], 1)
        assert rf.p == X - Polynomial([2])
        assert rf.q == ONE

    def test_flat(self):
        rf = rational_form([2, 1, 1, 1], 2)
        assert rf.p == Polynomial([0, -1, 1])
        assert rf.q == Polynomial([-1, 2])

    def test_rank_zero(self):
        rf = rational_form([0, 0], 0)
        assert rf.p == ONE
        assert rf.q == ZERO

    def test_singular_leading_minor(self):
        with pytest.raises(SingularLeadingMinor):
            rational_form([1, 1, 1, 1], 2)

    def test_short_input(self):
        with pytest.raises(IndexOutOfRange):
            rational_form([1, 2], 2)

    def test_coprime_for_planted_rank(self):
        rng = random.Random(3003)
        for _ in range(15):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 4)
            rf = rational_form(s, r)
            assert rf.p.gcd(rf.q).degree in (None, 0)

    def test_json(self):
        payload = rational_form([1, 2, 4, 8], 1).to_json()
        assert payload == {"p": {"coeffs": ["-2", "1"]}, "q": {"coeffs": ["1"]}}


class TestExpandRational:
    def test_geometric(self):
        rf = RationalForm(p=X - Polynomial([2]), q=ONE)
        assert expand_rational(rf, 4).terms == (F(1), F(2), F(4), F(8), F(16))

    def test_flat(self):
        rf = rational_form([2, 1, 1, 1], 2)
        assert expand_rational(rf, 6).terms == (F(2),) + (F(1),) * 6

    def test_zero_numerator(self):
        rf = RationalForm(p=X, q=ZERO)
        assert expand_rational(rf, 3).is_zero()

    def test_constant_denominator(self):
        rf = RationalForm(p=ONE, q=ZERO)
        assert expand_rational(rf, 2).terms == (F(0), F(0), F(0))

    def test_degree_violation(self):
        with pytest.raises(DegreeViolation):
            expand_rational(RationalForm(p=ONE, q=X), 3)
        with pytest.raises(DegreeViolation):
            expand_rational(RationalForm(p=ZERO, q=ONE), 3)

    def test_matches_approximating_sequence(self):
        rng = random.Random(3004)
        for _ in range(15):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 6)
            m_out = len(s) - 1
            assert expand_rational(rational_form(s, r), m_out) == approx_sequence(
                s, r, m_out
            )

    def test_roundtrip_on_planted_rank(self):
        rng = random.Random(3005)
        for _ in range(15):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 6)
            assert expand_rational(rational_form(s, r), len(s) - 1).terms == tuple(s)


class TestGrowthEstimate:
    def test_powers_of_two(self):
        est = growth_estimate([F(2) ** k for k in range(12)], 128)
        assert abs(est.value - 2) < 0.02
        assert est.precision_bits == 128

    def test_constant(self):
        est = growth_estimate([1] * 10, 64)
        assert est.value == 1

    def test_two_geometric_modes(self):
        s = [F(-3) ** k + F(2) ** k for k in range(12)]
        est = growth_estimate(s, 128)
        # |s_k| <= 2 * 3^k, so the samples stay below 3 * 2^(1/6)
        assert 2.9 < est.value < 3 * 2 ** (1 / 6)

    def test_needs_eight_terms(self):
        with pytest.raises(ValueError):
            growth_estimate([1, 2, 4], 64)


class TestFiniteRankChecks:
    EXPECTED_KEYS = {
        "window_rank",
        "determinants_vanish",
        "recurrence_holds",
        "approximant_match",
        "rational_expansion_match",
    }

    def test_flat_example_unanimous(self):
        checks = finite_rank_checks([2, 1, 1, 1, 1, 1, 1], 2)
        assert set(checks) == self.EXPECTED_KEYS
        assert all(checks.values())

    def test_planted_rank_unanimous(self):
        rng = random.Random(3006)
        for _ in range(15):
            r = rng.randint(1, 4)
            s = random_recurrent(rng, r, 2 * r + 5)
            checks = finite_rank_checks(s, r)
            assert all(checks.values()), (s, checks)

    def test_wrong_rank_detected(self):
        rng = random.Random(3007)
        for _ in range(10):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 6)
            high = finite_rank_checks(s, r + 1)
            assert not all(high.values())
            assert not high["determinants_vanish"]
            if r - 1 >= 1:
                low = finite_rank_checks(s, r - 1)
                assert not all(low.values())

    def test_zero_sequence_is_rank_zero(self):
        checks = finite_rank_checks([0, 0, 0], 0)
        assert all(checks.values())

    def test_perturbed_tail_fails_consistency(self):
        rng = random.Random(3008)
        for _ in range(10):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 6)
            s[-1] += 1
            checks = finite_rank_checks(s, r)
            assert not checks["recurrence_holds"]
            assert not checks["approximant_match"]
            assert not checks["rational_expansion_match"]
