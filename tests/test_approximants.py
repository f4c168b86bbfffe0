"""Approximating sequences, gap determinants, and the P_n degree structure."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from hankelkit import (
    ApproxRecurrence,
    ExceedsHorizon,
    GapHypothesisViolated,
    IndexOutOfRange,
    Polynomial,
    SingularLeadingMinor,
    ZeroSequence,
    approx_sequence,
    characteristic,
    degree_profile,
    gap_determinant,
    hankel_det,
    poly_P,
    recurrence_coeffs,
    shifted_det,
    shifted_gap_det,
    shifted_recurrence_coeffs,
)

from hankelkit import approximants

from oracles import random_fraction, random_sequence


def random_recurrent(rng, r, length):
    """A sequence generated by a random length-r recurrence with D_{r-1} != 0."""
    while True:
        terms = [random_fraction(rng) for _ in range(r)]
        d = [random_fraction(rng) for _ in range(r)]
        while len(terms) < length:
            terms.append(sum(dk * terms[len(terms) - r + k] for k, dk in enumerate(d)))
        try:
            recurrence_coeffs(terms, r)
        except SingularLeadingMinor:
            continue
        return terms


class TestRecurrenceCoeffs:
    def test_geometric(self):
        assert recurrence_coeffs([1, 3, 9, 27], 1).d == (F(3),)

    def test_flat(self):
        assert recurrence_coeffs([2, 1, 1, 1], 1).d == (F(1, 2),)

    def test_fibonacci(self):
        assert recurrence_coeffs([1, 1, 2, 3, 5, 8], 2).d == (F(1), F(1))

    def test_singular_leading_minor(self):
        with pytest.raises(SingularLeadingMinor):
            recurrence_coeffs([0, 1, 1], 1)
        with pytest.raises(SingularLeadingMinor):
            recurrence_coeffs([1, 1, 1, 1], 2)

    def test_short_input(self):
        with pytest.raises(IndexOutOfRange):
            recurrence_coeffs([1, 2], 2)

    def test_matches_poly_coefficients(self):
        # d_k = -p_{r,k} / D_{r-1}: the recurrence is P_r read backwards
        rng = random.Random(2001)
        for _ in range(25):
            r = rng.randint(1, 4)
            s = random_sequence(rng, 2 * r)
            lead = hankel_det(s, r - 1)
            if lead == 0:
                continue
            rec = recurrence_coeffs(s, r)
            p = poly_P(s, r).padded(r + 1)
            assert rec.d == tuple(-p[k] / lead for k in range(r))

    def test_json(self):
        assert recurrence_coeffs([2, 1, 1, 1], 1).to_json() == {"r": 1, "d": ["1/2"]}


class TestApproxSequence:
    def test_flat_example(self):
        approx = approx_sequence([2, 1, 1, 1], 1, 3)
        assert approx.terms == (F(2), F(1), F(1, 2), F(1, 4))

    def test_reproduces_recurrent_input(self):
        rng = random.Random(2002)
        for _ in range(15):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 6)
            assert approx_sequence(s, r, len(s) - 1).terms == tuple(s)

    def test_prefix_always_copied(self):
        rng = random.Random(2003)
        for _ in range(20):
            r = rng.randint(1, 3)
            s = random_sequence(rng, 2 * r + 4)
            try:
                approx = approx_sequence(s, r, len(s) - 1)
            except SingularLeadingMinor:
                continue
            assert approx.terms[: 2 * r] == tuple(F(v) for v in s[: 2 * r])

    def test_m_out_too_small(self):
        with pytest.raises(ValueError):
            approx_sequence([2, 1, 1, 1], 1, 0)


class TestShiftedRecurrenceCoeffs:
    def test_shift_zero_is_base_recurrence(self):
        rec = recurrence_coeffs([1, 1, 2, 3, 5, 8], 2)
        assert shifted_recurrence_coeffs(rec, [1, 1, 2, 3, 5, 8], 0) == rec.d

    def test_window_identity(self):
        # sum_k d_{n,k} sigma_{k+m} = sigma_{r+n+m} for every shift and offset
        rng = random.Random(2004)
        for _ in range(10):
            r = rng.randint(1, 3)
            s = random_recurrent(rng, r, 2 * r + 10)
            rec = recurrence_coeffs(s, r)
            for n in range(4):
                d_n = shifted_recurrence_coeffs(rec, s, n)
                for m in range(4):
                    acc = sum(d_n[k] * s[k + m] for k in range(r))
                    assert acc == s[r + n + m], (r, n, m)

    def test_rejects_foreign_recurrence(self):
        rec = ApproxRecurrence(1, (F(2),))
        with pytest.raises(ValueError):
            shifted_recurrence_coeffs(rec, [1, 3, 9], 1)


class TestCharacteristic:
    def test_flat_mismatch_at_once(self):
        assert characteristic([2, 1, 1, 1], 1) == 0

    def test_geometric_exceeds_horizon(self):
        verdict = characteristic([1, 3, 9, 27, 81], 1)
        assert isinstance(verdict, ExceedsHorizon)
        assert verdict.horizon == 5

    def test_planted_offset(self):
        assert characteristic([1, 2, 4, 8, 17], 1) == 2

    def test_planted_random(self):
        rng = random.Random(2005)
        for _ in range(20):
            r = rng.randint(1, 3)
            c = rng.randint(0, 3)
            s = random_recurrent(rng, r, 2 * r + c + 2)
            s[2 * r + c] += F(1)
            assert characteristic(s, r) == c


class TestGapDeterminant:
    def test_frozen_example(self):
        # D_3 of (1,0,0,0,1,...) equals -1: reversal permutation of order 4
        assert gap_determinant([1, 0, 0, 0, 1, 0, 0, 0], 1, 2) == -1
        assert hankel_det([1, 0, 0, 0, 1, 0, 0, 0], 3) == -1

    def test_d_zero_is_rank_one_update(self):
        rng = random.Random(2006)
        for _ in range(20):
            r = rng.randint(1, 3)
            s = random_sequence(rng, 2 * r + 1)
            try:
                value = gap_determinant(s, r, 0)
            except SingularLeadingMinor:
                continue
            assert value == hankel_det(s, r)

    def test_planted_gaps_match_direct_determinant(self):
        rng = random.Random(2007)
        for _ in range(25):
            r = rng.randint(1, 3)
            d = rng.randint(0, 3)
            s = random_recurrent(rng, r, 2 * (r + d) + 1)
            s[2 * r + d] += random_fraction(rng)  # may be zero: d+1-fold root case
            assert gap_determinant(s, r, d) == hankel_det(s, r + d)

    def test_hypothesis_violation_reported(self):
        with pytest.raises(GapHypothesisViolated) as err:
            gap_determinant([1, 0, 1, 0, 0, 0, 0, 0], 1, 1)
        assert err.value.params["n"] == 1

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            gap_determinant([1, 0, 0, 0], 1, 2)


class TestShiftedGapDet:
    def test_matches_definition(self):
        rng = random.Random(2008)
        checked = 0
        while checked < 25:
            r = rng.randint(1, 3)
            s = random_sequence(rng, 2 * r + 2)
            try:
                value = shifted_gap_det(s, r)
            except SingularLeadingMinor:
                continue
            assert value == shifted_det(s, r)
            checked += 1

    def test_flat_example(self):
        assert shifted_gap_det([2, 1, 1, 1], 1) == shifted_det([2, 1, 1, 1], 1)


class TestDegreeProfile:
    def test_zero_sequence_rejected(self):
        with pytest.raises(ZeroSequence):
            degree_profile([0, 0, 0])
        with pytest.raises(ZeroSequence):
            degree_profile([])

    def test_frozen_sparse_example(self):
        # P_0 = 1, P_1 = x, P_2 = 0, P_3 = -x, P_4 = 1 - x^4 (hand cofactors)
        report = degree_profile([1, 0, 0, 0, 1, 0, 0, 0])
        assert report.full_degree_indices == (0, 1, 4)
        assert report.zero_blocks == ((2, 2),)
        assert report.gammas == ((1, F(-1)),)
        assert [b.k for b in report.blocks] == [0, 1]
        assert report.blocks[0].a == Polynomial([0, 1])
        assert report.blocks[0].beta == 1
        assert report.blocks[1].a == Polynomial([0, 0, 0, 1])
        assert report.blocks[1].beta == 1
        assert all(b.consistent for b in report.blocks)
        assert report.tail_zero is False
        assert report.horizon == 8
        assert report.anomalies == ()

    def test_frozen_flat_example(self):
        # rank-2 sequence: P_3 vanishes identically past the last full index
        report = degree_profile([2, 1, 1, 1, 1, 1])
        assert report.full_degree_indices == (0, 1, 2)
        assert report.zero_blocks == ((3, 3),)
        assert report.gammas == ()
        assert report.tail_zero is True
        assert report.anomalies == ()

    def test_unfinished_gap_at_horizon(self):
        report = degree_profile([1, 0, 0, 0, 1, 0])
        assert report.full_degree_indices == (0, 1)
        assert report.zero_blocks == ((2, 2),)
        assert report.tail_zero is False
        assert report.anomalies == ()

    def test_full_indices_track_nonzero_determinants(self):
        rng = random.Random(2009)
        for _ in range(20):
            s = random_sequence(rng, rng.randint(2, 9))
            if all(v == 0 for v in s):
                continue
            report = degree_profile(s)
            n_max = len(s) // 2
            expected = tuple(
                n for n in range(n_max + 1) if n == 0 or hankel_det(s, n - 1) != 0
            )
            assert report.full_degree_indices == expected
            assert report.anomalies == ()

    def test_anomalies_always_empty(self):
        rng = random.Random(2010)
        for _ in range(30):
            length = rng.randint(1, 10)
            s = [F(rng.randint(-2, 2)) for _ in range(length)]
            if all(v == 0 for v in s):
                s[0] = F(1)
            report = degree_profile(s)
            assert report.anomalies == ()
            assert all(b.consistent for b in report.blocks)

    def test_json_shape(self):
        payload = degree_profile([2, 1, 1, 1, 1, 1]).to_json()
        assert payload["full_degree_indices"] == [0, 1, 2]
        assert payload["zero_blocks"] == [[3, 3]]
        assert payload["tail_zero"] is True
        assert payload["anomalies"] == []
        assert payload["blocks"][0]["beta"] == "1"

    def test_block_data_of_a_cubic_step(self):
        # D_2 = D_3 = 0: P_3 = 0, P_4 = gamma P_2, and P_5 = a(x) P_2 - beta P_1 with cubic a.
        report = degree_profile([2, 1, 1, 1, 1, 1, 3, 0, 1, 4, 1, 1])
        assert report.full_degree_indices == (0, 1, 2, 5, 6)
        assert report.gammas == ((2, F(-4)),)
        assert report.blocks[2].a == Polynomial([F(37, 8), F(17, 4), F(5, 2), 1])
        assert [b.beta for b in report.blocks] == [1, F(1, 4), 4, F(-121, 16)]
        assert report.anomalies == ()

    def test_corrupted_polynomial_is_an_anomaly(self, monkeypatch):
        # P_5 is built by block k=2; change its constant term as it leaves the scan.
        real_scan = approximants.hankel_scan

        def corrupted_scan(s, polys=False):
            scan = real_scan(s, polys)
            p_int = list(scan.p_int)
            p_int[5] = (p_int[5][0] + 1,) + p_int[5][1:]
            return dataclasses.replace(scan, p_int=tuple(p_int))

        monkeypatch.setattr(approximants, "hankel_scan", corrupted_scan)
        report = degree_profile([2, 1, 1, 1, 1, 1, 3, 0, 1, 4, 1, 1])
        assert len(report.anomalies) == 1 and "P_5" in report.anomalies[0]
        assert [b.consistent for b in report.blocks] == [True, True, False, True]
