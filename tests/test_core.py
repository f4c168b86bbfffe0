"""Moment sequences, exact determinants, minors, and the binomial transform."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelkit import (
    DeterminantProfile,
    IndexOutOfRange,
    MomentSequence,
    ParseError,
    binomial_transform,
    cd_identity_residual,
    determinant_transform,
    finite_rank_checks,
    frobenius_recurrence_residual,
    gap_determinant,
    hankel_det,
    hankel_matrix,
    hankel_minor,
    jacobi_from_moments,
    kronecker_residual,
    matrix_rank,
    parse_rational,
    poly_P,
    rational_form,
    recurrence_coeffs,
    shifted_det,
    shifted_gap_det,
    shifted_recurrence_coeffs,
)
from hankelkit.core import (
    _is_witness,
    _moment,
    bottom_row_minors,
    echelonize,
    fraction_free_det,
    hankel_scan,
    scale_to_integers,
    solve_unique,
)
from hankelkit.scalars import _QUOTE, _check_expanded_size, format_rational

from oracles import (
    cofactor_det,
    oracle_hankel_det,
    oracle_rank,
    oracle_shifted_det,
    random_nonzero_fraction,
    random_sequence,
)


def from_digits(text: str) -> int:
    """int(text) in 1000-digit chunks, below the int-string limit; no leading zeros allowed."""
    digits = text.removeprefix("-")
    assert digits == "0" or not digits.startswith("0"), text[:20]
    value = 0
    for i in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
    return -value if text.startswith("-") else value


fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=10)


class TestMomentSequence:
    def test_parses_mixed_notations(self):
        seq = MomentSequence.from_values([1, "3/4", F(2, 5), "-2"])
        assert seq.terms == (F(1), F(3, 4), F(2, 5), F(-2))

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ParseError):
            MomentSequence.from_values([0.5])
        with pytest.raises(ParseError):
            MomentSequence.from_values([True])

    def test_exponent_notation_is_bounded(self):
        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("-7") == F(-7)
        assert parse_rational("1.5e3") == F(1500)
        assert parse_rational("1e-4299") == F(1, 10**4299)
        # 10^4300 has 4301 digits; "1e2000000" took a second to build before.
        for text in ("1e4300", "1e-4300", "1e200000", "1e2000000", "0e999999", "12.5e4299"):
            with pytest.raises(ParseError):
                parse_rational(text)

    def test_format_rational_prints_past_the_digit_limit(self):
        # Parsing caps input at 4300 digits; results may be longer.
        assert format_rational(F(10**5000, 3)) == "1" + "0" * 5000 + "/3"
        assert format_rational(F(-(10**9000) - 7)) == "-1" + "0" * 8999 + "7"
        assert format_rational(F(7, 10**4400 - 1)) == "7/" + "9" * 4400
        assert format_rational(F(-3, 2)) == "-3/2"
        rng = random.Random(4300)
        for _ in range(20):
            value = F(rng.getrandbits(60000) - 2**59999, rng.getrandbits(30000) + 1)
            num, _, den = format_rational(value).partition("/")
            assert (from_digits(num), from_digits(den or "1")) == (value.numerator, value.denominator)

    def test_json_roundtrip(self):
        seq = MomentSequence.from_values(["1", "-3/7", "0"])
        assert MomentSequence.from_json(seq.to_json()) == seq
        assert seq.to_json() == {"sequence": ["1", "-3/7", "0"]}

    def test_from_json_validation(self):
        with pytest.raises(ParseError):
            MomentSequence.from_json(["1"])
        with pytest.raises(ParseError):
            MomentSequence.from_json({"values": ["1"]})
        with pytest.raises(ParseError):
            MomentSequence.from_json({"sequence": "1"})

    def test_horizon_and_zero(self):
        seq = MomentSequence.from_values([0, 0, 1])
        assert seq.horizon == 3
        assert seq.max_index == 2
        assert not seq.is_zero()
        assert MomentSequence.from_values([0, 0]).is_zero()


def parse_via_fraction(text: str) -> F:
    """parse_rational's general route for strings, taken for every string."""
    if "." in text or "e" in text or "E" in text:
        _check_expanded_size(text)
    try:
        return F(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {_QUOTE.repr(text)}") from exc


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


digits = st.text(alphabet="0123456789", min_size=1, max_size=30)
long_digits = st.sampled_from(["7" * 4300, "7" * 4301, "0" * 4301, "1" + "0" * 4300])
near_ratios = st.builds(
    lambda pad, sign, num, sep, den: pad + sign + num + sep + den + pad,
    st.sampled_from(["", " ", "\t", "\n"]),
    st.sampled_from(["", "-", "+", "--"]),
    st.one_of(digits, long_digits, st.sampled_from(["1_000", "١٢", "１", "²", "0"])),
    st.sampled_from(["", "/", "/-", "//", " / "]),
    st.one_of(st.just(""), digits, long_digits, st.sampled_from(["0", "-3", "00", "3_0", "٣"])),
)
any_text = st.text(alphabet="0123456789-+/_ .eE\t\n١１²", max_size=12)


class TestParseRationalFastPath:
    """ASCII integers and integer ratios skip Fraction's own parser; every string
    must give what that parser gives: the same value or the same ParseError."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(near_ratios, any_text))
    def test_matches_the_fraction_route(self, text):
        assert outcome(parse_rational, text) == outcome(parse_via_fraction, text)

    @pytest.mark.parametrize(
        "text", ["1/0", "-0/0", "2/-3", "+5", " 5", "5 ", "1_0", "١٢", "7" * 4301, "1/" + "3" * 4301, "-", "/3", ""]
    )
    def test_edge_cases(self, text):
        assert outcome(parse_rational, text) == outcome(parse_via_fraction, text)

    def test_values(self):
        assert parse_rational("-12/18") == F(-2, 3)
        assert parse_rational("007") == 7
        assert str(outcome(parse_rational, "1/0")) == "not a rational: '1/0'"


class TestHankelDet:
    def test_catalan_prefix(self):
        assert hankel_det([1, 1, 2, 5, 14], 2) == 1

    def test_geometric_vanishes(self):
        assert hankel_det([1, 3, 9, 27, 81], 1) == 0

    def test_antidiagonal_sign(self):
        assert hankel_det([0, 0, 1, 0, 0], 2) == -1

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            hankel_det([1, 2], 1)

    def test_matches_cofactor_oracle_seeded(self):
        rng = random.Random(20240817)
        for _ in range(40):
            n = rng.randint(0, 5)
            s = random_sequence(rng, 2 * n + 1)
            assert hankel_det(s, n) == oracle_hankel_det(s, n)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(fractions_st, min_size=1, max_size=7))
    def test_matches_cofactor_oracle_property(self, values):
        n = (len(values) - 1) // 2
        assert hankel_det(values, n) == oracle_hankel_det(values, n)


# Moments of five atoms, so D_0..D_4 > 0, and a prefix whose D_1..D_3 vanish.
FIVE_ATOMS = [
    sum(w * x**k for x, w in ((F(-1), 1), (F(0), 2), (F(1, 2), F(1, 3)), (F(2), 1), (F(3), F(1, 2))))
    for k in range(14)
]
PLANTED_GAP = [F(v) for v in (1, 0, 0, 0, 0, 2, 1, -1, 0, 3, 1, 1)]

# Every reader of D_n, D'_{n+1} or P_n, with s_top the last term of the prefix that fixes its value.
PREFIX_READERS = [
    ("hankel_det", lambda s: hankel_det(s, 3), 6, FIVE_ATOMS),
    ("shifted_det", lambda s: shifted_det(s, 3), 7, FIVE_ATOMS),
    ("poly_P", lambda s: poly_P(s, 3), 5, FIVE_ATOMS),
    ("kronecker_residual", lambda s: kronecker_residual(s, 3), 5, FIVE_ATOMS),
    ("frobenius_recurrence_residual", lambda s: frobenius_recurrence_residual(s, 3), 7, FIVE_ATOMS),
    ("jacobi_from_moments", lambda s: jacobi_from_moments(s, 4), 7, FIVE_ATOMS),
    ("cd_identity_residual", lambda s: cd_identity_residual(s, 4), 7, FIVE_ATOMS),
    ("finite_rank_checks", lambda s: finite_rank_checks(s, 5), 9, FIVE_ATOMS),
    ("recurrence_coeffs", lambda s: recurrence_coeffs(s, 3), 5, FIVE_ATOMS),
    (
        "shifted_recurrence_coeffs",
        lambda s: shifted_recurrence_coeffs(recurrence_coeffs(FIVE_ATOMS, 3), s, 2),
        5,
        FIVE_ATOMS,
    ),
    ("gap_determinant", lambda s: gap_determinant(s, 1, 3), 8, PLANTED_GAP),
    ("shifted_gap_det", lambda s: shifted_gap_det(s, 3), 7, FIVE_ATOMS),
    ("rational_form", lambda s: rational_form(s, 3), 5, FIVE_ATOMS),
]


@pytest.mark.parametrize(
    "reader, top, s", [case[1:] for case in PREFIX_READERS], ids=[case[0] for case in PREFIX_READERS]
)
class TestPrefixRule:
    """Each reader needs s_0..s_top: one term less names s_top, one term more changes nothing."""

    def test_one_term_short_names_the_missing_index(self, reader, top, s):
        with pytest.raises(IndexOutOfRange) as info:
            reader(s[:top])
        assert (info.value.needed, info.value.horizon) == (top, top)
        assert str(info.value) == f"needs moment index {top} but only indices 0..{top - 1} are known"

    def test_the_defining_prefix_gives_the_longer_prefix_value(self, reader, top, s):
        assert len(s) > top + 1
        assert reader(s[: top + 1]) == reader(s)


class TestFractionFreeDet:
    def test_general_matrices_match_cofactor(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [random_sequence(rng, n) for _ in range(n)]
            assert fraction_free_det(rows) == cofactor_det(rows)

    def test_singular(self):
        rows = [[F(1), F(2)], [F(2), F(4)]]
        assert fraction_free_det(rows) == 0


class TestShiftedDet:
    def test_order_one(self):
        assert shifted_det([1, 5], 0) == 5

    def test_even_sequence(self):
        assert shifted_det([1, 0, "1/2", 0], 1) == 0

    def test_zero_matrix(self):
        assert shifted_det([0, 0, 0, 0], 1) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            shifted_det([1, 2, 3], 1)

    def test_matches_oracle_seeded(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(0, 4)
            s = random_sequence(rng, 2 * n + 2)
            assert shifted_det(s, n) == oracle_shifted_det(s, n)


class TestHankelMinor:
    def test_corner(self):
        assert hankel_minor([1, 2, 3], 1, 2, 2) == 1

    def test_center(self):
        assert hankel_minor([1, 2, 3, 4, 5], 2, 3, 3) == -1

    def test_transpose_symmetry(self):
        rng = random.Random(123)
        for _ in range(25):
            n = rng.randint(1, 4)
            s = random_sequence(rng, 2 * n + 1)
            k = rng.randint(1, n)
            left = hankel_minor(s, n, n + 1, n + 1 - k)
            right = hankel_minor(s, n, n + 1 - k, n + 1)
            assert left == right

    def test_bad_indices(self):
        with pytest.raises(IndexOutOfRange):
            hankel_minor([1, 2, 3], 1, 0, 1)
        with pytest.raises(IndexOutOfRange):
            hankel_minor([1, 2, 3], 1, 1, 3)


class TestDeterminantTransform:
    def test_delta_like(self):
        profile = determinant_transform([1, 0, 0])
        assert profile.d_values == (F(1), F(0))
        assert profile.d_prime_values == (F(0),)

    def test_flat_after_two(self):
        profile = determinant_transform([2, 1, 1, 1, 1])
        assert profile.d_values == (F(2), F(1), F(0))

    def test_geometric(self):
        profile = determinant_transform([1, 3, 9, 27])
        assert profile.d_values == (F(1), F(0))
        assert profile.d_prime_values == (F(3), F(0))

    def test_json_shape(self):
        doc = determinant_transform([1, 3, 9, 27]).to_json()
        assert doc == {"D": ["1", "0"], "Dprime": ["3", "0"]}

    def test_empty_rejected(self):
        with pytest.raises(IndexOutOfRange):
            determinant_transform([])

    def test_empty_says_no_terms_are_known(self):
        with pytest.raises(IndexOutOfRange) as err:
            determinant_transform([])
        assert err.value.to_json() == {
            "error": "needs moment index 0 but no terms are known",
            "kind": "index_out_of_range",
            "needed": 0,
            "horizon": 0,
        }

    def test_all_entries_match_oracles(self):
        rng = random.Random(5150)
        for _ in range(20):
            s = random_sequence(rng, rng.randint(1, 9))
            profile = determinant_transform(s)
            for n, value in enumerate(profile.d_values):
                assert value == oracle_hankel_det(s, n)
            for n, value in enumerate(profile.d_prime_values):
                assert value == oracle_shifted_det(s, n)


class TestBinomialTransform:
    def test_delta(self):
        assert binomial_transform([1, 0, 0]).terms == (F(1), F(1), F(1))

    def test_direct_sum(self):
        assert binomial_transform([1, 2, 5]).terms == (F(1), F(3), F(10))

    def test_d1_preserved(self):
        s = [1, 2, 5]
        assert hankel_det(s, 1) == 1
        assert hankel_det(binomial_transform(s), 1) == 1

    def test_layman_invariance_seeded(self):
        rng = random.Random(31337)
        for _ in range(20):
            s = random_sequence(rng, rng.randint(1, 9))
            assert (
                determinant_transform(binomial_transform(s)).d_values
                == determinant_transform(s).d_values
            )


class TestMatrixRank:
    def test_zero(self):
        assert matrix_rank([0, 0, 0], 1) == 0

    def test_repeating(self):
        assert matrix_rank([2, 1, 1, 1, 1], 2) == 2

    def test_full(self):
        assert matrix_rank([1, 1, 2, 5, 14], 2) == 3

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            matrix_rank([1, 2], 1)

    def test_matches_gaussian_oracle(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(0, 4)
            s = random_sequence(rng, 2 * n + 1)
            assert matrix_rank(s, n) == oracle_rank(hankel_matrix(s, n))

    def test_rank_at_least_nonzero_det_witnesses(self):
        rng = random.Random(2718)
        for _ in range(20):
            n = rng.randint(0, 4)
            s = random_sequence(rng, 2 * n + 1)
            witnesses = sum(
                1 for k in range(n + 1) if k >= 1 and hankel_det(s, k - 1) != 0
            )
            assert matrix_rank(s, n) >= min(witnesses, n + 1)


class TestLinearAlgebraHelpers:
    def test_solve_unique_random_systems(self):
        rng = random.Random(606)
        solved = 0
        while solved < 20:
            n = rng.randint(1, 5)
            rows = [random_sequence(rng, n) for _ in range(n)]
            if fraction_free_det(rows) == 0:
                continue
            x = random_sequence(rng, n)
            rhs = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)]
            assert solve_unique(rows, rhs) == x
            solved += 1

    def test_solve_unique_singular(self):
        with pytest.raises(ValueError):
            solve_unique([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])

    def test_echelonize_preserves_rank(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = [random_sequence(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
            width = min(len(r) for r in rows)
            rows = [r[:width] for r in rows]
            _, _, pivots = echelonize(rows)
            assert len(pivots) == oracle_rank(rows)

    def test_bottom_row_minors_match_cofactor(self):
        rng = random.Random(808)
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [random_sequence(rng, n + 1) for _ in range(n)]
            minors = bottom_row_minors(rows)
            for j in range(n + 1):
                sub = [row[:j] + row[j + 1 :] for row in rows]
                assert minors[j] == cofactor_det(sub)


class TestMomentFunctional:
    """core._moment and core._is_witness, the one integer L(x^j p) of the library."""

    def test_moment_is_the_scaled_functional(self):
        rng = random.Random(2024)
        for _ in range(200):
            s = random_sequence(rng, rng.randint(1, 9))
            p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
            j = rng.randint(0, len(s) - 1)
            u, lam = scale_to_integers(s)
            expected = sum((c * s[i + j] for i, c in enumerate(p) if i + j < len(s)), F(0))
            assert F(_moment(p, u, j), lam) == expected

    def test_scan_polynomials_are_witnesses(self):
        rng = random.Random(2025)
        for _ in range(60):
            s = [random_nonzero_fraction(rng)] + random_sequence(rng, rng.randint(1, 11))
            u, _ = scale_to_integers(s)
            scan = hankel_scan(s, polys=True)
            for r, p in enumerate(scan.p_int):
                if len(p) != r + 1:
                    assert not _is_witness(p, u, r, r)
                    continue
                assert _is_witness(p, u, r, r)
                assert not _is_witness(p + (0,), u, r, r)
                if r:
                    assert not _is_witness((p[0] + 1,) + p[1:], u, r, r)


class TestTheoremZeroPrefix:
    """Zero-prefixed sequences: D_n = (-1)^{n(n+1)/2} s_n^{n+1} exactly."""

    def test_both_directions(self):
        rng = random.Random(3141)
        for n in range(6):
            for _ in range(10):
                s_n = F(0)
                while s_n == 0:
                    s_n = F(rng.randint(-10, 10), rng.randint(1, 10))
                tail = random_sequence(rng, n)
                s = [F(0)] * n + [s_n] + tail
                sign = -1 if (n * (n + 1) // 2) % 2 else 1
                for k in range(n):
                    assert hankel_det(s, k) == 0
                assert hankel_det(s, n) == sign * s_n ** (n + 1)
