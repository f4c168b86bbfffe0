"""The single-pass engine (`hankel_scan`) against per-index elimination.

Every D_n, D'_{n+1} and P_n the scan returns is recomputed by Bareiss
elimination (`fraction_free_det`, `bottom_row_minors`) and, for n <= 5, by
cofactor expansion (`tests/oracles.py`).  The strategies plant the inputs
where the gap machinery does real work: sparse entries that open zero runs,
s_0 = 0, finite-rank tails, and prefixes that end inside a zero run.  A
scanner fed the same prefixes in chunks, with new denominators arriving late,
must match one scan of every prefix it has seen, and each of its block steps
must combine the p_int entries it returns into the next one.  On the same
strategies, `degree_profile`, which reads its report off the scan's block
steps, must match monic division of Bareiss P_n (`oracle_degree_profile`).
Every field of the scan, each block step's integer coefficients with their
sign and content among them, must equal the pass that derived those
coefficients through reduced Fractions (`oracle_hankel_scan`), in one scan
and in chunks, and on prefixes whose generic steps have negative pivots.
The lemma behind each step's exact divisor, q_n | lambda^{n+1}, is checked
on the scan's own denominators.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelkit import (
    Polynomial,
    degree_profile,
    determinant_transform,
    hankel_det,
    jacobi_from_moments,
    p_family,
    poly_P,
    poly_Q,
    recurrence_coeffs,
    second_kind,
    shifted_det,
)
from hankelkit.core import (
    HankelScanner,
    MomentSequence,
    bottom_row_minors,
    fraction_free_det,
    hankel_scan,
    solve_unique,
)
from hankelkit.errors import IndexOutOfRange, NotQuasiDefinite, SingularLeadingMinor

from oracles import (
    FractionStepScanner,
    oracle_degree_profile,
    oracle_hankel_det,
    oracle_hankel_scan,
    oracle_poly_coeffs,
    oracle_shifted_det,
)

ORACLE_MAX_N = 5

generic = st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=12), min_size=1, max_size=18)
signs = st.lists(st.sampled_from([F(-1), F(0), F(1)]), min_size=1, max_size=20)
rare_ones = st.lists(st.sampled_from([F(0), F(0), F(0), F(1)]), min_size=1, max_size=20)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
zero_start = st.lists(small, min_size=0, max_size=16).map(lambda tail: [F(0)] + tail)


@st.composite
def finite_rank(draw):
    """A rank-r recurrence continued past its defining terms, sometimes perturbed once."""
    r = draw(st.integers(1, 4))
    d = draw(st.lists(st.integers(-2, 2).map(F), min_size=r, max_size=r))
    s = draw(st.lists(st.integers(-2, 2).map(F), min_size=r, max_size=r))
    length = draw(st.integers(r, 20))
    while len(s) < length:
        s.append(sum(d[k] * s[len(s) - r + k] for k in range(r)))
    if draw(st.booleans()):
        at = draw(st.integers(0, length - 1))
        s[at] += draw(st.sampled_from([F(-1), F(1), F(1, 2)]))
    return s


@st.composite
def mid_gap(draw):
    """Nonzero head, then zeros to the end: the last zero run never closes."""
    head = draw(st.lists(small, min_size=1, max_size=6))
    zeros = draw(st.integers(0, 9))
    return head + [F(0)] * zeros


@st.composite
def long_late_denominators(draw):
    """Short entries, then one to three late terms over 2^a 3^b with a, b in
    100..300, the shape of exact solutions of solve_inverse: the lcm of the
    prefix denominators is long although the early D_n and P_n are short."""
    head = draw(st.lists(small, min_size=2, max_size=12))
    tail = draw(st.lists(
        st.tuples(st.integers(-(2**20), 2**20), st.integers(100, 300), st.integers(100, 300)),
        min_size=1, max_size=3,
    ))
    return head + [F(num, 2**a * 3**b) for num, a, b in tail]


@st.composite
def planted_gap(draw):
    """1, then d >= 1 zeros (the rank-1 extension of 1, 0), closed by a nonzero entry."""
    zeros = draw(st.integers(1, 8))
    closing = draw(small.filter(bool))
    return [F(1)] + [F(0)] * zeros + [closing] + draw(st.lists(small, max_size=8))


# s_0 < 0 and alternating signs: the step from r = 0 and many generic steps have a negative pivot u.
negative_pivots = st.lists(
    st.fractions(min_value=1, max_value=9, max_denominator=6), min_size=2, max_size=18
).map(lambda xs: [x if k % 2 else -x for k, x in enumerate(xs)])


@st.composite
def chunked(draw, prefixes=st.one_of(
    generic, signs, rare_ones, zero_start, finite_rank(), mid_gap(), planted_gap(), long_late_denominators()
)):
    """A prefix from any strategy above, cut into one to five chunks; some later
    entries get new denominators 2^a 3^b, so a resumed scan has to multiply its
    integers up, and cuts fall inside zero runs wherever the prefix has them."""
    s = draw(prefixes)
    if s and draw(st.booleans()):
        for at in draw(st.lists(st.integers(len(s) // 2, len(s) - 1), max_size=3)):
            if s[at]:
                s[at] = s[at] / (2 ** draw(st.integers(0, 60)) * 3 ** draw(st.integers(0, 40)))
    cuts = sorted(draw(st.lists(st.integers(1, max(len(s) - 1, 1)), max_size=4)))
    return s, cuts


def bareiss_p(s, n):
    if n == 0:
        return [F(1)]
    minors = bottom_row_minors([[s[i + j] for j in range(n + 1)] for i in range(n)])
    return [minors[j] if (n + j) % 2 == 0 else -minors[j] for j in range(n + 1)]


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def assert_same_scan(got, want, context):
    """Every field equal, each step's c and c_b as ints with their sign and content."""
    assert got.d_values == want.d_values, context
    assert got.d_prime_values == want.d_prime_values, context
    assert got.p_int == want.p_int, context
    assert got.p_factor == want.p_factor, context
    assert got.steps == want.steps, context
    assert all(type(x) is int for step in got.steps for x in (*step.c, step.c_b)), context


def assert_steps_hold(scan, context):
    """Each step's identity on the scan's own p_int: sum_i c[i] x^i p_int[r] + c_b p_int[r']
    is a nonzero multiple of p_int[r_next], r' the r of the step before."""
    p = scan.p_int
    for k, (r, r_next, c, c_b) in enumerate(scan.steps):
        combo = [0] * (r_next + 1)
        for i, ci in enumerate(c):
            for e, x in enumerate(p[r]):
                combo[i + e] += ci * x
        for e, x in enumerate(p[scan.steps[k - 1].r] if k else ()):
            combo[e] += c_b * x
        target = p[r_next]
        assert len(target) == r_next + 1 and combo[-1], (context, k)
        assert [x * target[-1] for x in combo] == [x * combo[-1] for x in target], (context, k)


def assert_denominators_divide_scale_powers(scan, s, context):
    """At every full-degree n the denominator q_n of P_n = p_int[n] / q_n divides
    lambda^{n+1}, lambda the lcm of the term denominators: P_n's coefficients and
    L(x^j P_n) are minors of s of order n and n + 1 (Sylvester's identity)."""
    lam = math.lcm(1, *(x.denominator for x in s))
    full = [n for n, p in enumerate(scan.p_int) if len(p) == n + 1]
    assert full[0] == 0, context
    for n in full:
        assert lam ** (n + 1) % scan.p_factor[n].denominator == 0, (context, n)


def check_against_elimination(s):
    m_top = len(s) - 1
    scan = hankel_scan(s, polys=True)
    assert len(scan.d_values) == m_top // 2 + 1
    assert len(scan.d_prime_values) == (m_top + 1) // 2
    for n, value in enumerate(scan.d_values):
        assert value == fraction_free_det([[s[i + j] for j in range(n + 1)] for i in range(n + 1)]), (s, n)
        if n <= ORACLE_MAX_N:
            assert value == oracle_hankel_det(s, n), (s, n)
    for n, value in enumerate(scan.d_prime_values):
        rows = [[s[i + j] for j in range(n)] + [s[i + n + 1]] for i in range(n + 1)]
        assert value == fraction_free_det(rows), (s, n)
        if n <= ORACLE_MAX_N:
            assert value == oracle_shifted_det(s, n), (s, n)
    for n in range((m_top + 1) // 2 + 1):
        coeffs = scan.p_coeffs(n)
        assert coeffs == trimmed(bareiss_p(s, n)), (s, n)
        if n <= ORACLE_MAX_N:
            assert coeffs == trimmed(oracle_poly_coeffs(s, n)), (s, n)
    without = hankel_scan(s)
    assert (without.d_values, without.d_prime_values) == (scan.d_values, scan.d_prime_values)
    assert_same_scan(scan, oracle_hankel_scan(s, polys=True), s)
    assert_same_scan(without, oracle_hankel_scan(s), s)
    assert_steps_hold(scan, s)


class TestScanMatchesElimination:
    @settings(max_examples=100, deadline=None)
    @given(generic)
    def test_generic_rationals(self, s):
        check_against_elimination(s)

    @settings(max_examples=200, deadline=None)
    @given(signs)
    def test_entries_from_minus_one_zero_one(self, s):
        check_against_elimination(s)

    @settings(max_examples=200, deadline=None)
    @given(rare_ones)
    def test_mostly_zero_entries(self, s):
        check_against_elimination(s)

    @settings(max_examples=100, deadline=None)
    @given(zero_start)
    def test_zero_first_moment(self, s):
        check_against_elimination(s)

    @settings(max_examples=150, deadline=None)
    @given(finite_rank())
    def test_finite_rank_tails(self, s):
        check_against_elimination(s)

    @settings(max_examples=100, deadline=None)
    @given(mid_gap())
    def test_prefix_ends_inside_a_zero_run(self, s):
        check_against_elimination(s)

    @settings(max_examples=100, deadline=None)
    @given(long_late_denominators())
    def test_late_terms_with_long_denominators(self, s):
        check_against_elimination(s)

    @settings(max_examples=100, deadline=None)
    @given(planted_gap())
    def test_planted_gaps(self, s):
        check_against_elimination(s)

    def test_odd_gaps_after_negative_determinants(self):
        # Zero runs of length 1 and 3 closed by negative u, with D_{r-1} < 0 before them:
        # the step's integers are first scaled by the sign of (q_r dn)^gap.
        s = [F(v) for v in (-1, 0, 0, 2, 0, 0, 0, 0, -3, 1, -1, 0, 0, 5, 2, -7, 1, 0, 3, 1)]
        check_against_elimination(s)
        assert any(step.r_next - step.r == 2 for step in hankel_scan(s).steps)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_odd_and_even_lengths_of_one_planted_gap(self, length):
        # D_0 = 1, then a zero run of length 3 closed by s_5.
        s = [F(v) for v in (1, 0, 0, 0, 0, 2, 1, -1, 0, 3, 1, 1)][:length]
        check_against_elimination(s)

    def test_integers_do_not_grow_with_powers_of_the_prefix_scale(self):
        # lambda = 2520 * 2^300 * 3^200 comes mostly from the last two terms.  As
        # determinants of lambda*s, P_n's integers would carry lambda^n; held over
        # their own denominator q_n, they need no more than P_n's denominators and
        # lambda for the moments m_n = L(x^j P_n): q_n divides lcm(P_n) * lambda.
        rng = random.Random(3)
        s = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(24)]
        s += [F(1, 2**300), F(-5, 3**200)]
        lam = math.lcm(*(x.denominator for x in s))
        scan = hankel_scan(s, polys=True)
        assert all(scan.d_values)  # no zero runs: every P_n has full degree
        for n in range(1, 14):
            coeffs = scan.p_coeffs(n)
            assert coeffs == trimmed(bareiss_p(s, n)), n
            need = math.lcm(*(c.denominator for c in coeffs)) * lam
            assert need % scan.p_factor[n].denominator == 0, n
        assert max(abs(c).bit_length() for c in scan.p_int[13]) < 3 * lam.bit_length()

    def test_zero_sequence(self):
        s = [F(0)] * 9
        scan = hankel_scan(s, polys=True)
        assert set(scan.d_values) == set(scan.d_prime_values) == {F(0)}
        assert [scan.p_coeffs(n) for n in range(5)] == [(F(1),), (), (), (), ()]

    def test_empty_prefix_has_only_p0(self):
        scan = hankel_scan([], polys=True)
        assert scan.d_values == scan.d_prime_values == ()
        assert scan.p_coeffs(0) == (F(1),)

    def test_polynomials_need_polys(self):
        with pytest.raises(ValueError):
            hankel_scan([1, 2, 3]).p_coeffs(1)


class TestGenericSteps:
    """Steps without a zero run build their coefficients with the pivot u
    divided out, negated when u < 0; they must give the Fraction-step pass's
    scan, its steps' signs and contents included."""

    @settings(max_examples=200, deadline=None)
    @given(negative_pivots)
    @example([F(v) for v in (-1, 2, -3, 4, -5, 6, -7, 8, -9, 1, -2, 3)])
    def test_negative_pivots_give_the_fraction_step_scan(self, s):
        for polys in (False, True):
            assert_same_scan(hankel_scan(s, polys), oracle_hankel_scan(s, polys), (s, polys))
        scan = hankel_scan(s)
        assert scan.d_values[0] < 0 and scan.steps[0][:2] == (0, 1), s  # u = s_0 < 0 at r = 0

    def test_every_other_pivot_negative(self):
        # Minus the moments (-1)^k / (k+1) of the uniform measure on [-1, 0]: D_n has the
        # sign (-1)^{n+1}, so every step is generic and u = D_r < 0 at every even r.
        s = [F((-1) ** (k + 1), k + 1) for k in range(16)]
        scan = hankel_scan(s, polys=True)
        assert [(step.r, step.r_next) for step in scan.steps] == [(r, r + 1) for r in range(8)]
        assert [d < 0 for d in scan.d_values] == [n % 2 == 0 for n in range(8)]
        check_against_elimination(s)


class TestExactDivisor:
    """A step may divide its integers by k / gcd(k, lambda^{n+1}) before the
    content gcd, exactly, because q_n divides lambda^{n+1}: the lemma, checked
    on the scan's own P_n denominators, one-shot and in chunks."""

    prefixes = st.one_of(generic, rare_ones, mid_gap(), planted_gap(), long_late_denominators())

    @settings(max_examples=200, deadline=None)
    @given(prefixes)
    def test_one_shot(self, s):
        assert_denominators_divide_scale_powers(hankel_scan(s, polys=True), s, s)

    @settings(max_examples=200, deadline=None)
    @given(chunked(prefixes))
    def test_in_chunks(self, case):
        s, cuts = case
        scanner = HankelScanner(polys=True)
        for lo, hi in zip([0] + cuts, cuts + [len(s)]):
            scanner.extend(s[lo:hi])
            assert_denominators_divide_scale_powers(scanner.result(), s[:hi], (s, cuts, hi))


class TestResumedScan:
    """A scanner fed in chunks against one scan of each prefix it has seen."""

    @settings(max_examples=300, deadline=None)
    @given(chunked())
    @example(([F(v) for v in (1, 0, 0, 0, 0, 2, 1, -1, 0, 3, 1, 1)], list(range(1, 12))))  # one term at a time
    def test_chunks_give_the_one_shot_scan(self, case):
        s, cuts = case
        scanner, frozen = HankelScanner(polys=True), FractionStepScanner(polys=True)
        for lo, hi in zip([0] + cuts, cuts + [len(s)]):
            scanner.extend(s[lo:hi])
            frozen.extend(s[lo:hi])
            got, want = scanner.result(), hankel_scan(s[:hi], polys=True)
            assert_same_scan(got, frozen.result(), (s, cuts, hi))
            assert got.d_values == want.d_values, (s, cuts, hi)
            assert got.d_prime_values == want.d_prime_values, (s, cuts, hi)
            assert len(got.p_int) == len(want.p_int)
            for n in range(len(want.p_int)):
                assert got.p_coeffs(n) == want.p_coeffs(n), (s, cuts, hi, n)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        chunked(),
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=3), min_size=2, max_size=20)
        .map(lambda s: (s, list(range(1, len(s))))),  # one term at a time
    ))
    @example(([F(-1), F(1), F(3, 2), F(-1)], [1, 2, 3]))
    def test_resumed_steps_hold_on_their_p_int(self, case):
        # New denominators multiply the open P_r and P_{r'} up; each step must still
        # name the p_int entries it combines.
        s, cuts = case
        scanner = HankelScanner(polys=True)
        for lo, hi in zip([0] + cuts, cuts + [len(s)]):
            assert_steps_hold(scanner.extend(s[lo:hi]).result(), (s, cuts, hi))

    def test_a_scan_without_polynomials_takes_one_extend(self):
        scanner = HankelScanner().extend([1, 2, 3])
        with pytest.raises(ValueError):
            scanner.extend([4])


def check_degree_profile(s):
    if all(v == 0 for v in s):
        return  # degree_profile rejects the zero sequence
    polys = [Polynomial(bareiss_p(s, n)) for n in range(len(s) // 2 + 1)]
    assert degree_profile(s).to_json() == oracle_degree_profile(s, polys).to_json(), s


class TestDegreeProfileMatchesDivision:
    """The report read off the scan's block steps against monic division of
    Bareiss P_n (`oracle_degree_profile`)."""

    @settings(max_examples=60, deadline=None)
    @given(generic)
    def test_generic_rationals(self, s):
        check_degree_profile(s)

    @settings(max_examples=150, deadline=None)
    @given(signs)
    def test_entries_from_minus_one_zero_one(self, s):
        check_degree_profile(s)

    @settings(max_examples=150, deadline=None)
    @given(rare_ones)
    def test_mostly_zero_entries(self, s):
        check_degree_profile(s)

    @settings(max_examples=80, deadline=None)
    @given(zero_start)
    def test_zero_first_moment(self, s):
        check_degree_profile(s)

    @settings(max_examples=100, deadline=None)
    @given(finite_rank())
    def test_finite_rank_tails(self, s):
        check_degree_profile(s)

    @settings(max_examples=60, deadline=None)
    @given(mid_gap())
    def test_prefix_ends_inside_a_zero_run(self, s):
        check_degree_profile(s)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_one_planted_gap_at_every_length(self, length):
        s = [F(v) for v in (1, 0, 0, 0, 0, 2, 1, -1, 0, 3, 1, 1)][:length]
        check_degree_profile(s)


class TestRoutedFunctions:
    @settings(max_examples=80, deadline=None)
    @given(signs)
    def test_per_index_functions_agree_with_one_scan(self, s):
        seq = MomentSequence(tuple(s))
        scan = hankel_scan(seq, polys=True)
        profile = determinant_transform(seq)
        assert profile.d_values == scan.d_values
        assert profile.d_prime_values == scan.d_prime_values
        assert tuple(hankel_det(seq, n) for n in range(len(scan.d_values))) == scan.d_values
        assert tuple(shifted_det(seq, n) for n in range(len(scan.d_prime_values))) == scan.d_prime_values
        family = p_family(seq, len(seq) // 2)
        assert tuple(p.coeffs for p in family) == tuple(poly_P(seq, n).coeffs for n in range(len(family)))
        assert all(second_kind(seq, family[n]) == poly_Q(seq, n) for n in range(len(family)))

    @settings(max_examples=80, deadline=None)
    @given(generic)
    def test_recurrence_coeffs_match_an_elimination_solve(self, s):
        for r in range(1, len(s) // 2 + 1):
            rows = [[s[i + j] for j in range(r)] for i in range(r)]
            if fraction_free_det(rows) == 0:
                with pytest.raises(SingularLeadingMinor):
                    recurrence_coeffs(s, r)
                continue
            rhs = [s[r + i] for i in range(r)]
            assert list(recurrence_coeffs(s, r).d) == solve_unique(rows, rhs)

    @settings(max_examples=150, deadline=None)
    @given(generic)
    def test_jacobi_matches_the_determinant_formula(self, s):
        n_terms = len(s) // 2
        if n_terms < 1:
            return
        scan = hankel_scan(s[: 2 * n_terms])
        if not all(scan.d_values):
            with pytest.raises(NotQuasiDefinite):
                jacobi_from_moments(s, n_terms)
            return
        d = (F(1),) + scan.d_values  # D_{n-1} at index n
        dp = (F(0),) + scan.d_prime_values  # D'_n at index n
        jac = jacobi_from_moments(s, n_terms)
        assert jac.a == tuple(dp[n + 1] / d[n + 1] - dp[n] / d[n] for n in range(n_terms))
        assert jac.b == tuple(d[n + 1] * d[n - 1] / (d[n] * d[n]) if n else d[1] for n in range(n_terms))

    def test_p_family_bounds(self):
        assert len(p_family([1, 2, 3, 4], 2)) == 3
        assert len(p_family([1, 2, 3, 4], 1)) == 2
        with pytest.raises(IndexOutOfRange) as info:
            p_family([1, 2, 3, 4], 3)
        assert info.value.needed == 5
        with pytest.raises(ValueError):
            p_family([1, 2, 3, 4], -1)
