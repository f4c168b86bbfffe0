"""PSD profile checks, exact root isolation, and discrete-measure recovery."""

import dataclasses
import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import to_rational

from hankelkit import measures
from hankelkit import (
    DegreeViolation,
    Interval,
    NonPositiveWeight,
    NotPSDFlat,
    NotQuasiDefinite,
    Polynomial,
    RootCountMismatch,
    WeightMismatch,
    ZeroSequence,
    cauchy_bound,
    cd_identity_residual,
    hankel_det,
    isolate_real_roots,
    moments_of_atoms,
    poly_P,
    poly_Q,
    psd_finite_rank_check,
    recover_measure,
    verify_moments,
)
from hankelkit.core import HankelScan, MomentSequence, as_moments
from hankelkit.measures import Atom, DiscreteMeasure
from hankelkit.polynomials import ZERO
from hankelkit.scalars import real_scalar

from oracles import (
    eval_mpf,
    oracle_isolate_real_roots,
    oracle_measure_floats,
    oracle_residual_bound,
    oracle_sturm_chain,
    poly_eval,
    poly_monic,
    random_sequence,
)


def linear_product(roots):
    p = Polynomial([1])
    for x in roots:
        p = p * Polynomial([-x, 1])
    return p


def exact(value) -> F:
    """The exact rational value of an mpf."""
    return F(*to_rational(value._mpf_))


def nearest(w, bits) -> F:
    """The positive rational w rounded to the nearest float of bits bits, ties to even."""
    e = w.numerator.bit_length() - w.denominator.bit_length()
    if F(2) ** e > w:
        e -= 1  # 2^e <= w < 2^(e+1)
    unit = F(2) ** (e - bits + 1)
    return round(w / unit) * unit


def refined_enclosures(scan, r, bits):
    """isolate_real_roots(P_r) as the measure path computes it: the isolating
    cells the recurrence counts, refined to the target width."""
    return measures._refined(*measures._measure_cells(scan, r, bits))


def numeric_recovery(s, bits):
    """recover_measure's numeric path, called directly: the isolating cells
    refined to the target depth, mpf weights from two formulas that must agree."""
    seq = as_moments(s)
    r, scan = measures._psd_flat_scan(seq)
    return measures._numeric_measure(seq, scan, r, refined_enclosures(scan, r, bits), bits)


def random_atoms(rng, r, span=5):
    """r distinct rational locations in [-span, span] with positive weights."""
    locations = set()
    while len(locations) < r:
        locations.add(F(rng.randint(-4 * span, 4 * span), 4))
    return [(x, F(rng.randint(1, 16), rng.randint(1, 4))) for x in sorted(locations)]


class TestPSDFiniteRankCheck:
    def test_two_atoms(self):
        assert psd_finite_rank_check([2, 1, 1, 1, 1, 1]) == 2

    def test_single_atom(self):
        assert psd_finite_rank_check([2, 0, 0, 0]) == 1

    def test_negative_determinant(self):
        with pytest.raises(NotPSDFlat) as err:
            psd_finite_rank_check([1, 0, -1, 0, 0, 0])
        assert err.value.params["n"] == 1
        assert err.value.params["value"] == F(-1)

    def test_no_flat_region(self):
        with pytest.raises(NotPSDFlat) as err:
            psd_finite_rank_check([1, 1, 2, 5, 14, 42, 132])
        assert "never vanish" in str(err.value)

    def test_no_flat_region_names_the_last_computed_index(self):
        # Four terms give D_0 and D_1 only; D_2 would need s_4.
        with pytest.raises(NotPSDFlat) as err:
            psd_finite_rank_check([1, 1, 2, 5])
        assert err.value.params["n"] == 1
        assert err.value.params["value"] == F(1)

    def test_reappearing_determinant(self):
        # D_0 > 0, D_1 = D_2 = 0, D_3 = -1: not a flat tail
        s = [1, 0, 0, 0, 1, 0, 0, 0]
        assert hankel_det(s, 1) == 0 and hankel_det(s, 3) != 0
        with pytest.raises(NotPSDFlat):
            psd_finite_rank_check(s)

    def test_rank_inconsistent_prefix(self):
        # determinants look flat but the window rank exceeds the zero run
        with pytest.raises(NotPSDFlat):
            psd_finite_rank_check([1, 2, 4, 8, 17])

    def test_zero_sequence(self):
        with pytest.raises(ZeroSequence):
            psd_finite_rank_check([0, 0, 0])
        with pytest.raises(ZeroSequence):
            psd_finite_rank_check([])

    def test_synthesized_measures_pass(self):
        rng = random.Random(5001)
        for _ in range(15):
            r = rng.randint(1, 4)
            s = moments_of_atoms(random_atoms(rng, r), 2 * r + 2)
            assert psd_finite_rank_check(s) == r


class TestRootIsolation:
    def test_cauchy_bound(self):
        assert cauchy_bound(Polynomial([-6, 1, 1])) == 7
        assert cauchy_bound(Polynomial([0, 1])) == 1

    def test_quadratic(self):
        roots = isolate_real_roots(Polynomial([0, -1, 1]), 64)
        assert len(roots) == 2
        assert roots[0].lo < 0 <= roots[0].hi
        assert roots[1].lo < 1 <= roots[1].hi
        assert roots[0].hi <= roots[1].lo  # disjoint

    def test_linear(self):
        (root,) = isolate_real_roots(Polynomial([-2, 1]), 128)
        assert root.lo < 2 <= root.hi
        assert root.width <= F(2, 2**128)

    def test_no_real_roots_rejected(self):
        with pytest.raises(RootCountMismatch):
            isolate_real_roots(Polynomial([1, 0, 1]), 64)

    def test_repeated_root_rejected(self):
        # (x-1)^2: the chain counts distinct roots, so 1 < degree 2
        with pytest.raises(RootCountMismatch):
            isolate_real_roots(Polynomial([1, -2, 1]), 64)

    def test_constant_rejected(self):
        with pytest.raises(DegreeViolation):
            isolate_real_roots(Polynomial([3]), 64)
        with pytest.raises(DegreeViolation):
            isolate_real_roots(ZERO, 64)

    def test_random_products_of_linear_factors(self):
        rng = random.Random(5002)
        for _ in range(15):
            r = rng.randint(1, 4)
            locations = sorted(x for x, _ in random_atoms(rng, r))
            p = Polynomial([1])
            for x in locations:
                p = p * Polynomial([-x, 1])
            intervals = isolate_real_roots(p, 64)
            assert len(intervals) == r
            for x, interval in zip(locations, intervals):
                assert interval.lo < x <= interval.hi

    @staticmethod
    def count_refinement(monkeypatch):
        """Counters of exact signs made inside _refine_root, Sturm counts
        (whatever the counter) and exact Newton steps, installed on the
        measures module."""
        counts = {"signs": 0, "counts": 0, "newton": 0}
        refining = [False]
        sign_at, isolate = measures._sign_at, measures._isolate
        refine_root, newton_guess = measures._refine_root, measures._newton_guess

        def counting_sign_at(coeffs, x):
            counts["signs"] += refining[0]
            return sign_at(coeffs, x)

        def counting_isolate(coeffs, sign_changes, *args):
            def counted(x):
                counts["counts"] += 1
                return sign_changes(x)

            return isolate(coeffs, counted, *args)

        def flagged_refine_root(*args):
            refining[0] = True
            try:
                return refine_root(*args)
            finally:
                refining[0] = False

        def counting_newton_guess(*args):
            counts["newton"] += 1
            return newton_guess(*args)

        monkeypatch.setattr(measures, "_sign_at", counting_sign_at)
        monkeypatch.setattr(measures, "_isolate", counting_isolate)
        monkeypatch.setattr(measures, "_refine_root", flagged_refine_root)
        monkeypatch.setattr(measures, "_newton_guess", counting_newton_guess)
        return counts

    def test_refinement_uses_few_exact_evaluations(self, monkeypatch):
        # Rank 12, atoms n/7, 256 bits: from its isolating cell each root is
        # about 244 halvings from the target width.  An approximate root names
        # the target cell and exact signs at its two ends confirm it, after
        # one exact sign at the isolating cell's right end.
        # This is the numeric path; recover_measure takes these rational atoms
        # exactly and refines no cell at all.
        counts = self.count_refinement(monkeypatch)
        s = moments_of_atoms([(F(n, 7), 1) for n in range(1, 13)], 25)
        assert numeric_recovery(s, 256).r == 12
        assert 0 < counts["signs"] <= 3 * 12
        assert counts["newton"] == 0
        # The Cauchy bound is about 1743 and Fujiwara's 2^6: bisection from
        # [-B-1, B+1] makes 23 Sturm counts, from the two cells next to 0
        # that cover (-2^6, 2^6) 17.
        assert 0 < counts["counts"] <= 17
        counts.update(signs=0, counts=0)
        assert recover_measure(s, 256).atoms[0].exact_location == F(1, 7)
        assert counts["signs"] == counts["newton"] == 0
        assert 0 < counts["counts"] <= 17

    def test_refinement_takes_few_newton_steps(self, monkeypatch):
        # Same measure with no approximate root, so quadratic interval
        # refinement does it all: Newton steps that land converge
        # quadratically, so about log2(244) of them reach the target; a guess
        # that keeps missing its cell falls back to one halving per step.
        counts = self.count_refinement(monkeypatch)
        monkeypatch.setattr(measures, "_approximate_root", lambda *args: None)
        s = moments_of_atoms([(F(n, 7), 1) for n in range(1, 13)], 25)
        assert recover_measure(s, 256).r == 12
        assert 0 < counts["newton"] <= 16 * 12
        assert 0 < counts["signs"] <= 24 * 12

    def test_json(self):
        payload = isolate_real_roots(Polynomial([-2, 1]), 64)[0].to_json()
        assert isinstance(payload, list) and len(payload) == 2
        assert all(isinstance(v, str) for v in payload)


dyadic_roots = st.one_of(
    st.integers(-8, 8).map(F), st.integers(-16, 16).map(lambda n: F(n, 2))
)
rational_roots = st.fractions(min_value=-9, max_value=9, max_denominator=40)
# Two roots 2^-e apart: closer than the target width for most e at 64 bits
# and for some at 256, so Sturm bisection has to separate them past it.
close_pairs = st.builds(
    lambda x, e: [x, x + F(1, 2**e)], st.one_of(dyadic_roots, rational_roots), st.integers(40, 300)
)
root_sets = st.builds(
    lambda roots, pairs: sorted(set(roots + [x for pair in pairs for x in pair])),
    st.lists(st.one_of(dyadic_roots, rational_roots), min_size=1, max_size=4),
    st.lists(close_pairs, max_size=1),
)

# Roots x - 2^-e and x + 2^-e, with or without x itself.
plus_minus = st.builds(
    lambda x, e, centre: [x - F(1, 2**e), x + F(1, 2**e)] + ([x] if centre else []),
    rational_roots,
    st.integers(1, 100),
    st.booleans(),
)
# Irrational roots c +- sqrt(k) of (x - c)^2 - k, k not a square.
quadratic_factors = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(2, 40).filter(lambda k: isqrt(k) ** 2 != k)),
    min_size=1,
    max_size=2,
    unique=True,
)
irrational_root_sets = st.tuples(
    st.builds(
        lambda roots, near: sorted(set(roots + [x for group in near for x in group])),
        st.lists(rational_roots, max_size=2),
        st.lists(plus_minus, max_size=1),
    ),
    quadratic_factors,
)


class TestRefinementAgainstBisection:
    """Sturm isolation plus sign refinement returns the cells plain bisection does."""

    @settings(max_examples=60, deadline=None)
    @given(root_sets, st.sampled_from([64, 256]))
    @example([F(0), F(1)], 64)  # 0 is the first isolation split, 1 a grid point
    @example([F(-1), F(0), F(1)], 256)
    @example([F(1, 2), F(1, 2) + F(1, 2**300)], 256)
    @example([F(-3), F(1, 3), F(1, 3) + F(1, 2**70)], 64)
    def test_products_of_linear_factors(self, roots, bits):
        p = linear_product(roots)
        intervals = isolate_real_roots(p, bits)
        expected = [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(p, bits)]
        assert intervals == expected
        assert all(iv.lo < x <= iv.hi for x, iv in zip(roots, intervals))

    @settings(max_examples=25, deadline=None)
    @given(irrational_root_sets, st.sampled_from([64, 256]))
    @example(([F(99, 70)], [(0, 2)]), 256)  # 99/70 is 1.4e-4 from sqrt(2)
    @example(([F(2) - F(1, 2**90), F(2) + F(1, 2**90)], [(2, 3)]), 64)
    @example(([F(1), F(1) + F(1, 2**80)], [(0, 3), (1, 5)]), 256)
    def test_irrational_and_near_rational_roots(self, root_set, bits):
        rationals, quadratics = root_set
        p = linear_product(rationals)
        for c, k in quadratics:  # roots c +- sqrt(k)
            p = p * Polynomial([c * c - k, -2 * c, 1])
        intervals = isolate_real_roots(p, bits)
        expected = [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(p, bits)]
        assert intervals == expected
        assert len(intervals) == p.degree


# Roots of the benchmark's measure documents: 3 to 12 distinct atoms n/7 in
# [-60/7, 60/7], 0 among them or not.  P_r is a positive multiple of the
# product of x - atom, so the atoms alone fix its enclosures.
workload_atoms = st.lists(st.integers(-60, 60).map(lambda n: F(n, 7)), min_size=3, max_size=12, unique=True)


class TestIsolationAgainstOracle:
    """Fujiwara start and approximate roots confirmed by exact signs, against plain bisection."""

    @settings(max_examples=30, deadline=None)
    @given(workload_atoms, st.sampled_from([64, 256, 1024]))
    # 0 is a grid point, and the left end of the cell that isolates 1/7.
    @example([F(-9, 7), F(0), F(1, 7), F(5, 7), F(2)], 64)
    @example([F(-9, 7), F(0), F(1, 7), F(5, 7), F(2)], 256)
    # Coefficients past 2^1100 overflow floats: exact refinement alone.
    @example([F(-3), F(1, 7), F(1, 3**700), F(4)], 64)
    # Two roots 2^-70 apart: their isolating cells are below float resolution.
    @example([F(-2), F(1, 7), F(1, 7) + F(1, 2**70), F(3)], 256)
    def test_workload_shaped_roots(self, atoms, bits):
        atoms = sorted(atoms)
        p = linear_product(atoms)
        intervals = isolate_real_roots(p, bits)
        assert intervals == [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(p, bits)]
        assert all(iv.lo < x <= iv.hi for x, iv in zip(atoms, intervals))

    @pytest.mark.parametrize("bits", [10, 30])
    def test_target_cells_wider_than_one(self, bits):
        # The Cauchy bound is about 2^48, so target cells are about 2^(49 - bits)
        # wide, and the approximation aims no finer than that.
        p = linear_product([F(-25000), F(-4750), F(-11000, 7), F(1400)]) * -3
        assert isolate_real_roots(p, bits) == [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(p, bits)]

    def test_a_guess_on_a_neighbours_root_is_rejected(self, monkeypatch):
        # Every guess is 0, a root of p and the left end of the cell that
        # isolates 1/7: that end counts as the sign left of 1/7, so the guess
        # is rejected there and the exact refinement finds the cell.
        monkeypatch.setattr(measures, "_approximate_root", lambda *args: (0, 0))
        p = linear_product([F(-9, 7), F(0), F(1, 7), F(5, 7), F(2)])
        assert isolate_real_roots(p, 64) == [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(p, 64)]

    @pytest.mark.parametrize(
        "roots",
        [
            [F(-5, 8), F(-1, 8)],  # exact zeros at QIR subcell ends, left and right
            [F(-3, 2), F(1)],  # an exact zero at a QIR midpoint (-3/2; 1 is off the grid)
        ],
    )
    def test_roots_on_refinement_grid_points(self, monkeypatch, roots):
        # No approximate roots: quadratic interval refinement alone meets each
        # root as an exact zero on a grid point, whose target cell ends there.
        monkeypatch.setattr(measures, "_approximate_root", lambda *args: None)
        p = linear_product(roots)
        intervals = isolate_real_roots(p, 64)
        assert intervals == [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(p, 64)]
        assert all(iv.lo < x <= iv.hi for x, iv in zip(roots, intervals))
        assert intervals[0].hi == roots[0]

    def test_overflowing_coefficients_fall_back_to_exact_refinement(self, monkeypatch):
        guesses = []
        approximate_root = measures._approximate_root

        def recording(*args):
            guesses.append(approximate_root(*args))
            return guesses[-1]

        monkeypatch.setattr(measures, "_approximate_root", recording)
        p = linear_product([F(-3), F(1, 7), F(1, 3**700), F(4)])
        assert max(abs(c) for c in measures._sturm_chain(p)[0]) > 2**1100
        assert len(isolate_real_roots(p, 64)) == 4
        assert guesses and all(guess is None for guess in guesses)


# (x - root)^multiplicity factors, optionally times x^2 + k (no real roots),
# times a nonzero scale of either sign: repeated, clustered and conjugate roots.
sturm_polynomials = st.builds(
    lambda factors, pairs, quadratic, scale: (
        linear_product([x for x, m in factors for _ in range(m)] + [x for pair in pairs for x in pair])
        * (Polynomial([quadratic, 0, 1]) if quadratic else Polynomial([1]))
        * scale
    ),
    st.lists(st.tuples(st.one_of(dyadic_roots, rational_roots), st.integers(1, 3)), min_size=1, max_size=4),
    st.lists(close_pairs, max_size=1),
    st.sampled_from([0, 0, 1, 3]),
    st.sampled_from([F(1), F(-1), F(5, 7), F(-3, 2), F(-7)]),
)


class TestIntegerSturmChain:
    """The integer chain against Fraction polynomial division (oracle_sturm_chain)."""

    @settings(max_examples=80, deadline=None)
    @given(sturm_polynomials)
    @example(Polynomial([F(1, 3), -1]))  # degree 1, negative leading coefficient
    # Roots summing to 0: p mod p' loses two degrees in one pseudo-division step.
    @example(linear_product([F(-2), F(-1), F(1), F(2)]) * -1)
    @example(linear_product([F(1)] * 3 + [F(-2)] * 2) * F(-3, 2))  # gcd(p, p') of degree 3
    @example(Polynomial([-1, 0, 0, 0, -1]))  # -(x^4 + 1): p mod p' is a constant
    def test_each_element_is_a_positive_multiple(self, p):
        chain = measures._sturm_chain(p)
        expected = oracle_sturm_chain(p)
        assert len(chain) == len(expected)
        for ints, q in zip(chain, expected):
            assert len(ints) == len(q.coeffs)
            ratio = F(ints[-1]) / q.leading
            assert ratio > 0
            assert all(F(c) == ratio * e for c, e in zip(ints, q.coeffs))

    def test_elements_are_primitive(self):
        chain = measures._sturm_chain(linear_product([F(1, 3), F(2, 5), F(-7, 4)]) * F(-6, 11))
        assert all(gcd(*ints) == 1 for ints in chain)


# Positive weights for up to six atoms (root_sets has at most six roots).
positive_weights = st.fractions(F(1, 4), 9, max_denominator=4)
atom_weights = st.lists(positive_weights, min_size=6, max_size=6)


class TestRecurrenceCounter:
    """Sturm counts of (P_r, .., P_0) by the scan's recurrence, against the
    Sturm chain of P_r and plain bisection (oracle_isolate_real_roots)."""

    @settings(max_examples=40, deadline=None)
    @given(root_sets, atom_weights, st.sampled_from([64, 256]))
    # The Cauchy bound of x^2 - x is 1, so the grid is (-2, 2] cut in
    # quarters, halves, ..: 0 and 1 are grid points, 0 the first split.
    @example([F(0), F(1)], [F(1)] * 6, 64)
    @example([F(-1), F(0), F(1)], [F(1, 4), F(9), F(2)] + [F(1)] * 3, 256)
    @example([F(-3), F(1, 2), F(1, 2) + F(1, 2**300), F(4)], [F(1)] * 6, 256)  # a 2^-300 cluster
    @example([F(-3), F(1, 3), F(1, 3) + F(1, 2**70)], [F(5, 2), F(1, 4), F(9)] + [F(1)] * 3, 64)
    def test_same_enclosures_and_counts(self, roots, weights, bits):
        r = len(roots)
        s = moments_of_atoms(list(zip(roots, weights)), 2 * r + 1)
        rank, scan = measures._psd_flat_scan(s)
        assert rank == r
        p = poly_P(s, r)
        expected = [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(p, bits)]
        assert refined_enclosures(scan, r, bits) == expected
        assert isolate_real_roots(p, bits) == expected
        try:
            measure = recover_measure(s, bits)
        except (WeightMismatch, NonPositiveWeight):
            pass  # a cluster's weights can need more bits than its enclosures
        else:
            assert [atom.enclosure for atom in measure.atoms] == expected
        # V(x) counts the roots in (x, +inf), the chain's count, at the atoms,
        # 0, the enclosures' ends and every grid point of depth 5.
        count, chain = measures._recurrence_sign_changes(scan, r), measures._sturm_chain(p)
        hi = cauchy_bound(p) + 1
        grid = [-hi + hi * i / 16 for i in range(33)]
        for x in roots + [F(0)] + [end for cell in expected for end in (cell.lo, cell.hi)] + grid:
            point = measures._Unreduced(x.numerator, x.denominator)
            assert count(point) == measures._sign_changes(chain, point) == sum(1 for root in roots if root > x)

    def test_cluster_recovered_at_1024_bits(self):
        # Two atoms 2^-300 apart: at 1024 bits the weights agree as well.
        roots = [F(-3), F(1, 2), F(1, 2) + F(1, 2**300), F(4)]
        s = moments_of_atoms([(x, 1) for x in roots], 9)
        measure = recover_measure(s, 1024)
        expected = [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(poly_P(s, 4), 1024)]
        assert [atom.enclosure for atom in measure.atoms] == expected
        assert all(cell.lo < x <= cell.hi for x, cell in zip(roots, expected))

    def test_a_negative_scan_factor_is_an_internal_error(self):
        # -p_factor[2] times -p_int[2] is still P_2, but the counter reads
        # the signs of P_k off p_int alone.
        _, scan = measures._psd_flat_scan(moments_of_atoms([(0, 1), (1, 1), (2, 1)], 7))
        p_int, p_factor = list(scan.p_int), list(scan.p_factor)
        p_int[2], p_factor[2] = tuple(-c for c in p_int[2]), -p_factor[2]
        flipped = dataclasses.replace(scan, p_int=tuple(p_int), p_factor=tuple(p_factor))
        assert flipped.p_coeffs(2) == scan.p_coeffs(2)
        with pytest.raises(RuntimeError, match="internal error"):
            measures._recurrence_sign_changes(flipped, 3)

    def test_recover_measure_builds_no_chain(self, monkeypatch):
        # Rational atoms read no rational coefficient of P_r at all; the
        # numeric path reads P_r's once, for Q_r and P_r'.
        def forbidden(*args):
            raise AssertionError("the measure path built or evaluated a Sturm chain")

        read = []
        p_coeffs = HankelScan.p_coeffs

        def recording(scan, n):
            read.append(n)
            return p_coeffs(scan, n)

        monkeypatch.setattr(measures, "_sturm_chain", forbidden)
        monkeypatch.setattr(measures, "_sign_changes", forbidden)
        monkeypatch.setattr(HankelScan, "p_coeffs", recording)
        s = moments_of_atoms([(F(n, 7), 1) for n in range(-5, 7)], 25)
        assert recover_measure(s, 256).r == 12
        assert read == []
        assert numeric_recovery(s, 256).r == 12
        assert read == [12]


class TestRecoverMeasure:
    def test_two_unit_atoms(self):
        measure = recover_measure([2, 1, 1, 1, 1, 1], 256)
        assert measure.r == 2
        with mp.workprec(256):
            assert abs(measure.atoms[0].location.value - 0) < mp.mpf("1e-70")
            assert abs(measure.atoms[1].location.value - 1) < mp.mpf("1e-70")
            assert abs(measure.atoms[0].weight.value - 1) < mp.mpf("1e-70")
            assert abs(measure.atoms[1].weight.value - 1) < mp.mpf("1e-70")

    def test_three_rational_atoms(self):
        atoms = [("-2", "1/2"), ("1/3", "2"), ("5", "1/4")]
        s = moments_of_atoms(atoms, 8)
        measure = recover_measure(s, 256)
        assert measure.r == 3
        expected = [(F(-2), F(1, 2)), (F(1, 3), F(2)), (F(5), F(1, 4))]
        with mp.workprec(256):
            for atom, (x, w) in zip(measure.atoms, expected):
                assert abs(atom.location.value - x) < mp.mpf("1e-60")
                assert abs(atom.weight.value - w) < mp.mpf("1e-60")

    def test_construct_then_recover(self):
        rng = random.Random(5003)
        for _ in range(10):
            r = rng.randint(1, 4)
            atoms = random_atoms(rng, r)
            s = moments_of_atoms(atoms, 2 * r + 2)
            measure = recover_measure(s, 256)
            assert measure.r == r
            with mp.workprec(256):
                for atom, (x, w) in zip(measure.atoms, atoms):
                    assert abs(atom.location.value - x) < mp.mpf("1e-20")
                    assert abs(atom.weight.value - w) < mp.mpf("1e-20")

    def test_atoms_sorted_and_disjoint(self):
        rng = random.Random(5004)
        for _ in range(8):
            r = rng.randint(2, 4)
            s = moments_of_atoms(random_atoms(rng, r), 2 * r + 2)
            measure = recover_measure(s, 128)
            enclosures = [atom.enclosure for atom in measure.atoms]
            for left, right in zip(enclosures, enclosures[1:]):
                assert left.hi <= right.lo

    def test_weights_strictly_positive(self):
        rng = random.Random(5005)
        for _ in range(8):
            r = rng.randint(1, 4)
            s = moments_of_atoms(random_atoms(rng, r), 2 * r + 2)
            measure = recover_measure(s, 128)
            assert all(atom.weight.value > 0 for atom in measure.atoms)

    def test_enclosures_bracket_sign_change(self):
        # each enclosure (lo, hi] has P_r(lo) and P_r(hi) of opposite sign
        s = moments_of_atoms([("-1", "1"), ("1/2", "3"), ("2", "1/2")], 8)
        p = poly_P(s, 3)
        measure = recover_measure(s, 128)
        for atom in measure.atoms:
            assert poly_eval(p, atom.enclosure.lo) * poly_eval(p, atom.enclosure.hi) < 0

    def test_kronecker_value_at_atoms(self):
        # P_{r-1}(x) Q_r(x) = D_{r-1}^2 at every root of P_r
        s = moments_of_atoms([("-2", "1/2"), ("1/3", "2"), ("5", "1/4")], 8)
        r = 3
        d_prev = hankel_det(s, r - 1)
        p_prev, q_r = poly_P(s, r - 1), poly_Q(s, r)
        measure = recover_measure(s, 256)
        with mp.workprec(256):
            target = mp.mpf(d_prev.numerator) ** 2 / mp.mpf(d_prev.denominator) ** 2
            for atom in measure.atoms:
                lam = atom.location.value
                value = eval_mpf(p_prev, lam, 256) * eval_mpf(q_r, lam, 256)
                assert abs(value - target) < mp.mpf("1e-30")

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDFlat):
            recover_measure([1, 0, -1, 0, 0, 0], 128)

    def test_weights_match_per_atom_evaluation_bit_for_bit(self):
        # Numeric path: coefficients are rounded to mpf once per measure; every
        # weight must still be the residue Q_r/P_r' that oracles.eval_mpf
        # gives per atom.  recover_measure takes these rational atoms exactly:
        # the same locations, and each weight the exact one correctly rounded.
        rng = random.Random(5006)
        for _ in range(12):
            r = rng.randint(1, 8)
            bits = rng.choice([64, 113, 256])
            atoms = random_atoms(rng, r)
            s = moments_of_atoms(atoms, 2 * r + 1)
            measure = numeric_recovery(s, bits)
            p_prime, q_r = poly_P(s, r).derivative(), poly_Q(s, r)
            assert measure.r == r
            exact_measure = recover_measure(s, bits)
            assert [a.location for a in exact_measure.atoms] == [a.location for a in measure.atoms]
            for atom, (x, w) in zip(exact_measure.atoms, atoms):
                assert (atom.exact_location, atom.exact_weight) == (x, w)
                assert exact(atom.weight.value) == nearest(w, bits)
            for atom in measure.atoms:
                midpoint = atom.enclosure.midpoint
                with mp.workprec(bits):
                    lam = mp.mpf(midpoint.numerator) / midpoint.denominator
                    weight = eval_mpf(q_r, lam, bits) / eval_mpf(p_prime, lam, bits)
                assert atom.location.value == lam
                assert atom.weight.value == weight

    def test_json_shape(self):
        payload = recover_measure([2, 1, 1, 1, 1, 1], 128).to_json()
        assert payload["r"] == 2
        assert len(payload["atoms"]) == 2
        atom = payload["atoms"][0]
        assert set(atom) == {"location", "enclosure", "weight", "exact_location", "exact_weight"}
        assert (atom["exact_location"], atom["exact_weight"]) == ("0", "1")
        # Atoms +-sqrt(2) are irrational: no exact fields.
        payload = recover_measure([2, 0, 4, 0, 8, 0], 128).to_json()
        assert all(set(atom) == {"location", "enclosure", "weight"} for atom in payload["atoms"])


# (enclosure's left end, its width, weight): weights of either sign or 0,
# enclosures of any sign, points among them.
signed_atoms = st.lists(
    st.tuples(
        st.fractions(-5, 5, max_denominator=16),
        st.sampled_from([F(0), F(1, 2**300), F(1, 8), F(3)]),
        st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=7)),
    ),
    min_size=1,
    max_size=5,
)


class TestVerifyMoments:
    def test_exact_synthesis_certifies_tiny_residual(self):
        s = moments_of_atoms([("-2", "1/2"), ("1/3", "2"), ("5", "1/4")], 8)
        measure = recover_measure(s, 256)
        bound = verify_moments(measure, s)
        assert bound.value < mp.mpf("1e-50")

    def test_bound_covers_true_residual(self):
        s = moments_of_atoms([("0", "1"), ("1", "1")], 5)
        measure = recover_measure(s, 256)
        perturbed = list(s.terms)
        perturbed[0] += F(1, 1000)
        bound = verify_moments(measure, perturbed)
        assert bound.value > mp.mpf("0.0005")

    def test_bound_is_never_below_the_exact_residual(self):
        # One atom at 1/2, weight w = 1/(3k) rounded at 256 bits, against
        # moments [1, 1/2]: the exact residual is 1 - w, at n = 0.  Rounding
        # the bound to nearest at 53 bits puts it below 1 - w for 19 of these k.
        enclosure = Interval(F(1, 2) - F(1, 2**300), F(1, 2))
        for k in range(1, 41):
            weight = real_scalar(F(1, 3 * k), 256)
            atom = Atom(location=real_scalar(F(1, 2), 256), enclosure=enclosure, weight=weight)
            bound = verify_moments(DiscreteMeasure(atoms=(atom,), r=1), [1, F(1, 2)])
            assert bound.precision_bits == 256
            assert exact(bound.value) >= 1 - exact(weight.value)

    @settings(max_examples=60, deadline=None)
    @given(signed_atoms, st.lists(st.fractions(-9, 9, max_denominator=9), min_size=1, max_size=8),
           st.sampled_from([64, 256]))
    # Negative, zero and positive weights on enclosures below, around and above 0.
    @example([(F(-2), F(1), F(-1, 3)), (F(-1, 2), F(1), F(0)), (F(1), F(0), F(5, 7))], [1, -1, 2, 0, 3], 64)
    def test_signed_weights_against_the_iv_context(self, atoms, moments, bits):
        # verify_moments takes any weights, not only recover_measure's
        # positive ones: w [lo, hi] swaps its ends for w < 0.
        measure = DiscreteMeasure(
            atoms=tuple(
                Atom(location=real_scalar(lo, bits), enclosure=Interval(lo, lo + width), weight=real_scalar(w, bits))
                for lo, width, w in atoms
            ),
            r=len(atoms),
        )
        triples = [(a.enclosure.lo, a.enclosure.hi, a.weight.value) for a in measure.atoms]
        bound = verify_moments(measure, moments, precision_bits=bits)
        assert bound.value._mpf_ == oracle_residual_bound(triples, moments, bits)


# r distinct atoms n/7 in [-60/7, 60/7] with weights b/c, c <= 4, r = 1..12.
rational_measures = st.lists(
    st.tuples(st.integers(-60, 60).map(lambda n: F(n, 7)), st.fractions(F(1, 4), 9, max_denominator=4)),
    min_size=1,
    max_size=12,
    unique_by=lambda atom: atom[0],
)


class TestAgainstMpmathContexts:
    """Raw-tuple weights and residuals bit for bit against mpmath's mp and iv contexts."""

    @settings(max_examples=40, deadline=None)
    @given(rational_measures, st.sampled_from([64, 256, 1024]))
    @example([(F(n, 7), F(5 + n % 5, 1 + n % 4)) for n in range(-55, 60, 10)], 1024)
    # The two weight formulas differ by rounding alone at 64 bits (delta 2.45e-10).
    @example([(F(n, 7), F(1, 2) if n == 22 else F(1, 4)) for n in (0, 3, 9, 13, 16, 18, 20, 21, 22, 23, 24)], 64)
    # Refused at 64 bits: at atom 9 the two formulas differ by 1.04 times the
    # bound, where the sum of P_k^2 / (D_k D_{k-1}) by Horner would accept.
    @example(
        [(F(n, 7), F(w)) for n, w in ((0, "9/2"), (8, "2/3"), (14, "7/2"), (15, "1/2"), (19, "3/2"), (24, 3),
                                      (25, "7/3"), (28, "3/4"), (30, 1), (33, 3), (34, 2), (35, 4))],
        64,
    )
    def test_locations_weights_and_residual_bits(self, atoms, bits):
        r = len(atoms)
        assert_matches_mpmath_contexts(moments_of_atoms(atoms, 2 * r + 1), r, bits)


def assert_matches_mpmath_contexts(s, r, bits):
    """recover_measure's numeric path and verify_moments' interval residual on
    moments s of r atoms against oracle_measure_floats and
    oracle_residual_bound, bit for bit; a refusal must be the oracle's too.
    Returns the measure, or None if refused."""
    try:
        measure = numeric_recovery(s, bits)
    except WeightMismatch as exc:
        # Refused at this precision: the oracle's two formulas must miss the same bound.
        enclosures = isolate_real_roots(poly_P(s, r), bits)
        _, weight, weight_cd = oracle_measure_floats(s.terms, enclosures, bits)[exc.index]
        with mp.workprec(bits):
            w, w_cd = mp.make_mpf(weight), mp.make_mpf(weight_cd)
            assert abs(w - w_cd) > mp.mpf(2) ** -(bits // 2) * max(1, abs(w))
        return None
    assert measure.r == r
    expected = oracle_measure_floats(s.terms, [atom.enclosure for atom in measure.atoms], bits)
    for atom, (location, weight, weight_cd) in zip(measure.atoms, expected):
        assert atom.location.value._mpf_ == location
        assert atom.weight.value._mpf_ == weight
        # The library accepted this atom, so the oracle's two formulas agree as well.
        with mp.workprec(bits):
            w, w_cd = mp.make_mpf(weight), mp.make_mpf(weight_cd)
            assert abs(w - w_cd) <= mp.mpf(2) ** -(bits // 2) * max(1, abs(w))
    triples = [(a.enclosure.lo, a.enclosure.hi, a.weight.value) for a in measure.atoms]
    perturbed = list(s.terms)
    perturbed[0] -= F(1, 7)
    perturbed[-1] += F(1, 3)
    for target in (s.terms, perturbed):
        bound = verify_moments(measure, target, precision_bits=bits)
        assert bound.value._mpf_ == oracle_residual_bound(triples, target, bits)
    return measure


def power_sums(coeffs, m_max):
    """sum of x^n over the roots x of the monic integer polynomial with
    coeffs (lowest first), n = 0..m_max, by Newton's identities."""
    d = len(coeffs) - 1
    sums = [F(d)]
    for n in range(1, m_max + 1):
        acc = n * coeffs[d - n] if n <= d else 0
        acc += sum(coeffs[d - i] * sums[n - i] for i in range(1, min(n - 1, d) + 1))
        sums.append(F(-acc))
    return sums


# Galois orbits of irrational atoms, each its minimal polynomial (lowest
# coefficient first): +-sqrt(2), 1 +- sqrt(3), and the three roots
# 2 cos(2 pi k / 9) of x^3 - 3x + 1.  Rational moments need one weight per orbit.
ORBITS = ((-2, 0, 1), (-2, -2, 1), (1, -3, 0, 1))
irrational_measures = st.tuples(
    st.lists(st.tuples(st.sampled_from(ORBITS), positive_weights), min_size=1, max_size=3, unique_by=lambda o: o[0]),
    st.lists(st.tuples(st.integers(-20, 20).map(lambda n: F(n, 7)), positive_weights), max_size=3,
             unique_by=lambda atom: atom[0]),
)


def irrational_moments(irrational_measure):
    """(s_0..s_{2r+1}, the monic P_r) of orbits of irrational atoms and rational atoms."""
    orbits, rational_atoms = irrational_measure
    f = linear_product([x for x, _ in rational_atoms])
    for coeffs, _ in orbits:
        f = f * Polynomial(coeffs)
    m_max = 2 * f.degree + 1
    orbit_sums = [[w * p for p in power_sums(coeffs, m_max)] for coeffs, w in orbits]
    s = moments_of_atoms(rational_atoms, m_max)
    return MomentSequence(tuple([t + sum(sums[n] for sums in orbit_sums) for n, t in enumerate(s.terms)])), f


class TestIrrationalAtoms:
    """Conjugate irrational atoms, the path the benchmark's n/7 atoms never take."""

    @settings(max_examples=25, deadline=None)
    @given(irrational_measures, st.sampled_from([64, 256, 1024]))
    @example(([(ORBITS[0], F(1)), (ORBITS[1], F(1, 3)), (ORBITS[2], F(2))], []), 256)
    @example(([(ORBITS[0], F(1)), (ORBITS[1], F(1, 3)), (ORBITS[2], F(2))], []), 1024)
    @example(([(ORBITS[0], F(9, 4))], [(F(0), F(1, 2)), (F(10, 7), F(3))]), 64)  # 10/7 is 0.014 from sqrt(2)
    def test_against_oracles(self, irrational_measure, bits):
        s, f = irrational_moments(irrational_measure)
        r = f.degree
        assert poly_monic(poly_P(s, r)) == f
        measure = assert_matches_mpmath_contexts(s, r, bits)
        if measure is not None:
            expected = [Interval(lo, hi) for lo, hi in oracle_isolate_real_roots(f, bits)]
            assert [atom.enclosure for atom in measure.atoms] == expected
            assert all(poly_eval(f, c.lo) * poly_eval(f, c.hi) < 0 or poly_eval(f, c.hi) == 0 for c in expected)


def assert_same_recovery(s, bits):
    """recover_measure on s falls back to the numeric path: the same measure,
    or the same refusal, and the same residual."""
    try:
        numeric = numeric_recovery(s, bits)
    except (WeightMismatch, NonPositiveWeight) as exc:
        with pytest.raises(type(exc)) as refusal:
            recover_measure(s, bits)
        assert refusal.value.to_json() == exc.to_json()
        return
    measure = recover_measure(s, bits)
    assert measure == numeric
    assert all(atom.exact_location is None and atom.exact_weight is None for atom in measure.atoms)
    assert verify_moments(measure, s) == verify_moments(numeric, s)


# The 2^-300 cluster around 1/3: closer than the target width below about 300 bits.
CLUSTER = [(F(1, 3) - F(1, 2**300), F(1)), (F(1, 3), F(2)), (F(1, 3) + F(1, 2**300), F(3))]


class TestExactAgainstNumeric:
    """recover_measure's exact path for rational atoms against its numeric
    path, called directly; irrational atoms and clusters must fall back."""

    @settings(max_examples=40, deadline=None)
    @given(root_sets, atom_weights, st.sampled_from([64, 256, 1024]))
    @example([F(0), F(1)], [F(1)] * 6, 64)  # grid points of the grid (-2, 2]
    @example([F(-9, 7), F(0), F(1, 7), F(5, 7), F(2)], [F(2), F(1), F(3), F(1), F(1, 2), F(1)], 256)  # an atom at 0
    @example([F(-1), F(0), F(1, 2), F(1)], [F(1, 4), F(9), F(2), F(3)] + [F(1)] * 2, 64)
    @example([x for x, _ in CLUSTER], [w for _, w in CLUSTER] + [F(1)] * 3, 1024)  # resolved at 1024 bits
    # The approximate root in the cell of 2^-70 stops at the root 0 on its left
    # end, so the cell is refined until its midpoint names the root.
    @example([F(0), F(1, 2**70)], [F(1, 4)] * 6, 64)
    def test_rational_atoms(self, roots, weights, bits):
        r = len(roots)
        atoms = list(zip(roots, weights))
        s = moments_of_atoms(atoms, 2 * r + 1)
        _, scan = measures._psd_flat_scan(s)
        _, grid, cells = measures._measure_cells(scan, r, bits)
        if any(depth > grid.depth_k for _, depth in cells):  # roots closer than the target width
            assert_same_recovery(s, bits)
            return
        measure = recover_measure(s, bits)
        assert [atom.enclosure for atom in measure.atoms] == refined_enclosures(scan, r, bits)
        assert [(atom.exact_location, atom.exact_weight) for atom in measure.atoms] == atoms
        assert verify_moments(measure, s).value == 0
        try:
            numeric = numeric_recovery(s, bits)
        except WeightMismatch:
            return  # the numeric weights need more bits; the exact ones do not
        bound = F(1, 2 ** (bits // 2))
        for atom, other in zip(measure.atoms, numeric.atoms):
            assert atom.location == other.location
            assert abs(exact(atom.weight.value) - exact(other.weight.value)) <= bound * atom.exact_weight

    @pytest.mark.parametrize("bits", [64, 256])
    def test_cluster_falls_back(self, bits):
        s = moments_of_atoms(CLUSTER, 7)
        r, scan = measures._psd_flat_scan(s)
        coeffs, grid, cells = measures._measure_cells(scan, r, bits)
        assert max(depth for _, depth in cells) > grid.depth_k
        assert measures._exact_roots(coeffs, grid, cells) is None
        assert_same_recovery(s, bits)

    @settings(max_examples=25, deadline=None)
    @given(irrational_measures, st.sampled_from([64, 256, 1024]))
    @example(([(ORBITS[0], F(1)), (ORBITS[1], F(1, 3)), (ORBITS[2], F(2))], []), 64)
    @example(([(ORBITS[0], F(9, 4))], [(F(0), F(1, 2)), (F(10, 7), F(3))]), 256)
    def test_irrational_atoms_print_the_numeric_output(self, irrational_measure, bits):
        s, _ = irrational_moments(irrational_measure)
        assert_same_recovery(s, bits)


class TestCDResidual:
    def test_flat_example(self):
        assert cd_identity_residual([2, 1, 1, 1], 2) == ZERO

    def test_even_example(self):
        assert cd_identity_residual([1, 0, F(1, 2), 0], 2) == ZERO

    def test_random_quasi_definite(self):
        rng = random.Random(5006)
        checked = 0
        while checked < 20:
            r = rng.randint(1, 4)
            s = random_sequence(rng, 2 * r)
            try:
                residual = cd_identity_residual(s, r)
            except NotQuasiDefinite:
                continue
            assert residual == ZERO
            checked += 1

    def test_not_quasi_definite(self):
        with pytest.raises(NotQuasiDefinite) as err:
            cd_identity_residual([1, 1, 1, 1], 2)
        assert err.value.params["n"] == 1


class TestMomentsOfAtoms:
    def test_two_atoms(self):
        s = moments_of_atoms([("0", "1"), ("1", "1")], 5)
        assert s.terms == (F(2), F(1), F(1), F(1), F(1), F(1))

    def test_geometric(self):
        s = moments_of_atoms([("3", "1")], 4)
        assert s.terms == (F(1), F(3), F(9), F(27), F(81))

    def test_empty(self):
        assert moments_of_atoms([], 3).is_zero()
