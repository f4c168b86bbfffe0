"""PSD profile checks, exact root isolation, and discrete-measure recovery."""

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
from hankelkit.measures import Atom, DiscreteMeasure
from hankelkit.polynomials import ZERO
from hankelkit.scalars import real_scalar

from oracles import (
    oracle_isolate_real_roots,
    oracle_measure_floats,
    oracle_residual_bound,
    oracle_sturm_chain,
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

    def test_refinement_uses_few_exact_evaluations(self, monkeypatch):
        # Rank 12, atoms n/7, 256 bits: from its isolating cell each root is
        # about 244 halvings from the target width, so a refinement that
        # falls back to bisection makes at least that many evaluations.
        evaluations, refining = [0], [False]
        sign_at, refine_root = measures._sign_at, measures._refine_root

        def counting_sign_at(coeffs, x):
            evaluations[0] += refining[0]
            return sign_at(coeffs, x)

        def flagged_refine_root(*args):
            refining[0] = True
            try:
                return refine_root(*args)
            finally:
                refining[0] = False

        monkeypatch.setattr(measures, "_sign_at", counting_sign_at)
        monkeypatch.setattr(measures, "_refine_root", flagged_refine_root)
        s = moments_of_atoms([(F(n, 7), 1) for n in range(1, 13)], 25)
        assert recover_measure(s, 256).r == 12
        assert 0 < evaluations[0] <= 24 * 12

    def test_refinement_takes_few_newton_steps(self, monkeypatch):
        # Same measure: Newton steps that land converge quadratically, so about
        # log2(244) of them reach the target; a guess that keeps missing its
        # cell falls back to one halving per step.
        steps = [0]
        newton_guess = measures._newton_guess

        def counting_newton_guess(*args):
            steps[0] += 1
            return newton_guess(*args)

        monkeypatch.setattr(measures, "_newton_guess", counting_newton_guess)
        s = moments_of_atoms([(F(n, 7), 1) for n in range(1, 13)], 25)
        assert recover_measure(s, 256).r == 12
        assert 0 < steps[0] <= 16 * 12

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
            assert p.eval(atom.enclosure.lo) * p.eval(atom.enclosure.hi) < 0

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
                value = p_prev.eval_mpf(lam, 256) * q_r.eval_mpf(lam, 256)
                assert abs(value - target) < mp.mpf("1e-30")

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDFlat):
            recover_measure([1, 0, -1, 0, 0, 0], 128)

    def test_weights_match_per_atom_evaluation_bit_for_bit(self):
        # Coefficients are rounded to mpf once per measure; every weight must
        # still be the residue Q_r/P_r' that Polynomial.eval_mpf gives per atom.
        rng = random.Random(5006)
        for _ in range(12):
            r = rng.randint(1, 8)
            bits = rng.choice([64, 113, 256])
            s = moments_of_atoms(random_atoms(rng, r), 2 * r + 1)
            measure = recover_measure(s, bits)
            p_prime, q_r = poly_P(s, r).derivative(), poly_Q(s, r)
            assert measure.r == r
            for atom in measure.atoms:
                midpoint = atom.enclosure.midpoint
                with mp.workprec(bits):
                    lam = mp.mpf(midpoint.numerator) / midpoint.denominator
                    weight = q_r.eval_mpf(lam, bits) / p_prime.eval_mpf(lam, bits)
                assert atom.location.value == lam
                assert atom.weight.value == weight

    def test_json_shape(self):
        payload = recover_measure([2, 1, 1, 1, 1, 1], 128).to_json()
        assert payload["r"] == 2
        assert len(payload["atoms"]) == 2
        atom = payload["atoms"][0]
        assert set(atom) == {"location", "enclosure", "weight"}


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
    def test_locations_weights_and_residual_bits(self, atoms, bits):
        r = len(atoms)
        s = moments_of_atoms(atoms, 2 * r + 1)
        try:
            measure = recover_measure(s, bits)
        except WeightMismatch as exc:
            # Refused at this precision: the oracle's two formulas must miss the same bound.
            enclosures = isolate_real_roots(poly_P(s, r), bits)
            _, weight, weight_cd = oracle_measure_floats(s.terms, enclosures, bits)[exc.index]
            with mp.workprec(bits):
                w, w_cd = mp.make_mpf(weight), mp.make_mpf(weight_cd)
                assert abs(w - w_cd) > mp.mpf(2) ** -(bits // 2) * max(1, abs(w))
            return
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
