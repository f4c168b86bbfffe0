"""Solvability conditions and the constructive prescribed-determinant solver."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hankelkit import (
    FreePolicy,
    NotSolvable,
    ParseError,
    PrecisionExhausted,
    TargetSequence,
    ZEROS,
    determinant_transform,
    frobenius_check,
    hankel_det,
    solve_inverse,
)

from hankelkit import inverse
from hankelkit.core import HankelScanner
from hankelkit.polynomials import p_family
from oracles import (
    oracle_certify,
    oracle_construct,
    oracle_frobenius_check,
    oracle_hankel_det,
    poly_gcd,
    random_fraction,
    random_sequence,
)


def random_targets(rng, n_top):
    """Prescribed values with random support and random nonzero entries."""
    t = []
    for _ in range(n_top + 1):
        if rng.random() < 0.4:
            t.append(F(0))
        else:
            t.append(F(rng.randint(-9, 9), rng.randint(1, 6)))
    return t


class TestTargetSequence:
    def test_support(self):
        assert TargetSequence.from_values([0, 1, 0, F(-2)]).support == (1, 3)

    def test_json_roundtrip(self):
        t = TargetSequence.from_values(["1/2", "-3", "0"])
        assert t.to_json() == {"target": ["1/2", "-3", "0"]}
        assert TargetSequence.from_json(t.to_json()) == t

    def test_json_validation(self):
        with pytest.raises(ParseError):
            TargetSequence.from_json({"sequence": ["1"]})
        with pytest.raises(ParseError):
            TargetSequence.from_json({"target": "1"})


class TestFrobeniusCheck:
    def test_dense_positive(self):
        report = frobenius_check([2, 1])
        assert report.solvable
        assert report.support == (0, 1)
        assert report.deltas == ()
        assert report.violation is None

    def test_initial_even_block_violation(self):
        report = frobenius_check([0, 1, 0])
        assert not report.solvable
        assert report.violation == (0, 2, F(-1))

    def test_initial_even_block_satisfied(self):
        report = frobenius_check([0, -1, 0])
        assert report.solvable
        assert report.deltas == (F(1),)

    def test_even_gap_pair_condition(self):
        # support pair (0, 2) with gap 2 needs -t_2 t_0 > 0
        assert frobenius_check([1, 0, -2]).solvable
        report = frobenius_check([1, 0, 2])
        assert not report.solvable
        assert report.violation == (1, 2, F(-2))

    def test_odd_gaps_unconstrained(self):
        # gap-1 and gap-3 steps never generate a condition
        report = frobenius_check([5, -7, 0, 0, 3])
        assert report.solvable
        assert report.deltas == ()

    def test_gap_four(self):
        # gap 4: sign (-1)^2 = +1 needs t_b t_a > 0
        assert frobenius_check([1, 0, 0, 0, 2]).solvable
        assert not frobenius_check([1, 0, 0, 0, -2]).solvable

    def test_all_zero_trivially_solvable(self):
        report = frobenius_check([0, 0, 0])
        assert report.solvable
        assert report.support == ()

    def test_delta_index_counts_all_pairs(self):
        # support (0,1,4,6): the even gap is pair 2, reported as delta index 3
        report = frobenius_check([1, 1, 0, 0, 1, 0, 1])
        assert report.support == (0, 1, 4, 6)
        assert not report.solvable
        assert report.deltas == (F(-1),)
        assert report.violation == (3, 2, F(-1))

    def test_json_shape(self):
        payload = frobenius_check([0, 1, 0]).to_json()
        assert payload == {
            "solvable": False,
            "support": [1],
            "deltas": ["-1"],
            "violation": {"delta_index": 0, "gap": 2, "value": "-1"},
        }

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(F(0)),
                st.fractions(min_value=-20, max_value=20, max_denominator=9),
            ),
            max_size=12,
        )
    )
    def test_matches_the_oracle(self, t):
        # Half the entries are 0, so zero runs of every length, leading ones
        # included, and unsolvable targets are common.
        assert frobenius_check(t).to_json() == oracle_frobenius_check(t).to_json()

    def test_necessity_on_realized_profiles(self):
        # determinant profiles of actual sequences always satisfy the conditions
        rng = random.Random(4001)
        for _ in range(60):
            s = random_sequence(rng, rng.randint(1, 9))
            profile = determinant_transform(s)
            assert frobenius_check(profile.d_values).solvable, s


class TestSolveInverseExact:
    def test_dense_two(self):
        sol = solve_inverse([2, 1])
        assert sol.mode == "exact"
        assert sol.terms == (F(2), F(0), F(1, 2))
        assert sol.max_residual == 0

    def test_negative_second(self):
        sol = solve_inverse([1, -1])
        assert sol.terms == (F(1), F(0), F(-1))

    def test_zero_prefix_block(self):
        sol = solve_inverse([0, 0, -1])
        assert sol.terms == (F(0), F(0), F(1), F(0), F(0))
        assert hankel_det(sol.terms, 2) == -1

    def test_all_zero_target(self):
        sol = solve_inverse([0, 0])
        assert sol.mode == "exact"
        assert sol.terms == (F(0), F(0), F(0))
        assert sol.certificate == (F(0), F(0))

    def test_unsolvable_raises(self):
        with pytest.raises(NotSolvable) as err:
            solve_inverse([0, 1, 0])
        assert err.value.exit_code == 3
        assert err.value.params["report"]["violation"]["gap"] == 2

    def test_realized_profiles_roundtrip(self):
        rng = random.Random(4002)
        for _ in range(25):
            s = random_sequence(rng, 2 * rng.randint(1, 4) + 1)
            targets = determinant_transform(s).d_values
            sol = solve_inverse(list(targets))
            if sol.mode != "exact":
                continue
            assert determinant_transform(sol.sequence).d_values == targets

    def test_random_solvable_targets(self):
        rng = random.Random(4003)
        solved = 0
        for _ in range(40):
            t = random_targets(rng, rng.randint(1, 4))
            if not frobenius_check(t).solvable:
                continue
            sol = solve_inverse(t)
            if sol.mode == "exact":
                profile = determinant_transform(sol.sequence)
                assert profile.d_values == tuple(t)
            else:
                assert sol.max_residual < mp.mpf("1e-30")
            solved += 1
        assert solved >= 15

    def test_exact_solutions_match_per_step_rescans(self):
        # Targets with random support, and realized profiles of sparse sequences,
        # whose gap roots are rational more often.
        rng = random.Random(4005)
        compared = 0
        for trial in range(120):
            if trial % 2:
                t = random_targets(rng, rng.randint(1, 6))
            else:
                s = [random_fraction(rng, 3, 2) if rng.random() < 0.5 else F(0) for _ in range(2 * rng.randint(1, 5) + 1)]
                t = list(determinant_transform(s).d_values)
            if not any(t) or not frobenius_check(t).solvable:
                continue
            for policy in (ZEROS, FreePolicy("seed", rng.randrange(2**64))):
                expected = oracle_construct(t, policy)
                if expected is None:
                    continue  # an irrational root: both go to the big-float construction
                sol = solve_inverse(t, free_policy=policy)
                assert sol.mode == "exact"
                assert list(sol.terms) == expected, (t, policy)
                compared += 1
        assert compared >= 60

    def test_solution_length(self):
        for t in ([1], [1, 2, 3], [0, -1, 0, 5]):
            sol = solve_inverse(t)
            assert len(sol.terms) == 2 * (len(t) - 1) + 1

    def test_json_exact(self):
        payload = solve_inverse([2, 1]).to_json()
        assert payload == {
            "solution": ["2", "0", "1/2"],
            "mode": "exact",
            "max_residual": "0",
        }


class TestSolveInverseBigfloat:
    def test_sqrt_two_target(self):
        sol = solve_inverse([1, 0, -2], precision_bits=256)
        assert sol.mode == "bigfloat"
        assert sol.precision_bits == 256
        assert sol.max_residual < mp.mpf("1e-30")
        # s_3 carries the irrational root sqrt(2)
        with mp.workprec(256):
            assert abs(sol.terms[3] - mp.sqrt(2)) < mp.mpf("1e-60")

    def test_initial_block_irrational_root(self):
        # s_1 = (-t_1)^(1/2) = sqrt(3)
        sol = solve_inverse([0, -3, 0], precision_bits=256)
        assert sol.mode == "bigfloat"
        assert sol.max_residual < mp.mpf("1e-30")

    def test_one_construction_per_solve(self, monkeypatch):
        # The roots decide the arithmetic before the construction runs: an
        # irrational one means one big-float run, and no exact run to discard.
        calls = []
        construct = inverse._construct

        def counted(targets, policy, offsets, bits, tol):
            calls.append(bits)
            return construct(targets, policy, offsets, bits, tol)

        monkeypatch.setattr(inverse, "_construct", counted)
        assert solve_inverse([1, 0, -2]).mode == "bigfloat"
        assert calls == [256]
        assert solve_inverse([2, 0, -8]).mode == "exact"
        assert calls == [256, None]

    def test_bigfloat_sequence_property_refused(self):
        sol = solve_inverse([1, 0, -2])
        with pytest.raises(ValueError):
            sol.sequence

    def test_precision_exhausted_is_honest(self):
        with pytest.raises(PrecisionExhausted) as err:
            solve_inverse([1, 0, -2], precision_bits=64, tol="1e-30")
        assert err.value.exit_code == 4

    def test_leading_zero_targets_in_bigfloat_mode(self):
        # Initial block (0, 0, cbrt(2)): the certificate's determinants of the
        # printed solution are exact, so D_0 and D_1, whose matrices have an
        # all-zero first row, come out exactly 0.
        sol = solve_inverse([0, 0, 2], precision_bits=256)
        assert sol.mode == "bigfloat"
        assert sol.certificate[0] == 0
        assert sol.certificate[1] == 0
        assert sol.max_residual < mp.mpf("1e-30")

    def test_dense_support_needs_more_precision(self):
        # Six support points compound the working sequence to ~1e83, so the
        # final rank-one update falls below the 256-bit ulp of the entries:
        # the certificate cannot meet 1e-30 and says so. The same target
        # verifies comfortably once the precision matches the support size.
        t = [F(1, 3), 2, 0, F(-4, 9), F(-8, 7), -1, F(7, 9)]
        with pytest.raises(PrecisionExhausted) as err:
            solve_inverse(t, precision_bits=256)
        assert err.value.exit_code == 4
        sol = solve_inverse(t, precision_bits=1024)
        assert sol.mode == "bigfloat"
        assert sol.precision_bits == 1024
        with mp.workprec(1024):
            assert sol.max_residual < mp.mpf("1e-30")

    def test_json_bigfloat(self):
        payload = solve_inverse([1, 0, -2]).to_json()
        assert payload["mode"] == "bigfloat"
        assert payload["precision_bits"] == 256
        assert len(payload["solution"]) == 5


def exact_mpf(value) -> F:
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * man * F(2) ** exp


class TestCertificate:
    """The certificate proves what to_json prints, in both modes."""

    def test_max_residual_bounds_the_printed_solution(self):
        rng = random.Random(4006)
        fixed = [([0, 0, 2], 256), ([0, -3, 0], 256), ([1, 0, -2], 128)]
        random_cases = (
            (random_targets(rng, rng.randint(1, 5)), rng.choice([128, 256, 512]))
            for _ in range(200)
        )
        checked = 0
        for t, bits in itertools.chain(fixed, random_cases):
            if not any(t) or not frobenius_check(t).solvable:
                continue
            try:
                sol = solve_inverse(t, free_policy=FreePolicy("seed", 4006), precision_bits=bits)
            except PrecisionExhausted:
                continue
            if sol.mode != "bigfloat":
                continue
            printed = [F(v) for v in sol.to_json()["solution"]]
            dets = tuple(oracle_hankel_det(printed, n) for n in range(len(t)))
            assert sol.certificate == dets
            exact = max(abs(d - F(v)) / max(1, abs(F(v))) for d, v in zip(dets, t))
            bound = exact_mpf(sol.max_residual)
            assert exact <= bound
            _, man, exp, bc = sol.max_residual._mpf_
            if man:
                assert bound - exact < F(2) ** (exp + bc - bits), (t, bits)  # one ulp
            else:
                assert exact == 0
            checked += 1
        assert checked >= 40, checked

    @pytest.fixture
    def perturb_first_term(self, monkeypatch):
        construct = inverse._construct

        def perturbed(targets, policy, offsets, bits, tol):
            terms, scanner = construct(targets, policy, offsets, bits, tol)
            terms[0] += F(1, 10**20) if bits is None else mp.mpf("1e-20")
            return terms, scanner

        monkeypatch.setattr(inverse, "_construct", perturbed)

    def test_perturbed_exact_solution_is_an_internal_error(self, perturb_first_term):
        with pytest.raises(RuntimeError, match="internal error"):
            solve_inverse([2, 1])

    def test_perturbed_bigfloat_solution_is_refused(self, perturb_first_term):
        with pytest.raises(PrecisionExhausted) as err:
            solve_inverse([1, 0, -2])
        assert err.value.exit_code == 4


def printed_terms(sol) -> list:
    """The solution as to_json prints it, read back exactly."""
    if sol.mode == "exact":
        return list(sol.terms)
    return [F(Decimal(v)) for v in sol.to_json()["solution"]]


@st.composite
def planted_targets(draw):
    """Solvable targets: n0 leading zeros, up to three support steps of gap
    1-3, and a zero tail.  Each root the construction takes is a drawn
    rational w, or, when irrational is drawn, a root of 2 or 3 (big-float
    mode, unless the root has degree 1)."""
    irrational = draw(st.integers(0, 2)) == 0

    def power(k: int) -> F:
        if irrational:
            return F(draw(st.sampled_from([2, 3])))
        w = F(draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, 2)))
        return w**k

    n0 = draw(st.integers(0, 2))
    t = [F(0)] * n0 + [(-1) ** (n0 * (n0 + 1) // 2) * power(n0 + 1)]
    for g in draw(st.lists(st.integers(1, 3), max_size=3)):
        t += [F(0)] * (g - 1) + [t[-1] * (-1) ** (g * (g - 1) // 2) * power(g)]
    return t + [F(0)] * draw(st.integers(0, 2))


policies = st.one_of(st.just(ZEROS), st.integers(0, 2**64 - 1).map(lambda seed: FreePolicy("seed", seed)))
# Sequences with zero runs anywhere, leading ones included, of odd length 2N + 1.
zero_run_sequences = st.lists(
    st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(1, 2)]), min_size=1, max_size=21
).map(lambda s: s[: len(s) - 1 + len(s) % 2])


class TestWitnessCertificate:
    """The witness certificate against the Bareiss oracle, and against a scan
    whose witnesses are wrong."""

    @settings(max_examples=150, deadline=None)
    @given(planted_targets(), policies)
    def test_solutions_match_the_bareiss_oracle(self, t, policy):
        try:
            sol = solve_inverse(t, free_policy=policy)
        except PrecisionExhausted:
            return  # big-float entries past 256 bits of room: no certificate to compare
        printed = printed_terms(sol)
        dets, residual = oracle_certify(printed, t)
        assert sol.certificate == dets
        assert inverse._certify(printed, TargetSequence(tuple(t))) == (dets, residual)
        if sol.mode == "exact":
            assert residual == 0

    @settings(max_examples=100, deadline=None)
    @given(planted_targets(), policies, st.data())
    def test_changed_solutions_match_the_bareiss_oracle(self, t, policy, data):
        try:
            printed = printed_terms(solve_inverse(t, free_policy=policy))
        except PrecisionExhausted:
            return
        k = data.draw(st.integers(0, len(printed) - 1))
        printed[k] += data.draw(st.sampled_from([F(1), F(-1), F(1, 3), -printed[k]]))
        targets = TargetSequence(tuple(t))
        assert inverse._certify(printed, targets) == oracle_certify(printed, t)

    @settings(max_examples=200, deadline=None)
    @given(zero_run_sequences)
    def test_zero_run_sequences_match_the_bareiss_oracle(self, s):
        targets = TargetSequence((F(0),) * (len(s) // 2 + 1))
        assert inverse._certify(s, targets) == oracle_certify(s, targets.terms)

    def test_long_exact_target(self):
        rng = random.Random(200)
        t = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(24)]
        sol = solve_inverse(t)
        assert sol.mode == "exact"
        assert oracle_certify(sol.terms, t) == (tuple(F(v) for v in t), 0)

    @staticmethod
    def corrupt(scanner, r: int, kind: str) -> None:
        p, factor = list(scanner.p_int[r]), scanner.p_factor[r]
        if kind == "coefficient":
            p[0] += 1
        elif kind == "leading":  # 2 P_r: still orthogonal, leading coefficient 2 D_{r-1}
            factor *= 2
        else:  # degree r - 1
            p = p[:r]
        scanner.p_int[r], scanner.p_factor[r] = tuple(p), factor

    # Full-degree indices 0, 1 and 3 (D_1 = 0), and s_0 != 0 in both.
    EXACT, BIGFLOAT = [2, 0, -2, 3], [1, 0, -2, 3]

    @pytest.mark.parametrize("kind", ["coefficient", "leading", "degree"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_wrong_exact_witness_is_an_internal_error(self, monkeypatch, r, kind):
        construct = inverse._construct

        def corrupted(targets, policy, offsets, bits, tol):
            terms, scanner = construct(targets, policy, offsets, bits, tol)
            scanner.extend(terms[len(scanner.terms) :])
            self.corrupt(scanner, r, kind)
            return terms, scanner

        monkeypatch.setattr(inverse, "_construct", corrupted)
        with pytest.raises(RuntimeError, match=rf"internal error: the scan's P_{r} "):
            solve_inverse(self.EXACT)

    @pytest.mark.parametrize("kind", ["coefficient", "leading", "degree"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_wrong_bigfloat_witness_is_an_internal_error(self, monkeypatch, r, kind):
        corrupt = self.corrupt

        class CorruptedScanner(HankelScanner):
            def extend(self, values):
                super().extend(values)
                if len(self.terms) == 2 * len(TestWitnessCertificate.BIGFLOAT) - 1:
                    corrupt(self, r, kind)  # the certificate's scan of the printed decimals
                return self

        assert solve_inverse(self.BIGFLOAT).mode == "bigfloat"
        monkeypatch.setattr(inverse, "HankelScanner", CorruptedScanner)
        with pytest.raises(RuntimeError, match=rf"internal error: the scan's P_{r} "):
            solve_inverse(self.BIGFLOAT)

    def test_scan_determinants_are_not_read(self, monkeypatch):
        construct = inverse._construct

        def wrong_values(targets, policy, offsets, bits, tol):
            terms, scanner = construct(targets, policy, offsets, bits, tol)
            scanner.extend(terms[len(scanner.terms) :])
            scanner.d_values[:] = [d + 1 for d in scanner.d_values]
            return terms, scanner

        monkeypatch.setattr(inverse, "_construct", wrong_values)
        assert solve_inverse(self.EXACT).certificate == tuple(F(v) for v in self.EXACT)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_changed_exact_term_is_an_internal_error(self, monkeypatch, k):
        # The scan took s_0..s_5 before the change; s_6 only enters D_3.
        construct = inverse._construct

        def changed(targets, policy, offsets, bits, tol):
            terms, scanner = construct(targets, policy, offsets, bits, tol)
            terms[k] += 1
            return terms, scanner

        monkeypatch.setattr(inverse, "_construct", changed)
        with pytest.raises(RuntimeError, match="internal error"):
            solve_inverse(self.EXACT)


class TestFreePolicy:
    def test_parse(self):
        assert FreePolicy.parse("zeros") == ZEROS
        assert FreePolicy.parse("seed:42") == FreePolicy("seed", 42)
        with pytest.raises(ParseError):
            FreePolicy.parse("seed:x")
        with pytest.raises(ParseError):
            FreePolicy.parse("seed:-1")
        with pytest.raises(ParseError):
            FreePolicy.parse("random")

    def test_seed_must_fit_in_64_bits(self):
        assert FreePolicy.parse(f"seed:{2**64 - 1}") == FreePolicy("seed", 2**64 - 1)
        with pytest.raises(ParseError):
            FreePolicy.parse(f"seed:{2**64}")

    def test_zeros_stream(self):
        stream = ZEROS.stream()
        assert [next(stream) for _ in range(3)] == [F(0), F(0), F(0)]

    def test_seed_stream_deterministic(self):
        a = FreePolicy("seed", 7).stream()
        b = FreePolicy("seed", 7).stream()
        assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]

    def test_certified_determinants_independent_of_policy(self):
        rng = random.Random(4004)
        checked = 0
        for _ in range(30):
            t = random_targets(rng, rng.randint(1, 4))
            if not frobenius_check(t).solvable:
                continue
            solutions = []
            for policy in (ZEROS, FreePolicy("seed", 1), FreePolicy("seed", 2)):
                sol = solve_inverse(t, free_policy=policy)
                if sol.mode != "exact":
                    break
                solutions.append(determinant_transform(sol.sequence).d_values)
            else:
                assert all(d == tuple(t) for d in solutions)
                checked += 1
        assert checked >= 10


def rational_planted_target(rng) -> list:
    """A solvable target whose roots are all rational: n0 leading zeros, one to
    four support steps of gap 1-4, each realized by a drawn w^g, and a zero tail."""

    def power(k: int) -> F:
        return F(rng.randint(1, 3) * rng.choice([1, -1]), rng.randint(1, 2)) ** k

    n0 = rng.randint(0, 3)
    t = [F(0)] * n0 + [(-1) ** (n0 * (n0 + 1) // 2) * power(n0 + 1)]
    for _ in range(rng.randint(1, 4)):
        g = rng.randint(1, 4)
        t += [F(0)] * (g - 1) + [t[-1] * (-1) ** (g * (g - 1) // 2) * power(g)]
    return t + [F(0)] * rng.randint(0, 2)


class TestZeroBlockCoprimality:
    def test_full_degree_p_has_a_coprime_nonzero_predecessor(self):
        # The structural claim: deg P_n = n >= 1 gives P_{n-1} != 0 with no zero
        # in common with P_n.  On solutions with zero blocks P_{n-1} is often of
        # degree below n - 1, which no generic sequence shows.
        rng = random.Random(2901)
        full = short = 0
        for i in range(60):
            t = rational_planted_target(rng)
            policy = ZEROS if i % 2 else FreePolicy("seed", rng.getrandbits(64))
            sol = solve_inverse(t, free_policy=policy)
            assert sol.mode == "exact"
            family = p_family(sol.terms, len(t) - 1)
            for n in range(1, len(family)):
                if family[n].degree != n:
                    continue
                assert not family[n - 1].is_zero(), (t, policy, n)
                assert poly_gcd(family[n], family[n - 1]).degree == 0, (t, policy, n)
                full += 1
                short += family[n - 1].degree < n - 1
        assert short >= 100, (full, short)  # 134 of 186 with this seed
