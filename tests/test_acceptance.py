"""Acceptance gate: eleven end-to-end criteria, one test (and one verbose
pass/fail line) each.

Every criterion is self-contained with a fixed seed and pinned tolerances;
exact claims are bit-exact Fraction comparisons, approximate claims use the
constants below.  Each test prints a one-line quantitative summary (visible
under ``pytest -s``); the per-test PASSED/FAILED line of ``pytest -v`` is the
official verdict.
"""

import random
from fractions import Fraction as F

import pytest
from mpmath import mp

from hankelkit import (
    ExceedsHorizon,
    JacobiCoeffs,
    NotSolvable,
    binomial_transform,
    cd_identity_residual,
    characteristic,
    determinant_transform,
    expand_rational,
    finite_rank_checks,
    frobenius_check,
    gap_determinant,
    hankel_det,
    hankel_rank,
    jacobi_from_moments,
    kronecker_residual,
    moments_from_jacobi,
    moments_of_atoms,
    poly_P,
    poly_Q,
    rational_form,
    recover_measure,
    recurrence_coeffs,
    solve_inverse,
    verify_moments,
)
from hankelkit.approximants import _extension_values
from hankelkit.core import as_moments
from hankelkit.polynomials import ZERO

from oracles import eval_mpf, oracle_hankel_det, random_fraction, random_nonzero_fraction, random_sequence
from test_approximants import random_recurrent
from test_measures import random_atoms

# Pinned tolerances (absolute unless stated otherwise)
PRECISION_BITS = 256
TOL_SOLVE_RESIDUAL = "1e-30"  # bigfloat inverse solutions, relative per target
TOL_ATOM_RECOVERY = "1e-20"  # recovered locations and weights vs ground truth
TOL_MOMENT_RESIDUAL = "1e-18"  # certified moment reproduction bound
TOL_WEIGHT_AGREEMENT = "1e-30"  # residue vs Christoffel-Darboux weights, relative


def test_criterion_01_determinant_oracle_equivalence():
    """500 random rational sequences: elimination equals cofactor expansion."""
    rng = random.Random(11001)
    for i in range(500):
        n = rng.randint(0, 6)
        s = random_sequence(rng, 2 * n + 1)
        assert hankel_det(s, n) == oracle_hankel_det(s, n), (i, s)
    print("CRITERION 1: PASS (500/500 bit-exact, n <= 6)")


def test_criterion_02_zero_prefix_theorem_both_directions():
    """Zero prefix forces D_n = (-1)^{n(n+1)/2} s_n^{n+1}; solving the
    corresponding target profile reconstructs the zero prefix."""
    rng = random.Random(11002)
    cases = 0
    for n in range(6):
        for _ in range(20):
            sign = -1 if (n * (n + 1) // 2) % 2 else 1
            # direct: random tail behind the pivot changes nothing
            s_n = random_nonzero_fraction(rng)
            tail = [random_fraction(rng) for _ in range(n)]
            s = [F(0)] * n + [s_n] + tail
            for k in range(n):
                assert hankel_det(s, k) == 0
            assert hankel_det(s, n) == sign * s_n ** (n + 1)
            # converse: prescribe (0,...,0,t_n) and demand the zero prefix back
            w = random_nonzero_fraction(rng)
            t_n = sign * w ** (n + 1)  # rational root exists; exact mode
            if (n + 1) % 2 == 0 and ((-1 if ((n + 1) // 2) % 2 else 1) * t_n) <= 0:
                t_n = -t_n
            solution = solve_inverse([F(0)] * n + [t_n])
            assert solution.mode == "exact"
            assert solution.terms[:n] == (F(0),) * n
            assert hankel_det(solution.terms, n) == t_n
            cases += 2
    print(f"CRITERION 2: PASS ({cases} directed checks, n <= 5)")


def test_criterion_03_kronecker_and_cd_identities():
    """Exact zero residuals for both determinant-polynomial identities."""
    rng = random.Random(11003)
    kron = 0
    while kron < 200:
        r = rng.randint(1, 5)
        s = random_sequence(rng, 2 * r + 1)
        assert kronecker_residual(s, r) == 0
        kron += 1
    cd = 0
    while cd < 200:
        r = rng.randint(1, 5)
        s = random_sequence(rng, 2 * r)
        if any(hankel_det(s, n) == 0 for n in range(r)):
            continue
        assert cd_identity_residual(s, r) == ZERO
        cd += 1
    print("CRITERION 3: PASS (200 + 200 exact zero residuals, r <= 5)")


def test_criterion_04_gap_formula_and_characteristic():
    """Planted gaps d <= 3: closed-form determinant, characteristic index,
    and the term-agreement/vanishing-determinant equivalence both ways."""
    rng = random.Random(11004)
    for i in range(200):
        r = rng.randint(1, 3)
        d = rng.randint(0, 3)
        s = random_recurrent(rng, r, 2 * (r + d) + 1)
        if i % 3 == 0:
            s[2 * r + d] += random_nonzero_fraction(rng)
        elif i % 3 == 1:
            s[2 * r + rng.randint(0, d)] += random_nonzero_fraction(rng)
        # closed form equals the direct determinant whenever its hypothesis holds
        seq = as_moments(s)
        rec = recurrence_coeffs(seq, r)
        sigma = _extension_values(seq, rec, 2 * (r + d) + 1)
        if all(seq[2 * r + j] == sigma[2 * r + j] for j in range(d)):
            assert gap_determinant(s, r, d) == hankel_det(s, r + d)
        # characteristic = min{m : D_{r+m} != 0} when that index is in horizon
        horizon_m = (len(s) - 1) // 2 - r
        first_nonzero = next(
            (m for m in range(horizon_m + 1) if hankel_det(s, r + m) != 0), None
        )
        verdict = characteristic(s, r)
        if first_nonzero is not None:
            assert verdict == first_nonzero
        else:
            assert isinstance(verdict, ExceedsHorizon) or verdict > horizon_m
        # the equivalence, both directions, for every prefix length j <= d
        for j in range(d + 1):
            agree = all(seq[2 * r + i] == sigma[2 * r + i] for i in range(j))
            vanish = all(hankel_det(s, r + i) == 0 for i in range(j))
            assert agree == vanish, (s, r, j)
    print("CRITERION 4: PASS (200 planted instances, d <= 3, equivalence 2-way)")


def test_criterion_05_finite_rank_four_way_consistency():
    """Planted rank <= 4 (atom measures and random recurrences): every
    checker agrees and the rational form re-expands bit-exactly."""
    rng = random.Random(11005)
    for i in range(100):
        r = rng.randint(1, 4)
        if i % 2 == 0:
            s = list(moments_of_atoms(random_atoms(rng, r), 2 * r + 4).terms)
        else:
            s = random_recurrent(rng, r, 2 * r + 5)
        checks = finite_rank_checks(s, r)
        assert all(checks.values()), (s, checks)
        cert = hankel_rank(s)
        assert cert.verdict == "FiniteRank" and cert.rank == r
        expanded = expand_rational(rational_form(s, r), len(s) - 1)
        assert expanded.terms == tuple(F(v) for v in s)
    print("CRITERION 5: PASS (100 planted ranks <= 4, all checkers unanimous)")


def _expected_first_violation(t):
    """Independent re-derivation of the first failing sign condition.

    Returns None when solvable, else the delta index (0 = initial block,
    k+1 = support pair k) of the first nonpositive product.
    """
    support = [n for n, v in enumerate(t) if v != 0]
    if not support:
        return None
    n0 = support[0]
    if (n0 + 1) % 2 == 0:
        if ((-1) ** ((n0 + 1) // 2)) * t[n0] <= 0:
            return 0
    for k in range(len(support) - 1):
        a, b = support[k], support[k + 1]
        gap = b - a
        if gap % 2 == 0 and ((-1) ** (gap // 2)) * t[b] * t[a] <= 0:
            return k + 1
    return None


def _random_target(rng, forced_gap=None):
    """A random target with at most four support points.

    Each support step of the constructive solver compounds the magnitude of
    the working sequence, so the support size bounds the precision a
    certificate needs; four points leave a 256-bit certificate orders of
    magnitude of headroom (larger supports need proportionally more bits --
    see test_inverse.py::test_dense_support_needs_more_precision).

    Half the draws whose forced gap is 1 or absent are dense heads (support
    0..k): those need no root extractions, so they exercise exact mode. The
    rest are random walks with gaps in 1..4, which usually force irrational
    roots and hence bigfloat mode.
    """
    if forced_gap in (None, 1) and rng.random() < 0.5:
        k = rng.randint(1 if forced_gap == 1 else 0, 3)
        positions = list(range(k + 1))
    else:
        start = rng.randint(0, 3)
        gaps = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        if forced_gap is not None:
            if gaps:
                gaps[rng.randrange(len(gaps))] = forced_gap
            else:
                gaps = [forced_gap]
        positions = [start]
        for g in gaps:
            positions.append(positions[-1] + g)
    t = [F(0)] * (positions[-1] + 1 + rng.randint(0, 2))
    for n in positions:
        t[n] = random_nonzero_fraction(rng)
    return t


def test_criterion_06_inverse_roundtrip_and_rejection():
    """300 sign-valid targets solved (exact bit-exact; bigfloat residual
    <= 1e-30 at 256 bits) with gaps {1,2,3,4} covered; 300 sign-invalid
    targets rejected at the correct first violation."""
    rng = random.Random(11006)
    valid = invalid = exact_count = bigfloat_count = 0
    gaps_seen = set()
    while valid < 300:
        forced = rng.choice([None, 1, 2, 3, 4])
        t = _random_target(rng, forced_gap=forced)
        if _expected_first_violation(t) is not None:
            continue
        support = [n for n, v in enumerate(t) if v != 0]
        gaps_seen.update(b - a for a, b in zip(support, support[1:]))
        solution = solve_inverse(t, precision_bits=PRECISION_BITS)
        if solution.mode == "exact":
            profile = determinant_transform(solution.sequence)
            assert profile.d_values == tuple(t)
            exact_count += 1
        else:
            assert solution.max_residual <= mp.mpf(TOL_SOLVE_RESIDUAL)
            bigfloat_count += 1
        valid += 1
    assert {1, 2, 3, 4} <= gaps_seen
    assert exact_count >= 100
    assert bigfloat_count >= 30  # irrational roots genuinely exercised
    while invalid < 300:
        t = _random_target(rng)
        expected = _expected_first_violation(t)
        if expected is None:
            continue
        report = frobenius_check(t)
        assert not report.solvable
        assert report.violation is not None and report.violation[0] == expected
        with pytest.raises(NotSolvable):
            solve_inverse(t)
        invalid += 1
    print(
        f"CRITERION 6: PASS (300 solved: {exact_count} exact / {bigfloat_count} "
        f"bigfloat <= {TOL_SOLVE_RESIDUAL}; 300 rejected at predicted index)"
    )


def test_criterion_07_necessity_closure():
    """500 random sequences: realized determinant profiles always pass."""
    rng = random.Random(11007)
    for _ in range(500):
        s = random_sequence(rng, rng.randint(1, 11))
        profile = determinant_transform(s)
        report = frobenius_check(profile.d_values)
        assert report.solvable, (s, report)
    print("CRITERION 7: PASS (500/500 profiles satisfy the sign conditions)")


def test_criterion_08_construct_then_recover_measures():
    """100 random discrete measures: atoms and weights recovered to 1e-20,
    certified moment residual <= 1e-18, weight formulas agree to 1e-30."""
    rng = random.Random(11008)
    for _ in range(100):
        r = rng.randint(1, 5)
        atoms = random_atoms(rng, r, span=5)
        s = moments_of_atoms(atoms, 2 * r + 2)
        measure = recover_measure(s, PRECISION_BITS)
        assert measure.r == r
        p_r, q_r = poly_P(s, r), poly_Q(s, r)
        p_prime = p_r.derivative()
        d = [F(1)] + list(determinant_transform(s).d_values)
        p_family = [poly_P(s, k) for k in range(r)]
        with mp.workprec(PRECISION_BITS):
            tol_atoms = mp.mpf(TOL_ATOM_RECOVERY)
            tol_weights = mp.mpf(TOL_WEIGHT_AGREEMENT)
            for atom, (x, w) in zip(measure.atoms, atoms):
                assert abs(atom.location.value - x) <= tol_atoms
                assert abs(atom.weight.value - w) <= tol_atoms
                # dual-route weights, recomputed here rather than trusted
                lam = atom.location.value
                w_residue = eval_mpf(q_r, lam, PRECISION_BITS) / eval_mpf(p_prime, lam, PRECISION_BITS)
                cd_sum = mp.mpf(0)
                for k in range(r):
                    value = eval_mpf(p_family[k], lam, PRECISION_BITS)
                    num = d[k + 1] * d[k]
                    cd_sum += value * value * mp.mpf(num.denominator) / mp.mpf(
                        num.numerator
                    )
                w_cd = 1 / cd_sum
                assert abs(w_residue - w_cd) <= tol_weights * max(
                    mp.mpf(1), abs(w_residue)
                )
        bound = verify_moments(measure, s, precision_bits=PRECISION_BITS)
        assert bound.value <= mp.mpf(TOL_MOMENT_RESIDUAL)
    print(
        "CRITERION 8: PASS (100 measures r <= 5: atoms/weights <= "
        f"{TOL_ATOM_RECOVERY}, residual <= {TOL_MOMENT_RESIDUAL}, weights agree "
        f"<= {TOL_WEIGHT_AGREEMENT})"
    )


def test_criterion_09_binomial_transform_invariance():
    """200 random sequences: the determinant profile survives the transform."""
    rng = random.Random(11009)
    for _ in range(200):
        s = random_sequence(rng, rng.randint(1, 9))
        transformed = binomial_transform(s)
        assert (
            determinant_transform(s).d_values
            == determinant_transform(transformed).d_values
        )
    print("CRITERION 9: PASS (200/200 determinant profiles invariant)")


def test_criterion_10_jacobi_roundtrip():
    """Random three-term data (b_n != 0), N <= 5: moments and back, bit-exact."""
    rng = random.Random(11010)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = tuple(random_fraction(rng) for _ in range(n))
        b = tuple(random_nonzero_fraction(rng) for _ in range(n))
        coeffs = JacobiCoeffs(a, b)
        back = jacobi_from_moments(moments_from_jacobi(coeffs), n)
        assert back == coeffs
    print("CRITERION 10: PASS (100 roundtrips, N <= 5, bit-exact)")


def test_criterion_11_micro_facts():
    """Geometric sequences have unit profile and rank one; the (0,1,0) target
    is rejected; alternating-pair sign patterns are always solvable."""
    for a in (F(-2), F(1, 3), F(5)):
        s = [a**n for n in range(8)]
        profile = determinant_transform(s)
        assert profile.d_values == (F(1),) + (F(0),) * (len(profile.d_values) - 1)
        cert = hankel_rank(s)
        assert cert.verdict == "FiniteRank" and cert.rank == 1
    with pytest.raises(NotSolvable):
        solve_inverse([0, 1, 0])
    assert not frobenius_check([0, 1, 0]).solvable
    rng = random.Random(11011)
    solved = 0
    for _ in range(50):
        length = rng.randint(1, 7)
        t = []
        for n in range(length):
            sign = -1 if (n * (n + 1) // 2) % 2 else 1
            magnitude = rng.choice([F(0), F(rng.randint(1, 9), rng.randint(1, 6))])
            t.append(sign * magnitude)
        assert frobenius_check(t).solvable
        if any(v != 0 for v in t) and solved < 10:
            solution = solve_inverse(t, precision_bits=PRECISION_BITS)
            if solution.mode == "exact":
                assert determinant_transform(solution.sequence).d_values == tuple(t)
            else:
                assert solution.max_residual <= mp.mpf(TOL_SOLVE_RESIDUAL)
            solved += 1
    print("CRITERION 11: PASS (geometric profiles, rejection, sign-pattern family)")
