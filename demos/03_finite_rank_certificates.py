"""Finite-rank certificates: when is a Hankel operator a finite-rank one?

A sequence has Hankel rank r exactly when it satisfies a linear recurrence of
length r (equivalently, its generating series is rational with denominator
degree r).  Determinant vanishing alone is NOT sufficient evidence on a
finite prefix: the certificate here always confirms a candidate rank through
an explicit recurrence before claiming it, and `finite_rank_checks` checks a
claimed rank by five routes: one elimination and four readings of one scan.
"""

from fractions import Fraction as F

from hankelkit import (
    approx_sequence,
    characteristic,
    degree_profile,
    expand_rational,
    finite_rank_checks,
    gap_determinant,
    growth_estimate,
    hankel_det,
    hankel_rank,
    rational_form,
)


def show_structure(label: str, s: list) -> None:
    report = degree_profile(s)
    print(f"\n{label}: full-degree n = {report.full_degree_indices}, "
          f"zero blocks {report.zero_blocks}")
    for k, gamma in report.gammas:
        print(f"  P_(b-1) = gamma * P_a with gamma = {gamma} at block {k}")
    for step in report.blocks:
        print(f"  block {step.k}: a = {step.a}, beta = {step.beta}, consistent {step.consistent}")
    assert report.anomalies == ()


def main() -> None:
    # Fibonacci: rank 2, denominator 1 - x - x^2 (here in the monic x-form).
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    cert = hankel_rank(fib)
    rf = rational_form(fib, cert.rank)
    print("Fibonacci prefix:", fib)
    print(f"  verdict {cert.verdict}, rank {cert.rank}, witness d = "
          f"{[str(v) for v in cert.witness.d]}")
    print(f"  generating data: q(x) = {rf.q}, p(x) = {rf.p}")
    assert cert.verdict == "FiniteRank" and cert.rank == 2
    assert expand_rational(rf, len(fib) - 1).terms == tuple(F(v) for v in fib)

    # Vanishing determinants can LIE on a prefix: (1, 2, 4, 8, 17) has
    # D_1 = D_2 = 0, which looks like the geometric sequence pattern, yet no
    # length-1 recurrence reproduces the prefix (17 != 16).  The certificate
    # refuses FiniteRank here.
    tricky = [1, 2, 4, 8, 17]
    cert = hankel_rank(tricky)
    print(f"\n(1,2,4,8,17): D_n = {[str(v) for v in cert.d_profile.d_values]}")
    print(f"  verdict {cert.verdict} {cert.rank} -- vanishing determinants alone"
          " are not believed")
    assert cert.verdict == "RankAtLeast"

    # The five-way cross-check for a planted rank-3 recurrence.
    rng_free = [F(2), F(-1), F(1, 3)]
    s = [F(1), F(0), F(2)]
    while len(s) < 12:
        s.append(sum(c * s[len(s) - 3 + k] for k, c in enumerate(rng_free)))
    checks = finite_rank_checks(s, 3)
    print("\nplanted rank 3:", {k: v for k, v in checks.items()})
    assert all(checks.values())

    # Approximating sequences: the rank-r extension of a prefix copies
    # s_0..s_{2r-1} and continues by the fitted recurrence.  The first index
    # where it disagrees with the true sequence measures how far the
    # sequence is from rank r.
    s = [F(2), F(1), F(1, 2), F(1, 4), F(1, 8), F(7), F(0), F(0), F(0)]
    sigma = approx_sequence(s, 1, len(s) - 1)
    chi = characteristic(s, 1)
    print(f"\ns       = {[str(v) for v in s]}")
    print(f"sigma^1 = {[str(v) for v in sigma.terms]}")
    print(f"characteristic(s, 1) = {chi} (first mismatch index 5 minus 2r)")
    # The mismatch value controls the whole next determinant block exactly:
    # D_1 = D_2 = D_3 = 0, then D_4 is a signed power of the mismatch.
    d4 = gap_determinant(s, 1, 3)
    print(f"gap formula gives D_4 = {d4} (equals det H_4 = {hankel_det(s, 4)})")
    assert d4 == hankel_det(s, 4)

    # Degree structure of the P_n family: full-degree indices, zero blocks,
    # the proportionality factors linking polynomials across a block, and the
    # block three-term recurrence p_(n_(k+1)) = a_k p_(n_k) - beta_k p_(n_(k-1))
    # between the monic full-degree polynomials.
    show_structure("sparse (1,0,0,0,1,0,0,0)", [F(1), F(0), F(0), F(0), F(1), F(0), F(0), F(0)])
    # D_2 = D_3 = 0 here: after the gap, a_2 is cubic.
    show_structure("(2,1,1,1,1,1,3,0,1,4,1,1)", [F(v) for v in (2, 1, 1, 1, 1, 1, 3, 0, 1, 4, 1, 1)])

    # Growth estimate: |s_k|^(1/k) over the tail bounds the largest root
    # magnitude of the denominator for genuinely finite-rank sequences.
    est = growth_estimate([F(2) ** k for k in range(10)], 64)
    print(f"\ngrowth of 2^k tail: about {float(est.value):.6f}")


if __name__ == "__main__":
    main()
