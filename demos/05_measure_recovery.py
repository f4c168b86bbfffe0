"""Recovering a discrete measure from its moments, with certificates.

If s_n = sum_k w_k x_k^n for finitely many atoms x_k with positive weights
w_k, then the Hankel determinants are positive up to the number of atoms and
zero beyond -- and that shape is also sufficient: from such a prefix the
atoms are the roots of P_r and the weights are the residues Q_r / P_r'.
Root enclosures are exact rational intervals (Sturm isolation, then an
approximate root that exact signs of P_r at the ends of its target cell
confirm).  The atoms here are rational, so recovery is exact: each location
is a proved root of P_r, each weight an exact rational, and the moment
residual is computed exactly -- it is 0.  (Irrational atoms get weights from
two formulas that must agree, and an outward-rounded interval residual.)
"""

from fractions import Fraction as F

from mpmath import mp

from hankelkit import (
    NotPSDFlat,
    cd_identity_residual,
    isolate_real_roots,
    moments_of_atoms,
    poly_P,
    psd_finite_rank_check,
    recover_measure,
    verify_moments,
)


def main() -> None:
    # Forward direction: moments of mu = 3*delta_{-1/2} + (1/4)*delta_{5/3}.
    atoms = [(F(-1, 2), F(3)), (F(5, 3), F(1, 4))]
    s = moments_of_atoms(atoms, 6)
    print("moments:", [str(v) for v in s.terms])

    # The determinant shape certifies "positive measure with two atoms".
    r = psd_finite_rank_check(s)
    print(f"psd_finite_rank_check: positive flat profile of rank r = {r}")
    assert r == 2

    # The atoms are the roots of P_2; isolation gives disjoint rational
    # enclosures of width ~2^-256 before any floating point enters.
    p2 = poly_P(s, 2)
    enclosures = isolate_real_roots(p2, 256)
    print(f"P_2(x) = {p2}")
    for box in enclosures:
        # Endpoints are exact rationals (huge denominators); show them rounded.
        print(f"  root in ({float(box.lo):.15f} .. {float(box.hi):.15f}], "
              f"width {float(box.width):.2e}")

    # Full recovery: locations, weights, and certificates in one call.
    measure = recover_measure(s, 256)
    for atom in measure.atoms:
        print(f"atom at {atom.location.to_str()[:24]}...  "
              f"weight {atom.weight.to_str()[:24]}...")
    with mp.workprec(256):
        for atom, (x, w) in zip(measure.atoms, atoms):
            assert abs(atom.location.value - x) < mp.mpf("1e-70")
            assert abs(atom.weight.value - w) < mp.mpf("1e-70")
    print("locations and weights match the constructed measure to < 1e-70")

    # verify_moments re-synthesizes every moment from the recovered measure,
    # here exactly from the rational atoms: the returned bound is a certified
    # upper bound on max_n |sum_k w_k x_k^n - s_n|, not an estimate.
    bound = verify_moments(measure, s)
    with mp.workprec(256):
        print(f"certified moment residual bound: {mp.nstr(bound.value, 3)}")
        assert bound.value < mp.mpf("1e-50")

    # The square-sum identity behind the weight formula holds exactly at the
    # polynomial level for any quasi-definite prefix.
    residual = cd_identity_residual(s, r)
    print(f"square-sum identity residual polynomial: {residual}")
    assert residual.is_zero()

    # Sequences that merely look flat are rejected with the reason.
    try:
        psd_finite_rank_check([1, 2, 4, 8, 17])
    except NotPSDFlat as exc:
        print(f"(1,2,4,8,17) rejected: {exc}")


if __name__ == "__main__":
    main()
