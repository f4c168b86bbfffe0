"""The inverse problem: prescribe every Hankel determinant, zeros included.

Given targets t_0..t_N, when does a real sequence exist with D_n = t_n for
all n <= N?  The answer is a family of sign conditions on consecutive nonzero
targets: for each pair t_a, t_b of neighbours in the support with even gap
g = b - a, the product (-1)^(g/2) t_a t_b must be positive (and similarly for
an initial block of zeros).  The conditions are necessary and sufficient, and
the solver is constructive: it returns a sequence together with a verified
certificate, never an unchecked answer.
"""

from fractions import Fraction as F

from mpmath import mp

from hankelkit import (
    NotSolvable,
    PrecisionExhausted,
    FreePolicy,
    determinant_transform,
    frobenius_check,
    solve_inverse,
)


def main() -> None:
    # Sign conditions.  (1, 0, 2) needs (-1)^1 t_0 t_2 > 0: impossible.
    for t in ([1, 0, -2], [1, 0, 2]):
        report = frobenius_check(t)
        status = "solvable" if report.solvable else f"violation {report.violation}"
        print(f"t = {t}: {status}")
    assert frobenius_check([1, 0, -2]).solvable
    assert not frobenius_check([1, 0, 2]).solvable

    # Exact mode: every root the construction needs is rational, so the
    # sequence is rational and the certificate is bit-exact.
    sol = solve_inverse([F(2), F(1)])
    print(f"\nsolve_inverse([2, 1])  -> s = {[str(v) for v in sol.terms]} "
          f"({sol.mode} mode)")
    assert determinant_transform(sol.sequence).d_values == (F(2), F(1))

    # Bigfloat mode: t = (1, 0, -2) forces s_3 = sqrt(2).  The solver reruns
    # the same construction in 256-bit arithmetic, then computes every D_n
    # exactly from the decimals it prints and certifies the residual
    # max_n |D_n - t_n| / max(1, |t_n|), rounded up.
    sol = solve_inverse([1, 0, -2], precision_bits=256)
    with mp.workprec(256):
        print(f"\nsolve_inverse([1, 0, -2]) -> mode {sol.mode}, "
              f"s_3 = {mp.nstr(sol.terms[3], 20)} (= sqrt 2), "
              f"residual {mp.nstr(sol.max_residual, 3)}")
        assert sol.max_residual < mp.mpf("1e-30")

    # Free entries are policy-driven and reproducible: "zeros" (default) or
    # "seed:<u64>" for a deterministic pseudorandom stream.  The prescribed
    # determinants are met either way.
    seeded = solve_inverse([F(2), F(1)], free_policy=FreePolicy.parse("seed:7"))
    assert determinant_transform(seeded.sequence).d_values == (F(2), F(1))
    print(f"\nseed:7 policy     -> s = {[str(v) for v in seeded.terms]}")

    # Unsolvable targets raise with the machine-readable report attached.
    try:
        solve_inverse([1, 0, 2])
    except NotSolvable as exc:
        print(f"\n[1, 0, 2] rejected: delta index {exc.report.violation[0]}, "
              f"gap {exc.report.violation[1]}, value {exc.report.violation[2]}")

    # Precision is a budget, not a promise.  Each support step of the
    # construction compounds the magnitude of the working entries, so dense
    # supports need more bits; when the certificate cannot meet the
    # tolerance at the configured precision the solver says so rather than
    # returning an unverified sequence.
    dense = [F(1, 3), 2, 0, F(-4, 9), F(-8, 7), -1, F(7, 9)]
    try:
        solve_inverse(dense, precision_bits=256)
    except PrecisionExhausted as exc:
        print(f"\ndense target at 256 bits: {exc}")
    sol = solve_inverse(dense, precision_bits=1024)
    with mp.workprec(1024):
        print(f"same target at 1024 bits: residual {mp.nstr(sol.max_residual, 3)}")
        assert sol.max_residual < mp.mpf("1e-30")


if __name__ == "__main__":
    main()
