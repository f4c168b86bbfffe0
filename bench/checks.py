"""Output checkers computed apart from hankelkit.

Each ``check_*`` function takes a document's input and the JSON object the
CLI printed for it, recomputes what it needs with code of its own, and raises
:class:`CheckError` on the first disagreement.  The building blocks are

- an exact determinant by plain Gaussian elimination over ``Fraction``;
- the moment functional ``L`` applied to returned polynomials;
- the monic three-term recurrence built from returned ``a``, ``b``;
- an mpmath recomputation of determinants at a higher precision than the run.

Decimal strings from the CLI carry the run's full precision (77 digits at
256 bits), so they are read exactly as ``Fraction`` or, for the mpmath
recomputation, at the recomputation's precision; mpmath's default 53 bits
would make a correct 77-digit weight look wrong at 1e-20.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import mpmath


class CheckError(AssertionError):
    """A CLI output disagrees with the independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def fractions(values: Iterable) -> list[Fraction]:
    return [Fraction(v) for v in values]


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction (row swaps on zero pivots)."""
    m = [list(r) for r in rows]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            result = -result
        pk = m[k][k]
        result *= pk
        for i in range(k + 1, n):
            factor = m[i][k] / pk
            if factor:
                row_i, row_k = m[i], m[k]
                for j in range(k + 1, n):
                    row_i[j] -= factor * row_k[j]
    return result


def leading_minors(s: Sequence[Fraction], n_max: int) -> list[Fraction] | None:
    """D_0..D_{n_max} from one elimination of H_{n_max} without row swaps.

    The k-th pivot is D_k / D_{k-1}, so the running product is D_k.  Returns
    None when a pivot vanishes (some D_k = 0), where callers fall back to det().
    """
    m = [[s[i + j] for j in range(n_max + 1)] for i in range(n_max + 1)]
    minors = []
    acc = Fraction(1)
    for k in range(n_max + 1):
        pk = m[k][k]
        if pk == 0:
            return None
        acc *= pk
        minors.append(acc)
        for i in range(k + 1, n_max + 1):
            factor = m[i][k] / pk
            if factor:
                row_i, row_k = m[i], m[k]
                for j in range(k + 1, n_max + 1):
                    row_i[j] -= factor * row_k[j]
    return minors


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """The solution of a nonsingular square system by Gauss-Jordan elimination over Fraction."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(m)
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[pivot] = m[pivot], m[k]
        pk = m[k][k]
        m[k] = [x / pk for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                factor = m[i][k]
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    return [row[n] for row in m]


def hankel_dets(s: Sequence[Fraction]) -> list[Fraction]:
    """Every computable D_n (2n <= M) of the prefix s_0..s_M."""
    n_max = (len(s) - 1) // 2
    minors = leading_minors(s, n_max)
    if minors is not None:
        return minors
    return [det([[s[i + j] for j in range(n + 1)] for i in range(n + 1)]) for n in range(n_max + 1)]


def shifted_det(s: Sequence[Fraction], n: int) -> Fraction:
    """D'_{n+1}: H_n with its last column advanced one step (s_{i+n+1})."""
    return det([[s[i + j] for j in range(n)] + [s[i + n + 1]] for i in range(n + 1)])


def apply_L(s: Sequence[Fraction], coeffs: Sequence[Fraction], shift: int = 0) -> Fraction:
    """L(x^shift p) = sum_k p_k s_{k+shift} for p given low-to-high."""
    return sum((c * s[k + shift] for k, c in enumerate(coeffs) if c), Fraction(0))


def monic_family(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[list[Fraction]]:
    """p_0..p_N from p_{n+1} = (x - a_n) p_n - b_n p_{n-1}, p_0 = 1, p_{-1} = 0."""
    family = [[Fraction(1)]]
    previous: list[Fraction] = []
    for n in range(len(a)):
        current = family[-1]
        nxt = [Fraction(0)] + current  # x p_n
        for k, c in enumerate(current):
            nxt[k] -= a[n] * c
        for k, c in enumerate(previous):
            nxt[k] -= b[n] * c
        previous = current
        family.append(nxt)
    return family


def polynomial(doc: dict) -> list[Fraction]:
    """Coefficients low-to-high of a CLI polynomial {"coeffs": [...]}, zero as []."""
    coeffs = fractions(doc["coeffs"])
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def mpf_det(rows: Sequence[Sequence], prec: int):
    """Determinant by partial-pivot elimination in mpmath at prec bits."""
    with mpmath.workprec(prec):
        m = [[mpmath.mpf(x) for x in row] for row in rows]
        n = len(m)
        result = mpmath.mpf(1)
        for k in range(n):
            pivot = max(range(k, n), key=lambda i: abs(m[i][k]))
            if m[pivot][k] == 0:
                return mpmath.mpf(0)
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                result = -result
            result *= m[k][k]
            for i in range(k + 1, n):
                factor = m[i][k] / m[k][k]
                for j in range(k + 1, n):
                    m[i][j] -= factor * m[k][j]
        return +result


# ---------------------------------------------------------------------------
# Per-command checkers
# ---------------------------------------------------------------------------


def check_det(s: Sequence[Fraction], out: dict, dets: Sequence[Fraction], dprime_sample: Iterable[int]) -> None:
    """D_n equal the reference dets at every index; D'_{n+1} at the sampled n."""
    d_out = fractions(out["D"])
    dp_out = fractions(out["Dprime"])
    require(len(d_out) == len(dets), f"det: {len(d_out)} D values, expected {len(dets)}")
    require(len(dp_out) == len(s) // 2, f"det: {len(dp_out)} D' values, expected {len(s) // 2}")
    for n, (got, want) in enumerate(zip(d_out, dets)):
        require(got == want, f"det: D_{n} = {got}, expected {want}")
    for n in dprime_sample:
        want = shifted_det(s, n)
        require(dp_out[n] == want, f"det: D'_{n + 1} = {dp_out[n]}, expected {want}")


def check_poly(s: Sequence[Fraction], out: dict, dets: Sequence[Fraction], sample: Iterable[int]) -> None:
    """lead(P_n) = D_{n-1}, L(x^k P_n) = 0 for k < n, L(x^n P_n) = D_n, Q_n = L_y[(P_n(x)-P_n(y))/(x-y)]."""
    n_max = len(s) // 2
    require(len(out["P"]) == n_max + 1 and len(out["Q"]) == n_max + 1, "poly: wrong number of polynomials")
    for n in sample:
        p = polynomial(out["P"][n])
        lead = dets[n - 1] if n >= 1 else Fraction(1)
        coeff_n = p[n] if len(p) > n else Fraction(0)
        require(len(p) <= n + 1, f"poly: deg P_{n} > {n}")
        require(coeff_n == lead, f"poly: x^{n} coefficient of P_{n} is {coeff_n}, expected D_{n - 1} = {lead}")
        for k in range(n):
            value = apply_L(s, p, k)
            require(value == 0, f"poly: L(x^{k} P_{n}) = {value}, expected 0")
        if 2 * n < len(s):
            value = apply_L(s, p, n)
            require(value == dets[n], f"poly: L(x^{n} P_{n}) = {value}, expected D_{n} = {dets[n]}")
        q = polynomial(out["Q"][n])
        want = [sum((p[k] * s[k - 1 - m] for k in range(m + 1, len(p))), Fraction(0)) for m in range(n)]
        while want and want[-1] == 0:
            want.pop()
        require(q == want, f"poly: Q_{n} differs from the divided difference of P_{n}")


def _check_orthogonal(s: Sequence[Fraction], a: Sequence[Fraction], b: Sequence[Fraction], sample: Iterable[int], what: str) -> None:
    """The monic p_n of (a, b) satisfy L(x^k p_n) = 0 for k < n and L(x^n p_n) = b_0...b_n."""
    family = monic_family(a, b)
    for n in sample:
        p = family[n]
        for k in range(n):
            value = apply_L(s, p, k)
            require(value == 0, f"{what}: L(x^{k} p_{n}) = {value}, expected 0")
        if n < len(b) and 2 * n < len(s):
            norm = Fraction(1)
            for bk in b[: n + 1]:
                norm *= bk
            value = apply_L(s, p, n)
            require(value == norm, f"{what}: L(x^{n} p_{n}) = {value}, expected b_0...b_{n} = {norm}")


def check_jacobi(s: Sequence[Fraction], out: dict, sample: Iterable[int]) -> None:
    a, b = fractions(out["a"]), fractions(out["b"])
    n_terms = len(s) // 2
    require(len(a) == n_terms and len(b) == n_terms, f"jacobi: expected {n_terms} coefficient pairs")
    _check_orthogonal(s, a, b, sample, "jacobi")


def check_jacobi_invert(a: Sequence[Fraction], b: Sequence[Fraction], out: dict) -> None:
    s = fractions(out["sequence"])
    require(len(s) == 2 * len(a), f"jacobi --invert: {len(s)} moments, expected {2 * len(a)}")
    _check_orthogonal(s, a, b, range(len(a) + 1), "jacobi --invert")


def check_approx(s: Sequence[Fraction], r: int, out: dict) -> None:
    """Agrees with s through 2r-1, every computable D_n with n >= r vanishes, and
    the later terms follow the rank-r recurrence of s_0..s_{2r-1}.

    The last check catches what D_n = 0 cannot: an error in the last even-index
    term enters D_n only through the cofactor D_{n-1}, which is 0 there.
    """
    t = fractions(out["sequence"])
    require(len(t) == len(s), f"approx: {len(t)} terms, expected {len(s)}")
    require(t[: 2 * r] == list(s[: 2 * r]), f"approx: differs from the input before index {2 * r}")
    dets = hankel_dets(t)
    for n in range(r, len(dets)):
        require(dets[n] == 0, f"approx: D_{n} = {dets[n]}, expected 0")
    d = solve([[s[i + j] for j in range(r)] for i in range(r)], [s[r + i] for i in range(r)])
    for k in range(2 * r, len(t)):
        value = sum((d[j] * t[k - r + j] for j in range(r)), Fraction(0))
        require(t[k] == value, f"approx: term {k} is {t[k]}, the rank-{r} recurrence gives {value}")


def check_rank(s: Sequence[Fraction], out: dict, dets: Sequence[Fraction], verdict: str | None = None) -> None:
    """rank = 1 + max{n : D_n != 0}; a FiniteRank witness reproduces the prefix."""
    nonzero = [n for n, value in enumerate(dets) if value != 0]
    want = nonzero[-1] + 1 if nonzero else 0
    require(out["rank"] == want, f"rank: rank {out['rank']}, expected {want}")
    require(out["horizon"] == len(s), "rank: wrong horizon")
    if verdict is not None:
        require(out["verdict"] == verdict, f"rank: verdict {out['verdict']}, expected {verdict}")
    if out["verdict"] == "FiniteRank":
        d = fractions(out["recurrence"])
        r = len(d)
        require(r == want, "rank: witness length differs from the rank")
        for m in range(len(s) - r):
            value = sum((d[k] * s[k + m] for k in range(r)), Fraction(0))
            require(value == s[r + m], f"rank: witness gives s_{r + m} = {value}, prefix has {s[r + m]}")
    else:
        require(out["recurrence"] is None, "rank: witness present without FiniteRank")


def check_profile(s: Sequence[Fraction], out: dict, dets: Sequence[Fraction]) -> None:
    """full_degree_indices = {0} u {n >= 1 : D_{n-1} != 0} and no anomalies."""
    want = [0] + [n for n in range(1, len(s) // 2 + 1) if dets[n - 1] != 0]
    require(out["full_degree_indices"] == want, f"profile: full_degree_indices {out['full_degree_indices']}, expected {want}")
    require(out["anomalies"] == [], f"profile: anomalies {out['anomalies']}")
    require(out["horizon"] == len(s), "profile: wrong horizon")


def frobenius_support(target: Sequence[Fraction]) -> list[int]:
    return [n for n, t in enumerate(target) if t != 0]


def check_solve(target: Sequence[Fraction], out: dict, tol: str, precision_bits: int, mode: str) -> None:
    """Exact: every D_n of the solution equals t_n.  Big-float: recomputed at 4x precision, within tol."""
    n_top = len(target) - 1
    require(out["mode"] == mode, f"solve: mode {out['mode']}, expected {mode}")
    require(out["report"]["solvable"] is True, "solve: report says unsolvable")
    require(out["report"]["support"] == frobenius_support(target), "solve: wrong support in report")
    require(len(out["solution"]) == 2 * n_top + 1, f"solve: {len(out['solution'])} terms, expected {2 * n_top + 1}")
    if mode == "exact":
        s = fractions(out["solution"])
        for n in range(n_top + 1):
            value = det([[s[i + j] for j in range(n + 1)] for i in range(n + 1)])
            require(value == target[n], f"solve: D_{n} = {value}, target {target[n]}")
        return
    prec = 4 * precision_bits
    with mpmath.workprec(prec):
        s = [mpmath.mpf(v) for v in out["solution"]]
        bound = mpmath.mpf(tol)
        for n in range(n_top + 1):
            value = mpf_det([[s[i + j] for j in range(n + 1)] for i in range(n + 1)], prec)
            want = mpmath.mpf(target[n].numerator) / target[n].denominator
            residual = abs(value - want) / max(mpmath.mpf(1), abs(want))
            require(residual <= bound, f"solve: D_{n} residual {mpmath.nstr(residual, 5)} exceeds {tol}")


def check_measure(atoms: Sequence[tuple[Fraction, Fraction]], out: dict, tol: str) -> None:
    """r atoms, each true atom inside its enclosure (lo, hi], weights within 1e-20, residual <= tol."""
    require(out["r"] == len(atoms), f"measure: r = {out['r']}, expected {len(atoms)}")
    got = sorted(out["atoms"], key=lambda atom: Fraction(atom["enclosure"][0]))
    require(len(got) == len(atoms), "measure: wrong number of atoms")
    rel = Fraction(1, 10**20)
    for (x, w), atom in zip(sorted(atoms), got):
        lo, hi = fractions(atom["enclosure"])
        require(lo < x <= hi, f"measure: atom {x} outside its enclosure ({lo}, {hi}]")
        weight = Fraction(atom["weight"])
        require(abs(weight - w) <= rel * w, f"measure: weight {atom['weight']} for atom {x}, expected {w}")
    require(Fraction(out["residual"]) <= Fraction(tol), f"measure: residual {out['residual']} exceeds {tol}")
