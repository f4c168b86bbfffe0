"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and structurally different from the
production code: determinants by memoized cofactor expansion (not
elimination), polynomial coefficients straight from their determinant
definitions, rank by plain Gaussian elimination with division, Sturm chains
by Fraction polynomial division, measure weights and residual bounds through
mpmath's high-level mp and iv contexts, and the prescribed-determinant
constructions by a fresh scan of the prefix at every step.  Slow but
obviously correct at desk scale; the tests demand bit-exact agreement.
The exceptions are frozen copies of earlier production code.
:func:`oracle_hankel_scan` is the pass as it derived each block step through
reduced Fraction algebra: it pins every field of ``hankel_scan``, the sign
and content of each step's integer coefficients among them, which no
determinant oracle sees.  :func:`oracle_certify` is the inverse-problem
certificate as one Bareiss elimination per D_n, which the witness
certificate replaced; cofactor expansion is too slow for its solutions.
:func:`oracle_frobenius_check` is the sign test as it formed each Delta
from the support by its own sign code, before ``frobenius_check`` read the
conditions off the construction's root steps.

The Fraction polynomial algebra the library never computes with (division,
gcd, monic form, evaluation, padding) is here too, as plain functions on
``Polynomial``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from mpmath import iv, libmp, mp

from hankelkit.approximants import BlockStep, StructureReport, _extension_values, recurrence_coeffs
from hankelkit.core import (
    HankelScan,
    HankelScanner,
    fraction_free_det,
    hankel_det,
    scale_to_integers,
)
from hankelkit.errors import IndexOutOfRange
from hankelkit.inverse import SolvabilityReport, TargetLike, as_targets
from hankelkit.polynomials import Polynomial, poly_P, poly_Q
from hankelkit.scalars import exact_kth_root


def cofactor_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion along the first remaining row.

    Memoized over (row index, bitmask of surviving columns); exponential
    state space but fine for n <= 8.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    matrix = tuple(tuple(Fraction(v) for v in row) for row in rows)
    assert all(len(row) == n for row in matrix), "square matrix required"

    @lru_cache(maxsize=None)
    def expand(i: int, mask: int) -> Fraction:
        if i == n:
            return Fraction(1)
        total = Fraction(0)
        sign = 1
        for j in range(n):
            if not mask & (1 << j):
                continue
            value = matrix[i][j]
            if value != 0:
                total += sign * value * expand(i + 1, mask & ~(1 << j))
            sign = -sign
        return total

    return expand(0, (1 << n) - 1)


def hankel_rows(s: Sequence[Fraction], n: int) -> list[list[Fraction]]:
    return [[Fraction(s[i + j]) for j in range(n + 1)] for i in range(n + 1)]


def oracle_hankel_det(s: Sequence[Fraction], n: int) -> Fraction:
    return cofactor_det(hankel_rows(s, n))


def oracle_shifted_det(s: Sequence[Fraction], n: int) -> Fraction:
    """D'_{n+1} from its definition: delete the last row and the second-to-last
    column of the order-(n+1) Hankel matrix, then expand cofactors.

    Built without materializing the deleted row/column, so only moments
    s_0..s_{2n+1} are touched.
    """
    kept = [
        [Fraction(s[i + j]) for j in range(n)] + [Fraction(s[i + n + 1])]
        for i in range(n + 1)
    ]
    return cofactor_det(kept)


def oracle_poly_coeffs(s: Sequence[Fraction], n: int) -> list[Fraction]:
    """Coefficients of P_n directly from the bordered determinant:
    coeff of x^j = (-1)^{n+j} * det(first n rows of H_n, column j removed)."""
    if n == 0:
        return [Fraction(1)]
    top = [[Fraction(s[i + j]) for j in range(n + 1)] for i in range(n)]
    coeffs = []
    for j in range(n + 1):
        minor = [row[:j] + row[j + 1 :] for row in top]
        sign = -1 if (n + j) % 2 else 1
        coeffs.append(sign * cofactor_det(minor))
    return coeffs


def oracle_q_coeffs(s: Sequence[Fraction], n: int) -> list[Fraction]:
    """Coefficients of Q_n from the divided-difference definition:
    Q_n(x) = L_t[(P_n(x) - P_n(t)) / (x - t)] with P_n from the oracle."""
    p = oracle_poly_coeffs(s, n)
    out = [Fraction(0)] * max(n, 1)
    # (x^j - t^j)/(x - t) = sum_{k<j} x^{j-1-k} t^k, so L_t gives s_k there.
    for j in range(1, n + 1):
        for k in range(j):
            out[j - 1 - k] += p[j] * Fraction(s[k])
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by plain Gaussian elimination with exact division."""
    matrix = [list(map(Fraction, row)) for row in rows]
    rank = 0
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    row = 0
    for col in range(n_cols):
        pivot = next((i for i in range(row, n_rows) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = 1 / matrix[row][col]
        matrix[row] = [v * inv for v in matrix[row]]
        for i in range(n_rows):
            if i != row and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[row])]
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def oracle_finite_rank_checks(s: Sequence[Fraction], r: int) -> dict[str, bool]:
    """finite_rank_checks from the definitions: the window rank by
    oracle_rank, every D_n by cofactor expansion, P_r and Q_r from their
    determinant definitions, and the recurrence, the rank-r extension and
    the series of Q_r/P_r in Fractions.  Needs s_0..s_{2r-1}."""
    if r < 0:
        raise ValueError("r must be >= 0")
    s = [Fraction(v) for v in s]
    top = len(s) - 1
    if 2 * r - 1 > top:
        raise IndexOutOfRange(2 * r - 1, len(s))
    n_rows = top // 2 + 1
    window = [[s[i + j] for j in range(top + 2 - n_rows)] for i in range(n_rows)]
    d = [oracle_hankel_det(s, n) for n in range(n_rows)]
    p = oracle_poly_coeffs(s, r)  # p[r] = D_{r-1}
    if p[r] == 0:
        approximant = expansion = False
    else:
        # s_n = -sum_{k<r} p_k s_{n-r+k} / p_r past the copied s_0..s_{2r-1}.
        ext = s[: 2 * r]
        while len(ext) < len(s):
            ext.append(-sum(p[k] * ext[len(ext) - r + k] for k in range(r)) / p[r])
        approximant = ext == s
        # Q_r/P_r = y Q~(y)/P~(y) in y = 1/x, Q~ = sum q_j y^{r-1-j} and P~ = sum p_k y^{r-k}:
        # long division of the power series.
        q = oracle_q_coeffs(s, r)
        series: list[Fraction] = []
        for m in range(len(s)):
            acc = q[r - 1 - m] if m < r and r - 1 - m < len(q) else Fraction(0)
            acc -= sum(p[r - i] * series[m - i] for i in range(1, min(m, r) + 1))
            series.append(acc / p[r])
        expansion = series == s
    return {
        "window_rank": oracle_rank(window) == r,
        "determinants_vanish": (r == 0 or d[r - 1] != 0) and all(v == 0 for v in d[r:]),
        "recurrence_holds": p[r] != 0
        and all(sum(p[k] * s[k + m] for k in range(r + 1)) == 0 for m in range(len(s) - r)),
        "approximant_match": approximant,
        "rational_expansion_match": expansion,
    }


def poly_padded(p: Polynomial, length: int) -> list[Fraction]:
    """The coefficients p_0..p_{length-1}, zero past the degree."""
    return [p[k] for k in range(length)]


def poly_eval(p: Polynomial, x: Fraction) -> Fraction:
    """p(x) by Horner in exact arithmetic."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        raise ValueError("zero polynomial has no monic form")
    return Polynomial(c / p.leading for c in p.coeffs)


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Euclidean division over the rationals: a = q b + r, r zero or of lower degree than b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(len(rem) - b.degree, 0)
    for shift in reversed(range(len(quot))):
        quot[shift] = rem[shift + b.degree] / b.leading
        for k, c in enumerate(b.coeffs):
            rem[shift + k] -= quot[shift] * c
    return Polynomial(quot), Polynomial(rem)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by Euclid's algorithm: 1 for coprime
    inputs, zero for two zero polynomials."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a if a.is_zero() else poly_monic(a)


def oracle_sturm_chain(p) -> list:
    """The classical Sturm chain of a Polynomial over the rationals: p, p',
    then each negated remainder of Fraction polynomial division, down to the
    last nonzero one."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def oracle_isolate_real_roots(p, precision_bits: int) -> list[tuple[Fraction, Fraction]]:
    """Enclosures (lo, hi] of the real roots of a Polynomial by plain Sturm bisection.

    Cells start from [-B-1, B+1] and always split at their midpoint; every
    cell holding a root is halved until it is at most max(1, B) /
    2^precision_bits wide (B the Cauchy bound) and holds one root.  The
    whole chain is evaluated exactly at both ends of every cell until it
    holds one root; from there each half is chosen by the exact sign, at
    the midpoint, of the squarefree part of p (p over the chain's last
    element), whose roots are all simple.
    """
    chain = oracle_sturm_chain(p)

    def integers(q) -> list[int]:
        """A positive rescaling, which keeps every sign: integer coefficients, lowest first."""
        scale = 1
        for c in q.coeffs:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        return [int(c * scale) for c in q.coeffs]

    def sign(q: list[int], x: Fraction) -> int:
        num, den = x.numerator, x.denominator
        value = sum(c * num**i * den ** (len(q) - 1 - i) for i, c in enumerate(q))
        return (value > 0) - (value < 0)

    integer_chain = [integers(q) for q in chain]
    squarefree = integers(poly_divmod(p, chain[-1])[0])

    def variations(x: Fraction) -> int:
        signs = [v for v in (sign(q, x) for q in integer_chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    lead = p.coeffs[-1]
    bound = max(Fraction(1), sum((abs(c / lead) for c in p.coeffs[:-1]), Fraction(0)))
    target = bound / 2**precision_bits
    done = []
    pending = [(-bound - 1, bound + 1)]
    while pending:
        a, b = pending.pop()
        count = variations(a) - variations(b)
        if count == 0:
            continue
        if count == 1:
            # One simple root r of the squarefree part in (a, b]: it has the
            # sign at b on (r, b] and the other one on (a, r).
            sign_b = sign(squarefree, b)
            while b - a > target:
                mid = (a + b) / 2
                sign_mid = sign(squarefree, mid)
                if sign_b != 0 and sign_mid != -sign_b:  # r <= mid
                    b, sign_b = mid, sign_mid
                else:
                    a = mid
            done.append((a, b))
            continue
        mid = (a + b) / 2
        pending += [(a, mid), (mid, b)]
    return sorted(done)


def oracle_degree_profile(s: Sequence[Fraction], polys: Sequence):
    """The degree structure of P_0..P_{len(s)//2} (Polynomials, computed elsewhere).

    Derived from the polynomials alone: full degree means degree n; gamma is
    the ratio of leading coefficients across a gap, checked for
    proportionality; each block step divides consecutive monic full-degree
    P_n, a_k being the quotient and -beta_k the remainder's leading
    coefficient, checked against the monic P at the index before.
    """
    n_max = len(polys) - 1
    full = tuple(n for n in range(n_max + 1) if polys[n].degree == n)
    anomalies: list[str] = []

    zero_blocks: list[tuple[int, int]] = []
    start = None
    for n in range(n_max + 1):
        if polys[n].is_zero():
            start = n if start is None else start
        elif start is not None:
            zero_blocks.append((start, n - 1))
            start = None
    if start is not None:
        zero_blocks.append((start, n_max))

    gammas: list[tuple[int, Fraction]] = []
    for k in range(len(full) - 1):
        a, b = full[k], full[k + 1]
        if b - a < 2:
            continue
        for n in range(a + 1, b - 1):
            if not polys[n].is_zero():
                anomalies.append(f"P_{n} expected zero inside gap ({a},{b})")
        candidate = polys[b - 1]
        if candidate.is_zero() or candidate.degree != polys[a].degree:
            anomalies.append(f"P_{b - 1} is not a constant multiple of P_{a}")
            continue
        gamma = candidate.leading / polys[a].leading
        if not (candidate - gamma * polys[a]).is_zero():
            anomalies.append(f"P_{b - 1} is not proportional to P_{a}")
            continue
        gammas.append((k, gamma))

    blocks = []
    monic = {n: poly_monic(polys[n]) for n in full}
    for k in range(len(full) - 1):
        quotient, rem = poly_divmod(monic[full[k + 1]], monic[full[k]])
        if k == 0:
            consistent, beta = rem.is_zero(), Fraction(1)
        elif rem.is_zero() or rem.degree != monic[full[k - 1]].degree:
            consistent, beta = False, Fraction(0)
        else:
            beta = -rem.leading
            consistent = (rem + beta * monic[full[k - 1]]).is_zero()
        if not consistent:
            anomalies.append(f"block recurrence at k={k} has no valid beta")
        blocks.append(BlockStep(k, quotient, beta, consistent))

    n_last = full[-1]
    tail = range(n_last + 1, n_max + 1)
    tail_zero = bool(tail) and all(polys[n].is_zero() for n in tail)
    for n in tail if not tail_zero else ():
        # An unfinished gap may end the horizon with one gamma-multiple at n_max.
        p, last = polys[n], polys[n_last]
        if p.is_zero():
            continue
        if n != n_max or p.degree != last.degree or not (p - (p.leading / last.leading) * last).is_zero():
            anomalies.append(f"P_{n} has unexpected shape beyond the last full index")

    return StructureReport(
        full_degree_indices=full,
        gammas=tuple(gammas),
        blocks=tuple(blocks),
        zero_blocks=tuple(zero_blocks),
        tail_zero=tail_zero,
        horizon=len(s),
        anomalies=tuple(anomalies),
    )


class FractionStepScanner(HankelScanner):
    """HankelScanner whose block steps derive their integer coefficients by
    Fraction algebra: u, the gap formula, a_{gap+1} = D_n / D_{r-1}, beta and
    their common denominator, as the pass did before its steps ran on integers.
    Each step is recorded as the pass records it (:meth:`HankelScanner._step`),
    on the p_int entries of a resumed scan."""

    def _run(self) -> None:
        m_top = len(self.terms) - 1
        polys = self.polys
        d_out, dp_out, p_out, f_out = self.d_values, self.d_prime_values, self.p_int, self.p_factor
        r, j, d_prev = self._r, self._j, self._d_prev
        p_cur, m_cur, q_cur = self._p_cur, self._m_cur, self._q_cur
        p_prev, m_prev, f_prev = self._p_prev, self._m_prev, self._f_prev
        while True:
            if polys:
                p_out[r], f_out[r] = tuple(p_cur), Fraction(1, q_cur)
            while j <= m_top - r and m_cur[j] == 0:
                j += 1
            if j > m_top - r:
                break
            gap = j - r
            u_int = m_cur[j]
            u = Fraction(u_int, q_cur)
            n = r + gap
            sign = -1 if (gap * (gap + 1) // 2) % 2 else 1
            d_new = sign * u ** (gap + 1) / d_prev**gap if gap else u
            if n < len(d_out):
                d_out[n] = d_new
            if r < len(dp_out):
                dp_out[r] = Fraction(m_cur[r + 1], q_cur)
            f_gamma = d_new / (u * q_cur) if gap else Fraction(1, q_cur)
            if gap and n < len(dp_out):
                dp_out[n] = f_gamma * m_cur[n + 1]
            if polys and n < len(p_out):
                p_out[n], f_out[n] = tuple(p_cur), f_gamma

            r_next = n + 1
            if 2 * r_next - 1 > m_top:
                break
            ratio = d_new / d_prev
            b = -ratio * u / d_prev * f_prev if r else Fraction(0)
            (c_top, c_b), k = scale_to_integers([ratio / q_cur, b])
            c = [0] * (gap + 1) + [c_top]
            for t in range(gap + 1):
                acc = c_b * m_prev[r + t] + sum(c[i] * m_cur[r + t + i] for i in range(gap - t + 1, gap + 2))
                c, c_b, k = [x * u_int for x in c], c_b * u_int, k * u_int
                c[gap - t] = -acc
            h = math.gcd(k, c_b, *c)
            c, c_b, k = [x // h for x in c], c_b // h, k // h
            self.steps.append(self._step(r, r_next, c, c_b, k))

            lo, hi = r_next, m_top - r_next
            acc_m = [c_b * x for x in m_prev[lo : hi + 1]]
            for i, ci in enumerate(c):
                if ci:
                    acc_m = [x + ci * y for x, y in zip(acc_m, m_cur[lo + i : hi + i + 1])]
            acc_p = [c_b * x for x in p_prev] + [0] * (r_next + 1 - len(p_prev)) if polys else []
            for i, ci in enumerate(c):
                if ci:
                    for e, x in enumerate(p_cur):
                        acc_p[i + e] += ci * x
            g = math.gcd(k, *acc_m, *acc_p)
            p_prev, m_prev, f_prev = p_cur, m_cur, f_gamma
            self._prev_mu = 1
            p_cur, m_cur, q_cur = [x // g for x in acc_p], [0] * lo + [x // g for x in acc_m], k // g
            r, j, d_prev = r_next, r_next, d_new
        self._r, self._j, self._d_prev = r, j, d_prev
        self._p_cur, self._m_cur, self._q_cur = p_cur, m_cur, q_cur
        self._p_prev, self._m_prev, self._f_prev = p_prev, m_prev, f_prev


def oracle_hankel_scan(s: Sequence[Fraction], polys: bool = False) -> HankelScan:
    """hankel_scan with the Fraction-algebra block steps of FractionStepScanner."""
    return FractionStepScanner(polys).extend(s).result()


def eval_mpf(p: Polynomial, x, precision_bits: int):
    """p(x) by Horner in mpmath arithmetic at the stated precision, each
    coefficient entering as mp.mpf(numerator) / denominator."""
    with mp.workprec(precision_bits):
        acc = mp.mpf(0)
        for c in reversed(p.coeffs):
            acc = acc * x + mp.mpf(c.numerator) / c.denominator
        return +acc


def oracle_measure_floats(s: Sequence[Fraction], enclosures, precision_bits: int) -> list[tuple]:
    """(location, residue weight, Christoffel-Darboux weight) of each atom, as
    raw mpf tuples, through mpmath's mp context at precision_bits.

    Each atom is at its enclosure's midpoint; every rational enters as
    mp.mpf(numerator) / denominator.  The residue Q_r / P_r' goes through
    mp.polyval.  The Christoffel-Darboux weight follows the library's
    formula, since a borderline accept or refuse depends on its rounding:
    1 / sum_k pi_k^2 (D_{k-1} / D_k) over the monic pi_k = P_k / D_{k-1},
    with pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}.  Here a_k is read off the
    P_k themselves, the difference of the x^{k-1} coefficient of pi_k and
    the x^k coefficient of pi_{k+1}, and b_k = D_k D_{k-2} / D_{k-1}^2.  The
    exact P_k, Q_r and D_k (r the number of enclosures) come from the
    library, whose exact values the other oracles check; cofactor expansion
    is too slow past order 8.
    """
    r = len(enclosures)
    family = [poly_P(s, k) for k in range(r + 1)]
    q_r = poly_Q(s, r)
    d = [Fraction(1)] + [hankel_det(s, k) for k in range(r)]
    # The coefficient of x^{k-1} in the monic pi_k (0 for pi_0).
    second = [family[k][k - 1] / family[k][k] if k else Fraction(0) for k in range(r)]
    a = [second[k] - second[k + 1] for k in range(r - 1)]
    b = [d[k + 1] * d[k - 1] / (d[k] * d[k]) for k in range(1, r - 1)]  # b_1..b_{r-2}
    out = []
    with mp.workprec(precision_bits):

        def rounded(values):
            return [mp.mpf(v.numerator) / v.denominator for v in values]

        q_mpf = rounded(q_r.coeffs[::-1])
        p_prime_mpf = rounded(family[r].derivative().coeffs[::-1])
        a_mpf, b_mpf = rounded(a), [mp.mpf(0)] + rounded(b)
        inverse_norms = rounded([d[k] / d[k + 1] for k in range(r)])
        for cell in enclosures:
            lam = rounded([cell.midpoint])[0]
            w_residue = mp.polyval(q_mpf, lam) / mp.polyval(p_prime_mpf, lam)
            cd_sum, before, pi = mp.mpf(0), mp.mpf(0), mp.mpf(1)
            for k in range(r):
                cd_sum += pi * pi * inverse_norms[k]
                if k + 1 < r:
                    before, pi = pi, (lam - a_mpf[k]) * pi - b_mpf[k] * before
            out.append((lam._mpf_, w_residue._mpf_, (1 / cd_sum)._mpf_))
    return out


def oracle_residual_bound(atoms, s: Sequence[Fraction], precision_bits: int) -> tuple:
    """Upper end of max_n |sum_k w_k x_k^n - s_n| as a raw mpf tuple, through
    mpmath's iv context at precision_bits.

    atoms are (enclosure lo, enclosure hi, weight mpf) triples; each location
    is the interval between its enclosure's ends rounded outward, each moment
    the interval between its value rounded down and up.
    """

    def interval(lo: Fraction, hi: Fraction):
        a = libmp.from_rational(lo.numerator, lo.denominator, precision_bits, libmp.round_floor)
        b = libmp.from_rational(hi.numerator, hi.denominator, precision_bits, libmp.round_ceiling)
        return iv.mpf((mp.make_mpf(a), mp.make_mpf(b)))

    old_prec = iv.prec
    iv.prec = precision_bits
    try:
        locations = [interval(lo, hi) for lo, hi, _ in atoms]
        weights = [iv.mpf(w) for _, _, w in atoms]
        powers = [iv.mpf(1) for _ in atoms]
        worst = libmp.fzero
        for value in s:
            total = iv.mpf(0)
            for k in range(len(atoms)):
                total += weights[k] * powers[k]
                powers[k] *= locations[k]
            upper = abs(total - interval(Fraction(value), Fraction(value)))._mpi_[1]
            if libmp.mpf_gt(upper, worst):
                worst = upper
    finally:
        iv.prec = old_prec
    return worst


# ---------------------------------------------------------------------------
# Constructions that rescan their growing prefix at every step
# ---------------------------------------------------------------------------


def oracle_solve_prescribed(t: Sequence[Fraction], t_prime: Sequence[Fraction]) -> list[Fraction]:
    """s_0..s_{2N-1} with D_n = t_n and D'_{n+1} = t'_n: a fresh P_n of the
    prefix so far at every step, and Fraction dot products."""
    s = [Fraction(t[0]), Fraction(t_prime[0])]
    for n in range(1, len(t)):
        p = poly_padded(poly_P(s, n), n + 1)
        s.append((t[n] - sum(p[j] * s[n + j] for j in range(n))) / p[n])
        s.append((t_prime[n] - sum(p[j] * s[n + 1 + j] for j in range(n))) / p[n])
    return s


def oracle_construct(targets: Sequence[Fraction], policy) -> list[Fraction] | None:
    """The exact inductive construction of solve_inverse with one
    recurrence_coeffs (a fresh scan of the prefix so far) per support step;
    None when a root it needs is irrational.  The support must be nonempty."""
    draws = policy.stream()
    support = [n for n, value in enumerate(targets) if value != 0]
    n_top = len(targets) - 1

    def root(value: Fraction, k: int) -> Fraction:
        result = exact_kth_root(value, k)
        if result is None:
            raise ArithmeticError("irrational root")
        return result

    try:
        n0 = support[0]
        sign = -1 if (n0 * (n0 + 1) // 2) % 2 else 1
        s = [Fraction(0)] * n0 + [root(targets[n0] * sign, n0 + 1)]
        s += [next(draws) for _ in range(n0 + 1, 2 * n0 + 1)]
        for a, b in zip(support, support[1:]):
            g = b - a
            s.append(next(draws))
            sigma = _extension_values(s, recurrence_coeffs(s, a + 1), 2 * b)
            ratio = Fraction(targets[b]) / targets[a]
            if g == 1:
                s.append(sigma[2 * b] + ratio)
            else:
                s += sigma[2 * a + 2 : a + b + 1]
                gap_sign = -1 if (g * (g - 1) // 2) % 2 else 1
                s.append(sigma[a + b + 1] + root(ratio * gap_sign, g))
                s += [next(draws) for _ in range(a + b + 2, 2 * b + 1)]
    except ArithmeticError:
        return None
    last = support[-1]
    if last < n_top:
        s.append(next(draws))
        s += _extension_values(s, recurrence_coeffs(s, last + 1), 2 * n_top)[2 * last + 2 :]
    return s


def oracle_frobenius_check(t: TargetLike) -> SolvabilityReport:
    """frobenius_check as it was before the root steps: Delta_0 =
    (-1)^{(n_0+1)/2} t_{n_0} when n_0 + 1 is even, then (-1)^{g/2} t_b t_a
    per even-gap support pair."""
    targets = as_targets(t)
    support = targets.support
    deltas: list[Fraction] = []
    violation: Optional[tuple[int, int, Fraction]] = None
    delta_index = 0
    if support:
        n0 = support[0]
        if (n0 + 1) % 2 == 0:
            sign = -1 if ((n0 + 1) // 2) % 2 else 1
            delta0 = sign * targets[n0]
            deltas.append(delta0)
            if delta0 <= 0:
                violation = (0, n0 + 1, delta0)
        delta_index = 1
        for k in range(len(support) - 1):
            gap = support[k + 1] - support[k]
            if gap % 2 == 0:
                sign = -1 if (gap // 2) % 2 else 1
                delta = sign * targets[support[k + 1]] * targets[support[k]]
                deltas.append(delta)
                if delta <= 0 and violation is None:
                    violation = (delta_index, gap, delta)
            delta_index += 1
    return SolvabilityReport(
        solvable=violation is None,
        support=support,
        deltas=tuple(deltas),
        violation=violation,
    )


def oracle_certify(terms: Sequence[Fraction], targets: Sequence[Fraction]) -> tuple[tuple, Fraction]:
    """The certificate solve_inverse used before its witness check: every D_n
    of the terms by its own Bareiss elimination, and the exact largest
    |D_n - t_n| / max(1, |t_n|)."""
    dets = tuple([fraction_free_det(hankel_rows(terms, n)) for n in range(len(targets))])
    residual = max(
        (abs(d - Fraction(t)) / max(1, abs(Fraction(t))) for d, t in zip(dets, targets)),
        default=Fraction(0),
    )
    return dets, residual


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------


def random_fraction(rng: random.Random, num_bound: int = 10, den_max: int = 10) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_max))


def random_sequence(
    rng: random.Random, length: int, num_bound: int = 10, den_max: int = 10
) -> list[Fraction]:
    return [random_fraction(rng, num_bound, den_max) for _ in range(length)]


def random_nonzero_fraction(rng: random.Random, num_bound: int = 10, den_max: int = 10) -> Fraction:
    while True:
        value = random_fraction(rng, num_bound, den_max)
        if value != 0:
            return value
