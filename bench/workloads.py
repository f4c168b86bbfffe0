"""Seeded document generators for the four workloads.

Every generator draws values from ``random.Random`` seeded with the workload
name and ``--seed``, while the shape of each workload (lengths, ranks, gap
patterns, command mix) is fixed, so that runs with different seeds do the
same amount of work.  Each generator checks the preconditions its commands
need before any timing starts, so that no document fails by design:

- every computable D_n is nonzero for ``jacobi`` and ``long_prefix`` inputs;
- every target meets the Frobenius sign conditions by construction;
- ``measure`` atoms are distinct and their weights positive;
- ``approx --r`` inputs have D_{r-1} != 0.

A :class:`Doc` is one CLI invocation: the subcommand with its options, the
JSON input, and a checker for the JSON output.  ``followups`` builds further
documents from a checked output (``det``/``rank``/``profile`` on a returned
exact solution).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks

# long_prefix: prefix lengths per command, each document with a prefix of its own.
# The lengths interleave, so that document costs form a continuum, and det and jacobi
# step through every length from 53 to 62, so that some twenty documents of nearly
# equal cost sit at the median latency, which then does not jump with the seed or with noise in one
# document.  poly stops at 56 terms: at 80 it alone takes about as long as the rest
# of a round.
LONG_LENGTHS = {
    "det": (30, 34, 38, 42, 46, 50) + tuple(range(53, 62)) + (70, 80),
    "jacobi": (32, 36, 40, 44, 48, 52) + tuple(range(53, 63)) + (72, 80),
    "rank": (34, 44, 54, 64, 74, 80),
    "profile": (38, 52, 66, 80),
    "poly": (31, 40, 48, 56),
}
# Indices sampled per long document for D', P_n and p_n checks (plus the largest).
LONG_SAMPLE = 5

# zero_blocks: (first support index n_0, gaps between support indices, trailing zeros).
# Gaps of 2 and 3 plant zero runs; entries grow with the gaps, so targets stay short
# enough that no entry nears 4300 decimal digits, the int-to-str limit of Python >= 3.11.
EXACT_ZEROS = (
    (0, (2, 1, 3, 2), 2),
    (1, (3, 2, 1, 2, 1), 1),
    (2, (1, 2, 2, 3), 2),
    (0, (1, 3, 1, 2, 2, 1), 0),
    (0, (2, 2, 1, 1), 3),
    (1, (2, 1, 3), 2),
    (3, (2, 1, 2), 1),
    (0, (3, 1, 2, 1, 2), 1),
)
# Free entries drawn by --policy seed:<n> multiply the growth, so these are shorter.
EXACT_SEEDED = (
    (0, (2, 1, 2), 1),
    (1, (1, 3), 1),
    (0, (3, 2), 0),
    (2, (2, 1), 1),
)
# Big-float targets: one gap ratio that is not a perfect power forces an irrational root.
# Zeros policy only: with seeded free entries longer targets exhaust 256 bits at tol 1e-30.
BIGFLOAT = (
    (0, (2, 1), 1),
    (0, (1, 2), 1),
    (1, (2,), 1),
)
BIGFLOAT_BITS = 256
SOLVE_TOL = "1e-30"  # the CLI's documented default --tol for solve

# measure: two documents per rank, and one more at ranks 6-8, so that several
# documents of similar cost sit at the median latency while a round stays short
# enough for two or more rounds per run.
MEASURE_RANKS = tuple(range(3, 13)) * 2 + (6, 7, 8)
MEASURE_TOL = "1e-20"  # the CLI's documented default --tol for measure
ATOM_DENOMINATOR = 7
WEIGHT_DENOMINATORS = (1, 2, 3, 4)

# small_docs: documents per command; measure documents are the costliest, so fewer.
SMALL_PER_COMMAND = 12
SMALL_MEASURE = 4
SMALL_LENGTH = 12


@dataclass
class Doc:
    args: list[str]
    payload: dict
    check: Callable[[dict], None]
    followups: Optional[Callable[[dict], list["Doc"]]] = None

    @property
    def label(self) -> str:
        """The subcommand and its flags, without their values."""
        return " ".join([self.args[0]] + [a for a in self.args[1:] if a.startswith("--")])


def _strings(values) -> list[str]:
    return [str(v) for v in values]


def _rational(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def _sample(rng: random.Random, largest: int, k: int) -> list[int]:
    """k seeded indices from 0..largest, always including largest."""
    return sorted(set(rng.sample(range(largest + 1), min(k, largest + 1))) | {largest})


def _generic_prefix(rng: random.Random, length: int) -> tuple[list[Fraction], list[Fraction]]:
    """A random prefix whose every computable D_n is nonzero, with those D_n."""
    while True:
        s = [_rational(rng) for _ in range(length)]
        dets = checks.leading_minors(s, (length - 1) // 2)
        if dets is not None:
            return s, dets


def _finite_rank_prefix(rng: random.Random, length: int, order: int) -> tuple[list[Fraction], list[Fraction]]:
    """A prefix of exact Hankel rank `order`: D_{order-1} != 0 and every later D_n = 0."""
    while True:
        coeffs = [_rational(rng, 3) for _ in range(order)]
        s = [_rational(rng) for _ in range(order)]
        while len(s) < length:
            s.append(sum((c * x for c, x in zip(coeffs, s[-order:])), Fraction(0)))
        dets = checks.hankel_dets(s)
        if dets[order - 1] != 0:
            return s, dets


def _sequence_docs(s, dets, commands: tuple[str, ...], rng: random.Random, sample_k: int,
                   verdict: Optional[str] = None) -> list[Doc]:
    payload = {"sequence": _strings(s)}
    n_top = len(s) // 2
    docs = []
    for name in commands:
        if name == "det":
            dp = _sample(rng, n_top - 1, sample_k)
            docs.append(Doc(["det"], payload, lambda out, dp=dp: checks.check_det(s, out, dets, dp)))
        elif name == "poly":
            idx = _sample(rng, n_top, sample_k)
            docs.append(Doc(["poly"], payload, lambda out, idx=idx: checks.check_poly(s, out, dets, idx)))
        elif name == "jacobi":
            idx = _sample(rng, n_top, sample_k)
            docs.append(Doc(["jacobi"], payload, lambda out, idx=idx: checks.check_jacobi(s, out, idx)))
        elif name == "rank":
            docs.append(Doc(["rank"], payload, lambda out: checks.check_rank(s, out, dets, verdict)))
        elif name == "profile":
            docs.append(Doc(["profile"], payload, lambda out: checks.check_profile(s, out, dets)))
    return docs


def long_prefix(rng: random.Random) -> list[Doc]:
    docs = []
    for command, lengths in LONG_LENGTHS.items():
        for length in lengths:
            s, dets = _generic_prefix(rng, length)
            docs += _sequence_docs(s, dets, (command,), rng, LONG_SAMPLE)
    return docs


def _base(rng: random.Random) -> Fraction:
    # One size for every base, so that the seed moves values but not entry bit lengths.
    return rng.choice((-1, 1)) * Fraction(*rng.choice(((2, 3), (3, 2), (3, 4), (4, 3))))


def planted_target(rng: random.Random, n0: int, gaps, tail: int, irrational: bool = False) -> list[Fraction]:
    """A target with support n0, n0+g_1, ... that meets the Frobenius conditions.

    t_{n0} = (-1)^{n0(n0+1)/2} c^{n0+1} and t_b = t_a (-1)^{g(g-1)/2} c^g for each gap g
    make every Delta a positive perfect power, so every root the solver takes is
    rational.  With ``irrational`` the last gap of length >= 2 uses a ratio 2, 3, 5 or 6
    instead, which is still Frobenius-positive but has an irrational g-th root.
    """
    length = n0 + sum(gaps) + 1 + tail
    t = [Fraction(0)] * length
    sign = -1 if (n0 * (n0 + 1) // 2) % 2 else 1
    t[n0] = sign * _base(rng) ** (n0 + 1)
    last_wide = max(k for k, g in enumerate(gaps) if g >= 2) if irrational else -1
    a = n0
    for k, g in enumerate(gaps):
        sign = -1 if (g * (g - 1) // 2) % 2 else 1
        factor = rng.choice((2, 3, 5, 6)) if k == last_wide else _base(rng) ** g
        t[a + g] = t[a] * sign * factor
        a += g
    assert_frobenius(t)
    return t


def assert_frobenius(t: list[Fraction]) -> None:
    """The sign conditions, evaluated here independently of the program."""
    support = checks.frobenius_support(t)
    n0 = support[0]
    if (n0 + 1) % 2 == 0:
        if (-1) ** ((n0 + 1) // 2) * t[n0] <= 0:
            raise ValueError(f"generator bug: target {t} violates the initial sign condition")
    for a, b in zip(support, support[1:]):
        if (b - a) % 2 == 0 and (-1) ** ((b - a) // 2) * t[a] * t[b] <= 0:
            raise ValueError(f"generator bug: target {t} violates the gap ({a},{b}) condition")


def _solution_docs(target: list[Fraction], out: dict, rng: random.Random) -> list[Doc]:
    """det, rank and profile on an exact solution, whose D_n are the target values."""
    s = checks.fractions(out["solution"])
    return _sequence_docs(s, list(target), ("det", "rank", "profile"), rng, 3)


def _solve_doc(target: list[Fraction], args: list[str], mode: str, rng: random.Random,
               with_followups: bool = True) -> Doc:
    followups = None
    if mode == "exact" and with_followups:
        followups = lambda out: _solution_docs(target, out, rng)
    return Doc(
        ["solve", "--construct"] + args,
        {"target": _strings(target)},
        lambda out: checks.check_solve(target, out, SOLVE_TOL, BIGFLOAT_BITS, mode),
        followups,
    )


def zero_blocks(rng: random.Random) -> list[Doc]:
    docs = []
    for n0, gaps, tail in EXACT_ZEROS:
        docs.append(_solve_doc(planted_target(rng, n0, gaps, tail), [], "exact", rng))
    for n0, gaps, tail in EXACT_SEEDED:
        policy = f"seed:{rng.randrange(2**32)}"
        docs.append(_solve_doc(planted_target(rng, n0, gaps, tail), ["--policy", policy], "exact", rng))
    for n0, gaps, tail in BIGFLOAT:
        docs.append(_solve_doc(planted_target(rng, n0, gaps, tail, irrational=True), [], "bigfloat", rng))
    return docs


def atoms_and_moments(rng: random.Random, r: int) -> tuple[list[tuple[Fraction, Fraction]], list[Fraction]]:
    """r distinct rational atoms with positive weights and their moments s_0..s_{2r+1}.

    Atom i is n_i/7 with n_i drawn from the i-th of r equal bins of [-60, 60], and
    weight i is b/c with b in [5, 9] and c fixed by i.  The seed moves the values
    but neither their bit lengths nor the spacing of the atoms, which together set
    the cost of root isolation.
    """
    width = 120 // r
    atoms = [(Fraction(-60 + i * width + rng.randrange(width), ATOM_DENOMINATOR),
              Fraction(rng.randint(5, 9), WEIGHT_DENOMINATORS[i % 4])) for i in range(r)]
    if len({x for x, _ in atoms}) != r or any(w <= 0 for _, w in atoms):
        raise ValueError("generator bug: atoms must be distinct with positive weights")
    moments = [sum((w * x**n for x, w in atoms), Fraction(0)) for n in range(2 * r + 2)]
    return atoms, moments


def _measure_doc(rng: random.Random, r: int) -> Doc:
    atoms, moments = atoms_and_moments(rng, r)
    return Doc(["measure"], {"sequence": _strings(moments)}, lambda out: checks.check_measure(atoms, out, MEASURE_TOL))


def measure(rng: random.Random) -> list[Doc]:
    return [_measure_doc(rng, r) for r in MEASURE_RANKS]


def small_docs(rng: random.Random) -> list[Doc]:
    docs = []
    for i in range(SMALL_PER_COMMAND):
        # Even i: generic prefixes; odd i: exact rank 2..4, so D_n vanish past the rank.
        if i % 2 == 0:
            s, dets = _generic_prefix(rng, SMALL_LENGTH)
            verdict = None
        else:
            s, dets = _finite_rank_prefix(rng, SMALL_LENGTH, 2 + i % 3)
            verdict = "FiniteRank"
        docs += _sequence_docs(s, dets, ("det", "poly", "rank", "profile"), rng, SMALL_LENGTH, verdict)

        s, dets = _generic_prefix(rng, SMALL_LENGTH)
        docs += _sequence_docs(s, dets, ("jacobi",), rng, SMALL_LENGTH)

        a = [_rational(rng) for _ in range(5)]
        b = [_rational(rng) for _ in range(5)]
        docs.append(Doc(["jacobi", "--invert"], {"a": _strings(a), "b": _strings(b)},
                        lambda out, a=a, b=b: checks.check_jacobi_invert(a, b, out)))

        s, _ = _generic_prefix(rng, SMALL_LENGTH)
        r = 2 + i % 4
        docs.append(Doc(["approx", "--r", str(r)], {"sequence": _strings(s)},
                        lambda out, s=s, r=r: checks.check_approx(s, r, out)))

        gaps = ((1, 2), (2, 1), (3,))[i % 3]
        docs.append(_solve_doc(planted_target(rng, i % 2, gaps, 1), [], "exact", rng, with_followups=False))
    docs += [_measure_doc(rng, 2) for _ in range(SMALL_MEASURE)]
    return docs


WORKLOADS = {
    "long_prefix": long_prefix,
    "zero_blocks": zero_blocks,
    "measure": measure,
    "small_docs": small_docs,
}
