"""Each output checker accepts the CLI's real output and rejects a perturbed copy.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from hankelkit import cli  # noqa: E402


def run_cli(tmp_path: Path, args: list[str], payload: dict) -> dict:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(args + [str(path)]) == 0
    return json.loads(out.getvalue())


def bump(value: str) -> str:
    return str(Fraction(value) + Fraction(1, 7))


def assert_rejects(check, out: dict, perturb) -> None:
    check(out)  # the real output passes
    bad = copy.deepcopy(out)
    perturb(bad)
    with pytest.raises(checks.CheckError):
        check(bad)


RNG = random.Random(7)
S, DETS = workloads._generic_prefix(RNG, 10)
SEQ = {"sequence": [str(v) for v in S]}


def test_gaussian_elimination_matches_a_known_determinant():
    assert checks.det([[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]) == 1
    assert checks.det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert checks.hankel_dets([Fraction(v) for v in (0, 0, 1, 0, 0)]) == [0, 0, -1]


def test_det(tmp_path):
    out = run_cli(tmp_path, ["det"], SEQ)
    check = lambda o: checks.check_det(S, o, DETS, range(len(S) // 2))
    assert_rejects(check, out, lambda o: o["D"].__setitem__(3, bump(o["D"][3])))
    assert_rejects(check, out, lambda o: o["Dprime"].__setitem__(4, bump(o["Dprime"][4])))


def test_poly(tmp_path):
    out = run_cli(tmp_path, ["poly"], SEQ)
    check = lambda o: checks.check_poly(S, o, DETS, range(len(S) // 2 + 1))
    assert_rejects(check, out, lambda o: o["P"][3]["coeffs"].__setitem__(1, bump(o["P"][3]["coeffs"][1])))
    assert_rejects(check, out, lambda o: o["P"][2]["coeffs"].__setitem__(2, bump(o["P"][2]["coeffs"][2])))
    assert_rejects(check, out, lambda o: o["Q"][4]["coeffs"].__setitem__(0, bump(o["Q"][4]["coeffs"][0])))


def test_jacobi(tmp_path):
    out = run_cli(tmp_path, ["jacobi"], SEQ)
    check = lambda o: checks.check_jacobi(S, o, range(len(S) // 2 + 1))
    assert_rejects(check, out, lambda o: o["a"].__setitem__(2, bump(o["a"][2])))
    assert_rejects(check, out, lambda o: o["b"].__setitem__(4, bump(o["b"][4])))


def test_jacobi_invert(tmp_path):
    a = [Fraction(1, 2), Fraction(-1), Fraction(3)]
    b = [Fraction(2), Fraction(1, 3), Fraction(5)]
    out = run_cli(tmp_path, ["jacobi", "--invert"], {"a": [str(v) for v in a], "b": [str(v) for v in b]})
    check = lambda o: checks.check_jacobi_invert(a, b, o)
    assert_rejects(check, out, lambda o: o["sequence"].__setitem__(5, bump(o["sequence"][5])))


def test_approx(tmp_path):
    out = run_cli(tmp_path, ["approx", "--r", "3"], SEQ)
    check = lambda o: checks.check_approx(S, 3, o)
    assert_rejects(check, out, lambda o: o["sequence"].__setitem__(8, bump(o["sequence"][8])))
    assert_rejects(check, out, lambda o: o["sequence"].__setitem__(1, bump(o["sequence"][1])))


def test_rank(tmp_path):
    s, dets = workloads._finite_rank_prefix(RNG, 10, 3)
    out = run_cli(tmp_path, ["rank"], {"sequence": [str(v) for v in s]})
    check = lambda o: checks.check_rank(s, o, dets, "FiniteRank")
    assert_rejects(check, out, lambda o: o.__setitem__("rank", 4))
    assert_rejects(check, out, lambda o: o["recurrence"].__setitem__(0, bump(o["recurrence"][0])))
    assert_rejects(check, out, lambda o: o.__setitem__("verdict", "RankAtLeast"))


def test_profile(tmp_path):
    s = [Fraction(0), Fraction(0)] + S[2:]
    dets = checks.hankel_dets(s)
    out = run_cli(tmp_path, ["profile"], {"sequence": [str(v) for v in s]})
    check = lambda o: checks.check_profile(s, o, dets)
    assert_rejects(check, out, lambda o: o["full_degree_indices"].append(9))
    assert_rejects(check, out, lambda o: o["anomalies"].append("P_2 expected zero"))


def test_solve_exact(tmp_path):
    target = workloads.planted_target(RNG, 1, (2, 1), 1)
    out = run_cli(tmp_path, ["solve", "--construct"], {"target": [str(v) for v in target]})
    check = lambda o: checks.check_solve(target, o, "1e-30", 256, "exact")
    assert_rejects(check, out, lambda o: o["solution"].__setitem__(4, bump(o["solution"][4])))


def test_solve_bigfloat_recomputed_at_higher_precision(tmp_path):
    target = workloads.planted_target(RNG, 0, (2, 1), 1, irrational=True)
    out = run_cli(tmp_path, ["solve", "--construct"], {"target": [str(v) for v in target]})
    check = lambda o: checks.check_solve(target, o, "1e-30", 256, "bigfloat")

    def nudge(o):  # a relative error of 1e-25 in one entry, far above tol 1e-30
        value = Fraction(o["solution"][2])
        o["solution"][2] = format_decimal(value + max(abs(value), 1) * Fraction(1, 10**25))

    assert_rejects(check, out, nudge)


def format_decimal(value: Fraction) -> str:
    """A 60-digit decimal string of value."""
    scaled = value * 10**60
    return f"{scaled.numerator // scaled.denominator}e-60"


def test_measure_weights_are_read_at_full_precision(tmp_path):
    atoms, moments = workloads.atoms_and_moments(RNG, 3)
    out = run_cli(tmp_path, ["measure"], {"sequence": [str(v) for v in moments]})
    check = lambda o: checks.check_measure(atoms, o, "1e-20")

    def weight(o):  # a relative error of 1e-18 in one weight
        w = Fraction(o["atoms"][1]["weight"])
        o["atoms"][1]["weight"] = format_decimal(w * (1 + Fraction(1, 10**18)))

    def enclosure(o):  # shift one enclosure past its atom
        lo, hi = (Fraction(v) for v in o["atoms"][0]["enclosure"])
        o["atoms"][0]["enclosure"] = [str(hi + 1), str(hi + 2)]

    assert_rejects(check, out, weight)
    assert_rejects(check, out, enclosure)
    assert_rejects(check, out, lambda o: o.__setitem__("residual", "1e-10"))
    assert_rejects(check, out, lambda o: o.__setitem__("r", 4))
