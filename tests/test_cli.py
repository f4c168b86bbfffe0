"""End-to-end command-line tests: exit codes, JSON payloads, determinism."""

import argparse
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hankelkit import cli, inverse
from hankelkit.cli import (
    COMMANDS,
    MAX_PRECISION_BITS,
    MAX_TERMS,
    MEASURE_TOLERANCE,
    build_parser,
    main,
)
from hankelkit.inverse import DEFAULT_TOLERANCE, frobenius_check
from hankelkit.approximants import approx_sequence
from hankelkit.measures import moments_of_atoms
from hankelkit.polynomials import JacobiCoeffs, moments_from_jacobi


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_ok(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


class TestDet:
    def test_flat(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1"]})
        payload = run_ok(capsys, ["det", path])
        assert payload == {"D": ["2", "1"], "Dprime": ["1", "1"]}

    def test_byte_determinism(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["1", "1/2", "1/3", "1/4"]})
        code1, out1, _ = run(capsys, ["det", path])
        code2, out2, _ = run(capsys, ["det", path])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_prints_a_determinant_past_the_digit_limit(self, tmp_path, capsys):
        # D_1 = 1*0 - (10^4000)^2 has 8001 digits; the input's 4001 parse fine.
        path = write_json(tmp_path, "s.json", {"sequence": ["1", "1" + "0" * 4000, "0"]})
        payload = run_ok(capsys, ["det", path])
        assert payload["D"] == ["1", "-1" + "0" * 8000]

    def test_empty_sequence_is_precondition_error(self, tmp_path, capsys):
        # An empty sequence is rejected while the input is read, before det runs.
        path = write_json(tmp_path, "s.json", {"sequence": []})
        code, out, err = run(capsys, ["det", path])
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "parse_error"

    def test_empty_sequence_says_no_terms_are_known(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": []})
        code, out, err = run(capsys, ["det", path])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": '"sequence" is empty; at least one term is needed',
            "kind": "parse_error",
        }


class TestPoly:
    def test_default_depth(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1"]})
        payload = run_ok(capsys, ["poly", path])
        assert payload["P"][2] == {"coeffs": ["0", "-1", "1"]}
        assert payload["Q"][2] == {"coeffs": ["-1", "2"]}
        assert len(payload["P"]) == 3  # n = 0, 1, 2

    def test_max_n_flag(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1"]})
        payload = run_ok(capsys, ["poly", path, "--max-n", "1"])
        assert len(payload["P"]) == 2


class TestJacobi:
    def test_forward(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "s.json", {"sequence": ["1", "0", "1/2", "0"]}
        )
        payload = run_ok(capsys, ["jacobi", path])
        assert payload == {"a": ["0", "0"], "b": ["1", "1/2"]}

    def test_invert_roundtrip(self, tmp_path, capsys):
        forward_in = write_json(
            tmp_path, "s.json", {"sequence": ["2", "1", "1", "1"]}
        )
        coeffs = run_ok(capsys, ["jacobi", forward_in])
        invert_in = write_json(tmp_path, "j.json", coeffs)
        payload = run_ok(capsys, ["jacobi", invert_in, "--invert"])
        assert payload == {"sequence": ["2", "1", "1", "1"]}

    def test_not_quasi_definite_exit(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["1", "0", "0", "0"]})
        code, out, err = run(capsys, ["jacobi", path])
        assert code == 3
        assert json.loads(err)["kind"] == "not_quasi_definite"


class TestApprox:
    def test_extension(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1"]})
        payload = run_ok(capsys, ["approx", path, "--r", "1", "--len", "6"])
        assert payload == {"sequence": ["2", "1", "1/2", "1/4", "1/8", "1/16"]}

    def test_r_required(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1"]})
        code, _, _ = run(capsys, ["approx", path])
        assert code == 1

    @pytest.mark.parametrize("r", ["0", "-1", str(MAX_TERMS + 1), "500"])
    def test_r_out_of_range_is_usage_error(self, tmp_path, capsys, r):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1"]})
        code, out, err = run(capsys, ["approx", path, "--r", r])
        assert (code, out) == (1, "")
        assert json.loads(err)["kind"] == "UsageError"
        assert "--r" in json.loads(err)["error"]

    def test_r_within_range_but_past_the_prefix_is_a_precondition(self, tmp_path, capsys):
        # --r 3 needs s_0..s_5: the input, not the flag, is at fault.
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1"]})
        code, out, _ = run(capsys, ["approx", path, "--r", "3"])
        assert (code, out) == (3, "")

    def test_singular_minor_exit(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["0", "1", "1"]})
        code, _, err = run(capsys, ["approx", path, "--r", "1"])
        assert code == 3
        assert json.loads(err)["kind"] == "singular_leading_minor"


class TestRank:
    def test_finite_rank(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "s.json", {"sequence": ["1", "3", "9", "27", "81", "243"]}
        )
        payload = run_ok(capsys, ["rank", path])
        assert payload == {
            "verdict": "FiniteRank",
            "rank": 1,
            "horizon": 6,
            "recurrence": ["3"],
        }


class TestProfile:
    def test_structure(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "s.json",
            {"sequence": ["1", "0", "0", "0", "1", "0", "0", "0"]},
        )
        payload = run_ok(capsys, ["profile", path])
        assert payload["full_degree_indices"] == [0, 1, 4]
        assert payload["gammas"] == [{"k": 1, "value": "-1"}]
        assert payload["anomalies"] == []


class TestSolve:
    def test_report_only(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["2", "1"]})
        payload = run_ok(capsys, ["solve", path])
        assert payload["solvable"] is True
        assert "solution" not in payload

    def test_unsolvable_exit(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["0", "1", "0"]})
        code, out, err = run(capsys, ["solve", path])
        assert code == 3
        error = json.loads(err)
        assert error["kind"] == "not_solvable"
        assert error["report"]["violation"]["gap"] == 2

    def test_unsolvable_past_the_digit_limit_keeps_its_kind(self, tmp_path, capsys):
        big = "1" + "0" * 4000
        path = write_json(tmp_path, "t.json", {"target": [big, "0", big]})
        code, out, err = run(capsys, ["solve", path])
        assert (code, out) == (3, "")
        error = json.loads(err)
        assert error["kind"] == "not_solvable"
        assert error["value"] == "-1" + "0" * 8000

    def test_construct_exact(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["2", "1"]})
        payload = run_ok(capsys, ["solve", path, "--construct"])
        assert payload["mode"] == "exact"
        assert payload["solution"] == ["2", "0", "1/2"]
        assert payload["report"]["solvable"] is True

    @pytest.mark.parametrize("target", [["2", "1"], ["1", "0", "-2"], ["1", "0", "0", "-1", "0", "2"]])
    def test_construct_builds_one_report(self, tmp_path, capsys, monkeypatch, target):
        # solve_inverse's own report goes to stdout; the sign conditions are read once.
        reports = []
        build = inverse._report

        def counting(*args):
            reports.append(build(*args))
            return reports[-1]

        monkeypatch.setattr(inverse, "_report", counting)
        path = write_json(tmp_path, "t.json", {"target": target})
        payload = run_ok(capsys, ["solve", path, "--construct"])
        assert len(reports) == 1
        assert payload["report"] == reports[0].to_json() == frobenius_check(target).to_json()

    def test_construct_roundtrip_through_det(self, tmp_path, capsys):
        t_path = write_json(tmp_path, "t.json", {"target": ["1", "-2", "3", "1/2"]})
        solved = run_ok(capsys, ["solve", t_path, "--construct"])
        assert solved["mode"] == "exact"
        s_path = write_json(tmp_path, "s.json", {"sequence": solved["solution"]})
        profile = run_ok(capsys, ["det", s_path])
        assert profile["D"] == ["1", "-2", "3", "1/2"]

    def test_construct_bigfloat(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["1", "0", "-2"]})
        payload = run_ok(capsys, ["solve", path, "--construct"])
        assert payload["mode"] == "bigfloat"
        assert payload["precision_bits"] == 256

    def test_construct_bigfloat_past_the_int_string_limit(self, tmp_path, capsys):
        # At 16384 bits s_1 = sqrt(3) prints with 4931 digits, and the certified
        # residual of the printed solution is about 1e-4931: both pass Python's
        # 4300-digit int-string limit on their way into and out of the certificate.
        path = write_json(tmp_path, "t.json", {"target": ["0", "-3", "0"]})
        payload = run_ok(capsys, ["solve", path, "--construct", "--precision-bits", "16384"])
        assert payload["mode"] == "bigfloat"
        assert len(payload["solution"][1]) > 4300
        assert 0 < Fraction(payload["max_residual"]) < Fraction(1, 10**4900)

    def test_policy_flag_overrides_file(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "t.json", {"target": ["2", "1"], "policy": "seed:1"}
        )
        from_file = run_ok(capsys, ["solve", path, "--construct"])
        overridden = run_ok(
            capsys, ["solve", path, "--construct", "--policy", "zeros"]
        )
        assert overridden["solution"] == ["2", "0", "1/2"]
        assert from_file["solution"] != overridden["solution"]
        s_path = write_json(
            tmp_path, "s.json", {"sequence": from_file["solution"]}
        )
        profile = run_ok(capsys, ["det", s_path])
        assert profile["D"] == ["2", "1"]

    def test_non_string_policy_in_file_is_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["2", "1"], "policy": 5})
        code, out, err = run(capsys, ["solve", path, "--construct"])
        assert (code, out) == (2, "")
        assert json.loads(err)["kind"] == "parse_error"
        # The flag still wins over the file.
        payload = run_ok(capsys, ["solve", path, "--construct", "--policy", "zeros"])
        assert payload["solution"] == ["2", "0", "1/2"]

    def test_bad_policy_is_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["2", "1"]})
        code, _, err = run(capsys, ["solve", path, "--construct", "--policy", "x"])
        assert code == 2
        assert json.loads(err)["kind"] == "parse_error"

    def test_seed_above_u64_is_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["1", "0", "-1"]})
        code, out, err = run(
            capsys,
            ["solve", path, "--construct", "--policy", "seed:99999999999999999999999"],
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "parse_error"

    def test_malformed_tol_is_usage_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["1", "0", "-2"]})
        code, out, err = run(capsys, ["solve", path, "--construct", "--tol", "abc"])
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["kind"] == "UsageError"
        assert "--tol" in payload["error"]

    def test_singular_bigfloat_system_is_precision_exhausted(self, tmp_path, capsys):
        # At 256 bits a recurrence system of this target is numerically
        # singular; 4096 bits construct it.
        target = ["1", "0", "-2", "0", "4", "0", "-8", "0", "16", "0", "-32", "0",
                  "64", "0", "-128", "0", "256"]
        path = write_json(tmp_path, "t.json", {"target": target})
        code, out, err = run(capsys, ["solve", path, "--construct"])
        assert code == 4
        assert out == ""
        payload = json.loads(err)
        assert payload["kind"] == "precision_exhausted"
        assert payload["precision_bits"] == 256

    def test_precision_exhausted_exit(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["1", "0", "-2"]})
        code, _, err = run(
            capsys,
            [
                "solve",
                path,
                "--construct",
                "--precision-bits",
                "64",
                "--tol",
                "1e-30",
            ],
        )
        assert code == 4
        assert json.loads(err)["kind"] == "precision_exhausted"


class TestMeasure:
    def test_two_atoms(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "s.json", {"sequence": ["2", "1", "1", "1", "1", "1"]}
        )
        payload = run_ok(capsys, ["measure", path])
        assert payload["r"] == 2
        assert len(payload["atoms"]) == 2
        assert payload["precision_bits"] == 256
        assert float(payload["residual"]) < 1e-20

    def test_cluster_below_the_precision_is_a_weight_mismatch(self, tmp_path, capsys):
        # Atoms 1/2 and 1/2 + 2^-300: at 256 bits P_4' rounds to 0 at their
        # midpoints, so the residue weight has no value; 1024 bits resolve it.
        atoms = [(-3, 1), (Fraction(1, 2), 1), (Fraction(1, 2) + Fraction(1, 2**300), 1), (4, 1)]
        moments = moments_of_atoms(atoms, 9)
        path = write_json(tmp_path, "s.json", {"sequence": [str(t) for t in moments.terms]})
        code, out, err = run(capsys, ["measure", path])
        assert (code, out) == (4, "")
        assert json.loads(err)["kind"] == "weight_mismatch"
        assert run_ok(capsys, ["measure", path, "--precision-bits", "1024"])["r"] == 4

    def test_non_psd_exit(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "s.json", {"sequence": ["1", "0", "-1", "0", "0", "0"]}
        )
        code, _, err = run(capsys, ["measure", path])
        assert code == 3
        assert json.loads(err)["kind"] == "not_psd_flat"

    def test_no_flat_region_names_the_last_computed_determinant(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["1", "1", "2", "5"]})
        code, _, err = run(capsys, ["measure", path])
        assert code == 3
        payload = json.loads(err)
        assert payload["kind"] == "not_psd_flat"
        assert (payload["n"], payload["value"]) == (1, "1")

    def test_not_psd_flat_past_the_digit_limit_keeps_its_kind(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["1", "1" + "0" * 4000, "0", "0", "1"]})
        code, out, err = run(capsys, ["measure", path])
        assert (code, out) == (3, "")
        error = json.loads(err)
        assert (error["kind"], error["n"]) == ("not_psd_flat", 1)
        assert error["value"] == "-1" + "0" * 8000

    def test_precision_cap(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1", "1", "1"]})
        code, out, err = run(capsys, ["measure", path, "--precision-bits", str(MAX_PRECISION_BITS + 1)])
        assert (code, out) == (1, "")
        assert json.loads(err)["kind"] == "UsageError"
        # At the cap the enclosures' endpoints print past Python's 4300-digit limit.
        payload = run_ok(capsys, ["measure", path, "--precision-bits", str(MAX_PRECISION_BITS)])
        assert payload["precision_bits"] == MAX_PRECISION_BITS
        assert max(len(end) for atom in payload["atoms"] for end in atom["enclosure"]) > 4300

    def test_malformed_tol_is_usage_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1", "1"]})
        code, out, err = run(capsys, ["measure", path, "--tol", "abc"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["kind"] == "UsageError"

    def test_impossible_tolerance_exit(self, tmp_path, capsys):
        # Irrational atoms: the interval residual at 256 bits is about 2e-69.
        path = write_json(tmp_path, "s.json", {"sequence": IRRATIONAL_SEQUENCE})
        code, _, err = run(capsys, ["measure", path, "--tol", "1e-200"])
        assert code == 4
        assert json.loads(err)["kind"] == "precision_exhausted"

    def test_rational_atoms_meet_any_tolerance(self, tmp_path, capsys):
        # Atoms 0 and 1: the exact residual is 0, so even --tol 0 passes.
        path = write_json(
            tmp_path, "s.json", {"sequence": ["2", "1", "1", "1", "1", "1"]}
        )
        for tol in ("1e-200", "0"):
            payload = run_ok(capsys, ["measure", path, "--tol", tol])
            assert payload["residual"] == "0.0"
            assert [(a["exact_location"], a["exact_weight"]) for a in payload["atoms"]] == [("0", "1"), ("1", "1")]


# Recorded CLI output (exit code, stdout, stderr) of measure on pinned_moments(r),
# the atom-at-zero measure and irrational documents; a faster measure must leave
# every printed byte alone.  Rational atoms print exact weights and residual 0.0.
PINNED_MEASURE_OUTPUTS = Path(__file__).parent / "data" / "measure_cli_outputs.json"


def pinned_moments(r):
    """s_0..s_{2r+1} of r atoms n/7 spread over [-60/7, 60/7], weights b/c with c <= 4."""
    width = 120 // r
    atoms = [
        (Fraction(-60 + i * width + (3 * i) % width, 7), Fraction(5 + i % 5, 1 + i % 4)) for i in range(r)
    ]
    return [str(sum((w * x**n for x, w in atoms), Fraction(0))) for n in range(2 * r + 2)]


# Atoms -9/7, 0, 1/7, 5/7, 2 with weights 2, 1, 3, 1, 1/2: the root 0 is a grid
# point and the left end of the cell that isolates 1/7.
ATOM_AT_ZERO = [(Fraction(-9, 7), 2), (Fraction(0), 1), (Fraction(1, 7), 3), (Fraction(5, 7), 1), (Fraction(2), Fraction(1, 2))]


# Seven irrational atoms (the CI workflow's "Irrational measure" document): +-sqrt(2)
# with weight 1, 1 +- sqrt(3) with 1/3 and the roots of x^3 - 3x + 1 with 2.
IRRATIONAL_SEQUENCE = [
    "26/3", "2/3", "56/3", "2/3", "188/3", "62/3", "806/3", "758/3",
    "4316/3", "7004/3", "27086/3", "57752/3", "185966/3", "452090/3", "1335026/3", "3452672/3",
]


def gauss_moments():
    """s_0..s_13 of the six-node Gauss rule of rational Jacobi data: its nodes
    are the (irrational) roots of P_6, its moments rational."""
    jacobi = JacobiCoeffs(
        tuple(Fraction(v) for v in ("1/2", "-1/3", "0", "1/4", "-1/5", "1/6")),
        tuple(Fraction(v) for v in ("2", "1/2", "1", "3/2", "2", "5/2")),
    )
    return [str(t) for t in approx_sequence(moments_from_jacobi(jacobi), 6, 13).terms]


class TestMeasurePinnedOutput:
    @pytest.mark.parametrize("r", [3, 7, 12])
    @pytest.mark.parametrize("bits", [256, 64, 1024])  # the exact residual 0 meets 1e-20 at 64 bits too
    def test_byte_identical(self, tmp_path, capsys, r, bits):
        expected = json.loads(PINNED_MEASURE_OUTPUTS.read_text(encoding="utf-8"))[f"rank{r}-{bits}bits"]
        path = write_json(tmp_path, "s.json", {"sequence": pinned_moments(r)})
        code, out, err = run(capsys, ["measure", path, "--precision-bits", str(bits)])
        assert code == expected["exit"] == 0
        assert out == expected["stdout"]
        assert err == expected["stderr"]

    @pytest.mark.parametrize("bits", [64, 256])
    def test_atom_at_zero_byte_identical(self, tmp_path, capsys, bits):
        # --tol 1e-10 lets the 64-bit run print its enclosures too.
        expected = json.loads(PINNED_MEASURE_OUTPUTS.read_text(encoding="utf-8"))[f"atom-at-zero-{bits}bits"]
        moments = moments_of_atoms(ATOM_AT_ZERO, 2 * len(ATOM_AT_ZERO) + 1)
        path = write_json(tmp_path, "s.json", {"sequence": [str(t) for t in moments.terms]})
        code, out, err = run(capsys, ["measure", path, "--precision-bits", str(bits), "--tol", "1e-10"])
        assert code == expected["exit"] == 0
        assert out == expected["stdout"]
        assert err == expected["stderr"]

    @pytest.mark.parametrize("bits", [64, 256, 1024])  # at 64 bits the residual misses 1e-20: exit 4
    def test_irrational_byte_identical(self, tmp_path, capsys, bits):
        expected = json.loads(PINNED_MEASURE_OUTPUTS.read_text(encoding="utf-8"))[f"irrational7-{bits}bits"]
        path = write_json(tmp_path, "s.json", {"sequence": IRRATIONAL_SEQUENCE})
        code, out, err = run(capsys, ["measure", path, "--precision-bits", str(bits)])
        assert code == expected["exit"] == (4 if bits == 64 else 0)
        assert out == expected["stdout"]
        assert err == expected["stderr"]

    def test_gauss_nodes_byte_identical(self, tmp_path, capsys):
        expected = json.loads(PINNED_MEASURE_OUTPUTS.read_text(encoding="utf-8"))["gauss6-256bits"]
        path = write_json(tmp_path, "s.json", {"sequence": gauss_moments()})
        code, out, err = run(capsys, ["measure", path, "--precision-bits", "256"])
        assert code == expected["exit"] == 0
        assert out == expected["stdout"]
        assert err == expected["stderr"]


# Recorded CLI output (exit code, stdout, stderr) of the commands that read one
# Hankel scan, on pinned_prefixes(); a faster scan must leave every byte alone.
PINNED_SCAN_OUTPUTS = Path(__file__).parent / "data" / "scan_cli_outputs.json"
SCAN_COMMANDS = {"det": [], "jacobi": [], "poly": ["--max-n", "8"], "rank": [], "profile": []}


def pinned_prefixes():
    """Six fixed prefixes, by name, as rational strings."""
    rng = random.Random(40)
    generic = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(40)]
    # Zero runs of lengths 3, 1 and 3 in D_n, closed by negative and positive u.
    zero_runs = [Fraction(v) for v in (1, 0, 0, 0, 0, 2, 1, -1, 0, 3, 1, 1, -1, 0, 0, 2, 0, 0, 0, 0)]
    zero_runs += [Fraction(v) for v in (-3, 1, -1, 0, 0, 5, 2, -7, 1, 0, 3, 1)]
    zero_first = [Fraction(0)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(19)]
    finite_rank = [Fraction(1), Fraction(1, 2), Fraction(-1)]
    while len(finite_rank) < 24:
        finite_rank.append(finite_rank[-3] - 2 * finite_rank[-2] + finite_rank[-1] / 2)
    ends_in_zero_run = [Fraction(v) for v in (2, 1, -1)] + [Fraction(1, 2), Fraction(3)] + [Fraction(0)] * 11
    late_denominators = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(14)]
    late_denominators += [Fraction(rng.getrandbits(40) - 2**39, 2**300 * 3**190) for _ in range(2)]
    cases = {
        "generic40": generic,
        "zero_runs": zero_runs,
        "zero_first": zero_first,
        "finite_rank": finite_rank,
        "ends_in_zero_run": ends_in_zero_run,
        "late_600bit_denominators": late_denominators,
    }
    return {name: [str(v) for v in values] for name, values in cases.items()}


class TestScanCommandsPinnedOutput:
    @pytest.mark.parametrize("command", list(SCAN_COMMANDS))
    @pytest.mark.parametrize("name", list(pinned_prefixes()))
    def test_byte_identical(self, tmp_path, capsys, name, command):
        expected = json.loads(PINNED_SCAN_OUTPUTS.read_text(encoding="utf-8"))[f"{name}-{command}"]
        path = write_json(tmp_path, "s.json", {"sequence": pinned_prefixes()[name]})
        code, out, err = run(capsys, [command, path, *SCAN_COMMANDS[command]])
        assert code == expected["exit"]
        assert out == expected["stdout"]
        assert err == expected["stderr"]


class TestUsageAndParsing:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert json.loads(err)["kind"] == "UsageError"

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate", "x.json"])
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["det", "/nonexistent/path.json"])
        assert code == 2
        assert json.loads(err)["kind"] == "parse_error"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["det", str(path)])
        assert code == 2

    def test_input_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"sequence": ["1", "\xff"]}')
        code, out, err = run(capsys, ["det", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["kind"] == "parse_error"

    def test_deeply_nested_json_is_parse_error(self, tmp_path, capsys):
        depth = 200_000
        path = tmp_path / "deep.json"
        path.write_text('{"sequence": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run(capsys, ["det", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["kind"] == "parse_error"

    def test_unquoted_integer_past_the_digit_limit_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"sequence": [1, ' + "7" * 5000 + "]}")
        code, out, err = run(capsys, ["det", str(path)])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["kind"] == "parse_error"
        assert error["error"] == "malformed JSON: a number has over 4300 digits"

    def test_wrong_shape(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"values": ["1"]})
        code, _, err = run(capsys, ["det", path])
        assert code == 2

    def test_float_literal_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": [1.5]})
        code, _, err = run(capsys, ["det", path])
        assert code == 2

    def test_oversized_exponent_is_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["1", "1e200000", "3/2"]})
        code, out, err = run(capsys, ["det", path])
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "parse_error"

    def test_precision_cap(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["1", "0", "-2"]})
        for bits in (str(MAX_PRECISION_BITS + 1), "1e3"):
            code, out, err = run(capsys, ["solve", path, "--construct", "--precision-bits", bits])
            assert (code, out) == (1, "")
            error = json.loads(err)
            assert error["kind"] == "UsageError"
            assert "precision" in error["error"] and "_precision" not in error["error"]

    @pytest.mark.parametrize(
        "argv, sequence, message",
        [
            (["poly", "--max-n", "-1"], ["2", "1", "1"], "--max-n must be >= 0"),
            (["jacobi"], ["2"], "--max-n must be >= 1 (or provide at least 2 terms)"),
            (["approx", "--r", "1", "--len", "0"], ["2", "1", "1"], "--len must be >= 1"),
        ],
    )
    def test_count_below_its_floor_is_usage_error(self, tmp_path, capsys, argv, sequence, message):
        path = write_json(tmp_path, "s.json", {"sequence": sequence})
        code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": message, "kind": "UsageError"}

    def test_precision_floor(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"target": ["1", "0", "-2"]})
        code, _, _ = run(
            capsys, ["solve", path, "--construct", "--precision-bits", "4"]
        )
        assert code == 1


class TestLengthCap:
    def test_input_list_past_the_cap_is_parse_error(self, tmp_path, capsys):
        ones = ["1"] * (MAX_TERMS + 1)
        for argv, doc in (
            (["det"], {"sequence": ones}),
            (["solve"], {"target": ones}),
            (["jacobi", "--invert"], {"a": ones, "b": ones}),
        ):
            code, out, err = run(capsys, argv + [write_json(tmp_path, "big.json", doc)])
            assert (code, out) == (2, "")
            assert json.loads(err)["kind"] == "parse_error"
        at_cap = write_json(tmp_path, "s.json", {"sequence": ones[:MAX_TERMS]})
        assert len(run_ok(capsys, ["det", at_cap])["D"]) == (MAX_TERMS - 1) // 2 + 1

    def test_count_flag_past_the_cap_is_usage_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "s.json", {"sequence": ["1", "3", "2", "5"]})
        for argv in (
            ["approx", "--r", "2", "--len", str(MAX_TERMS + 1)],
            ["poly", "--max-n", str(MAX_TERMS + 1)],
            ["jacobi", "--max-n", str(MAX_TERMS + 1)],
        ):
            code, out, err = run(capsys, argv + [path])
            assert (code, out) == (1, "")
            assert json.loads(err)["kind"] == "UsageError"
        payload = run_ok(capsys, ["approx", "--r", "2", "--len", str(MAX_TERMS), path])
        assert len(payload["sequence"]) == MAX_TERMS


# Every command that reads {"sequence": [...]}, with the options it needs.
SEQUENCE_COMMANDS = [["det"], ["poly"], ["jacobi"], ["approx", "--r", "1"], ["rank"], ["profile"], ["measure"]]


class TestEmptySequence:
    @pytest.mark.parametrize("argv", SEQUENCE_COMMANDS, ids=lambda argv: argv[0])
    def test_rejected_as_parse_error(self, tmp_path, capsys, argv):
        path = write_json(tmp_path, "s.json", {"sequence": []})
        code, out, err = run(capsys, argv + [path])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": '"sequence" is empty; at least one term is needed',
            "kind": "parse_error",
        }


# Argument lists after a command and its input file; None stands for the command alone.
COMMAND_TAILS = [None, [], ["-h"], ["--bogus"], ["extra"], ["--r", "x"], ["--r", "1"],
                 ["--max-n", "x"], ["--max", "1"], ["--len", "2", "--r", "1"], ["--invert"],
                 ["--con"], ["--p", "zeros"], ["--precision-bits", "7"], ["--prec", "64"],
                 ["--precision-bits", "1e3"], ["--tol", "abc"], ["--tol", "-1"], ["--tol", "1e-9"]]
# Argument lists whose first entry is not a command.
NO_COMMAND = [[], ["-h"], ["--help"], ["--"], ["--", "det", "x.json"], ["frobnicate", "x.json"],
              ["de", "x.json"], ["DET", "x.json"], ["-x"], ["--det", "x.json"]]


def differential_cases():
    yield from NO_COMMAND
    for name in COMMANDS:
        for tail in COMMAND_TAILS:
            yield [name] if tail is None else [name, "<input>"] + tail


class TestPerCommandParser:
    """main builds one parser holding every command on first use and keeps it
    for the process; on each command line it must act as a new full parser."""

    @staticmethod
    def argv_with_inputs(tmp_path, argv):
        moments = write_json(tmp_path, "s.json", {"sequence": ["2", "1", "1", "1", "1", "1"]})
        targets = write_json(tmp_path, "t.json", {"target": ["2", "1"]})
        return [(targets if argv[0] == "solve" else moments) if a == "<input>" else a for a in argv]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # -h prints help and exits
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", list(differential_cases()), ids=" ".join)
    def test_matches_the_full_parser(self, tmp_path, capsys, monkeypatch, argv):
        argv = self.argv_with_inputs(tmp_path, argv)
        monkeypatch.setattr(cli, "PARSER", None)
        for other in (["-h"], ["measure", "--bogus"], ["solve", "-h"],
                      ["solve", "<input>", "--tol", "1e-30", "--policy", "seed:1"],
                      ["poly", "<input>", "--max-n", "1"]):
            self.outcome(capsys, self.argv_with_inputs(tmp_path, other))
        kept = cli.PARSER
        got = self.outcome(capsys, argv)
        assert cli.PARSER is kept
        monkeypatch.setattr(cli, "PARSER", None)
        assert got == self.outcome(capsys, argv)
        sub = next(a for a in kept._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMANDS)

    def test_kept_parsers_answer_every_call_alike(self, tmp_path, capsys, monkeypatch):
        built = []

        def spy():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.setattr(cli, "PARSER", None)
        for argv in differential_cases():
            argv = self.argv_with_inputs(tmp_path, argv)
            head = argv[:1] if argv and argv[0] in COMMANDS else []
            usage_error, help_request = head + ["--bogus"], head + ["-h"]
            first = self.outcome(capsys, argv)
            for other in (usage_error, help_request):
                code, _, _ = self.outcome(capsys, other)
                assert code in (0, 1)
                assert self.outcome(capsys, argv) == first, argv
        assert len(built) == 1

    def test_commands_keep_their_own_defaults(self):
        parser = build_parser()

        def parse(*argv):
            return parser.parse_args([argv[0], "x.json", *argv[1:]])

        assert parse("measure").tol == MEASURE_TOLERANCE
        assert parse("solve", "--tol", "1e-5").tol == "1e-5"
        assert parse("measure").tol == MEASURE_TOLERANCE
        assert parse("solve").tol == DEFAULT_TOLERANCE
        assert parse("poly", "--max-n", "3").max_n == 3
        assert parse("jacobi").max_n is None
        assert parse("solve", "--policy", "seed:1").policy == "seed:1"
        assert parse("solve").policy is None


# Atoms n/7 whose 64-bit numeric weights differ by rounding alone; at 256 bits they agree.
ROUNDING_ATOMS = [(Fraction(n, 7), Fraction(1, 2) if n == 22 else Fraction(1, 4))
                  for n in (0, 3, 9, 13, 16, 18, 20, 21, 22, 23, 24)]


def with_conjugate_pair(atoms, c, d, w, m_max):
    """s_0..s_m_max of the rational atoms plus the atoms c +- sqrt(d), weight w each."""
    pair = [2 * w * sum(math.comb(n, j) * c ** (n - j) * d ** (j // 2) for j in range(0, n + 1, 2))
            for n in range(m_max + 1)]
    return [str(t + p) for t, p in zip(moments_of_atoms(atoms, m_max).terms, pair)]


class TestWeightMismatchExit:
    def test_precision_exit_then_success_with_more_bits(self, tmp_path, capsys):
        # ROUNDING_ATOMS with 0 traded for the irrational pair (4 +- sqrt(2)) / 7:
        # the weights are computed numerically, and at 64 bits they still miss.
        atoms = ROUNDING_ATOMS[1:]
        sequence = with_conjugate_pair(atoms, Fraction(4, 7), Fraction(2, 49), Fraction(1, 4), 2 * len(atoms) + 5)
        path = write_json(tmp_path, "s.json", {"sequence": sequence})
        code, out, err = run(capsys, ["measure", path, "--precision-bits", "64"])
        assert (code, out) == (4, "")
        assert json.loads(err)["kind"] == "weight_mismatch"
        payload = run_ok(capsys, ["measure", path, "--precision-bits", "256"])
        assert payload["r"] == len(atoms) + 2
        assert "exact_weight" not in payload["atoms"][0]

    def test_rational_rounding_atoms_are_exact_at_64_bits(self, tmp_path, capsys):
        s = moments_of_atoms(ROUNDING_ATOMS, 2 * len(ROUNDING_ATOMS) + 1)
        path = write_json(tmp_path, "s.json", s.to_json())
        payload = run_ok(capsys, ["measure", path, "--precision-bits", "64"])
        assert payload["residual"] == "0.0"
        assert [Fraction(a["exact_weight"]) for a in payload["atoms"]] == [w for _, w in ROUNDING_ATOMS]


class TestRejectedEntryQuotedShort:
    @pytest.mark.parametrize("argv, doc", [
        (["det"], {"sequence": ["1", ["7"] * 100_000]}),
        (["det"], {"sequence": ["1", "1" * 100_000]}),
        (["solve"], {"target": ["1", "1" * 50_000]}),
    ], ids=["det-nested-list", "det-long-digits", "solve-long-target"])
    def test_parse_error_under_a_kilobyte(self, tmp_path, capsys, argv, doc):
        code, out, err = run(capsys, argv + [write_json(tmp_path, "big.json", doc)])
        assert (code, out) == (2, "")
        assert json.loads(err)["kind"] == "parse_error"
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("policy", ["x" * 50_000, "seed:" + "x" * 50_000])
    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_long_policy_under_a_kilobyte(self, tmp_path, capsys, policy, where):
        doc = {"target": ["2", "1"]}
        argv = ["solve", "--construct"]
        if where == "file":
            doc["policy"] = policy
        else:
            argv += ["--policy", policy]
        code, out, err = run(capsys, argv + [write_json(tmp_path, "t.json", doc)])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["kind"] == "parse_error"
        assert "policy 'seed:xxx" in error["error"] or "policy 'xxx" in error["error"]
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("entry, message", [
        ("abc", "not a rational: 'abc'"),
        (["2"], "not a rational: ['2'] (floats are not accepted; use strings)"),
        (1.5, "not a rational: 1.5 (floats are not accepted; use strings)"),
    ])
    def test_short_entries_are_quoted_whole(self, tmp_path, capsys, entry, message):
        path = write_json(tmp_path, "s.json", {"sequence": ["1", entry]})
        code, _, err = run(capsys, ["det", path])
        assert code == 2
        assert json.loads(err)["error"] == message
