"""Command-line front end.

Eight subcommands map one-to-one onto the library's capabilities:

    det      determinant profile {D_n} and {D'_n} of a sequence
    poly     determinant polynomials P_n and second-kind Q_n up to --max-n
    jacobi   three-term recurrence coefficients (or moments with --invert)
    approx   the rank-r approximating sequence, --r and --len
    rank     finite-rank certificate
    profile  degree structure of the P_n family
    solve    Frobenius solvability report; --construct builds a solution
    measure  discrete-measure recovery plus verified moment residual

Inputs are JSON files ({"sequence": [...]}, {"target": [...]}, or
{"a": [...], "b": [...]} for jacobi --invert); every numeric value is a
string, exact rationals as "p/q" and reals as decimals.  Results go to
standard output only; errors are machine-readable JSON on standard error.
Exit codes: 0 success, 1 usage, 2 parse, 3 precondition violation,
4 precision exhausted.  Input lists and --len / --max-n are capped at
MAX_TERMS, --r must lie in 1..MAX_TERMS, and an empty "sequence" is a parse
error.

main builds its parser on first use and keeps it for the life of the process:
building it costs about a third of a short document's whole run, and argparse
does not change a parser by parsing with it.

At load time this module imports only the exact core, so a call pays for
the modules its command computes with and no more: each command imports its
own layer when it runs.  measure loads mpmath; solve loads it only to build
in big-float arithmetic or to check a --tol given on the command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .core import MomentSequence, determinant_transform
from .errors import HankelError, NotSolvable, ParseError, PrecisionExhausted
from .scalars import DEFAULT_TOLERANCE, MAX_RATIONAL_DIGITS, MIN_PRECISION_BITS

MEASURE_TOLERANCE = "1e-20"
# Recovering a rank-12 measure takes seconds at 2^16 bits, and the cost grows
# faster than the precision; a larger request would look like a hang.
MAX_PRECISION_BITS = 65536
# The most entries an input list (sequence, target, Jacobi a or b) may have, and the
# largest --r, --len or --max-n.  At 200 random one-digit rationals every command takes
# under 4 s on a 2-vCPU host (jacobi --invert about 0.1 s).
MAX_TERMS = 200


class _UsageError(HankelError):
    kind = "UsageError"
    exit_code = 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1 with JSON."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


PRECISION_HELP = (
    f"working precision in bits, {MIN_PRECISION_BITS} to {MAX_PRECISION_BITS} (default: 256)"
)


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid precision {text!r}") from None
    if not MIN_PRECISION_BITS <= value <= MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(
            f"precision must be {MIN_PRECISION_BITS} to {MAX_PRECISION_BITS} bits"
        )
    return value


def _tolerance(text: str) -> str:
    """Check a --tol value up front; the computation reads the string itself.

    argparse passes a string default through this check too: the two defaults
    are known good and go through without loading mpmath."""
    if text is DEFAULT_TOLERANCE or text is MEASURE_TOLERANCE:
        return text
    from mpmath import mp

    try:
        value = mp.mpf(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not mp.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("tolerance must be a finite number >= 0")
    return text


# The subcommands in help order: name -> (help text, options after "input" as
# (flag, add_argument keywords) pairs).
COMMANDS = {
    "det": ("Hankel determinant profile of a sequence", ()),
    "poly": ("determinant polynomials P_n and Q_n", (
        ("--max-n", dict(type=int, default=None, help="largest n (default: all computable)")),
    )),
    "jacobi": ("three-term recurrence coefficients from moments", (
        ("--max-n", dict(type=int, default=None, help="number of coefficient pairs")),
        ("--invert", dict(action="store_true", help="input is {a,b}; output moments")),
    )),
    "approx": ("rank-r approximating sequence", (
        ("--r", dict(type=int, required=True, help="approximation rank")),
        ("--len", dict(type=int, default=None, dest="length", help="output term count (default: input length)")),
    )),
    "rank": ("finite-rank certificate", ()),
    "profile": ("degree structure of the P_n family", ()),
    "solve": ("Frobenius solvability of prescribed determinants", (
        ("--construct", dict(action="store_true", help="also build a solution")),
        ("--policy", dict(type=str, default=None, help="free entries: zeros | seed:<u64>")),
        ("--precision-bits", dict(type=_precision, default=256, help=PRECISION_HELP)),
        ("--tol", dict(type=_tolerance, default=DEFAULT_TOLERANCE)),
    )),
    "measure": ("recover the representing discrete measure", (
        ("--precision-bits", dict(type=_precision, default=256, help=PRECISION_HELP)),
        ("--tol", dict(type=_tolerance, default=MEASURE_TOLERANCE)),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """A new CLI parser holding every subcommand."""
    parser = _Parser(prog="hankelkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="path to the input JSON file")
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
    return parser


# The parser main has built, if it has run.
PARSER: Optional[argparse.ArgumentParser] = None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply") from None
    except ValueError:  # json reads an unquoted integer with int(), which has a digit limit
        raise ParseError(f"malformed JSON: a number has over {MAX_RATIONAL_DIGITS} digits") from None
    for key, value in doc.items() if isinstance(doc, dict) else ():
        if isinstance(value, list) and len(value) > MAX_TERMS:
            raise ParseError(f'"{key}" has {len(value)} entries; at most {MAX_TERMS} are allowed')
    if isinstance(doc, dict) and doc.get("sequence") == []:
        raise ParseError('"sequence" is empty; at least one term is needed')
    return doc


def _capped(value: int, flag: str) -> int:
    if value > MAX_TERMS:
        raise _UsageError(f"{flag} must be <= {MAX_TERMS}")
    return value


def _sequence(path: str) -> MomentSequence:
    return MomentSequence.from_json(_load_json(path))


def _dispatch(args) -> dict:
    if args.command == "det":
        return determinant_transform(_sequence(args.input)).to_json()

    if args.command == "poly":
        from .polynomials import p_family, second_kind

        seq = _sequence(args.input)
        max_n = len(seq) // 2 if args.max_n is None else _capped(args.max_n, "--max-n")
        if max_n < 0:
            raise _UsageError("--max-n must be >= 0")
        family = p_family(seq, max_n)
        return {
            "P": [p.to_json() for p in family],
            "Q": [second_kind(seq, p).to_json() for p in family],
        }

    if args.command == "jacobi":
        from .polynomials import JacobiCoeffs, jacobi_from_moments, moments_from_jacobi

        payload = _load_json(args.input)
        if args.invert:
            coeffs = JacobiCoeffs.from_json(payload)
            return moments_from_jacobi(coeffs).to_json()
        seq = MomentSequence.from_json(payload)
        n_terms = len(seq) // 2 if args.max_n is None else _capped(args.max_n, "--max-n")
        if n_terms < 1:
            raise _UsageError("--max-n must be >= 1 (or provide at least 2 terms)")
        return jacobi_from_moments(seq, n_terms).to_json()

    if args.command == "approx":
        from .approximants import approx_sequence

        seq = _sequence(args.input)
        r = _capped(args.r, "--r")
        if r < 1:
            raise _UsageError("--r must be >= 1")
        length = len(seq) if args.length is None else _capped(args.length, "--len")
        if length < 1:
            raise _UsageError("--len must be >= 1")
        return approx_sequence(seq, r, length - 1).to_json()

    if args.command == "rank":
        from .rank import hankel_rank

        return hankel_rank(_sequence(args.input)).to_json()

    if args.command == "profile":
        from .approximants import degree_profile

        return degree_profile(_sequence(args.input)).to_json()

    if args.command == "solve":
        from .inverse import FreePolicy, TargetSequence, frobenius_check, solve_inverse

        payload = _load_json(args.input)
        targets = TargetSequence.from_json(payload)
        if not args.construct:
            report = frobenius_check(targets)
            if not report.solvable:
                raise NotSolvable(report)
            return report.to_json()
        policy = payload.get("policy", "zeros") if args.policy is None else args.policy
        if not isinstance(policy, str):
            raise ParseError('"policy" must be a string: zeros or seed:<u64>')
        solution = solve_inverse(
            targets,
            free_policy=FreePolicy.parse(policy),
            precision_bits=args.precision_bits,
            tol=args.tol,
        )
        result = solution.to_json()
        result["report"] = solution.report.to_json()
        return result

    if args.command == "measure":
        from mpmath import mp

        from .measures import recover_measure, verify_moments

        seq = _sequence(args.input)
        measure = recover_measure(seq, precision_bits=args.precision_bits)
        residual = verify_moments(measure, seq, precision_bits=args.precision_bits)
        # The residual is an upper bound; tol rounded down keeps the comparison certified.
        if residual.value > mp.mpf(args.tol, prec=args.precision_bits, rounding="d"):
            raise PrecisionExhausted(args.precision_bits, mp.nstr(residual.value, 10), args.tol)
        result = measure.to_json()
        result["residual"] = residual.to_str()
        result["precision_bits"] = args.precision_bits
        return result

    raise _UsageError(f"unknown command {args.command!r}")


def _emit_error(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, indent=2) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    global PARSER
    if PARSER is None:
        PARSER = build_parser()
    try:
        payload = _dispatch(PARSER.parse_args(argv))  # None: argparse reads sys.argv
    except HankelError as exc:
        _emit_error(exc.to_json())
        return exc.exit_code
    except ValueError as exc:
        _emit_error({"error": str(exc), "kind": "Precondition"})
        return 3
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
