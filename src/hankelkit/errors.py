"""Error types shared across the library.

Every domain error carries a machine-readable ``kind`` tag and a parameter
mapping so front ends (notably the CLI) can serialize failures uniformly.
``exit_code`` follows the CLI convention: 3 for precondition violations,
4 when a requested tolerance cannot be met at the configured precision
(``PrecisionExhausted``, ``WeightMismatch``).
"""

from __future__ import annotations

from typing import Any

from .printing import format_value


class HankelError(Exception):
    """Base class for all domain errors raised by this package."""

    kind = "error"
    exit_code = 3

    def __init__(self, message: str, **params: Any):
        super().__init__(message)
        self.params = params

    def to_json(self) -> dict:
        doc: dict[str, Any] = {"error": str(self), "kind": self.kind}
        for key, value in self.params.items():
            doc[key] = (
                value
                if isinstance(value, (int, bool, dict, list, type(None)))
                else format_value(value)
            )
        return doc


class IndexOutOfRange(HankelError):
    """An operation needs moments beyond the known prefix."""

    kind = "index_out_of_range"

    def __init__(self, needed: int, horizon: int, what: str = "moment"):
        known = f"only indices 0..{horizon - 1} are known" if horizon else "no terms are known"
        super().__init__(
            f"needs {what} index {needed} but {known}",
            needed=needed,
            horizon=horizon,
        )
        self.needed = needed
        self.horizon = horizon


class NotQuasiDefinite(HankelError):
    """A leading principal Hankel determinant required to be nonzero vanishes."""

    kind = "not_quasi_definite"

    def __init__(self, n: int):
        super().__init__(f"determinant D_{n} vanishes; prefix is not quasi-definite", n=n)
        self.n = n


class SingularLeadingMinor(HankelError):
    """D_{r-1} = 0 where a nonsingular leading section is required."""

    kind = "singular_leading_minor"

    def __init__(self, r: int):
        super().__init__(f"leading determinant D_{r - 1} is zero; order-{r} section is singular", r=r)
        self.r = r


class ZeroB(HankelError):
    """A Jacobi coefficient b_k is zero, breaking quasi-definiteness."""

    kind = "zero_b"

    def __init__(self, k: int):
        super().__init__(f"Jacobi coefficient b_{k} is zero", k=k)
        self.k = k


class ZeroTarget(HankelError):
    """A prescribed determinant target t_n is zero where nonzero is required."""

    kind = "zero_target"

    def __init__(self, n: int):
        super().__init__(f"prescribed determinant target t_{n} is zero", n=n)
        self.n = n


class NonConstantResidual(HankelError):
    """A combination that must be a constant polynomial has positive degree.

    This cannot happen for exact inputs; raising it signals an implementation bug.
    """

    kind = "non_constant_residual"

    def __init__(self, degree: int):
        super().__init__(f"combination has degree {degree}, expected a constant", degree=degree)
        self.degree = degree


class GapHypothesisViolated(HankelError):
    """An intermediate determinant assumed zero in a gap formula is nonzero."""

    kind = "gap_hypothesis_violated"

    def __init__(self, n: int):
        super().__init__(f"determinant D_{n} is nonzero inside the assumed zero gap", n=n)
        self.n = n


class ZeroSequence(HankelError):
    """The all-zero sequence was supplied where structure analysis needs a nonzero one."""

    kind = "zero_sequence"

    def __init__(self) -> None:
        super().__init__("sequence is identically zero on the given prefix")


class NotSolvable(HankelError):
    """The inverse determinant problem has no solution for the given target."""

    kind = "not_solvable"

    def __init__(self, report):
        k, gap, value = report.violation
        super().__init__(
            f"sign condition {k} fails (gap {gap}, value {format_value(value)})",
            k=k,
            gap=gap,
            value=value,
            report=report.to_json(),
        )
        self.report = report


class PrecisionExhausted(HankelError):
    """A certificate tolerance cannot be met at the configured precision."""

    kind = "precision_exhausted"
    exit_code = 4

    def __init__(self, precision_bits: int, residual, tol):
        super().__init__(
            f"residual {format_value(residual)} exceeds tolerance {format_value(tol)}"
            f" at {precision_bits} bits",
            precision_bits=precision_bits,
            residual=residual,
            tol=tol,
        )
        self.precision_bits = precision_bits


class NotPSDFlat(HankelError):
    """The determinant profile is not strictly-positive-then-flat-zero."""

    kind = "not_psd_flat"

    def __init__(self, n: int, value, reason: str = "offending determinant"):
        super().__init__(f"D_{n} = {format_value(value)}: {reason}", n=n, value=value)
        self.n = n
        self.value = value


class RootCountMismatch(HankelError):
    """Fewer distinct real roots than the degree demands."""

    kind = "root_count_mismatch"

    def __init__(self, expected: int, found: int):
        super().__init__(f"expected {expected} distinct real roots, isolated {found}", expected=expected, found=found)
        self.expected = expected
        self.found = found


class WeightMismatch(HankelError):
    """The two weight formulas disagree beyond tolerance at a recovered atom.

    It is raised only after the exact positive-flat check has passed, so the
    formulas can disagree only through rounding: more bits may resolve it.
    """

    kind = "weight_mismatch"
    exit_code = 4

    def __init__(self, index: int, delta):
        super().__init__(
            f"weight formulas disagree at atom {index} by {format_value(delta)}", index=index, delta=delta
        )
        self.index = index


class NonPositiveWeight(HankelError):
    """A recovered weight is not strictly positive."""

    kind = "non_positive_weight"

    def __init__(self, index: int, value):
        super().__init__(
            f"weight at atom {index} is {format_value(value)}, expected > 0", index=index, value=value
        )
        self.index = index


class DegreeViolation(HankelError):
    """A rational form does not satisfy deg q < deg p with p nonzero."""

    kind = "degree_violation"

    def __init__(self, message: str):
        super().__init__(message)


class ParseError(HankelError):
    """Malformed input document."""

    kind = "parse_error"
    exit_code = 2

    def __init__(self, message: str):
        super().__init__(message)
