"""Exact Hankel determinant calculus for rational moment sequences.

Everything is computed over the rationals unless a value is genuinely
irrational (roots in the inverse construction, atom locations), in which case
arbitrary-precision floats with explicit precision take over.  The package
covers:

- determinant profiles D_n and shifted D'_n of a sequence (:mod:`.core`);
- determinant polynomials P_n, second-kind Q_n, the moment functional,
  Jacobi recurrence data, and prescribed-determinant moment recovery
  (:mod:`.polynomials`);
- rank-r approximating sequences, gap determinant formulas, and the degree
  structure of the P_n family (:mod:`.approximants`);
- finite-rank certificates and rational generating functions (:mod:`.rank`);
- the prescribed Hankel determinant problem: Frobenius sign conditions and
  a verified constructive solver (:mod:`.inverse`);
- discrete-measure recovery from positive-definite flat prefixes with
  certified moment verification (:mod:`.measures`).

The namespace is lazy (PEP 562): ``import hankelkit`` loads no submodule.
The first access to a public name imports the module that defines it and
keeps the name here, so a caller of the exact layers never loads the
big-float ones or ``mpmath``.  ``hankelkit.core`` and the other modules that
define public names are reachable as attributes too.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The module that defines each public name, in __all__ order.
_MODULES = {
    "ApproxRecurrence":              "approximants",
    "Atom":                          "measures",
    "BlockStep":                     "approximants",
    "DegreeViolation":               "errors",
    "DeterminantProfile":            "core",
    "DiscreteMeasure":               "measures",
    "ExceedsHorizon":                "approximants",
    "FreePolicy":                    "inverse",
    "GapHypothesisViolated":         "errors",
    "HankelError":                   "errors",
    "HankelScan":                    "core",
    "HankelScanner":                 "core",
    "IndexOutOfRange":               "errors",
    "Interval":                      "measures",
    "InverseSolution":               "inverse",
    "JacobiCoeffs":                  "polynomials",
    "MomentSequence":                "core",
    "NonConstantResidual":           "errors",
    "NonPositiveWeight":             "errors",
    "NotPSDFlat":                    "errors",
    "NotQuasiDefinite":              "errors",
    "NotSolvable":                   "errors",
    "ParseError":                    "errors",
    "Polynomial":                    "polynomials",
    "PrecisionExhausted":            "errors",
    "RankCertificate":               "rank",
    "RationalForm":                  "rank",
    "RealScalar":                    "scalars",
    "RootCountMismatch":             "errors",
    "SingularLeadingMinor":          "errors",
    "SolvabilityReport":             "inverse",
    "StructureReport":               "approximants",
    "TargetSequence":                "inverse",
    "WeightMismatch":                "errors",
    "ZeroB":                         "errors",
    "ZEROS":                         "inverse",
    "ZeroSequence":                  "errors",
    "ZeroTarget":                    "errors",
    "apply_L":                       "polynomials",
    "approx_sequence":               "approximants",
    "as_moments":                    "core",
    "binomial_transform":            "core",
    "cauchy_bound":                  "measures",
    "cd_identity_residual":          "measures",
    "characteristic":                "approximants",
    "degree_profile":                "approximants",
    "determinant_transform":         "core",
    "exact_kth_root":                "scalars",
    "expand_rational":               "rank",
    "finite_rank_checks":            "rank",
    "frobenius_check":               "inverse",
    "frobenius_recurrence_residual": "polynomials",
    "gap_determinant":               "approximants",
    "growth_estimate":               "rank",
    "hankel_det":                    "core",
    "hankel_matrix":                 "core",
    "hankel_minor":                  "core",
    "hankel_scan":                   "core",
    "hankel_rank":                   "rank",
    "isolate_real_roots":            "measures",
    "jacobi_from_moments":           "polynomials",
    "kronecker_residual":            "polynomials",
    "matrix_rank":                   "core",
    "moments_from_jacobi":           "polynomials",
    "moments_of_atoms":              "measures",
    "p_family":                      "polynomials",
    "parse_rational":                "scalars",
    "poly_P":                        "polynomials",
    "poly_Q":                        "polynomials",
    "psd_finite_rank_check":         "measures",
    "rational_form":                 "rank",
    "recover_measure":               "measures",
    "recurrence_coeffs":             "approximants",
    "second_kind":                   "polynomials",
    "shifted_det":                   "core",
    "shifted_gap_det":               "approximants",
    "shifted_recurrence_coeffs":     "approximants",
    "solve_inverse":                 "inverse",
    "solve_prescribed":              "polynomials",
    "verify_moments":                "measures",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is not None:
        value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
        return value
    if name in _MODULES.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
