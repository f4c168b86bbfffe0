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
"""

from .core import (
    DeterminantProfile,
    HankelScan,
    HankelScanner,
    MomentSequence,
    as_moments,
    binomial_transform,
    determinant_transform,
    hankel_det,
    hankel_matrix,
    hankel_minor,
    hankel_scan,
    matrix_rank,
    shifted_det,
)
from .errors import (
    DegreeViolation,
    GapHypothesisViolated,
    HankelError,
    IndexOutOfRange,
    NonConstantResidual,
    NonPositiveWeight,
    NotPSDFlat,
    NotQuasiDefinite,
    NotSolvable,
    ParseError,
    PrecisionExhausted,
    RootCountMismatch,
    SingularLeadingMinor,
    WeightMismatch,
    ZeroB,
    ZeroSequence,
    ZeroTarget,
)
from .polynomials import (
    JacobiCoeffs,
    Polynomial,
    apply_L,
    frobenius_recurrence_residual,
    jacobi_from_moments,
    kronecker_residual,
    moments_from_jacobi,
    p_family,
    poly_P,
    poly_Q,
    second_kind,
    solve_prescribed,
)
from .approximants import (
    ApproxRecurrence,
    BlockStep,
    ExceedsHorizon,
    StructureReport,
    approx_sequence,
    characteristic,
    degree_profile,
    gap_determinant,
    recurrence_coeffs,
    shifted_gap_det,
    shifted_recurrence_coeffs,
)
from .rank import (
    RankCertificate,
    RationalForm,
    expand_rational,
    finite_rank_checks,
    growth_estimate,
    hankel_rank,
    rational_form,
)
from .inverse import (
    ZEROS,
    FreePolicy,
    InverseSolution,
    SolvabilityReport,
    TargetSequence,
    frobenius_check,
    solve_inverse,
)
from .measures import (
    Atom,
    DiscreteMeasure,
    Interval,
    cauchy_bound,
    cd_identity_residual,
    isolate_real_roots,
    moments_of_atoms,
    psd_finite_rank_check,
    recover_measure,
    verify_moments,
)
from .scalars import RealScalar, exact_kth_root, parse_rational

__version__ = "0.1.0"

__all__ = [
    "ApproxRecurrence",
    "Atom",
    "BlockStep",
    "DegreeViolation",
    "DeterminantProfile",
    "DiscreteMeasure",
    "ExceedsHorizon",
    "FreePolicy",
    "GapHypothesisViolated",
    "HankelError",
    "HankelScan",
    "HankelScanner",
    "IndexOutOfRange",
    "Interval",
    "InverseSolution",
    "JacobiCoeffs",
    "MomentSequence",
    "NonConstantResidual",
    "NonPositiveWeight",
    "NotPSDFlat",
    "NotQuasiDefinite",
    "NotSolvable",
    "ParseError",
    "Polynomial",
    "PrecisionExhausted",
    "RankCertificate",
    "RationalForm",
    "RealScalar",
    "RootCountMismatch",
    "SingularLeadingMinor",
    "SolvabilityReport",
    "StructureReport",
    "TargetSequence",
    "WeightMismatch",
    "ZeroB",
    "ZEROS",
    "ZeroSequence",
    "ZeroTarget",
    "apply_L",
    "approx_sequence",
    "as_moments",
    "binomial_transform",
    "cauchy_bound",
    "cd_identity_residual",
    "characteristic",
    "degree_profile",
    "determinant_transform",
    "exact_kth_root",
    "expand_rational",
    "finite_rank_checks",
    "frobenius_check",
    "frobenius_recurrence_residual",
    "gap_determinant",
    "growth_estimate",
    "hankel_det",
    "hankel_matrix",
    "hankel_minor",
    "hankel_scan",
    "hankel_rank",
    "isolate_real_roots",
    "jacobi_from_moments",
    "kronecker_residual",
    "matrix_rank",
    "moments_from_jacobi",
    "moments_of_atoms",
    "p_family",
    "parse_rational",
    "poly_P",
    "poly_Q",
    "psd_finite_rank_check",
    "rational_form",
    "recover_measure",
    "recurrence_coeffs",
    "second_kind",
    "shifted_det",
    "shifted_gap_det",
    "shifted_recurrence_coeffs",
    "solve_inverse",
    "solve_prescribed",
    "verify_moments",
]
