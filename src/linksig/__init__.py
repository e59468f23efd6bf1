"""Multivariable link signatures, nullities and splitting-number bounds.

The package evaluates the Hermitian form H(omega) attached to a colored
link through generalized Seifert (C-complex) matrices, computes its
signature and nullity exactly or in floating point, scans the torus for
the zero locus, and turns the resulting invariants into lower bounds for
splitting and unlinking numbers.  A constructor for the even family of
2-bridge links and a catalog of worked fixtures ship with it.
"""

from .bounds import (
    BoundReport,
    ComponentInvariants,
    evaluate_fixture,
    linking_number_bound,
    rank_obstruction,
    splitting_bound_lt,
    splitting_bound_multivariable,
    unlinking_bound,
)
from .ccomplex import (
    GeneralizedSeifertSystem,
    SignPattern,
    TorusPoint,
    assemble_h,
    canonical_patterns,
    h_at_minus_ones,
    load_system,
    validate,
)
from .hermitian import (
    DEFAULT_TOL,
    SignatureResult,
    bordered_delta,
    hermitian_signature,
    integer_symmetric_signature,
)
from .invariants import (
    ScanGrid,
    estimate_beta,
    lt_signature_from_multivariable,
    scan_to_csv,
    signature_nullity,
    torus_scan,
    undetected_sigma_jumps,
    write_scan_csv,
)
from .twobridge import ConwayForm, build_gss, h_minus_one_closed_form, predicted_splitting

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ComponentInvariants",
    "ConwayForm",
    "DEFAULT_TOL",
    "GeneralizedSeifertSystem",
    "ScanGrid",
    "SignPattern",
    "SignatureResult",
    "TorusPoint",
    "assemble_h",
    "bordered_delta",
    "build_gss",
    "canonical_patterns",
    "estimate_beta",
    "evaluate_fixture",
    "h_at_minus_ones",
    "h_minus_one_closed_form",
    "hermitian_signature",
    "integer_symmetric_signature",
    "linking_number_bound",
    "load_system",
    "lt_signature_from_multivariable",
    "predicted_splitting",
    "rank_obstruction",
    "scan_to_csv",
    "signature_nullity",
    "splitting_bound_lt",
    "splitting_bound_multivariable",
    "torus_scan",
    "undetected_sigma_jumps",
    "unlinking_bound",
    "validate",
    "write_scan_csv",
]
