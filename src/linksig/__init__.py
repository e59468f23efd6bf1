"""Multivariable link signatures, nullities and splitting-number bounds.

The package evaluates the Hermitian form H(omega) attached to a colored
link through generalized Seifert (C-complex) matrices, computes its
signature and nullity exactly or in floating point, scans the torus for
the zero locus, and turns the resulting invariants into lower bounds for
splitting and unlinking numbers.  A constructor for the even family of
2-bridge links and a catalog of worked fixtures ship with it.

Each public name is imported from its module on first access, so
``import linksig`` loads no submodule.  numpy comes in only with
``hermitian``, ``invariants`` and ``twobridge`` and with the functions of
``ccomplex`` that build arrays; ``bounds``, ``catalog`` and ``cli`` load
none of it themselves.
"""

import importlib

__version__ = "0.1.0"

#: The module of each public name.
_HOMES = {
    name: module
    for module, names in {
        "bounds": "BoundReport ComponentInvariants evaluate_fixture linking_number_bound "
        "rank_obstruction splitting_bound_lt splitting_bound_multivariable unlinking_bound",
        "ccomplex": "GeneralizedSeifertSystem SignPattern TorusPoint assemble_h "
        "canonical_patterns h_at_minus_ones load_system validate",
        "hermitian": "DEFAULT_TOL SignatureResult bordered_delta hermitian_signature "
        "integer_symmetric_signature",
        "invariants": "ScanGrid lt_signature_from_multivariable scan_to_csv "
        "signature_nullity torus_scan undetected_sigma_jumps write_scan_csv",
        "twobridge": "ConwayForm build_gss h_minus_one_closed_form predicted_splitting",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    """Import a public name from its module and bind it here (PEP 562)."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value
