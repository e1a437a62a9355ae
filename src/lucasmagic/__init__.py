"""Exact arithmetic for compound Lucas and Frierson magic squares.

Construction and verification of order-3**l compound squares, their
closed-form Jordan and singular value decompositions over radicals,
enumeration of the fundamental natural squares, and commutation tests —
all in exact integer/rational arithmetic (floats appear only in residual
checks and approximations printed next to exact values).

`_EXPORTS` lists each public name once, under the module that defines it.
`import lucasmagic` loads none of those modules: a name is imported from
its module on first access (PEP 562) and then kept as a plain attribute.
"""

import importlib

_EXPORTS = {
    "algebra": (
        "CommutingPairReport",
        "build_commuting_lucas_pair",
        "commute3_predicate",
        "commute9_predicate",
        "commute_predicate",
        "commutes_exactly",
        "commuting_pair_report",
        "count_commuting_64",
        "fier9_commuting_pairs",
        "fier9_suite",
        "find_commuting_pairs",
        "two_form_phase_family",
    ),
    "construct": (
        "FRIERSON9_SETS",
        "PHASE_NAMES",
        "apply_phase",
        "canonical_parameters",
        "canonical_phase",
        "compound_once",
        "format_frierson_params",
        "format_lucas_params",
        "frierson",
        "frierson3",
        "frierson9",
        "frierson_to_lucas",
        "lucas",
        "lucas3",
        "magic_index",
        "parse_frierson_params",
        "parse_lucas_params",
        "phase_parameters",
    ),
    "enumeration": (
        "CensusRow",
        "EnumerationResult",
        "census",
        "duplicate_element_check",
        "enumerate_fundamental",
        "fnc_integer_solutions",
        "fundamental_representatives",
        "natural_parameter_assignments",
        "sv_class_count",
    ),
    "exactmat": ("SquareMatrix", "commutator", "kron"),
    "radical": ("Radical", "RadicalSum"),
    "spectra": (
        "SpectrumReport",
        "eigenvalues",
        "jcf_matrices",
        "lucas3_inverse",
        "matrix_power",
        "singular_values",
        "spectrum_report",
        "svd_matrices",
    ),
    "verify": (
        "VerificationReport",
        "check_fnc",
        "check_magic",
        "check_natural",
        "check_regular",
        "fnc_parameter_equation",
        "frobenius_norm_target",
        "recover_lucas_params",
        "verify_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
