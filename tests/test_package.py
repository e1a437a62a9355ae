"""The package namespace: one export table, names loaded on first use."""

import importlib

import pytest

import lucasmagic

PUBLIC_NAMES = [
    "CensusRow", "CommutingPairReport", "EnumerationResult",
    "FRIERSON9_SETS", "PHASE_NAMES", "Radical", "RadicalSum", "SpectrumReport",
    "SquareMatrix", "VerificationReport", "apply_phase", "build_commuting_lucas_pair",
    "canonical_parameters", "canonical_phase", "census", "check_fnc", "check_magic",
    "check_natural", "check_regular", "commutator", "commute3_predicate",
    "commute9_predicate", "commute_predicate", "commutes_exactly", "commuting_pair_report",
    "compound_once", "count_commuting_64", "duplicate_element_check", "eigenvalues",
    "enumerate_fundamental", "fier9_commuting_pairs", "fier9_suite", "find_commuting_pairs",
    "fnc_integer_solutions", "fnc_parameter_equation", "format_frierson_params",
    "format_lucas_params", "frierson", "frierson3", "frierson9", "frierson_to_lucas",
    "frobenius_norm_target", "fundamental_representatives", "jcf_matrices", "kron", "lucas",
    "lucas3", "lucas3_inverse", "magic_index", "matrix_power",
    "natural_parameter_assignments", "parse_frierson_params", "parse_lucas_params",
    "phase_parameters", "recover_lucas_params", "singular_values", "spectrum_report",
    "sv_class_count", "svd_matrices", "two_form_phase_family", "verify_report",
]


def test_all_is_the_public_surface():
    assert lucasmagic.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_its_defining_modules_object(name):
    obj = getattr(lucasmagic, name)
    module = importlib.import_module(f"lucasmagic.{lucasmagic._MODULE_OF[name]}")
    assert obj is getattr(module, name)
    assert getattr(obj, "__module__", module.__name__) == module.__name__
    assert vars(lucasmagic)[name] is obj  # cached after the first lookup


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from lucasmagic import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()
    assert set(PUBLIC_NAMES) <= set(dir(lucasmagic))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lucasmagic.no_such_name
    assert not hasattr(lucasmagic, "sorted_singular_values")


def test_submodules_still_import_from_the_package():
    from lucasmagic import algebra

    assert algebra is importlib.import_module("lucasmagic.algebra")
