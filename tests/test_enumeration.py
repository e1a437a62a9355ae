import hashlib
import json
import random
from collections import Counter
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lucasmagic import enumeration
from lucasmagic.construct import (
    PHASE_NAMES,
    canonical_parameters,
    lucas,
    normalize_triples,
    phase_parameters,
)
from lucasmagic.enumeration import (
    CensusRow,
    census,
    double_factorial_odd,
    duplicate_element_check,
    enumerate_fundamental,
    fnc_integer_solutions,
    frierson_fundamental_formula,
    frierson_total,
    fundamental_representatives,
    lucas_fundamental_formula,
    lucas_total,
    natural_parameter_assignments,
    sv_class_count,
)
from lucasmagic.spectra import singular_values
from lucasmagic.verify import check_natural, fnc_parameter_equation

from helpers import oracle_canonical_parameters


def test_counting_formulas():
    assert [lucas_total(l) for l in (1, 2, 3)] == [8, 384, 46080]
    assert [frierson_total(l) for l in (1, 2, 3)] == [2, 24, 720]
    assert [lucas_fundamental_formula(l) for l in (1, 2, 3)] == [1, 48, 5760]
    assert [frierson_fundamental_formula(l) for l in (1, 2, 3)] == [1, 12, 360]
    for l in (1, 2, 3, 4):
        assert lucas_total(l) == 2 ** (2 * l) * factorial(2 * l)
        assert frierson_total(l) == factorial(2 * l)
        assert lucas_fundamental_formula(l) == lucas_total(l) // 8
        assert frierson_fundamental_formula(l) == frierson_total(l) // 2


def test_double_factorial():
    assert [double_factorial_odd(l) for l in (1, 2, 3, 4)] == [1, 3, 15, 105]


def frierson_paired_convention_count(level):
    """(2l)!/2^l: the stricter counting convention that also identifies
    the level-swapped partners; 6 at level 2 and 90 at level 3, versus the
    8-phase-only counts of 12 and 360 the library uses."""
    return factorial(2 * level) // 2 ** level


def test_paired_convention_count():
    # the alternative dedup (independent within-pair swaps): (2l)!/2^l
    assert [frierson_paired_convention_count(l) for l in (1, 2, 3)] == [1, 6, 90]
    for l in (1, 2, 3):
        classes = {
            tuple(tuple(sorted((v, y))) for _, v, y in t)
            for t in natural_parameter_assignments(l, "frierson")
        }
        assert len(classes) == frierson_paired_convention_count(l)


def test_assignments_level1():
    got = list(natural_parameter_assignments(1))
    assert len(got) == 8
    assert set(got) == {
        ((4, v, y),)
        for v, y in [(1, 3), (3, 1), (-1, 3), (1, -3), (-1, -3), (-3, 1), (3, -1), (-3, -1)]
    }
    for triples in got:
        assert check_natural(lucas(triples))


def test_assignments_carry_the_gauge():
    for triples in natural_parameter_assignments(2):
        for c, v, y in triples:
            assert c == abs(v) + abs(y)
        flat = [abs(x) for t in triples for x in t[1:]]
        assert sorted(flat) == [1, 3, 9, 27]


def test_frierson_assignments_are_unsigned():
    got = list(natural_parameter_assignments(1, "frierson"))
    assert set(got) == {((4, 1, 3),), ((4, 3, 1),)}
    with pytest.raises(ValueError):
        next(natural_parameter_assignments(1, "sudoku"))
    with pytest.raises(ValueError, match="unknown family"):
        next(fundamental_representatives(1, "sudoku"))
    # the family is checked before any count, whether or not it materializes
    for level, family, ceiling in ((4, "bogus", 3), (1, "Lucas", 0), (1, "Lucas", 3)):
        with pytest.raises(ValueError, match="unknown family"):
            enumerate_fundamental(level, family, ceiling=ceiling)


def test_enumerate_level1():
    res = enumerate_fundamental(1)
    assert res.total_assignments == 8
    assert res.fundamental_count == 1
    assert res.representatives == (((4, -3, -1),),)
    assert res.sv_class_count == 1
    for level in (0, -1):
        with pytest.raises(ValueError, match="level must be >= 1"):
            enumerate_fundamental(level)
        with pytest.raises(ValueError, match="level must be >= 1"):
            next(fundamental_representatives(level))


def test_enumerate_level2_both_families():
    lu = enumerate_fundamental(2)
    assert lu.fundamental_count == 48
    assert len(lu.representatives) == 48
    fr = enumerate_fundamental(2, "frierson")
    assert fr.fundamental_count == 12
    assert len(fr.representatives) == 12
    # frierson orbits are a subset of the lucas ones
    fr_canon = {canonical_parameters(t) for t in fr.representatives}
    lu_canon = set(lu.representatives)
    assert fr_canon <= lu_canon
    for rep in lu.representatives:
        assert rep == canonical_parameters(rep)
        assert check_natural(lucas(rep))


@pytest.mark.parametrize("family", ["lucas", "frierson"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_representatives_match_the_dedup_oracle(level, family):
    oracle = tuple(
        sorted(
            set(
                canonical_parameters(t)
                for t in natural_parameter_assignments(level, family)
            )
        )
    )
    assert tuple(fundamental_representatives(level, family)) == oracle


def test_frierson_level4_representatives_stream():
    reps = list(fundamental_representatives(4, "frierson"))
    assert len(reps) == frierson_fundamental_formula(4) == 20160
    assert len(set(reps)) == len(reps)
    assert reps == sorted(reps)
    for rep in reps:
        assert canonical_parameters(rep) == rep
    for rep in random.Random(4).sample(reps, 12):
        assert check_natural(lucas(rep))
    oracle = sorted(
        set(map(canonical_parameters, natural_parameter_assignments(4, "frierson")))
    )
    assert reps == oracle


def is_natural_assignment(triples, family):
    """The magnitudes are 3^0 .. 3^(2l-1) with c_i = |v_i| + |y_i|, and for
    Frierson the rmr image (every sign flipped) is all positive."""
    mags = sorted(abs(x) for _, v, y in triples for x in (v, y))
    if mags != [3 ** k for k in range(2 * len(triples))]:
        return False
    if any(c != abs(v) + abs(y) for c, v, y in triples):
        return False
    return family == "lucas" or all(
        v > 0 and y > 0 for _, v, y in phase_parameters(triples, "rmr")
    )


@pytest.mark.parametrize("family", ["lucas", "frierson"])
def test_representatives_stream_lazily_above_the_ceiling(family):
    # level 6 has about 2.5e11 Lucas orbits: only a lazy walk returns
    reps = list(islice(fundamental_representatives(6, family), 50))
    assert len(reps) == 50
    assert all(a < b for a, b in zip(reps, reps[1:]))
    for rep in reps:
        assert oracle_canonical_parameters(rep) == rep
        assert is_natural_assignment(rep, family)


def test_enumerate_fundamental_needs_no_dedup(monkeypatch):
    calls = 0
    canonical = enumeration._canonical

    def counted(triples):
        nonlocal calls
        calls += 1
        return canonical(triples)

    monkeypatch.setattr(enumeration, "_canonical", counted)
    res = enumerate_fundamental(3)
    assert len(res.representatives) == lucas_fundamental_formula(3)
    assert calls == lucas_fundamental_formula(3)


@pytest.mark.parametrize("family", ["lucas", "frierson"])
def test_enumerate_fundamental_checks_fire(monkeypatch, family):
    walk = enumeration.fundamental_representatives
    reps = list(walk(3, family))

    def serve(listed):
        # the listed reps for this family; sv_class_count's walk is untouched
        monkeypatch.setattr(
            enumeration, "fundamental_representatives",
            lambda level, fam="lucas": iter(listed) if fam == family else walk(level, fam),
        )

    for phase in PHASE_NAMES[1:]:
        serve(reps[:7] + [phase_parameters(reps[7], phase)] + reps[8:])
        with pytest.raises(AssertionError, match="is not canonical"):
            enumerate_fundamental(3, family)
    serve(reps[:-1])
    with pytest.raises(AssertionError, match="disagree with formula"):
        enumerate_fundamental(3, family)
    serve(reps)
    assert enumerate_fundamental(3, family).representatives == tuple(reps)


def test_enumerate_without_representatives_builds_no_sv_classes(monkeypatch):
    # with no representatives built the sv class count is the formula alone
    calls = 0
    sigma_coefficients = enumeration._sigma_coefficients

    def counted(triples):
        nonlocal calls
        calls += 1
        return sigma_coefficients(triples)

    monkeypatch.setattr(enumeration, "_sigma_coefficients", counted)
    res = enumerate_fundamental(3, ceiling=0)
    assert res.representatives is None and res.sv_class_count == 15
    assert calls == 0
    assert enumerate_fundamental(2, "frierson").sv_class_count == 3
    assert calls == 12


def test_enumerate_beyond_the_ceiling_uses_formulas():
    res = enumerate_fundamental(4)
    assert res.representatives is None
    assert res.fundamental_count == 2 ** 8 * factorial(8) // 8


def test_enumeration_result_json():
    obj = enumerate_fundamental(1).to_json()
    assert obj["fundamental_count"] == 1
    assert obj["representatives"] == [[[4, -3, -1]]]
    json.dumps(obj)


def test_fnc_solutions():
    assert fnc_integer_solutions(1) == [(1, 3)]
    assert fnc_integer_solutions(2) == [(1, 3, 9, 27)]


@pytest.mark.parametrize(
    "require_distinct,count,digest",
    [
        (True, 253, "a392a4fccb53419997853f22501f5ac1b514222e2caf3fce42707851d01d9840"),
        (False, 358, "2aef5b1c65e663cdc3cb455a0da7fe956bd06d041bec15d6efc57e31d3f558b6"),
    ],
)
def test_fnc_solutions_level3_pinned(require_distinct, count, digest):
    # digests of repr(solutions) from the exhaustive search over every value
    sols = fnc_integer_solutions(3, require_distinct)
    assert len(sols) == count
    assert hashlib.sha256(repr(sols).encode()).hexdigest() == digest


def test_fnc_solutions_satisfy_both_moment_equations():
    for level in (1, 2):
        for sol in fnc_integer_solutions(level, require_distinct=False):
            assert sum(x * x for x in sol) == fnc_parameter_equation(level)
            assert sum(sol) == (9 ** level - 1) // 2
            assert all(x > 0 for x in sol)
            assert list(sol) == sorted(sol)


def test_fnc_moments_stop_pinning_at_level3():
    sols = fnc_integer_solutions(3)
    assert (1, 3, 9, 27, 81, 243) in sols
    assert len(sols) > 1
    # every impostor dies on the duplicate-element check
    for sol in sols:
        triples = tuple(
            (v + y, v, y) for v, y in zip(sol[0::2], sol[1::2])
        )
        assert duplicate_element_check(triples) == (sol == (1, 3, 9, 27, 81, 243))


def test_duplicate_element_check():
    assert duplicate_element_check(((4, 3, 1),))
    assert not duplicate_element_check(((2, 1, 1),))
    assert duplicate_element_check(((4, 1, 3), (36, 9, 27)))


def oracle_duplicate_element_check(triples):
    """The entrywise loop duplicate_element_check replaced."""
    m = lucas(normalize_triples(triples))
    seen = set()
    for x in m.entries():
        if x in seen:
            return False
        seen.add(x)
    return True


# powers of three up to 3^5 make some parameter sets distinct, small values
# make most of them repeat
_parts = st.one_of(st.integers(-4, 4), st.sampled_from([3**k for k in range(6)]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_parts, _parts, _parts), min_size=1, max_size=3))
def test_duplicate_element_check_matches_the_loop(triples):
    assert duplicate_element_check(triples) == oracle_duplicate_element_check(triples)


def test_sv_class_count():
    assert [sv_class_count(l) for l in (1, 2, 3)] == [1, 3, 15]
    assert sv_class_count(5, materialize=False) == 945
    assert sv_class_count(2, materialize=True) == 3
    for level in (0, -1):
        with pytest.raises(ValueError, match="level must be >= 1"):
            sv_class_count(level, materialize=False)


def test_sv_class_count_checks_the_materialized_classes(monkeypatch):
    monkeypatch.setattr(enumeration, "_sv_class", lambda triples: ())
    with pytest.raises(AssertionError, match="materialized sv classes 1 != formula 3"):
        sv_class_count(2)


def assert_sv_keys_partition_like_the_radicals(reps):
    """Two parameter sets share enumeration._sv_class exactly when their
    singular-value lists, as Radicals, are equal multisets."""
    keys = [enumeration._sv_class(rep) for rep in reps]
    oracle = [frozenset(Counter(singular_values(rep)).items()) for rep in reps]
    assert len(set(keys)) == len(set(oracle)) == len(set(zip(keys, oracle)))


@pytest.mark.parametrize("family", ["lucas", "frierson"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_sv_class_keys_partition_the_representatives_like_the_radicals(level, family):
    assert_sv_keys_partition_like_the_radicals(list(fundamental_representatives(level, family)))


_small = st.integers(-2, 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda level: st.lists(
    st.lists(st.tuples(_small, _small, _small), min_size=level, max_size=level),
    min_size=2, max_size=8,
)))
def test_sv_class_keys_partition_parameters_with_zeros_like_the_radicals(param_sets):
    # values in -2..2 make mu = 0 and v +- y = 0 common
    assert_sv_keys_partition_like_the_radicals([normalize_triples(t) for t in param_sets])


CENSUS = {
    1: (3, 12, 1, 1, 3, 1),
    2: (9, 360, 48, 12, 5, 3),
    3: (27, 9828, 5760, 360, 7, 15),
    4: (81, 265680, 1290240, 20160, 9, 105),
    5: (243, 7174332, 464486400, 1814400, 11, 945),
    6: (729, 193709880, 245248819200, 239500800, 13, 10395),
}


@pytest.mark.parametrize("level,row", sorted(CENSUS.items()))
def test_census_rows(level, row):
    got = census(level)
    assert (
        got.order,
        got.mu,
        got.lucas_fundamental,
        got.frierson_fundamental,
        got.rank,
        got.sv_classes,
    ) == row
    assert got.level == level


def test_census_row_json():
    obj = census(2).to_json()
    assert obj == {
        "level": 2,
        "order": 9,
        "mu": 360,
        "lucas_fundamental": 48,
        "frierson_fundamental": 12,
        "rank": 5,
        "sv_classes": 3,
    }
    assert list(obj) == [
        "level", "order", "mu", "lucas_fundamental", "frierson_fundamental", "rank",
        "sv_classes",
    ]


@given(st.integers(min_value=1, max_value=6))
def test_census_is_consistent_with_the_formulas(level):
    row = census(level)
    assert row.order == 3 ** level
    assert row.rank == 2 * level + 1
    assert row.lucas_fundamental == lucas_fundamental_formula(level)
    assert row.frierson_fundamental == frierson_fundamental_formula(level)
    assert row.sv_classes == double_factorial_odd(level)
    # mu of the natural square of that order
    n = row.order
    assert row.mu == n * (n * n - 1) // 2


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(natural_parameter_assignments(2))))
def test_natural_assignments_build_natural_squares(triples):
    assert duplicate_element_check(triples)
    assert check_natural(lucas(triples))
