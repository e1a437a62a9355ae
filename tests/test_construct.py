import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lucasmagic.construct import (
    FRIERSON9_SETS,
    PHASE_NAMES,
    _canonical,
    apply_phase,
    canonical_parameters,
    canonical_phase,
    compound_once,
    format_frierson_params,
    format_lucas_params,
    frierson,
    frierson3,
    frierson9,
    frierson_to_lucas,
    frierson_well_formed,
    level_of_order,
    lucas,
    lucas3,
    magic_index,
    normalize_triples,
    parse_frierson_params,
    parse_lucas_params,
    phase_parameters,
    rank,
)
from lucasmagic.exactmat import SquareMatrix, kron
from lucasmagic.verify import check_magic, check_natural, check_regular

from helpers import compose_phases, oracle_canonical_parameters

# The eight order-3 natural squares, keyed by parameters.
NATURAL3 = {
    (4, 3, 1): [[7, 0, 5], [2, 4, 6], [3, 8, 1]],
    (4, 3, -1): [[7, 2, 3], [0, 4, 8], [5, 6, 1]],
    (4, -3, -1): [[1, 8, 3], [6, 4, 2], [5, 0, 7]],
    (4, -3, 1): [[1, 6, 5], [8, 4, 0], [3, 2, 7]],
    (4, 1, 3): [[5, 0, 7], [6, 4, 2], [1, 8, 3]],
    (4, 1, -3): [[5, 6, 1], [0, 4, 8], [7, 2, 3]],
    (4, -1, -3): [[3, 8, 1], [2, 4, 6], [7, 0, 5]],
    (4, -1, 3): [[3, 2, 7], [8, 4, 0], [1, 6, 5]],
}


def test_lucas3_layout():
    c, v, y = 5, 2, 1
    assert lucas3(c, v, y).rows == (
        (c + v, c - v - y, c + y),
        (c - v + y, c, c + v - y),
        (c - y, c + v + y, c - v),
    )


@pytest.mark.parametrize("params,grid", sorted(NATURAL3.items()))
def test_natural_order3_squares(params, grid):
    m = lucas3(*params)
    assert m.to_lists() == grid
    assert check_magic(m) == (True, 12)
    assert check_natural(m)


def test_frierson3_is_the_gauged_lucas3():
    assert frierson3(3, 1) == lucas3(4, 3, 1)
    assert frierson3(1, 3) == lucas3(4, 1, 3)


def test_compound_once_is_the_kron_sum():
    inner = lucas3(4, 3, 1)
    got = compound_once(inner, 36, 27, 9)
    want = kron(SquareMatrix.all_ones(3), inner) + kron(
        lucas3(36, 27, 9), SquareMatrix.all_ones(3)
    )
    assert got == want
    assert got.n == 9


def test_lucas_multi_level_matches_iterated_compounding():
    triples = ((4, 3, 1), (36, 27, 9))
    m = lucas(triples)
    assert m == compound_once(lucas3(4, 3, 1), 36, 27, 9)
    deep = lucas(((4, 3, 1), (36, 27, 9), (324, 243, 81)))
    assert deep == compound_once(m, 324, 243, 81)
    assert deep.n == 27
    rng = random.Random(7)
    for level in range(1, 6):
        for _ in range(3):
            triples = [tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(level)]
            chain = lucas3(*triples[0])
            for c, v, y in triples[1:]:
                chain = compound_once(chain, c, v, y)
            assert lucas(triples) == chain


def test_magic_index():
    assert magic_index(((4, 3, 1),)) == 12
    assert magic_index(((4, 3, 1), (36, 27, 9))) == 360
    assert magic_index(((0, 1, 2), (5, 1, 1))) == 9 * 5
    m = lucas(((4, 3, 1), (36, 27, 9)))
    assert check_magic(m) == (True, 360)


def test_frierson_conversion():
    pairs = ((3, 1), (27, 9))
    assert frierson_to_lucas(pairs) == ((4, 3, 1), (36, 27, 9))
    assert frierson(pairs) == lucas(frierson_to_lucas(pairs))
    with pytest.raises(ValueError):
        frierson(((-1, 2),))


def test_frierson_well_formed():
    assert frierson_well_formed(((3, 1), (27, 9)))
    assert not frierson_well_formed(((0, 1),))


@pytest.mark.parametrize("build", [
    lambda: lucas([(1.5, 2, 3)]),  # built c = 1
    lambda: lucas([(Fraction(1, 2), 2, 3)]),  # built c = 0
    lambda: frierson([(0.5, 1)]),  # built v = 0
    lambda: magic_index([(4, 3, 1), (36.0, 27, 9)]),
    lambda: rank([(4, 3, 1.0)]),
    lambda: frierson_well_formed([(3, "1")]),
])
def test_parameters_must_be_integers(build):
    with pytest.raises(TypeError):
        build()


def test_eight_phases_match_parameter_action():
    m = lucas3(4, 3, 1)
    assert len(PHASE_NAMES) == 8
    for phase in PHASE_NAMES:
        assert apply_phase(m, phase) == lucas(phase_parameters(((4, 3, 1),), phase))


def cross_identity(n):
    """The reversal permutation R (ones on the anti-diagonal)."""
    return SquareMatrix([[int(i + j == n - 1) for j in range(n)] for i in range(n)])


def test_phase_matrix_forms():
    for triples in (
        ((4, 3, 1),),
        ((4, 1, 3), (36, -27, 9)),
        ((4, 3, -1), (36, 9, 27), (324, -243, 81)),
    ):
        m = lucas(triples)
        r = cross_identity(m.n)
        assert apply_phase(m, "identity") == m
        assert apply_phase(m, "mr") == m @ r
        assert apply_phase(m, "rm") == r @ m
        assert apply_phase(m, "rmr") == r @ m @ r
        assert apply_phase(m, "t") == m.transpose()
        assert apply_phase(m, "tr") == m.transpose() @ r
        assert apply_phase(m, "rt") == r @ m.transpose()
        assert apply_phase(m, "rtr") == r @ m.transpose() @ r


def test_phases_cover_the_natural_squares():
    base = lucas3(4, 3, 1)
    images = {apply_phase(base, p) for p in PHASE_NAMES}
    assert images == {lucas3(*p) for p in NATURAL3}


def test_phase_composition():
    m = lucas(((4, 3, 1), (36, 27, 9)))
    for p in PHASE_NAMES:
        for q in PHASE_NAMES:
            assert apply_phase(apply_phase(m, p), q) == apply_phase(m, compose_phases(p, q))
    with pytest.raises(ValueError):
        apply_phase(m, "spin")


def test_phase_group_structure():
    # every phase has an inverse and the composition table is a group table
    for p in PHASE_NAMES:
        assert any(compose_phases(p, q) == "identity" for q in PHASE_NAMES)
        assert {compose_phases(p, q) for q in PHASE_NAMES} == set(PHASE_NAMES)


def test_canonical_phase():
    images = [apply_phase(lucas3(4, 3, 1), p) for p in PHASE_NAMES]
    canon = {canonical_phase(m) for m in images}
    assert len(canon) == 1
    pick = canon.pop()
    assert pick == canonical_phase(pick)
    assert pick in images


def test_canonical_parameters():
    triples = ((4, 3, 1), (36, 27, 9))
    canon = canonical_parameters(triples)
    for p in PHASE_NAMES:
        assert canonical_parameters(phase_parameters(triples, p)) == canon
    assert canon == min(
        phase_parameters(triples, p) for p in PHASE_NAMES
    )


def test_param_parsing():
    assert parse_lucas_params("4,3,1") == ((4, 3, 1),)
    assert parse_lucas_params("4,3,1;36,27,9") == ((4, 3, 1), (36, 27, 9))
    assert parse_lucas_params(" 4 , 3 , 1 ") == ((4, 3, 1),)
    assert parse_frierson_params("3,1;27,9") == ((3, 1), (27, 9))
    # empty level groups are skipped, like blank grid lines
    assert parse_lucas_params("4,3,1;;") == ((4, 3, 1),)
    for bad in ["4,3", "4;3;1", "a,b,c", "", ";;"]:
        with pytest.raises(ValueError):
            parse_lucas_params(bad)
    with pytest.raises(ValueError):
        parse_frierson_params("3,1,2")


def test_param_formatting_round_trip():
    triples = ((4, 3, 1), (36, -27, 9))
    assert parse_lucas_params(format_lucas_params(triples)) == triples
    pairs = ((3, 1), (27, 9))
    assert parse_frierson_params(format_frierson_params(pairs)) == pairs


def test_frierson9_letters():
    assert len(FRIERSON9_SETS) == 12
    assert sorted(FRIERSON9_SETS) == list("ABCDEFGHIJKL")
    for letter, (v, y, s, t) in FRIERSON9_SETS.items():
        assert sorted([v, y, s, t]) == [1, 3, 9, 27]
        m = frierson9(letter)
        assert m == frierson(((v, y), (s, t)))
        assert check_magic(m) == (True, 360)
        assert check_regular(m)
        assert check_natural(m)
    with pytest.raises(KeyError):
        frierson9("Z")
    assert frierson9("a") == frierson9("A")


def test_level_of_order():
    assert level_of_order(3) == 1
    assert level_of_order(9) == 2
    assert level_of_order(27) == 3
    for bad in (1, 5, 12):
        with pytest.raises(ValueError):
            level_of_order(bad)


signed = st.integers(min_value=-30, max_value=30)
triple = st.tuples(signed, signed, signed)


@given(st.lists(triple, min_size=1, max_size=3))
def test_every_compound_is_magic_and_regular(triples):
    m = lucas(triples)
    ok, mu = check_magic(m)
    assert ok and mu == magic_index(triples)
    assert check_regular(m)


@given(st.lists(triple, min_size=1, max_size=2), st.sampled_from(PHASE_NAMES))
def test_phase_parameters_commute_with_construction(triples, phase):
    assert lucas(phase_parameters(triples, phase)) == apply_phase(lucas(triples), phase)


small = st.integers(min_value=-3, max_value=3)
# level 1 with |v| = |y| (zeros included): its images tie, and later levels decide
tied_level1 = st.builds(lambda c, v, s: (c, v, s * v), small, small, st.sampled_from((1, -1)))


@given(
    st.one_of(tied_level1, st.tuples(small, small, small), triple),
    st.lists(st.one_of(st.tuples(small, small, small), triple), max_size=3),
)
@example((4, 0, 0), [(1, 0, 0), (2, 1, -1)])
@example((5, 2, -2), [(0, 1, 1), (3, -1, 2)])
@example((0, 0, 0), [(0, 0, 0)])
# around the v_1 < y_1 < 0 fast path, with later levels whose images tie
@example((3, -2, -1), [(2, 1, 1), (0, -1, 1)])
@example((2, -1, -1), [(2, 1, -1), (1, 1, 1)])
@example((2, -2, 0), [(0, 0, 0), (2, -1, -1)])
@example((3, -1, -2), [(2, -1, -1), (1, 1, 1)])
@example((3, 2, 1), [(1, 1, 1), (2, 1, -1)])
@example((1, 0, -1), [(0, 0, 0), (2, -1, 1)])
def test_canonical_parameters_matches_the_eight_image_oracle(first, rest):
    triples = [first, *rest]
    want = oracle_canonical_parameters(triples)
    assert canonical_parameters(triples) == want
    assert _canonical(normalize_triples(triples)) == want
    for p in PHASE_NAMES:
        assert canonical_parameters(phase_parameters(triples, p)) == want
