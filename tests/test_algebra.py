import random

import pytest
from hypothesis import given, settings, strategies as st

from lucasmagic import algebra
from lucasmagic.algebra import (
    FIER9_EXPECTED_PAIRS,
    CommutingPairReport,
    build_commuting_lucas_pair,
    commute3_predicate,
    commute9_predicate,
    commute_predicate,
    commutes_exactly,
    commuting_pair_report,
    count_commuting_64,
    fier9_commuting_pairs,
    fier9_suite,
    find_commuting_pairs,
    two_form_phase_family,
)
from lucasmagic.construct import (
    FRIERSON9_SETS,
    PHASE_NAMES,
    apply_phase,
    frierson,
    frierson_to_lucas,
    lucas,
    lucas3,
)
from lucasmagic.exactmat import SquareMatrix, commutator, commutes
from lucasmagic.verify import check_natural


def test_commute3_predicate():
    assert commute3_predicate((4, 3, 1), (4, -3, -1))
    assert not commute3_predicate((4, 3, 1), (4, 1, 3))
    assert commute3_predicate((4, 3, 1), (4, 3, 1))
    assert commute3_predicate((0, 0, 0), (7, 2, 5))


def test_commutes_exactly():
    a, b = lucas3(4, 3, 1), lucas3(4, -3, -1)
    assert commutes_exactly(a, b)
    assert commutator(a, b) == SquareMatrix.zero(3)
    assert not commutes_exactly(a, lucas3(4, 1, 3))
    with pytest.raises(ValueError):
        commutes_exactly(a, SquareMatrix.identity(9))


def test_commute_predicate_multi_level():
    p = frierson_to_lucas(((1, 3), (27, 9)))
    q = frierson_to_lucas(((9, 27), (3, 1)))
    assert commute_predicate(p, q)
    assert not commute_predicate(p, frierson_to_lucas(((3, 1), (27, 9))))
    with pytest.raises(ValueError):
        commute_predicate(p, ((4, 3, 1),))


def test_commute9_predicate():
    def params(letter):
        v, y, s, t = FRIERSON9_SETS[letter]
        return ((v + y, v, y), (s + t, s, t))
    assert commute9_predicate(params("A"), params("D"))
    assert commute9_predicate(params("C"), params("F"))
    assert not commute9_predicate(params("A"), params("B"))
    assert not commute9_predicate(params("A"), params("C"))
    with pytest.raises(ValueError):
        commute9_predicate(((4, 3, 1),), params("A"))


def test_find_commuting_pairs_order3():
    squares = [lucas3(4, v, y) for v, y in
               [(3, 1), (3, -1), (-3, -1), (-3, 1), (1, 3), (1, -3), (-1, -3), (-1, 3)]]
    pairs = find_commuting_pairs(squares)
    assert len(pairs) == 4
    # v*t = y*s pairs only: each square with its (-v, -y) partner
    assert pairs == [(0, 2), (1, 3), (4, 6), (5, 7)]
    for i, j in pairs:
        assert commutator(squares[i], squares[j]) == SquareMatrix.zero(3)


def test_find_commuting_pairs_edges():
    assert find_commuting_pairs([lucas3(4, 3, 1)]) == []
    assert find_commuting_pairs([]) == []
    with pytest.raises(ValueError):
        find_commuting_pairs([lucas3(4, 3, 1), SquareMatrix.identity(9)])


def test_fier9_suite_and_pairs():
    suite = fier9_suite()
    assert len(suite) == 24
    labels = [lab for lab, _ in suite]
    assert labels == list("ABCDEFGHIJKL") + [x + "R" for x in "ABCDEFGHIJKL"]
    got = fier9_commuting_pairs()
    assert len(got) == 8
    assert {frozenset(p) for p in got} == FIER9_EXPECTED_PAIRS
    by_label = dict(suite)
    for x, y in got:
        assert commutator(by_label[x], by_label[y]) == SquareMatrix.zero(9)


def test_fier9_r_phase_is_the_column_reversal():
    by_label = dict(fier9_suite())
    assert by_label["AR"] == apply_phase(by_label["A"], "mr")


def test_build_commuting_pair_level2():
    first, second = build_commuting_lucas_pair(2, ((4, 1, 3), (4, 3, 1)))
    assert first == frierson_to_lucas(((1, 3), (27, 9)))
    assert second == frierson_to_lucas(((9, 27), (3, 1)))
    a, b = lucas(first), lucas(second)
    assert commutator(a, b) == SquareMatrix.zero(9)
    assert check_natural(a) and check_natural(b)


def test_build_commuting_pair_level3():
    base = ((4, 1, 3), (36, 9, 27), (4, 3, 1))
    first, second = build_commuting_lucas_pair(3, base)
    a, b = lucas(first), lucas(second)
    assert commutator(a, b) == SquareMatrix.zero(27)
    assert check_natural(a) and check_natural(b)
    assert commute_predicate(first, second)


LEVEL5_BASE = ((4, 1, 3), (36, 9, 27), (324, 81, 243), (2916, 729, 2187), (4, 3, 1))


@pytest.mark.parametrize("commuting", [True, False])
def test_level5_commutation_matches_the_closed_form(commuting):
    first, second = build_commuting_lucas_pair(5, LEVEL5_BASE)
    if not commuting:
        second = second[:-1] + ((4, 1, 3),)  # outer direction (1, 3) vs (3, 1)
    a, b = lucas(first), lucas(second)
    assert a.n == 243
    assert commute_predicate(first, second) is commuting
    assert commutes_exactly(a, b) is commuting
    rep = commuting_pair_report(a, b)
    assert rep.observed is commuting and rep.predicted is commuting
    assert rep.consistent is True


def test_build_commuting_pair_accepts_signs():
    first, second = build_commuting_lucas_pair(2, ((4, -1, 3), (4, 3, -1)))
    assert commutator(lucas(first), lucas(second)) == SquareMatrix.zero(9)
    assert check_natural(lucas(first)) and check_natural(lucas(second))


def test_build_commuting_pair_strict_violations():
    with pytest.raises(ValueError):
        build_commuting_lucas_pair(2, ((4, 1, 2), (4, 3, 1)))  # 2 is not a power of 3
    with pytest.raises(ValueError):
        build_commuting_lucas_pair(2, ((4, 1, 3), (12, 9, 3)))  # outer magnitude 9
    with pytest.raises(ValueError):
        build_commuting_lucas_pair(2, ((5, 1, 3), (4, 3, 1)))  # central value off gauge
    with pytest.raises(ValueError):
        build_commuting_lucas_pair(1, ((4, 1, 3),))  # needs two levels
    with pytest.raises(ValueError):
        build_commuting_lucas_pair(2, ((4, 1, 3),))  # wrong base length


def test_build_commuting_pair_degenerate_without_strict():
    first, second = build_commuting_lucas_pair(2, ((0, 0, 0), (0, 0, 0)), strict=False)
    a, b = lucas(first), lucas(second)
    assert a == SquareMatrix.zero(9) and b == SquareMatrix.zero(9)
    assert commutator(a, b) == SquareMatrix.zero(9)


def test_two_form_phase_family():
    fam = two_form_phase_family(3, 1, 27, 9)
    assert len(fam) == 16
    labels = [lab for lab, _ in fam]
    assert len(set(labels)) == 16
    assert all(lab[0] in "+-" for lab in labels)
    orders = {m.n for _, m in fam}
    assert orders == {9}
    with pytest.raises(ValueError):
        two_form_phase_family(-3, 1, 27, 9)


def test_count_commuting_64():
    v, y, s, t = FRIERSON9_SETS["A"]
    assert count_commuting_64(two_form_phase_family(v, y, s, t)) == 64
    assert count_commuting_64([lucas3(4, 3, 1)]) == 1  # self-pair only, no cross pairs


def test_commuting_pair_report_family():
    a = lucas(frierson_to_lucas(((1, 3), (27, 9))))
    b = lucas(frierson_to_lucas(((9, 27), (3, 1))))
    rep = commuting_pair_report(a, b)
    assert rep.predicted is True and rep.observed is True and rep.consistent is True
    obj = rep.to_json()
    assert obj["observed"] is True
    assert obj["left_params"] == [[4, 1, 3], [36, 27, 9]]


def test_commuting_pair_report_non_family():
    rows = [[0] * 9 for _ in range(9)]
    rows[0][1] = 1
    odd = SquareMatrix(rows)
    rep = commuting_pair_report(lucas(frierson_to_lucas(((1, 3), (27, 9)))), odd)
    assert rep.predicted is None and rep.consistent is None
    assert rep.observed is False
    assert rep.to_json()["right_params"] is None


def test_commuting_pair_report_refuses_mixed_orders(monkeypatch):
    def refuse(m):
        raise AssertionError("recovery ran")

    monkeypatch.setattr(algebra, "recover_lucas_params", refuse)
    level2 = lucas(((4, 1, 3), (36, 27, 9)))
    for a, b in ((lucas3(4, 3, 1), level2), (level2, lucas3(4, 3, 1))):
        with pytest.raises(ValueError, match="order mismatch: "):
            commuting_pair_report(a, b)


def test_report_against_identity():
    # the identity commutes with everything but is not a family member
    rep = commuting_pair_report(lucas3(4, 3, 1), SquareMatrix.identity(3))
    assert rep.observed is True
    assert rep.predicted is None


small = st.integers(min_value=-12, max_value=12)


@given(st.tuples(small, small, small), st.tuples(small, small, small))
@settings(max_examples=200, deadline=None)
def test_predicate_matches_commutator_order3(p, q):
    assert commute3_predicate(p, q) == commutes_exactly(lucas3(*p), lucas3(*q))


@given(
    st.lists(st.tuples(small, small, small), min_size=2, max_size=2),
    st.lists(st.tuples(small, small, small), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_commute9_predicate_self_checks(p, q):
    # the predicate recomputes the exact commutator internally and would
    # raise if the closed-form condition ever disagreed
    got = commute9_predicate(p, q)
    assert got == commutes_exactly(lucas(p), lucas(q))


@st.composite
def phased_pairs(draw):
    """Two phased Lucas or Frierson squares of one level in 1-4.  Levels may
    be degenerate (zero, v = y or v = -y) and c may be negative.  Half the
    pairs commute: the second square's (v, y) are multiples of the first's
    at every level, and both take the same phase."""
    part = st.integers(-9, 9)
    frier = draw(st.booleans())
    commuting = draw(st.booleans())
    levels = []
    for _ in range(draw(st.integers(1, 4))):
        v, y = draw(part), draw(part)
        shape = draw(st.sampled_from(("free", "zero", "v=y", "v=-y")))
        if shape == "zero":
            v = y = 0
        elif shape != "free":
            y = v if shape == "v=y" else -v
        levels.append((abs(v), abs(y)) if frier else (v, y))
    others = []
    for v, y in levels:
        if commuting:
            k = draw(st.integers(0 if frier else -3, 3))
            others.append((k * v, k * y))
        else:
            s, t = draw(part), draw(part)
            others.append((abs(s), abs(t)) if frier else (s, t))

    def square(pairs):
        if frier:
            return frierson(pairs)
        return lucas([(draw(part), v, y) for v, y in pairs])

    phase = st.sampled_from(PHASE_NAMES)
    first = draw(phase)
    second = first if commuting else draw(phase)
    return apply_phase(square(levels), first), apply_phase(square(others), second)


@given(phased_pairs())
@settings(max_examples=150, deadline=None)
def test_report_observes_the_packed_commutator(pair):
    a, b = pair
    rep = commuting_pair_report(a, b)
    assert rep.observed == commutes(a, b)
    assert rep.consistent is True


@given(st.sampled_from(sorted(FRIERSON9_SETS)), st.sampled_from(sorted(FRIERSON9_SETS)))
def test_letter_commutation_is_symmetric(x, y):
    def m(letter):
        v, yy, s, t = FRIERSON9_SETS[letter]
        return lucas(((v + yy, v, yy), (s + t, s, t)))
    assert commutes_exactly(m(x), m(y)) == commutes_exactly(m(y), m(x))


@given(st.sampled_from(PHASE_NAMES))
@settings(max_examples=8, deadline=None)
def test_commuting_survives_like_phases(phase):
    a = lucas(frierson_to_lucas(((1, 3), (27, 9))))
    b = lucas(frierson_to_lucas(((9, 27), (3, 1))))
    assert commutes_exactly(apply_phase(a, phase), apply_phase(b, phase))
