import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lucasmagic import construct, verify
from lucasmagic.construct import (
    PHASE_NAMES,
    apply_phase,
    frierson,
    frierson9,
    lucas,
    lucas3,
    rank,
)
from lucasmagic.exactmat import SquareMatrix
from lucasmagic.verify import (
    check_fnc,
    check_magic,
    check_natural,
    check_regular,
    fnc_parameter_equation,
    frobenius_norm_target,
    recover_lucas_params,
    verify_report,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def m5():
    return SquareMatrix.from_grid((FIXTURES / "m5_counterexample.txt").read_text())


# -- the entrywise loops the checks replaced, kept as oracles -----------------


def oracle_check_magic(m):
    n = m.n
    mu = sum(m.rows[0])
    for r in m.rows:
        if sum(r) != mu:
            return False, None
    for j in range(n):
        if sum(m.rows[i][j] for i in range(n)) != mu:
            return False, None
    if sum(m.rows[i][i] for i in range(n)) != mu:
        return False, None
    if sum(m.rows[i][n - 1 - i] for i in range(n)) != mu:
        return False, None
    return True, mu


def oracle_check_regular(m):
    is_magic, mu = oracle_check_magic(m)
    if not is_magic:
        raise ValueError("regularity is defined for magic squares only")
    n = m.n
    target = 2 * mu
    for i in range(n):
        for j in range(n):
            if n * (m.rows[i][j] + m.rows[n - 1 - i][n - 1 - j]) != target:
                return False
    return True


def oracle_check_natural(m):
    n2 = m.n * m.n
    seen = bytearray(n2)
    for x in m.entries():
        if not isinstance(x, int) or not 0 <= x < n2 or seen[x]:
            return False
        seen[x] = 1
    return True


def _outcome(check, m):
    try:
        return check(m)
    except ValueError as exc:
        return str(exc)


def assert_checks_match_the_oracles(m):
    assert check_magic(m) == oracle_check_magic(m)
    assert _outcome(check_regular, m) == _outcome(oracle_check_regular, m)
    assert check_natural(m) == oracle_check_natural(m)


def test_check_magic():
    assert check_magic(lucas3(4, 3, 1)) == (True, 12)
    assert check_magic(SquareMatrix.all_ones(4)) == (True, 4)
    broken = SquareMatrix([[7, 0, 5], [2, 4, 6], [3, 8, 2]])
    assert check_magic(broken) == (False, None)
    # rows and columns fine, diagonal off
    assert check_magic(SquareMatrix.identity(2)) == (False, None)


def test_check_magic_reads_the_anti_diagonal():
    # rows, columns and the main diagonal all sum to 1; the anti-diagonal to 0
    m = SquareMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert oracle_check_magic(m) == check_magic(m) == (False, None)


def test_check_magic_reads_every_column():
    # swapping the off-diagonal ends of the middle row keeps every row and
    # both diagonals at 12 and breaks columns 0 and 2 (column sums total
    # the row sums, so a single failing column cannot occur)
    m = SquareMatrix([[7, 0, 5], [6, 4, 2], [3, 8, 1]])
    assert [sum(c) for c in zip(*m.rows)] == [16, 12, 8]
    assert oracle_check_magic(m) == check_magic(m) == (False, None)


def test_check_magic_reads_every_row():
    # swapping two off-diagonal entries of one column keeps row 0, every
    # column and both diagonals and breaks rows 1 and 2
    rows = [list(r) for r in frierson9("A").rows]
    rows[1][4], rows[2][4] = rows[2][4], rows[1][4]
    m = SquareMatrix(rows)
    assert [sum(r) == 360 for r in m.rows] == [True, False, False] + [True] * 6
    assert oracle_check_magic(m) == check_magic(m) == (False, None)


def test_check_regular():
    assert check_regular(lucas3(4, 3, 1))
    # magic but not regular: a pandiagonal order-4 square
    pan = SquareMatrix([[1, 14, 11, 8], [15, 4, 5, 10], [6, 9, 16, 3], [12, 7, 2, 13]])
    assert check_magic(pan) == (True, 34)
    assert not check_regular(pan)
    with pytest.raises(ValueError):
        check_regular(SquareMatrix.identity(3))


def test_check_natural():
    assert check_natural(lucas3(4, 3, 1))
    assert not check_natural(lucas3(4, 3, 1) + SquareMatrix.all_ones(3))  # 1..9
    assert not check_natural(SquareMatrix.all_ones(3))  # repeats
    assert not check_natural(SquareMatrix([[Fraction(1, 2), 0], [1, 2]]))
    assert not check_natural(lucas3(4, 3, 1) * -1)


def test_frobenius_norm_target():
    assert frobenius_norm_target(3) == 204
    assert frobenius_norm_target(5) == 4900
    assert frobenius_norm_target(9) == sum(k * k for k in range(81))


def test_check_fnc():
    assert check_fnc(lucas3(4, 3, 1))
    assert lucas3(4, 3, 1).frobenius_sq() == 204
    shifted = lucas3(4, 3, 1) + SquareMatrix.all_ones(3)
    assert not check_fnc(shifted)
    assert shifted.frobenius_sq() == sum(k * k for k in range(1, 10))


def test_fnc_parameter_equation():
    assert fnc_parameter_equation(1) == 10
    assert fnc_parameter_equation(2) == 820
    assert fnc_parameter_equation(3) == 66430


def test_m5_screen_counterexample(m5):
    assert check_magic(m5) == (True, 60)
    assert check_fnc(m5)
    assert m5.frobenius_sq() == 4900
    assert not check_natural(m5)
    # it happens to be regular too: every centrosymmetric pair sums to 24
    assert check_regular(m5)


def test_recover_lucas_params_round_trips():
    for triples in [
        ((4, 3, 1),),
        ((4, -1, 3),),
        ((4, 1, 3), (36, 27, 9)),
        ((4, 3, -1), (36, -9, 27), (324, 81, 243)),
    ]:
        m = lucas(triples)
        assert recover_lucas_params(m) == triples


def test_recover_normalizes_the_central_split():
    # the per-level central values only matter through their sum
    loose = ((10, 3, 1), (30, 27, 9))
    m = lucas(loose)
    got = recover_lucas_params(m)
    assert got is not None and got != loose
    assert lucas(got) == m


def test_recover_handles_degenerate_family_members():
    # the all-ones square is L(1,0,0) compounded with zeros
    got = recover_lucas_params(SquareMatrix.all_ones(9))
    assert got is not None and lucas(got) == SquareMatrix.all_ones(9)


def test_recover_rejects_non_family(m5):
    assert recover_lucas_params(SquareMatrix.identity(9)) is None
    assert recover_lucas_params(m5) is None
    # half-integer parameters: no integer triple builds this square
    assert recover_lucas_params(lucas(((4, 3, 1),)) * Fraction(1, 2)) is None
    tweaked = lucas(((4, 1, 3), (36, 27, 9)))
    rows = [list(r) for r in tweaked.rows]
    rows[0][0] += 1
    rows[0][1] -= 1
    assert recover_lucas_params(SquareMatrix(rows)) is None


def test_verify_report_on_a_natural_square():
    rep = verify_report(frierson9("A"))
    assert rep.order == 9
    assert rep.is_magic and rep.summation_index == 360
    assert rep.is_regular
    assert rep.is_natural
    assert rep.fnc_pass and rep.frobenius_sq == frobenius_norm_target(9)
    assert rep.exact_rank == 5
    assert rep.lucas_params == ((4, 3, 1), (36, 27, 9))
    obj = rep.to_json()
    assert obj["order"] == 9
    assert obj["summation_index"] == 360
    assert obj["lucas_params"] == [[4, 3, 1], [36, 27, 9]]


def test_verify_report_on_the_counterexample(m5):
    rep = verify_report(m5)
    assert rep.is_magic and rep.summation_index == 60
    assert rep.fnc_pass and rep.frobenius_sq == 4900
    assert not rep.is_natural
    assert rep.lucas_params is None
    assert rep.exact_rank == m5.exact_rank()


def test_verify_report_on_a_non_magic_matrix():
    rep = verify_report(SquareMatrix.identity(3))
    assert not rep.is_magic
    assert rep.summation_index is None
    assert rep.is_regular is None
    assert rep.to_json()["is_regular"] is None
    assert rep.frobenius_sq == 3 and not rep.fnc_pass


def test_verify_report_checks_magic_once(monkeypatch):
    # a recovered square takes is_magic and mu from its parameters, so only
    # the unrecovered pandiagonal square runs the line-sum check, once
    pan = SquareMatrix([[1, 14, 11, 8], [15, 4, 5, 10], [6, 9, 16, 3], [12, 7, 2, 13]])
    check = verify.check_magic
    for m, regular, count in ((frierson9("A"), True, 0), (pan, False, 1)):
        calls = []
        monkeypatch.setattr(verify, "check_magic", lambda x: calls.append(x) or check(x))
        rep = verify_report(m)
        assert len(calls) == count
        assert rep.is_magic and rep.is_regular is regular


@st.composite
def compound_squares(draw, max_level=3):
    """A phased Lucas or Frierson square at levels 1 to max_level whose
    levels may be degenerate (zero, v = y or v = -y) and whose line sum may
    be zero."""
    part = st.integers(-9, 9)
    levels = []
    for _ in range(draw(st.integers(1, max_level))):
        v, y = draw(part), draw(part)
        shape = draw(st.sampled_from(("free", "zero", "v=y", "v=-y")))
        if shape == "zero":
            v = y = 0
        elif shape != "free":
            y = v if shape == "v=y" else -v
        levels.append((v, y))
    if draw(st.booleans()):
        m = frierson([(abs(v), abs(y)) for v, y in levels])
    else:
        cs = [draw(part) for _ in levels]
        if draw(st.booleans()):
            cs[0] -= sum(cs)  # mu = 0
        m = lucas([(c, v, y) for c, (v, y) in zip(cs, levels)])
    return apply_phase(m, draw(st.sampled_from(PHASE_NAMES)))


@settings(max_examples=150, deadline=None)
@given(compound_squares())
def test_report_rank_of_a_compound_square_is_bareiss(m):
    rep = verify_report(m)
    assert rep.lucas_params is not None
    assert rep.exact_rank == m.exact_rank()


def entrywise_report(m):
    """verify_report with every field but the rank read off the entries; the
    closed-form rank is held against Bareiss by the tests above."""
    is_magic, mu = check_magic(m)
    frobenius_sq = m.frobenius_sq()
    params = recover_lucas_params(m)
    return verify.VerificationReport(
        order=m.n,
        is_magic=is_magic,
        summation_index=mu,
        is_regular=verify._centrosymmetric(m, mu) if is_magic else None,
        frobenius_sq=frobenius_sq,
        fnc_pass=frobenius_sq == frobenius_norm_target(m.n),
        is_natural=check_natural(m),
        exact_rank=rank(params),
        lucas_params=params,
    )


@settings(max_examples=60, deadline=None)
@given(compound_squares(max_level=5))
@example(lucas(((0, 0, 0),) * 3))
@example(frierson([(1, 3), (9, 27), (81, 243), (729, 2187), (6561, 19683)]))
def test_report_of_a_recovered_square_matches_the_entrywise_checks(m):
    assert recover_lucas_params(m) is not None
    got = json.dumps(verify_report(m).to_json())
    assert got == json.dumps(entrywise_report(m).to_json())


@settings(max_examples=100, deadline=None)
@given(compound_squares(), st.data())
def test_report_rank_of_a_perturbed_square_is_bareiss(m, data):
    rows = [list(r) for r in m.rows]
    cell = st.integers(0, m.n - 1)
    rows[data.draw(cell)][data.draw(cell)] += data.draw(st.sampled_from((-2, -1, 1, 2)))
    m = SquareMatrix(rows)
    rep = verify_report(m)
    assert rep.lucas_params is None  # one changed entry breaks a line sum
    assert rep.exact_rank == m.exact_rank()


def test_report_runs_bareiss_only_on_squares_it_cannot_recover(monkeypatch, m5):
    recovered = (frierson9("A"), lucas(((0, 0, 0),) * 2), SquareMatrix.all_ones(27))
    ranks = [m.exact_rank() for m in recovered]

    def refuse(self):
        raise AssertionError("Bareiss called")

    monkeypatch.setattr(SquareMatrix, "exact_rank", refuse)
    assert [verify_report(m).exact_rank for m in recovered] == ranks == [5, 0, 1]
    for m in (m5, SquareMatrix.identity(9), lucas3(4, 3, 1) * Fraction(1, 2)):
        with pytest.raises(AssertionError, match="Bareiss called"):
            verify_report(m)


def test_recovered_report_builds_no_square(monkeypatch, m5):
    # a recovered square is decided from its parameters: no second square is
    # built and the entries are never sorted; an unrecovered one sorts once
    recovered = (frierson9("A"), apply_phase(frierson9("K"), "rt"), SquareMatrix.all_ones(27))
    unrecovered = (m5, SquareMatrix.identity(9), lucas3(4, 3, 1) * Fraction(1, 2))
    calls = {"lucas": 0, "check_natural": 0, "SquareMatrix": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for module in (construct, verify):  # wherever verify could reach lucas
        monkeypatch.setattr(module, "lucas", counted("lucas", lucas), raising=False)
    monkeypatch.setattr(verify, "check_natural", counted("check_natural", check_natural))
    monkeypatch.setattr(SquareMatrix, "__init__",
                        counted("SquareMatrix", SquareMatrix.__init__))
    for m, natural in zip(recovered, (True, True, False)):
        assert verify_report(m).is_natural is natural
    assert calls == {"lucas": 0, "check_natural": 0, "SquareMatrix": 0}
    for m in unrecovered:
        calls["check_natural"] = 0
        assert not verify_report(m).is_natural
        assert calls["check_natural"] == 1


def test_recovery_reads_the_rows_up_to_the_first_that_differs(monkeypatch):
    # the candidate is read from rows near the centre; every other row is
    # compared with the digit-sum stream, which stops at the first mismatch
    m = lucas(((4, 1, 3), (36, 27, 9)))
    drawn = []

    def stream(triples):
        for row in construct._lucas_rows(triples):
            drawn.append(row)
            yield row

    monkeypatch.setattr(verify, "_lucas_rows", stream)
    assert recover_lucas_params(m) == ((4, 1, 3), (36, 27, 9)) and len(drawn) == 9
    for i, j, new in ((8, 4, m[8, 4] + 1), (8, 0, m[8, 0] + Fraction(1, 2)),
                      (0, 8, Fraction(1, 3))):
        rows = [list(r) for r in m.rows]
        rows[i][j] = new
        drawn.clear()
        assert recover_lucas_params(SquareMatrix(rows)) is None
        assert len(drawn) == i + 1


def test_recovery_refuses_rational_parameters():
    # every entry rational, so the candidate read near the centre is too
    half, third = Fraction(1, 2), Fraction(1, 3)
    for triples in (((half, third, 1),), ((half, third, 1), (3 * half, 1, third))):
        blocks = [construct._lucas3_rows(*t) for t in triples]
        m = SquareMatrix(construct._digit_rows(blocks))
        assert not m.is_integer()
        assert recover_lucas_params(m) is None


# Level-3 magnitude sets that meet both of the natural squares' moment
# equations (fnc_integer_solutions(3), which pins 253 of them) but are not
# the powers of 3.
FNC_IMPOSTORS = ((1, 2, 6, 17, 102, 236), (3, 5, 19, 35, 53, 249),
                 (7, 9, 23, 33, 41, 251), (15, 16, 19, 22, 40, 252))


def test_impostors_meet_the_moment_equations():
    for mags in FNC_IMPOSTORS:
        assert sum(x * x for x in mags) == fnc_parameter_equation(3)
        assert sum(mags) == (9 ** 3 - 1) // 2 and len(set(mags)) == 6


@st.composite
def near_natural_squares(draw, max_level=4):
    """A phased square at levels 1 to max_level whose magnitudes are 3^0 ..
    3^(2l-1) in some order and with any signs, or those with one replaced by
    zero, by another of them or by any value up to 3^(2l), or a level-3 FNC
    impostor; each c_k is |v_k| + |y_k| plus a shift whose total is zero
    (natural magnitudes stay natural) or any."""
    level = draw(st.integers(1, max_level))
    kind = draw(st.sampled_from(("powers", "zero", "repeat", "other", "impostor")))
    if kind == "impostor":
        level, mags = 3, list(draw(st.sampled_from(FNC_IMPOSTORS)))
    else:
        mags = [3 ** k for k in range(2 * level)]
    mags = list(draw(st.permutations(mags)))
    spot = st.integers(0, 2 * level - 1)
    if kind == "zero":
        mags[draw(spot)] = 0
    elif kind == "repeat":
        mags[draw(spot)] = mags[draw(spot)]
    elif kind == "other":
        mags[draw(spot)] = draw(st.integers(1, 9 ** level))
    ws = [w * draw(st.sampled_from((1, -1))) for w in mags]
    shifts = [draw(st.integers(-3, 3)) for _ in range(level)]
    if draw(st.booleans()):
        shifts[0] -= sum(shifts)
    triples = [(abs(v) + abs(y) + s, v, y) for v, y, s in zip(ws[0::2], ws[1::2], shifts)]
    return apply_phase(lucas(triples), draw(st.sampled_from(PHASE_NAMES)))


@settings(max_examples=300, deadline=None)
@given(near_natural_squares())
@example(frierson([(1, 3), (9, 27), (81, 243), (729, 2187)]))
@example(lucas(((5, 3, -1), (35, -27, 9))))  # shifts +1 and -1: still natural
@example(lucas(((5, 3, -1), (36, -27, 9))))  # total one past: 1 .. 81
@example(lucas(((4, 3, 1), (30, 27, 3))))  # 3 twice
@example(frierson([(0, 3), (9, 27), (81, 243)]))  # a zero magnitude
@example(lucas([(v + y, v, y) for v, y in zip(FNC_IMPOSTORS[0][0::2], FNC_IMPOSTORS[0][1::2])]))
def test_natural_is_read_from_the_magnitudes(m):
    params = recover_lucas_params(m)
    assert params is not None
    assert verify._natural(params) is verify_report(m).is_natural is check_natural(m)


signed = st.integers(min_value=-40, max_value=40)


@given(st.lists(st.tuples(signed, signed, signed), min_size=1, max_size=2))
def test_family_squares_always_pass_magic_and_regular(triples):
    m = lucas(triples)
    ok, _ = check_magic(m)
    assert ok
    assert check_regular(m)


@given(st.integers(min_value=2, max_value=30))
def test_frobenius_target_matches_the_power_sum(n):
    assert frobenius_norm_target(n) == sum(k * k for k in range(n * n))


@st.composite
def phased_squares(draw):
    """A phased Lucas square at level 1 or 2; small parameters give repeats."""
    level = draw(st.integers(1, 2))
    part = st.integers(-4, 4)
    triples = draw(st.lists(st.tuples(part, part, part), min_size=level, max_size=level))
    return apply_phase(lucas(triples), draw(st.sampled_from(PHASE_NAMES)))


@st.composite
def edited_squares(draw):
    """A phased square with one entry changed or two entries swapped."""
    rows = [list(r) for r in draw(phased_squares()).rows]
    cell = st.tuples(*[st.integers(0, len(rows) - 1)] * 2)
    (i, j), (k, l) = draw(cell), draw(cell)
    if draw(st.booleans()):
        rows[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
    else:
        rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
    return SquareMatrix(rows)


@st.composite
def random_matrices(draw):
    """Integer or Fraction matrices of orders 1-6: permutations of
    0..n*n-1, constant matrices and entries around that range.  A Random
    seeded by hypothesis fills the entries."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("natural", "constant", "integer", "fraction")))
    flat = [rnd.randint(-1, n * n) for _ in range(n * n)]
    if kind == "natural":
        flat = rnd.sample(range(n * n), n * n)
    elif kind == "constant":
        flat = [flat[0]] * (n * n)
    elif kind == "fraction":
        flat = [Fraction(x, rnd.choice((1, 1, 2, 3))) for x in flat]
    return SquareMatrix([flat[i : i + n] for i in range(0, n * n, n)])


@settings(max_examples=100, deadline=None)
@given(st.one_of(phased_squares(), edited_squares()))
def test_checks_match_the_oracles_on_phased_squares(m):
    assert_checks_match_the_oracles(m)


@settings(max_examples=100, deadline=None)
@given(random_matrices())
def test_checks_match_the_oracles_on_random_matrices(m):
    assert_checks_match_the_oracles(m)


def test_checks_match_the_oracles_on_the_fixtures(m5):
    for m in (m5, frierson9("A"), lucas3(4, 3, 1) * Fraction(1, 2)):
        assert_checks_match_the_oracles(m)
