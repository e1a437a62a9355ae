import json
import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from lucasmagic import exactmat
from lucasmagic.algebra import commutes_exactly
from lucasmagic.exactmat import SquareMatrix, commutator, commutes, kron


# -- reference implementations --------------------------------------------
# The library multiplies through packed rows and eliminates row by row;
# these are the plain loops it replaced, kept as independent oracles.


def oracle_matmul(a, b):
    """Row-by-column triple loop."""
    bt = list(zip(*b.rows))
    return SquareMatrix(
        [[sum(x * y for x, y in zip(ra, cb)) for cb in bt] for ra in a.rows]
    )


def oracle_commutator(a, b):
    ab, ba = oracle_matmul(a, b), oracle_matmul(b, a)
    return SquareMatrix(
        [[x - y for x, y in zip(r, s)] for r, s in zip(ab.rows, ba.rows)]
    )


def oracle_rank(m):
    """Bareiss elimination updating one entry at a time."""
    work = []
    for r in m.rows:
        den = lcm(*(Fraction(x).denominator for x in r))
        work.append([int(x * den) for x in r])
    n = m.n
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, n) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        for i in range(row + 1, n):
            for j in range(col + 1, n):
                work[i][j] = (
                    work[row][col] * work[i][j] - work[i][col] * work[row][j]
                ) // prev
            work[i][col] = 0
        prev = work[row][col]
        row += 1
        rank += 1
        if row == n:
            break
    return rank


def test_constructor_rejects_ragged_input():
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2, 3], [4, 5, 6]])


def test_stock_matrices():
    assert SquareMatrix.identity(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert SquareMatrix.zero(2).rows == ((0, 0), (0, 0))
    assert SquareMatrix.all_ones(2).rows == ((1, 1), (1, 1))


def test_cross_identity_reverses():
    r = SquareMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    m = SquareMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert r @ r == SquareMatrix.identity(3)
    assert (r @ m).rows == ((7, 8, 9), (4, 5, 6), (1, 2, 3))
    assert (m @ r).rows == ((3, 2, 1), (6, 5, 4), (9, 8, 7))


def test_matmul():
    a = SquareMatrix([[1, 2], [3, 4]])
    b = SquareMatrix([[5, 6], [7, 8]])
    assert (a @ b).rows == ((19, 22), (43, 50))
    with pytest.raises(ValueError):
        a @ SquareMatrix.identity(3)


def test_ring_operations():
    a = SquareMatrix([[1, 2], [3, 4]])
    b = SquareMatrix([[5, 6], [7, 8]])
    assert (a + b).rows == ((6, 8), (10, 12))
    assert (b - a).rows == ((4, 4), (4, 4))
    assert (-a).rows == ((-1, -2), (-3, -4))
    assert (a * 3).rows == ((3, 6), (9, 12))
    assert (3 * a) == a * 3
    assert (a * Fraction(1, 2))[0, 1] == 1


def test_trace_and_frobenius():
    a = SquareMatrix([[1, 2], [3, 4]])
    assert a.trace() == 5
    assert a.frobenius_sq() == 1 + 4 + 9 + 16


def test_indexing():
    a = SquareMatrix([[1, 2], [3, 4]])
    assert a[1, 0] == 3
    assert a.row(0) == (1, 2)
    assert a.col(0) == (1, 3)
    assert list(a.entries()) == [1, 2, 3, 4]
    assert a.to_lists() == [[1, 2], [3, 4]]


def test_exact_rank():
    assert SquareMatrix.identity(4).exact_rank() == 4
    assert SquareMatrix.zero(3).exact_rank() == 0
    assert SquareMatrix.all_ones(5).exact_rank() == 1
    assert SquareMatrix([[1, 2], [2, 4]]).exact_rank() == 1
    assert SquareMatrix([[1, 2], [3, 4]]).exact_rank() == 2
    # rank survives rational entries
    assert SquareMatrix([[Fraction(1, 2), 1], [1, 2]]).exact_rank() == 1


def test_grid_round_trip():
    a = SquareMatrix([[1, -2], [3, 4]])
    assert SquareMatrix.from_grid(a.to_grid()) == a
    assert a.to_grid() == "1 -2\n3 4\n"
    assert SquareMatrix.from_grid("1 1/2\n\n0 3\n") == SquareMatrix(
        [[1, Fraction(1, 2)], [0, 3]]
    )
    with pytest.raises(ValueError):
        SquareMatrix.from_grid("1 2\n3\n")


def test_json_round_trip():
    a = SquareMatrix([[9, 12], [15, 23]])
    obj = a.to_json()
    assert obj == {"order": 2, "rows": [[9, 12], [15, 23]]}
    assert SquareMatrix.from_json(obj) == a
    assert SquareMatrix.from_json(json.dumps(obj)) == a
    with pytest.raises(ValueError):
        SquareMatrix.from_json({"order": 3, "rows": [[1, 2], [3, 4]]})
    with pytest.raises(ValueError):
        SquareMatrix([[Fraction(1, 2), 0], [0, 0]]).to_json()


def test_transpose():
    a = SquareMatrix([[1, 2], [3, 4]])
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert a.T == a.transpose()


def test_kron():
    a = SquareMatrix([[1, 2], [3, 4]])
    b = SquareMatrix([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.n == 4
    assert k.rows == (
        (0, 1, 0, 2),
        (1, 0, 2, 0),
        (0, 3, 0, 4),
        (3, 0, 4, 0),
    )
    assert kron(SquareMatrix.identity(2), SquareMatrix.identity(3)) == SquareMatrix.identity(6)


def test_commutator():
    a = SquareMatrix([[1, 2], [3, 4]])
    assert commutator(a, SquareMatrix.identity(2)) == SquareMatrix.zero(2)
    b = SquareMatrix([[0, 1], [0, 0]])
    assert commutator(a, b) != SquareMatrix.zero(2)
    assert commutator(a, b) == -commutator(b, a)


small = st.integers(min_value=-9, max_value=9)


def matrices(n):
    return st.lists(
        st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(SquareMatrix)


@given(matrices(3), matrices(3), matrices(3))
def test_distributivity_and_transpose_product(a, b, c):
    assert (a + b) @ c == a @ c + b @ c
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert (a @ b).trace() == (b @ a).trace()


@given(matrices(2), matrices(3))
def test_kron_mixed_product(a, b):
    # (A x I)(I x B) = A x B
    left = kron(a, SquareMatrix.identity(3)) @ kron(SquareMatrix.identity(2), b)
    assert left == kron(a, b)


@given(matrices(3))
def test_rank_bounds_and_transpose_invariance(a):
    r = a.exact_rank()
    assert 0 <= r <= 3
    assert a.transpose().exact_rank() == r
    if r == 3:
        assert a @ SquareMatrix.identity(3) == a


@given(matrices(4))
def test_exact_rank_against_the_float_oracle(a):
    import numpy as np

    assert a.exact_rank() == np.linalg.matrix_rank(np.array(a.to_lists(), dtype=float))


# -- the packed-row kernel against the oracles ------------------------------

ENTRY_BOUNDS = (1, 9, 10**6, 2**31, 10**40)


@st.composite
def exact_matrices(draw, n, fractions=False):
    """Mixed-sign n x n matrices, some with zero rows and columns or all zero.

    A Random seeded by hypothesis fills the entries, so orders up to 27
    with 40-digit entries stay within hypothesis's example size.
    """
    rnd = random.Random(draw(st.integers(0, 2**32)))
    bound = draw(st.sampled_from(ENTRY_BOUNDS))
    density = draw(st.sampled_from((0.0, 0.3, 1.0)))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))

    def entry(i, j):
        if i in zero_rows or j in zero_cols or rnd.random() >= density:
            return 0
        x = rnd.randint(-bound, bound)
        if fractions and rnd.random() < 0.5:
            return Fraction(x, rnd.randint(1, 12))
        return x

    return SquareMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


@st.composite
def matrix_pairs(draw, fractions=False):
    n = draw(st.integers(1, 27))
    return draw(exact_matrices(n, fractions)), draw(exact_matrices(n, fractions))


@given(matrix_pairs())
@settings(max_examples=40, deadline=None)
def test_matmul_matches_the_triple_loop(pair):
    a, b = pair
    assert a @ b == oracle_matmul(a, b)


@given(matrix_pairs(fractions=True))
@settings(max_examples=15, deadline=None)
def test_rational_products_match_the_triple_loop(pair):
    a, b = pair
    got = a @ b
    assert got == oracle_matmul(a, b)
    assert all(type(x) is int or x.denominator > 1 for x in got.entries())
    assert commutator(a, b) == oracle_commutator(a, b)


@given(matrix_pairs())
@settings(max_examples=40, deadline=None)
def test_commutator_and_commutes_exactly_match_the_oracle(pair):
    a, b = pair
    ref = oracle_commutator(a, b)
    assert commutator(a, b) == ref
    assert commutes_exactly(a, b) == (ref == SquareMatrix.zero(a.n))
    # a matrix commutes with itself and with its own square
    assert commutes_exactly(a, a)
    assert commutes_exactly(a, a @ a)


@given(
    st.integers(1, 27),
    st.sampled_from((1, 2, 255, 256, 2**31 - 1, 2**31, 10**40)),
    st.integers(0, 2**32).map(random.Random),
)
@settings(max_examples=25, deadline=None)
def test_products_at_the_slot_width_edge(n, m, rnd):
    # every entry is +-M, so a product entry reaches n*M**2 when the signs
    # line up, and a commutator entry 2*n*M**2
    plus = SquareMatrix([[m] * n for _ in range(n)])
    assert (plus @ plus).rows == ((n * m * m,) * n,) * n
    assert (plus @ -plus).rows == ((-n * m * m,) * n,) * n
    signs = [rnd.choice((-1, 1)) for _ in range(n)]
    a = SquareMatrix([[m * s for s in signs] for _ in range(n)])  # equal rows
    b = SquareMatrix([[m * s] * n for s in signs])  # equal columns
    assert a @ b == oracle_matmul(a, b)
    assert max(abs(x) for x in (a @ b).entries()) == n * m * m
    ref = oracle_commutator(a, b)
    assert commutator(a, b) == ref
    assert commutes_exactly(a, b) == (ref == SquareMatrix.zero(n))
    mixed = SquareMatrix([[m * rnd.choice((-1, 1)) for _ in range(n)] for _ in range(n)])
    assert mixed @ plus == oracle_matmul(mixed, plus)
    assert commutator(mixed, plus) == oracle_commutator(mixed, plus)


def test_commutator_reaches_twice_the_product_bound():
    # (ab)_01 = n*M**2 and (ba)_01 = -n*M**2: the difference needs the extra bit
    n, m = 2, 2**31
    a = SquareMatrix([[m, m], [m, -m]])
    b = SquareMatrix([[-m, m], [m, m]])
    assert commutator(a, b)[0, 1] == 2 * n * m * m
    assert commutator(a, b) == oracle_commutator(a, b)
    assert not commutes_exactly(a, b)


@pytest.mark.parametrize("n", [1, 2, 5, 27])
def test_commutes_exactly_reads_every_row(n):
    # a @ b and b @ a differ in the last row only (and only when n > 1)
    a = SquareMatrix([[int(i == n - 1 and j == 0) for j in range(n)] for i in range(n)])
    b = SquareMatrix([[(1 + (i == n - 1)) * (i == j) for j in range(n)] for i in range(n)])
    assert commutes_exactly(a, b) == (n == 1)
    assert commutator(a, b) == oracle_commutator(a, b)


def test_packed_products_reject_mismatched_orders():
    two, three = SquareMatrix.identity(2), SquareMatrix.identity(3)
    for op in (SquareMatrix.__matmul__, commutator, commutes):
        with pytest.raises(ValueError):
            op(two, three)


@given(st.integers(1, 12).flatmap(lambda n: exact_matrices(n, fractions=True)))
@settings(max_examples=60, deadline=None)
def test_exact_rank_matches_the_entrywise_bareiss(a):
    assert a.exact_rank() == oracle_rank(a)


def test_constructor_normalizes_entries():
    with pytest.raises(TypeError):
        SquareMatrix([[True]])
    with pytest.raises(TypeError):
        SquareMatrix([[1, 2], [3, False]])
    with pytest.raises(TypeError):
        SquareMatrix([[1.0]])
    whole = SquareMatrix([[Fraction(4, 2), 1], [0, 1]])
    assert type(whole[0, 0]) is int and whole[0, 0] == 2
    half = SquareMatrix([[Fraction(1, 2)]])
    assert type(half[0, 0]) is Fraction and half[0, 0] == Fraction(1, 2)

    class Tagged(int):
        pass

    tagged = SquareMatrix([[Tagged(3)]])
    assert type(tagged[0, 0]) is Tagged
    assert (tagged @ tagged)[0, 0] == 9


GRID_TOKENS = (
    "7", "-7", "+7", "-0", "007", "-007", "1_000", "١٢", "-١٢", "１２",
    "3/4", "-3/4", "٣/٤", "1_0/2_0", "0.5", "-.5", "1e3", "1E-2",
    "1/0", "0x10", "1__0", "_1", "1_", "+-1", "abc", "1/-2", "1//2",
)


def _fraction_or_error(tok):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return None


def _grid_entry_or_error(tok):
    try:
        return SquareMatrix.from_grid(tok)[0, 0]
    except ValueError:
        return None


@pytest.mark.parametrize("tok", GRID_TOKENS)
def test_grid_tokens_parse_like_fraction(tok):
    assert _grid_entry_or_error(tok) == _fraction_or_error(tok)


# No "e" in the alphabet: a random exponent such as 1e99999999 makes
# Fraction build a huge power of ten.  GRID_TOKENS covers exponents.
@given(
    st.text(alphabet=st.sampled_from("0123456789+-_/.xX١٢３"), min_size=1, max_size=12)
)
@settings(max_examples=300, deadline=None)
def test_int_first_grid_parse_agrees_with_fraction(tok):
    want = _fraction_or_error(tok)
    got = _grid_entry_or_error(tok)
    assert got == want
    if got is not None:
        assert type(got) is (int if want.denominator == 1 else Fraction)


def test_underscore_rows_are_left_to_fraction(monkeypatch):
    # int() reads "1_000" on every Python, Fraction() only from 3.11 on; a
    # row holding an underscore must follow Fraction, so stand in a
    # Fraction that refuses underscores, as Python 3.10's does
    def fraction_without_underscores(tok):
        if "_" in tok:
            raise ValueError(f"invalid literal for Fraction: {tok!r}")
        return Fraction(tok)

    monkeypatch.setattr(exactmat, "Fraction", fraction_without_underscores)
    for text in ("1_000", "1_000 2\n3 4", "1 2\n3 4_0"):
        with pytest.raises(ValueError):
            SquareMatrix.from_grid(text)
    assert SquareMatrix.from_grid("1 -2\n+3 007").rows == ((1, -2), (3, 7))


@pytest.mark.parametrize(
    "tok",
    [
        "1e2000000",
        "1e9999999999",
        "-2.5E-2000000",
        "1e+2_000_000",
        pytest.param("1e" + "7" * 5000, id="5000-digit-exponent"),
    ],
)
def test_grid_refuses_exponents_past_the_digit_limit(tok):
    with pytest.raises(ValueError, match="has an exponent past"):
        SquareMatrix.from_grid(f"1 {tok}\n2 3\n")


def test_grid_exponents_up_to_the_digit_limit_parse(monkeypatch):
    limit = sys.get_int_max_str_digits()
    for tok in (f"1e{limit}", f"-3.5E-{limit}", "1e300", "2/6", "0.25", "1e3"):
        assert _grid_entry_or_error(tok) == Fraction(tok)
    assert SquareMatrix.from_grid("1e300 0\n0 1").rows[0][0] == 10**300
    with pytest.raises(ValueError, match="exponent past"):
        SquareMatrix.from_grid(f"1e{limit + 1}")
    # with the limit switched off, the exponent is left to Fraction as before
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert SquareMatrix.from_grid(f"1e-{limit + 1}")[0, 0] == Fraction(1, 10 ** (limit + 1))


def test_grid_rows_mix_integers_and_fractions():
    m = SquareMatrix.from_grid("1 2/4\n-3 ١\n")
    assert m.rows == ((1, Fraction(1, 2)), (-3, 1))
    with pytest.raises(ValueError, match="zero denominator"):
        SquareMatrix.from_grid("1 2\n3 4/0\n")
