import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lucasmagic import radical, spectra
from lucasmagic.construct import _sigma_coefficients, frierson_to_lucas, lucas, lucas3, magic_index
from lucasmagic.exactmat import SquareMatrix, commutator
from lucasmagic.radical import Radical, RadicalSum
from lucasmagic.spectra import (
    U3,
    V3,
    eigenvalues,
    jcf_matrices,
    lucas3_inverse,
    matrix_power,
    matrix_power_digits,
    rank,
    s3,
    singular_values,
    spectrum_report,
    svd_matrices,
    table1_row,
)

from helpers import lambda_oracle, omega_oracle, orthonormality_residual, s3_oracle

A_SET = ((4, 3, 1), (36, 27, 9))


def mat_pow(m, k):
    """m**k for k >= 1 by k - 1 exact products: the reference for matrix_power."""
    out = m
    for _ in range(k - 1):
        out = out @ m
    return out


# Generic matrix operations on tuples of RadicalSum rows: the tests' reference
# for the decomposition factors, which the library builds over base-3 digits.


def _rad_rows(rows):
    return tuple(tuple(RadicalSum(x) for x in row) for row in rows)


def _rad_matmul(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), RadicalSum()) for col in cols)
        for row in a
    )


def rad_kron(a, b):
    """The Kronecker product a (x) b of two matrices given by their rows."""
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb))
        for i in range(na * nb)
    )


def _permute_columns(rows, order):
    return tuple(tuple(row[j] for j in order) for row in rows)


def _scale_columns(rows, factors):
    return tuple(tuple(x * f for x, f in zip(row, factors)) for row in rows)


def test_order3_eigenvalues():
    evs = eigenvalues([(4, 3, 1)])
    assert [str(e) for e in evs] == ["12", "2*sqrt(6)", "-2*sqrt(6)"]
    assert evs[1] == Radical(1, 3 * (3 * 3 - 1 * 1))  # lambda = sqrt(3(v^2 - y^2))
    # v^2 < y^2 turns the pair imaginary
    evs = eigenvalues([(4, 1, 3)])
    assert [str(e) for e in evs] == ["12", "i*2*sqrt(6)", "i*-2*sqrt(6)"]
    assert abs(evs[1]) == Radical(2, 6)


def test_order9_eigenvalues_inner_first():
    evs = eigenvalues(A_SET)
    assert str(evs[0]) == "360"
    # +-3*lambda(inner) before +-3*lambda(outer), then zeros
    assert [str(e) for e in evs[1:5]] == ["6*sqrt(6)", "-6*sqrt(6)", "54*sqrt(6)", "-54*sqrt(6)"]
    assert all(e.is_zero() for e in evs[5:])
    assert len(evs) == 9


def test_order3_singular_values():
    svs = singular_values([(4, 3, 1)])
    assert [str(s) for s in svs] == ["12", "4*sqrt(3)", "2*sqrt(3)"]
    assert rank([(4, 3, 1)]) == 3
    # sign flips of (v, y) permute the sqrt(3)|v +- y| pair but keep the multiset
    assert sorted(singular_values([(4, -3, 1)])) == sorted(svs)
    assert sorted(singular_values([(4, 3, -1)])) == sorted(svs)
    assert singular_values([(4, -3, -1)]) == svs


def test_order9_singular_values():
    svs = singular_values(A_SET)
    assert str(svs[0]) == "360"
    assert [str(s) for s in svs[1:5]] == [
        "12*sqrt(3)",
        "6*sqrt(3)",
        "108*sqrt(3)",
        "54*sqrt(3)",
    ]
    assert all(s.is_zero() for s in svs[5:])
    assert rank(A_SET) == 5


def test_spectral_frobenius_identity():
    for triples in [((4, 3, 1),), A_SET, ((4, 1, 3), (36, 9, 27), (324, 243, 81))]:
        m = lucas(triples)
        assert sum(s.square() for s in singular_values(triples)) == m.frobenius_sq()


def test_jcf_exact():
    s, d = jcf_matrices([(4, 3, 1)])
    m = lucas3(4, 3, 1)
    lhs = _rad_matmul(_rad_rows(m.rows), s)
    rhs = _rad_matmul(
        s, _rad_rows([[d[j] if i == j else 0 for j in range(3)] for i in range(3)])
    )
    assert lhs == rhs


def test_jcf_refuses_degenerate_levels():
    with pytest.raises(ValueError, match=r"degenerate level \(v, y\) = \(3, 3\)"):
        jcf_matrices([(4, 3, 3)])
    with pytest.raises(ValueError):
        jcf_matrices([(4, 3, -3), (36, 27, 9)])
    with pytest.raises(ValueError):
        jcf_matrices([(4, 0, 0)])


def test_jcf_residuals():
    for triples in [((4, 3, 1),), ((4, 1, 3),), A_SET, ((4, 1, 3), (36, 9, 27))]:
        assert spectrum_report(triples).jcf_residual < 1e-12


def test_svd_residuals_and_orthonormality():
    for triples in [((4, 3, 1),), A_SET, ((4, 3, 1), (36, 27, 9), (324, 243, 81))]:
        u, sigma, v = svd_matrices(triples)
        assert spectrum_report(triples).svd_residual < 1e-12
        assert orthonormality_residual(u) < 1e-12
        assert orthonormality_residual(v) < 1e-12
        assert all(s.is_zero() or s.coeff > 0 for s in sigma)


def test_svd_diagonal_matches_closed_form():
    _, sigma, _ = svd_matrices(A_SET)
    assert sorted(sigma) == sorted(singular_values(A_SET))


# Levels 1 and 2 only: a level-3 product of the exact rows takes ~20x longer
EXACT_IDENTITY_CASES = [
    ((4, 3, 1),),
    ((4, 1, 3),),  # an imaginary pair
    ((-5, -3, 1),),  # negative mu, v + y and v - y
    A_SET,
    ((4, 1, 3), (36, 9, 27)),  # imaginary pairs at both levels
    ((-7, 2, -5), (3, -4, 1)),  # negative mu and v +- y, an imaginary inner pair
]


@pytest.mark.parametrize("triples", EXACT_IDENTITY_CASES)
def test_jcf_identity_holds_exactly(triples):
    s, d = jcf_matrices(triples)
    m = _rad_rows(lucas(triples).rows)
    assert _rad_matmul(m, s) == _rad_rows(_scale_columns(s, d))


@pytest.mark.parametrize("triples", EXACT_IDENTITY_CASES + [
    ((0, 0, 0),),  # zero squares
    ((0, 0, 0), (0, 0, 0)),
    ((1, 2, 2), (3, 1, -1)),  # v = +-y: zero singular values, no S
])
def test_svd_identity_holds_exactly(triples):
    u, sigma, v = svd_matrices(triples)
    usv = _rad_matmul(_scale_columns(u, sigma), tuple(zip(*v)))
    assert usv == _rad_rows(lucas(triples).rows)


def test_rank_counts():
    assert lucas(((4, 3, 1),)).exact_rank() == 3
    assert lucas(A_SET).exact_rank() == 5
    assert rank(A_SET) == 5


tiny = st.integers(min_value=-3, max_value=3)


@given(st.lists(st.tuples(tiny, tiny, tiny), min_size=1, max_size=3))
@example([(0, 0, 0)])  # the zero square
@example([(0, 0, 0), (0, 0, 0), (0, 0, 0)])
@example([(1, 2, -2), (-1, 3, 3)])  # mu = 0 and v = +-y at every level
@example([(2, 1, 1), (-2, 0, 0), (0, 3, -1)])  # mu = 0
@settings(max_examples=60, deadline=None)
def test_rank_is_the_closed_form_count(triples):
    # small values make zero mu, v = +-y and zero levels common
    count = sum(1 for r in singular_values(triples) if not r.is_zero())
    assert rank(triples) == count == lucas(triples).exact_rank()


def test_spectrum_report():
    rep = spectrum_report(A_SET)
    assert rep.order == 9
    assert rep.mu == 360
    assert rep.rank == 5
    assert rep.jcf_residual is not None and rep.jcf_residual < 1e-12
    assert rep.svd_residual < 1e-12
    obj = rep.to_json()
    assert obj["eigenvalues"][0]["exact"] == "360"
    assert obj["eigenvalues"][0]["approx"] == [360.0, 0.0]
    assert len(obj["singular_values"]) == 9


def test_spectrum_report_degenerate_jcf_is_none():
    rep = spectrum_report([(4, 2, 2)])
    assert rep.jcf_residual is None
    assert rep.svd_residual < 1e-12


TABLE1 = {
    (3, 1, 27, 9): ("6*sqrt(6)", "54*sqrt(6)", [12, 6, 108, 54]),
    (27, 9, 3, 1): ("54*sqrt(6)", "6*sqrt(6)", [108, 54, 12, 6]),
    (27, 1, 9, 3): ("6*sqrt(546)", "18*sqrt(6)", [84, 78, 36, 18]),
    (9, 3, 27, 1): ("18*sqrt(6)", "6*sqrt(546)", [36, 18, 84, 78]),
    (9, 1, 27, 3): ("12*sqrt(15)", "36*sqrt(15)", [30, 24, 90, 72]),
    (27, 3, 9, 1): ("36*sqrt(15)", "12*sqrt(15)", [90, 72, 30, 24]),
}


@pytest.mark.parametrize("vals,row", sorted(TABLE1.items()))
def test_table1_rows(vals, row):
    got = table1_row(*vals)
    assert got["abs_lambda1"] == row[0]
    assert got["abs_lambda2"] == row[1]
    assert got["sigma_over_sqrt3"] == row[2]
    assert got["set"] == vals


def test_matrix_power_order3():
    rng = random.Random(11)
    for _ in range(25):
        c, v, y = (rng.randint(-9, 9) for _ in range(3))
        m = lucas3(c, v, y)
        for k in range(1, 7):
            assert matrix_power([(c, v, y)], k) == mat_pow(m, k)
    with pytest.raises(ValueError):
        matrix_power([(4, 3, 1)], 0)


def test_matrix_power_order9_and_27():
    m9 = lucas(A_SET)
    for k in range(1, 5):
        assert matrix_power(A_SET, k) == mat_pow(m9, k)
    deep = ((4, 3, 1), (36, 27, 9), (324, 243, 81))
    assert matrix_power(deep, 2) == mat_pow(lucas(deep), 2)
    level4 = [
        ((4, 3, 1), (36, 27, 9), (324, 243, 81), (2916, 2187, 729)),
        ((1, -2, 3), (-5, 4, -4), (2, 0, 1), (-3, 1, 2)),  # v = -y at level 2
    ]
    for triples in level4:
        for k in (1, 2, 3):
            assert matrix_power(triples, k) == mat_pow(lucas(triples), k)


def test_lucas3_inverse():
    m = lucas3(4, 3, 1)
    assert m @ lucas3_inverse(4, 3, 1) == SquareMatrix.identity(3)
    assert lucas3_inverse(4, 3, 1) @ m == SquareMatrix.identity(3)
    for c, v, y in [(0, 3, 1), (4, 3, 3), (4, 3, -3), (5, 0, 0)]:
        with pytest.raises(ValueError):
            lucas3_inverse(c, v, y)


def test_commuting_pair_shares_eigenvectors():
    p = frierson_to_lucas(((1, 3), (27, 9)))
    q = frierson_to_lucas(((9, 27), (3, 1)))
    assert commutator(lucas(p), lucas(q)) == SquareMatrix.zero(9)
    assert jcf_matrices(p)[0] == jcf_matrices(q)[0]


def test_rad_kron_matches_matrix_kron():
    a = _rad_rows([[1, 2], [3, 4]])
    b = _rad_rows([[0, 1], [1, 0]])
    k = rad_kron(a, b)
    assert len(k) == 4 and all(len(row) == 4 for row in k)
    assert k[0][3] == RadicalSum(2)
    assert k[2][1] == RadicalSum(3)


signed = st.integers(min_value=-20, max_value=20)


@given(st.lists(st.tuples(signed, signed, signed), min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_frobenius_identity_for_random_parameters(triples):
    m = lucas(triples)
    assert sum(s.square() for s in singular_values(triples)) == m.frobenius_sq()


@given(st.lists(st.tuples(signed, signed, signed), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_eigenvalue_sums_match_traces(triples):
    m = lucas(triples)
    evs = eigenvalues(triples)
    assert len(evs) == m.n
    assert sum((RadicalSum(e) for e in evs), RadicalSum()) == m.trace()
    assert sum(e.square() for e in evs) == (m @ m).trace()


@given(
    st.lists(st.tuples(signed, signed, signed), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_order3_power_closed_form(triples, k):
    assert matrix_power(triples, k) == mat_pow(lucas(triples), k)


@pytest.mark.parametrize(
    "triples",
    [((0, 1, 1),), ((0, 1, 1), (0, 2, -2)), ((1, 1, 1), (0, 2, -2), (-1, 3, 3))],
)
def test_matrix_power_zero_factors_at_a_huge_exponent(triples):
    # C = 0 and v = +-y at every level: every term of M^k is zero for k >= 2,
    # so the closed form must not raise 3 to a billion-sized power first
    assert matrix_power(triples, 10 ** 9) == SquareMatrix.zero(3 ** len(triples))


def test_eigenvalues_split_each_radicand_once(monkeypatch):
    # v -+ y are twin primes near 1e6 and 1e9; c sums to 0, so mu needs no
    # split; each level splits its factors |v| - |y| and |v| + |y| once
    triples = ((1, 1000038, 1), (0, 1000000008, 1), (-1, 1000038, -1))
    calls = []
    split = radical.squarefree_split
    monkeypatch.setattr(radical, "squarefree_split", lambda n: calls.append(n) or split(n))
    evs = eigenvalues(triples)
    assert sorted(calls) == sorted(
        w for _, v, y in triples for w in (abs(v) - abs(y), abs(v) + abs(y))
    )
    r = evs[1]
    expected = (evs[2], r, r, Radical(1) / r)
    calls.clear()
    assert (-r, abs(r), abs(-r), r.inverse()) == expected
    assert calls == []


@given(
    st.lists(st.tuples(signed, signed, signed), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_matrix_power_digits_bound_the_entries(triples, k):
    digits = max(len(str(abs(x))) for row in matrix_power(triples, k).to_lists() for x in row)
    expected = matrix_power_digits(triples, k)
    if expected == 0:
        assert matrix_power(triples, k) == SquareMatrix.zero(3 ** len(triples))
    else:
        assert expected - 1 <= digits <= expected + 1


@pytest.mark.parametrize("triples", [((0, 3, 1),), ((0, 0, 0), (0, 7, -2)), ((2, 0, 0), (3, 0, 0))])
@pytest.mark.parametrize("k", [1, 2, 3, 50, 101, 500])
def test_matrix_power_digits_of_a_single_term(triples, k):
    # one nonzero term, so the largest entry is that term's largest multiple
    entries = matrix_power(triples, k).to_lists()
    assert matrix_power_digits(triples, k) == max(len(str(abs(x))) for row in entries for x in row)


@pytest.mark.parametrize("call", [
    lambda: eigenvalues([(1, 2.9, 1)]),  # used v = 2
    lambda: singular_values([(1, 2, Fraction(1, 2))]),
    lambda: matrix_power([(4, 3, 1)], 2.0),
    lambda: matrix_power_digits([(4, 3, 1)], 2.5),
])
def test_parameters_and_exponents_must_be_integers(call):
    with pytest.raises(TypeError):
        call()


def test_matrix_power_digits_at_huge_exponents():
    assert matrix_power_digits(((4, 3, 1),), 10 ** 8) > 10 ** 7
    assert matrix_power_digits(((4, 3, 1),), 10 ** 400) == math.inf
    assert matrix_power_digits(((0, 1, 1), (0, 2, -2)), 10 ** 400) == 0
    with pytest.raises(ValueError, match="positive"):
        matrix_power_digits(((4, 3, 1),), 0)


def _kron_columns(level):
    """The Kronecker column of each block-order slot: mu, the level pairs, zeros."""
    head = [0] + [j * 3 ** k for k in range(level) for j in (1, 2)]
    return head + [j for j in range(3 ** level) if j not in head]


def _kron_chain_factors(triples):
    """The decomposition factors as rad_kron chains (outermost factor on the
    left), with the columns permuted and the U columns scaled by +-1."""
    order = _kron_columns(len(triples))
    s = None
    if all(v * v != y * y for _, v, y in triples):
        s = s3(*triples[-1][1:])
        for _, v, y in reversed(triples[:-1]):
            s = rad_kron(s, s3(v, y))
        s = _permute_columns(s, order)
    u, v = U3, V3
    for _ in triples[1:]:
        u, v = rad_kron(U3, u), rad_kron(V3, v)
    signed = [magic_index(triples)] + [w for _, a, b in triples for w in (a + b, a - b)]
    signs = [-1 if w < 0 else 1 for w in signed] + [1] * (3 ** len(triples) - len(signed))
    return s, _scale_columns(_permute_columns(u, order), signs), _permute_columns(v, order)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_factors_match_the_kron_chain(level):
    rng = random.Random(level)
    cases = [[(rng.randint(-40, 40), rng.randint(-20, 20), rng.randint(-20, 20))
              for _ in range(level)] for _ in range({1: 6, 2: 6, 3: 2, 4: 1}[level])]
    cases.append([(1, 2, 2)] + [(3, 1, -1)] * (level - 1))  # v = +-y: no S
    for triples in cases:
        s, u, v = _kron_chain_factors(triples)
        if s is None:
            with pytest.raises(ValueError):
                jcf_matrices(triples)
        else:
            assert jcf_matrices(triples)[0] == s
        got_u, _, got_v = svd_matrices(triples)
        assert got_u == u
        assert got_v == v


def test_spectrum_report_splits_a_few_radicands_per_level(monkeypatch):
    triples = ((4, 3, 1), (36, 27, 9), (324, 243, 81))
    calls = []
    split = radical.squarefree_split
    monkeypatch.setattr(radical, "squarefree_split", lambda n: calls.append(n) or split(n))
    spectrum_report(triples)
    # the splits are the closed-form values' own radicands; the factor
    # matrices' products and sums split nothing
    assert len(calls) <= 10 * len(triples)


def test_spectrum_report_forms_each_factor_product_once(monkeypatch):
    # a level-4 factor has 6561 entries, but the residuals work from the
    # order-3 float blocks: the report forms no exact product of S's sums,
    # and complex() runs on each level's 9 s3 entries only
    triples = ((4, 3, 1), (36, 27, 9), (324, 243, 81), (2916, 2187, 729))
    calls = {"mul": 0, "complex": 0}
    mul, to_complex = RadicalSum.__mul__, RadicalSum.__complex__

    def counted_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counted_complex(a):
        calls["complex"] += 1
        return to_complex(a)

    monkeypatch.setattr(RadicalSum, "__mul__", counted_mul)
    monkeypatch.setattr(RadicalSum, "__complex__", counted_complex)
    report = spectrum_report(triples)
    assert report.jcf_residual < 1e-12 and report.svd_residual < 1e-12
    assert calls["mul"] == 0
    assert 0 < calls["complex"] <= 9 * len(triples)


# The residuals with each diagonal as a dense matrix, multiplied in O(n^3),
# over the exact factor rows: the oracle for the report's jcf_residual and
# svd_residual,
# which work from the order-3 float blocks by Kronecker chains and mode products.


def _dense_array(rows):
    return np.array([[complex(x) for x in row] for row in rows], dtype=complex)


def dense_jcf_residual(m, s, d):
    a = np.array(m.to_lists(), dtype=float)
    s = _dense_array(s)
    d = np.diag([complex(r) for r in d])
    return float(np.linalg.norm(a @ s - s @ d) / (np.linalg.norm(a) or 1.0))


def dense_svd_residual(m, u, sigma, v):
    a = np.array(m.to_lists(), dtype=float)
    u = _dense_array(u).real
    v = _dense_array(v).real
    sig = np.diag([complex(r) for r in sigma]).real
    return float(np.linalg.norm(u @ sig @ v.T - a) / (np.linalg.norm(a) or 1.0))


wide = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
level_triple = st.one_of(
    st.tuples(wide, wide, wide),
    st.tuples(signed, signed, signed),
    # v = +-y: no eigenvector matrix, and a zero singular value
    st.builds(lambda c, v, s: (c, v, s * v), wide, wide, st.sampled_from((1, -1))),
)


@given(st.lists(level_triple, min_size=1, max_size=3))
@example([(4, 3, 1), (36, 27, 9), (324, 243, 81), (2916, 2187, 729)])  # natural, level 4
@example([(4, 3, 1), (36, 27, 9), (324, 243, 81), (2916, 2187, 729),
          (26244, 19683, 6561)])  # natural, level 5
@example([(0, 0, 0)])  # zero squares
@example([(1, 0, 0), (-1, 0, 0)])
@settings(max_examples=100, deadline=None)
def test_residuals_match_the_dense_diagonals(triples):
    # imaginary pairs (|y| > |v|), negative mu and negative v +- y, whose U
    # columns are negated, all come up among these; both roundings of the
    # exact zero are tiny, and near each other
    m = lucas(triples)
    report = spectrum_report(triples)
    pairs = [(report.svd_residual, dense_svd_residual(m, *svd_matrices(triples)))]
    if all(v * v != y * y for _, v, y in triples):
        pairs.append((report.jcf_residual, dense_jcf_residual(m, *jcf_matrices(triples))))
    else:
        square, eigs = spectra._float_square(triples), eigenvalues(triples)
        with pytest.raises(ValueError, match="degenerate level"):
            spectra._jcf_residual(triples, square, eigs)
    for got, dense in pairs:
        assert got < 1e-12 and dense < 1e-12
        assert abs(got - dense) < 1e-13


# S D and U Sigma as whole np.kron chains of the float blocks, scaled by the
# diagonals in Kronecker column order: the oracle for the library's head
# columns, which must give the same residual bits wherever it is warning-free
# (each head entry is the same product, and D and Sigma zero the rest).


def _kron_chain(blocks):
    """kron(blocks[-1], ..., blocks[0]): blocks[0] at the least significant digit."""
    out = np.ones((1, 1))
    for b in blocks:
        out = np.kron(b, out)
    return out


def _kron_diagonal(values, level, scale):
    head = spectra._head_columns(level)
    out = np.zeros(3 ** level, dtype=complex)
    out[head] = [spectra._complex(r) * scale for r in values[: len(head)]]
    return out


def kron_chain_jcf_residual(triples, square, eigs):
    exact = [s3(v, y) for _, v, y in triples]
    if square is None:
        return None
    a, scale = square
    try:
        blocks = [spectra._float_block(b) for b in exact]
        sd = _kron_chain(blocks)
        sd *= _kron_diagonal(eigs, len(triples), scale)
    except OverflowError:
        return None
    ms = spectra._mode_products(a, blocks)
    ms -= sd
    return spectra._relative_norm(ms, a)


def kron_chain_svd_residual(triples, square, sigma):
    if square is None:
        return None
    a, scale = square
    level = len(triples)
    signed = [-r if w < 0 else r for w, r in zip(_sigma_coefficients(triples), sigma)]
    try:
        sig = _kron_diagonal(signed, level, scale).real
    except OverflowError:
        return None
    us = _kron_chain([spectra._float_block(U3).real] * level)
    us *= sig
    usv = spectra._mode_products(us, [spectra._float_block(V3).real.T] * level)
    usv -= a
    return spectra._relative_norm(usv, a)


def _hex(x):
    return None if x is None else x.hex()


@given(st.lists(level_triple, min_size=1, max_size=3))
@example([(4, 3, 1), (36, 27, 9), (324, 243, 81), (2916, 2187, 729),
          (26244, 19683, 6561)])  # natural, level 5
@example([(0, 0, 0)])  # zero squares
@example([(0, 0, 0), (0, 0, 0), (0, 0, 0)])
@example([(0, 10 ** 200, 0)])  # entries past the square root of float range
@example([(0, 2 ** 1100, 0)])  # M past float range: both residuals None
@settings(max_examples=100, deadline=None)
def test_residuals_equal_the_kron_chain_bit_for_bit(triples):
    triples = tuple(triples)
    square = spectra._float_square(triples)
    eigs, sigma = eigenvalues(triples), singular_values(triples)
    refused = any(v * v == y * y for _, v, y in triples)
    try:
        with np.errstate(all="raise"):  # the oracle must be warning-free
            want_svd = kron_chain_svd_residual(triples, square, sigma)
            want_jcf = None if refused else kron_chain_jcf_residual(triples, square, eigs)
    except FloatingPointError:
        return
    report = spectrum_report(triples)
    svd = spectra._svd_residual(triples, square, sigma)
    assert _hex(svd) == _hex(report.svd_residual) == _hex(want_svd)
    assert _hex(report.jcf_residual) == _hex(want_jcf)
    if refused:
        with pytest.raises(ValueError, match="degenerate level"):
            spectra._jcf_residual(triples, square, eigs)
    else:
        assert _hex(spectra._jcf_residual(triples, square, eigs)) == _hex(want_jcf)


@given(st.lists(level_triple, min_size=1, max_size=4))
@example([(0, 2 ** 53 + 1, 0), (1, 0, 3)])  # entries that round
@example([(0, 2 ** 1100, 0)])  # past float range
@settings(max_examples=100, deadline=None)
def test_float_square_is_the_exact_square_rounded(triples):
    # M in floats is read from the digit-sum row stream, entry by entry
    try:
        want = np.array(lucas(triples).rows, dtype=float)
    except OverflowError:
        assert spectra._float_square(triples) is None
        return
    a, scale = spectra._float_square(triples)
    assert a.flags.c_contiguous and a.tobytes() == (want * scale).tobytes()


NATURAL_FRIERSON6 = ((1, 3), (9, 27), (81, 243), (729, 2187), (6561, 19683), (59049, 177147))


def test_jcf_residual_forms_no_dense_s_d():
    # M S and its mode-product temporaries are three complex n x n arrays;
    # S D as a whole n x n array would be a fourth
    triples = frierson_to_lucas(NATURAL_FRIERSON6)
    square = spectra._float_square(triples)
    eigs = eigenvalues(triples)
    tracemalloc.start()
    try:
        assert spectra._jcf_residual(triples, square, eigs) < 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 729 ** 2 * np.dtype(complex).itemsize


# v - y = 2 beside entries near 2^k: past level 3 or so the products of the
# S blocks overflow, which numpy reports as RuntimeWarnings unless told not to
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [394, 519, 706, 1000, 1018])
def test_residuals_emit_no_numpy_warning(k, level):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = spectrum_report([(0, 2 ** k + 1, 2 ** k - 1)] * level)
    for r in (report.jcf_residual, report.svd_residual):
        assert r is None or math.isfinite(r)


@given(st.lists(level_triple, min_size=1, max_size=4))
@example([(0, 0, 0), (1, 2, -2)])  # zero mu and zero v +- y
def test_singular_values_match_the_splitting_constructor(triples):
    # the values are built as canonical; the reference splits each radicand
    scale = 3 ** (len(triples) - 1)
    want = [Radical(abs(magic_index(triples)))]
    want += [Radical(scale * abs(w), 3) for _, v, y in triples for w in (v + y, v - y)]
    want += [Radical(0)] * (3 ** len(triples) - len(want))
    got = singular_values(triples)
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert got == want and [hash(r) for r in got] == [hash(r) for r in want]


def test_spectrum_report_builds_shared_values_once(monkeypatch):
    triples = ((-4, 3, 1), (36, -27, 9), (324, 243, -81))
    want = spectrum_report(triples).to_json()
    # M's entries are read once from the digit-sum row stream
    calls = {"_lucas_rows": 0, "eigenvalues": 0, "singular_values": 0}
    for name in calls:
        original = getattr(spectra, name)

        def counted(t, name=name, original=original):
            calls[name] += 1
            return original(t)

        monkeypatch.setattr(spectra, name, counted)
    assert spectrum_report(triples).to_json() == want
    assert calls == {"_lucas_rows": 1, "eigenvalues": 1, "singular_values": 1}


def test_negated_u_columns_convert_no_extra_values(monkeypatch):
    # mu and every v +- y negative: U negates 2l+1 of its columns, which the
    # residual folds into Sigma, so U3 and V3 are converted the same
    # constant number of times at every level, and Sigma's 2l+1 values once
    negative = ((-4, -3, -1), (-36, -27, -9), (-324, -243, -81),
                (-2916, -2187, -729), (-26244, -19683, -6561))
    calls = []
    to_complex = Radical.__complex__
    monkeypatch.setattr(Radical, "__complex__", lambda r: calls.append(r) or to_complex(r))
    factor_ids = {id(x) for row in U3 + V3 for x in row}
    for level in (1, 3, 5):
        calls.clear()
        triples = negative[:level]
        square, sigma = spectra._float_square(triples), singular_values(triples)
        assert spectra._svd_residual(triples, square, sigma) < 1e-12
        factor_calls = sum(1 for r in calls if id(r) in factor_ids)
        assert factor_calls == 18
        assert len(calls) == factor_calls + 2 * level + 1


def _random_array(rng, shape, kind):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if kind == "complex" else x


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_mode_products_match_the_kron_matmul(level, kind):
    # the residuals' fast path against the dense products it replaces
    rng = np.random.default_rng(level)
    for x_kind in ("real", "complex"):
        blocks = [_random_array(rng, (3, 3), kind) for _ in range(level)]
        x = _random_array(rng, (5, 3 ** level), x_kind)
        kron = _kron_chain(blocks)
        want = x @ kron
        got = spectra._mode_products(x, blocks)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        values = [Radical(int(k)) for k in rng.integers(-9, 10, 2 * level + 1)]
        want = kron[:, spectra._head_columns(level)] * [complex(r) * 0.5 for r in values]
        got = spectra._head_products(blocks, values, 0.5)
        if kind == "real":
            assert np.array_equal(got, want)
        else:
            # numpy's complex product is a fused multiply-add, so a * b and
            # b * a can round apart; the s3 blocks' products are exact (below)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_head_products_of_the_s_blocks_are_the_kron_chain_bits(level):
    # column 0 of every s3 block is all ones, so a head entry is one block
    # entry times ones, whatever the order of the products; imaginary pairs
    # make every block complex
    rng = random.Random(level)
    for _ in range(5):
        triples = [(rng.randint(-99, 99), rng.randint(1, 99), rng.randint(100, 199))
                   for _ in range(level)]
        blocks = [spectra._float_block(s3(v, y)) for _, v, y in triples]
        eigs = eigenvalues(triples)
        want = _kron_chain(blocks) * _kron_diagonal(eigs, level, 0.125)
        got = spectra._head_products(blocks, eigs, 0.125)
        assert np.array_equal(got, want[:, spectra._head_columns(level)])


NATURAL = ((4, 3, 1), (36, 27, 9), (324, 243, 81), (2916, 2187, 729))


def _swap_first_pair(values):
    values = list(values)
    values[1], values[2] = values[2], values[1]
    return values


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_residuals_detect_corruption(monkeypatch, level):
    # a negative v + y at level 1 negates a U column; each corrupted input
    # must lift a residual far above the 1e-9 the reports are held to
    triples = ((4, -3, -1), *NATURAL[1:level])
    square = spectra._float_square(triples)
    eigs, sigma = eigenvalues(triples), singular_values(triples)
    assert min(_sigma_coefficients(triples)) < 0
    assert spectra._jcf_residual(triples, square, eigs) < 1e-12
    assert spectra._svd_residual(triples, square, sigma) < 1e-12

    assert spectra._jcf_residual(triples, square, _swap_first_pair(eigs)) > 1e-9
    a, scale = square
    bumped = a.copy()
    bumped[0, 0] += scale  # one more in M's first entry
    assert spectra._jcf_residual(triples, (bumped, scale), eigs) > 1e-9
    assert spectra._svd_residual(triples, (bumped, scale), sigma) > 1e-9
    head = spectra._head_products

    def first_negative_flipped(t):
        # sigma is unchanged, and one negated U column is left unflipped
        ws = _sigma_coefficients(t)
        p = next(p for p, w in enumerate(ws) if w < 0)
        ws[p] = -ws[p]
        return ws

    with monkeypatch.context() as m:
        m.setattr(spectra, "_sigma_coefficients", first_negative_flipped)
        assert spectra._svd_residual(triples, square, sigma) > 1e-9
    with monkeypatch.context() as m:
        # the innermost level's first two columns, in S and U but not in M S or V
        m.setattr(spectra, "_head_products",
                  lambda bl, values, scale: head([bl[0][:, [1, 0, 2]], *bl[1:]], values, scale))
        assert spectra._jcf_residual(triples, square, eigs) > 1e-9
        assert spectra._svd_residual(triples, square, sigma) > 1e-9


# lambda from the splits of |v| -+ |y| against the oracle that splits the
# whole radicand 3(v^2 - y^2).  Huge levels have v + y and v - y equal to
# twice a value up to 10^6 times a power of ten up to 10^24, so the oracle's
# product stays within the factoring budget.


def _huge_level(c, a, e, b, f):
    a, b = a * 10 ** e, b * 10 ** f
    return c, a + b, a - b


oracle_level = st.one_of(
    level_triple,
    st.builds(_huge_level, wide, wide, st.integers(0, 24), wide, st.integers(0, 24)),
    # v = 0 or y = 0
    st.builds(lambda c, w, first: (c, w, 0) if first else (c, 0, w), wide, wide, st.booleans()),
)


@given(st.lists(oracle_level, min_size=1, max_size=3))
@example([(1, 1000038, 1), (0, -1000038, 1), (2, 1, -1000038)])  # twin-prime factors, imaginary
@example([(0, 0, 0), (5, 7, 0), (-5, 0, 7)])  # zero, v = 0 and y = 0
@example([(3, 2 * 10 ** 30, 10 ** 30), (0, -10 ** 30, 10 ** 30 + 2)])
@example([(4, 3, 1), (36, 27, 9), (324, 243, 81)])  # natural
@settings(max_examples=80, deadline=None)
def test_spectral_values_equal_the_whole_radicand_oracle(triples):
    level, scale = len(triples), 3 ** (len(triples) - 1)
    want = [Radical(magic_index(triples))]
    for _, v, y in triples:
        r = lambda_oracle(v, y, scale)
        want += (r, -r)
    want += [Radical(0)] * (3 ** level - len(want))
    got = eigenvalues(triples)
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert [hash(r) for r in got] == [hash(r) for r in want]

    degenerate = any(v * v == y * y for _, v, y in triples)
    for _, v, y in triples:
        if v * v == y * y:
            with pytest.raises(ValueError):
                spectra.omega(v, y)
        else:
            assert repr(spectra.omega(v, y)) == repr(omega_oracle(v, y))
            assert s3(v, y) == s3_oracle(v, y)

    report = spectrum_report(triples)
    assert report.eigenvalues == tuple(want)
    assert report.singular_values == tuple(singular_values(triples))
    assert (report.order, report.mu, report.rank) == (3 ** level, magic_index(triples), rank(triples))
    if degenerate:
        assert report.jcf_residual is None
        with pytest.raises(ValueError):
            jcf_matrices(triples)
        return
    blocks = [s3_oracle(v, y) for _, v, y in triples]
    s = blocks[-1]
    for b in reversed(blocks[:-1]):
        s = rad_kron(s, b)
    got_s, got_d = jcf_matrices(triples)
    assert got_s == _permute_columns(s, _kron_columns(level))
    assert got_d == tuple(want)


@pytest.mark.parametrize("v, y", [(1000038, 1), (-1000038, 1), (1, 1000038), (-1, -1000038)])
def test_eigenvalues_of_a_prime_pair_run_no_rho(monkeypatch, v, y):
    # |v| -+ |y| are the primes 1000037 and 1000039: each passes trial
    # division whole, where their product needed rho to split it again
    want, want_omega = lambda_oracle(v, y), omega_oracle(v, y)
    calls = []
    brent = radical._brent_divisor
    monkeypatch.setattr(radical, "_brent_divisor", lambda n: calls.append(n) or brent(n))
    assert eigenvalues([(0, v, y)])[1:] == [want, -want]
    assert spectra.omega(v, y) == want_omega
    assert calls == []
