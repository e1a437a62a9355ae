"""The acceptance gate: one test (and one printed pass/fail line) per
criterion, each at its stated tolerance or time bound.  Run with

    pytest -v tests/test_acceptance.py

for the per-criterion lines, or add -s for the printed summaries."""

import random
import time
from pathlib import Path

from lucasmagic.algebra import (
    FIER9_EXPECTED_PAIRS,
    count_commuting_64,
    fier9_commuting_pairs,
    find_commuting_pairs,
    two_form_phase_family,
)
from lucasmagic.construct import (
    FRIERSON9_SETS,
    PHASE_NAMES,
    apply_phase,
    canonical_parameters,
    frierson_to_lucas,
    lucas,
    lucas3,
    magic_index,
    phase_parameters,
)
from lucasmagic.enumeration import (
    census,
    enumerate_fundamental,
    fnc_integer_solutions,
    natural_parameter_assignments,
)
from lucasmagic.exactmat import SquareMatrix, commutator
from lucasmagic.spectra import (
    lucas3_inverse,
    matrix_power,
    rank,
    singular_values,
    spectrum_report,
    svd_matrices,
)
from lucasmagic.verify import (
    check_fnc,
    check_magic,
    check_natural,
    check_regular,
    recover_lucas_params,
)

from helpers import compose_phases, orthonormality_residual

FIXTURES = Path(__file__).parent / "fixtures"

ORDER3_NATURALS = {
    (4, 3, 1): ((7, 0, 5), (2, 4, 6), (3, 8, 1)),
    (4, 3, -1): ((7, 2, 3), (0, 4, 8), (5, 6, 1)),
    (4, -3, -1): ((1, 8, 3), (6, 4, 2), (5, 0, 7)),
    (4, -3, 1): ((1, 6, 5), (8, 4, 0), (3, 2, 7)),
    (4, 1, 3): ((5, 0, 7), (6, 4, 2), (1, 8, 3)),
    (4, 1, -3): ((5, 6, 1), (0, 4, 8), (7, 2, 3)),
    (4, -1, -3): ((3, 8, 1), (2, 4, 6), (7, 0, 5)),
    (4, -1, 3): ((3, 2, 7), (8, 4, 0), (1, 6, 5)),
}

TABLE1_ROWS = {
    ("A", "G"): ("6*sqrt(6)", "54*sqrt(6)", [12, 6, 108, 54]),
    ("D", "J"): ("54*sqrt(6)", "6*sqrt(6)", [108, 54, 12, 6]),
    ("B", "H"): ("6*sqrt(546)", "18*sqrt(6)", [84, 78, 36, 18]),
    ("E", "K"): ("18*sqrt(6)", "6*sqrt(546)", [36, 18, 84, 78]),
    ("C", "I"): ("12*sqrt(15)", "36*sqrt(15)", [30, 24, 90, 72]),
    ("F", "L"): ("36*sqrt(15)", "12*sqrt(15)", [90, 72, 30, 24]),
}

CENSUS_ROWS = {
    1: (3, 12, 1, 1, 3, 1),
    2: (9, 360, 48, 12, 5, 3),
    3: (27, 9828, 5760, 360, 7, 15),
    4: (81, 265680, 1290240, 20160, 9, 105),
    5: (243, 7174332, 464486400, 1814400, 11, 945),
    6: (729, 193709880, 245248819200, 239500800, 13, 10395),
}


def _passed(tag: str, extra: str = "") -> None:
    print(f"PASS  {tag}" + (f"  [{extra}]" if extra else ""))


def test_criterion_01_order3_census():
    t0 = time.perf_counter()
    got = {triples[0]: lucas(triples).rows for triples in natural_parameter_assignments(1)}
    assert got == ORDER3_NATURALS, "the eight order-3 squares, element for element"
    res = enumerate_fundamental(1)
    assert res.total_assignments == 8
    assert res.fundamental_count == 1
    assert len(res.representatives) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed("criterion 1: order-3 census (8 squares, 1 fundamental)", f"{elapsed:.3f}s")


def test_criterion_02_table1_exact():
    t0 = time.perf_counter()
    from lucasmagic.spectra import table1_row

    for (first, second), (l1, l2, sigs) in TABLE1_ROWS.items():
        for letter in (first, second):
            row = table1_row(*FRIERSON9_SETS[letter])
            assert row["abs_lambda1"] == l1, letter
            assert row["abs_lambda2"] == l2, letter
            assert row["sigma_over_sqrt3"] == sigs, letter
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed("criterion 2: order-9 spectra table, all 12 sets exact", f"{elapsed:.3f}s")


def test_criterion_03_census_table_and_materialized_dedup():
    for level, row in CENSUS_ROWS.items():
        c = census(level)
        assert (
            c.order,
            c.mu,
            c.lucas_fundamental,
            c.frierson_fundamental,
            c.rank,
            c.sv_classes,
        ) == row, f"level {level}"
    lu2 = enumerate_fundamental(2)
    fr2 = enumerate_fundamental(2, "frierson")
    assert lu2.fundamental_count == 48 and len(lu2.representatives) == 48
    assert fr2.fundamental_count == 12 and len(fr2.representatives) == 12
    t0 = time.perf_counter()
    lu3 = enumerate_fundamental(3)
    fr3 = enumerate_fundamental(3, "frierson")
    elapsed = time.perf_counter() - t0
    assert lu3.fundamental_count == 5760 and len(lu3.representatives) == 5760
    assert fr3.fundamental_count == 360 and len(fr3.representatives) == 360
    assert elapsed < 120.0
    # the materialized dedup over every natural assignment is the oracle
    for result in (lu2, fr2, lu3, fr3):
        dedup = {
            canonical_parameters(t)
            for t in natural_parameter_assignments(result.level, result.family)
        }
        assert result.representatives == tuple(sorted(dedup))
    _passed(
        "criterion 3: census rows 1..6 + dedup 48/12 and 5760/360",
        f"level-3 dedup {elapsed:.1f}s",
    )


def test_criterion_04_screen_counterexample():
    m5 = SquareMatrix.from_grid((FIXTURES / "m5_counterexample.txt").read_text())
    assert check_magic(m5) == (True, 60)
    assert check_fnc(m5)
    assert m5.frobenius_sq() == 4900
    assert not check_natural(m5)
    _passed("criterion 4: norm screen passes, naturalness fails (order 5, mu=60)")


def test_criterion_05_norm_condition_solutions():
    t0 = time.perf_counter()
    assert fnc_integer_solutions(1) == [(1, 3)]
    assert fnc_integer_solutions(2) == [(1, 3, 9, 27)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed("criterion 5: moment equations pin {1,3} and {1,3,9,27}", f"{elapsed:.3f}s")


def test_criterion_06_decomposition_residuals():
    worst_jcf = worst_svd = worst_orth = 0.0
    for rep in enumerate_fundamental(2).representatives:
        u, _, v = svd_matrices(rep)
        report = spectrum_report(rep)
        worst_jcf = max(worst_jcf, report.jcf_residual)
        worst_svd = max(worst_svd, report.svd_residual)
        worst_orth = max(worst_orth, orthonormality_residual(u), orthonormality_residual(v))
    spot = ((4, 3, 1), (36, 27, 9), (324, 243, 81))
    report = spectrum_report(spot)
    worst_jcf = max(worst_jcf, report.jcf_residual)
    u, _, v = svd_matrices(spot)
    worst_svd = max(worst_svd, report.svd_residual)
    worst_orth = max(worst_orth, orthonormality_residual(u), orthonormality_residual(v))
    assert worst_jcf < 1e-9
    assert worst_svd < 1e-9
    assert worst_orth < 1e-9
    _passed(
        "criterion 6: residuals on all 48 order-9 fundamentals + order-27 spot",
        f"jcf {worst_jcf:.1e}, svd {worst_svd:.1e}, orth {worst_orth:.1e}",
    )


def _nonzero_count(values):
    return sum(1 for r in values if not r.is_zero())


def test_criterion_07_rank():
    for triples in natural_parameter_assignments(1):
        assert lucas(triples).exact_rank() == 3
        assert rank(triples) == _nonzero_count(singular_values(triples)) == 3
    for rep in enumerate_fundamental(2).representatives:
        assert lucas(rep).exact_rank() == 5
        assert rank(rep) == _nonzero_count(singular_values(rep)) == 5
    # level 3: the closed-form rank over every assignment; the singular-value
    # count and elimination on a sample
    assert all(rank(t) == 7 for t in natural_parameter_assignments(3))
    rng = random.Random(7)
    sample = rng.sample(sorted(natural_parameter_assignments(3)), 12)
    for triples in sample:
        assert _nonzero_count(singular_values(triples)) == 7
        assert lucas(triples).exact_rank() == 7
    _passed("criterion 7: rank 3/5/7 = nonzero singular values at levels 1/2/3")


def test_criterion_08_powers_and_inverse():
    rng = random.Random(101)
    for _ in range(100):
        c, v, y = (rng.randint(-20, 20) for _ in range(3))
        m = lucas3(c, v, y)
        acc = m
        for k in range(1, 7):
            assert matrix_power([(c, v, y)], k) == acc
            acc = acc @ m
    done = 0
    while done < 100:
        c, v, y = (rng.randint(-20, 20) for _ in range(3))
        if c == 0 or v * v == y * y:
            continue
        m = lucas3(c, v, y)
        inv = lucas3_inverse(c, v, y)
        assert m @ inv == SquareMatrix.identity(3)
        assert inv @ m == SquareMatrix.identity(3)
        done += 1
    pool = sorted(natural_parameter_assignments(2))
    for triples in rng.sample(pool, 20):
        m = lucas(triples)
        acc = m
        for k in range(1, 5):
            assert matrix_power(triples, k) == acc
            acc = acc @ m
    _passed(
        "criterion 8: order-3 powers k<=6 x100, inverses x100, order-9 powers k<=4 x20"
    )


def test_criterion_09_commutation_suite():
    # the eight lettered pairs
    found = fier9_commuting_pairs()
    assert len(found) == 8
    assert {frozenset(p) for p in found} == FIER9_EXPECTED_PAIRS
    # exactly 4 commuting pairs among the eight order-3 naturals
    squares = [lucas3(*t) for t in sorted(ORDER3_NATURALS)]
    pairs = find_commuting_pairs(squares)
    assert len(pairs) == 4
    for i, j in pairs:
        assert commutator(squares[i], squares[j]) == SquareMatrix.zero(3)
    # the 64 ordered commuting pairs over the two-form phase families
    for letter in ("A", "C", "F"):
        assert count_commuting_64(two_form_phase_family(*FRIERSON9_SETS[letter])) == 64
    # the order-27 worked pair
    a = lucas(frierson_to_lucas(((1, 3), (27, 9), (81, 243))))
    b = lucas(frierson_to_lucas(((9, 27), (3, 1), (81, 243))))
    assert commutator(a, b) == SquareMatrix.zero(27)
    assert check_natural(a) and check_natural(b)
    _passed("criterion 9: 8 lettered pairs, 4 order-3 pairs, 64-count, order-27 pair")


def test_criterion_10_randomized_property_suites():
    rng = random.Random(2024)

    def draw_triples(levels):
        return tuple(
            tuple(rng.randint(-30, 30) for _ in range(3)) for _ in range(levels)
        )

    # magic + regularity at levels 1..3
    for _ in range(200):
        triples = draw_triples(rng.randint(1, 3))
        m = lucas(triples)
        ok, mu = check_magic(m)
        assert ok and mu == magic_index(triples)
        assert check_regular(m)

    # spectral norm identity
    for _ in range(100):
        triples = draw_triples(rng.randint(1, 3))
        assert sum(s.square() for s in singular_values(triples)) == lucas(
            triples
        ).frobenius_sq()

    # singular values ignore parameter signs
    for _ in range(100):
        triples = draw_triples(rng.randint(1, 3))
        flipped = tuple(
            (c, v * rng.choice((1, -1)), y * rng.choice((1, -1)))
            for c, v, y in triples
        )
        assert sorted(singular_values(flipped)) == sorted(singular_values(triples))

    # phase-group closure, the full composition table on one square
    m = lucas(draw_triples(2))
    for p in PHASE_NAMES:
        for q in PHASE_NAMES:
            assert apply_phase(apply_phase(m, p), q) == apply_phase(
                m, compose_phases(p, q)
            )
    for _ in range(50):
        triples = draw_triples(rng.randint(1, 2))
        p = rng.choice(PHASE_NAMES)
        assert lucas(phase_parameters(triples, p)) == apply_phase(lucas(triples), p)
        assert canonical_parameters(phase_parameters(triples, p)) == (
            canonical_parameters(triples)
        )

    # parameter recovery round-trips on gauged draws
    for _ in range(60):
        level = rng.randint(1, 3)
        mags = rng.sample([1, 2, 3, 5, 7, 9, 13, 27], 2 * level)
        vals = [m * rng.choice((1, -1)) for m in mags]
        triples = tuple(
            (abs(v) + abs(y), v, y) for v, y in zip(vals[0::2], vals[1::2])
        )
        assert recover_lucas_params(lucas(triples)) == triples

    _passed("criterion 10: randomized suites (510 draws, all exact)")
