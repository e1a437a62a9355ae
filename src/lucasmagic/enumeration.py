"""Counting and enumerating the natural compound squares.

At level l the natural squares assign the magnitudes 3^0 .. 3^(2l-1), in
any order and (for the Lucas family) any signs, to v_1, y_1, ..., v_l, y_l
with c_i = |v_i| + |y_i|.  Up to the 8 dihedral phases that gives the
fundamental counts: 2^(2l) (2l)! / 8 for Lucas and (2l)!/2 for Frierson.
Everything here works in parameter space — phases act faithfully on
parameters, so orbits of parameter tuples are orbits of matrices.

The orbit representatives are built directly, in sorted order, by
`fundamental_representatives`; deduplicating the full assignment stream by
`canonical_parameters` gives the same tuple and stays as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, permutations, product
from math import factorial, floor, inf, isqrt, lgamma, log, log10, prod

from .construct import (
    Triple,
    _canonical,
    _lucas_rows,
    _sigma_coefficients,
    normalize_triples,
)
from .verify import fnc_parameter_equation

MATERIALIZATION_CEILING = 3


def _check_level(level: int) -> None:
    if level < 1:
        raise ValueError("level must be >= 1")


def _check_family(family: str) -> None:
    if family not in ("lucas", "frierson"):
        raise ValueError(f"unknown family {family!r}")


def lucas_total(level: int) -> int:
    return 2 ** (2 * level) * factorial(2 * level)


def frierson_total(level: int) -> int:
    return factorial(2 * level)


def lucas_fundamental_formula(level: int) -> int:
    return lucas_total(level) // 8


def frierson_fundamental_formula(level: int) -> int:
    return frierson_total(level) // 2


def double_factorial_odd(level: int) -> int:
    """(2l - 1)!! — the count of distinct singular-value multisets."""
    return prod(range(1, 2 * level, 2))


def natural_parameter_assignments(level: int, family: str = "lucas"):
    """Yield every natural parameter assignment at the given level.

    Magnitude orderings run in itertools.permutations order; for the Lucas
    family each ordering carries all 2^(2l) sign patterns.  Every yielded
    tuple produces a natural magic square.
    """
    _check_family(family)
    mags = [3 ** k for k in range(2 * level)]
    sign_patterns = (
        list(product((1, -1), repeat=2 * level))
        if family == "lucas"
        else [(1,) * (2 * level)]
    )
    for perm in permutations(mags):
        for signs in sign_patterns:
            vals = [m * s for m, s in zip(perm, signs)]
            yield tuple(
                (abs(v) + abs(y), v, y)
                for v, y in zip(vals[0::2], vals[1::2])
            )


def fundamental_representatives(level: int, family: str = "lucas"):
    """Yield the canonical form of every phase orbit of natural assignments,
    in ascending order: exactly the tuple
    sorted(set(canonical_parameters(t) for t in
    natural_parameter_assignments(level, family))), without visiting it.

    A natural assignment has |v_1| != |y_1|, so the 8 phase images of level
    1 are distinct and the smallest has (v_1, y_1) = (-max, -min).  That one
    phase acts on every level, so the other levels take any two unused
    magnitudes in either order with every sign (Lucas) or both negative
    (Frierson).  Each level's candidates are sorted, so a depth-first walk
    yields the tuples in lexicographic order.  A level's candidates depend
    only on the magnitudes still free, so the walk builds one sorted list
    per free set, once per call, and stores each candidate's child free set
    next to it; memory is bounded by those lists, and the tuples stream.
    """
    _check_family(family)
    _check_level(level)
    signs = tuple(product((1, -1), repeat=2)) if family == "lucas" else ((-1, -1),)
    lists = {}

    def candidates(free):
        # (triple, the free set below it), sorted by triple, built once
        cands = lists.get(free)
        if cands is None:
            cands = lists[free] = sorted(
                ((a + b, sa * a, sb * b), free - {a, b})
                for a in free for b in free if a != b for sa, sb in signs
            )
        return cands

    def walk(prefix, cands):
        for t, rest in cands:
            if rest:
                yield from walk(prefix + (t,), candidates(rest))
            else:
                yield prefix + (t,)

    mags = frozenset(3 ** k for k in range(2 * level))
    yield from walk((), sorted(
        ((a + b, -a, -b), mags - {a, b}) for a in mags for b in mags if a > b
    ))


@dataclass(frozen=True)
class EnumerationResult:
    level: int
    family: str
    total_assignments: int
    fundamental_count: int
    representatives: tuple[tuple[Triple, ...], ...] | None
    sv_class_count: int

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "family": self.family,
            "total_assignments": self.total_assignments,
            "fundamental_count": self.fundamental_count,
            "sv_class_count": self.sv_class_count,
            "representatives": None
            if self.representatives is None
            else [[list(t) for t in rep] for rep in self.representatives],
        }


def enumerate_fundamental(
    level: int,
    family: str = "lucas",
    ceiling: int = MATERIALIZATION_CEILING,
) -> EnumerationResult:
    """Count (and below the ceiling, materialize) the fundamental squares.

    Materialized runs take the representatives from
    fundamental_representatives and cross-check them: their number must be
    the closed formula and each must be its own canonical form
    (construct._canonical, which returns a natural representative at once
    when v_1 < y_1 < 0 and builds the phase images otherwise); the
    singular-value classes are materialized and checked too.  Beyond the
    ceiling only the formulas are used and representatives are None.
    """
    _check_family(family)
    _check_level(level)
    formula = (
        lucas_fundamental_formula(level)
        if family == "lucas"
        else frierson_fundamental_formula(level)
    )
    total = lucas_total(level) if family == "lucas" else frierson_total(level)
    if level > ceiling:
        reps = None
    else:
        reps = tuple(fundamental_representatives(level, family))
        if len(reps) != formula:
            raise AssertionError(
                f"{len(reps)} representatives disagree with formula ({formula})"
            )
        for rep in reps:
            if _canonical(rep) != rep:
                raise AssertionError(f"representative {rep} is not canonical")
    return EnumerationResult(
        level=level,
        family=family,
        total_assignments=total,
        fundamental_count=formula,
        representatives=reps,
        sv_class_count=sv_class_count(level, materialize=reps is not None),
    )


def duplicate_element_check(triples) -> bool:
    """True iff lucas(triples) has pairwise-distinct elements."""
    triples = normalize_triples(triples)
    return len(set(chain.from_iterable(_lucas_rows(triples)))) == 9 ** len(triples)


def fnc_integer_solutions(level: int, require_distinct: bool = True):
    """Positive integer magnitude sets compatible with a natural square.

    A natural square at level l fixes two symmetric functions of the 2l
    magnitudes |v_i|, |y_i|: their squares sum to
    fnc_parameter_equation(level), and the values themselves sum to
    (9**level - 1) // 2 -- the magic constant divided by 3**level, since
    every centre offset is |v_i| + |y_i| and the smallest element must
    land on zero.  This solves that two-equation system exhaustively and
    returns the solutions as ascending tuples; the search runs over all but
    the last two values, which the two equations then fix in closed form.

    The square condition alone is weaker: at level 2 it already admits
    ten distinct-positive solutions, of which only (1, 3, 9, 27) also
    meets the linear sum.  With both equations the answer is unique at
    levels 1 and 2.  At level 3 the two moments are no longer enough --
    hundreds of tuples besides (1, 3, 9, 27, 81, 243) satisfy both, and
    the magnitude criterion (verify._natural: the magnitudes are exactly
    3^0 .. 3^(2l-1)) separates the genuine natural set from the impostors.
    """
    quad_target = fnc_parameter_equation(level)
    lin_target = (9 ** level - 1) // 2
    count = 2 * level
    step = 1 if require_distinct else 0
    out = []

    def extend(prefix, lo, lin_rem, quad_rem, k):
        if k == 2:
            # x + y = lin_rem and x^2 + y^2 = quad_rem pin the last two
            # values: (y - x)^2 = 2 quad_rem - lin_rem^2, so y - x has the
            # parity of lin_rem and x = (lin_rem - (y - x)) / 2 is whole
            gap = 2 * quad_rem - lin_rem * lin_rem
            if gap < 0:
                return
            r = isqrt(gap)
            x = (lin_rem - r) // 2
            if r * r == gap and r >= step and x >= lo:
                out.append(prefix + (x, x + r))
            return
        # cheapest tail is lo, lo+step, lo+2*step, ...
        if k * lo + step * k * (k - 1) // 2 > lin_rem:
            return
        # k values summing to lin_rem have square-sum >= lin_rem**2 / k
        if quad_rem * k < lin_rem * lin_rem:
            return
        # ... and at most biggest * lin_rem, with the biggest capped by
        # what the k-1 smallest companions leave over
        biggest = lin_rem - (k - 1) * lo - step * (k - 1) * (k - 2) // 2
        if quad_rem > biggest * lin_rem:
            return
        x = lo
        while (k * x + step * k * (k - 1) // 2 <= lin_rem
               and k * x * x <= quad_rem):
            extend(prefix + (x,), x + step, lin_rem - x, quad_rem - x * x,
                   k - 1)
            x += 1

    extend((), 1, lin_target, quad_target, count)
    return out


def sv_class_count(level: int, materialize: bool | None = None) -> int:
    """(2l-1)!! distinct singular-value multisets among the fundamentals.

    For small levels (<= 3 by default) the count is double-checked by
    actually collecting the multisets over the fundamental Frierson
    representatives, keyed by _sv_class; a mismatch would raise.
    """
    _check_level(level)
    formula = double_factorial_odd(level)
    if materialize is None:
        materialize = level <= MATERIALIZATION_CEILING
    if materialize:
        classes = set(map(_sv_class, fundamental_representatives(level, "frierson")))
        if len(classes) != formula:
            raise AssertionError(
                f"materialized sv classes {len(classes)} != formula {formula}"
            )
    return formula


def _sv_class(triples) -> tuple:
    """(|mu|, the sorted |w|) of construct._sigma_coefficients(triples).  The
    singular values are |mu|, |w| sqrt(3) and zeros, and at one level the zeros
    follow from the |w|: squares of one level share this key iff their
    singular-value multisets are equal."""
    mu, *ws = _sigma_coefficients(triples)
    return abs(mu), tuple(sorted(map(abs, ws)))


@dataclass(frozen=True)
class CensusRow:
    level: int
    order: int
    mu: int
    lucas_fundamental: int
    frierson_fundamental: int
    rank: int
    sv_classes: int

    def to_json(self) -> dict:
        return asdict(self)


def census(level: int) -> CensusRow:
    """One row of the numerical-constants table, from the closed formulas."""
    _check_level(level)
    n = 3 ** level
    return CensusRow(
        level=level,
        order=n,
        mu=n * (n * n - 1) // 2,
        lucas_fundamental=lucas_fundamental_formula(level),
        frierson_fundamental=frierson_fundamental_formula(level),
        rank=2 * level + 1,
        sv_classes=double_factorial_odd(level),
    )


def census_digits(level: int, family: str | None = None) -> float:
    """Decimal digits of the largest integer in census(level), or with a
    family, of that family's fundamental count, from logarithms: no
    factorial is formed, so this is cheap at any level.

    mu is taken as 27^l / 2, and it bounds the order and the rank; the
    Lucas count bounds the Frierson count and the sv classes.  The estimate
    is the true number of digits or one more.  0 below level 1, inf when the
    level is too large for a float.
    """
    if level < 1:
        return 0
    try:
        log_fact = lgamma(2 * level + 1) / log(10)
        logs = {
            "lucas": log_fact + (2 * level - 3) * log10(2),
            "frierson": log_fact - log10(2),
        }
        if family is None:
            top = max(logs["lucas"], 3 * level * log10(3) - log10(2))
        else:
            top = logs[family]
        return floor(max(top, 0)) + 1
    except OverflowError:
        return inf
