"""Counting and enumerating the natural compound squares.

At level l the natural squares assign the magnitudes 3^0 .. 3^(2l-1), in
any order and (for the Lucas family) any signs, to v_1, y_1, ..., v_l, y_l
with c_i = |v_i| + |y_i|.  Dedup by the 8 dihedral phases then gives the
fundamental counts: 2^(2l) (2l)! / 8 for Lucas and (2l)!/2 for Frierson.
Everything here works in parameter space — phases act faithfully on
parameters, so orbits of parameter tuples are orbits of matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial

from .construct import (
    Triple,
    canonical_parameters,
    lucas,
    normalize_triples,
)
from .spectra import singular_values
from .verify import fnc_parameter_equation

MATERIALIZATION_CEILING = 3


def _check_level(level: int) -> None:
    if level < 1:
        raise ValueError("level must be >= 1")


def lucas_total(level: int) -> int:
    return 2 ** (2 * level) * factorial(2 * level)


def frierson_total(level: int) -> int:
    return factorial(2 * level)


def lucas_fundamental_formula(level: int) -> int:
    return lucas_total(level) // 8


def frierson_fundamental_formula(level: int) -> int:
    return frierson_total(level) // 2


def frierson_paired_convention_count(level: int) -> int:
    """(2l)!/2^l — the stricter counting convention that also identifies
    the level-swapped partners; 6 at level 2 and 90 at level 3, versus the
    8-phase-only counts of 12 and 360 used everywhere else here."""
    return factorial(2 * level) // 2 ** level


def double_factorial_odd(level: int) -> int:
    """(2l - 1)!! — the count of distinct singular-value multisets."""
    out = 1
    for k in range(1, 2 * level, 2):
        out *= k
    return out


def natural_parameter_assignments(level: int, family: str = "lucas"):
    """Yield every natural parameter assignment at the given level.

    Magnitude orderings run in itertools.permutations order; for the Lucas
    family each ordering carries all 2^(2l) sign patterns.  Every yielded
    tuple produces a natural magic square.
    """
    if family not in ("lucas", "frierson"):
        raise ValueError(f"unknown family {family!r}")
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
    emit_matrices: bool = False,
    ceiling: int = MATERIALIZATION_CEILING,
) -> EnumerationResult:
    """Count (and below the ceiling, materialize) the fundamental squares.

    Materialized runs dedup the full assignment stream by canonical phase
    form and cross-check the count against the closed formula; beyond the
    ceiling only the formulas are used and representatives are None.
    """
    _check_level(level)
    formula = (
        lucas_fundamental_formula(level)
        if family == "lucas"
        else frierson_fundamental_formula(level)
    )
    total = lucas_total(level) if family == "lucas" else frierson_total(level)
    if level > ceiling:
        if emit_matrices:
            raise ValueError(
                f"level {level} exceeds the materialization ceiling ({ceiling})"
            )
        reps = None
    else:
        seen = set()
        count = 0
        for triples in natural_parameter_assignments(level, family):
            count += 1
            seen.add(canonical_parameters(triples))
        if count != total or len(seen) != formula:
            raise AssertionError(
                f"dedup ({len(seen)}/{count}) disagrees with formula "
                f"({formula}/{total})"
            )
        reps = tuple(sorted(seen))
    return EnumerationResult(
        level=level,
        family=family,
        total_assignments=total,
        fundamental_count=formula,
        representatives=reps,
        sv_class_count=sv_class_count(level),
    )


def duplicate_element_check(triples) -> bool:
    """True iff lucas(triples) has pairwise-distinct elements."""
    m = lucas(normalize_triples(triples))
    seen = set()
    for x in m.entries():
        if x in seen:
            return False
        seen.add(x)
    return True


def fnc_integer_solutions(level: int, require_distinct: bool = True):
    """Positive integer magnitude sets compatible with a natural square.

    A natural square at level l fixes two symmetric functions of the 2l
    magnitudes |v_i|, |y_i|: their squares sum to
    fnc_parameter_equation(level), and the values themselves sum to
    (9**level - 1) // 2 -- the magic constant divided by 3**level, since
    every centre offset is |v_i| + |y_i| and the smallest element must
    land on zero.  This solves that two-equation system exhaustively and
    returns the solutions as ascending tuples.

    The square condition alone is weaker: at level 2 it already admits
    ten distinct-positive solutions, of which only (1, 3, 9, 27) also
    meets the linear sum.  With both equations the answer is unique at
    levels 1 and 2.  At level 3 the two moments are no longer enough --
    hundreds of tuples besides (1, 3, 9, 27, 81, 243) satisfy both, and
    only duplicate_element_check separates the genuine natural set from
    the impostors.
    """
    quad_target = fnc_parameter_equation(level)
    lin_target = (9 ** level - 1) // 2
    count = 2 * level
    step = 1 if require_distinct else 0
    out = []

    def extend(prefix, lo, lin_rem, quad_rem, k):
        if k == 1:
            # the linear equation pins the last value
            if lin_rem >= lo and lin_rem * lin_rem == quad_rem:
                out.append(prefix + (lin_rem,))
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
    actually collecting the multisets over all fundamental Frierson
    squares; a mismatch would raise.
    """
    _check_level(level)
    formula = double_factorial_odd(level)
    if materialize is None:
        materialize = level <= MATERIALIZATION_CEILING
    if materialize:
        classes = set()
        seen = set()
        for triples in natural_parameter_assignments(level, "frierson"):
            canon = canonical_parameters(triples)
            if canon in seen:
                continue
            seen.add(canon)
            classes.add(tuple(sorted(singular_values(triples))))
        if len(classes) != formula:
            raise AssertionError(
                f"materialized sv classes {len(classes)} != formula {formula}"
            )
    return formula


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
        return {
            "level": self.level,
            "order": self.order,
            "mu": self.mu,
            "lucas_fundamental": self.lucas_fundamental,
            "frierson_fundamental": self.frierson_fundamental,
            "rank": self.rank,
            "sv_classes": self.sv_classes,
        }


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
