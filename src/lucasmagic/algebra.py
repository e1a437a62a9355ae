"""Commutation: predicates, searches, and a pair construction.

Two compound squares over the same level structure commute exactly when
every level's (v, y) direction matches: v_p * y_q == y_p * v_q at each
level.  The compounding identity splits a commutator into an inner-block
copy and an outer copy that cannot cancel each other, so the level-wise
test is both necessary and sufficient.  Everything here keeps that
closed form honest by re-checking against the exact commutator.

For A = lucas(p) and B = lucas(q) at level l, the exact commutator is a
Kronecker form: each square is a digit sum of order-3 blocks, the all-ones
J at every digit but one, and the mixed-product rule
(X1 (x) X2)(Y1 (x) Y2) = X1 Y1 (x) X2 Y2 multiplies them digit by digit.
A magic block B with line sum 3c has J B = B J = 3c J, and J^2 = 3J, so
the cross terms of AB and BA are equal and cancel, and [A, B] is 3^(l-1)
times the digit sum of the l order-3 commutators [L3(p_k), L3(q_k)].  A
digit sum is zero only when each block is constant, and a commutator is
traceless, so A and B commute exactly when all l 3x3 commutators are zero.
The gauge of the c_k does not matter, since c J commutes with every block.
For a recovered pair this *is* the exact commutator, in O(l) work; the
packed n x n product (`exactmat.commutes`) checks every other pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import (
    FRIERSON9_SETS,
    PHASE_NAMES,
    _lucas3_rows,
    apply_phase,
    frierson9,
    lucas,
    normalize_triples,
)
from .exactmat import SquareMatrix, commutes
from .verify import recover_lucas_params


def commutes_exactly(a: SquareMatrix, b: SquareMatrix) -> bool:
    """True iff the exact commutator a@b - b@a is the zero matrix."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    return commutes(a, b)


def commute3_predicate(p, q) -> bool:
    """Closed-form commutation test for order-3 squares: v*t == y*s.

    p and q are (c, v, y) triples; the centre values never matter.
    """
    _, v, y = p
    _, s, t = q
    return v * t == y * s


def commute_predicate(p, q) -> bool:
    """Closed-form commutation test at any level: v*t == y*s level-wise."""
    p = normalize_triples(p)
    q = normalize_triples(q)
    if len(p) != len(q):
        raise ValueError(f"level mismatch: {len(p)} vs {len(q)}")
    return all(commute3_predicate(a, b) for a, b in zip(p, q))


def _commutes_by_level(p, q) -> bool:
    """True iff lucas(p) and lucas(q) commute, for normalized triples of one
    length: every order-3 commutator [L3(p_k), L3(q_k)] is zero (see the
    module docstring).  Each 3x3 product is formed exactly."""
    for s, t in zip(p, q):
        x, y = _lucas3_rows(*s), _lucas3_rows(*t)
        if _product3(x, y) != _product3(y, x):
            return False
    return True


def _product3(x, y) -> list[list[int]]:
    y0, y1, y2 = y
    return [[a * d + b * e + c * f for d, e, f in zip(y0, y1, y2)] for a, b, c in x]


def commute9_predicate(p, q) -> bool:
    """Order-9 commutation test, re-verified against the exact commutator.

    The level-wise direction test covers both swapped-partner patterns
    (outer levels exchanged with inner ones in either orientation) as
    well as blockwise-trivial cases; every call recomputes the exact
    commutator in Kronecker form, from the two order-3 commutators, and
    raises if the closed form ever disagreed.
    """
    p = normalize_triples(p)
    q = normalize_triples(q)
    if len(p) != 2 or len(q) != 2:
        raise ValueError("commute9_predicate expects level-2 parameters")
    predicted = commute_predicate(p, q)
    observed = _commutes_by_level(p, q)
    if predicted != observed:  # pragma: no cover - the closed form is exact
        raise AssertionError(
            f"closed form said {predicted} but the commutator said {observed} "
            f"for {p} vs {q}"
        )
    return predicted


def find_commuting_pairs(squares):
    """All unordered index pairs (i < j) with exact zero commutator.

    Raises on mixed orders; a list of one (or zero) squares has no cross
    pairs and yields [].
    """
    squares = list(squares)
    for m in squares[1:]:
        if m.n != squares[0].n:
            raise ValueError(f"order mismatch: {m.n} vs {squares[0].n}")
    return [
        (i, j)
        for i in range(len(squares))
        for j in range(i + 1, len(squares))
        if commutes_exactly(squares[i], squares[j])
    ]


def build_commuting_lucas_pair(level: int, base_triples, strict: bool = True):
    """Two parameter tuples whose squares commute, made by 9-scaling.

    From one base of `level` triples (innermost first): the first output
    keeps the inner levels and multiplies the outer triple by
    9**(level-1); the second multiplies every inner triple by 9 and
    keeps the outer one.  Levels of the two outputs are then positive
    multiples of each other, so the squares commute for any base.

    strict=True (default) additionally demands the menu that makes both
    outputs natural: the inner (v, y) magnitudes use each power
    3**0 .. 3**(2*level-3) exactly once, the outer magnitudes are
    {1, 3}, signs free, and every c_i equals |v_i| + |y_i|.  Violations
    raise ValueError.  strict=False skips the menu (e.g. an all-zero
    base then yields two zero squares, commuting trivially).
    """
    base = normalize_triples(base_triples)
    if level < 2:
        raise ValueError("a scaled commuting pair needs level >= 2")
    if len(base) != level:
        raise ValueError(f"expected {level} base triples, got {len(base)}")
    if strict:
        inner_mags = sorted(abs(x) for _, v, y in base[:-1] for x in (v, y))
        menu = [3 ** k for k in range(2 * level - 2)]
        if inner_mags != menu:
            raise ValueError(
                f"inner |v|,|y| magnitudes must be {menu} in some order, "
                f"got {inner_mags}"
            )
        _, v_out, y_out = base[-1]
        if sorted((abs(v_out), abs(y_out))) != [1, 3]:
            raise ValueError("outer |v|,|y| magnitudes must be {1, 3}")
        for c, v, y in base:
            if c != abs(v) + abs(y):
                raise ValueError(
                    f"strict mode needs c = |v| + |y| per level, got {(c, v, y)}"
                )
    scale = 9 ** (level - 1)
    first = base[:-1] + (tuple(scale * x for x in base[-1]),)
    second = tuple(tuple(9 * x for x in t) for t in base[:-1]) + (base[-1],)
    return first, second


def two_form_phase_family(v: int, y: int, s: int, t: int):
    """Sixteen order-9 squares: two sign-forms of one value set, 8 phases each.

    From positive magnitudes (v, y, s, t): the forms
    ((v+y, v, y), (s+t, s, t)) and ((v+y, v, y), (s+t, -s, -t)), each
    pushed through all eight phases.  Returns (label, matrix) pairs with
    labels like "+identity", "-rmr".
    """
    if min(v, y, s, t) <= 0:
        raise ValueError("value-set magnitudes must be positive")
    forms = {
        "+": ((v + y, v, y), (s + t, s, t)),
        "-": ((v + y, v, y), (s + t, -s, -t)),
    }
    out = []
    for tag, triples in forms.items():
        m = lucas(triples)
        for ph in PHASE_NAMES:
            out.append((f"{tag}{ph}", apply_phase(m, ph)))
    return out


def count_commuting_64(matrices) -> int:
    """Ordered commuting pairs, self-pairs included, by exact commutator.

    Accepts plain squares or (label, square) pairs.  Over the sixteen
    two-form phase matrices of one natural value set the count is 64:
    each matrix commutes with its own phase orbit {g, rmr.g} in both
    forms — four partners, itself among them — and 16 * 4 = 64.  Note
    the convention: counting unordered distinct pairs of the same family
    gives 24 (see find_commuting_pairs); a single-square input has no
    cross pairs at all, though its self-pair still counts 1 here.
    """
    mats = [m[1] if isinstance(m, tuple) else m for m in matrices]
    return sum(
        1 for a in mats for b in mats if commutes_exactly(a, b)
    )


# The set-letter suite: the twelve lettered order-9 Frierson squares plus
# their right-reversal images, labels "A".."L" and "AR".."LR".
FIER9_LETTERS = tuple(sorted(FRIERSON9_SETS))

# Exactly these eight label pairs commute within the 24-square suite
# (derived once by exhaustive exact commutator; kept as the fixture).
FIER9_EXPECTED_PAIRS = frozenset(
    frozenset(p)
    for p in [
        ("A", "D"),
        ("C", "F"),
        ("AR", "DR"),
        ("CR", "FR"),
        ("G", "JR"),
        ("GR", "J"),
        ("I", "LR"),
        ("IR", "L"),
    ]
)


def fier9_suite():
    """(label, matrix) pairs: the 12 lettered squares then their ·R images."""
    base = [(letter, frierson9(letter)) for letter in FIER9_LETTERS]
    phased = [(letter + "R", apply_phase(m, "mr")) for letter, m in base]
    return base + phased


def fier9_commuting_pairs():
    """Sorted label pairs that commute within fier9_suite()."""
    suite = fier9_suite()
    labels = [lab for lab, _ in suite]
    mats = [m for _, m in suite]
    return sorted(
        tuple(sorted((labels[i], labels[j])))
        for i, j in find_commuting_pairs(mats)
    )


@dataclass(frozen=True)
class CommutingPairReport:
    """One commutation check: closed-form prediction vs exact commutator.

    predicted/consistent are None when either square is not a compound
    Lucas square (no parameters to feed the closed form); observed is
    always the exact commutator's verdict.  For a recovered pair the exact
    commutator is its Kronecker form, 3^(l-1) times the digit sum of the
    l order-3 commutators; any other pair is multiplied out in packed form.
    """

    left: tuple | None
    right: tuple | None
    predicted: bool | None
    observed: bool
    consistent: bool | None

    def to_json(self) -> dict:
        return {
            "left_params": None if self.left is None else [list(t) for t in self.left],
            "right_params": None if self.right is None else [list(t) for t in self.right],
            "predicted": self.predicted,
            "observed": self.observed,
            "consistent": self.consistent,
        }


def commuting_pair_report(a: SquareMatrix, b: SquareMatrix) -> CommutingPairReport:
    """Compare the closed-form commutation test with the exact commutator.

    Recovery proves each square equal to lucas(params) entry for entry, so a
    recovered pair's commutator is read from its l order-3 commutators; the
    packed product runs only when a square is not recovered.  Mixed orders
    raise ValueError before either square is recovered.
    """
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    pa = recover_lucas_params(a)
    pb = recover_lucas_params(b)
    if pa is None or pb is None:
        return CommutingPairReport(pa, pb, None, commutes(a, b), None)
    predicted = commute_predicate(pa, pb)
    observed = _commutes_by_level(pa, pb)
    return CommutingPairReport(pa, pb, predicted, observed, predicted == observed)
