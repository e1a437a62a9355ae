"""Construction of Lucas and Frierson magic squares of order 3**level.

The order-3 Lucas form is

    [[c+v, c-v-y, c+y],
     [c-v+y, c,   c+v-y],
     [c-y, c+v+y, c-v]]

with line sums 3c.  Frierson squares are the subfamily c = v+y with
nonnegative v, y.  Higher orders come from repeated compounding

    next = E3 (x) inner  +  L3(c, v, y) (x) E_m,

where (x) is the Kronecker product and E is the all-ones matrix; the level-1
triple is the innermost factor.  Block (a, b) of the next square is the inner
square plus L3[a][b], so entry (i, j) of a level-l square is the sum over
levels k of L3(c_k, v_k, y_k)[d_k(i)][d_k(j)], with d_k the k-th base-3
digit (level 1 the least significant).  One row stream, `_digit_rows`,
writes that sum (`_lucas_rows` feeds it the L3 blocks): `lucas` and
`spectra.matrix_power` wrap it in a square, while parameter recovery, the
float residuals' M, the distinct-element check and the decomposition factors
(each entry's value-table index) read its rows as they come.
`compound_once` keeps the Kronecker form as a reference.

The eight dihedral images of a square (its phases) act on the parameters by
per-level sign changes and swaps of (v, y), and on the matrix by a transpose
and row/column reversals; one table holds both actions.
"""

from __future__ import annotations

from operator import index

from .exactmat import SquareMatrix, kron

Triple = tuple[int, int, int]
Pair = tuple[int, int]


def lucas3(c: int, v: int, y: int) -> SquareMatrix:
    """The general order-3 magic square with center c and line sum 3c."""
    return SquareMatrix(_lucas3_rows(c, v, y))


def _lucas3_rows(c, v, y):
    """The rows of lucas3(c, v, y), as a tuple of tuples."""
    return (
        (c + v, c - v - y, c + y),
        (c - v + y, c, c + v - y),
        (c - y, c + v + y, c - v),
    )


def frierson3(v: int, y: int) -> SquareMatrix:
    """lucas3 with c = v + y; parameters must be nonnegative."""
    if v < 0 or y < 0:
        raise ValueError("frierson parameters must be nonnegative")
    return lucas3(v + y, v, y)


def level_of_order(n: int) -> int:
    """The exponent l with n = 3**l, or ValueError if n is not a 3-power."""
    if n < 3:
        raise ValueError(f"order {n} is not a positive power of 3")
    level, rest = 0, n
    while rest > 1:
        if rest % 3:
            raise ValueError(f"order {n} is not a power of 3")
        rest //= 3
        level += 1
    return level


def compound_once(inner: SquareMatrix, c: int, v: int, y: int) -> SquareMatrix:
    """One compounding step: E3 (x) inner + lucas3(c,v,y) (x) E_m.

    The result is magic with line sum 3*mu(inner) + 3**(l+1) * c when the
    inner square is magic of order 3**l.
    """
    level_of_order(inner.n)  # raises unless inner order is a 3-power
    e_m = SquareMatrix.all_ones(inner.n)
    return kron(SquareMatrix.all_ones(3), inner) + kron(lucas3(c, v, y), e_m)


def lucas(triples) -> SquareMatrix:
    """The compound Lucas square for a sequence of (c, v, y) triples.

    triples[0] is the innermost level; the order of the result is
    3**len(triples).
    """
    return SquareMatrix._from_rows(tuple(_lucas_rows(normalize_triples(triples))))


def _lucas_rows(triples):
    """The rows of lucas(triples) as _digit_rows streams them, for
    normalized triples."""
    return _digit_rows([_lucas3_rows(c, v, y) for c, v, y in triples])


def _digit_rows(blocks):
    """The rows, as tuples and one at a time, of the square whose entry (i, j)
    is the sum over k of blocks[k][d_k(i)][d_k(j)], with d_k the k-th base-3
    digit (blocks[0] the least significant).  Each block but the last
    replaces the rows so far by the 3x3 block matrix whose block (a, b) is
    those rows plus blocks[k][a][b]; the last block's rows are then formed
    as they are read, so only a ninth of the square is ever held.
    """
    *inner, top = blocks
    rows = [[0]]
    for block in inner:
        rows = [[x + s for s in outer_row for x in r] for outer_row in block for r in rows]
    for outer_row in top:
        for r in rows:
            yield tuple([x + s for s in outer_row for x in r])


def frierson(pairs) -> SquareMatrix:
    """The compound Frierson square: lucas with c_i = v_i + y_i per level."""
    return lucas(frierson_to_lucas(pairs))


def frierson_to_lucas(pairs) -> tuple[Triple, ...]:
    return tuple((v + y, v, y) for v, y in normalize_pairs(pairs))


def frierson_well_formed(pairs) -> bool:
    """True when every parameter is strictly positive.

    Zero parameters are admitted by frierson() but produce degenerate
    (never natural) squares; this predicate is the advisory flag.
    """
    return all(v > 0 and y > 0 for v, y in normalize_pairs(pairs))


def normalize_triples(triples) -> tuple[Triple, ...]:
    """The triples as a tuple of int triples; TypeError for a non-integer."""
    out = tuple((index(c), index(v), index(y)) for c, v, y in triples)
    if not out:
        raise ValueError("at least one (c, v, y) triple is required")
    return out


def normalize_pairs(pairs) -> tuple[Pair, ...]:
    """The pairs as a tuple of int pairs; TypeError for a non-integer."""
    out = tuple((index(v), index(y)) for v, y in pairs)
    if not out:
        raise ValueError("at least one (v, y) pair is required")
    if any(v < 0 or y < 0 for v, y in out):
        raise ValueError("frierson parameters must be nonnegative")
    return out


def magic_index(triples) -> int:
    """The line sum of lucas(triples): 3**level * sum of the c_i."""
    return _sigma_coefficients(normalize_triples(triples))[0]


def rank(triples) -> int:
    """The rank of lucas(triples): its nonzero _sigma_coefficients.  The
    square is U diag(sigma) V^T with orthogonal U and V that do not depend on
    the parameters, so this count is exact for every parameter set."""
    ws = _sigma_coefficients(normalize_triples(triples))
    return len(ws) - ws.count(0)


def _sigma_coefficients(triples) -> list[int]:
    """The signed singular values of lucas(triples) over their radicals, for
    normalized triples, in block order: mu, then 3^(l-1)(v_i + y_i) and
    3^(l-1)(v_i - y_i) per level.  sigma is |mu|, each further |w| sqrt(3) and
    zeros; U negates the columns of the negative ones."""
    scale = 3 ** (len(triples) - 1)
    return [3 * scale * sum(c for c, _, _ in triples),
            *(scale * w for _, v, y in triples for w in (v + y, v - y))]


# ---------------------------------------------------------------------------
# Phases: the dihedral group of order 8, realized three ways — on matrices
# (transpose and reversals), on (v, y) pairs, and as name composition.
# ---------------------------------------------------------------------------

# name -> ((v, y) action, (transpose, flip_rows, flip_cols)).  The names spell
# the matrix form with R the reversal permutation: "mr" is m @ R (columns
# reversed), "rm" is R @ m (rows reversed), "t" the transpose, and
# compositions read outermost-last ("rt" = R @ m.T).  The matrix action
# transposes first, then reverses.
PHASE_ACTIONS = {
    "identity": (lambda v, y: (v, y), (False, False, False)),
    "mr": (lambda v, y: (y, v), (False, False, True)),
    "rm": (lambda v, y: (-y, -v), (False, True, False)),
    "rmr": (lambda v, y: (-v, -y), (False, True, True)),
    "t": (lambda v, y: (v, -y), (True, False, False)),
    "tr": (lambda v, y: (-y, v), (True, False, True)),
    "rt": (lambda v, y: (y, -v), (True, True, False)),
    "rtr": (lambda v, y: (-v, y), (True, True, True)),
}

PHASE_NAMES = tuple(PHASE_ACTIONS)
_PHASE_MAPS = tuple(act for act, _ in PHASE_ACTIONS.values())


def apply_phase(m: SquareMatrix, phase: str) -> SquareMatrix:
    """Apply one of the 8 dihedral transforms to a square matrix."""
    entry = PHASE_ACTIONS.get(phase)
    if entry is None:
        raise ValueError(f"unknown phase {phase!r}")
    transpose, flip_rows, flip_cols = entry[1]
    rows = tuple(zip(*m.rows)) if transpose else m.rows
    if flip_rows:
        rows = rows[::-1]
    if flip_cols:
        rows = tuple(r[::-1] for r in rows)
    return SquareMatrix._from_rows(rows)


def phase_parameters(triples, phase: str) -> tuple[Triple, ...]:
    """The parameter tuple of apply_phase(lucas(triples), phase).

    Each level's (v, y) transforms the same way; the c's are untouched.
    """
    entry = PHASE_ACTIONS.get(phase)
    if entry is None:
        raise ValueError(f"unknown phase {phase!r}")
    act = entry[0]
    return tuple((c,) + act(v, y) for c, v, y in normalize_triples(triples))


def canonical_phase(m: SquareMatrix) -> SquareMatrix:
    """The lexicographically smallest (row-major) of the 8 phase images."""
    return min((apply_phase(m, p) for p in PHASE_NAMES), key=lambda x: x.rows)


def canonical_parameters(triples) -> tuple[Triple, ...]:
    """The lexicographically smallest of the 8 phase images of the params."""
    return _canonical(normalize_triples(triples))


def _canonical(triples) -> tuple[Triple, ...]:
    """canonical_parameters for normalized triples.

    Tuples compare level 1 first and no phase changes c_1, so the least image
    comes from a phase whose image of level 1's (v, y) is least.  That image
    is (-max, -min) of |v_1| and |y_1|, and when v_1 < y_1 < 0 the identity
    alone reaches it, so the triples are their own least image.  Otherwise
    only the phases that reach it build their full images (one phase unless
    |v_1| = |y_1|).
    """
    _, v1, y1 = triples[0]
    if v1 < y1 < 0:
        return triples
    firsts = [act(v1, y1) for act in _PHASE_MAPS]
    least = min(firsts)
    return min(
        tuple((c,) + act(v, y) for c, v, y in triples)
        for act, first in zip(_PHASE_MAPS, firsts)
        if first == least
    )


# ---------------------------------------------------------------------------
# Parameter-string grammar (CLI-facing): levels split by ";", values by ","
# ---------------------------------------------------------------------------


def parse_lucas_params(text: str) -> tuple[Triple, ...]:
    """Parse "c1,v1,y1;c2,v2,y2;..." into level triples."""
    return normalize_triples(_parse_groups(text, 3))


def parse_frierson_params(text: str) -> tuple[Pair, ...]:
    """Parse "v1,y1;v2,y2;..." into level pairs."""
    return normalize_pairs(_parse_groups(text, 2))


def _parse_groups(text: str, width: int):
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = [tok.strip() for tok in chunk.split(",")]
        if len(vals) != width or not all(vals):
            raise ValueError(
                f"expected {width} comma-separated integers per level, got {chunk!r}"
            )
        try:
            groups.append(tuple(int(v) for v in vals))
        except ValueError:
            raise ValueError(f"non-integer parameter in {chunk!r}") from None
    if not groups:
        raise ValueError("empty parameter string")
    return groups


def format_lucas_params(triples) -> str:
    return ";".join(f"{c},{v},{y}" for c, v, y in normalize_triples(triples))


def format_frierson_params(pairs) -> str:
    return ";".join(f"{v},{y}" for v, y in normalize_pairs(pairs))


# The 12 fundamental order-9 Frierson parameter sets (v, y, s, t), in the
# traditional lettering: A-F are the classical six, G-L the further six
# fundamental under the 8-phase convention only.
FRIERSON9_SETS = {
    "A": (3, 1, 27, 9),
    "B": (27, 1, 9, 3),
    "C": (9, 1, 27, 3),
    "D": (27, 9, 3, 1),
    "E": (9, 3, 27, 1),
    "F": (27, 3, 9, 1),
    "G": (3, 1, 9, 27),
    "H": (27, 1, 3, 9),
    "I": (9, 1, 3, 27),
    "J": (9, 27, 3, 1),
    "K": (3, 9, 27, 1),
    "L": (3, 27, 9, 1),
}


def frierson9(letter: str) -> SquareMatrix:
    """One of the 12 fundamental order-9 Frierson squares by letter."""
    v, y, s, t = FRIERSON9_SETS[letter.upper()]
    return frierson([(v, y), (s, t)])
