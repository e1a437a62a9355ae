"""Independent reference computations for the benchmark's output checks.

Nothing here calls lucasmagic.  Squares are rebuilt from the digit-sum form
of the compound construction,

    M[i][j] = sum_k L3(c_k, v_k, y_k)[d_k(i)][d_k(j)],

where d_k is the k-th base-3 digit (level 1 is the least significant), and
the remaining invariants come from the closed forms in the README: the line
sum 3^l * sum(c), the rank 2l+1 of natural squares, the fundamental counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

INT64_LIMIT = 2**62

# The (v, y) action of the eight dihedral phases; c is unchanged.
PHASE_VY = {
    "identity": lambda v, y: (v, y),
    "mr": lambda v, y: (y, v),
    "rm": lambda v, y: (-y, -v),
    "rmr": lambda v, y: (-v, -y),
    "t": lambda v, y: (v, -y),
    "tr": lambda v, y: (-y, v),
    "rt": lambda v, y: (y, -v),
    "rtr": lambda v, y: (-v, y),
}

# The same phases on arrays: "m" is the square, "r" the reversal permutation.
PHASE_ARRAY = {
    "identity": lambda a: a,
    "mr": lambda a: a[:, ::-1],
    "rm": lambda a: a[::-1, :],
    "rmr": lambda a: a[::-1, ::-1],
    "t": lambda a: a.T,
    "tr": lambda a: a.T[:, ::-1],
    "rt": lambda a: a.T[::-1, :],
    "rtr": lambda a: a.T[::-1, ::-1],
}


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def l3(c: int, v: int, y: int) -> np.ndarray:
    return np.array(
        [[c + v, c - v - y, c + y], [c - v + y, c, c + v - y], [c - y, c + v + y, c - v]],
        dtype=np.int64,
    )


def max_entry(triples) -> int:
    return sum(abs(c) + abs(v) + abs(y) for c, v, y in triples)


def build(triples) -> np.ndarray:
    """The compound square of `triples` (innermost level first) as int64."""
    n = 3 ** len(triples)
    if max_entry(triples) ** 2 * n >= INT64_LIMIT:
        raise ValueError("parameters too large for the int64 reference")
    idx = np.arange(n)
    out = np.zeros((n, n), dtype=np.int64)
    for k, (c, v, y) in enumerate(triples):
        d = (idx // 3**k) % 3
        out += l3(c, v, y)[d[:, None], d[None, :]]
    return out


def phase_params(triples, phase: str):
    act = PHASE_VY[phase]
    return tuple((c,) + act(v, y) for c, v, y in triples)


def canonical(triples):
    return min(phase_params(triples, p) for p in PHASE_VY)


def as_array(square) -> np.ndarray:
    """A lucasmagic SquareMatrix (integer entries) as an int64 array."""
    return np.array(square.rows, dtype=np.int64)


def same(square, ref: np.ndarray) -> bool:
    return square.n == ref.shape[0] and np.array_equal(as_array(square), ref)


def frobenius_sq(a: np.ndarray) -> int:
    # a*a fits int64 (build() bounds it); row sums are summed as Python ints
    return sum(int(x) for x in (a * a).sum(axis=1))


def is_natural(a: np.ndarray) -> bool:
    return np.array_equal(np.sort(a.ravel()), np.arange(a.size))


def commutes(a: np.ndarray, b: np.ndarray) -> bool:
    return not (a @ b - b @ a).any()


def line_sum(triples) -> int:
    return 3 ** len(triples) * sum(c for c, _, _ in triples)


def rank(triples) -> int:
    """Count of the nonzero singular values |mu| and 3^(l-1)|v_k +- y_k|sqrt3."""
    return (sum(c for c, _, _ in triples) != 0) + sum(
        (v + y != 0) + (v - y != 0) for _, v, y in triples
    )


def int_power(a: np.ndarray, k: int) -> list[list[int]]:
    """a**k in exact Python integers."""
    base = a.astype(object)
    out = base
    for _ in range(k - 1):
        out = out @ base
    return out.tolist()


def rational_matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def radical_square(text: str) -> Fraction:
    """The square of a printed real radical "q", "q*sqrt(d)" or "0"."""
    coeff, _, rad = text.partition("*sqrt(")
    value = Fraction(coeff) ** 2
    return value * int(rad.rstrip(")")) if rad else value


# -- counting formulas --------------------------------------------------------


def lucas_fundamental(level: int) -> int:
    return 2 ** (2 * level) * factorial(2 * level) // 8


def frierson_fundamental(level: int) -> int:
    return factorial(2 * level) // 2


def odd_double_factorial(level: int) -> int:
    out = 1
    for k in range(1, 2 * level, 2):
        out *= k
    return out


def fundamental_count(level: int, family: str) -> int:
    return lucas_fundamental(level) if family == "lucas" else frierson_fundamental(level)


def census_row(level: int) -> dict:
    """One row of the numerical-constants table, from the counting formulas."""
    n = 3**level
    return {
        "level": level,
        "order": n,
        "mu": n * (n * n - 1) // 2,
        "lucas_fundamental": lucas_fundamental(level),
        "frierson_fundamental": frierson_fundamental(level),
        "rank": 2 * level + 1,
        "sv_classes": odd_double_factorial(level),
    }


def is_natural_assignment(triples, family: str) -> bool:
    mags = sorted(abs(x) for _, v, y in triples for x in (v, y))
    if mags != [3**k for k in range(2 * len(triples))]:
        return False
    if any(c != abs(v) + abs(y) for c, v, y in triples):
        return False
    return family == "lucas" or all(v > 0 and y > 0 for _, v, y in triples)


def is_fundamental(triples, family: str) -> bool:
    """A canonical form whose phase orbit holds a natural `family` assignment."""
    return canonical(triples) == triples and any(
        is_natural_assignment(phase_params(triples, p), family) for p in PHASE_VY
    )
