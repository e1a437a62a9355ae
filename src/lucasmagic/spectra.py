"""Closed-form spectral data for compound Lucas squares.

For the order-3 square with parameters (c, v, y) the nonzero eigenvalues
are 3c and +-lambda with lambda = sqrt(3(v^2 - y^2)) (imaginary when
y^2 > v^2), and the singular values are |3c|, |phi|, |psi| with
phi = (v+y)sqrt(3), psi = (v-y)sqrt(3).  Compounding multiplies the inner
nonzero spectrum by 3 and appends the outer level's pair, so at level l the
nonzero eigenvalues are mu and +-3^(l-1) lambda_i and the nonzero singular
values are |mu|, 3^(l-1)|phi_i|, 3^(l-1)|psi_i| — everything else is zero.

The diagonals are kept in a fixed block order: mu first, the per-level
pairs (innermost level first), zeros last.  The eigenvector and
singular-vector matrices are Kronecker products of order-3 factors
(outermost factor on the left), with their columns taken in that order.
Each distinct product of order-3 entries is formed once, in a per-level value
table indexed by the digit walk that builds the squares (construct._block_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .construct import _block_sum, normalize_triples, lucas, lucas3, magic_index
from .exactmat import SquareMatrix
from .radical import Radical, RadicalSum

if TYPE_CHECKING:
    import numpy as np


def omega(v: int, y: int) -> Radical:
    """Omega = 3(v+y)/lambda — the eigenvector entry offset; needs v^2 != y^2."""
    disc = v * v - y * y
    if disc == 0:
        raise ValueError("omega undefined for v = +-y")
    return Radical(Fraction(v + y, disc), 3 * disc)


# ---------------------------------------------------------------------------
# Diagonals, in block order: mu, then each level's pair scaled by 3^(l-1)
# (innermost level first), then zeros.  In the Kronecker product of order-3
# factors the mu column is 0 and the level-k pair columns are 3^(k-1) and
# 2*3^(k-1); every other column belongs to a zero.
# ---------------------------------------------------------------------------


def _block_diagonal(mu: Radical, pairs, level: int) -> list[Radical]:
    """mu, the scaled level pairs, then zeros up to 3**level entries."""
    return [mu, *pairs] + [Radical(0)] * (3 ** level - 1 - len(pairs))


def _block_columns(level: int) -> list[int]:
    """The Kronecker column of each block-order slot."""
    head = [0] + [j * 3 ** k for k in range(level) for j in (1, 2)]
    taken = set(head)
    return head + [j for j in range(3 ** level) if j not in taken]


def _phi_psi_coeffs(triples) -> list[int]:
    """v+y and v-y for each level: phi and psi over sqrt(3), signed."""
    return [w for _, v, y in triples for w in (v + y, v - y)]


def eigenvalues(triples) -> list[Radical]:
    """All 3**level eigenvalues: mu, +-3^(l-1)lambda_i per level, zeros."""
    triples = normalize_triples(triples)
    scale = 3 ** (len(triples) - 1)
    pairs = []
    for _, v, y in triples:
        r = Radical(scale, 3 * (v * v - y * y))
        pairs += (r, -r)
    return _block_diagonal(Radical(magic_index(triples)), pairs, len(triples))


def singular_values(triples) -> list[Radical]:
    """All 3**level singular values in the same block order, nonnegative."""
    triples = normalize_triples(triples)
    scale = 3 ** (len(triples) - 1)
    pairs = [Radical(scale * abs(w), 3) for w in _phi_psi_coeffs(triples)]
    return _block_diagonal(Radical(abs(magic_index(triples))), pairs, len(triples))


def nonzero_count(values) -> int:
    return sum(1 for r in values if not r.is_zero())


# ---------------------------------------------------------------------------
# Decomposition factors, as tuples of rows: RadicalSum entries in S, Radical in U, V
# ---------------------------------------------------------------------------

Rows = tuple[tuple[Radical | RadicalSum, ...], ...]


def s3(v: int, y: int) -> Rows:
    """Eigenvector matrix of lucas3(c, v, y): columns for 3c, +lambda, -lambda."""
    om = omega(v, y)
    one = RadicalSum(1)
    return (
        (one, one + om, one - om),
        (one, RadicalSum(-2), RadicalSum(-2)),
        (one, one - om, one + om),
    )


# The order-3 singular-vector factors, columns for 3c, phi and psi
_R3, _R2, _R6 = (Radical(Fraction(1, d), d) for d in (3, 2, 6))  # 1/sqrt(d)
U3 = ((_R3, -_R2, _R6), (_R3, Radical(0), -2 * _R6), (_R3, _R2, _R6))
V3 = ((_R3, -_R6, _R2), (_R3, 2 * _R6, Radical(0)), (_R3, -_R6, -_R2))


@dataclass(frozen=True)
class DecompositionMatrices:
    """One decomposition's factors; S/D for the Jordan form, U/V/sigma for
    the SVD (the unused fields are None)."""

    s: Rows | None = None
    d: tuple[Radical, ...] | None = None
    u: Rows | None = None
    v: Rows | None = None
    sigma: tuple[Radical, ...] | None = None


def jcf_matrices(triples) -> DecompositionMatrices:
    """Eigenvector matrix S and eigenvalue diagonal D with M S = S D.

    Refused (ValueError) when any level has v^2 = y^2: the eigenvector
    offset Omega is undefined there.
    """
    triples = normalize_triples(triples)
    for c, v, y in triples:
        if v * v == y * y:
            raise ValueError(
                f"degenerate level (v, y) = ({v}, {y}): eigenvector matrix undefined"
            )
    factors = [s3(v, y) for _, v, y in triples]
    return DecompositionMatrices(
        s=_block_product(factors, _block_columns(len(triples))),
        d=tuple(eigenvalues(triples)),
    )


def svd_matrices(triples) -> DecompositionMatrices:
    """Orthogonal U, V and nonnegative diagonal sigma with U diag(sigma) V^T = M.

    The U column of each negative closed-form value (mu, 3^(l-1) phi_i or
    3^(l-1) psi_i) is negated, so sigma holds their absolute values.
    """
    triples = normalize_triples(triples)
    level = len(triples)
    signed = [magic_index(triples), *_phi_psi_coeffs(triples)]
    negated = {p for p, w in enumerate(signed) if w < 0}
    order = _block_columns(level)
    return DecompositionMatrices(
        u=_block_product([U3] * level, order, negated),
        v=_block_product([V3] * level, order),
        sigma=tuple(singular_values(triples)),
    )


def _block_product(blocks, columns, negated=frozenset()) -> Rows:
    """The rows of the matrix whose entry (i, p) is the product over k of
    blocks[k][d_k(i)][d_k(columns[p])], negated when p is in negated, with
    d_k the k-th base-3 digit (blocks[0] the least significant).

    This is the Kronecker product of the blocks, outermost on the left, with
    its columns taken in the given order and the flagged ones negated.  Level
    k extends a value table by its block's distinct values, so construct._block_sum
    writes each entry's table index: sum over k of value index * prior table size.
    The table starts from the integer 1, so its entries have the blocks' own
    scalar type: Radical products cost one gcd and are never boxed as sums.
    """
    table = [1]
    index_blocks = []
    for block in blocks:
        index = {}  # the block's distinct values, in first-seen order
        index_blocks.append(
            [[index.setdefault(x, len(index)) * len(table) for x in r] for r in block]
        )
        table = [t * x for x in index for t in table]
    return tuple(
        tuple(
            -table[r[j]] if p in negated else table[r[j]]
            for p, j in enumerate(columns)
        )
        for r in _block_sum(index_blocks).rows
    )


# ---------------------------------------------------------------------------
# Numeric residuals (floating point enters here only, and numpy is imported
# here only, so a process that computes no residual never loads it)
# ---------------------------------------------------------------------------


def _complex_array(rows) -> np.ndarray:
    """complex() once per distinct entry object: factor rows share their
    value table's objects, and the rows keep every id alive and unique."""
    import numpy as np

    distinct = {id(x): x for row in rows for x in row}
    approx = {k: complex(x) for k, x in distinct.items()}
    return np.array([[approx[id(x)] for x in row] for row in rows], dtype=complex)


def jcf_residual(m: SquareMatrix, dec: DecompositionMatrices) -> float:
    """|| M S - S D ||_F / || M ||_F in floating point (absolute for M = 0).

    S D scales S's columns; as each D entry is purely real or purely imaginary,
    every entry rounds as in the dense S @ diag(D)."""
    import numpy as np

    a = np.array(m.rows, dtype=float)
    s = _complex_array(dec.s)
    d = np.array([complex(r) for r in dec.d])
    return float(np.linalg.norm(a @ s - s * d) / (np.linalg.norm(a) or 1.0))


def svd_residual(m: SquareMatrix, dec: DecompositionMatrices) -> float:
    """|| U Sigma V^T - M ||_F / || M ||_F in floating point (absolute for M = 0);
    U Sigma scales U's columns, as S D does in jcf_residual."""
    import numpy as np

    a = np.array(m.rows, dtype=float)
    u = _complex_array(dec.u).real
    v = _complex_array(dec.v).real
    sig = np.array([float(r) for r in dec.sigma])
    return float(np.linalg.norm((u * sig) @ v.T - a) / (np.linalg.norm(a) or 1.0))


def orthonormality_residual(rows: Rows) -> float:
    """|| Q^T Q - I ||_F for a real radical matrix Q, given by its rows."""
    import numpy as np

    q = _complex_array(rows).real
    return float(np.linalg.norm(q.T @ q - np.eye(len(rows))))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    order: int
    mu: int
    eigenvalues: tuple[Radical, ...]
    singular_values: tuple[Radical, ...]
    rank: int
    jcf_residual: float | None  # None when the eigenvector matrix is refused
    svd_residual: float

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "mu": self.mu,
            "eigenvalues": [_radical_json(r) for r in self.eigenvalues],
            "singular_values": [_radical_json(r) for r in self.singular_values],
            "rank": self.rank,
            "jcf_residual": self.jcf_residual,
            "svd_residual": self.svd_residual,
        }


def _radical_json(r: Radical) -> dict:
    z = complex(r)
    return {"exact": str(r), "approx": [z.real, z.imag]}


def spectrum_report(triples) -> SpectrumReport:
    triples = normalize_triples(triples)
    m = lucas(triples)
    svd = svd_matrices(triples)
    try:
        jr = jcf_residual(m, jcf_matrices(triples))
    except ValueError:
        jr = None
    return SpectrumReport(
        order=m.n,
        mu=magic_index(triples),
        eigenvalues=tuple(eigenvalues(triples)),
        singular_values=svd.sigma,
        rank=nonzero_count(svd.sigma),
        jcf_residual=jr,
        svd_residual=svd_residual(m, svd),
    )


def table1_row(v: int, y: int, s: int, t: int) -> dict:
    """|lambda_1|, |lambda_2| and sigma_2..sigma_5 / sqrt(3) for an order-9
    Frierson square, in the layout the ``tables`` command prints."""
    lams, sigs = _spectral_row([(v + y, v, y), (s + t, s, t)])
    return {
        "set": (v, y, s, t),
        "abs_lambda1": lams[0],
        "abs_lambda2": lams[1],
        "sigma_over_sqrt3": sigs,
    }


def _spectral_row(triples) -> tuple[list[str], list[int]]:
    """|lambda_i| = 3^(l-1) sqrt(3 |v_i^2 - y_i^2|) per level as strings, and
    sigma_2..sigma_(2l+1) / sqrt(3) as the integers 3^(l-1) |v_i +- y_i|,
    read from the closed form."""
    triples = normalize_triples(triples)
    scale = 3 ** (len(triples) - 1)
    lams = [str(Radical(scale, 3 * abs(v * v - y * y))) for _, v, y in triples]
    return lams, [scale * abs(w) for w in _phi_psi_coeffs(triples)]


# ---------------------------------------------------------------------------
# Matrix powers and the order-3 inverse
# ---------------------------------------------------------------------------

_THREE_I_MINUS_E = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def matrix_power(triples, k: int) -> SquareMatrix:
    """The k-th power of lucas(triples), in closed form at every level.

    A level-l square is C E + sum_i N_i placed at base-3 digit i (E-blocks
    at the other digits), with C the total of the c_i, E all-ones and
    N_i = lucas3(0, v_i, y_i).  N E = E N = 0 kills every cross term, so
    M^k = C^k 3^(l(k-1)) E + sum_i 3^((k-1)(l-1)) N_i^k at digit i, where
    N^k = (3d)^((k-1)/2) N for odd k and 3^(k/2-1) d^(k/2) (3I - E) for even
    k, d = v^2 - y^2.  The constant rides on the innermost block.  A factor
    that is zero (C = 0, or d = 0 with k >= 2) is found before any power of
    3 is taken, so zero terms cost nothing at any k.
    """
    triples = normalize_triples(triples)
    if k < 1:
        raise ValueError("power must be a positive integer")
    level = len(triples)
    blocks = []
    for _, v, y in triples:
        f = (v * v - y * y) ** (k // 2)  # zero factors skip the power of 3
        if f:
            f *= 3 ** ((k - 1) * (level - 1) + (k - 1) // 2)
        base = lucas3(0, v, y).rows if k % 2 else _THREE_I_MINUS_E
        blocks.append([[f * x for x in row] for row in base])
    const = sum(c for c, _, _ in triples) ** k
    if const:
        const *= 3 ** (level * (k - 1))
    blocks[0] = [[x + const for x in row] for row in blocks[0]]
    return _block_sum(blocks)


def matrix_power_digits(triples, k: int) -> float:
    """Decimal digits of the largest closed-form term of matrix_power(triples, k),
    from logarithms: no power is formed, so this is cheap at any k.

    The terms are, per level, d^(k//2) 3^((k-1)(l-1) + (k-1)//2) times the
    level block's largest entry (|v|+|y| for odd k, 2 for even k), and the
    constant C^k 3^(l(k-1)).  A zero term counts as zero digits.  Every entry
    of M^k is a signed sum of one term per level plus the constant, and some
    entry is at least three quarters of the largest term, so M^k has an entry
    of at least this many digits minus one.  inf when k is too large for a float.
    """
    triples = normalize_triples(triples)
    if k < 1:
        raise ValueError("power must be a positive integer")
    level = len(triples)
    log3 = math.log10(3)
    logs = []
    try:
        for _, v, y in triples:
            d = v * v - y * y
            top = abs(v) + abs(y) if k % 2 else 2
            if top and (d or k == 1):
                logs.append(
                    (k // 2) * math.log10(abs(d) or 1)
                    + ((k - 1) * (level - 1) + (k - 1) // 2) * log3
                    + math.log10(top)
                )
        const = sum(c for c, _, _ in triples)
        if const:
            logs.append(k * math.log10(abs(const)) + level * (k - 1) * log3)
        return max((math.floor(x) + 1 for x in logs), default=0)
    except OverflowError:
        return math.inf


def lucas3_inverse(c: int, v: int, y: int) -> SquareMatrix:
    """Exact inverse of lucas3(c, v, y); needs c != 0 and v^2 != y^2.

    (The determinant is 9c(v^2 - y^2) up to sign, so both conditions are
    genuinely required even though only one is obvious from the formula.)
    """
    disc = v * v - y * y
    if c == 0 or disc == 0:
        raise ValueError("lucas3 is singular when c = 0 or v^2 = y^2")
    den = Fraction(1, 9 * c * disc)
    e = SquareMatrix.all_ones(3)
    return den * (3 * c * lucas3(c, v, y) + (disc - 3 * c * c) * e)
