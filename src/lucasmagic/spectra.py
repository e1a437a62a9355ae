"""Closed-form spectral data for compound Lucas squares.

For the order-3 square with parameters (c, v, y) the nonzero eigenvalues
are 3c and +-lambda with lambda = sqrt(3(v^2 - y^2)) (imaginary when
y^2 > v^2), and the singular values are |3c|, |phi|, |psi| with
phi = (v+y)sqrt(3), psi = (v-y)sqrt(3).  Compounding multiplies the inner
nonzero spectrum by 3 and appends the outer level's pair, so at level l the
nonzero eigenvalues are mu and +-3^(l-1) lambda_i and the nonzero singular
values are |mu|, 3^(l-1)|phi_i|, 3^(l-1)|psi_i| — everything else is zero.

lambda is built from the squarefree splits of the two factors of
v^2 - y^2 = (|v|-|y|)(|v|+|y|), merged with one gcd, so the product is never
factored; Omega = 3(v+y)/lambda = (v+y)/(v^2 - y^2) lambda reuses that
lambda, and the report's eigenvector blocks take it from the eigenvalues.

The diagonals are kept in a fixed block order: mu first, the per-level
pairs (innermost level first), zeros last.  The eigenvector and
singular-vector matrices are Kronecker products of order-3 factors
(outermost factor on the left), with their columns taken in that order.
jcf_matrices returns (S, D) and svd_matrices (U, sigma, V), in the order of
M S = S D and M = U diag(sigma) V^T; their exact rows form each distinct
product of order-3 entries once, in a per-level value table indexed by the
digit walk that builds the squares (construct._digit_rows), whose rows also
stream the float M's entries into numpy (construct._lucas_rows).  The float
residuals never form an exact product: they apply the Kronecker structure to
the order-3 float blocks by mode products over base-3 digits, with no gemm and
no BLAS call, so their bits do not depend on the BLAS thread count.  S D and
U Sigma are formed in their 2l+1 nonzero columns only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import index, itemgetter
from typing import TYPE_CHECKING

from . import radical
from .construct import (_digit_rows, _lucas_rows, _sigma_coefficients, normalize_triples,
                        lucas3, magic_index, rank)
from .exactmat import SquareMatrix
from .radical import Radical, RadicalSum

if TYPE_CHECKING:
    import numpy as np


def _lambda(v: int, y: int) -> tuple[int, int]:
    """lambda = sqrt(3(v^2 - y^2)) as (k, f) with lambda = k sqrt(f) canonical:
    f squarefree, negative for an imaginary lambda, and (0, 0) for zero.

    v^2 - y^2 = (|v|-|y|)(|v|+|y|), so each factor is split on its own and
    their squarefree parts f1, f2 merge as g^2 (f1/g)(f2/g), g = gcd(f1, f2),
    with (f1/g)(f2/g) squarefree (Cohen, section 1.7): the product is never
    factored, so rho never has to rediscover the factors.  The sign is that
    of |v|-|y|.
    """
    a, b = abs(v) - abs(y), abs(v) + abs(y)
    if a == 0:
        return 0, 0
    k1, f1 = radical.squarefree_split(abs(a))
    k2, f2 = radical.squarefree_split(b)
    g = math.gcd(f1, f2)
    k, f = k1 * k2 * g, (f1 // g) * (f2 // g)
    if f % 3:
        f *= 3
    else:
        k, f = 3 * k, f // 3
    return k, f if a > 0 else -f


def omega(v: int, y: int) -> Radical:
    """Omega = 3(v+y)/lambda — the eigenvector entry offset; needs v^2 != y^2."""
    return _omega(v, y, *_lambda(v, y))


def _omega(v: int, y: int, k: int | Fraction, f: int) -> Radical:
    """Omega = (v+y)/(v^2-y^2) lambda for lambda = k sqrt(f) canonical, k
    rational: no split.  ValueError when v^2 = y^2."""
    disc = v * v - y * y
    if disc == 0:
        raise ValueError(f"degenerate level (v, y) = ({v}, {y}): eigenvector matrix undefined")
    return Radical._canonical(Fraction((v + y) * k, disc), f)


# ---------------------------------------------------------------------------
# Diagonals, in block order: mu, then each level's pair scaled by 3^(l-1)
# (innermost level first), then zeros.  In the Kronecker product of order-3
# factors the mu column is 0 and the level-k pair columns are 3^(k-1) and
# 2*3^(k-1); every other column belongs to a zero.
# ---------------------------------------------------------------------------


_ZERO = Radical(0)


def _block_diagonal(mu: Radical, pairs, level: int) -> list[Radical]:
    """mu, the scaled level pairs, then zeros up to 3**level entries."""
    return [mu, *pairs] + [_ZERO] * (3 ** level - 1 - len(pairs))


def eigenvalues(triples) -> list[Radical]:
    """All 3**level eigenvalues: mu, +-3^(l-1)lambda_i per level, zeros."""
    triples = normalize_triples(triples)
    scale = 3 ** (len(triples) - 1)
    pairs = []
    for _, v, y in triples:
        k, f = _lambda(v, y)
        r = Radical._canonical(Fraction(scale * k), f) if k else _ZERO
        pairs += (r, -r)
    return _block_diagonal(Radical(magic_index(triples)), pairs, len(triples))


def singular_values(triples) -> list[Radical]:
    """All 3**level singular values in the same block order, nonnegative:
    |mu|, then |w| sqrt(3) for each further construct._sigma_coefficients
    entry w, then zeros."""
    mu, *ws = _sigma_coefficients(normalize_triples(triples))
    # 1 and 3 are squarefree, so each nonzero value is canonical as built: no split
    top = Radical._canonical(Fraction(abs(mu)), 1) if mu else _ZERO
    pairs = [Radical._canonical(Fraction(abs(w)), 3) if w else _ZERO for w in ws]
    return _block_diagonal(top, pairs, len(ws) // 2)


# ---------------------------------------------------------------------------
# Decomposition factors: RadicalSum entries in S, Radical in U, V
# ---------------------------------------------------------------------------

Rows = tuple[tuple[Radical | RadicalSum, ...], ...]


def s3(v: int, y: int) -> Rows:
    """Eigenvector matrix of lucas3(c, v, y): columns for 3c, +lambda, -lambda."""
    return _s3(omega(v, y))


def _s3(om: Radical) -> Rows:
    """The s3 block for the offset om = Omega."""
    one = RadicalSum(1)
    return (
        (one, one + om, one - om),
        (one, RadicalSum(-2), RadicalSum(-2)),
        (one, one - om, one + om),
    )


def _s_blocks(triples, eigs) -> list[Rows]:
    """Each level's s3 block, its Omega from lambda_i read off that level's
    pair +-3^(l-1) lambda_i in eigs, so no radicand is split again; lambda is
    the member with the positive coefficient, whichever slot holds it.
    ValueError when a level has v^2 = y^2."""
    scale = 3 ** (len(triples) - 1)
    return [
        _s3(_omega(v, y, abs(r.coeff) / scale, r.radicand))
        for (_, v, y), r in zip(triples, eigs[1::2])
    ]


# The order-3 singular-vector factors, columns for 3c, phi and psi
_R3, _R2, _R6 = (Radical(Fraction(1, d), d) for d in (3, 2, 6))  # 1/sqrt(d)
U3 = ((_R3, -_R2, _R6), (_R3, Radical(0), -2 * _R6), (_R3, _R2, _R6))
V3 = ((_R3, -_R6, _R2), (_R3, 2 * _R6, Radical(0)), (_R3, -_R6, -_R2))


def jcf_matrices(triples) -> tuple[Rows, tuple[Radical, ...]]:
    """(S, D): the eigenvector rows S and the eigenvalue diagonal D, with
    M S = S D.

    Refused (ValueError, from omega) when any level has v^2 = y^2: the
    eigenvector offset Omega is undefined there.
    """
    triples = normalize_triples(triples)
    eigs = eigenvalues(triples)
    return _factor_rows(_s_blocks(triples, eigs)), tuple(eigs)


def svd_matrices(triples) -> tuple[Rows, tuple[Radical, ...], Rows]:
    """(U, sigma, V): orthogonal rows U, V and the nonnegative diagonal sigma,
    with M = U diag(sigma) V^T.

    The U column of each negative construct._sigma_coefficients entry is
    negated, so sigma holds their absolute values.
    """
    triples = normalize_triples(triples)
    level = len(triples)
    negated = [p for p, w in enumerate(_sigma_coefficients(triples)) if w < 0]
    return (
        _factor_rows([U3] * level, negated),
        tuple(singular_values(triples)),
        _factor_rows([V3] * level),
    )


def _factor_rows(blocks, negated=()) -> Rows:
    """The rows of the Kronecker product of the blocks, outermost on the left,
    with its columns in block order and negated in the block-order slots in
    negated: entry (i, p) is the product over k of blocks[k][d_k(i)][d_k(j)],
    j the Kronecker column of slot p, with d_k the k-th base-3 digit
    (blocks[0] the least significant).

    Each distinct product is formed once, in a value table that level k
    extends by its block's distinct values, so construct._digit_rows writes
    each entry's table index: sum over k of value index * prior table size.
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
    head = _head_columns(len(blocks))
    pick = itemgetter(*head, *(j for j in range(3 ** len(blocks)) if j not in head))
    rows = []
    for row in _digit_rows(index_blocks):
        r = [table[k] for k in pick(row)]
        for p in negated:
            r[p] = -r[p]
        rows.append(tuple(r))
    return tuple(rows)


def _head_columns(level: int) -> list[int]:
    """The Kronecker columns of the block-order slots of mu and the level pairs."""
    return [0] + [j * 3 ** k for k in range(level) for j in (1, 2)]


# ---------------------------------------------------------------------------
# Numeric residuals (floating point enters here only, and numpy is imported
# here only, so a process that computes no residual never loads it).  They
# work from the order-3 float blocks: S, U and V are Kronecker products, so
# M S and (U Sigma) V^T are mode products over M's column digits.  D and
# Sigma are zero outside the 2l+1 head columns, so S D and U Sigma are formed
# there only, as mode products of the unit rows at those columns.  No gemm,
# BLAS norm or exact factor entry is on the way, and numpy's floating-point
# warnings are off: a result past float range is a None residual.
# ---------------------------------------------------------------------------


def _complex(x) -> complex:
    """complex(x); OverflowError when x is past float range."""
    z = complex(x)
    if not cmath.isfinite(z):
        raise OverflowError("value past float range")
    return z


def _float_block(rows) -> np.ndarray:
    import numpy as np

    return np.array([[_complex(x) for x in row] for row in rows])


def _float_square(triples) -> tuple[np.ndarray, float] | None:
    """M in floats times the power of two that puts its largest |entry| in
    [1/2, 1), and that power; None when an entry is past float range.  A
    power-of-two scale is exact, so the relative residuals round as they
    would unscaled, and their sums of squares stay in range."""
    import numpy as np

    n = 3 ** len(triples)
    try:
        a = np.fromiter(chain.from_iterable(_lucas_rows(triples)), dtype=float, count=n * n)
        a = a.reshape(n, n)
    except OverflowError:
        return None
    scale = math.ldexp(1.0, -math.frexp(max(a.max(), -a.min()))[1])
    a *= scale
    return a, scale


def _mode_products(x, blocks) -> np.ndarray:
    """x @ kron(blocks[-1], ..., blocks[0]) without a matmul, in
    O(level * x.size): blocks[0] acts on the least significant digit.

    Column m of x has base-3 digits d_k(m).  Level k replaces digit k by
    sum over a of x[..., a, ...] * blocks[k][a][b]: three elementwise
    multiply-adds over a view of x with that digit as its middle axis.
    """
    rows = x.shape[0]
    for k, b in enumerate(blocks):
        x = x.reshape(-1, 3, 3 ** k)
        out = x[:, :1] * b[0, :, None]
        out += x[:, 1:2] * b[1, :, None]
        out += x[:, 2:] * b[2, :, None]
        x = out
    return x.reshape(rows, -1)


def _head_products(blocks, values, scale: float) -> np.ndarray:
    """The columns of kron(blocks[-1], ..., blocks[0]) at _head_columns, each
    times its block-order value and scale: the 2l+1 nonzero columns of S D or
    U Sigma, complex.  OverflowError when a value is past float range.

    A column of a Kronecker product is the Kronecker product of one column
    of each block, so these are the mode products of the unit rows at the
    head columns with the transposed blocks, transposed back.  Column 0 of
    every s3 block is all ones and U3 is real, so for them the bits are
    those of the whole Kronecker product.
    """
    import numpy as np

    head = _head_columns(len(blocks))
    units = np.zeros((len(head), 3 ** len(blocks)))
    units[range(len(head)), head] = 1.0
    cols = _mode_products(units, [b.T for b in blocks]).T
    return cols * [_complex(r) * scale for r in values[: len(head)]]


def _relative_norm(x, a) -> float | None:
    """||x||_F / ||a||_F (absolute for a = 0), each sqrt(sum(|entry|^2)) by
    numpy's pairwise sum; None when it is not finite."""
    import numpy as np

    def norm(z):
        z = z.reshape(-1).view(float)  # a complex entry is its two parts
        return math.sqrt(float(np.sum(z * z)))

    r = norm(x) / (norm(a) or 1.0)
    return r if math.isfinite(r) else None


def _jcf_residual(triples, square, eigs) -> float | None:
    """|| M S - S D ||_F / || M ||_F in floating point (absolute for M = 0),
    for square = _float_square(triples) and eigs its eigenvalues, from the
    order-3 blocks of S: M S by mode products, less S D in its 2l+1 nonzero
    columns.  ValueError where jcf_matrices refuses; None when M, D or an S
    block is past float range."""
    import numpy as np

    exact = _s_blocks(triples, eigs)  # ValueError first, as in jcf_matrices
    if square is None:
        return None
    a, scale = square
    with np.errstate(all="ignore"):
        try:
            blocks = [_float_block(b) for b in exact]
            sd = _head_products(blocks, eigs, scale)
        except OverflowError:
            return None
        ms = _mode_products(a, blocks)
        ms[:, _head_columns(len(blocks))] -= sd
        return _relative_norm(ms, a)


def _svd_residual(triples, square, sigma) -> float | None:
    """|| U Sigma V^T - M ||_F / || M ||_F in floating point (absolute for
    M = 0), for square = _float_square(triples) and sigma its singular values:
    U Sigma in its 2l+1 nonzero columns from U3 and Sigma signed as the
    _sigma_coefficients (U's negated columns), and (U Sigma) V^T by mode
    products with V3^T.  None when M or Sigma is past float range."""
    import numpy as np

    if square is None:
        return None
    a, scale = square
    level = len(triples)
    signed = [-r if w < 0 else r for w, r in zip(_sigma_coefficients(triples), sigma)]
    with np.errstate(all="ignore"):
        try:
            head = _head_products([_float_block(U3).real] * level, signed, scale)
        except OverflowError:
            return None
        us = np.zeros_like(a)
        us[:, _head_columns(level)] = head.real
        usv = _mode_products(us, [_float_block(V3).real.T] * level)
        usv -= a
        return _relative_norm(usv, a)


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
    # None when the eigenvector matrix is refused or a float is out of range
    jcf_residual: float | None
    svd_residual: float | None  # None when a float is out of range

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
    try:
        z = _complex(r)
    except OverflowError:
        return {"exact": str(r), "approx": None}
    return {"exact": str(r), "approx": [z.real, z.imag]}


def spectrum_report(triples) -> SpectrumReport:
    """The closed-form spectrum and both residuals; M, the eigenvalues and the
    singular values are each built once and shared by the residuals."""
    triples = normalize_triples(triples)
    square = _float_square(triples)
    eigs = eigenvalues(triples)
    sigma = singular_values(triples)
    try:
        jr = _jcf_residual(triples, square, eigs)
    except ValueError:
        jr = None
    return SpectrumReport(
        order=3 ** len(triples),
        mu=magic_index(triples),
        eigenvalues=tuple(eigs),
        singular_values=tuple(sigma),
        rank=rank(triples),
        jcf_residual=jr,
        svd_residual=_svd_residual(triples, square, sigma),
    )


def table1_row(v: int, y: int, s: int, t: int) -> dict:
    """|lambda_1|, |lambda_2| and sigma_2..sigma_5 / sqrt(3) for an order-9
    Frierson square, in the layout the ``tables`` command prints."""
    triples = [(v + y, v, y), (s + t, s, t)]
    lams, sigs = _spectral_row(2, eigenvalues(triples), singular_values(triples))
    return {
        "set": (v, y, s, t),
        "abs_lambda1": lams[0],
        "abs_lambda2": lams[1],
        "sigma_over_sqrt3": sigs,
    }


def _spectral_row(level: int, eigs, sigma) -> tuple[list[str], list[int]]:
    """|lambda_i| per level as strings, and sigma_2..sigma_(2l+1) / sqrt(3) as
    integers (their coefficients), read from the block-order diagonals."""
    pairs = slice(1, 2 * level + 1)
    return [str(abs(r)) for r in eigs[pairs][::2]], [int(r.coeff) for r in sigma[pairs]]


# ---------------------------------------------------------------------------
# Matrix powers and the order-3 inverse
# ---------------------------------------------------------------------------

_THREE_I_MINUS_E = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def _power_terms(triples, k: int):
    """M^k's terms, M = lucas(triples): (base, p, e, rows) for the term
    base^p 3^e rows at each level's base-3 digit, then the constant's, whose
    all-ones rows at digit 0 add it to every entry.

    A level-l square is C E + sum_i N_i placed at base-3 digit i (E-blocks
    at the other digits), with C the total of the c_i, E all-ones and
    N_i = lucas3(0, v_i, y_i).  N E = E N = 0 kills every cross term, so
    M^k = C^k 3^(l(k-1)) E + sum_i 3^((k-1)(l-1)) N_i^k at digit i, where
    N^k = (3d)^((k-1)/2) N for odd k and 3^(k/2-1) d^(k/2) (3I - E) for even
    k, d = v^2 - y^2.  TypeError for a non-integer k, ValueError for k < 1.
    """
    triples = normalize_triples(triples)
    k = index(k)
    if k < 1:
        raise ValueError("power must be a positive integer")
    level = len(triples)
    return [
        *((v * v - y * y, k // 2, (k - 1) * (level - 1) + (k - 1) // 2,
           lucas3(0, v, y).rows if k % 2 else _THREE_I_MINUS_E) for _, v, y in triples),
        (sum(c for c, _, _ in triples), k, level * (k - 1), ((1, 1, 1),) * 3),
    ]


def matrix_power(triples, k: int) -> SquareMatrix:
    """The k-th power of lucas(triples): its _power_terms summed, in closed
    form at every level.  A zero base^p (C = 0, or d = 0 with k >= 2) skips
    the power of 3, so zero terms cost nothing at any k."""
    blocks = []
    for base, p, e, rows in _power_terms(triples, k):
        f = base ** p
        f = f and f * 3 ** e  # a zero factor skips the power of 3
        blocks.append([[f * x for x in row] for row in rows])
    const = blocks.pop()
    blocks[0] = [[x + z for x, z in zip(r, c)] for r, c in zip(blocks[0], const)]
    return SquareMatrix(_digit_rows(blocks))


def matrix_power_digits(triples, k: int) -> float:
    """Decimal digits of the largest of matrix_power's _power_terms, from
    logarithms: no power is formed, so this is cheap at any k.

    A term is |base|^p 3^e times its rows' largest |entry| (|v|+|y| for odd
    k, 2 for even k, 1 for the constant); a zero term has zero digits.  Every
    entry of M^k is a signed sum of one term per level plus the constant, and
    some entry is at least three quarters of the largest term, so M^k has an
    entry of at least this many digits minus one.  inf when k is too large
    for a float."""
    log3 = math.log10(3)
    logs = []
    try:
        for base, p, e, rows in _power_terms(triples, k):
            top = max(abs(x) for row in rows for x in row)
            if top and (base or not p):
                logs.append(p * math.log10(abs(base) or 1) + e * log3 + math.log10(top))
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
