"""Property checks for integer squares: magic, regular, natural, and the
Frobenius-norm screen, plus Lucas parameter recovery.

All checks are exact integer arithmetic.  The Frobenius norm condition
(sum of squared entries equals n^2(n^2-1)(2n^2-1)/6) is necessary but not
sufficient for a magic square to be natural; the classic order-5 fixture in
the test suite passes the screen while failing naturalness.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from fractions import Fraction
from itertools import chain

from .exactmat import SquareMatrix
from .construct import (Triple, _lucas_rows, _sigma_coefficients, level_of_order, magic_index,
                        normalize_triples, rank)


def check_magic(m: SquareMatrix):
    """(True, mu) when all rows, columns, and both diagonals share sum mu."""
    rows = m.rows
    mu = sum(rows[0])
    diagonals = (
        [r[i] for i, r in enumerate(rows)],
        [r[-1 - i] for i, r in enumerate(rows)],
    )
    if all(sum(line) == mu for line in chain(rows, zip(*rows), diagonals)):
        return True, mu
    return False, None


def check_regular(m: SquareMatrix) -> bool:
    """True iff every centrosymmetric entry pair sums to 2*mu/n.

    Defined for magic squares only; non-magic input raises ValueError
    (regularity is then not applicable, as opposed to false).  Entry k of
    the flattened square pairs with entry n*n-1-k, so the flattened entries
    are compared with their reverse.  The check is cross-multiplied —
    n*(M + R*M*R) == 2*mu*E — so no divisibility of 2*mu by n is assumed.
    """
    is_magic, mu = check_magic(m)
    if not is_magic:
        raise ValueError("regularity is defined for magic squares only")
    return _centrosymmetric(m, mu)


def _centrosymmetric(m: SquareMatrix, mu) -> bool:
    """check_regular for a magic square whose line sum mu is known."""
    n, target = m.n, 2 * mu
    flat = list(m.entries())
    return all(n * (a + b) == target for a, b in zip(flat, reversed(flat)))


def check_natural(m: SquareMatrix) -> bool:
    """True iff the entries are exactly 0, 1, ..., n^2 - 1."""
    return sorted(m.entries()) == list(range(m.n * m.n))


def frobenius_norm_target(n: int) -> int:
    """The squared Frobenius norm of any natural order-n square."""
    return n * n * (n * n - 1) * (2 * n * n - 1) // 6


def check_fnc(m: SquareMatrix) -> bool:
    """The Frobenius norm condition: necessary (not sufficient) for natural."""
    return m.frobenius_sq() == frobenius_norm_target(m.n)


def fnc_parameter_equation(level: int) -> int:
    """Required sum(v_i^2 + y_i^2) for the FNC at the given level.

    Equals (9**(2*level) - 1) // 8, i.e. 10 at level 1, 820 at level 2.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    return (9 ** (2 * level) - 1) // 8


def recover_lucas_params(m: SquareMatrix):
    """Invert the compound Lucas construction, or return None.

    Reads v and y at each level from element differences around the
    center: with mid = n // 2 (every base-3 digit 1) and s = 3^(k-1),
    v_k = M[mid-s][mid-s] - M[mid][mid] and y_k = M[mid-s][mid+s] - M[mid][mid],
    and M[mid][mid] is the total of the c_i.  Individual c_i are not
    determined by the matrix (only their total is), so the c's are gauged as
    c_i = |v_i| + |y_i| for i >= 2 with the remainder in c_1 — which
    reproduces the conventional values for natural squares.  The candidate
    is always verified by reconstruction, row by row up to the first that
    differs; any mismatch or non-integer candidate returns None.
    """
    try:
        level = level_of_order(m.n)
    except ValueError:
        return None
    mid = m.n // 2
    c_total = m.rows[mid][mid]
    vy = []
    for k in range(level):  # innermost level first
        s = 3 ** k
        row = m.rows[mid - s]
        vy.append((row[mid - s] - c_total, row[mid + s] - c_total))

    cs = [abs(v) + abs(y) for v, y in vy]
    cs[0] = c_total - sum(cs[1:])
    try:
        triples = normalize_triples((c,) + p for c, p in zip(cs, vy))
    except TypeError:
        return None
    rows = _lucas_rows(triples)
    return triples if all(r == s for r, s in zip(rows, m.rows)) else None


@dataclass(frozen=True)
class VerificationReport:
    """Everything the checks above say about one square.

    is_regular is None (JSON null) when the square is not magic, since
    regularity is then not applicable.
    """

    order: int
    is_magic: bool
    summation_index: int | Fraction | None
    is_regular: bool | None
    frobenius_sq: int | Fraction
    fnc_pass: bool
    is_natural: bool
    exact_rank: int
    lucas_params: tuple[Triple, ...] | None

    def to_json(self) -> dict:
        d = asdict(self)
        for key in ("summation_index", "frobenius_sq"):
            if isinstance(d[key], Fraction):  # rational entries: whole or "p/q"
                d[key] = int(d[key]) if d[key].denominator == 1 else str(d[key])
        if self.lucas_params is not None:
            d["lucas_params"] = [list(t) for t in self.lucas_params]
        return d


def verify_report(m: SquareMatrix) -> VerificationReport:
    """Run every check on one square and bundle the results.

    A recovered square is lucas(params) entry for entry (recovery checks the
    reconstruction), so every field follows from params: it is magic with
    line sum magic_index(params); it is regular, since in each order-3 block
    an entry plus its mirror is 2 c_k, so entry plus mirror is
    2 sum c_k = 2 mu / n; its rank is rank(params); its squared Frobenius
    norm is that of `_frobenius_sq`; and `_natural` decides naturalness.  An
    unrecovered square runs the entrywise checks, and Bareiss elimination
    ranks it.
    """
    params = recover_lucas_params(m)
    if params is None:
        is_magic, mu = check_magic(m)
        is_regular = _centrosymmetric(m, mu) if is_magic else None
        frobenius_sq = m.frobenius_sq()
        exact_rank, is_natural = m.exact_rank(), check_natural(m)
    else:
        is_magic, mu, is_regular = True, magic_index(params), True
        frobenius_sq = _frobenius_sq(params)
        exact_rank, is_natural = rank(params), _natural(params)
    return VerificationReport(
        order=m.n,
        is_magic=is_magic,
        summation_index=mu,
        is_regular=is_regular,
        frobenius_sq=frobenius_sq,
        fnc_pass=frobenius_sq == frobenius_norm_target(m.n),
        is_natural=is_natural,
        exact_rank=exact_rank,
        lucas_params=params,
    )


def _frobenius_sq(triples) -> int:
    """The squared Frobenius norm of lucas(triples), for normalized triples.

    Entry (i, j) is sum_k L3(p_k)[d_k(i)][d_k(j)], and the n^2 digit tuples
    meet each pair of digits equally often, so the sum of squared entries is
    n^2 sum_k q_k / 9 + n^2 ((sum c_k)^2 - sum c_k^2), with q_k the sum of
    the squared entries of L3(p_k), 9 c_k^2 + 6 (v_k^2 + y_k^2).  That is
    mu^2 + 2 * 3^(2l-1) sum (v_k^2 + y_k^2), the sum of the squared singular
    values: mu^2 and 3 w^2 for each further signed coefficient w.
    """
    mu, *ws = _sigma_coefficients(triples)
    return mu * mu + 3 * sum(w * w for w in ws)


def _natural(triples) -> bool:
    """check_natural(lucas(triples)), for normalized triples: the sorted
    |v_k|, |y_k| are 3^0, ..., 3^(2l-1) and sum c_k is (9^l - 1) / 2.

    Entry (i, j) is C + sum_k (a_k v_k + b_k y_k), C = sum c_k, where
    (a_k, b_k) runs over {-1, 0, 1}^2 as the digit pair (d_k(i), d_k(j))
    does, once each: L3's nine entries are c + a v + b y.  So the square is
    natural iff prod_w (1 + x^|w| + x^(2|w|)) = x^(sum |w| - C)
    (x^(9^l) - 1) / (x - 1) over the 2l values w.  A zero w makes a
    coefficient 3.  Otherwise 1 + x^u + x^(2u) is the product of Phi_d over
    d | 3u, d not dividing u, and the right side is Phi_3 Phi_9 ...
    Phi_(3^(2l)), so by unique factorisation the |w| are the distinct powers
    3^0 .. 3^(2l-1) and C = sum |w|.  Balanced ternary gives the converse.
    """
    mags = sorted(abs(w) for _, v, y in triples for w in (v, y))
    c_total = sum(c for c, _, _ in triples)
    return mags == [3 ** k for k in range(len(mags))] and 2 * c_total == 9 ** len(triples) - 1
