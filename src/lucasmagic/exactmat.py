"""Exact square matrices over the integers and rationals.

Everything here is plain Python arithmetic on int/Fraction entries — no
floating point — so equality of matrices is genuine equality and rank is
computed by fraction-free elimination rather than by thresholding singular
values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm


def _norm_entry(x):
    """Keep entries as int when possible, Fraction otherwise."""
    if isinstance(x, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class SquareMatrix:
    """An immutable n-by-n matrix with exact rational entries.

    Supports +, -, scalar and matrix multiplication (@), transpose,
    Kronecker products and exact rank.  Construct from a sequence of rows.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_norm_entry(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("SquareMatrix needs a nonempty square array of rows")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SquareMatrix":
        return SquareMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def all_ones(n: int) -> "SquareMatrix":
        """The matrix with every entry 1 (rank one, row sums n)."""
        return SquareMatrix([[1] * n for _ in range(n)])

    @staticmethod
    def cross_identity(n: int) -> "SquareMatrix":
        """The reversal permutation (ones on the anti-diagonal)."""
        return SquareMatrix(
            [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(n: int) -> "SquareMatrix":
        return SquareMatrix([[0] * n for _ in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int):
        return self.rows[i]

    def col(self, j: int):
        return tuple(r[j] for r in self.rows)

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.rows]

    def entries(self):
        for r in self.rows:
            yield from r

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self) -> "SquareMatrix":
        return SquareMatrix([[-x for x in r] for r in self.rows])

    def __add__(self, other) -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        return SquareMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other) -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "SquareMatrix":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return SquareMatrix([[x * scalar for x in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other) -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        bt = other.transpose().rows
        return SquareMatrix(
            [
                [sum(a * b for a, b in zip(ra, cb)) for cb in bt]
                for ra in self.rows
            ]
        )

    def __pow__(self, k: int) -> "SquareMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = SquareMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(list(zip(*self.rows)))

    @property
    def T(self) -> "SquareMatrix":
        return self.transpose()

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.n))

    def frobenius_sq(self):
        """Sum of squared entries (the squared Frobenius norm), exact."""
        return sum(x * x for x in self.entries())

    def is_integer(self) -> bool:
        return all(isinstance(x, int) for x in self.entries())

    # -- rank --------------------------------------------------------------

    def exact_rank(self) -> int:
        """Rank by fraction-free (Bareiss) elimination; exact, no thresholds."""
        # scale rows to integers first so all divisions below are exact
        work = []
        for r in self.rows:
            den = lcm(*(Fraction(x).denominator for x in r))
            work.append([int(x * den) for x in r])
        n = self.n
        rank = 0
        prev = 1
        row = 0
        for col in range(n):
            piv = next((i for i in range(row, n) if work[i][col] != 0), None)
            if piv is None:
                continue
            work[row], work[piv] = work[piv], work[row]
            for i in range(row + 1, n):
                for j in range(col + 1, n):
                    work[i][j] = (
                        work[row][col] * work[i][j] - work[i][col] * work[row][j]
                    ) // prev
                work[i][col] = 0
            prev = work[row][col]
            row += 1
            rank += 1
            if row == n:
                break
        return rank

    # -- text / json -------------------------------------------------------

    def __str__(self) -> str:
        cells = [[str(x) for x in r] for r in self.rows]
        w = max(len(c) for r in cells for c in r)
        return "\n".join(" ".join(c.rjust(w) for c in r) for r in cells)

    def __repr__(self) -> str:
        return f"SquareMatrix({self.to_lists()!r})"

    def to_grid(self) -> str:
        """Whitespace-separated rows, one per line."""
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows) + "\n"

    @staticmethod
    def from_grid(text: str) -> "SquareMatrix":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([Fraction(tok) for tok in line.split()])
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in grid row {line!r}") from None
        return SquareMatrix(rows)

    def to_json(self) -> dict:
        if not self.is_integer():
            raise ValueError("json form is defined for integer matrices")
        return {"order": self.n, "rows": self.to_lists()}

    @staticmethod
    def from_json(obj) -> "SquareMatrix":
        if isinstance(obj, str):
            obj = json.loads(obj)
        rows = obj.get("rows") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(x) is int for x in r) for r in rows
        ):
            raise ValueError('json matrix needs "rows": a list of lists of integers')
        m = SquareMatrix(rows)
        if m.n != obj.get("order", m.n):
            raise ValueError("declared order disagrees with row count")
        return m


def kron(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Kronecker product: block (i, j) of the result is a[i][j] * b."""
    na, nb = a.n, b.n
    n = na * nb
    rows = [[0] * n for _ in range(n)]
    for i in range(na):
        for j in range(na):
            aij = a.rows[i][j]
            if aij == 0:
                continue
            for r in range(nb):
                for c in range(nb):
                    rows[i * nb + r][j * nb + c] = aij * b.rows[r][c]
    return SquareMatrix(rows)


def commutator(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    return a @ b - b @ a
