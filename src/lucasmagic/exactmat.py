"""Exact square matrices over the integers and rationals.

Everything here is plain Python arithmetic on int/Fraction entries — no
floating point — so equality of matrices is genuine equality and rank is
computed by fraction-free elimination rather than by thresholding singular
values.

Products and commutation checks go through one packed-row kernel
(Kronecker substitution): each integer row becomes a single Python int
with one w-bit slot per entry, so a product row is n big-int
multiply-adds done in C instead of n**2 small ones in the interpreter.
Rational operands clear their denominators first.  The slot width is
sized from the operands so every product entry fits with room to spare;
the packed form is then unique, and two packed rows are equal exactly
when the rows are.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain
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


def _norm_row(row) -> tuple:
    # all-int rows skip _norm_entry; bools, int subclasses and every other
    # type still go through it, one entry at a time
    row = tuple(row)
    if set(map(type, row)) == {int}:
        return row
    return tuple(_norm_entry(x) for x in row)


def _parse_grid_row(line: str) -> list:
    # int() reads "1_000" on every supported Python, Fraction() only from
    # 3.11 on, so a row holding an underscore is left to Fraction alone
    tokens = line.split()
    if "_" not in line:
        try:
            return list(map(int, tokens))
        except ValueError:  # a p/q or decimal token
            pass
    return [_parse_fraction(tok) for tok in tokens]


def _int_digit_limit() -> int:
    """Python's limit on the decimal digits of an int read from or printed to
    a string, read at each call; 0 means no limit (Python < 3.10.7 has none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _parse_fraction(tok: str) -> Fraction:
    # Fraction builds 10**exponent before anything is checked; the same value
    # written out in digits is refused past the int digit limit, so an
    # exponent past that limit is refused here, up front (0: no limit)
    limit = _int_digit_limit()
    exp = tok.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if limit and exp.isdecimal() and (len(exp) > limit or int(exp) > limit):
        raise ValueError(f"grid cell {tok!r} has an exponent past {limit} digits")
    return Fraction(tok)


class _Slots:
    """n packed slots of w bits each, w a multiple of 8.

    A row r packs to the signed-digit integer sum(r[k] * 2**(w*k)).  Every
    value the slots hold has |x| <= bound < 2**(w-2), so adding the offset
    2**(w-1) to each slot makes them the integer's plain base-2**w digits:
    the packed form is unique, and unpacking is a byte split.
    """

    def __init__(self, n: int, bound: int):
        self.n = n
        self.nbytes = (bound.bit_length() + 9) // 8
        self.half = 1 << (8 * self.nbytes - 1)
        self.offset = int.from_bytes(
            self.half.to_bytes(self.nbytes, "little") * n, "little"
        )

    def pack(self, rows) -> list[int]:
        nb, half = self.nbytes, self.half
        return [
            int.from_bytes(
                b"".join([(x + half).to_bytes(nb, "little") for x in r]), "little"
            )
            - self.offset
            for r in rows
        ]

    def unpack(self, v: int) -> list[int]:
        nb, half, from_bytes = self.nbytes, self.half, int.from_bytes
        raw = (v + self.offset).to_bytes(self.n * nb, "little")
        return [
            from_bytes(raw[k : k + nb], "little") - half
            for k in range(0, len(raw), nb)
        ]


def _integer_form(m: "SquareMatrix"):
    """(rows, d) for the integer matrix d*m, d the lcm of m's denominators."""
    rows = m.rows
    d = 1
    if set(map(type, chain.from_iterable(rows))) != {int}:
        d = lcm(*{x.denominator for x in chain.from_iterable(rows)})
        rows = [[int(x * d) for x in r] for r in rows]
    return rows, d


def _packed_dot(coeffs, packed) -> int:
    """sum(c * p), skipping zero coefficients: one packed row of a product."""
    return sum([c * p for c, p in zip(coeffs, packed) if c])


def _scaled(rows, d: int) -> "SquareMatrix":
    if d == 1:
        return SquareMatrix(rows)
    return SquareMatrix([[Fraction(x, d) for x in r] for r in rows])


def _integer_operands(a: "SquareMatrix", b: "SquareMatrix"):
    """(ra, rb, d, slots): integer rows of d_a*a and d_b*b, d = d_a*d_b, and
    slots that hold any entry of ra@rb (at most n*max|ra|*max|rb|) and of
    the packed operands themselves.
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    (ra, da), (rb, db) = _integer_form(a), _integer_form(b)
    ma, mb = (max(max(max(r), -min(r)) for r in rows) for rows in (ra, rb))
    return ra, rb, da * db, _Slots(a.n, max(a.n * ma * mb, ma, mb))


class SquareMatrix:
    """An immutable n-by-n matrix with exact rational entries.

    Supports +, -, scalar and matrix multiplication (@), transpose,
    Kronecker products and exact rank.  Construct from a sequence of rows.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(_norm_row(row) for row in rows)
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
        return chain.from_iterable(self.rows)

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
        ra, rb, d, slots = _integer_operands(self, other)
        pb = slots.pack(rb)
        return _scaled([slots.unpack(_packed_dot(x, pb)) for x in ra], d)

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
        # scale to integers first so all divisions below are exact
        work = list(_integer_form(self)[0])
        n = self.n
        rank = 0
        prev = 1
        row = 0
        for col in range(n):
            piv = next((i for i in range(row, n) if work[i][col] != 0), None)
            if piv is None:
                continue
            work[row], work[piv] = work[piv], work[row]
            pivot_row = work[row]
            p = pivot_row[col]
            # columns left of col are zero in every row from `row` on, and
            # stay zero; column col becomes p*c - c*p = 0
            for i in range(row + 1, n):
                c = work[i][col]
                work[i] = [(p * x - c * y) // prev for x, y in zip(work[i], pivot_row)]
            prev = p
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
                rows.append(_parse_grid_row(line))
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
            try:
                obj = json.loads(obj)
            except RecursionError:
                raise ValueError("json matrix is nested too deeply") from None
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


def commutes(a: SquareMatrix, b: SquareMatrix) -> bool:
    """True iff a@b == b@a.

    Compares the packed rows of d*(a@b) and d*(b@a), d clearing both
    denominators, and stops at the first row that differs; the packed
    form is unique, so this is exact.  No product is unpacked.
    """
    ra, rb, _, slots = _integer_operands(a, b)
    pa, pb = slots.pack(ra), slots.pack(rb)
    return all(_packed_dot(x, pb) == _packed_dot(y, pa) for x, y in zip(ra, rb))
