"""Exact arithmetic with quadratic radicals.

A :class:`Radical` is a value ``coeff * sqrt(radicand)`` with a rational
coefficient and an integer radicand, kept in the canonical form where the
radicand is squarefree (negative radicands denote imaginary values, with
``radicand == -1`` meaning ``coeff * i``).  Addition is only defined between
radicals over the same radicand; :class:`RadicalSum` covers the general case
(sums of radicals with distinct radicands), which is what products of
eigenvector entries produce.

The canonical form needs the squarefree part of each new radicand, which
:func:`squarefree_split` finds by factoring: trial division by the numbers up
to 1000, then Brent's variant of Pollard rho on what is left, with every piece
proven prime by deterministic Miller-Rabin (bases 2..41 decide every number
below 3,317,044,064,679,887,385,961,981).  A piece at or above that bound
which the test cannot decide is split by trial division, so no radicand is
ever reduced on a probable prime.  Rho and that trial division each stop
after _FACTOR_BUDGET steps and raise :class:`FactoringBudgetExceeded`, so no
radicand can hang the process: it is refused instead.  A step on a number
above 128 bits is charged by its cost: a rho step (a product mod n) by the
square of the number's size in 128-bit words, a division by that size.

Only new radicands are factored.  Products and sums never are: negation,
absolute value, inverse and sums keep a squarefree radicand, and the product
of squarefree d and e is g**2 times the squarefree (d/g)(e/g), g = gcd(d, e),
so it costs one gcd (Cohen, A Course in Computational Algebraic Number
Theory, section 1.7).  A RadicalSum adds the coefficients of canonical terms,
so it never splits either.  A radicand whose factors are known is split
factor by factor and merged by the same rule: spectra's eigenvalue radicands
3(v^2 - y^2) arrive as |v| - |y| and |v| + |y|, so rho never rediscovers them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index


_TRIAL_LIMIT = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Sorenson & Webster (2017): no composite below this passes all of _MR_BASES.
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
# Rho iterations per _brent_divisor call and divisions per _least_divisor
# call, on numbers below 2**128 (_words scales the charge above).  Rho finds a
# prime factor p in about sqrt(p) iterations, so this reaches factors up to
# about 10**11; parameters up to 10**6 give eigenvalue radicand factors
# |v| +- |y| of at most 2 * 10**6, whose pieces need a few hundred at most.
_FACTOR_BUDGET = 1 << 20


class FactoringBudgetExceeded(ValueError):
    """A radicand whose squarefree part is out of the factoring budget's reach."""

    def __init__(self, n: int):
        super().__init__(
            f"radicand not factored: a {len(str(n))}-digit part of it needs more "
            f"than {_FACTOR_BUDGET} steps"
        )


def squarefree_split(n: int) -> tuple[int, int]:
    """Split n > 0 as k*k * f with f squarefree; returns (k, f).

    Trial division by 2 and the odd numbers up to 1000 (or up to sqrt(n)); a
    cofactor left above 1000**2 is factored by :func:`_prime_factors`, which
    proves each prime it returns.  The result is the exact factorization's,
    the same as full trial division would give.
    """
    if n <= 0:
        raise ValueError("squarefree_split needs a positive integer")
    k, f = 1, 1
    p = 2
    while p * p <= n and p <= _TRIAL_LIMIT:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    if p * p > n:  # n is 1 or a prime
        return k, f * n
    primes = _prime_factors(n)
    for q in set(primes):
        e = primes.count(q)
        k *= q ** (e // 2)
        if e % 2:
            f *= q
    return k, f


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n, with repetition, for an odd n > 1 with no
    prime factor up to the trial-division limit.

    Squares are split by isqrt (rho would cycle on p**2), composites by
    Brent's rho, and a piece is kept as prime only when Miller-Rabin proves
    it; otherwise (at or above the proven bound, or when rho gives up) the
    piece's least divisor is found by trial division.  FactoringBudgetExceeded
    when rho or the trial division runs out of budget.
    """
    primes, todo = [], [n]
    while todo:
        m = todo.pop()
        r = math.isqrt(m)
        if r * r == m:
            todo += (r, r)
            continue
        if _is_strong_probable_prime(m):
            d = m if m < _MR_PROVEN_BELOW else _least_divisor(m)
        else:
            d = _brent_divisor(m) or _least_divisor(m)
        if d == m:
            primes.append(m)
        else:
            todo += (d, m // d)
    return primes


def _is_strong_probable_prime(m: int) -> bool:
    """Miller-Rabin to every base in _MR_BASES, for an odd m > 41.

    False proves m composite; True proves m prime below _MR_PROVEN_BELOW.
    """
    s = ((m - 1) & -(m - 1)).bit_length() - 1  # m - 1 = d * 2**s, d odd
    d = (m - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _words(n: int) -> float:
    """The size of n in 128-bit words, at least 1: the budget's unit of cost."""
    return max(1, n.bit_length() / 128)


def _brent_divisor(n: int) -> int:
    """A proper divisor of the odd composite non-square n, by Brent's cycle
    finding on x -> x*x + c (Brent, BIT 20, 1980); 0 if every c tried fails,
    FactoringBudgetExceeded after _FACTOR_BUDGET iterations over all c, each
    charged _words(n)**2.

    The differences are multiplied together 128 at a time and one gcd taken
    per batch; a batch whose gcd is n is replayed step by step.
    """
    batch = 128
    cost = _words(n) ** 2
    steps = 0
    for c in range(1, 16):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r * cost  # at most r steps to skip, then r in batches
            if steps > _FACTOR_BUDGET:
                raise FactoringBudgetExceeded(n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(batch, r - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                done += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    return 0


def _least_divisor(m: int) -> int:
    """The least prime factor of an odd m > 1, by trial division;
    FactoringBudgetExceeded when that needs more than _FACTOR_BUDGET
    divisions, each charged _words(m)."""
    root = math.isqrt(m)
    last = 2 * int(_FACTOR_BUDGET / _words(m)) + 1
    for p in range(3, min(root, last) + 1, 2):
        if m % p == 0:
            return p
    if root > last:
        raise FactoringBudgetExceeded(m)
    return m


class Radical:
    """coeff * sqrt(radicand), normalized so the radicand is squarefree.

    The canonical zero is Radical(0, 0).  radicand == 1 means the value is
    rational; radicand == -1 means coeff * i.  The coefficient must be an
    int or Fraction and the radicand an integer (TypeError otherwise).
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand: int = 1):
        if not isinstance(coeff, Fraction):
            coeff = Fraction(index(coeff))
        radicand = index(radicand)
        if coeff == 0 or radicand == 0:
            object.__setattr__(self, "coeff", Fraction(0))
            object.__setattr__(self, "radicand", 0)
            return
        sign = -1 if radicand < 0 else 1
        k, f = squarefree_split(abs(radicand))
        object.__setattr__(self, "coeff", coeff * k)
        object.__setattr__(self, "radicand", sign * f)

    @classmethod
    def _canonical(cls, coeff: Fraction, radicand: int) -> "Radical":
        """A radical from a coefficient and radicand already in canonical
        form (squarefree radicand, zero only as (0, 0)): no split."""
        r = object.__new__(cls)
        object.__setattr__(r, "coeff", coeff)
        object.__setattr__(r, "radicand", radicand)
        return r

    def __setattr__(self, name, value):
        raise AttributeError("Radical is immutable")

    def __reduce__(self):
        return type(self)._canonical, (self.coeff, self.radicand)

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, n: int) -> "Radical":
        """The principal square root of an integer (i*sqrt(-n) if n < 0)."""
        return cls(1, n)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.radicand == 0

    def is_real(self) -> bool:
        return self.radicand >= 0

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Radical":
        return Radical._canonical(-self.coeff, self.radicand)

    def __abs__(self) -> "Radical":
        return Radical._canonical(abs(self.coeff), abs(self.radicand))

    def __add__(self, other) -> "Radical":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.radicand != other.radicand:
            raise ValueError(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand}) "
                "terms exactly; use RadicalSum"
            )
        c = self.coeff + other.coeff
        return Radical._canonical(c, self.radicand) if c else Radical(0, 0)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Radical":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Radical(0, 0)
        # sqrt(d) sqrt(e) = g sqrt((d/g)(e/g)) with g = gcd(d, e): d/g and e/g
        # are coprime and squarefree, so their product is too; no split
        a, b = self.coeff, other.coeff
        d, e = self.radicand, other.radicand
        g = math.gcd(d, e)
        coeff = Fraction(a.numerator * b.numerator * g, a.denominator * b.denominator)
        f = abs(d * e) // (g * g)
        if d < 0 and e < 0:  # i*sqrt(|d|) * i*sqrt(|e|) = -sqrt(|d|*|e|)
            return Radical._canonical(-coeff, f)
        return Radical._canonical(coeff, -f if d < 0 or e < 0 else f)

    __rmul__ = __mul__

    def inverse(self) -> "Radical":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero radical")
        # 1/(a sqrt(d)) = sqrt(d)/(a d), and also for d < 0, where sqrt(d) = i sqrt(-d)
        return Radical._canonical(1 / (self.coeff * self.radicand), self.radicand)

    def __truediv__(self, other) -> "Radical":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def square(self) -> Fraction:
        """The exact value of self*self as a rational."""
        return self.coeff * self.coeff * self.radicand

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeff == other.coeff and self.radicand == other.radicand

    def __hash__(self):
        # a rational value (radicand 1 or 0) hashes as the int or Fraction it equals
        c, d = self.coeff, self.radicand
        if d > 1 or d < 0:
            return hash((c.numerator, c.denominator, d))
        return hash(c.numerator) if c.denominator == 1 else hash(c)

    def _require_real(self):
        if not self.is_real():
            raise ValueError("magnitude comparison is undefined for imaginary radicals")

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        self._require_real()
        other._require_real()
        sa = (self.coeff > 0) - (self.coeff < 0)
        sb = (other.coeff > 0) - (other.coeff < 0)
        if sa != sb:
            return sa < sb
        # same sign: compare squared magnitudes, flipping for negatives
        lhs, rhs = self.square(), other.square()
        return lhs < rhs if sa >= 0 else rhs < lhs

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other < self

    def __ge__(self, other):
        return self == other or self > other

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        if self.radicand < 0:
            raise ValueError("imaginary radical has no float value; use complex()")
        return float(self.coeff) * math.sqrt(self.radicand)

    def __complex__(self) -> complex:
        if self.radicand >= 0:
            return complex(float(self), 0.0)
        return complex(0.0, float(self.coeff) * math.sqrt(-self.radicand))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.radicand == 1:
            return str(self.coeff)
        if self.radicand == -1:
            return f"i*{self.coeff}"
        if self.radicand > 0:
            return f"{self.coeff}*sqrt({self.radicand})"
        return f"i*{self.coeff}*sqrt({-self.radicand})"

    def __repr__(self) -> str:
        return f"Radical({self.coeff!r}, {self.radicand})"

    def to_json(self) -> dict:
        return {
            "coeff": [self.coeff.numerator, self.coeff.denominator],
            "radicand": self.radicand,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Radical":
        num, den = obj["coeff"]
        return cls(Fraction(num, den), obj["radicand"])


def _coerce(x) -> Radical | None:
    if isinstance(x, Radical):
        return x
    if isinstance(x, (int, Fraction)):
        return Radical._canonical(Fraction(x), 1) if x else Radical(0, 0)
    return None


class RadicalSum:
    """A finite sum of radicals with pairwise distinct radicands.

    Closed under +, -, * (products of square roots recombine into single
    radicals), which makes it the natural scalar type for Kronecker products
    of eigenvector matrices.  A plain Radical embeds as a one-term sum.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        # the terms are canonical, so each kept (coefficient, radicand) is too
        acc: dict[int, Fraction] = {}
        for t in self._iter_terms(terms):
            d = t.radicand
            if d in acc:
                acc[d] += t.coeff
            elif d:
                acc[d] = t.coeff
        object.__setattr__(
            self,
            "_terms",
            tuple(Radical._canonical(c, d) for d, c in sorted(acc.items()) if c),
        )

    @staticmethod
    def _iter_terms(terms):
        if isinstance(terms, (Radical, RadicalSum, int, Fraction)):
            terms = (terms,)
        for t in terms:
            if isinstance(t, RadicalSum):
                yield from t._terms
            else:
                r = _coerce(t)
                if r is None:
                    raise TypeError(f"cannot build RadicalSum from {t!r}")
                yield r

    def __setattr__(self, name, value):
        raise AttributeError("RadicalSum is immutable")

    def __reduce__(self):
        return type(self), (self._terms,)

    def terms(self) -> tuple[Radical, ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_real(self) -> bool:
        return all(t.is_real() for t in self._terms)

    def __neg__(self):
        return RadicalSum(-t for t in self._terms)

    def __add__(self, other):
        other = _coerce_sum(other)
        if other is None:
            return NotImplemented
        return RadicalSum(self._terms + other._terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_sum(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_sum(other)
        if other is None:
            return NotImplemented
        return RadicalSum([a * b for a in self._terms for b in other._terms])

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_sum(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        t = self._terms  # a one-term sum equals its term, the empty sum 0
        return hash(t) if len(t) > 1 else hash(t[0]) if t else 0

    def __complex__(self) -> complex:
        return sum((complex(t) for t in self._terms), complex(0))

    def __float__(self) -> float:
        z = complex(self)
        if z.imag != 0:
            raise ValueError("imaginary radical sum has no float value")
        return z.real

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(t) for t in self._terms)

    def __repr__(self) -> str:
        return f"RadicalSum({list(self._terms)!r})"


def _coerce_sum(x) -> RadicalSum | None:
    """x as a RadicalSum; a scalar is already one canonical term (or zero),
    so it is wrapped without the merge and sort of RadicalSum.__init__."""
    if isinstance(x, RadicalSum):
        return x
    r = _coerce(x)
    if r is None:
        return None
    s = object.__new__(RadicalSum)
    object.__setattr__(s, "_terms", (r,) if r.radicand else ())
    return s
