from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lucasmagic import radical
from lucasmagic.radical import Radical, RadicalSum, squarefree_split


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(24) == (2, 6)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1944) == (18, 6)
    with pytest.raises(ValueError):
        squarefree_split(0)
    with pytest.raises(ValueError):
        squarefree_split(-4)


def _trial_division_split(n):
    """Reference split: trial division by 2 and the odd numbers up to sqrt(n)."""
    k, f = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    return k, f * n


def test_squarefree_split_matches_trial_division_below_1e5():
    for n in range(1, 10 ** 5):
        assert squarefree_split(n) == _trial_division_split(n), n


@given(st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6))
def test_squarefree_split_of_square_times_b(a, b):
    # trial division's answer for a*a*b is a times its answer for b
    k, f = _trial_division_split(b)
    assert squarefree_split(a * a * b) == (a * k, f)


# strong pseudoprimes to the bases 2; 2..7; 2..23, and a Carmichael number
PSEUDOPRIMES = (2047, 3215031751, 3825123056546413051, 561)
PRIME_BELOW_BOUND = 3317044064679887385961813  # largest prime below the proven bound


# the square of 3825123056546413051 is in the known-factor cases: trial division is too slow
@pytest.mark.parametrize("n", [*PSEUDOPRIMES, 2047 ** 2, 3215031751 ** 2, 561 ** 2])
def test_squarefree_split_pseudoprimes_match_trial_division(n):
    assert squarefree_split(n) == _trial_division_split(n)


def test_miller_rabin_rejects_the_pseudoprimes():
    for m in PSEUDOPRIMES:
        assert not radical._is_strong_probable_prime(m)
    for p in (1000003, 1000000007, 999999999989, PRIME_BELOW_BOUND):
        assert radical._is_strong_probable_prime(p)


@pytest.mark.parametrize(
    "n,expected",
    [
        (999983 * 1000003, (1, 999983 * 1000003)),
        (3 * 999983 * 1000033, (1, 3 * 999983 * 1000033)),
        (999999937 * 1000000007, (1, 999999937 * 1000000007)),
        (3 * 1000000007 * 1000000009, (1, 3000000048000000189)),
        (999983 ** 2, (999983, 1)),
        (12 * 1000003 ** 2, (2 * 1000003, 3)),
        (999983 ** 3 * 1000033, (999983, 999983 * 1000033)),
        (999999999989 ** 2, (999999999989, 1)),
        (999999999989 ** 2 * 1000000007, (999999999989, 1000000007)),
        (3825123056546413051 ** 2, (3825123056546413051, 1)),
        (3825123056546413051 * 34233211, (34233211, 149491 * 747451)),
        (PRIME_BELOW_BOUND, (1, PRIME_BELOW_BOUND)),
        (PRIME_BELOW_BOUND ** 2 * 1000003, (PRIME_BELOW_BOUND, 1000003)),
    ],
)
def test_squarefree_split_known_factors(n, expected):
    assert squarefree_split(n) == expected


@pytest.mark.parametrize("patch", ["proven_bound", "rho"])
def test_squarefree_split_falls_back_to_trial_division(monkeypatch, patch):
    # an undecided piece, or a composite rho gives up on, is split by trial division
    if patch == "proven_bound":
        monkeypatch.setattr(radical, "_MR_PROVEN_BELOW", 10 ** 7)
    else:
        monkeypatch.setattr(radical, "_brent_divisor", lambda n: 0)
    seen = []
    least = radical._least_divisor
    monkeypatch.setattr(radical, "_least_divisor", lambda m: seen.append(m) or least(m))
    n = 3 * 1009 ** 2 * 10007 * 1000000007
    assert squarefree_split(n) == (1009, 3 * 10007 * 1000000007)
    assert seen
    if patch == "proven_bound":
        assert 1000000007 in seen


# the least prime above the proven bound; the bound itself is the least
# composite that passes every base (1287836182261 * 2575672364521)
PRIME_ABOVE_BOUND = 3317044064679887385962123


@pytest.mark.parametrize("n", [PRIME_ABOVE_BOUND, 3 * radical._MR_PROVEN_BELOW])
def test_factoring_budget_refuses_what_it_cannot_decide(n):
    # Miller-Rabin cannot decide these, and trial division to their least
    # factor (above 10**12) is far past the budget
    with pytest.raises(radical.FactoringBudgetExceeded, match="25-digit part"):
        squarefree_split(n)
    with pytest.raises(ValueError, match="not factored"):
        Radical(1, -n)


def test_factoring_budget_refuses_a_rho_out_of_reach():
    # 5 * 10**40 + 1 = 3 * 7 * 23 * 27882377444183 * 3712727472551196566478509:
    # rho needs about sqrt(2.8 * 10**13) iterations for the smaller large factor
    with pytest.raises(radical.FactoringBudgetExceeded, match="39-digit part"):
        squarefree_split(5 * 10 ** 40 + 1)


def test_factoring_budget_edges(monkeypatch):
    # rho on two six-digit primes needs about a thousand iterations
    semiprime = 999983 * 1000003
    assert squarefree_split(3 * 5 ** 2 * semiprime) == (5, 3 * semiprime)
    assert radical._brent_divisor(semiprime) in (999983, 1000003)
    monkeypatch.setattr(radical, "_FACTOR_BUDGET", 50)
    with pytest.raises(radical.FactoringBudgetExceeded):
        squarefree_split(semiprime)
    # with 50 divisions, trial division reaches 101 and no further
    assert radical._least_divisor(101 * 103) == 101
    assert radical._least_divisor(10007) == 10007  # root 100: all divisions fit
    with pytest.raises(radical.FactoringBudgetExceeded):
        radical._least_divisor(103 * 107)


def test_factoring_budget_charges_steps_by_size(monkeypatch):
    # below 2**128 a step costs 1; above, a rho step costs the square of the
    # size in 128-bit words and a division the size
    assert radical._words(2 ** 128 - 1) == 1
    semiprime = 999983 * 1000003
    big = semiprime * (2 ** 521 - 1)  # 561 bits: a rho step costs 19.2
    wide = 103 * 107 ** 40  # 277 bits: a division costs 2.16
    monkeypatch.setattr(radical, "_FACTOR_BUDGET", 4096)
    assert radical._brent_divisor(semiprime) in (999983, 1000003)
    with pytest.raises(radical.FactoringBudgetExceeded):
        radical._brent_divisor(big)
    monkeypatch.setattr(radical, "_FACTOR_BUDGET", 100)
    assert radical._least_divisor(103 * 107) == 103
    with pytest.raises(radical.FactoringBudgetExceeded):
        radical._least_divisor(wide)  # 46 divisions reach 93


def test_normalization():
    assert Radical(1, 24) == Radical(2, 6)
    assert Radical(1, 49) == Radical(7, 1)
    assert Radical(1, -24) == Radical(2, -6)
    assert Radical(0, 17).is_zero()
    assert Radical(5, 0).is_zero()
    assert Radical(0, 0) == Radical(0, 17)


def test_str_forms():
    assert str(Radical(2, 6)) == "2*sqrt(6)"
    assert str(Radical(3)) == "3"
    assert str(Radical(Fraction(1, 2), 3)) == "1/2*sqrt(3)"
    assert str(Radical(2, -6)) == "i*2*sqrt(6)"
    assert str(Radical(2, -1)) == "i*2"
    assert str(Radical(0)) == "0"


def test_multiplication():
    s2, s3 = Radical.sqrt(2), Radical.sqrt(3)
    assert s2 * s3 == Radical(1, 6)
    assert s2 * s2 == Radical(2)
    assert Radical(2, 6) * Radical(3, 6) == Radical(36)
    # i * i = -1
    assert Radical(1, -1) * Radical(1, -1) == Radical(-1)
    # i*sqrt(2) * i*sqrt(3) = -sqrt(6)
    assert Radical(1, -2) * Radical(1, -3) == Radical(-1, 6)
    # mixed real/imaginary
    assert Radical(1, 2) * Radical(1, -3) == Radical(1, -6)


def test_addition_same_radicand_only():
    assert Radical(2, 6) + Radical(3, 6) == Radical(5, 6)
    assert Radical(2, 6) - Radical(2, 6) == Radical(0)
    assert Radical(0) + Radical(2, 6) == Radical(2, 6)
    with pytest.raises(ValueError):
        Radical(1, 2) + Radical(1, 3)


def test_inverse_and_division():
    for r in [Radical(2, 6), Radical(Fraction(-3, 4), 5), Radical(7), Radical(2, -6)]:
        assert r * r.inverse() == Radical(1)
    assert Radical(6, 6) / Radical(2, 6) == Radical(3)
    with pytest.raises(ZeroDivisionError):
        Radical(0).inverse()


def test_square():
    assert Radical(2, 6).square() == 24
    assert Radical(2, -6).square() == -24
    assert Radical(Fraction(1, 2), 3).square() == Fraction(3, 4)


def test_abs_takes_imaginary_to_real():
    assert abs(Radical(-2, 6)) == Radical(2, 6)
    assert abs(Radical(2, -6)) == Radical(2, 6)
    assert abs(Radical(-2, -1)) == Radical(2, 1)


def test_ordering():
    assert Radical(2, 6) < Radical(5)
    assert Radical(1, 3) < Radical(1, 5)
    assert Radical(-1, 3) > Radical(-1, 5)
    assert Radical(-1, 2) < Radical(1, 2)
    assert Radical(0) < Radical(1, 2)
    vals = [Radical(3), Radical(1, 2), Radical(2, 2), Radical(0), Radical(-1, 7)]
    assert sorted(vals) == [Radical(-1, 7), Radical(0), Radical(1, 2), Radical(2, 2), Radical(3)]
    with pytest.raises(ValueError):
        Radical(1, -2) < Radical(1, 2)


def test_conversions():
    assert float(Radical(2, 1)) == 2.0
    assert abs(float(Radical(1, 2)) - 2 ** 0.5) < 1e-15
    z = complex(Radical(2, -6))
    assert z.real == 0 and abs(z.imag - 2 * 6 ** 0.5) < 1e-12
    with pytest.raises(ValueError):
        float(Radical(1, -2))


def test_json_round_trip():
    for r in [Radical(2, 6), Radical(Fraction(-3, 4), 5), Radical(0), Radical(2, -6)]:
        assert Radical.from_json(r.to_json()) == r


def test_immutability():
    r = Radical(2, 6)
    with pytest.raises(AttributeError):
        r.coeff = Fraction(3)


coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
radicands = st.integers(min_value=-60, max_value=60)


@given(coeffs, radicands, coeffs, radicands)
def test_multiplication_commutes_and_squares_agree(a, d, b, e):
    x, y = Radical(a, d), Radical(b, e)
    assert x * y == y * x
    assert (x * y).square() == x.square() * y.square()


@given(coeffs, radicands)
def test_renormalization_is_idempotent(a, d):
    r = Radical(a, d)
    assert Radical(r.coeff, r.radicand) == r
    assert Radical.from_json(r.to_json()) == r
    # negation, abs and inverse skip the split; they must agree with it
    assert repr(-r) == repr(Radical(-r.coeff, r.radicand))
    assert repr(abs(r)) == repr(Radical(abs(r.coeff), abs(r.radicand)))
    if not r.is_zero():
        assert r * r.inverse() == Radical(1)
        assert repr(r.inverse()) == repr(Radical(r.inverse().coeff, r.inverse().radicand))


@given(coeffs, st.integers(min_value=0, max_value=60), coeffs)
def test_same_radicand_addition_matches_floats(a, d, b):
    x, y = Radical(a, d), Radical(b, d)
    assert abs(float(x + y) - (float(x) + float(y))) < 1e-9


def test_radical_sum_basic():
    s = RadicalSum([Radical(1, 2), Radical(1, 3)])
    sq = s * s
    assert sq == RadicalSum([Radical(5), Radical(2, 6)])
    assert str(sq) == "5 + 2*sqrt(6)"
    assert (s - s).is_zero()
    assert RadicalSum() .is_zero()
    assert str(RadicalSum()) == "0"


def test_radical_sum_merges_like_radicands():
    s = RadicalSum([Radical(1, 8), Radical(3, 2)])  # sqrt(8) = 2*sqrt(2)
    assert s == RadicalSum(Radical(5, 2))
    assert RadicalSum([Radical(1, 2), Radical(-1, 2)]).is_zero()


def test_radical_sum_embeds_scalars():
    assert RadicalSum(3) + RadicalSum(Radical(1, 2)) == RadicalSum([Radical(3), Radical(1, 2)])
    assert 2 * RadicalSum(Radical(1, 2)) == RadicalSum(Radical(2, 2))
    assert RadicalSum(Radical(1, 2)) - Radical(1, 2) == RadicalSum()


def test_radical_sum_of_a_radical_sum_is_itself():
    s = RadicalSum([Radical(3), Radical(-2, 5), Radical(Fraction(1, 2), 6)])
    assert RadicalSum(s) == s
    assert RadicalSum(s).terms() == s.terms()
    assert RadicalSum(RadicalSum()).is_zero()


def test_scalar_operand_is_wrapped_not_rebuilt(monkeypatch):
    a, b = RadicalSum(1), Radical(1, 3)
    init, calls = RadicalSum.__init__, []

    def counted(self, terms=()):
        calls.append(terms)
        init(self, terms)

    monkeypatch.setattr(RadicalSum, "__init__", counted)
    product = a * b
    assert len(calls) == 1  # the product only; b joins as a one-term sum
    assert product.terms() == (b,)
    assert (a * 0).is_zero() and (a * Radical(0)).is_zero()
    assert (a * Fraction(1, 2)).terms() == (Radical(Fraction(1, 2)),)


@given(st.lists(st.tuples(coeffs, radicands), max_size=4),
       st.lists(st.tuples(coeffs, radicands), max_size=4))
def test_radical_sum_product_matches_complex(xs, ys):
    a = RadicalSum([Radical(c, d) for c, d in xs])
    b = RadicalSum([Radical(c, d) for c, d in ys])
    assert a * b == b * a
    got = complex(a * b)
    want = complex(a) * complex(b)
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def _signed_squarefree(n):
    """n's squarefree part with n's sign (0 for 0), by trial division."""
    return 0 if n == 0 else (1 if n > 0 else -1) * _trial_division_split(abs(n))[1]


squarefree_radicands = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 3, -3, 6, -6]),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(_signed_squarefree),
)


@given(coeffs, squarefree_radicands, coeffs, squarefree_radicands)
def test_product_matches_the_splitting_constructor(a, d, b, e):
    # the product takes one gcd; the reference splits the radicand d*e again
    if d < 0 and e < 0:
        want = Radical(-(a * b), abs(d) * abs(e))
    else:
        want = Radical(a * b, d * e)
    got = Radical(a, d) * Radical(b, e)
    assert repr(got) == repr(want)
    assert str(got) == str(want) and hash(got) == hash(want)


@given(st.lists(st.tuples(coeffs, radicands), max_size=40))
def test_radical_sum_of_overlapping_terms(terms):
    rads = [Radical(c, d) for c, d in terms]
    one_by_one = RadicalSum()
    for r in rads:
        one_by_one = one_by_one + r
    assert RadicalSum(rads) == one_by_one
    # the reference groups by radicand and splits each total again
    totals = {}
    for r in rads:
        if not r.is_zero():
            totals[r.radicand] = totals.get(r.radicand, 0) + r.coeff
    want = tuple(Radical(c, d) for d, c in sorted(totals.items()) if c)
    assert repr(RadicalSum(rads).terms()) == repr(want)


@given(coeffs, squarefree_radicands, st.integers(min_value=1, max_value=30))
def test_equal_radicals_hash_equal_by_every_route(a, d, k):
    # a split radicand, the canonical constructor, a product and a negation
    want = Radical(a * k, d)
    routes = [
        Radical(a, d * k * k),
        Radical._canonical(want.coeff, want.radicand),
        Radical(a, d) * k,
        Radical(k, 1) * Radical(a, d),
        -Radical(-a * k, d),
        -(-want),
    ]
    for r in routes:
        assert r == want and hash(r) == hash(want)
    if want.radicand in (0, 1):  # a rational value hashes as its coefficient
        assert hash(want) == hash(want.coeff)
    else:  # the hash reads the coefficient's integer parts
        assert hash(want) == hash((want.coeff.numerator, want.coeff.denominator, want.radicand))


# Values of every scalar type: canonical radicals, one- and two-term sums, and
# the ints and Fractions they may equal.
scalars = st.one_of(
    st.builds(Radical, coeffs, st.sampled_from([0, 1, -1, 2, 3])),
    st.builds(lambda a, d: RadicalSum(Radical(a, d)), coeffs, st.sampled_from([0, 1, -1, 2])),
    st.builds(lambda a, b: RadicalSum([Radical(a), Radical(b, 2)]), coeffs, coeffs),
    st.builds(RadicalSum),
    st.integers(min_value=-3, max_value=3),
    coeffs,
)


@given(st.lists(scalars, min_size=2, max_size=6))
def test_values_that_compare_equal_hash_equal(values):
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    # so a set or dict keeps one of each equal value
    assert len(set(values)) == len({str(x) for x in values})


def test_rational_radicals_are_found_by_their_int_or_fraction():
    assert len({Radical(2), 2}) == 1
    assert {Radical(2): 1}.get(2) == 1
    assert {Fraction(1, 2): 1}.get(Radical(Fraction(1, 2))) == 1
    assert len({Radical(0), 0, RadicalSum(), RadicalSum(0)}) == 1
    assert len({RadicalSum(Radical(3, 2)), Radical(3, 2)}) == 1
    assert len({RadicalSum([Radical(1), Radical(1, 2)]), Radical(1), Radical(1, 2)}) == 3


@pytest.mark.parametrize("radicand", [2.5, 8.0, Fraction(8)])
def test_radicand_must_be_an_integer(radicand):
    # 2.5 was kept as a radicand and 8.0 split to Radical(2, 2.0)
    with pytest.raises(TypeError):
        Radical(1, radicand)


@pytest.mark.parametrize("coeff", [0.1, 1.5, 0.0, "1/2", "3", Decimal("1.5"), Decimal(2)])
@pytest.mark.parametrize("radicand", [1, 2])
def test_coefficient_must_be_an_int_or_fraction(coeff, radicand):
    # 0.1 was kept as a binary fraction, 1.5 as 3/2 and "1/2" was parsed
    with pytest.raises(TypeError):
        Radical(coeff, radicand)
