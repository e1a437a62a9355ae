"""Randomized cross-module invariants, exercised on exact arithmetic."""

from hypothesis import given, settings, strategies as st

from lucasmagic.construct import (
    PHASE_NAMES,
    apply_phase,
    canonical_parameters,
    lucas,
    magic_index,
    phase_parameters,
)
from lucasmagic.enumeration import natural_parameter_assignments
from lucasmagic.spectra import singular_values
from lucasmagic.verify import (
    check_magic,
    check_natural,
    check_regular,
    recover_lucas_params,
)

from helpers import compose_phases

value = st.integers(min_value=-60, max_value=60)
triples_any = st.lists(
    st.tuples(value, value, value), min_size=1, max_size=3
).map(tuple)

# gauge-respecting draws: distinct |v|,|y| magnitudes so recovery is exact
def _gauged(level, picks):
    vals = [m * s for m, s in picks]
    return tuple(
        (abs(v) + abs(y), v, y) for v, y in zip(vals[0::2], vals[1::2])
    )


def gauged_triples(level):
    mags = st.lists(
        st.sampled_from([1, 2, 3, 5, 9, 11, 27, 40]),
        min_size=2 * level,
        max_size=2 * level,
        unique=True,
    )
    signs = st.lists(
        st.sampled_from([1, -1]), min_size=2 * level, max_size=2 * level
    )
    return st.tuples(mags, signs).map(
        lambda ms: _gauged(level, list(zip(*ms)))
    )


NATURAL2 = sorted(natural_parameter_assignments(2))


@given(triples_any)
@settings(max_examples=120, deadline=None)
def test_constructed_squares_are_magic_and_regular(triples):
    m = lucas(triples)
    ok, mu = check_magic(m)
    assert ok
    assert mu == magic_index(triples)
    assert check_regular(m)


@given(st.sampled_from(NATURAL2))
@settings(max_examples=60, deadline=None)
def test_level2_natural_assignments(triples):
    assert check_natural(lucas(triples))


@given(triples_any)
@settings(max_examples=80, deadline=None)
def test_spectral_frobenius_identity(triples):
    m = lucas(triples)
    svs = singular_values(triples)
    assert sum(s.square() for s in svs) == m.frobenius_sq()
    # equivalently: mu^2 plus the non-principal squares
    mu = magic_index(triples)
    assert mu * mu + sum(s.square() for s in svs[1:]) == m.frobenius_sq()


@given(triples_any, st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_singular_values_ignore_parameter_signs(triples, signs):
    flipped = tuple(
        (c, sv * v, sy * y)
        for (c, v, y), sv, sy in zip(triples, signs[0::2], signs[1::2])
    )
    assert sorted(singular_values(flipped)) == sorted(singular_values(triples))


@given(triples_any, st.sampled_from(PHASE_NAMES), st.sampled_from(PHASE_NAMES))
@settings(max_examples=80, deadline=None)
def test_phase_group_closure(triples, p, q):
    m = lucas(triples)
    composed = compose_phases(p, q)
    assert composed in PHASE_NAMES
    assert apply_phase(apply_phase(m, p), q) == apply_phase(m, composed)
    assert lucas(phase_parameters(triples, p)) == apply_phase(m, p)


@given(triples_any, st.sampled_from(PHASE_NAMES))
@settings(max_examples=60, deadline=None)
def test_canonical_parameters_are_phase_invariant(triples, p):
    assert canonical_parameters(phase_parameters(triples, p)) == canonical_parameters(
        triples
    )


@given(st.integers(min_value=1, max_value=3).flatmap(gauged_triples))
@settings(max_examples=60, deadline=None)
def test_parameter_recovery_round_trips(triples):
    assert recover_lucas_params(lucas(triples)) == triples


@given(triples_any)
@settings(max_examples=60, deadline=None)
def test_recovery_reconstructs_any_family_square(triples):
    m = lucas(triples)
    got = recover_lucas_params(m)
    if got is not None:
        assert lucas(got) == m
    else:
        # recovery declines only ambiguous split-offs, never natural squares
        assert not check_natural(m)
