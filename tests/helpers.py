"""Helpers that only the tests call: references kept out of the library."""

from fractions import Fraction

import numpy as np

from lucasmagic.construct import PHASE_ACTIONS, PHASE_NAMES, normalize_triples, phase_parameters
from lucasmagic.radical import Radical, RadicalSum


def compose_phases(first: str, second: str) -> str:
    """The phase name equivalent to applying `first`, then `second`."""
    probe = ((0, 1, 2),)  # generic: all 8 images of (v,y)=(1,2) differ
    image = phase_parameters(phase_parameters(probe, first), second)
    for name in PHASE_NAMES:
        if phase_parameters(probe, name) == image:
            return name
    raise AssertionError("phase composition left the group")  # unreachable


def oracle_canonical_parameters(triples):
    """The least of all 8 full phase images, each built in full."""
    triples = normalize_triples(triples)
    return min(
        tuple((c,) + act(v, y) for c, v, y in triples)
        for act, _ in PHASE_ACTIONS.values()
    )


def orthonormality_residual(rows) -> float:
    """|| Q^T Q - I ||_F for a real radical matrix Q, given by its rows."""
    q = np.array([[float(x) for x in row] for row in rows])
    return float(np.linalg.norm(q.T @ q - np.eye(len(rows))))


# The closed-form spectral values built by splitting each whole radicand
# 3(v^2 - y^2): the reference for spectra, which splits v -+ y instead.


def lambda_oracle(v: int, y: int, scale: int = 1) -> Radical:
    """scale * sqrt(3(v^2 - y^2))."""
    return Radical(scale, 3 * (v * v - y * y))


def omega_oracle(v: int, y: int) -> Radical:
    """Omega = 3(v+y)/lambda, for v^2 != y^2."""
    d = v * v - y * y
    return Radical(Fraction(v + y, d), 3 * d)


def s3_oracle(v: int, y: int):
    """The eigenvector matrix of lucas3(c, v, y) from omega_oracle."""
    om, one = omega_oracle(v, y), RadicalSum(1)
    return (
        (one, one + om, one - om),
        (one, RadicalSum(-2), RadicalSum(-2)),
        (one, one - om, one + om),
    )
