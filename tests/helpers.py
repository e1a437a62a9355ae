"""Helpers that only the tests call: references kept out of the library."""

import numpy as np

from lucasmagic.construct import PHASE_NAMES, phase_parameters


def compose_phases(first: str, second: str) -> str:
    """The phase name equivalent to applying `first`, then `second`."""
    probe = ((0, 1, 2),)  # generic: all 8 images of (v,y)=(1,2) differ
    image = phase_parameters(phase_parameters(probe, first), second)
    for name in PHASE_NAMES:
        if phase_parameters(probe, name) == image:
            return name
    raise AssertionError("phase composition left the group")  # unreachable


def orthonormality_residual(rows) -> float:
    """|| Q^T Q - I ||_F for a real radical matrix Q, given by its rows."""
    q = np.array([[float(x) for x in row] for row in rows])
    return float(np.linalg.norm(q.T @ q - np.eye(len(rows))))
