"""Seeded inputs for the benchmark workloads.

A workload runs in rounds.  Each round is a fixed multiset of operation
kinds and levels (the round's template); the seed picks the parameters,
phases and files and the order of the operations in the round.  Keeping
the template fixed keeps the cost of a round nearly the same for every
seed, so runs with different seeds measure the same mix.

Nothing here calls lucasmagic; files for the `cli` workload are rendered
from the independent reference in oracle.py.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache

import numpy as np

import oracle

PHASES = tuple(oracle.PHASE_VY)


def round_ops(workload: str, seed: int, index: int) -> list[dict]:
    """The operations of round `index` of a run with `seed`."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _MAKERS[workload](rng)
    rng.shuffle(ops)
    return ops


# -- parameters ---------------------------------------------------------------


def natural_triples(rng, level: int, family: str):
    mags = [3**k for k in range(2 * level)]
    rng.shuffle(mags)
    if family == "lucas":
        mags = [m * rng.choice((1, -1)) for m in mags]
    return tuple((abs(v) + abs(y), v, y) for v, y in zip(mags[0::2], mags[1::2]))


def random_triple(rng, bound: int, family: str):
    if family == "frierson":
        v, y = rng.randint(1, bound), rng.randint(1, bound)
        return (v + y, v, y)
    return (rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound))


def non_natural_triples(rng, level: int, family: str):
    while True:
        out = tuple(random_triple(rng, 3 ** (2 * level - 1), family) for _ in range(level))
        if not oracle.is_natural_assignment(out, family):
            return out


@lru_cache(maxsize=1)
def _window_primes() -> tuple[int, ...]:
    """The primes in [980000, 1000000)."""
    lo, hi = 980_000, 1_000_000
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(sieve[lo:])[0] + lo)


def prime_pair_triple(rng):
    """(c, v, y) with v^2 - y^2 = p*q for primes p, q near 10^6.

    Trial division of the radicand 3*p*q has to run up to min(p, q), so
    these are the costliest radicands a |value| <= 10^6 can give, and the
    cost varies little between seeds.
    """
    p, q = rng.sample(_window_primes(), 2)
    v, y = (p + q) // 2, (p - q) // 2
    if rng.random() < 0.5:
        v, y = y, v  # imaginary lambda
    if rng.random() < 0.5:
        v, y = -v, -y
    return (rng.randint(-10**6, 10**6), v, y)


def pretty_grid(a: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in a) + "\n"


def params_text(triples, family: str) -> str:
    if family == "frierson":
        return ";".join(f"{v},{y}" for _, v, y in triples)
    return ";".join(f"{c},{v},{y}" for c, v, y in triples)


# -- build_verify -------------------------------------------------------------

# (level, operations per round); every phase appears equally often per
# level.  The counts put the median inside the level-2 ops and the 90th
# percentile inside the level-3 ops.  Level 5 is left out: one level-5 op
# takes 5-7 s (two pure-Python 243^3 products in the commutator alone), so
# the few that fit in a run would set its throughput by themselves.
BUILD_VERIFY_ROUND = ((4, 8), (3, 24), (2, 168))


def _build_verify(rng) -> list[dict]:
    ops = []
    for level, count in BUILD_VERIFY_ROUND:
        for i, phase in enumerate(PHASES * (count // len(PHASES))):
            ops.append(square_op(rng, level, phase, natural=i % 2 == 0))
    return ops


def square_op(rng, level: int, phase: str, natural: bool) -> dict:
    family = rng.choice(("lucas", "frierson"))
    maker = natural_triples if natural else non_natural_triples
    triples = maker(rng, level, family)
    return {
        "kind": "square",
        "level": level,
        "family": family,
        "triples": triples,
        "natural": natural,
        "phase": phase,
        "partner": partner_triples(rng, triples, phase),
    }


def partner_triples(rng, triples, phase: str):
    """A second square for a commutation check against the phase image of
    `triples`; in half the cases its levels are parallel, so they commute."""
    bound = 3 ** (2 * len(triples) - 1)
    image = oracle.phase_params(triples, phase)
    if rng.random() < 0.5:
        return tuple(
            (rng.randint(-bound, bound), s * v, s * y)
            for _, v, y in image
            for s in [rng.choice((-3, -2, -1, 1, 2, 3))]
        )
    return tuple(random_triple(rng, bound, "lucas") for _ in triples)


# -- spectra ------------------------------------------------------------------

# Ops per round, by level and stratum: natural assignments, |value| <= 1000
# ("small"), |value| <= 10^6 ("wide"), and a prime-pair radicand at the
# outermost level over small inner levels ("hard").  The hard ops take about
# 150 ms each and make up most of the time; the counts put the 90th
# percentile inside them and the median in the middle of the level-4
# natural/small ops.  Wide values are few and stop at level 3: a random
# radicand near 10^12 costs anything from microseconds to a tenth of a
# second of trial division, every further level repeats it, and such ops
# would move across the median from seed to seed.
SPECTRA_ROUND = {
    1: {"natural": 6, "small": 6, "wide": 2, "hard": 2},
    2: {"natural": 5, "small": 4, "wide": 1, "hard": 2},
    3: {"natural": 6, "small": 6, "wide": 1, "hard": 2},
    4: {"natural": 16, "small": 16, "hard": 2},
    5: {"natural": 4, "small": 4, "hard": 2},
    6: {"natural": 4, "small": 4, "hard": 2},
}
# the extra call made by the first ops of a stratum (spectrum_report only on
# natural/small inputs: its exact factor matrices multiply radicands)
SPECTRA_EXTRAS = {
    1: {"natural": ("inverse", "inverse", "power"), "small": ("inverse", "inverse", "power"),
        "wide": ("power",)},
    2: {"natural": ("table1", "table1", "table1", "report", "power"),
        "small": ("report", "power"), "wide": ("power",)},
    3: {"natural": ("report", "power"), "small": ("report", "power"), "wide": ("power",)},
}
POWER_MAX_EXPONENT = {1: 8, 2: 6, 3: 4}


def _spectra(rng) -> list[dict]:
    ops = []
    for level, strata in SPECTRA_ROUND.items():
        for stratum, count in strata.items():
            extras = SPECTRA_EXTRAS.get(level, {}).get(stratum, ())
            for i in range(count):
                extra = extras[i] if i < len(extras) else None
                ops.append(spectra_op(rng, level, stratum, extra))
    return ops


def spectra_op(rng, level: int, stratum: str, extra: str | None) -> dict:
    family = "frierson" if extra == "table1" else rng.choice(("lucas", "frierson"))
    while True:
        if stratum == "natural":
            triples = natural_triples(rng, level, family)
        else:
            bound = 10**6 if stratum == "wide" else 1000
            triples = tuple(random_triple(rng, bound, "lucas") for _ in range(level))
            if stratum == "hard":
                triples = triples[:-1] + (prime_pair_triple(rng),)
        c, v, y = triples[0]
        if extra != "inverse" or (c != 0 and v * v != y * y):
            break
    op = {"kind": extra or "spectrum", "level": level, "stratum": stratum,
          "natural": stratum == "natural", "triples": triples}
    if extra == "power":
        op["k"] = rng.randint(2, POWER_MAX_EXPONENT[level])
    return op


# -- enumerate ----------------------------------------------------------------

# (kind, level, variant, operations per round).  About a third of the ops
# take well under a millisecond, half take 5-7 ms (the level-2 sv-class
# materialization dominates them), a tenth are level-2 Lucas dedups, and a
# few are level-3 enumerations; the median falls inside the 5-7 ms group
# and the 90th percentile inside the level-2 Lucas dedups.  The level-3 FNC
# solver is left out: one call takes 4-6 s, so the two or three that fit
# in a run would set its throughput by themselves.
ENUMERATE_ROUND = (
    ("enum", 3, "lucas/all", 1), ("enum", 3, "lucas/count", 1),
    ("enum", 3, "frierson/all", 1), ("enum", 3, "frierson/count", 1),
    ("sv", 3, None, 1), ("census", 3, None, 1),
    ("enum", 2, "lucas/all", 10), ("enum", 2, "lucas/count", 10),
    ("enum", 2, "frierson/all", 10), ("enum", 2, "frierson/count", 10),
    ("sv", 2, None, 10), ("fnc", 2, None, 5), ("census", 2, None, 3), ("dup", 2, None, 3),
    ("enum", 1, "lucas/all", 1), ("enum", 1, "lucas/count", 1),
    ("enum", 1, "frierson/all", 1), ("enum", 1, "frierson/count", 1),
    ("sv", 1, None, 4), ("fnc", 1, None, 4), ("census", 1, None, 3), ("dup", 1, None, 3),
)


def _enumerate(rng) -> list[dict]:
    ops = []
    for kind, level, variant, count in ENUMERATE_ROUND:
        for _ in range(count):
            op = {"kind": kind, "level": level}
            if kind == "enum":
                op["family"], scope = variant.split("/")
                op["materialize"] = scope == "all"
            elif kind == "dup":
                family = rng.choice(("lucas", "frierson"))
                op["triples"] = (natural_triples if rng.random() < 0.5 else non_natural_triples)(
                    rng, level, family
                )
            ops.append(op)
    return ops


# -- cli ----------------------------------------------------------------------

# (subcommand, levels of its requests in one round); 100 requests per round.
# Most calls cost the interpreter start and imports plus a little; a
# level-3 `spectra` call adds about 130 ms of factor matrices, so 14 of
# them put the 90th percentile inside that group.
CLI_ROUND = (
    ("generate", (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)),
    ("verify", (2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4)),
    ("spectra", (1, 2, 2) + (3,) * 14),
    ("enumerate", (1, 2, 3, 4, 5, 6, 1, 1, 2, 2, 2, 2)),
    ("power", (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)),
    ("inverse", (1,) * 11),
    ("commute", (2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 2, 2)),
    ("tables", (1,) * 12),
)
VERIFY_FLAGS = ((), ("--expect", "magic,regular"), ("--expect", "natural"),
                ("--recover-params",), ("--expect", "fnc", "--recover-params"))


def _cli(rng) -> list[dict]:
    ops = []
    for command, levels in CLI_ROUND:
        for i, level in enumerate(levels):
            ops.append(_CLI_MAKERS[command](rng, level, i))
    return ops


def _square_file(rng, level: int, name: str):
    """A seeded compound square written as a grid or JSON file."""
    family = rng.choice(("lucas", "frierson"))
    natural = rng.random() < 0.5
    triples = (natural_triples if natural else non_natural_triples)(rng, level, family)
    phase = rng.choice(PHASES)
    a = oracle.PHASE_ARRAY[phase](oracle.build(triples))
    if rng.random() < 0.5:
        text = json.dumps({"order": len(a), "rows": a.tolist()})
    else:
        text = pretty_grid(a)
    return {"triples": triples, "phase": phase}, {name: text}


def _cli_generate(rng, level, i):
    family = rng.choice(("lucas", "frierson"))
    natural = rng.random() < 0.5
    triples = (natural_triples if natural else non_natural_triples)(rng, level, family)
    fmt = rng.choice(("grid", "json"))
    argv = ["generate", "--family", family, f"--params={params_text(triples, family)}",
            "--format", fmt]
    return {"kind": "generate", "level": level, "argv": argv, "triples": triples, "format": fmt}


def _cli_verify(rng, level, i):
    square, files = _square_file(rng, level, "verify.txt")
    flags = VERIFY_FLAGS[i % len(VERIFY_FLAGS)]
    return {"kind": "verify", "level": level, "argv": ["verify", "@verify.txt", *flags],
            "files": files, "flags": list(flags), **square}


def _cli_spectra(rng, level, i):
    family = rng.choice(("lucas", "frierson"))
    if i % 2:  # natural and small values alternate: their factor matrices differ in cost
        triples = natural_triples(rng, level, family)
    else:
        triples = tuple(random_triple(rng, 1000, family) for _ in range(level))
    if level >= 2 and i % 3 == 0:
        phase = rng.choice(PHASES)
        a = oracle.PHASE_ARRAY[phase](oracle.build(triples))
        return {"kind": "spectra", "level": level, "argv": ["spectra", "@spectra.txt"],
                "files": {"spectra.txt": pretty_grid(a)},
                "triples": oracle.phase_params(triples, phase)}
    return {"kind": "spectra", "level": level, "triples": triples,
            "argv": ["spectra", "--family", family, f"--params={params_text(triples, family)}"]}


def _cli_enumerate(rng, level, i):
    if i < 6:
        return {"kind": "enumerate", "level": level, "argv": ["enumerate", "--level", str(level)],
                "census": True}
    family = rng.choice(("lucas", "frierson"))
    count_only = rng.random() < 0.5
    argv = ["enumerate", "--level", str(level), "--fundamental", "--family", family]
    if count_only:
        argv.append("--count-only")
    return {"kind": "enumerate", "level": level, "argv": argv, "census": False,
            "family": family, "count_only": count_only}


def _cli_power(rng, level, i):
    family = rng.choice(("lucas", "frierson"))
    if rng.random() < 0.5:
        triples = natural_triples(rng, level, family)
    else:
        triples = tuple(random_triple(rng, 1000, family) for _ in range(level))
    k = rng.randint(2, POWER_MAX_EXPONENT[level])
    argv = ["power", "--family", family, f"--params={params_text(triples, family)}", "-k", str(k)]
    return {"kind": "power", "level": level, "argv": argv, "triples": triples, "k": k}


def _cli_inverse(rng, level, i):
    while True:
        c, v, y = random_triple(rng, 1000, "lucas")
        if c != 0 and v * v != y * y:
            break
    return {"kind": "inverse", "level": 1, "argv": ["inverse", f"--params={c},{v},{y}"],
            "triples": ((c, v, y),)}


def _cli_commute(rng, level, i):
    if i >= 10:
        return {"kind": "commute", "level": 2, "argv": ["commute", "--suite", "fier9"],
                "suite": True}
    left, files = _square_file(rng, level, "left.txt")
    right = partner_triples(rng, left["triples"], left["phase"])
    files["right.txt"] = pretty_grid(oracle.build(right))
    return {"kind": "commute", "level": level, "argv": ["commute", "@left.txt", "@right.txt"],
            "files": files, "suite": False, "left": left, "right": right}


def _cli_tables(rng, level, i):
    which = 1 + i % 2
    return {"kind": "tables", "level": 2 if which == 1 else 6,
            "argv": ["tables", "--which", str(which)], "which": which}


_CLI_MAKERS = {
    "generate": _cli_generate, "verify": _cli_verify, "spectra": _cli_spectra,
    "enumerate": _cli_enumerate, "power": _cli_power, "inverse": _cli_inverse,
    "commute": _cli_commute, "tables": _cli_tables,
}

_MAKERS = {
    "build_verify": _build_verify, "spectra": _spectra,
    "enumerate": _enumerate, "cli": _cli,
}
