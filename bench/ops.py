"""One benchmark operation: run it through lucasmagic, then check its output.

run_op() is the only code inside the timed region.  check_op() compares
the output with oracle.py (independent exact invariants) and raises
oracle.CheckFailed on any disagreement; a check never changes what was
timed.  For the `cli` workload an operation is one `python -m lucasmagic`
process, or one in-process `cli.main(argv)` call in the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import lucasmagic as lm
from lucasmagic import cli
from lucasmagic.exactmat import SquareMatrix
from lucasmagic.spectra import table1_row

import oracle
from oracle import CheckFailed, expect

CLI_TIMEOUT_S = 120
RESIDUAL_LIMIT = 1e-9


# -- running ------------------------------------------------------------------


def run_op(workload: str, op: dict, ctx) -> dict:
    return _RUNNERS[workload](op, ctx)


def _run_square(op, ctx):
    if op["family"] == "frierson":
        square = lm.frierson([(v, y) for _, v, y in op["triples"]])
    else:
        square = lm.lucas(op["triples"])
    phased = lm.apply_phase(square, op["phase"])
    grid = SquareMatrix.from_grid(phased.to_grid())
    report = lm.verify_report(grid)
    pair = lm.commuting_pair_report(grid, lm.lucas(op["partner"]))
    return {"square": square, "phased": phased, "grid": grid, "report": report, "pair": pair}


def _run_spectra(op, ctx):
    t = op["triples"]
    out = {"eigenvalues": lm.eigenvalues(t), "singular_values": lm.singular_values(t)}
    kind = op["kind"]
    if kind == "report":
        out["report"] = lm.spectrum_report(t)
    elif kind == "power":
        out["power"] = lm.matrix_power(t, op["k"])
    elif kind == "inverse":
        out["inverse"] = lm.lucas3_inverse(*t[0])
    elif kind == "table1":
        (_, v, y), (_, s, u) = t
        out["table1"] = table1_row(v, y, s, u)
    return out


def _run_enumerate(op, ctx):
    level, kind = op["level"], op["kind"]
    if kind == "enum":
        if op["materialize"]:
            return {"result": lm.enumerate_fundamental(level, op["family"])}
        return {"result": lm.enumerate_fundamental(level, op["family"], ceiling=0)}
    if kind == "sv":
        return {"result": lm.sv_class_count(level)}
    if kind == "fnc":
        return {"result": lm.fnc_integer_solutions(level)}
    if kind == "census":
        return {"result": lm.census(level)}
    return {"result": lm.duplicate_element_check(op["triples"])}


def _run_cli(op, ctx):
    argv = [str(Path(op["dir"]) / a[1:]) if a.startswith("@") else a for a in op["argv"]]
    if ctx.in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return {"code": code, "stdout": out.getvalue()}
    proc = subprocess.run(
        [sys.executable, "-m", "lucasmagic", *argv],
        cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return {"code": proc.returncode, "stdout": proc.stdout}


_RUNNERS = {
    "build_verify": _run_square,
    "spectra": _run_spectra,
    "enumerate": _run_enumerate,
    "cli": _run_cli,
}


# -- checking -----------------------------------------------------------------


def check_op(workload: str, op: dict, out: dict) -> None:
    _CHECKERS[workload](op, out)


def frobenius_target(n: int) -> int:
    return n * n * (n * n - 1) * (2 * n * n - 1) // 6


def _check_square(op, out):
    t, phase, level = op["triples"], op["phase"], op["level"]
    ref = oracle.build(t)
    image = oracle.PHASE_ARRAY[phase](ref)
    expect(oracle.same(out["square"], ref), "square differs from the digit-sum reference")
    expect(oracle.same(out["phased"], image), "apply_phase differs from the array phase")
    expect(out["grid"] == out["phased"], "grid round trip is not exact")
    image_params = lm.phase_parameters(t, phase)
    expect(np.array_equal(oracle.build(image_params), image),
           "phase_parameters do not rebuild the phase image")

    r = out["report"]
    natural = oracle.is_natural(image)
    frob = oracle.frobenius_sq(image)
    expect(natural == op["natural"], "naturalness of the input changed")
    expect(r.order == 3**level and r.is_magic is True, "square not reported magic")
    expect(r.summation_index == oracle.line_sum(t), "line sum is not magic_index")
    expect(r.is_regular is True, "compound square not reported regular")
    expect(r.is_natural == natural, "is_natural disagrees with the reference")
    expect(r.frobenius_sq == frob and r.fnc_pass == (frob == frobenius_target(3**level)),
           "Frobenius norm or FNC disagrees with the reference")
    expect(r.exact_rank == oracle.rank(t), "exact rank disagrees with the closed form")
    expect(not natural or r.exact_rank == 2 * level + 1, "natural square rank is not 2l+1")
    rec = r.lucas_params
    expect(rec is not None and np.array_equal(oracle.build(rec), image),
           "recovered params do not rebuild the square")
    expect([(v, y) for _, v, y in rec] == [(v, y) for _, v, y in image_params],
           "recovered (v, y) differ from phase_parameters")

    commutes = oracle.commutes(image, oracle.build(op["partner"]))
    pair = out["pair"]
    expect(pair.observed == commutes, "commuting_pair_report.observed is wrong")
    expect(pair.predicted == commutes and pair.consistent is True,
           "closed-form commutation disagrees with the exact commutator")
    expect(lm.commute_predicate(rec, op["partner"]) == commutes,
           "commute_predicate disagrees with the exact commutator")


def _check_spectra(op, out):
    t, level = op["triples"], op["level"]
    n = 3**level
    ref = oracle.build(t)
    ev, sv = out["eigenvalues"], out["singular_values"]
    expect(len(ev) == n and len(sv) == n, "spectrum length is not 3**level")
    expect(all(r.radicand >= 0 and r.coeff >= 0 for r in sv), "negative singular value")
    expect(sum(r.coeff**2 * r.radicand for r in sv) == oracle.frobenius_sq(ref),
           "sum of squared singular values is not the Frobenius norm")
    if level <= 4:
        by_radicand = defaultdict(Fraction)
        for r in ev:
            by_radicand[r.radicand] += r.coeff
        total = {d: c for d, c in by_radicand.items() if d and c}
        trace = int(np.trace(ref))
        expect(total == ({1: trace} if trace else {}), "eigenvalues do not sum to the trace")
    nonzero = sum(1 for r in sv if r.radicand)
    expect(nonzero == oracle.rank(t), "rank disagrees with the closed form")
    expect(not op["natural"] or nonzero == 2 * level + 1, "natural square rank is not 2l+1")

    kind = op["kind"]
    if kind == "report":
        rep = out["report"]
        expect(rep.order == n and rep.mu == oracle.line_sum(t) and rep.rank == nonzero,
               "spectrum_report order/mu/rank wrong")
        expect(rep.eigenvalues == tuple(ev) and rep.singular_values == tuple(sv),
               "spectrum_report spectrum differs from eigenvalues/singular_values")
        expect(rep.svd_residual < RESIDUAL_LIMIT, "SVD residual too large")
        degenerate = any(v * v == y * y for _, v, y in t)
        expect(rep.jcf_residual is None if degenerate else rep.jcf_residual < RESIDUAL_LIMIT,
               "JCF residual too large")
    elif kind == "power":
        expect([list(r) for r in out["power"].rows] == oracle.int_power(ref, op["k"]),
               "matrix_power differs from the exact product")
    elif kind == "inverse":
        product = oracle.rational_matmul(out["inverse"].rows, ref.tolist())
        expect(product == [[int(i == j) for j in range(3)] for i in range(3)],
               "lucas3_inverse is not the inverse")
    elif kind == "table1":
        _check_table1_row(out["table1"], t)


def _check_table1_row(row, t):
    (_, v, y), (_, s, u) = t
    # order 9: every level's values are scaled by 3**(level - 1) = 3
    expect(row["sigma_over_sqrt3"] == [3 * (v + y), 3 * abs(v - y), 3 * (s + u), 3 * abs(s - u)],
           "table1 sigma/sqrt(3) wrong")
    expect(oracle.radical_square(row["abs_lambda1"]) == 9 * abs(3 * (v * v - y * y))
           and oracle.radical_square(row["abs_lambda2"]) == 9 * abs(3 * (s * s - u * u)),
           "table1 |lambda| wrong")


def _check_enum_result(res, level, family, materialize):
    count = oracle.fundamental_count(level, family)
    total = count * (8 if family == "lucas" else 2)
    expect(res.level == level and res.family == family, "enumeration echoes wrong request")
    expect(res.fundamental_count == count and res.total_assignments == total,
           "fundamental count is not the formula")
    expect(res.sv_class_count == oracle.odd_double_factorial(level), "sv classes not (2l-1)!!")
    if not materialize:
        expect(res.representatives is None, "count-only request materialized representatives")
        return
    reps = res.representatives
    expect(reps is not None and len(reps) == count and len(set(reps)) == count,
           "representatives are not the formula count of distinct tuples")
    expect(all(oracle.is_fundamental(r, family) for r in reps),
           "a representative is not a canonical natural assignment")


def _check_enumerate(op, out):
    level, kind, res = op["level"], op["kind"], out["result"]
    if kind == "enum":
        _check_enum_result(res, level, op["family"], op["materialize"])
    elif kind == "sv":
        expect(res == oracle.odd_double_factorial(level), "sv_class_count is not (2l-1)!!")
    elif kind == "fnc":
        natural = tuple(3**k for k in range(2 * level))
        expect(natural in res, "the natural magnitudes are not an FNC solution")
        expect(all(
            list(s) == sorted(set(s)) and len(s) == 2 * level and s[0] > 0
            and sum(s) == (9**level - 1) // 2
            and sum(x * x for x in s) == (9 ** (2 * level) - 1) // 8
            for s in res), "an FNC solution breaks the moment equations")
        expect(level > 2 or len(res) == 1, "FNC solution not unique at level <= 2")
    elif kind == "census":
        expect(res.to_json() == oracle.census_row(level), "census row disagrees with formulas")
    else:
        a = oracle.build(op["triples"])
        expect(res == (np.unique(a).size == a.size), "duplicate_element_check is wrong")


# -- cli ----------------------------------------------------------------------


def _check_cli(op, out):
    _CLI_CHECKERS[op["kind"]](op, out["code"], out["stdout"])


def _parse_grid(text: str):
    return [[Fraction(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]


def _cli_generate(op, code, stdout):
    expect(code == 0, f"generate exited {code}")
    ref = oracle.build(op["triples"]).tolist()
    if op["format"] == "json":
        expect(json.loads(stdout) == {"order": len(ref), "rows": ref}, "generate JSON wrong")
    else:
        expect(_parse_grid(stdout) == ref, "generate grid wrong")


def _cli_verify(op, code, stdout):
    t, level = op["triples"], op["level"]
    image = oracle.PHASE_ARRAY[op["phase"]](oracle.build(t))
    frob = oracle.frobenius_sq(image)
    natural = oracle.is_natural(image)
    props = {"magic": True, "regular": True, "natural": natural,
             "fnc": frob == frobenius_target(3**level)}
    flags = op["flags"]
    wanted = flags[1].split(",") if flags and flags[0] == "--expect" else []
    failures = [p for p in wanted if not props[p]]
    expect(code == (1 if failures else 0), f"verify exited {code}")
    got = json.loads(stdout)
    expect({k: got[k] for k in ("order", "is_magic", "summation_index", "is_regular",
                                 "frobenius_sq", "fnc_pass", "is_natural", "exact_rank")}
           == {"order": 3**level, "is_magic": True, "summation_index": oracle.line_sum(t),
               "is_regular": True, "frobenius_sq": frob, "fnc_pass": props["fnc"],
               "is_natural": natural, "exact_rank": oracle.rank(t)},
           "verify report fields wrong")
    rec = [tuple(x) for x in got["lucas_params"]]
    expect(np.array_equal(oracle.build(rec), image), "verify recovered params do not rebuild")
    if "--recover-params" in flags:
        expect(got["recovered_params"] == ";".join(f"{c},{v},{y}" for c, v, y in rec),
               "recovered_params string wrong")
    expect(got.get("failed_expectations", []) == failures, "failed_expectations wrong")


def _cli_spectra(op, code, stdout):
    expect(code == 0, f"spectra exited {code}")
    t, level = op["triples"], op["level"]
    head, _, table = stdout.partition("\n\n")
    got = json.loads(head)
    evs = [str(r) for r in lm.eigenvalues(t)]
    svs = [str(r) for r in lm.singular_values(t)]
    expect(got["order"] == 3**level and got["mu"] == oracle.line_sum(t)
           and got["rank"] == oracle.rank(t), "spectra order/mu/rank wrong")
    expect([e["exact"] for e in got["eigenvalues"]] == evs
           and [s["exact"] for s in got["singular_values"]] == svs,
           "spectra exact values differ from the library")
    expect(got["svd_residual"] < RESIDUAL_LIMIT
           and (got["jcf_residual"] is None or got["jcf_residual"] < RESIDUAL_LIMIT),
           "spectra residual too large")
    cells = [c.strip() for c in table.splitlines()[2].strip("|").split("|")]
    sigmas = [3 ** (level - 1) * abs(v + sign * y) for _, v, y in t for sign in (1, -1)]
    expect([int(c) for c in cells[1 + level:]] == sigmas, "spectra markdown sigma/sqrt(3) wrong")


def _cli_enumerate(op, code, stdout):
    expect(code == 0, f"enumerate exited {code}")
    level = op["level"]
    if op["census"]:
        expect(json.loads(stdout) == oracle.census_row(level), "census JSON wrong")
        return
    family = op["family"]
    count = oracle.fundamental_count(level, family)
    if op["count_only"]:
        expect(stdout == f"{count}\n", "fundamental count wrong")
        return
    reps = [tuple(tuple(int(x) for x in g.split(",")) for g in line.split(";"))
            for line in stdout.splitlines()]
    expect(len(reps) == count and len(set(reps)) == count, "wrong number of representatives")
    expect(all(oracle.is_fundamental(r, family) for r in reps),
           "a listed representative is not a canonical natural assignment")


def _cli_power(op, code, stdout):
    expect(code == 0, f"power exited {code}")
    expect(_parse_grid(stdout) == oracle.int_power(oracle.build(op["triples"]), op["k"]),
           "power grid wrong")


def _cli_inverse(op, code, stdout):
    expect(code == 0, f"inverse exited {code}")
    product = oracle.rational_matmul(_parse_grid(stdout), oracle.build(op["triples"]).tolist())
    expect(product == [[int(i == j) for j in range(3)] for i in range(3)], "inverse wrong")


def _fier9_pairs():
    mats = {}
    for letter, (v, y, s, u) in lm.FRIERSON9_SETS.items():
        a = oracle.build(((v + y, v, y), (s + u, s, u)))
        mats[letter], mats[letter + "R"] = a, a[:, ::-1]
    labels = sorted(mats)
    return sorted([a, b] for i, a in enumerate(labels) for b in labels[i + 1:]
                  if oracle.commutes(mats[a], mats[b]))


def _cli_commute(op, code, stdout):
    expect(code == 0, f"commute exited {code}")
    got = json.loads(stdout)
    if op["suite"]:
        expect(got["match"] is True and sorted(got["commuting_pairs"]) == _fier9_pairs(),
               "fier9 suite pairs wrong")
        return
    left = op["left"]
    a = oracle.PHASE_ARRAY[left["phase"]](oracle.build(left["triples"]))
    b = oracle.build(op["right"])
    commutes = oracle.commutes(a, b)
    lp = [tuple(x) for x in got["left_params"]]
    rp = [tuple(x) for x in got["right_params"]]
    expect(np.array_equal(oracle.build(lp), a) and np.array_equal(oracle.build(rp), b),
           "commute recovered params do not rebuild the inputs")
    expect(got["observed"] == commutes and got["predicted"] == commutes
           and got["consistent"] is True, "commute verdict wrong")


def _cli_tables(op, code, stdout):
    expect(code == 0, f"tables exited {code}")
    lines = stdout.splitlines()
    if op["which"] == 2:
        rows = [oracle.census_row(level) for level in range(1, 7)]
        want = [f"| {r['level']} | {r['order']:,} | {r['mu']:,} | {r['lucas_fundamental']:,} "
                f"| {r['frierson_fundamental']:,} | {r['rank']} | {r['sv_classes']:,} |"
                for r in rows]
        expect(lines[2:] == want, "census table wrong")
        return
    expect(len(lines) == 8, "table 1 has the wrong number of rows")
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        for letter in cells[0].split(", "):
            v, y, s, u = lm.FRIERSON9_SETS[letter]
            row = {"abs_lambda1": cells[1], "abs_lambda2": cells[2],
                   "sigma_over_sqrt3": [int(c) for c in cells[3:7]]}
            _check_table1_row(row, ((v + y, v, y), (s + u, s, u)))


_CLI_CHECKERS = {
    "generate": _cli_generate, "verify": _cli_verify, "spectra": _cli_spectra,
    "enumerate": _cli_enumerate, "power": _cli_power, "inverse": _cli_inverse,
    "commute": _cli_commute, "tables": _cli_tables,
}

_CHECKERS = {
    "build_verify": _check_square,
    "spectra": _check_spectra,
    "enumerate": _check_enumerate,
    "cli": _check_cli,
}
