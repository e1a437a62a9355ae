"""Self-test of the benchmark's output checks.

Run from the repository root:

    python3 bench/selftest.py

For one operation of every kind in every workload it runs the operation,
requires the checker to accept the true output, then corrupts the output
in one place at a time and requires the checker to reject each corruption.
Exits 1 if a true output is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import dataclasses
import re
import sys
import tempfile
from pathlib import Path


def main() -> int:
    import run

    root = Path.cwd()
    problem = run.use_source_tree(root / "src")
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    from lucasmagic import Radical, SquareMatrix

    def bump_matrix(m):
        rows = [list(r) for r in m.rows]
        rows[0][0] += 1
        return SquareMatrix(rows)

    def flip(value):
        return not value

    def field(name, change):
        """Corrupt out[name] with change()."""
        return lambda out: {**out, name: change(out[name])}

    def attr(name, attribute, change):
        """Corrupt out[name].attribute (a frozen dataclass field)."""
        return lambda out: {**out, name: dataclasses.replace(
            out[name], **{attribute: change(getattr(out[name], attribute))})}

    def bump_radical(values):
        r = values[0]
        return [Radical(r.coeff + 1, r.radicand or 1)] + list(values[1:])

    def last_digit(text):
        m = list(re.finditer(r"\d", text))
        if not m:
            return text.replace("true", "false")
        i = m[-1].start()
        return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]

    corruptions = {
        "build_verify": {
            "square": [
                ("square entry", field("square", bump_matrix)),
                ("phase image entry", field("phased", bump_matrix)),
                ("grid round trip entry", field("grid", bump_matrix)),
                ("report is_natural", attr("report", "is_natural", flip)),
                ("report line sum", attr("report", "summation_index", lambda x: x + 1)),
                ("report rank", attr("report", "exact_rank", lambda x: x + 1)),
                ("recovered params", attr("report", "lucas_params",
                                          lambda p: ((p[0][0] + 1,) + p[0][1:],) + p[1:])),
                ("commutator verdict", attr("pair", "observed", flip)),
                ("closed-form verdict", attr("pair", "predicted", flip)),
            ],
        },
        "spectra": {
            "spectrum": [
                ("singular value", field("singular_values", bump_radical)),
                ("eigenvalue", field("eigenvalues", bump_radical)),
                ("eigenvalue dropped", field("eigenvalues", lambda v: v[:-1])),
            ],
            "report": [("SVD residual", attr("report", "svd_residual", lambda x: 1e-3)),
                       ("report rank", attr("report", "rank", lambda x: x + 1))],
            "power": [("power entry", field("power", bump_matrix))],
            "inverse": [("inverse entry", field("inverse", bump_matrix))],
            "table1": [("table1 sigma", field("table1", lambda r: {
                **r, "sigma_over_sqrt3": [r["sigma_over_sqrt3"][0] + 3] + r["sigma_over_sqrt3"][1:]}))],
        },
        "enumerate": {
            "enum": [
                ("fundamental count", attr("result", "fundamental_count", lambda x: x + 1)),
                ("sv classes", attr("result", "sv_class_count", lambda x: x + 1)),
                ("representative dropped",
                 attr("result", "representatives", lambda r: None if r is None else r[1:])),
            ],
            "sv": [("sv class count", field("result", lambda x: x + 1))],
            "fnc": [("natural solution dropped", field("result", lambda s: s[1:]))],
            "census": [("census mu", attr("result", "mu", lambda x: x + 1))],
            "dup": [("duplicate verdict", field("result", flip))],
        },
        "cli": {kind: [("exit code", field("code", lambda c: 1 - c if c in (0, 1) else 0)),
                       ("stdout digit", field("stdout", last_digit))]
                for kind in ("generate", "verify", "spectra", "enumerate", "power",
                             "inverse", "commute", "tables")},
    }

    bad = 0
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for workload, by_kind in corruptions.items():
            bench = run.Bench(workload, 0, 0, root, None)
            bench.workdir = Path(workdir) / workload
            bench.workdir.mkdir()
            bench.ctx.in_process = True
            chosen = {}
            # the cheapest op of each kind; materialized enumerations first
            for op in sorted(bench.prepare(0), key=lambda o: (o["level"], not o.get("materialize"))):
                chosen.setdefault(op["kind"], op)
            for kind, cases in by_kind.items():
                op = chosen[kind]
                out = bench.ops.run_op(workload, op, bench.ctx)
                try:
                    bench.ops.check_op(workload, op, out)
                    print(f"ok       {workload}/{kind}: true output accepted")
                except Exception as exc:
                    bad += 1
                    print(f"WRONG    {workload}/{kind}: true output rejected: {exc}")
                for label, corrupt in cases:
                    try:
                        bench.ops.check_op(workload, op, corrupt(out))
                    except Exception as exc:
                        print(f"ok       {workload}/{kind}: {label} rejected ({exc})")
                    else:
                        bad += 1
                        print(f"WRONG    {workload}/{kind}: {label} accepted")
    print(f"selftest: {'FAILED' if bad else 'passed'} ({bad} wrong)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
