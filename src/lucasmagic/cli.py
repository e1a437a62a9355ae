"""Command-line front end.

Subcommands: generate, verify, spectra, enumerate, power, inverse,
commute, tables.  Exit codes: 0 success, 1 a checked property came out
false (e.g. `verify --expect natural` on a non-natural square), 2 usage
or input errors.  All data output is deterministic — identical
invocations produce byte-identical bytes.

Only `construct` and `exactmat`, which argument parsing and the shared
helpers need, are imported at module level.  Each `_cmd_*` function imports
the other layers it uses in the branch that uses them, so a call loads only
the modules it computes with (`generate` loads no other).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .construct import (
    FRIERSON9_SETS,
    format_lucas_params,
    frierson_to_lucas,
    frierson_well_formed,
    lucas,
    parse_frierson_params,
    parse_lucas_params,
)
from .exactmat import SquareMatrix, _int_digit_limit

# Table 1 pairs letters whose squares share a spectrum; keep its row order.
_TABLE1_ROWS = (("A", "G"), ("D", "J"), ("B", "H"), ("E", "K"), ("C", "I"), ("F", "L"))

_EXPECT_CHOICES = ("magic", "regular", "natural", "fnc")

_MAX_LEVEL = 7  # of --params: order 2187, 4.8M entries (level 8 has 43M)


def _parse_family_params(family: str | None, text: str, level=None):
    """Parameter grammar -> at most _MAX_LEVEL level triples, with an optional
    level check; a family of None (no --family given) reads as lucas."""
    if family == "frierson":
        pairs = parse_frierson_params(text)
        if not frierson_well_formed(pairs):
            print(
                "warning: zero parameters give a degenerate (never natural) "
                "frierson square",
                file=sys.stderr,
            )
        triples = frierson_to_lucas(pairs)
    else:
        triples = parse_lucas_params(text)
    if level is not None and len(triples) != level:
        raise ValueError(
            f"--level {level} disagrees with {len(triples)} parameter group(s)"
        )
    if len(triples) > _MAX_LEVEL:
        raise ValueError(f"{len(triples)} levels given; at most {_MAX_LEVEL} are built")
    return triples


def _read_matrix(path: str) -> SquareMatrix:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return SquareMatrix.from_json(text)
    return SquareMatrix.from_grid(text)


def _matrix_text(m: SquareMatrix, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(m.to_json(), indent=2) + "\n"
    return m.to_grid()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_generate(args) -> int:
    triples = _parse_family_params(args.family, args.params, args.level)
    _emit(_matrix_text(lucas(triples), args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import verify_report

    expectations = []
    for chunk in args.expect or []:
        expectations.extend(p.strip() for p in chunk.split(",") if p.strip())
    for prop in expectations:
        if prop not in _EXPECT_CHOICES:
            raise ValueError(
                f"unknown property {prop!r}; choose from {', '.join(_EXPECT_CHOICES)}"
            )
    report = verify_report(_read_matrix(args.matrix))
    out = report.to_json()
    values = {
        "magic": report.is_magic,
        "regular": report.is_regular,
        "natural": report.is_natural,
        "fnc": report.fnc_pass,
    }
    failures = [prop for prop in expectations if values[prop] is not True]

    if args.recover_params:
        if report.lucas_params is None:
            failures.append("recover-params")
        else:
            out["recovered_params"] = format_lucas_params(report.lucas_params)

    if failures:
        out["failed_expectations"] = failures
    print(json.dumps(out, indent=2))
    return 1 if failures else 0


def _markdown(head, rows) -> None:
    """Print a markdown table: the header, the |---| rule, one line per row."""
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for row in rows:
        print("| " + " | ".join(map(str, row)) + " |")


def _spectral_head(level: int) -> list[str]:
    """Column names of a level's spectral row: |lambda_i| per level, then the
    nonzero sigma_j/sqrt(3) after sigma_1 = |mu|."""
    head = [f"\\|lambda_{i}\\|" for i in range(1, level + 1)]
    return head + [f"sigma_{j}/sqrt(3)" for j in range(2, 2 * level + 2)]


def _cmd_spectra(args) -> int:
    from .spectra import _spectral_row, spectrum_report

    if args.matrix is not None:
        from .verify import recover_lucas_params

        if (args.params, args.level, args.family) != (None, None, None):
            raise ValueError("a matrix file takes no --params, --level or --family")
        triples = recover_lucas_params(_read_matrix(args.matrix))
        if triples is None:
            raise ValueError(
                f"{args.matrix} is not a compound Lucas square; "
                "closed-form spectra need family parameters"
            )
    else:
        if args.params is None:
            raise ValueError("provide --params or a matrix file")
        triples = _parse_family_params(args.family, args.params, args.level)
    report = spectrum_report(triples)
    print(json.dumps(report.to_json(), indent=2))
    print()
    lams, sigs = _spectral_row(len(triples), report.eigenvalues, report.singular_values)
    head = ["params", *_spectral_head(len(triples))]
    _markdown(head, [[format_lucas_params(triples), *lams, *sigs]])
    return 0


def _refuse_unprintable(digits: float, what: str) -> None:
    """Raise ValueError when an integer of `digits` decimal digits is past
    Python's limit for printing integers (0: none).  `digits` may read one
    digit high, never more, so with one digit of slack a refused integer
    could not have been printed.
    """
    limit = _int_digit_limit()
    if limit and digits > limit + 1:
        raise ValueError(
            f"{what} of more than {limit} digits, the limit for printing integers"
        )


def _cmd_enumerate(args) -> int:
    from .enumeration import (MATERIALIZATION_CEILING, census, census_digits,
                              enumerate_fundamental)

    if args.emit is not None and (not args.fundamental or args.count_only):
        raise ValueError("--emit needs --fundamental and takes no --count-only")
    if not args.fundamental and (args.count_only or args.family is not None):
        raise ValueError("--count-only and --family need --fundamental")
    family = args.family or "lucas"
    if args.emit is not None and args.level > MATERIALIZATION_CEILING:
        raise ValueError(f"--emit needs --level <= {MATERIALIZATION_CEILING}, "
                         "the materialization ceiling")
    _refuse_unprintable(
        census_digits(args.level, family if args.fundamental else None),
        f"enumerate --level {args.level} would print integers",
    )
    if not args.fundamental:
        print(json.dumps(census(args.level).to_json(), indent=2))
        return 0
    result = enumerate_fundamental(args.level, family)
    if args.count_only or result.representatives is None:
        print(result.fundamental_count)
        return 0
    lines = [format_lucas_params(rep) for rep in result.representatives]
    if args.emit is not None:
        outdir = Path(args.emit)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "params.txt").write_text("\n".join(lines) + "\n")
        width = len(str(len(result.representatives) - 1))
        for i, rep in enumerate(result.representatives):
            (outdir / f"rep_{i:0{width}d}.txt").write_text(lucas(rep).to_grid())
        print(f"{result.fundamental_count} representatives -> {outdir}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_power(args) -> int:
    from .spectra import matrix_power, matrix_power_digits

    triples = _parse_family_params(args.family, args.params, args.level)
    # Some entry has at least the largest term's digits minus one.
    _refuse_unprintable(
        matrix_power_digits(triples, args.exponent), "M^k would have entries"
    )
    _emit(_matrix_text(matrix_power(triples, args.exponent), args.format), args.out)
    return 0


def _cmd_inverse(args) -> int:
    from .spectra import lucas3_inverse

    triples = parse_lucas_params(args.params)
    if len(triples) != 1:
        raise ValueError("inverse takes a single order-3 triple c,v,y")
    _emit(lucas3_inverse(*triples[0]).to_grid(), args.out)
    return 0


def _cmd_commute(args) -> int:
    from .algebra import FIER9_EXPECTED_PAIRS, commuting_pair_report, fier9_commuting_pairs

    if args.suite is not None:
        if args.matrices:
            raise ValueError("--suite takes no matrix files")
        found = fier9_commuting_pairs()
        expected = sorted(tuple(sorted(p)) for p in FIER9_EXPECTED_PAIRS)
        ok = found == expected
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "commuting_pairs": [list(p) for p in found],
                    "expected_pairs": [list(p) for p in expected],
                    "match": ok,
                },
                indent=2,
            )
        )
        return 0 if ok else 1
    if len(args.matrices) != 2:
        raise ValueError("commute needs two matrix files (or --suite fier9)")
    a, b = map(_read_matrix, args.matrices)
    print(json.dumps(commuting_pair_report(a, b).to_json(), indent=2))
    return 0


def _cmd_tables(args) -> int:
    if args.which == 1:
        from .spectra import table1_row

        def cells(letter):
            r = table1_row(*FRIERSON9_SETS[letter])
            return [r["abs_lambda1"], r["abs_lambda2"], *r["sigma_over_sqrt3"]]

        rows = []
        for first, second in _TABLE1_ROWS:
            row = cells(first)
            if row != cells(second):  # pragma: no cover - fixture letters always pair up
                raise AssertionError(f"{first} and {second} no longer share a row")
            rows.append([f"{first}, {second}", *row])
        _markdown(["v,y,s,t", *_spectral_head(2)], rows)
    else:
        from .enumeration import census

        rows = [[f"{x:,}" for x in census(lev).to_json().values()] for lev in range(1, 7)]
        _markdown(["l", "n", "mu", "N_L", "N_F", "rank", "N_SV"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucasmagic",
        description="Compound Lucas/Frierson magic squares: construct, "
        "verify, decompose, enumerate, and test commutation — exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_params(p, params_required=True):
        p.add_argument("--family", choices=("lucas", "frierson"), help="default: lucas")
        p.add_argument(
            "--params",
            required=params_required,
            help='level groups split by ";", values by ","; innermost level '
            'first ("c,v,y;..." for lucas, "v,y;..." for frierson)',
        )
        p.add_argument("--level", type=int, help="cross-check the group count")

    p = sub.add_parser("generate", help="construct a square from parameters")
    family_params(p)
    p.add_argument("--format", choices=("grid", "json"), default="grid")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="run all property checks on a matrix file")
    p.add_argument("matrix", help="matrix file (grid or json)")
    p.add_argument(
        "--expect",
        action="append",
        metavar="PROP[,PROP...]",
        help=f"exit 1 unless these hold ({', '.join(_EXPECT_CHOICES)})",
    )
    p.add_argument(
        "--recover-params",
        action="store_true",
        help="also report the recovered construction parameters (exit 1 if none)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectra", help="closed-form eigen/singular structure")
    p.add_argument("matrix", nargs="?", help="matrix file (alternative to --params)")
    family_params(p, params_required=False)
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("enumerate", help="census or fundamental representatives")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--family", choices=("lucas", "frierson"), help="default: lucas")
    p.add_argument(
        "--fundamental",
        action="store_true",
        help="list fundamental representatives instead of the census row",
    )
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", metavar="DIR", help="write params.txt + grid files")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("power", help="k-th matrix power by closed form")
    family_params(p)
    p.add_argument("-k", "--exponent", type=int, required=True)
    p.add_argument("--format", choices=("grid", "json"), default="grid")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("inverse", help="exact inverse of an order-3 square")
    p.add_argument("--params", required=True, help='"c,v,y"')
    p.add_argument("--out")
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("commute", help="commutation report for two squares")
    p.add_argument("matrices", nargs="*", help="two matrix files")
    p.add_argument("--suite", choices=("fier9",), help="run the fixture suite")
    p.set_defaults(func=_cmd_commute)

    p = sub.add_parser("tables", help="reference tables as markdown")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=_cmd_tables)

    return parser


def _join_params(argv: list[str]) -> list[str]:
    """Rewrite ``--params VALUE`` as ``--params=VALUE`` when VALUE starts
    with a minus sign and a digit, which argparse would read as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--params" and re.match(r"-\d", arg):
            out[-1] = f"--params={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_params(argv))
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
