import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lucasmagic
from lucasmagic import cli, radical
from lucasmagic.algebra import build_commuting_lucas_pair
from lucasmagic.cli import _refuse_unprintable, build_parser, main
from lucasmagic.construct import frierson9, lucas, lucas3, parse_lucas_params
from lucasmagic.enumeration import census, frierson_fundamental_formula, lucas_fundamental_formula
from lucasmagic.exactmat import SquareMatrix
from lucasmagic.spectra import lucas3_inverse

FIXTURES = Path(__file__).parent / "fixtures"
M5 = str(FIXTURES / "m5_counterexample.txt")


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def _run_module(*argv, timeout=60, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(Path(lucasmagic.__file__).resolve().parents[1]),
               **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "lucasmagic", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_generate_grid(capsys):
    rc, out, _ = run(capsys, "generate", "--params", "4,3,1")
    assert rc == 0
    assert out == "7 0 5\n2 4 6\n3 8 1\n"


def test_generate_json(capsys):
    rc, out, _ = run(capsys, "generate", "--params", "4,3,1", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"order": 3, "rows": [[7, 0, 5], [2, 4, 6], [3, 8, 1]]}


def test_generate_frierson(capsys):
    rc, out, _ = run(capsys, "generate", "--family", "frierson", "--params", "3,1;27,9")
    assert rc == 0
    assert SquareMatrix.from_grid(out) == frierson9("A")


def test_generate_frierson_zero_warns(capsys):
    rc, out, err = run(capsys, "generate", "--family", "frierson", "--params", "0,1")
    assert rc == 0
    assert "degenerate" in err
    assert SquareMatrix.from_grid(out) == lucas3(1, 0, 1)


def test_generate_out_file(tmp_path, capsys):
    target = tmp_path / "square.txt"
    rc, out, _ = run(capsys, "generate", "--params", "4,3,1", "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text() == "7 0 5\n2 4 6\n3 8 1\n"


def test_generate_level_cross_check(capsys):
    rc, _, err = run(capsys, "generate", "--params", "4,3,1", "--level", "2")
    assert rc == 2
    assert "disagrees" in err


def test_generate_is_deterministic(capsys):
    args = ("generate", "--params", "4,3,1;36,27,9", "--format", "json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_natural_square(tmp_path, capsys):
    f = tmp_path / "a.txt"
    f.write_text(frierson9("A").to_grid())
    rc, out, _ = run(capsys, "verify", str(f), "--expect", "magic,regular,natural,fnc")
    assert rc == 0
    obj = json.loads(out)
    assert obj["is_magic"] and obj["is_natural"]
    assert obj["summation_index"] == 360
    assert "failed_expectations" not in obj


def test_verify_json_input(tmp_path, capsys):
    f = tmp_path / "a.json"
    f.write_text(json.dumps(lucas3(4, 3, 1).to_json()))
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0
    assert json.loads(out)["order"] == 3


def test_verify_expect_failure_exits_1(capsys):
    rc, out, _ = run(capsys, "verify", M5, "--expect", "natural")
    assert rc == 1
    obj = json.loads(out)
    assert obj["is_magic"] and obj["fnc_pass"] and not obj["is_natural"]
    assert obj["failed_expectations"] == ["natural"]


def test_verify_expect_passes_on_m5_screen(capsys):
    rc, out, _ = run(capsys, "verify", M5, "--expect", "magic", "--expect", "fnc")
    assert rc == 0


def test_verify_unknown_expectation(capsys):
    rc, _, err = run(capsys, "verify", M5, "--expect", "shiny")
    assert rc == 2
    assert "unknown property" in err


def test_verify_refuses_an_unknown_property_before_reading(tmp_path, capsys, monkeypatch):
    # a usage error, so exit 2 before the file is read: not "no such file"
    rc, out, err = run(capsys, "verify", str(tmp_path / "missing.txt"), "--expect", "shiny")
    assert (rc, out) == (2, "")
    assert "unknown property 'shiny'" in err and "missing.txt" not in err

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_read_matrix", unread)
    rc, out, err = run(capsys, "verify", M5, "--expect", "magic,shiny")
    assert (rc, out) == (2, "") and "unknown property 'shiny'" in err


def test_verify_recover_params(tmp_path, capsys):
    f = tmp_path / "b.txt"
    f.write_text(lucas(((4, 1, 3), (36, 27, 9))).to_grid())
    rc, out, _ = run(capsys, "verify", str(f), "--recover-params")
    assert rc == 0
    assert json.loads(out)["recovered_params"] == "4,1,3;36,27,9"


def test_verify_recover_params_failure(capsys):
    rc, out, _ = run(capsys, "verify", M5, "--recover-params")
    assert rc == 1
    assert json.loads(out)["failed_expectations"] == ["recover-params"]


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "/no/such/file.txt")
    assert rc == 2
    assert "error:" in err


def test_verify_malformed_grid(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1 2 3\n4 5\n")
    rc, _, err = run(capsys, "verify", str(f))
    assert rc == 2


@pytest.mark.parametrize(
    "name,text",
    [
        ("string.json", '{"order": 3, "rows": [[1, 2, 3], [4, "5", 6], [7, 8, 9]]}'),
        ("float.json", '{"order": 3, "rows": [[1, 2, 3], [4, 5.0, 6], [7, 8, 9]]}'),
        ("rows_int.json", '{"order": 3, "rows": 5}'),
        ("zero_den.txt", "1 2 3\n4 1/0 6\n7 8 9\n"),
        pytest.param(
            "deep.json", '{"rows": ' + "[" * 200_000 + "]" * 200_000 + "}", id="deep.json"
        ),
    ],
)
def test_verify_malformed_input_exits_2(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    proc = _run_module("verify", str(f))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text,mu,frob",
    [
        ("1/2 3\n5 7/3\n", None, "1429/36"),
        ("7/5 0 1\n2/5 4/5 6/5\n3/5 8/5 1/5\n", "12/5", "204/25"),
    ],
)
def test_verify_rational_entries(tmp_path, text, mu, frob):
    f = tmp_path / "rational.txt"
    f.write_text(text)
    proc = _run_module("verify", str(f))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    obj = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert obj["summation_index"] == mu
    assert obj["frobenius_sq"] == frob


def test_round_trip_generate_verify(tmp_path, capsys):
    params = "4,3,-1;36,-9,27;324,81,243"
    f = tmp_path / "c.txt"
    rc, _, _ = run(capsys, "generate", "--params", params, "--out", str(f))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(f), "--recover-params", "--expect", "natural")
    assert rc == 0
    assert json.loads(out)["recovered_params"] == params


def test_spectra_from_params(capsys):
    rc, out, _ = run(capsys, "spectra", "--params", "3,1;27,9", "--family", "frierson")
    assert rc == 0
    blob, markdown = out.split("\n\n", 1)
    obj = json.loads(blob)
    assert obj["mu"] == 360
    assert obj["rank"] == 5
    assert obj["eigenvalues"][1]["exact"] == "6*sqrt(6)"
    assert markdown.startswith("| params |")
    assert "| 4,3,1;36,27,9 | 6*sqrt(6) | 54*sqrt(6) | 12 | 6 | 108 | 54 |" in markdown


@pytest.mark.parametrize("params", ["0,0,0", "1,0,0;-1,0,0"])
def test_spectra_zero_square_is_valid_json(params):
    proc = _run_module("spectra", "--params", params)
    assert proc.returncode == 0
    assert proc.stderr == ""
    obj = json.loads(proc.stdout.split("\n\n", 1)[0], parse_constant=_reject_constant)
    assert obj["svd_residual"] == 0.0
    assert obj["rank"] == 0


def test_spectra_from_matrix_file(tmp_path, capsys):
    f = tmp_path / "a.txt"
    f.write_text(frierson9("A").to_grid())
    rc, out, _ = run(capsys, "spectra", str(f))
    assert rc == 0
    assert json.loads(out.split("\n\n", 1)[0])["mu"] == 360


def test_spectra_non_family_file(capsys):
    rc, _, err = run(capsys, "spectra", M5)
    assert rc == 2
    assert "family parameters" in err


def test_spectra_needs_some_input(capsys):
    rc, _, err = run(capsys, "spectra")
    assert rc == 2


# Whole `spectra` stdout, pinned by sha256 with the two residuals masked: a
# residual is one rounding of an exact zero, every other byte is exact.
_RESIDUAL = re.compile(r'("(?:jcf|svd)_residual": )(-?[0-9][0-9.eE+-]*)')
SPECTRA_STDOUT = [  # params, whether the eigenvector matrix is refused, digest
    ("4,3,1", False, "b6b04038f12ae0aa53062da1dd242a9592a290d7e938ffb18293b845b5bbb92d"),
    # an imaginary pair at level 1
    ("4,1,3;36,27,9", False, "49d5a1cc2b774c0f533d17229c68868fcfd44fd8202ac1f75520cf6cc298836b"),
    # negative mu
    ("-5,3,1;2,-7,4", False, "9f35fa199e6818b614a3ee3fb445c6e051be0d55e4ec86ec07f3a2472afdefc7"),
    ("1,2,-2;3,5,1;-2,4,4", True,
     "2aa4d3227d666c53926c73811f14bdc80874e8adae85dc19286c3efd6a972eac"),
    ("4,3,1;36,27,9;324,243,81;2916,2187,729", False,
     "f73cd5adc990967c08baf1bf7dec4ef1c65680f953dfdd582637dc395b18609c"),
    ("0,0,0", True, "79931572d4320d7aa336d09b8d108f03ecefd622b1c858a51d961731488a2d70"),
    # the natural level-5 square
    ("4,3,1;36,27,9;324,243,81;2916,2187,729;26244,19683,6561", False,
     "ce4592547d98126f16b2de02c606afadac8e77710e15c138dd5f895e0db6f827"),
    # the natural level-6 square
    ("4,3,1;36,27,9;324,243,81;2916,2187,729;26244,19683,6561;236196,177147,59049",
     False, "e60f1306c444e0649b836c443722152f7d14f530cd09b7f5f7bbe93b5e1a857b"),
]


@pytest.mark.parametrize("params,refused,digest", SPECTRA_STDOUT)
def test_spectra_stdout_is_pinned(capsys, params, refused, digest):
    rc, out, err = run(capsys, "spectra", f"--params={params}")
    assert rc == 0 and err == ""
    obj = json.loads(out.split("\n\n", 1)[0])
    assert (obj["jcf_residual"] is None) == refused
    assert obj["svd_residual"] < 1e-12
    assert refused or obj["jcf_residual"] < 1e-12
    assert hashlib.sha256(_RESIDUAL.sub(r"\1R", out).encode()).hexdigest() == digest


def test_enumerate_census(capsys):
    rc, out, _ = run(capsys, "enumerate", "--level", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["mu"] == 9828
    assert obj["lucas_fundamental"] == 5760
    assert obj["sv_classes"] == 15


def test_enumerate_fundamental_listing(capsys):
    rc, out, _ = run(capsys, "enumerate", "--level", "1", "--fundamental")
    assert rc == 0
    assert out == "4,-3,-1\n"
    for level in ("0", "-1"):
        rc, out, err = run(capsys, "enumerate", "--level", level, "--fundamental")
        assert rc == 2 and out == ""
        assert err == "error: level must be >= 1\n"


# Whole `enumerate --level 3 --fundamental` stdout, one representative a line
@pytest.mark.parametrize("family,digest", [
    ("lucas", "a7bfc608eea937ce940a8d22ab3a89b0176175bc6947381e54e74044236eb7e6"),
    ("frierson", "970d9d9b08fe6358c8441f62a813c86986a6afdd38363689ec72a97e6b2d97a8"),
])
def test_enumerate_level3_fundamental_stdout_is_pinned(capsys, family, digest):
    rc, out, err = run(capsys, "enumerate", "--level", "3", "--fundamental", "--family", family)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_count_only(capsys):
    rc, out, _ = run(capsys, "enumerate", "--level", "2", "--fundamental", "--count-only")
    assert rc == 0
    assert out == "48\n"


def test_enumerate_formula_only_beyond_ceiling(capsys):
    rc, out, _ = run(capsys, "enumerate", "--level", "4", "--fundamental")
    assert rc == 0
    assert out == "1290240\n"


def test_enumerate_emit(tmp_path, capsys):
    outdir = tmp_path / "reps"
    rc, out, _ = run(
        capsys, "enumerate", "--level", "2", "--family", "frierson",
        "--fundamental", "--emit", str(outdir),
    )
    assert rc == 0
    params = (outdir / "params.txt").read_text().splitlines()
    assert len(params) == 12
    grids = sorted(outdir.glob("rep_*.txt"))
    assert len(grids) == 12
    first = SquareMatrix.from_grid(grids[0].read_text())
    assert first.n == 9


@pytest.mark.parametrize(
    "argv",
    [
        ("spectra", "{a}", "--params", "4,3,1"),
        ("spectra", "{a}", "--level", "1"),
        ("commute", "--suite", "fier9", "{a}", "{a}"),
        ("commute", "--suite", "fier9", "{missing}"),
        ("enumerate", "--level", "2", "--emit", "{out}"),
        ("enumerate", "--level", "2", "--fundamental", "--count-only", "--emit", "{out}"),
        ("enumerate", "--level", "4", "--fundamental", "--emit", "{out}"),
        ("spectra", "{a}", "--family", "frierson"),
        ("enumerate", "--level", "2", "--count-only"),
        # the census does not depend on the family
        ("enumerate", "--level", "2", "--family", "frierson"),
    ],
    ids=[
        "spectra-file-and-params", "spectra-file-and-level", "commute-suite-and-files",
        "commute-suite-and-missing-file", "emit-without-fundamental", "emit-count-only",
        "emit-past-ceiling", "spectra-file-and-family", "count-only-without-fundamental",
        "family-without-fundamental",
    ],
)
def test_contradictory_arguments_exit_2(tmp_path, capsys, argv):
    a = tmp_path / "a.txt"
    a.write_text(lucas3(4, 3, 1).to_grid())
    paths = {"a": a, "missing": tmp_path / "missing.txt", "out": tmp_path / "out"}
    rc, out, err = run(capsys, *(x.format(**paths) for x in argv))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [a]


@pytest.mark.parametrize(
    "extra,count",
    [
        ((), None),
        (("--fundamental",), lucas_fundamental_formula),
        (("--fundamental", "--family", "frierson", "--count-only"), frierson_fundamental_formula),
    ],
)
def test_enumerate_refuses_unprintable_levels_up_front(extra, count):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python prints integers of any length")

    def printed(level):
        if count is None:
            return list(census(level).to_json().values())
        return [count(level)]

    level = 1
    while max(printed(level + 1)) < 10 ** limit:
        level += 1
    proc = _run_module("enumerate", "--level", str(level), *extra)
    assert proc.returncode == 0 and proc.stderr == ""
    if count is None:
        assert proc.stdout == json.dumps(census(level).to_json(), indent=2) + "\n"
    else:
        assert proc.stdout == f"{count(level)}\n"
    # an estimate may read one digit high, so only limit + 2 digits refuse
    _refuse_unprintable(limit + 1, "one digit over")
    with pytest.raises(ValueError, match=f"of more than {limit} digits"):
        _refuse_unprintable(limit + 2, "two digits over")
    for refused in (level + 1, 100000, 10**6):
        proc = _run_module("enumerate", "--level", str(refused), *extra, timeout=2)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        if refused > level + 1:
            assert proc.stderr == (
                f"error: enumerate --level {refused} would print integers of more "
                f"than {limit} digits, the limit for printing integers\n"
            )


def test_power_matches_exact_multiplication(capsys):
    rc, out, _ = run(capsys, "power", "--params", "4,3,1", "-k", "3")
    assert rc == 0
    m = lucas3(4, 3, 1)
    assert SquareMatrix.from_grid(out) == m @ m @ m


def test_power_level2(capsys):
    rc, out, _ = run(
        capsys, "power", "--family", "frierson", "--params", "3,1;27,9", "-k", "2"
    )
    assert rc == 0
    m = frierson9("A")
    assert SquareMatrix.from_grid(out) == m @ m


def test_power_level3(capsys):
    params = "4,3,-1;36,-9,27;324,81,243"
    rc, out, _ = run(capsys, "power", "--params", params, "-k", "3")
    assert rc == 0
    m = lucas(parse_lucas_params(params))
    assert SquareMatrix.from_grid(out) == m @ m @ m


@pytest.mark.parametrize("cell", ["1e2000000", "1e9999999999"])
def test_verify_refuses_exponent_cells_up_front(tmp_path, cell):
    f = tmp_path / "exp.txt"
    f.write_text(f"1 {cell}\n2 3\n")
    proc = _run_module("verify", str(f), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    limit = sys.get_int_max_str_digits()
    assert proc.stderr == f"error: grid cell '{cell}' has an exponent past {limit} digits\n"


def test_power_refuses_huge_entries_up_front():
    proc = _run_module("power", "--params", "4,3,1", "-k", "100000000", timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


LEVEL7 = "1,3;9,27;81,243;729,2187;6561,19683;59049,177147;531441,1594323"


class _Built(Exception):
    pass


@pytest.fixture
def no_square_built(monkeypatch):
    # a call that reaches construction raises _Built instead of building:
    # every square, power and float M is read from construct._digit_rows
    from lucasmagic import construct, spectra

    def refuse(blocks):
        raise _Built

    monkeypatch.setattr(construct, "_digit_rows", refuse)
    monkeypatch.setattr(spectra, "_digit_rows", refuse)


@pytest.mark.parametrize("command", [("generate",), ("power", "-k", "2"), ("spectra",)])
def test_more_than_seven_levels_are_refused_before_building(capsys, no_square_built, command):
    for family, params in (("frierson", LEVEL7 + ";1,1"), ("lucas", ";".join(["4,3,1"] * 8))):
        rc, out, err = run(capsys, *command, "--family", family, "--params", params)
        assert rc == 2 and out == ""
        assert err == "error: 8 levels given; at most 7 are built\n"
    # level 7 is allowed: it gets as far as construction
    with pytest.raises(_Built):
        main([*command, "--family", "frierson", "--params", LEVEL7])


def test_power_of_vanishing_terms_at_a_huge_exponent():
    proc = _run_module("power", "--params", "0,1,1;0,2,-2", "-k", "1000000000", timeout=5)
    assert proc.returncode == 0
    assert proc.stdout == "0 0 0 0 0 0 0 0 0\n" * 9
    assert proc.stderr == ""


def test_spectra_prime_pair_radicand():
    # 3 * (v - 1) * (v + 1) with both v -+ 1 prime near 1e9: trial division hung here
    proc = _run_module("spectra", "--params", "1,1000000008,1", timeout=10)
    assert proc.returncode == 0
    assert proc.stderr == ""
    obj = json.loads(proc.stdout.split("\n\n", 1)[0])
    evs = [e["exact"] for e in obj["eigenvalues"]]
    assert evs == ["3", "1*sqrt(3000000048000000189)", "-1*sqrt(3000000048000000189)"]


def test_spectra_past_float_range_prints_the_exact_values():
    # no float holds 2**1100: the exact values print with a null approx, and
    # the residuals, which need M in floats, print as null
    big = 2 ** 1100
    proc = _run_module("spectra", f"--params=0,{big},0")
    assert proc.returncode == 0
    assert proc.stderr == ""
    obj = json.loads(proc.stdout.split("\n\n", 1)[0], parse_constant=_reject_constant)
    zero = {"exact": "0", "approx": [0.0, 0.0]}
    lam = f"{big}*sqrt(3)"
    assert obj["eigenvalues"] == [
        zero, {"exact": lam, "approx": None}, {"exact": f"-{lam}", "approx": None}
    ]
    assert obj["singular_values"] == [zero] + [{"exact": lam, "approx": None}] * 2
    assert obj["rank"] == 2
    assert obj["jcf_residual"] is None and obj["svd_residual"] is None


def test_spectra_residuals_of_entries_past_the_square_root_of_float_range():
    # entries near 1e200 have squares past float range; the residuals are
    # still small numbers, not NaN, and nothing is written to stderr
    proc = _run_module("spectra", f"--params=0,{10 ** 200},0")
    assert proc.returncode == 0
    assert proc.stderr == ""
    obj = json.loads(proc.stdout.split("\n\n", 1)[0], parse_constant=_reject_constant)
    assert obj["jcf_residual"] < 1e-12 and obj["svd_residual"] < 1e-12


def test_spectra_near_degenerate_levels_print_no_numpy_warning():
    # v - y = 2 beside entries near 2^1000: the float products overflow, and
    # the report says so with its residuals, not with RuntimeWarnings
    v, y = 2 ** 1000 + 1, 2 ** 1000 - 1
    proc = _run_module("spectra", "--params", ";".join([f"0,{v},{y}"] * 3))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_spectra_splits_each_radicand_once(capsys, monkeypatch):
    # eigenvalues split mu's radicand and |v| - |y|, |v| + |y| per level; the
    # s3 blocks take lambda from the eigenvalues and the printed row reads
    # them from the report, so neither splits again
    calls = []
    split = radical.squarefree_split
    monkeypatch.setattr(radical, "squarefree_split", lambda n: calls.append(n) or split(n))
    rc, out, err = run(capsys, "spectra", "--params=4,3,1;36,27,9;324,243,81;2916,2187,729")
    assert rc == 0 and err == ""
    assert "| 4,3,1;36,27,9;324,243,81;2916,2187,729 | 54*sqrt(6) | 486*sqrt(6) |" in out
    assert len(calls) <= 2 * 4 + 1


@pytest.mark.parametrize(
    "params",
    [
        "1,3;9,27;81,243;729,2187",
        "1,3;9,27;81,243;729,2187;6561,19683;59049,177147",  # the natural level-6 square
    ],
)
def test_spectra_stdout_does_not_depend_on_blas_threads(params):
    # residuals included: the report computes them with no BLAS call
    outs = [
        _run_module("spectra", "--family", "frierson", "--params", params,
                    OPENBLAS_NUM_THREADS=threads)
        for threads in ("1", "2")
    ]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout


@pytest.mark.parametrize(
    "params",
    [
        f"1,{10 ** 41 + 1},1",  # 3 (v^2 - y^2) has a 39-digit part out of rho's reach
        # v^2 - y^2 is the least prime above the Miller-Rabin proven bound
        f"1,{3317044064679887385962124 // 2},{3317044064679887385962122 // 2}",
    ],
)
def test_spectra_out_of_the_factoring_budget_exits_2(params):
    # refused after the budget's million-odd steps, in seconds, not a hang
    proc = _run_module("spectra", "--params", params, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: radicand not factored")
    assert "Traceback" not in proc.stderr


def test_spectra_prints_a_prime_pair_out_of_rhos_reach():
    # v -+ y are the primes 1000000000039 and 1000000000061: rho cannot
    # split their product within the budget, and Miller-Rabin proves each
    # factor prime with no rho at all
    v, y = 1000000000050, 11
    proc = _run_module("spectra", f"--params=1,{v},{y}", timeout=30)
    assert proc.returncode == 0
    assert proc.stderr == ""
    obj = json.loads(proc.stdout.split("\n\n", 1)[0], parse_constant=_reject_constant)
    lam = f"1*sqrt({3 * (v * v - y * y)})"
    assert [r["exact"] for r in obj["eigenvalues"]] == ["3", lam, "-" + lam]
    assert obj["rank"] == 3


def test_spectra_budget_charges_rho_by_the_numbers_size():
    # 3 (10**600 - 1) keeps a part of hundreds of digits after trial
    # division; charged by its size, rho gives up on it within a second
    proc = _run_module("spectra", "--params", f"1,{10 ** 300},1", timeout=2)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: radicand not factored")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--params", "-16,-28,5"),
        ("power", "--params", "-16,-28,5;3,-1,2", "-k", "3"),
        ("spectra", "--params", "-4,-3,1;36,27,-9"),
    ],
)
def test_params_value_may_start_with_a_minus(capsys, argv):
    cmd, _, value, *rest = argv
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert (rc, out, err) == run(capsys, cmd, f"--params={value}", *rest)


ENUMERATION_LAYERS = ("cli", "construct", "enumeration", "exactmat", "verify")


@pytest.mark.parametrize(
    "argv,layers",
    [
        ([], ()),
        (["generate", "--params=4,3,1"], ("cli", "construct", "exactmat")),
        (["verify", "{a}"], ("cli", "construct", "exactmat", "verify")),
        (["commute", "{a}", "{b}"], ("algebra", "cli", "construct", "exactmat", "verify")),
        (["spectra", "--params=4,3,1"],
         ("cli", "construct", "exactmat", "radical", "spectra", "numpy")),
        (["spectra", "{a}"],
         ("cli", "construct", "exactmat", "radical", "spectra", "verify", "numpy")),
        (["enumerate", "--level", "2"], ENUMERATION_LAYERS),
        (["enumerate", "--level", "2", "--fundamental"], ENUMERATION_LAYERS),
        (["power", "--params=4,3,1", "-k", "3"],
         ("cli", "construct", "exactmat", "radical", "spectra")),
        (["inverse", "--params=4,3,1"], ("cli", "construct", "exactmat", "radical", "spectra")),
        (["tables", "--which", "1"], ("cli", "construct", "exactmat", "radical", "spectra")),
        (["tables", "--which", "2"], ENUMERATION_LAYERS),
    ],
    ids=["import", "generate", "verify", "commute", "spectra", "spectra-file", "enumerate",
         "enumerate-fundamental", "power",
         "inverse", "tables-1", "tables-2"],
)
def test_command_loads_only_its_layers(tmp_path, argv, layers):
    # `import lucasmagic` loads no submodule, and each command only the
    # layers it uses: no radical, spectra or numpy outside their commands
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(lucas3(4, 3, 1).to_grid())
    b.write_text(lucas3(4, -3, 1).to_grid())
    code = (
        "import json, sys\n"
        "import lucasmagic\n"
        "if sys.argv[1:]:\n"
        "    import lucasmagic.cli\n"
        "    lucasmagic.cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith('lucasmagic.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lucasmagic.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *(x.format(a=a, b=b) for x in argv)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == [name if name == "numpy" else f"lucasmagic.{name}" for name in layers]


def test_inverse(capsys):
    rc, out, _ = run(capsys, "inverse", "--params", "4,3,1")
    assert rc == 0
    assert SquareMatrix.from_grid(out) == lucas3_inverse(4, 3, 1)
    assert "/" in out  # fractions survive the grid format


def test_inverse_singular(capsys):
    rc, _, err = run(capsys, "inverse", "--params", "0,3,1")
    assert rc == 2
    assert "singular" in err


def test_inverse_rejects_higher_levels(capsys):
    rc, _, err = run(capsys, "inverse", "--params", "4,3,1;36,27,9")
    assert rc == 2


def test_commute_two_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(lucas(((4, 1, 3), (36, 27, 9))).to_grid())
    b.write_text(lucas(((12, 9, 27), (4, 3, 1))).to_grid())
    rc, out, _ = run(capsys, "commute", str(a), str(b))
    assert rc == 0
    obj = json.loads(out)
    assert obj["observed"] is True
    assert obj["predicted"] is True
    assert obj["consistent"] is True


def test_commute_order_243_files(tmp_path):
    base = ((4, 1, 3), (36, 9, 27), (324, 81, 243), (2916, 729, 2187), (4, 3, 1))
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path, params in zip((a, b), build_commuting_lucas_pair(5, base)):
        path.write_text(lucas(params).to_grid())
    proc = _run_module("commute", str(a), str(b), timeout=30)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["observed"] is True
    assert obj["predicted"] is True and obj["consistent"] is True


def test_commute_non_commuting(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(lucas3(4, 3, 1).to_grid())
    b.write_text(lucas3(4, 1, 3).to_grid())
    rc, out, _ = run(capsys, "commute", str(a), str(b))
    assert rc == 0
    assert json.loads(out)["observed"] is False


def test_commute_needs_two_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text(lucas3(4, 3, 1).to_grid())
    rc, _, err = run(capsys, "commute", str(a))
    assert rc == 2


def test_commute_refuses_mixed_orders(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(lucas3(4, 3, 1).to_grid())
    b.write_text(lucas(((4, 1, 3), (36, 27, 9))).to_grid())
    rc, out, err = run(capsys, "commute", str(a), str(b))
    assert rc == 2
    assert out == ""
    assert "order mismatch: 3 vs 9" in err


def test_commute_suite(capsys):
    rc, out, _ = run(capsys, "commute", "--suite", "fier9")
    assert rc == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert len(obj["commuting_pairs"]) == 8
    assert ["A", "D"] in obj["commuting_pairs"]


def test_tables_1(capsys):
    rc, out, _ = run(capsys, "tables", "--which", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 8  # header + rule + six rows
    assert "| A, G | 6*sqrt(6) | 54*sqrt(6) | 12 | 6 | 108 | 54 |" in lines
    assert "| F, L | 36*sqrt(15) | 12*sqrt(15) | 90 | 72 | 30 | 24 |" in lines


def test_tables_2(capsys):
    rc, out, _ = run(capsys, "tables", "--which", "2")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert "| 1 | 3 | 12 | 1 | 1 | 3 | 1 |" in lines
    assert "| 6 | 729 | 193,709,880 | 245,248,819,200 | 239,500,800 | 13 | 10,395 |" in lines


@pytest.mark.parametrize("which,digest", [
    ("1", "94f1e4c7f1f44f536190ac6736d722026d274a48c883f12ad6d8719462c28dd9"),
    ("2", "919bbc704e44e7fdb3ca7ccf1522eb6cf0977e41507e551b6475cd0cae0ec2a0"),
])
def test_tables_stdout_is_pinned(capsys, which, digest):
    rc, out, _ = run(capsys, "tables", "--which", which)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tables_are_deterministic(capsys):
    rc1, out1, _ = run(capsys, "tables", "--which", "2")
    rc2, out2, _ = run(capsys, "tables", "--which", "2")
    assert out1 == out2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["generate"])  # --params is required
    assert e.value.code == 2
    with pytest.raises(SystemExit):
        main(["tables"])  # --which is required
    with pytest.raises(SystemExit):
        main([])  # a command is required


def test_parser_builds():
    parser = build_parser()
    assert parser.prog == "lucasmagic"
