"""Grammar round trips, parser errors, CLI dispatch, and report schemas."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mathieulab
from conftest import random_polynomial
from mathieulab import cli, imagemap
from mathieulab.cli import main
from mathieulab.parsing import ParseError, parse_polynomial
from mathieulab.poly import Polynomial, VariableSet
from mathieulab.rings import GF, QI, QQ

WZ = VariableSet(("w1", "z1"))
T_VARS = VariableSet(("t",), laurent=frozenset(("t",)))


@pytest.fixture(scope="module")
def schema():
    path = resources.files("mathieulab").joinpath("schemas/report.schema.json")
    return json.loads(path.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- grammar -----------------------------------------------------------

def test_parse_examples():
    f = parse_polynomial("w1^2*z1 - 1", QQ, WZ)
    expected = (Polynomial.var(QQ, WZ, "w1", 2) * Polynomial.var(QQ, WZ, "z1")
                - Polynomial.one(QQ, WZ))
    assert f == expected

    lau = parse_polynomial("t^-1 + t", QQ, T_VARS)
    assert lau == Polynomial.var(QQ, T_VARS, "t", -1) + Polynomial.var(QQ, T_VARS, "t")

    g = parse_polynomial("3/2*w1^2*z1 - z1", QQ, WZ)
    assert g.to_str() == "3/2*w1^2*z1 - z1"


def test_parse_parentheses_and_precedence():
    f = parse_polynomial("(w1 + 1)*(w1 - 1)", QQ, VariableSet(("w1",)))
    w = Polynomial.var(QQ, VariableSet(("w1",)), "w1")
    assert f == w * w - Polynomial.one(QQ, VariableSet(("w1",)))
    g = parse_polynomial("2*w1^3", QQ, VariableSet(("w1",)))
    assert g == w.__pow__(3).scale(2)


def test_parse_imaginary_unit():
    f = parse_polynomial("i*z1 + 1/2", QI, WZ)
    assert f.coefficient_of({"z1": 1}) == QI.imaginary_unit()
    with pytest.raises(ParseError):
        parse_polynomial("i", QQ, WZ)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("w1 + ^2", QQ, WZ)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_polynomial("1/0", QQ, WZ)
    with pytest.raises(ParseError):
        parse_polynomial("w1 + 1/3", GF(3), WZ)  # 3 is zero in F_3
    with pytest.raises(ParseError):
        parse_polynomial("q7", QQ, WZ)
    with pytest.raises(ParseError):
        parse_polynomial("", QQ, WZ)
    with pytest.raises(ParseError):
        parse_polynomial("w1^-1", QQ, WZ)  # not a Laurent variable
    with pytest.raises(ParseError):
        parse_polynomial("w1 w1", QQ, WZ)  # implicit multiplication


def test_print_parse_round_trip_500():
    rng = random.Random(99)
    cases = [(QQ, WZ), (QI, WZ), (GF(7), WZ), (QQ, T_VARS)]
    per_ring = 125
    for ring, variables in cases:
        for _ in range(per_ring):
            f = random_polynomial(rng, ring, variables, max_degree=4,
                                  max_terms=5, min_exponent=-3)
            assert parse_polynomial(f.to_str(), ring, variables) == f


# -- CLI ---------------------------------------------------------------

def _validate(schema, out):
    report = json.loads(out)
    jsonschema.validate(report, schema)
    return report


def test_cli_certify_member(capsys, schema):
    code, out, _ = run_cli(capsys, "certify", "1 - w1*z1", "--n", "1")
    assert code == 0
    report = _validate(schema, out)
    assert report["status"] == "member"
    assert report["witness"] == ["z1"]


def test_cli_certify_nonmember(capsys, schema):
    code, out, _ = run_cli(capsys, "certify", "w1*z1", "--n", "1")
    assert code == 0
    report = _validate(schema, out)
    assert report["status"] == "nonmember" and report["residue"] == "1"


def test_cli_lmap_decompose_powerscan(capsys, schema):
    code, out, _ = run_cli(capsys, "lmap", "w1^2*z1^5", "--n", "1")
    assert code == 0
    assert _validate(schema, out)["results"][0]["result"] == "20*z1^3"

    code, out, _ = run_cli(capsys, "decompose", "w1*z1", "--n", "1")
    assert code == 0
    report = _validate(schema, out)
    assert report["components"]["0"] == "1"

    code, out, _ = run_cli(capsys, "powerscan", "w1*z1", "--n", "1",
                           "--mmax", "4")
    assert code == 0
    assert _validate(schema, out)["values"] == ["1", "2", "6", "24"]


def test_cli_scan_oracles(capsys, schema):
    code, out, _ = run_cli(capsys, "scan", "t^-1 + t^3", "t",
                           "--oracle", "laurent", "--mmax", "6")
    assert code == 0
    report = _validate(schema, out)
    assert report["verdict"] == "premise_failed"

    code, out, _ = run_cli(capsys, "scan", "w1^2*z1", "z1",
                           "--oracle", "kerl", "--n", "1", "--mmax", "5")
    assert code == 0
    _validate(schema, out)

    code, out, _ = run_cli(capsys, "scan", "[0,1;0,0]", "[1,0;0,0]",
                           "--oracle", "trace", "--mmax", "4")
    assert code == 0
    _validate(schema, out)

    code, out, _ = run_cli(capsys, "scan", "x - 1/2", "x",
                           "--oracle", "moment:uniform01", "--mmax", "4")
    assert code == 0
    _validate(schema, out)


def test_cli_gvc_and_jacobian(capsys, schema):
    code, out, _ = run_cli(capsys, "gvc", "d1^2", "z1", "z1^3",
                           "--n", "1", "--mmax", "5")
    assert code == 0
    report = _validate(schema, out)
    assert report["premise_held_through"] == 5

    code, out, _ = run_cli(capsys, "jacobian", "z2^2", "0", "--n", "2")
    assert code == 0
    assert _validate(schema, out)["nilpotent"] is True


def test_cli_ortho_and_moments(capsys, schema):
    code, out, _ = run_cli(capsys, "ortho", "--family", "laguerre",
                           "--alpha", "0", "--dmax", "4")
    assert code == 0
    report = _validate(schema, out)
    assert report["routes_agree"]
    assert report["polynomials"][1]["polynomial"] == "-x + 1"

    code, out, _ = run_cli(capsys, "moments", "--family", "hermite",
                           "--nmax", "6")
    assert code == 0
    _validate(schema, out)

    code, out, _ = run_cli(capsys, "moments", "--family", "uniform01",
                           "--nmax", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,numerator,denominator"
    assert lines[2] == "1,1,2"


def test_cli_charp_modes(capsys, schema):
    code, out, _ = run_cli(capsys, "charp", "willems", "--p", "2",
                           "--kmax", "3")
    assert code == 0
    report = _validate(schema, out)
    assert report["violations"] == [1, 3, 7]

    code, out, _ = run_cli(capsys, "charp", "example12", "--p", "3")
    assert code == 0
    assert _validate(schema, out)["refuted"]

    code, out, _ = run_cli(capsys, "charp", "theorem51",
                           "w1*z1 + w2*z2^2", "z1", "--p", "2", "--n", "2")
    assert code == 0
    assert _validate(schema, out)["products_in_J"]

    code, out, _ = run_cli(capsys, "charp", "crucial",
                           "2 - w1*z1 - w2*z2", "z1", "z2", "--p", "3")
    assert code == 0
    assert _validate(schema, out)["verified"]


def test_cli_lemma81_and_conj73(capsys, schema):
    code, out, _ = run_cli(capsys, "lemma81", "u - 1")
    assert code == 0
    report = _validate(schema, out)
    assert report["status"] == "certified" and report["prime"] == 2

    code, out, _ = run_cli(capsys, "conj73", "w1*z1 - 1", "--mmax", "6")
    assert code == 0
    report = _validate(schema, out)
    assert report["branch"] == "shifted_to_diagonal"


def test_cli_usage_errors(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    cases = [
        ("lmap", "nope^^", "--n", "1"),
        ("certify", "1 - w1*z1", "--ring", "fp", "--p", "5"),  # needs characteristic 0
        ("lmap", "w1*z1", "--ring", "fp"),  # fp without --p
        ("lmap", "w1*z1", "--p", "5"),  # --p without --ring fp
        ("lmap",),  # no inputs
        ("certify", "1 - w1*z1", "--format", "csv"),  # csv only for tables
        # an empty scan is a usage error, never a verdict or a traceback
        ("gvc", "--n", "2", "--mmax", "-5", "d1^2", "z1", "1"),
        ("powerscan", "--mmax", "0", "w1*z1"),
        # numeric flags out of range, checked by their argparse type
        ("lmap", "w1*z1", "--n", "0"),
        ("lmap", "w1*z1", "--ring", "fp", "--p", "4"),
        ("lmap", "w1*z1", "--ring", "fp", "--p", "1"),
        ("charp", "willems", "--p", "4"),
        ("charp", "willems", "--p", "2", "--kmax", "0"),
        ("charp", "example12", "--p", "3", "--bound", "0"),
        ("charp", "example12"),  # every charp mode needs --p
        ("charp", "--p", "2", "willems"),  # the mode comes before its flags
        ("moments", "--family", "hermite", "--nmax", "-1"),
        ("ortho", "--family", "hermite", "--dmax", "-1"),
        ("ortho", "--family", "uniform01"),  # no Rodrigues route
        ("lemma81", "u - 1", "--primes", "2,x"),
        # flags a subcommand does not read are refused, not ignored
        ("lemma81", "u - 1", "--ring", "qi"),
        ("ortho", "--family", "hermite", "--ring", "fp", "--p", "7"),
        ("conj73", "w1*z1 - 1", "--n", "2"),
        ("moments", "--family", "hermite", "--n", "2"),  # no abbreviation of --nmax
        # inputs argparse cannot check
        ("lmap", "--file", missing),
        ("lmap", "--file", str(tmp_path)),
        ("certify", "1 - w1*z1", "w1*z1", "--n", "1"),
        ("lemma81", "u - 1", "u"),
        # values that do not exist in F_p
        ("lmap", "1/3*w1", "--ring", "fp", "--p", "3"),
        ("scan", "x - 1", "x", "--oracle", "moment:uniform01", "--ring", "fp", "--p", "3"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("usage error:"), (argv, err)
        assert out == "" and "Traceback" not in err, argv


def _leaf_commands(table=cli._COMMANDS, path=()):
    """(argv prefix, flag keys) for every subcommand and charp mode."""
    for name, entry in table.items():
        if isinstance(entry, dict):
            yield from _leaf_commands(entry, path + (name,))
        else:
            yield path + (name,), entry[1]


def _subparser(parser, path):
    for name in path:
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


class _ReadLog(argparse.Namespace):
    """A namespace that records which attributes are read."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# command lines that between them take every branch that reads a flag
_READ_SAMPLES = [
    ("lmap", "w1*z1", "--ring", "fp", "--p", "3"),
    ("decompose", "w1*z1"),
    ("certify", "1 - w1*z1"),
    ("powerscan", "w1*z1", "--mmax", "3"),
    ("scan", "x", "--oracle", "moment:jacobi", "--mmax", "2"),
    ("scan", "w1*z1", "--oracle", "kerl", "--mmax", "2"),
    ("gvc", "d1^2", "z1", "z1^3", "--mmax", "2"),
    ("jacobian", "z1"),
    ("ortho", "--family", "jacobi", "--dmax", "2"),
    ("moments", "--family", "jacobi", "--nmax", "2"),
    ("charp", "theorem51", "w1*z1", "z1", "--p", "2"),
    ("charp", "willems", "--p", "2", "--kmax", "1"),
    ("charp", "example12", "--p", "3"),
    ("charp", "crucial", "2 - w1*z1 - w2*z2", "z1", "z2", "--p", "3"),
    ("lemma81", "u - 1"),
    ("conj73", "w1*z1 - 1", "--mmax", "3"),
]


def test_cli_table_accepts_exactly_the_flags_read(capsys):
    """Walk the parser: each subcommand's flags are the ones its handler reads."""
    parser = cli.build_parser()
    reads = {}
    for argv in _READ_SAMPLES:
        args = parser.parse_args(list(argv), namespace=_ReadLog())
        handler = args.handler
        args._reads.clear()
        handler(args)
        path = argv[:2] if argv[0] == "charp" else argv[:1]
        reads.setdefault(path, set()).update(args._reads)
    capsys.readouterr()
    for path, flags in _leaf_commands():
        sub = _subparser(parser, path)
        accepted = {a.dest for a in sub._actions if a.dest != "help"}
        assert accepted == {cli._FLAGS[f][0].lstrip("-") for f in flags}, path
        # main() reads --format to emit the report
        assert accepted == reads[path] | {"format"}, path


_FUZZ_EXPRESSIONS = ("w1*z1", "1 - w1*z1", "w1^2*z1 + z1", "z1", "w2*z2 - 1", "0",
                     "2 - w1*z1 - w2*z2", "1/3*w1", "t^-1 + t", "x - 1/2", "u - 1",
                     "i*z1", "d1^2", "[0,1;0,0]", "[1/2]", "nope^^", "")


def _fuzz_value(option, spec, files):
    if option == "inputs":
        return st.lists(st.sampled_from(_FUZZ_EXPRESSIONS), max_size=3)
    if option == "--file":
        return st.sampled_from(files).map(lambda path: [option, path])
    if "choices" in spec:
        values = st.sampled_from(spec["choices"])
    elif spec.get("type") is cli._prime:
        values = st.sampled_from((2, 3, 5))
    elif option == "--primes":
        values = st.lists(st.integers(-2, 5), min_size=1, max_size=3).map(
            lambda ps: ",".join(map(str, ps)))
    else:
        values = st.integers(-2, 5)
    return values.map(lambda v: [option, str(v)])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    good = root / "inputs.txt"
    good.write_text("w1*z1\nz1\n")
    return (str(good), str(root / "missing.txt"), str(root))


_LEAVES = list(_leaf_commands())


@pytest.mark.parametrize("path, flags", _LEAVES, ids=[".".join(p) for p, _ in _LEAVES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_fuzz_never_raises(fuzz_files, path, flags, data):
    """Random argv from the table: exit 0, 1 or 2, and a usage error says so."""
    groups = []
    for flag in flags:
        option, spec = cli._FLAGS[flag]
        groups.append(data.draw(st.none() | _fuzz_value(option, spec, fuzz_files)))
    argv = list(path) + [a for g in data.draw(st.permutations(groups)) if g for a in g]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().startswith("usage error:") and out.getvalue() == "", argv


def test_verification_failure_exits_2_under_optimize():
    """Under python -O a broken t-operator still raises VerificationError, and
    the CLI exits 2."""
    script = textwrap.dedent("""
        import sys
        from mathieulab import cli, imagemap
        from mathieulab.poly import VerificationError
        from mathieulab.rings import QQ
        if sys.flags.optimize != 1:
            sys.exit(3)

        def shift_only(problem, i, h):  # t_i without its derivative term
            for exps, c in h.terms.items():
                yield exps[:i - 1] + (exps[i - 1] + 1,) + exps[i:], c

        imagemap._t_terms = shift_only
        problem = imagemap.ImageProblem(1, QQ)
        f = problem.one() - problem.zeta(1) * problem.z(1)
        try:
            imagemap.certify_imD(problem, f)
        except VerificationError:
            print("raised")
        sys.exit(cli.main(["certify", "1 - w1*z1"]))
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.splitlines()[0] == "raised"
    assert proc.stderr.startswith("verification failure:")


def _subprocess_env() -> dict:
    """The environment with this checkout's mathieulab first on PYTHONPATH."""
    src = str(Path(mathieulab.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_stdout_closed_early_exits_141_quietly():
    """A reader that closes stdout before the report arrives gets no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "mathieulab.cli", "powerscan", "w1*z1", "--n", "1",
         "--mmax", "5"], env=_subprocess_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, err
    assert err == b""


def test_cli_exit_2_only_for_verification_errors(monkeypatch):
    def broken(problem, f):
        raise AssertionError("a bug, not a verification failure")
    monkeypatch.setattr(imagemap, "certify_imD", broken)
    with pytest.raises(AssertionError):
        main(["certify", "1 - w1*z1"])


def test_cli_text_format(capsys):
    code, out, _ = run_cli(capsys, "certify", "1 - w1*z1", "--format", "text")
    assert code == 0
    assert "status: member" in out


def test_cli_file_input(capsys, schema, tmp_path):
    path = tmp_path / "inputs.txt"
    path.write_text("w1*z1\nw1^2*z1^2\n")
    code, out, _ = run_cli(capsys, "lmap", "--n", "1", "--file", str(path))
    assert code == 0
    assert len(_validate(schema, out)["results"]) == 2
