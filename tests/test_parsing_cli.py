"""Grammar round trips, parser errors, CLI dispatch, and report schemas.

Parser tests build the parser the way `main` does, from the argv it runs, so
they check the flags a call really gets.  The one `python -O` run of the
suite is here; `test_verification_sites.py` makes every other check fail in
this process.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from importlib import resources
from pathlib import Path

import hypothesis
import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mathieulab
from conftest import random_polynomial
from mathieulab import cli, harness, imagemap
from mathieulab.cli import main
from mathieulab.parsing import ParseError, parse_polynomial
from mathieulab.poly import Polynomial, VariableSet
from mathieulab.rings import GF, QI, QQ, GaussianRational

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
    assert f.terms[(0, 1)] == QI.imaginary_unit()
    with pytest.raises(ParseError):
        parse_polynomial("i", QQ, WZ)


def test_parse_errors_carry_position():
    cases = [
        ("w1 + ^2", QQ, WZ, 5, "expected a value, found '^'"),
        # unexpected character after whitespace
        ("w1 + ?", QQ, WZ, 5, "unexpected character '?'"),
        # zero denominator: at the denominator
        ("w1 + 1/0", QQ, WZ, 7, "zero denominator"),
        # 3 is zero in F_3: at the numerator
        ("w1 + 1/3", GF(3), WZ, 5, "denominator is zero in the ring"),
        ("w1 + q7", QQ, WZ, 5, "unknown variable 'q7'"),
        # imaginary unit outside Q(i)
        ("z1 - i", QQ, WZ, 5, "imaginary unit needs the Gaussian coefficient ring"),
        # missing integer after '^' and after '^-'
        ("w1^", QQ, WZ, 3, "expected 'int', found 'end of input'"),
        ("w1^-", QQ, WZ, 4, "expected 'int', found 'end of input'"),
        # not a Laurent variable: at the base
        ("z1 + w1^-1", QQ, WZ, 5, "negative exponents need a Laurent variable base"),
        # not a bare Laurent variable
        ("1 + (2*t)^-1", QQ, T_VARS, 4, "negative exponents need a Laurent variable base"),
        # implicit multiplication is trailing input
        ("w1 w1", QQ, WZ, 3, "trailing input 'w1'"),
        # unclosed '(': at the end
        ("(w1 + 1", QQ, WZ, 7, "expected ')', found 'end of input'"),
        ("", QQ, WZ, 0, "empty input"),
        ("  \t", QQ, WZ, 0, "empty input"),
    ]
    for text, ring, variables, position, message in cases:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ring, variables)
        assert err.value.position == position, (text, str(err.value))
        assert str(err.value) == f"{message} (at position {position})", text


def test_nesting_past_the_recursion_limit_is_a_parse_error(capsys):
    """Each '(' level takes two frames, so a group nested as deep as the
    recursion limit is a ParseError at the first '(', and a usage error in the
    CLI, not a RecursionError; a shallower group parses as without parentheses."""
    depth = sys.getrecursionlimit()
    with pytest.raises(ParseError) as err:
        parse_polynomial("w1 + 2*" + "(" * depth + "z1" + ")" * depth, QQ, WZ)
    assert str(err.value) == "parentheses nested too deeply (at position 7)"
    assert (parse_polynomial("w1 + 2*" + "(" * 100 + "z1" + ")" * 100, QQ, WZ)
            == parse_polynomial("w1 + 2*z1", QQ, WZ))
    code, out, err = run_cli(capsys, "lmap", "(" * 600 + "w1" + ")" * 600, "--n", "1")
    assert (code, out, err) == (1, "", "usage error: parentheses nested too deeply "
                                       "(at position 0)\n")


def test_non_ascii_digits_and_spaces_are_rejected(capsys):
    """Integer literals and separators are ASCII: a Unicode digit or space is no token."""
    cases = [
        ("٣*w1 + ١/٢", 0, "'٣'"),  # Arabic-Indic 3*w1 + 1/2
        ("w1 + ١/٢", 5, "'١'"),
        ("w1^٢", 3, "'٢'"),
        ("z1 - \uff17", 5, "'\uff17'"),  # fullwidth 7
        ("w1\u00a0+ z1", 2, r"'\xa0'"),  # no-break space
        ("w1 +\u2003z1", 4, r"'\u2003'"),  # em space
    ]
    for text, position, quoted in cases:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, QQ, WZ)
        assert err.value.position == position, (text, str(err.value))
        assert str(err.value) == f"unexpected character {quoted} (at position {position})", text
    code, out, err = run_cli(capsys, "lmap", "٣*w1 + ١/٢", "--n", "1")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "(at position 0)" in err


def test_parse_term_forms_match_polynomial_arithmetic(monkeypatch):
    """Term forms that to_str never prints, against hand-built arithmetic."""
    def var(ring, variables, name, exp=1):
        return Polynomial.var(ring, variables, name, exp)

    w1, z1 = var(QQ, WZ, "w1"), var(QQ, WZ, "z1")
    one = Polynomial.one(QQ, WZ)
    cases = [
        ("2^3*w1", QQ, WZ, w1.scale(8)),
        ("(1/2)^2*z1", QQ, WZ, z1.scale(Fraction(1, 4))),
        ("i^3*z1", QI, WZ, var(QI, WZ, "z1").scale(-QI.imaginary_unit())),
        ("w1*w1^2*z1", QQ, WZ, w1 * w1 * w1 * z1),
        ("t^-1*t", QQ, T_VARS, Polynomial.one(QQ, T_VARS)),
        ("(t)^-1", QQ, T_VARS, var(QQ, T_VARS, "t", -1)),
        ("(w1 + 1)^0", QQ, WZ, one),
        ("-(w1 - z1)*2", QQ, WZ, (z1 - w1).scale(2)),
        ("7*w1", GF(7), WZ, Polynomial.zero(GF(7), WZ)),
    ]
    for text, ring, variables, expected in cases:
        assert parse_polynomial(text, ring, variables) == expected, text

    # A group raised to -k must be one bare Laurent variable, not any
    # monomial whose exponents happen to sum to 1.
    two_laurent = VariableSet(("t", "u", "s"), laurent=frozenset(("t", "s")))
    for text in ("(t*u*s^-1)^-1", "(t^2*s^-1)^-1"):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, QQ, two_laurent)
        assert err.value.position == 0, text

    wzz = VariableSet(("w1", "z1", "z2"))
    expected = (var(QQ, wzz, "w1", 2) * var(QQ, wzz, "z1") * var(QQ, wzz, "z2", 3)
                ).scale(Fraction(-3, 4)) + var(QQ, wzz, "z1") - Polynomial.one(QQ, wzz)
    built = []
    init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    assert parse_polynomial("-3/4*w1^2*z1*z2^3 + z1 - 1", QQ, wzz) == expected
    assert len(built) == 1


_PARSE_ALPHABET = ("w1", "z1", "t", "i", "0", "1", "2", "7", "+", "-", "*", "/",
                   "^", "(", ")", " ", "?", "é", "\t", "٣")


@settings(max_examples=400, deadline=None)
@given(tokens=st.lists(st.sampled_from(_PARSE_ALPHABET), max_size=16),
       case=st.sampled_from([(QQ, WZ), (QI, WZ), (GF(7), WZ), (QQ, T_VARS)]))
def test_parse_random_strings_error_or_round_trip(tokens, case):
    """Any string either raises ParseError inside the text or round-trips."""
    text = "".join(tokens)
    ring, variables = case
    # Adjacent digit tokens form one integer; keep exponents small.
    hypothesis.assume(not re.search(r"\^-?\d\d", text))
    try:
        f = parse_polynomial(text, ring, variables)
    except ParseError as err:
        assert 0 <= err.position <= len(text), text
        return
    assert parse_polynomial(f.to_str(), ring, variables) == f, text


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


def _open_objects(node, path):
    """The path of every object schema under `node` that admits unlisted fields."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _open_objects(item, f"{path}[{i}]")
    elif isinstance(node, dict):
        if ("properties" in node or node.get("type") == "object") and node.get(
                "additionalProperties") is not False:
            yield path
        for key, value in node.items():
            yield from _open_objects(value, f"{path}.{key}")


def test_every_schema_branch_is_closed(schema):
    """Each command's branch lists its fields, nested objects included: a
    report with any other field fails."""
    open_objects = [path for i, branch in enumerate(schema["oneOf"])
                    for path in _open_objects(branch, f"oneOf[{i}]")]
    assert open_objects == []


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


def test_moment_scan_makes_moments_on_demand(monkeypatch, capsys):
    """A Hermite scan whose premise fails at m = 2 makes the same moments,
    mu_0..mu_2, at --mmax 4000 as at --mmax 2: none before a term reads it."""
    functionals, honest = [], harness.moment_oracle
    monkeypatch.setattr(harness, "moment_oracle", lambda m: functionals.append(m) or honest(m))
    runs = []
    for m_max in ("2", "4000"):
        code, out, _ = run_cli(capsys, "scan", "--oracle", "moment:hermite", "x", "x^2",
                               "--mmax", m_max)
        made = functionals[-1]._values
        runs.append((code, json.loads(out)["premise_held_through"], len(made)))
    assert runs[0] == runs[1] == (0, 1, 3)


# Bounded misses that are no violations: each scan ends `unknown` at m_max, and
# one more power settles it.  Laurent: g f^m = t^(m-4) is constant-free from
# m = 5.  Moments: over Q and Q(i) these f are real, so f^2 has a positive
# moment.  Kernel: L(f^2) = 1, and L(f^3) = -10 - 4i over Q(i).
_BOUNDED_MISSES = [(args + ring, m_max, settled) for args, m_max, settled in [
    (("laurent", "t", "t^-1", "t^-4"), 4, "consistent"),
    (("moment:hermite", "x", "x^2", "x^3"), 1, "premise_failed"),
    (("moment:laguerre", "x - 2", "x", "--alpha", "1"), 1, "premise_failed"),
    (("moment:jacobi", "5*x - 1", "x^2", "--alpha", "1", "--beta", "2"), 1, "premise_failed"),
    (("moment:uniform01", "x - 1/2", "x"), 1, "premise_failed"),
] for ring in (("--ring", "q"), ("--ring", "qi"), ("--ring", "fp", "--p", "11"))] + [
    (("kerl", "w1*z1 - 1", "z1"), 1, "premise_failed"),
    (("kerl", "1/2*i*w1^2*z1^2 + (1-2*i)*w1*z1 - 1 + i", "z1", "--ring", "qi"), 2,
     "premise_failed"),
]


@pytest.mark.parametrize("args, m_max, settled", _BOUNDED_MISSES)
def test_a_bounded_miss_is_unknown(capsys, schema, args, m_max, settled):
    oracle, *rest = args
    verdicts = []
    for mmax in (m_max, m_max + 1):
        code, out, _ = run_cli(capsys, "scan", "--oracle", oracle, *rest, "--mmax", str(mmax))
        assert code == 0
        verdicts.append(_validate(schema, out)["verdict"])
    assert verdicts == ["unknown", settled]


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
    assert _validate(schema, out)["products_in_image"]

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


def _reparsed(text, ring):
    return parse_polynomial(text, ring, VariableSet(())).constant_coefficient()


def test_cli_prints_ring_literals(capsys, schema):
    """Q(i) and F_p coefficients print as ring literals that re-parse to their value."""
    code, out, _ = run_cli(capsys, "conj73", "i*w1*z1 - 1/2", "--ring", "qi")
    assert code == 0
    values = _validate(schema, out)["count_scan"]["values"]
    assert values == ["-1/2+i"]
    assert _reparsed(values[0], QI) == GaussianRational(Fraction(-1, 2), Fraction(1))

    cases = [(GF(5), ("--ring", "fp", "--p", "5"), "[0,2;0,0]", "[1,0;0,0]",
              "[0, 2; 0, 0]", "[1, 0; 0, 0]"),
             (QI, ("--ring", "qi"), "[0,1/2-3*i;0,0]", "[i,0;0,-7/3*i]",
              "[0, 1/2-3*i; 0, 0]", "[i, 0; 0, -7/3*i]")]
    for ring, flags, f, g, f_printed, g_printed in cases:
        code, out, _ = run_cli(capsys, "scan", "--oracle", "trace", *flags,
                               f, g, "--mmax", "3")
        assert code == 0
        report = _validate(schema, out)
        assert (report["f"], report["g_results"][0]["g"]) == (f_printed, g_printed)
        for typed, printed in ((f, f_printed), (g, g_printed)):
            for entry, shown in zip(typed[1:-1].replace(";", ",").split(","),
                                    printed[1:-1].replace(";", ",").split(", ")):
                assert _reparsed(shown, ring) == _reparsed(entry, ring)


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
        # at the primality test's bound, and a strong pseudoprime to 2..37 below it
        ("lmap", "1/1287836182261*w1*z1", "--ring", "fp", "--p", "3317044064679887385961981"),
        ("lmap", "w1*z1", "--ring", "fp", "--p", "318665857834031151167461"),
        ("lemma81", "u - 1", "--primes", "4,3317044064679887385961981"),
        ("charp", "willems", "--p", "4"),
        ("charp", "willems", "--p", "2", "--kmax", "0"),
        ("charp", "example12", "--p", "3", "--bound", "0"),
        ("charp", "example12", "--p", "3", "--bound", "2"),  # z^3 lies past the bound
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
        # mu_2 = 1/3, read at m = 1 (x - 1 fails its premise before any scan reads mu_2)
        ("scan", "x^2", "x", "--oracle", "moment:uniform01", "--ring", "fp", "--p", "3"),
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
    """In the parser `main` builds for it, each subcommand's flags are the ones
    its handler reads."""
    reads = {}
    for argv in _READ_SAMPLES:
        args = cli.build_parser(list(argv)).parse_args(list(argv), namespace=_ReadLog())
        handler = args.handler
        args._reads.clear()
        handler(args)
        path = argv[:2] if argv[0] == "charp" else argv[:1]
        reads.setdefault(path, set()).update(args._reads)
    capsys.readouterr()
    for path, flags in _leaf_commands():
        sub = _subparser(cli.build_parser(list(path)), path)
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

        def shift_only(n, i, h):  # t_i without its derivative term
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


def test_theorem51_at_p_101_finishes():
    """f^(p^2) has p^2 = 10201 here; the run must end well inside the timeout."""
    proc = subprocess.run([sys.executable, "-m", "mathieulab.cli", "charp", "theorem51",
                           "--p", "101", "--n", "1", "w1 + w1*z1", "z1"],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "premise_holds": True, "f_power_coefficients_in_J": True,
        "sampled_m": [10201, 10202, 10203], "products_in_J": True,
        "products_in_image": True, "command": "charp.theorem51"}


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


def _choices(path, option):
    parser = _subparser(cli.build_parser(list(path)), path)
    return next(a.choices for a in parser._actions if option in a.option_strings)


def test_family_choices_are_the_ortho_families():
    """cli spells out the family names; they stay the weights ortho defines."""
    from mathieulab import ortho
    assert _choices(("moments",), "--family") == ortho.FAMILIES
    assert _choices(("scan",), "--oracle") == ("kerl", "laurent", "trace") + tuple(
        f"moment:{family}" for family in ortho.FAMILIES)
    assert set(_choices(("ortho",), "--family")) < set(ortho.FAMILIES)


_LOADED = "import sys\n{}\nprint(*sorted(sys.modules), file=sys.stderr)"
_RUN_MAIN = "from mathieulab.cli import main\nif main(sys.argv[1:]):\n    sys.exit('failed')"
# `powers` holds the integer power loop, which only the scans run
_NOT_FOR_ORTHO = ("imagemap", "weyl", "harness", "charp", "powers", "parsing", "linalg")
_NOT_FOR_POWERSCAN = ("ortho", "linalg", "harness", "charp", "weyl")
_NOT_FOR_KERNEL_MAP = _NOT_FOR_POWERSCAN + ("powers",)
_NOT_FOR_CHARP = ("harness", "imagemap", "weyl", "ortho", "linalg", "powers")


@pytest.mark.parametrize("statement, argv, not_loaded", [
    ("import mathieulab", (), ("poly", "rings", "cli")),
    ("import mathieulab.cli", (), _NOT_FOR_ORTHO + _NOT_FOR_KERNEL_MAP),
    (_RUN_MAIN, ("certify", "w1*z1 - 1"), _NOT_FOR_KERNEL_MAP),
    (_RUN_MAIN, ("lmap", "w1*z1^2"), _NOT_FOR_KERNEL_MAP),
    (_RUN_MAIN, ("powerscan", "w1*z1^2", "--mmax", "3"), _NOT_FOR_POWERSCAN),
    (_RUN_MAIN, ("conj73", "w1*z1^2", "--mmax", "3"), _NOT_FOR_KERNEL_MAP),
    (_RUN_MAIN, ("ortho", "--family", "legendre", "--dmax", "3"), _NOT_FOR_ORTHO),
    (_RUN_MAIN, ("moments", "--family", "jacobi", "--alpha", "1", "--nmax", "3"),
     _NOT_FOR_ORTHO),
    (_RUN_MAIN, ("scan", "--oracle", "moment:hermite", "x^2 - 1/2", "x", "--mmax", "3"),
     ("imagemap", "weyl", "linalg", "charp", "powers")),
    (_RUN_MAIN, ("scan", "--oracle", "trace", "[1,0;0,-1]", "--mmax", "2"),
     ("imagemap", "weyl", "ortho", "linalg", "charp", "powers")),
    (_RUN_MAIN, ("jacobian", "z2", "0", "--n", "2"),
     ("weyl", "ortho", "linalg", "charp", "powers")),
    (_RUN_MAIN, ("charp", "willems", "--p", "3"), _NOT_FOR_CHARP + ("parsing",)),
    (_RUN_MAIN, ("lemma81", "u - 1"), _NOT_FOR_CHARP),
    (_RUN_MAIN, ("charp", "example12", "--p", "3"), _NOT_FOR_CHARP + ("parsing",)),
    (_RUN_MAIN, ("scan", "--oracle", "laurent", "t^-1 + t", "t"),
     ("imagemap", "weyl", "ortho", "linalg", "charp")),
], ids=["package", "cli", "certify", "lmap", "powerscan", "conj73", "ortho", "moments",
        "scan-moment", "scan-trace", "jacobian", "charp-willems", "lemma81", "charp-example12",
        "scan-laurent"])
def test_cold_call_loads_only_its_modules(statement, argv, not_loaded):
    """In a fresh interpreter: no dataclasses or inspect, and no module the call does not run."""
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(statement), *argv],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "mathieulab" in loaded
    absent = ("dataclasses", "inspect") + tuple(f"mathieulab.{m}" for m in not_loaded)
    assert loaded.isdisjoint(absent), sorted(loaded.intersection(absent))


def test_cold_cli_cycle_compiles_a_pinned_number_of_lines(tmp_path, monkeypatch):
    """A deterministic count for the benchmark's cold `cli` workload: each of
    its 15 requests runs in a fresh interpreter, and the lines of every
    mathieulab module that the call loaded (`cli.py` and the package's
    `__init__.py` included) are summed.  Without bytecode files, as the
    benchmark runs, a cold call compiles each of those lines.  The total moves
    with any edit to a module that some request loads; re-pin it then."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    inputs = importlib.import_module("inputs")
    lmap_file = tmp_path / "lmap.txt"
    lmap_file.write_text("w1*z2 - w3*z3^2\n")
    package = Path(mathieulab.__file__).parent
    lines = {f"mathieulab.{path.stem}": len(path.read_text().splitlines())
             for path in package.glob("*.py")}
    lines["mathieulab"] = lines.pop("mathieulab.__init__")
    compiled = 0
    for _, argv in inputs.cli_requests(str(lmap_file)):
        proc = subprocess.run([sys.executable, "-c", _LOADED.format(_RUN_MAIN), *argv],
                              env=_subprocess_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        compiled += sum(lines.get(name, 0) for name in proc.stderr.split())
    assert compiled == 21164


@pytest.mark.parametrize("name", mathieulab.__all__)
def test_package_name_imports_in_a_fresh_process(name):
    statement = f"from mathieulab import {name}\nprint(repr({name}))"
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(statement)],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_package_lists_its_names():
    assert set(mathieulab.__all__) <= set(dir(mathieulab))
    assert mathieulab.__version__ == "0.1.0"
    assert mathieulab.Polynomial is Polynomial and mathieulab.QQ is QQ
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        getattr(mathieulab, "nothing")
