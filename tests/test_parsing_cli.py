"""Grammar round trips, parser errors, CLI dispatch, and report schemas."""

import json
import random
from importlib import resources

import jsonschema
import pytest

from conftest import random_polynomial
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


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(capsys, "lmap", "nope^^", "--n", "1")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "certify", "1 - w1*z1",
                           "--ring", "fp", "--p", "5")
    assert code == 1  # decomposition needs characteristic 0
    code, _, err = run_cli(capsys, "lmap", "w1*z1", "--ring", "fp")
    assert code == 1  # fp without --p
    code, _, err = run_cli(capsys, "lmap")
    assert code == 1  # no inputs
    code, _, err = run_cli(capsys, "certify", "1 - w1*z1", "--format", "csv")
    assert code == 1  # csv reserved for tables
    # an empty scan is a usage error, never a verdict or a traceback
    code, out, err = run_cli(capsys, "gvc", "--n", "2", "--mmax", "-5", "d1^2", "z1", "1")
    assert code == 1 and "usage error" in err and out == ""
    code, out, err = run_cli(capsys, "powerscan", "--mmax", "0", "w1*z1")
    assert code == 1 and "usage error" in err and out == ""


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
