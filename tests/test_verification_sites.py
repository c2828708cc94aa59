"""Every `raise VerificationError` in the library fires through the CLI, and
`python -O` runs the same code.

`FAULTS` holds one row per raise site, in source order: an id (the site's
dotted scope, then `:` and a label where a scope has two sites), a function
that breaks a route the site re-checks through `monkeypatch`, the argv of a
command that reaches the site, and the check's message.  One test runs each
row through `cli.main` in this process: unbroken the command exits 0, broken
it exits 2 with nothing on stdout and exactly that message on stderr.  A new
site without a row, or a row without a site, fails the count check.

No check may rest on an `assert`, `if __debug__:` or `sys.flags`: every
library module compiles to the same code objects, nested ones included, with
and without optimisation, and none reads `sys.flags`.  So each in-process row
also shows its `python -O` behaviour;
`test_parsing_cli.py::test_verification_failure_exits_2_under_optimize` is the
one end-to-end run under `python -O`.
"""

import ast
import textwrap
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import mathieulab
from mathieulab import charp, cli, harness, imagemap, ortho
from mathieulab.poly import Polynomial
from mathieulab.rings import QQ
from test_charp import _DESCENT
from test_harness import _claim_a_miss_at_m_max

LIBRARY = sorted(Path(mathieulab.__file__).parent.glob("*.py"))


class Fault(NamedTuple):
    id: str
    breaks: Callable  # (monkeypatch) -> None
    argv: tuple
    stderr: str  # what follows "verification failure: "


def _plus_one(owner, name):
    """Break `owner.name` so that the polynomial it returns is off by 1."""
    honest = getattr(owner, name)

    def wrong(*args):
        value = honest(*args)
        return value + Polynomial.one(value.ring, value.variables)
    return lambda mp: mp.setattr(owner, name, wrong)


def _decline_the_second_sample(mp):
    """A witness that declines g*f^(p^2+1) although the premise holds."""
    honest, calls = charp.sufficient_membership, []

    def decline(b, problem):
        calls.append(b)
        return None if len(calls) == 3 else honest(b, problem)
    mp.setattr(charp, "sufficient_membership", decline)


def _doubled_derivatives(mp):
    honest = Polynomial.partial
    mp.setattr(Polynomial, "partial", lambda self, name: honest(self, name).scale(2))


def _wrong_operator_pair(mp):
    """T = alpha - x with alpha one too high: the moments and the operator
    route share the pair, so only the closed forms disagree."""
    honest = ortho._operator

    def wrong(spec):
        (t0, t1), den = honest(spec)
        return [t0 + 1, t1], den
    mp.setattr(ortho, "_operator", wrong)


def _off_at_degree_3(route):
    """Break `ortho.route` at degree 3 only."""
    honest = getattr(ortho, route)

    def wrong(*args):
        value = honest(*args)
        if isinstance(value, dict):
            value[3] = value[3].scale(Fraction(1, 2))
        elif value.total_degree() == 3:
            value = value + value
        return value
    return lambda mp: mp.setattr(ortho, route, wrong)


def _claims_a_miss_at_m_max(mp):
    """The Laurent scan reports every g*f^m_max as a miss."""
    honest = harness.laurent_constant_oracle

    def tampered(ring):
        oracle = honest(ring)
        oracle.scan = _claim_a_miss_at_m_max(oracle.scan)
        return oracle
    mp.setattr(harness, "laurent_constant_oracle", tampered)


def _shift_only(n, i, h):
    """t_i without its derivative term: the witness's image is not f."""
    for exps, c in h.terms.items():
        yield exps[:i - 1] + (exps[i - 1] + 1,) + exps[i:], c


_THEOREM51 = ("charp", "theorem51", "w1*z1 + 2*w1^2", "z1 - 1", "--p", "3", "--n", "1")
_CRUCIAL = ("charp", "crucial", *_DESCENT, "--p", "3")
_CERTIFY = ("certify", "1 - w1*z1")

FAULTS = [
    Fault("charp.sufficient_membership", _plus_one(imagemap, "t_apply"), _THEOREM51,
          "sufficiency witness failed to re-verify"),
    Fault("charp.koszul_solve",  # each quotient off by z1
          lambda mp: mp.setattr(charp, "Polynomial", lambda *args: (
              Polynomial(*args) + Polynomial.var(*args[:2], "z1"))),
          _CRUCIAL, "Koszul solution failed to re-verify"),
    Fault("charp.crucial_lemma_descent", _doubled_derivatives, _CRUCIAL,
          "descent identity failed to verify"),
    Fault("charp.theorem51_pipeline", _decline_the_second_sample, _THEOREM51,
          "g*f^10 has a term outside J = (w_i^p)"),
    Fault("charp.example12_refutation",  # over Q, d/dz misses no z^e below the bound
          lambda mp: mp.setattr(charp, "GF", lambda p: QQ), ("charp", "example12", "--p", "3"),
          "the first monomial outside the image is z^12, not z^2"),
    Fault("charp.lemma81_nonvanishing",  # L(g^2)/0! for g = u - 1 becomes 1 - 2 + 3/2
          lambda mp: mp.setattr(charp, "factorial", lambda n: factorial(n) + 1),
          ("lemma81", "u - 1"), "L(g^2)/(0)! has 2-valuation -1, not 0"),
    Fault("cli._cmd_decompose", _plus_one(imagemap, "recompose"),
          ("decompose", "w1*z1^2 - 3*z1", "--n", "1"),
          "decomposition did not recompose to the input"),
    Fault("cli._cmd_ortho:operator", _wrong_operator_pair,
          ("ortho", "--family", "laguerre", "--alpha", "2", "--dmax", "4"),
          "operator route disagrees with Rodrigues at degree 1"),
    Fault("cli._cmd_ortho:gram_schmidt", _off_at_degree_3("gram_schmidt"),
          ("ortho", "--family", "jacobi", "--alpha", "1", "--dmax", "4"),
          "Gram-Schmidt disagrees with Rodrigues at degree 3"),
    Fault("harness.mathieu_scan",  # t^-1 (t^2 + t)^m misses at m = 1, not at m = 6
          _claims_a_miss_at_m_max,
          ("scan", "--oracle", "laurent", "t^2 + t", "t^-1", "--mmax", "6"),
          "laurent_constant_Q scan reported a member as a miss"),
    Fault("harness._gvc_crosscheck", _plus_one(harness, "_apply_symbol"),
          ("gvc", "d1^2", "z1", "z1^3 - z1", "--mmax", "3"),
          "kernel-map route disagrees with operator route"),
    Fault("imagemap.certify_imD:zero_component", _plus_one(imagemap, "L_map"), _CERTIFY,
          "the zero component of the decomposition is not L(f)"),
    Fault("imagemap.certify_imD:witness",
          lambda mp: mp.setattr(imagemap, "_t_terms", _shift_only), _CERTIFY,
          "certificate failed to re-verify"),
    Fault("ortho.rodrigues",
          lambda mp: mp.setattr(ortho, "rodrigues_constant", lambda spec, a: Fraction(0)),
          ("ortho", "--family", "legendre", "--dmax", "3"),
          "Rodrigues polynomial of degree 0 has the wrong degree"),
]

# faults at a site that a row covers, which its row's break does not reach:
# certify re-checks f_0 before it branches on membership, and the operator
# check watches both of the routes it compares
MORE_FAULTS = [
    Fault("imagemap.certify_imD:zero_component:nonmember", _plus_one(imagemap, "L_map"),
          ("certify", "w1*z1"), "the zero component of the decomposition is not L(f)"),
    *(Fault(f"cli._cmd_ortho:operator:{route}", _off_at_degree_3(route),
            ("ortho", "--family", "jacobi", "--alpha", "1", "--dmax", "4"),
            "operator route disagrees with Rodrigues at degree 3")
      for route in ("rodrigues", "lambda_power")),
]


@pytest.mark.parametrize("fault", FAULTS + MORE_FAULTS, ids=lambda fault: fault.id)
def test_a_broken_route_exits_2(monkeypatch, capsys, fault):
    """Unbroken the command exits 0; broken it exits 2 with only the check's message."""
    assert cli.main(list(fault.argv)) == 0
    capsys.readouterr()
    fault.breaks(monkeypatch)
    assert cli.main(list(fault.argv)) == 2
    assert capsys.readouterr() == ("", f"verification failure: {fault.stderr}\n")


def test_a_wrong_operator_pair_keeps_lambda_power_on_gram_schmidt(monkeypatch):
    """The operator row's break moves the moments with the operator route."""
    _wrong_operator_pair(monkeypatch)
    spec = ortho.WeightSpec("laguerre", 2)
    lam = ortho.lambda_power(spec, 4)
    assert lam == ortho.gram_schmidt(ortho.MomentFunctional(spec), 4)[4].scale(lam.terms[(4,)])


def _raise_sites(source, module):
    """The dotted enclosing scope of each raise of `VerificationError`, called or
    not, by name or by attribute, in source order."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name == "VerificationError":
                    sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), (module,))
    return sites


def test_the_site_scanner_sees_every_form_of_the_raise():
    source = textwrap.dedent("""
        def f():
            raise VerificationError("called")
        class C:
            def g(self):
                raise VerificationError
                raise poly.VerificationError("by attribute")
            raise poly.VerificationError
        def h(exc):
            raise ValueError("another exception")
            raise exc.VerificationErrors
            raise
    """)
    assert _raise_sites(source, "m") == ["m.f", "m.C.g", "m.C.g", "m.C"]


def test_every_verification_site_has_one_row():
    assert [site for path in LIBRARY for site in _raise_sites(path.read_text(), path.stem)] == [
        fault.id.partition(":")[0] for fault in FAULTS]


def _same_under_optimize(source):
    """`python -O` compiles `source` to the code `python` does, nested code
    objects included, and `source` never reads `sys.flags`."""
    reads_flags = any(
        isinstance(node, ast.Attribute) and node.attr == "flags"
        and getattr(node.value, "id", None) == "sys"
        or isinstance(node, ast.ImportFrom) and node.module == "sys"
        and any(alias.name == "flags" for alias in node.names)
        for node in ast.walk(ast.parse(source)))
    return not reads_flags and (compile(source, "<source>", "exec", optimize=0)
                                == compile(source, "<source>", "exec", optimize=1))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_python_O_runs_the_same_code(path):
    assert _same_under_optimize(path.read_text())


@pytest.mark.parametrize("source", [
    "class A:\n    def f(self, x):\n        assert x\n        return x\n",
    "def f(x):\n    if __debug__:\n        x += 1\n    return x\n",
    "import sys\nstrict = sys.flags.optimize == 0\n",
    "from sys import flags\n",
], ids=["assert", "__debug__", "sys.flags", "from sys import flags"])
def test_the_parity_check_sees_what_python_O_changes(source):
    assert not _same_under_optimize(source)
