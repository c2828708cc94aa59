"""Byte-identical CLI output for every subcommand.

Every case runs `cli.main` in this process and compares the sha256 digests
of its stdout and stderr, and its exit code, with `cli_corpus.json`.  The
corpus covers `decompose`, `certify`, `gvc`, `conj73`, `lmap` and
`powerscan` over `--ring q` and `qi`, with n = 1..3 where the subcommand
takes `--n`, in json and text, plus one usage error each.  It also covers
the four `charp` modes, `jacobian` and `lemma81`: `charp theorem51` with a
premise that holds and one that fails, `charp crucial` with two valid
witnesses (the second with non-zero Koszul quotients) and with each of its
two usage errors, and `charp example12` at the default bound and at
--bound p, 2p+1 and p-1.  Then `scan` with every oracle over
`--ring q`, `qi` and `fp`; `ortho` for its four families and `moments` for
its five, with `--alpha`/`--beta` where they apply; `powerscan` and
`moments` in csv; `lmap` and `powerscan` over `--ring fp` and `jacobian`
over `qi` and `fp`; in json, two `--mmax 200` Laurent scans over every
ring and one F_11 moment scan at two bounds; `--help` at every level;
one line per usage-error class; and, in json and text, moment scans whose
premise holds over F_7, that miss over Q(i), and that fail on a moment with
no value mod 5 in f's and in a g's answer, an exhausted `lemma81` and a
`gvc` scan that stabilizes at 1; and `moments` to n = 40, `ortho` for
jacobi(4,3) to degree 12 and a Hermite scan at `--mmax 400` that fails its
premise at m = 2; and, in json and text, scans whose w-exponents pass p:
`powerscan "w1*z1 + w1^2*z1^3 + w2*z2"` with n = 2 over F_2 to m = 60 and
over F_3 to m = 200, and an F_3 kerL scan of `w1*z1^2 + w1^3*z1` to m = 40;
and, in json and text, `lemma81` skipping a prime that divides a
denominator and at its default candidate, a Laurent scan with `(t)^-1`, an
`lmap` input with a powered coefficient and one over F_1000003; and, in
json and text, F_3 and F_5 power scans and an F_3 kerL scan past m = p whose
f has a w-free term, and a Q(i) Hermite scan at `--mmax` 2 (unknown) and 3
(premise failed).
Each JSON report that exits 0 must also
validate against `report.schema.json`.

The same pass runs under a call-only trace function, and
`test_every_library_function_is_reached` fails when a library function is
entered by no corpus line and is not in `UNREACHED` with its reason, or when
an entry there is reached or names no function.  Re-record with

    PYTHONPATH=src python tests/test_cli_corpus.py

only when an output changes on purpose.
"""

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys
import types
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

import mathieulab
from mathieulab import cli
from test_no_unused_imports import READ_ONLY_BY_TESTS

DIGESTS = Path(__file__).with_name("cli_corpus.json")

# per n: two kernel-map inputs (the first lies in Im D, the second does not)
# over Q and over Q(i)
_INPUTS = {
    ("q", 1): ("w1*z1 - 1", "3/2*w1^2*z1^3 - w1*z1^2 + 2"),
    ("q", 2): ("w1*z1*z2 - z2 + w2^2*z2^2 - 2", "w1*w2*z1^2*z2 - 1/3*w2*z2^3 + z1"),
    ("q", 3): ("w1*z1 + w2*w3*z2*z3 - 2", "w1*z2*z3^2 - w3^2*z1*z3^3 + 5/4*w2*z2"),
    ("qi", 1): ("i*w1*z1 - i", "(1 + i)*w1^2*z1^3 - i*w1*z1^2 + 1/2"),
    ("qi", 2): ("w1*z1 + i*w2*z2^2 - 1 - 2*i*z2", "i*w1^2*z1^2*z2 + w2*z2 - 2/3*i"),
    ("qi", 3): ("w3*z3 - 1 + i*w1*w2*z1*z2 - i", "w1*w2*w3*z1*z2^2*z3 + i*w3*z3^2"),
}
# per n: a constant-coefficient operator in d1..dn, P and Q in z1..zn
_GVC = {
    ("q", 1): ("d1^2", "z1", "z1^3 - z1"),
    ("q", 2): ("d1^2 + d2^2", "z1^2 - z2^2 + z1", "z1*z2"),
    ("q", 3): ("d1*d2 + 2*d3", "z1 + z2*z3", "z3^2 - 1"),
    ("qi", 1): ("i*d1^2 + d1", "z1 - i", "z1^2"),
    ("qi", 2): ("d1^2 + i*d2", "z1*z2 + i*z2", "z1 - 1"),
    ("qi", 3): ("d1 + i*d2*d3", "z1*z3 + i*z2", "z2*z3"),
}
_CONJ73 = {
    "q": ("w1*z1^2 + w1^2*z1^3", "z1 - w1*z1^2", "w1^2 - 3*w1"),
    "qi": ("i*w1*z1^2 + w1^2*z1^3", "z1 - i*w1*z1^2", "i*w1^2 - w1"),
}
# per n: (f, g) with f's coefficients in I = (w_i), then (f, g) with one outside
_THEOREM51 = {
    1: (("w1*z1 + 2*w1^2", "z1 - 1"), ("w1*z1 + z1^2", "z1")),
    2: (("w1*z2 + w2*z1^2", "z1*z2 - w1"), ("w1*z1 + w2 - 1", "z2")),
}
# b, p and q over the two pairs: a valid witness, one whose Koszul steps
# find non-zero g_top and g_mid, a wrong identity, and a valid identity
# (b = 0) whose witnesses exceed the z-degree hypothesis
_CRUCIAL = [
    ("1 - w1*z1", "z1", "0"),
    ("2*w2*z1", "w2*z1^3 + w2*z1^2", "-w1*z1^3 - w1*z1^2"),
    ("1", "z1", "0"),
    ("0", "w2*z1^3", "3*z1^2 - w1*z1^3"),
]
_JACOBIAN = [("z2^2", "0"), ("z1^2", "z2")]
# the second skips 3, which divides a denominator; the third's default
# candidate is its first admissible prime, 3
_LEMMA81 = [("1 + u",), ("u + 2*u^3", "--primes", "2,4,11"), ("u + 1/3*u^2", "--primes", "3,5"),
            ("1 + 1/2*u",)]
_USAGE_ERRORS = [
    ("decompose", "w1*z1", "z1", "--n", "1"),
    ("certify", "w1*z1 $", "--n", "1"),
    ("gvc", "d1^2", "z1", "--n", "1"),
    ("conj73", "w1*z1", "--mmax", "0"),
    ("lmap", "--n", "1"),
    ("powerscan", "w2*z1", "--n", "1"),
]
# per oracle: its flags, then f and the gs; one f per oracle holds its premise
_SCANS = [
    (("kerl", "--mmax", "4"), ("w1^2*z1", "z1^3", "w1")),
    (("kerl", "--mmax", "4"), ("w1*z1^2", "z1")),
    (("laurent", "--mmax", "4"), ("t", "t^-1", "t^-4")),
    (("laurent", "--mmax", "4"), ("t - t^-1", "t^-1")),
    (("trace", "--mmax", "4"), ("[0,1; 0,0]", "[1,0; 0,2]", "[0,0; 1,0]")),
    (("moment:hermite", "--mmax", "1"), ("x", "x^2", "x^3")),
    (("moment:laguerre", "--mmax", "1", "--alpha", "1"), ("x - 2", "x")),
    (("moment:jacobi", "--mmax", "1", "--alpha", "1", "--beta", "2"), ("5*x - 1", "x^2")),
    (("moment:legendre", "--mmax", "1"), ("x", "x^2")),
    (("moment:uniform01", "--mmax", "1"), ("x - 1/2", "x")),
    (("moment:hermite", "--mmax", "3"), ("x", "x^2")),
]
# json only, over every ring: Laurent scans whose powers the exponent ceiling
# empties (the second only once t -> 1/t is applied)
_LONG_SCANS = [
    ("laurent", "2*t + t^3", "t^-5", "--mmax", "200"),
    ("laurent", "t^-1 + 2*t^-2", "t^3", "--mmax", "200"),
]
_FP = ("--ring", "fp", "--p", "11")
# json only: a jacobi(1,2) moment scan over F_11 that fails its premise at m = 2,
# so at either bound it never reads mu_7 = 1/33, which has no value mod 11
_MOMENT_FP = [("scan", "--oracle", "moment:jacobi", "5*x - 1", "x^2", "--mmax", m, "--alpha",
               "1", "--beta", "2") + _FP + ("--format", "json") for m in ("2", "4")]
# json and text: an F_7 moment scan whose premise holds, a Q(i) Laguerre scan
# with a re-checked miss (f = -L_1 + i*L_2 in u = x, so int f w = int f^2 w = 0),
# the uniform01 moments' F_5 usage error from f's answer and from a g's
# answer, a lemma 8.1 search that exhausts its primes, and a gvc scan whose
# shifted values all vanish (stabilization index 1)
_EDGES = [
    ("scan", "--oracle", "moment:hermite", "x^7 + 3*x^9", "1", "x", "--ring", "fp", "--p", "7",
     "--mmax", "6"),
    ("scan", "--oracle", "moment:laguerre", "x - 1 + 1/2*i*x^2 - 2*i*x + i", "x", "1",
     "--ring", "qi", "--mmax", "2"),
    ("scan", "--oracle", "moment:uniform01", "x^4", "x", "--ring", "fp", "--p", "5",
     "--mmax", "3"),
    ("scan", "--oracle", "moment:uniform01", "x - 1/2", "x^4", "--ring", "fp", "--p", "5",
     "--mmax", "1"),
    ("lemma81", "u - 1", "--primes", "4,6"),
    ("gvc", "d1^2", "z1", "1", "--n", "1", "--mmax", "4"),
]
# json and text: moments well past the small tables above, from both ends of
# the parameter range; and a scan whose bound is far beyond the m = 2 at which
# its premise fails
_DEEP_MOMENTS = [
    ("moments", "--family", "jacobi", "--alpha", "4", "--beta", "1", "--nmax", "40"),
    ("moments", "--family", "laguerre", "--alpha", "3", "--nmax", "40"),
    ("moments", "--family", "hermite", "--nmax", "40"),
    ("moments", "--family", "uniform01", "--nmax", "40"),
    ("ortho", "--family", "jacobi", "--alpha", "4", "--beta", "3", "--dmax", "12"),
    ("scan", "--oracle", "moment:hermite", "x", "x^2", "--mmax", "400"),
]
# json and text: F_2 and F_3 scans whose w-exponents reach p, where the power
# loop drops every term with some a_i >= p (its L is 0 mod p)
_PAST_P = [
    ("powerscan", "w1*z1 + w1^2*z1^3 + w2*z2", "--n", "2", "--ring", "fp", "--p", "2",
     "--mmax", "60"),
    ("powerscan", "w1*z1 + w1^2*z1^3 + w2*z2", "--n", "2", "--ring", "fp", "--p", "3",
     "--mmax", "200"),
    ("scan", "--oracle", "kerl", "w1*z1^2 + w1^3*z1", "z1", "--n", "1", "--ring", "fp",
     "--p", "3", "--mmax", "40"),
]
# json and text: F_3 and F_5 power scans and an F_3 kerL scan past m = p whose f
# has a w-free part f_0, so that L(f^m) = f_0(z^p) L(f^(m-p)) is not 0
_FROBENIUS = [
    ("powerscan", "w1*z1^2 + z1 + w1^2*z1", "--n", "1", "--ring", "fp", "--p", "3",
     "--mmax", "10"),
    ("powerscan", "w1*z2 + z1^2 + w2^2*z1*z2", "--n", "2", "--ring", "fp", "--p", "5",
     "--mmax", "12"),
    ("scan", "--oracle", "kerl", "w1*z1^3", "z1", "1", "--n", "1", "--ring", "fp", "--p", "3",
     "--mmax", "4"),
]
# json and text: a non-real Hermite scan whose f has int f w = int f^2 w = 0, so
# it is unknown at --mmax 2 and fails its premise at m = 3
_RESIDUE = [("scan", "--oracle", "moment:hermite", "i*x^2 + x - 1/2*i", "1", "x", "--ring",
             "qi", "--mmax", m) for m in ("2", "3")]
# json and text: a negative power of a parenthesised variable, a powered
# coefficient, and a --p past the primality test's trial divisions
_BRANCHES = [
    ("scan", "--oracle", "laurent", "(t)^-1 + t", "t", "--mmax", "4"),
    ("lmap", "2^3*w1*z1", "--n", "1"),
    ("lmap", "w1*z1^2", "--ring", "fp", "--p", "1000003", "--n", "1"),
]
_WEIGHTS = [("hermite",), ("laguerre",), ("laguerre", "--alpha", "2"), ("jacobi",),
            ("jacobi", "--alpha", "1", "--beta", "2"), ("legendre",)]
_USAGE_CLASSES = [
    ("lmap", "w1*z1", "--bogus"),  # unknown flag
    ("powerscan", "w1*z1", "--mm", "3"),  # abbreviated flag
    ("powerscan", "w1*z1", "--mmax", "x"),  # bad integer
    ("lmap", "w1*z1", "--ring", "fp", "--p", "4"),  # non-prime --p
    ("lmap", "w1*z1", "--ring", "fp"),  # --ring fp without --p
    ("lmap", "--file", "no-such-dir/inputs.txt"),  # unreadable --file
    ("charp", "theorem51", "w1*z1", "--p", "3"),  # wrong input count
    ("lmap", "w1^", "--n", "1"),  # a syntax error: no integer after '^'
    # --p at the primality test's bound, a strong pseudoprime to 2..41
    ("lmap", "1/1287836182261*w1*z1", "--ring", "fp", "--p", "3317044064679887385961981"),
    ("lmap", "(" * 600 + "w1" + ")" * 600, "--n", "1"),  # nested past the recursion limit
]


def _cases():
    for fmt in ("json", "text"):
        for (ring, n), texts in _INPUTS.items():
            tail = ("--ring", ring, "--n", str(n), "--format", fmt)
            for text in texts:
                yield ("decompose", text) + tail
                yield ("certify", text) + tail
            yield ("lmap",) + texts + tail
            yield ("powerscan", texts[1], "--mmax", "4") + tail
            yield ("gvc",) + _GVC[ring, n] + ("--mmax", "4") + tail
        for ring, texts in _CONJ73.items():
            for text in texts:
                yield ("conj73", text, "--mmax", "6", "--ring", ring, "--format", fmt)
        tail = ("--format", fmt)
        for p in (2, 3, 5):
            for n, pairs in _THEOREM51.items():
                for f, g in pairs:
                    yield ("charp", "theorem51", f, g, "--p", str(p), "--n", str(n)) + tail
            yield ("charp", "willems", "--p", str(p), "--kmax", "2") + tail
            yield ("charp", "example12", "--p", str(p)) + tail
            for bound in (p, 2 * p + 1, p - 1):
                yield ("charp", "example12", "--p", str(p), "--bound", str(bound)) + tail
        for texts in _CRUCIAL:
            yield ("charp", "crucial") + texts + ("--p", "3") + tail
        for texts in _JACOBIAN:
            yield ("jacobian",) + texts + ("--n", "2") + tail
        for args in _LEMMA81:
            yield ("lemma81",) + args + tail
    yield from _USAGE_ERRORS
    for fmt in ("json", "text"):
        tail = ("--format", fmt)
        for (oracle, *flags), texts in _SCANS:
            for ring in (("--ring", "q"), ("--ring", "qi"), _FP):
                yield ("scan", "--oracle", oracle) + texts + tuple(flags) + ring + tail
        for weight in _WEIGHTS:
            yield ("ortho", "--family") + weight + ("--dmax", "4") + tail
        for n in (1, 2, 3):
            texts = _INPUTS["q", n]
            yield ("lmap",) + texts + _FP + ("--n", str(n)) + tail
            yield ("powerscan", texts[1], "--mmax", "4") + _FP + ("--n", str(n)) + tail
        for texts in _JACOBIAN:
            for ring in (("--ring", "qi"), _FP):
                yield ("jacobian",) + texts + ring + ("--n", "2") + tail
    for texts in _LONG_SCANS:
        for ring in (("--ring", "q"), ("--ring", "qi"), _FP):
            yield ("scan", "--oracle") + texts + ring + ("--format", "json")
    yield from _MOMENT_FP
    for fmt in ("json", "csv", "text"):
        for weight in _WEIGHTS[:3] + _WEIGHTS[4:] + [("uniform01",)]:
            yield ("moments", "--family") + weight + ("--nmax", "5", "--format", fmt)
    for (ring, n), texts in _INPUTS.items():
        yield ("powerscan", texts[1], "--mmax", "4", "--ring", ring, "--n", str(n),
               "--format", "csv")
    yield ("powerscan", _INPUTS["q", 2][1], "--mmax", "4") + _FP + ("--n", "2", "--format", "csv")
    yield ("--help",)
    for name, entry in cli._COMMANDS.items():
        yield (name, "--help")
        if isinstance(entry, dict):
            for mode in entry:
                yield (name, mode, "--help")
    yield from _USAGE_CLASSES
    for fmt in ("json", "text"):
        for argv in _EDGES + _DEEP_MOMENTS + _PAST_P + _BRANCHES + _FROBENIUS + _RESIDUE:
            yield argv + ("--format", fmt)


CASES = [list(argv) for argv in _cases()]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> tuple:
    """The digests of one in-process `cli.main` call's stdout and stderr, and its
    exit code; then its stdout.

    `--help` exits through `SystemExit`; its pages are wrapped at a fixed width.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    digests = {"stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue()), "exit": code}
    return digests, out.getvalue()


# -- reach: the corpus enters every library function --------------------

def _defs(code):
    """The code of every function defined inside `code`, nested defs included;
    a lambda or a comprehension is part of the function that holds it."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from _defs(const)


def _site(code) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


# every library module is imported here, so what runs at import time never
# counts as reached; FUNCTIONS maps each library function's site to its name
_MODULES = [mathieulab] + [importlib.import_module(f"mathieulab.{info.name}")
                           for info in pkgutil.iter_modules(mathieulab.__path__)]
FUNCTIONS = {_site(code): code.co_qualname for module in _MODULES
             for code in _defs(compile(Path(module.__file__).read_text(), module.__file__,
                                       "exec"))}

# library functions that no corpus line enters, and why each stays.  An entry
# naming a class covers its methods; one naming a function does not cover the
# defs nested in it.  The names only tests read keep their reasons from
# `READ_ONLY_BY_TESTS`.
_REPR = "debugging text; a report prints `str` or `to_str`"
_FIELD_OP = "field arithmetic (+ - * /) of a ring element, which no command runs"
_SHORTHAND = "test shorthand: moving it grows the tests by more than src shrinks"
UNREACHED = {
    **READ_ONLY_BY_TESTS,
    "determinant": "the elimination behind `hankel_determinant`",
    "__getattr__": "loads the module of a name imported from the package itself",
    "__dir__": "`dir(mathieulab)` lists the names the package loads on first access",
    "_int_at_least": "runs at import, to build `_FLAGS`; each `parse` it returns is reached",
    "ImageProblem.z": _SHORTHAND,
    "ImageProblem.one": _SHORTHAND,
    "Immutable.__setattr__": "the immutability guard: assignment raises",
    "Immutable.__delattr__": "the immutability guard: deletion raises",
    "Immutable.__hash__": "a value type hashes by its fields",
    "Polynomial.__hash__": "a polynomial hashes by its terms",
    "Immutable.__reduce__": "a copy or an unpickled value is rebuilt from its fields",
    "Immutable.__repr__": _REPR,
    "Polynomial.__repr__": _REPR,
    "GaussianRational.__repr__": _REPR,
    "PrimeFieldElement.__repr__": _REPR,
    "GaussianRational.__sub__": _FIELD_OP,
    "GaussianRational.__truediv__": _FIELD_OP,
    "PrimeFieldElement.__sub__": _FIELD_OP,
}

_ENTERED = set()  # the code objects that the traced corpus lines entered
_TRACED = set()  # the traced corpus lines


def _enter(frame, event, arg):
    """Global trace function: note the code a call enters, trace nothing inside it."""
    _ENTERED.add(frame.f_code)


def _traced_run(argv) -> tuple:
    """`run(argv)` with every Python function it enters noted in `_ENTERED`."""
    previous = sys.gettrace()
    sys.settrace(_enter)
    try:
        return run(argv)
    finally:
        sys.settrace(previous)
        _TRACED.add(" ".join(argv))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def report_schema():
    schema = json.loads(resources.files("mathieulab").joinpath(
        "schemas/report.schema.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def test_corpus_is_recorded_in_full(recorded):
    assert list(recorded) == [" ".join(argv) for argv in CASES]
    assert {case["exit"] for case in recorded.values()} == {0, 1}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_recording(argv, recorded, report_schema):
    """The recorded digests; a JSON report that exits 0 also validates against the schema."""
    digests, out = _traced_run(argv)
    assert digests == recorded[" ".join(argv)]
    if digests["exit"] == 0 and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        report_schema.validate(json.loads(out))


def test_every_library_function_is_reached():
    """Each library function is entered by some corpus line or is in `UNREACHED`;
    each entry there names functions, and none of them is reached.

    The lines a `-k` deselected run here first.
    """
    for argv in CASES:
        if " ".join(argv) not in _TRACED:
            _traced_run(argv)
    reached = {_site(code) for code in _ENTERED}
    unreached = {name for site, name in FUNCTIONS.items() if site not in reached}
    covers = {entry: {name for name in FUNCTIONS.values()
                      if entry in (name, name.rpartition(".")[0])} for entry in UNREACHED}
    assert [entry for entry, names in covers.items() if not names] == []  # names no function
    assert [entry for entry, names in covers.items() if names - unreached] == []  # reached
    assert sorted(unreached - set().union(*covers.values())) == []  # neither reached nor listed


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({" ".join(argv): run(argv)[0] for argv in CASES}, indent=1)
                       + "\n")
