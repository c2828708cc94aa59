"""Byte-identical CLI output for the kernel-map, char-p and Jacobian subcommands.

Every case runs `cli.main` in this process and compares the sha256 digests
of its stdout and stderr, and its exit code, with `cli_corpus.json`.  The
corpus covers `decompose`, `certify`, `gvc`, `conj73`, `lmap` and
`powerscan` over `--ring q` and `qi`, with n = 1..3 where the subcommand
takes `--n`, in json and text, plus one usage error each.  It also covers
the four `charp` modes, `jacobian` and `lemma81`: `charp theorem51` with a
premise that holds and one that fails, `charp crucial` with a valid witness
and with each of its two usage errors, and `charp example12` at the default
bound and at --bound p, 2p+1 and p-1.  Re-record with

    PYTHONPATH=src python tests/test_cli_corpus.py

only when an output changes on purpose.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from mathieulab import cli

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
# b, p and q over the two pairs: a valid witness, a wrong identity, and a
# valid identity (b = 0) whose witnesses exceed the z-degree hypothesis
_CRUCIAL = [
    ("1 - w1*z1", "z1", "0"),
    ("1", "z1", "0"),
    ("0", "w2*z1^3", "3*z1^2 - w1*z1^3"),
]
_JACOBIAN = [("z2^2", "0"), ("z1^2", "z2")]
_LEMMA81 = [("1 + u",), ("u + 2*u^3", "--primes", "2,4,11")]
_USAGE_ERRORS = [
    ("decompose", "w1*z1", "z1", "--n", "1"),
    ("certify", "w1*z1 $", "--n", "1"),
    ("gvc", "d1^2", "z1", "--n", "1"),
    ("conj73", "w1*z1", "--mmax", "0"),
    ("lmap", "--n", "1"),
    ("powerscan", "w2*z1", "--n", "1"),
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


CASES = [list(argv) for argv in _cases()]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> dict:
    """The digests of one in-process `cli.main` call's stdout and stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue()), "exit": code}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_corpus_is_recorded_in_full(recorded):
    assert list(recorded) == [" ".join(argv) for argv in CASES]
    assert {case["exit"] for case in recorded.values()} == {0, 1}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_recording(argv, recorded):
    assert run(argv) == recorded[" ".join(argv)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({" ".join(argv): run(argv) for argv in CASES}, indent=1) + "\n")
