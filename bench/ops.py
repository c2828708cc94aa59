"""The program side of each workload: one op per request, and its output check.

Ops call the program through module attributes (`imagemap.certify_imD`, not
a name imported once), so that the traced run's wrappers are the ones called.
Checks never go through `mathieulab`: they compare against `golden.json`
digests recorded from this program, and re-verify certificates with the
term-dict arithmetic in `terms.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mathieulab.cli
from mathieulab import charp, harness, imagemap, parsing
from mathieulab.poly import VariableSet
from mathieulab.rings import GF, QI, QQ
from mathieulab.weyl import WeylElement

from terms import image_sum, lmap, pair_names, parse_output


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


ZERO_DIGEST = digest("0")


def golden_entry(row: str, variant: int) -> str:
    return row[10 * variant:10 * variant + 10]


def _verifies(witness_texts, f_terms, n) -> bool:
    names = pair_names(n)
    hs = [parse_output(h, names) for h in witness_texts]
    return len(hs) == n and image_sum(hs, n) == f_terms


class Workload:
    """A fixed list of requests; op i runs request i % len(requests)."""

    def __len__(self):
        return len(self.requests)

    def run(self, i: int) -> str:
        raise NotImplementedError

    def in_process(self, i: int) -> str:
        """The op as the traced run replays it, in this process."""
        return self.run(i)

    def check(self, i: int, out: str) -> bool:
        raise NotImplementedError


class Certify(Workload):
    """Parse, certify membership in Im D, report, serialise."""

    def __init__(self, exprs, golden):
        self.requests = exprs
        self.trace_ops = len(exprs)
        self.expected_l = [golden_entry(golden["expr"][e.slot], e.variant) for e in exprs]
        self.problems = {n: imagemap.ImageProblem(n, QQ) for n in (2, 3)}

    def run(self, i):
        e = self.requests[i]
        problem = self.problems[e.n]
        f = parsing.parse_polynomial(e.text, QQ, problem.variables)
        return json.dumps(imagemap.certify_imD(problem, f).as_report())

    def check(self, i, out):
        e = self.requests[i]
        report = json.loads(out)
        residue = lmap(e.terms, e.n)
        if report["status"] == "member":
            return (not residue and self.expected_l[i] == ZERO_DIGEST
                    and _verifies(report["witness"], e.terms, e.n))
        return (report["status"] == "nonmember" and bool(residue)
                and digest(report["residue"]) == self.expected_l[i]
                and parse_output(report["residue"], pair_names(e.n)) == residue)

    def member_share(self) -> float:
        return sum(1 for d in self.expected_l if d == ZERO_DIGEST) / len(self.expected_l)


def _scan_call(req):
    """Parse a scan request's inputs once; return the op as a closure."""
    kind = req["kind"]
    if kind == "power":
        ring = QI if req["ring"] == "qi" else GF(req["p"])
        problem = imagemap.ImageProblem(2, ring)
        f = parsing.parse_polynomial(req["f"], ring, problem.variables)
        return lambda: imagemap.power_scan(problem, f, req["mmax"]).as_report()
    if kind == "willems":
        return lambda: charp.willems_scan(req["p"], req["kmax"]).as_report()
    if kind == "lemma81":
        g = parsing.parse_polynomial(req["g"], QQ, VariableSet(("u",)))
        return lambda: charp.lemma81_nonvanishing(g, req["primes"]).as_report()
    if kind == "gvc":
        problem = imagemap.ImageProblem(2, QQ)
        z_vars = VariableSet(problem.z_names)
        op_poly = parsing.parse_polynomial(req["operator"], QQ, VariableSet(("d1", "d2")))
        operator = WeylElement.constant_coefficient(op_poly, problem.z_names)
        p_poly = parsing.parse_polynomial(req["p_poly"], QQ, z_vars)
        q_poly = parsing.parse_polynomial(req["q_poly"], QQ, z_vars)
        return lambda: harness.gvc_scan(operator, p_poly, q_poly, req["mmax"],
                                        problem=problem).as_report()
    if req["oracle"] == "laurent":
        variables = VariableSet(("t",), laurent=frozenset(("t",)))
        oracle = harness.laurent_constant_oracle(QQ)
    else:
        problem = imagemap.ImageProblem(2, QQ)
        variables = problem.variables
        oracle = harness.kerL_oracle(problem)
    f = parsing.parse_polynomial(req["f"], QQ, variables)
    gs = [parsing.parse_polynomial(g, QQ, variables) for g in req["gs"]]
    return lambda: harness.mathieu_scan(oracle, f, gs, req["mmax"]).as_report()


class Scans(Workload):
    """One scan request per op, from the fixed slot mix in inputs.SCAN_SLOTS."""

    def __init__(self, requests, golden):
        self.requests = requests
        self.trace_ops = len(requests)
        self.calls = [_scan_call(req) for _slot, _v, req in requests]
        self.expected = [golden_entry(golden["scans"][slot], v) for slot, v, _ in requests]

    def run(self, i):
        return json.dumps(self.calls[i](), sort_keys=True)

    def check(self, i, out):
        return digest(out) == self.expected[i]


class Cli(Workload):
    """One cold `python -m mathieulab.cli` process per op."""

    def __init__(self, requests, lmap_exprs, root: Path, golden):
        self.requests = requests
        self.trace_ops = len(requests)
        self.root = root
        self.lmap_exprs = lmap_exprs
        self.lmap_expected = [golden_entry(golden["expr"][e.slot], e.variant)
                              for e in lmap_exprs]
        self.expected = golden["cli"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, i):
        argv = [sys.executable, "-m", "mathieulab.cli"] + self.requests[i][1]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        return proc.stdout

    def in_process(self, i):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = mathieulab.cli.main(self.requests[i][1])
        if code != 0:
            raise RuntimeError(f"exit {code}")
        return captured.getvalue()

    def check(self, i, out):
        name = self.requests[i][0]
        if name == "readme-certify":
            report = json.loads(out)
            f = {(0, 0): Fraction(1), (1, 1): Fraction(-1)}
            return report["status"] == "member" and _verifies(report["witness"], f, 1)
        if name == "lmap-bulk":
            results = json.loads(out)["results"]
            return (len(results) == len(self.lmap_exprs)
                    and [digest(r["result"]) for r in results] == self.lmap_expected)
        return digest(out) == self.expected[name]
