"""Command-line front end: expression parsing, dispatch, JSON/CSV/text reports.

Exit codes: 0 completed, 1 usage error (bad flags, unparsable input,
unsatisfiable preconditions), 2 internal verification failure (a witness or
cross-check that did not re-verify; unreachable on the shipped corpus).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import charp, harness, imagemap, ortho
from .parsing import ParseError, parse_polynomial
from .poly import Polynomial, VariableSet
from .rings import GF, QI, QQ
from .weyl import WeylElement


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _ring_of(args):
    kind = getattr(args, "ring", "q")
    if kind == "q":
        return QQ
    if kind == "qi":
        return QI
    if getattr(args, "p", None) is None:
        raise UsageError("--ring fp requires --p")
    return GF(args.p)


def _problem(args) -> imagemap.ImageProblem:
    return imagemap.ImageProblem(args.n, _ring_of(args))


def _parse(text, ring, variables) -> Polynomial:
    try:
        return parse_polynomial(text, ring, variables)
    except ParseError as exc:
        raise UsageError(str(exc)) from None


def _read_inputs(args):
    texts = list(getattr(args, "inputs", []) or [])
    path = getattr(args, "file", None)
    if path:
        with open(path, encoding="utf-8") as handle:
            texts.extend(line.strip() for line in handle if line.strip())
    if not texts:
        raise UsageError("no input polynomials given")
    return texts


def _emit(report: dict, fmt: str, csv_rows=None):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        if csv_rows is None:
            raise UsageError("csv output is reserved for moment tables and scan matrices")
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
    else:
        for line in _text_lines(report, ""):
            print(line)


def _text_lines(value, prefix):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _text_lines(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _text_lines(v, f"{prefix}{i}.")
    else:
        yield f"{prefix.rstrip('.')}: {value}"


# -- subcommands -------------------------------------------------------

def _cmd_lmap(args):
    problem = _problem(args)
    texts = _read_inputs(args)
    results = []
    for text in texts:
        f = _parse(text, problem.ring, problem.variables)
        results.append({"input": f.to_str(),
                        "result": imagemap.L_map(problem, f).to_str()})
    return {"command": "lmap", "n": args.n, "results": results}, None


def _cmd_decompose(args):
    problem = _problem(args)
    if problem.ring.characteristic:
        raise UsageError("decompose requires characteristic 0")
    f = _parse(_read_inputs(args)[0], problem.ring, problem.variables)
    d = imagemap.decompose(problem, f)
    if imagemap.recompose(d) != f:
        raise AssertionError("decomposition did not recompose to the input")
    components = {",".join(map(str, a)): comp.to_str()
                  for a, comp in sorted(d.components.items())}
    return {"command": "decompose", "input": f.to_str(),
            "components": components}, None


def _cmd_certify(args):
    problem = _problem(args)
    if problem.ring.characteristic:
        raise UsageError("certify requires characteristic 0")
    f = _parse(_read_inputs(args)[0], problem.ring, problem.variables)
    cert = imagemap.certify_imD(problem, f)
    if not cert.verify(f):
        raise AssertionError("certificate failed to re-verify")
    report = cert.as_report()
    report.update({"command": "certify", "input": f.to_str()})
    return report, None


def _cmd_powerscan(args):
    problem = _problem(args)
    f = _parse(_read_inputs(args)[0], problem.ring, problem.variables)
    scan = imagemap.power_scan(problem, f, args.mmax)
    report = scan.as_report()
    report.update({"command": "powerscan", "input": f.to_str()})
    rows = [("m", "value")] + [(m, v) for m, v in
                               enumerate(report["values"], start=1)]
    return report, rows


def _parse_matrix(text, ring):
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise UsageError("matrix literals look like [a,b; c,d]")
    no_vars = VariableSet(())
    rows = []
    for row_text in body[1:-1].split(";"):
        row = []
        for entry in row_text.split(","):
            value = _parse(entry.strip(), ring, no_vars)
            row.append(value.constant_coefficient())
        rows.append(row)
    try:
        return harness.MatrixValue(rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scan_context(args):
    """Oracle plus an element parser for the `scan` subcommand."""
    choice = args.oracle
    ring = _ring_of(args)
    if choice == "kerl":
        problem = _problem(args)
        oracle = harness.kerL_oracle(problem)
        return oracle, lambda t: _parse(t, problem.ring, problem.variables)
    if choice == "laurent":
        t_vars = VariableSet(("t",), laurent=frozenset(("t",)))
        return (harness.laurent_constant_oracle(ring),
                lambda t: _parse(t, ring, t_vars))
    if choice == "trace":
        elements = [_parse_matrix(t, ring) for t in _read_inputs(args)]
        dim = elements[0].dim
        if any(e.dim != dim for e in elements):
            raise UsageError("all matrices must share one dimension")
        try:
            oracle = harness.trace_oracle(dim, ring)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        pool = iter(elements)
        return oracle, lambda _t: next(pool)
    if choice.startswith("moment:"):
        spec = ortho.WeightSpec(choice.split(":", 1)[1],
                                args.alpha or 0, args.beta or 0)
        texts = _read_inputs(args)
        polys = [_parse(t, ring, ortho.X_VARS) for t in texts]
        top = max((0 if p.is_zero() else int(p.total_degree())) for p in polys)
        functional = ortho.moments(spec, top * (args.mmax + 1))
        return (harness.moment_oracle(functional),
                lambda t: _parse(t, ring, ortho.X_VARS))
    raise UsageError(f"unknown oracle {choice!r}")


def _cmd_scan(args):
    try:
        oracle, lift = _scan_context(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    texts = _read_inputs(args)
    f = lift(texts[0])
    gs = [lift(t) for t in texts[1:]]
    report = harness.mathieu_scan(oracle, f, gs, args.mmax).as_report()
    report["command"] = "scan"
    return report, None


def _cmd_gvc(args):
    problem = _problem(args)
    if problem.ring.characteristic:
        raise UsageError("the cross-checked scan requires characteristic 0")
    texts = _read_inputs(args)
    if len(texts) != 3:
        raise UsageError("gvc expects exactly: operator P Q")
    d_vars = VariableSet(tuple(f"d{i}" for i in range(1, args.n + 1)))
    z_vars = VariableSet(problem.z_names)
    op_poly = _parse(texts[0], problem.ring, d_vars)
    operator = WeylElement.constant_coefficient(op_poly, problem.z_names)
    p_poly = _parse(texts[1], problem.ring, z_vars)
    q_poly = _parse(texts[2], problem.ring, z_vars)
    report = harness.gvc_scan(operator, p_poly, q_poly, args.mmax,
                              problem=problem).as_report()
    report.update({"command": "gvc", "operator": texts[0]})
    return report, None


def _cmd_jacobian(args):
    problem = _problem(args)
    texts = _read_inputs(args)
    if len(texts) != args.n:
        raise UsageError(f"jacobian expects {args.n} component polynomials")
    z_vars = VariableSet(problem.z_names)
    h_polys = [_parse(t, problem.ring, z_vars) for t in texts]
    matrix = harness.jacobian_matrix(h_polys, problem.z_names)
    return {"command": "jacobian",
            "map": [h.to_str() for h in h_polys],
            "matrix": matrix.to_str(),
            "nilpotent": matrix.is_nilpotent()}, None


def _weight_spec(args) -> ortho.WeightSpec:
    try:
        return ortho.WeightSpec(args.family, args.alpha, args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_ortho(args):
    spec = _weight_spec(args)
    try:
        gen_routes_ok = True
        functional = ortho.moments(spec, 2 * args.dmax)
        monic = ortho.gram_schmidt(functional, args.dmax)
        rows = []
        for d in range(args.dmax + 1):
            rod = ortho.rodrigues(spec, d)
            lam = ortho.lambda_power(spec, d, d).as_polynomial()
            lam = lam.scale(ortho.rodrigues_constant(spec, d))
            if lam != rod:
                gen_routes_ok = False
            lead = rod.terms.get((d,), QQ.one())
            if rod != monic.polys[d].scale(lead):
                gen_routes_ok = False
            rows.append({"degree": d, "polynomial": rod.to_str(),
                         "monic": monic.polys[d].to_str(),
                         "leading_scalar": str(lead)})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not gen_routes_ok:
        raise AssertionError("generation routes disagree")
    return {"command": "ortho", "family": spec.label(),
            "routes_agree": True, "polynomials": rows}, None


def _cmd_moments(args):
    spec = _weight_spec(args)
    functional = ortho.moments(spec, args.nmax)
    rows = [("degree", "numerator", "denominator")]
    table = []
    for n in range(args.nmax + 1):
        mu = functional.moment(n)
        rows.append((n, mu.numerator, mu.denominator))
        table.append({"degree": n, "numerator": str(mu.numerator),
                      "denominator": str(mu.denominator)})
    return {"command": "moments", "family": spec.label(), "moments": table}, rows


def _cmd_charp(args):
    if args.p is None:
        raise UsageError("charp requires --p")
    mode = args.mode
    if mode == "willems":
        report = charp.willems_scan(args.p, args.kmax).as_report()
    elif mode == "example12":
        report = charp.example12_refutation(args.p, args.bound).as_report()
    elif mode == "theorem51":
        prob = charp.CharPProblem(args.p, args.n)
        problem = prob.image
        texts = _read_inputs(args)
        if len(texts) != 2:
            raise UsageError("theorem51 expects exactly: f g")
        f = _parse(texts[0], problem.ring, problem.variables)
        g = _parse(texts[1], problem.ring, problem.variables)
        report = charp.theorem51_pipeline(f, g, prob).as_report()
    elif mode == "crucial":
        prob = charp.CharPProblem(args.p, 2)
        problem = prob.image
        texts = _read_inputs(args)
        if len(texts) != 3:
            raise UsageError("crucial expects exactly: b p_witness q_witness")
        b, p_wit, q_wit = (_parse(t, problem.ring, problem.variables)
                           for t in texts)
        try:
            witness = charp.crucial_lemma_descent(b, p_wit, q_wit, prob)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        report = {"d": witness.d,
                  "g_top": witness.g_top.to_str(),
                  "g_mid": witness.g_mid.to_str(),
                  "top_component": witness.top_component.to_str(),
                  "verified": witness.verify()}
    else:
        raise UsageError(f"unknown charp mode {mode!r}")
    report["command"] = f"charp.{mode}"
    return report, None


def _cmd_lemma81(args):
    u_vars = VariableSet(("u",))
    g = _parse(_read_inputs(args)[0], QQ, u_vars)
    primes = None
    if args.primes:
        try:
            primes = [int(p) for p in args.primes.split(",")]
        except ValueError:
            raise UsageError("--primes takes a comma-separated integer list") from None
    try:
        report = charp.lemma81_nonvanishing(g, primes).as_report()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report.update({"command": "lemma81", "input": g.to_str()})
    return report, None


def _cmd_conj73(args):
    ring = _ring_of(args)
    if ring.characteristic:
        raise UsageError("the scan pipeline requires characteristic 0")
    problem = imagemap.ImageProblem(1, ring)
    f = _parse(_read_inputs(args)[0], problem.ring, problem.variables)
    try:
        report = imagemap.ic1_pipeline(problem, f, args.mmax)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report.update({"command": "conj73", "input": f.to_str()})
    return report, None


_COMMANDS = {
    "lmap": _cmd_lmap,
    "decompose": _cmd_decompose,
    "certify": _cmd_certify,
    "powerscan": _cmd_powerscan,
    "scan": _cmd_scan,
    "gvc": _cmd_gvc,
    "jacobian": _cmd_jacobian,
    "ortho": _cmd_ortho,
    "moments": _cmd_moments,
    "charp": _cmd_charp,
    "lemma81": _cmd_lemma81,
    "conj73": _cmd_conj73,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mathieulab",
                     description="Exact kernel-map, orthogonal-polynomial and "
                                 "Mathieu-subspace experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs=True):
        p.add_argument("--ring", choices=("q", "qi", "fp"), default="q")
        p.add_argument("--p", type=int, default=None, help="prime modulus for fp")
        p.add_argument("--n", type=int, default=1, help="number of variable pairs")
        p.add_argument("--mmax", type=_positive_int, default=12)
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        if inputs:
            p.add_argument("inputs", nargs="*", help="polynomial expressions")
            p.add_argument("--file", default=None,
                           help="read one expression per line from a file")

    for name in ("lmap", "decompose", "certify", "powerscan", "gvc",
                 "jacobian", "conj73"):
        common(sub.add_parser(name))
    scan_p = sub.add_parser("scan")
    common(scan_p)
    scan_p.add_argument("--oracle", required=True,
                        help="kerl | laurent | trace | moment:<family>")
    scan_p.add_argument("--alpha", type=int, default=0)
    scan_p.add_argument("--beta", type=int, default=0)
    for name in ("ortho", "moments"):
        p = sub.add_parser(name)
        common(p, inputs=False)
        p.add_argument("--family", required=True, choices=ortho.FAMILIES)
        p.add_argument("--alpha", type=int, default=0)
        p.add_argument("--beta", type=int, default=0)
        p.add_argument("--dmax", type=int, default=8)
        p.add_argument("--nmax", type=int, default=16)
    charp_p = sub.add_parser("charp")
    charp_p.add_argument("mode",
                         choices=("theorem51", "willems", "example12", "crucial"))
    common(charp_p)
    charp_p.add_argument("--kmax", type=int, default=3)
    lemma_p = sub.add_parser("lemma81")
    common(lemma_p)
    lemma_p.add_argument("--primes", default=None,
                         help="comma-separated candidate primes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, csv_rows = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report, args.format, csv_rows)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
