"""Command-line front end: expression parsing, dispatch, JSON/CSV/text reports.

`_COMMANDS` names each subcommand and `charp` mode, its handler and the flags
the handler reads; `_FLAGS` holds each flag's argparse spec, with its range
check.  Exit codes: 0 completed; 1 `usage error:` (bad flags, unparsable or
unreadable input, unsatisfiable preconditions); 2 `VerificationError`, a
result that failed its exact re-check; 141 stdout closed before the report
was written (128 + SIGPIPE).  Any other exception is a bug.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import charp, harness, imagemap, ortho
from .parsing import ParseError, parse_polynomial
from .poly import Polynomial, VariableSet, VerificationError
from .rings import GF, QI, QQ, is_prime
from .weyl import WeylElement


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# argparse reports a type's ValueError as "invalid <its __name__> value"
def _int_at_least(low: int):
    """argparse type for integers that must be at least `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",")]


_prime.__name__ = _int_list.__name__ = "int"


_RINGS = {"q": QQ, "qi": QI}


def _ring_of(args):
    if (args.ring == "fp") != (args.p is not None):
        raise UsageError("--ring fp and --p go together")
    return GF(args.p) if args.ring == "fp" else _RINGS[args.ring]


def _problem(args) -> imagemap.ImageProblem:
    return imagemap.ImageProblem(args.n, _ring_of(args))


def _parse(text, ring, variables) -> Polynomial:
    try:
        return parse_polynomial(text, ring, variables)
    except ParseError as exc:
        raise UsageError(str(exc)) from None


def _read_inputs(args, names=None):
    """The input expressions, one per entry of `names` when that is given."""
    texts = list(args.inputs)
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as handle:
                texts.extend(line.strip() for line in handle if line.strip())
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read --file: {exc}") from None
    if not texts:
        raise UsageError("no input polynomials given")
    if names is not None and len(texts) != len(names):
        raise UsageError(f"expected {len(names)} input(s): {' '.join(names)}")
    return texts


def _emit(report: dict, fmt: str, csv_rows):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
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
    problem = imagemap.ImageProblem(args.n, _RINGS[args.ring])
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
    d = imagemap.decompose(problem, f)
    if imagemap.recompose(d) != f:
        raise VerificationError("decomposition did not recompose to the input")
    components = {",".join(map(str, a)): comp.to_str()
                  for a, comp in sorted(d.components.items())}
    return {"command": "decompose", "input": f.to_str(),
            "components": components}, None


def _cmd_certify(args):
    problem = imagemap.ImageProblem(args.n, _RINGS[args.ring])
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
    cert = imagemap.certify_imD(problem, f)
    if not cert.verify(f):
        raise VerificationError("certificate failed to re-verify")
    report = cert.as_report()
    report.update({"command": "certify", "input": f.to_str()})
    return report, None


def _cmd_powerscan(args):
    problem = _problem(args)
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
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
    spec = _weight_spec(choice.split(":", 1)[1], args)
    polys = [_parse(t, ring, ortho.X_VARS) for t in _read_inputs(args)]
    top = max((0 if p.is_zero() else int(p.total_degree())) for p in polys)
    functional = ortho.moments(spec, top * (args.mmax + 1))
    p = ring.characteristic
    if p and any(mu.denominator % p == 0 for mu in functional.values):
        raise UsageError(f"the {spec.label()} moments have no value mod {p}")
    return (harness.moment_oracle(functional),
            lambda t: _parse(t, ring, ortho.X_VARS))


def _cmd_scan(args):
    oracle, lift = _scan_context(args)
    f, *gs = [lift(t) for t in _read_inputs(args)]
    report = harness.mathieu_scan(oracle, f, gs, args.mmax).as_report()
    report["command"] = "scan"
    return report, None


def _cmd_gvc(args):
    problem = imagemap.ImageProblem(args.n, _RINGS[args.ring])
    texts = _read_inputs(args, ("operator", "P", "Q"))
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
    texts = _read_inputs(args, tuple(f"h{i}" for i in range(1, args.n + 1)))
    z_vars = VariableSet(problem.z_names)
    h_polys = [_parse(t, problem.ring, z_vars) for t in texts]
    matrix = harness.jacobian_matrix(h_polys, problem.z_names)
    return {"command": "jacobian",
            "map": [h.to_str() for h in h_polys],
            "matrix": matrix.to_str(),
            "nilpotent": matrix.is_nilpotent()}, None


def _weight_spec(family, args) -> ortho.WeightSpec:
    try:
        return ortho.WeightSpec(family, args.alpha, args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_ortho(args):
    spec = _weight_spec(args.family, args)
    functional = ortho.moments(spec, 2 * args.dmax)
    monic = ortho.gram_schmidt(functional, args.dmax)
    rows = []
    for d in range(args.dmax + 1):
        rod = ortho.rodrigues(spec, d)
        lam = ortho.lambda_power(spec, d, d).as_polynomial()
        lam = lam.scale(ortho.rodrigues_constant(spec, d))
        lead = rod.terms.get((d,), QQ.one())
        if lam != rod or rod != monic.polys[d].scale(lead):
            raise VerificationError(f"generation routes disagree at degree {d}")
        rows.append({"degree": d, "polynomial": rod.to_str(),
                     "monic": monic.polys[d].to_str(),
                     "leading_scalar": str(lead)})
    return {"command": "ortho", "family": spec.label(),
            "routes_agree": True, "polynomials": rows}, None


def _cmd_moments(args):
    spec = _weight_spec(args.family, args)
    functional = ortho.moments(spec, args.nmax)
    rows = [("degree", "numerator", "denominator")]
    table = []
    for n in range(args.nmax + 1):
        mu = functional.moment(n)
        rows.append((n, mu.numerator, mu.denominator))
        table.append({"degree": n, "numerator": str(mu.numerator),
                      "denominator": str(mu.denominator)})
    return {"command": "moments", "family": spec.label(), "moments": table}, rows


def _cmd_theorem51(args):
    prob = charp.CharPProblem(args.p, args.n)
    problem = prob.image
    f, g = (_parse(t, problem.ring, problem.variables)
            for t in _read_inputs(args, ("f", "g")))
    report = charp.theorem51_pipeline(f, g, prob).as_report()
    report["command"] = "charp.theorem51"
    return report, None


def _cmd_willems(args):
    report = charp.willems_scan(args.p, args.kmax).as_report()
    report["command"] = "charp.willems"
    return report, None


def _cmd_example12(args):
    report = charp.example12_refutation(args.p, args.bound).as_report()
    report["command"] = "charp.example12"
    return report, None


def _cmd_crucial(args):
    prob = charp.CharPProblem(args.p, 2)
    problem = prob.image
    b, p_wit, q_wit = (_parse(t, problem.ring, problem.variables)
                       for t in _read_inputs(args, ("b", "p_witness", "q_witness")))
    try:
        witness = charp.crucial_lemma_descent(b, p_wit, q_wit, prob)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return {"d": witness.d,
            "g_top": witness.g_top.to_str(),
            "g_mid": witness.g_mid.to_str(),
            "top_component": witness.top_component.to_str(),
            "verified": witness.verify(),
            "command": "charp.crucial"}, None


def _cmd_lemma81(args):
    g = _parse(_read_inputs(args, ("g",))[0], QQ, VariableSet(("u",)))
    try:
        report = charp.lemma81_nonvanishing(g, args.primes).as_report()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report.update({"command": "lemma81", "input": g.to_str()})
    return report, None


def _cmd_conj73(args):
    problem = imagemap.ImageProblem(1, _RINGS[args.ring])
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
    report = imagemap.ic1_pipeline(problem, f, args.mmax)
    report.update({"command": "conj73", "input": f.to_str()})
    return report, None


# -- the subcommand table ----------------------------------------------

_FLAGS = {
    "inputs": ("inputs", {"nargs": "*", "help": "polynomial expressions"}),
    "file": ("--file", {"help": "read one expression per line from a file"}),
    "ring": ("--ring", {"choices": ("q", "qi", "fp"), "default": "q"}),
    # decompose, certify, gvc and conj73 work in characteristic 0 only
    "ring0": ("--ring", {"choices": ("q", "qi"), "default": "q"}),
    "p": ("--p", {"type": _prime, "help": "prime modulus for --ring fp"}),
    "prime": ("--p", {"type": _prime, "required": True, "help": "the characteristic"}),
    "n": ("--n", {"type": _int_at_least(1), "default": 1, "help": "variable pairs"}),
    "mmax": ("--mmax", {"type": _int_at_least(1), "default": 12}),
    "kmax": ("--kmax", {"type": _int_at_least(1), "default": 3}),
    "bound": ("--bound", {"type": _int_at_least(1), "help": "degree bound (default 4p)"}),
    "dmax": ("--dmax", {"type": _int_at_least(0), "default": 8}),
    "nmax": ("--nmax", {"type": _int_at_least(0), "default": 16}),
    "alpha": ("--alpha", {"type": _int_at_least(0), "default": 0}),
    "beta": ("--beta", {"type": _int_at_least(0), "default": 0}),
    "family": ("--family", {"choices": ortho.FAMILIES, "required": True}),
    "ortho_family": ("--family", {"choices": ("hermite", "laguerre", "jacobi",
                                              "legendre"), "required": True}),
    "oracle": ("--oracle", {"required": True, "choices": ("kerl", "laurent", "trace")
                            + tuple(f"moment:{family}" for family in ortho.FAMILIES)}),
    "primes": ("--primes", {"type": _int_list, "help": "comma-separated candidate primes"}),
    "format": ("--format", {"choices": ("json", "text"), "default": "json"}),
    "table_format": ("--format", {"choices": ("json", "csv", "text"), "default": "json"}),
}

_INPUT = ("inputs", "file")
_RING = _INPUT + ("ring", "p", "n")
_RING0 = _INPUT + ("ring0", "n")

# name -> (handler, the flags it reads), or a table of modes
_COMMANDS = {
    "lmap": (_cmd_lmap, _RING + ("format",)),
    "decompose": (_cmd_decompose, _RING0 + ("format",)),
    "certify": (_cmd_certify, _RING0 + ("format",)),
    "powerscan": (_cmd_powerscan, _RING + ("mmax", "table_format")),
    "scan": (_cmd_scan, _RING + ("oracle", "mmax", "alpha", "beta", "format")),
    "gvc": (_cmd_gvc, _RING0 + ("mmax", "format")),
    "jacobian": (_cmd_jacobian, _RING + ("format",)),
    "ortho": (_cmd_ortho, ("ortho_family", "alpha", "beta", "dmax", "format")),
    "moments": (_cmd_moments, ("family", "alpha", "beta", "nmax", "table_format")),
    "charp": {
        "theorem51": (_cmd_theorem51, _INPUT + ("prime", "n", "format")),
        "willems": (_cmd_willems, ("prime", "kmax", "format")),
        "example12": (_cmd_example12, ("prime", "bound", "format")),
        "crucial": (_cmd_crucial, _INPUT + ("prime", "format")),
    },
    "lemma81": (_cmd_lemma81, _INPUT + ("primes", "format")),
    "conj73": (_cmd_conj73, _INPUT + ("ring0", "mmax", "format")),
}


def _add_commands(parser, table, dest):
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, entry in table.items():
        p = sub.add_parser(name, allow_abbrev=False)
        if isinstance(entry, dict):
            _add_commands(p, entry, "mode")
            continue
        handler, flags = entry
        p.set_defaults(handler=handler)
        for flag in flags:
            option, spec = _FLAGS[flag]
            p.add_argument(option, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mathieulab", allow_abbrev=False,
                     description="Exact kernel-map, orthogonal-polynomial and "
                                 "Mathieu-subspace experiments")
    _add_commands(parser, _COMMANDS, "command")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, csv_rows = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report, args.format, csv_rows)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at interpreter exit cannot fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
