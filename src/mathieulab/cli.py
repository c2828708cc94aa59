"""Command-line front end: expression parsing, dispatch, JSON/CSV/text reports.

`_COMMANDS` names each subcommand and `charp` mode, its handler and the flags
the handler reads; `_FLAGS` holds each flag's argparse spec, with its range
check.  Each handler imports the modules it runs on first use, and `main`
gives flags only to the subcommand it runs, so a cold call loads only its
subcommand's modules and builds only its parser.  A handler returns a
`Report` of typed values and, for `--format csv`, its rows; `main` prints
both, the one place that turns a value into text.  Exit codes: 0
completed; 1 `usage error:` (bad flags, unparsable or unreadable input,
unsatisfiable preconditions); 2 `VerificationError`, a result that failed its
exact re-check; 141 stdout closed before the report was written (128 +
SIGPIPE).  Any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import dropwhile

from .poly import Polynomial, Report, VariableSet, VerificationError, _printed
from .rings import GF, QI, QQ, is_prime


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
    try:
        if is_prime(value):
            return value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"{value} is not prime")


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",")]


_prime.__name__ = _int_list.__name__ = "int"


_RINGS = {"q": QQ, "qi": QI}


def _ring_of(args):
    if (args.ring == "fp") != (args.p is not None):
        raise UsageError("--ring fp and --p go together")
    return GF(args.p) if args.ring == "fp" else _RINGS[args.ring]


def _problem(args) -> imagemap.ImageProblem:
    from . import imagemap
    return imagemap.ImageProblem(args.n, _ring_of(args))


def _parse(text, ring, variables) -> Polynomial:
    from .parsing import ParseError, parse_polynomial
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
        import csv
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
    from . import imagemap
    problem = _problem(args)
    texts = _read_inputs(args)
    results = []
    for text in texts:
        f = _parse(text, problem.ring, problem.variables)
        results.append({"input": f, "result": imagemap.L_map(problem, f)})
    return Report(command="lmap", n=args.n, results=results), None


def _cmd_decompose(args):
    from . import imagemap
    problem = imagemap.ImageProblem(args.n, _RINGS[args.ring])
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
    components = imagemap.decompose(problem, f)
    if imagemap.recompose(problem, components) != f:
        raise VerificationError("decomposition did not recompose to the input")
    return Report(command="decompose", input=f, components={
        ",".join(map(str, a)): comp for a, comp in sorted(components.items())}), None


def _cmd_certify(args):
    from . import imagemap
    problem = imagemap.ImageProblem(args.n, _RINGS[args.ring])
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
    cert = imagemap.certify_imD(problem, f)  # re-verified before it returns
    return Report(**vars(cert), command="certify", input=f), None


def _cmd_powerscan(args):
    from . import imagemap
    problem = _problem(args)
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
    scan = imagemap.power_scan(problem, f, args.mmax)
    rows = [("m", "value")] + list(enumerate(scan.values, start=1))
    return Report(**vars(scan), command="powerscan", input=f), rows


def _parse_matrix(text, ring):
    from . import harness
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise UsageError("matrix literals look like [a,b; c,d]")
    no_vars = VariableSet(())
    rows = [[_parse(entry.strip(), ring, no_vars).constant_coefficient()
             for entry in row_text.split(",")] for row_text in body[1:-1].split(";")]
    try:
        return harness.MatrixValue(rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scan_context(args):
    """The oracle and the parsed input elements of the `scan` subcommand, and the
    usage error that a ZeroDivisionError in its scan means (None: no such error)."""
    from . import harness
    choice = args.oracle
    ring = _ring_of(args)
    if choice == "kerl":
        problem = _problem(args)
        return (harness.kerL_oracle(problem),
                [_parse(t, ring, problem.variables) for t in _read_inputs(args)], None)
    if choice == "laurent":
        t_vars = VariableSet(("t",), laurent=frozenset(("t",)))
        return (harness.laurent_constant_oracle(ring),
                [_parse(t, ring, t_vars) for t in _read_inputs(args)], None)
    if choice == "trace":
        elements = [_parse_matrix(t, ring) for t in _read_inputs(args)]
        dim = elements[0].dim
        if any(e.dim != dim for e in elements):
            raise UsageError("all matrices must share one dimension")
        try:
            return harness.trace_oracle(dim, ring), elements, None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    from . import ortho
    spec = _weight_spec(choice.split(":", 1)[1], args)
    polys = [_parse(t, ring, ortho.X_VARS) for t in _read_inputs(args)]
    return (harness.moment_oracle(ortho.MomentFunctional(spec)), polys,
            f"the {spec.label()} moments have no value mod {ring.characteristic}")


def _cmd_scan(args):
    from . import harness
    oracle, (f, *gs), no_value = _scan_context(args)
    try:
        scan = harness.mathieu_scan(oracle, f, gs, args.mmax)
    except ZeroDivisionError:  # over F_p, a moment that the scan reads has p in its denominator
        if no_value is None:
            raise
        raise UsageError(no_value) from None
    return Report(**vars(scan), command="scan"), None


def _cmd_gvc(args):
    from . import harness, imagemap
    from .weyl import WeylElement
    problem = imagemap.ImageProblem(args.n, _RINGS[args.ring])
    texts = _read_inputs(args, ("operator", "P", "Q"))
    d_vars = VariableSet(tuple(f"d{i}" for i in range(1, args.n + 1)))
    z_vars = VariableSet(problem.z_names)
    op_poly = _parse(texts[0], problem.ring, d_vars)
    operator = WeylElement.constant_coefficient(op_poly, problem.z_names)
    p_poly = _parse(texts[1], problem.ring, z_vars)
    q_poly = _parse(texts[2], problem.ring, z_vars)
    scan = harness.gvc_scan(operator, p_poly, q_poly, args.mmax, problem=problem)
    return Report(**vars(scan), command="gvc", operator=texts[0]), None


def _cmd_jacobian(args):
    from . import harness
    problem = _problem(args)
    texts = _read_inputs(args, tuple(f"h{i}" for i in range(1, args.n + 1)))
    z_vars = VariableSet(problem.z_names)
    h_polys = [_parse(t, problem.ring, z_vars) for t in texts]
    matrix = harness.jacobian_matrix(h_polys, problem.z_names)
    return Report(command="jacobian", map=h_polys, matrix=matrix,
                  nilpotent=matrix.is_nilpotent()), None


def _weight_spec(family, args) -> ortho.WeightSpec:
    from . import ortho
    try:
        return ortho.WeightSpec(family, args.alpha, args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_ortho(args):
    from . import ortho
    spec = _weight_spec(args.family, args)
    monic = ortho.gram_schmidt(ortho.MomentFunctional(spec), args.dmax)
    rows = []
    for d in range(args.dmax + 1):
        rod = ortho.rodrigues(spec, d)
        lam = ortho.lambda_power(spec, d).scale(ortho.rodrigues_constant(spec, d))
        lead = rod.terms.get((d,), QQ.one())
        if lam != rod:
            raise VerificationError(f"operator route disagrees with Rodrigues at degree {d}")
        if rod != monic[d].scale(lead):
            raise VerificationError(f"Gram-Schmidt disagrees with Rodrigues at degree {d}")
        rows.append({"degree": d, "polynomial": rod, "monic": monic[d], "leading_scalar": lead})
    return Report(command="ortho", family=spec.label(), routes_agree=True,
                  polynomials=rows), None


def _cmd_moments(args):
    from . import ortho
    spec = _weight_spec(args.family, args)
    functional = ortho.MomentFunctional(spec)
    rows = [("degree", "numerator", "denominator")]
    table = []
    for n in range(args.nmax + 1):
        mu = functional.moment(n)
        rows.append((n, mu.numerator, mu.denominator))
        table.append({"degree": n, "numerator": str(mu.numerator),
                      "denominator": str(mu.denominator)})
    return Report(command="moments", family=spec.label(), moments=table), rows


def _cmd_theorem51(args):
    from . import charp, imagemap
    problem = imagemap.ImageProblem(args.n, GF(args.p))
    f, g = (_parse(t, problem.ring, problem.variables)
            for t in _read_inputs(args, ("f", "g")))
    report = charp.theorem51_pipeline(f, g, problem)
    return Report(**vars(report), command="charp.theorem51"), None


def _cmd_willems(args):
    from . import charp
    return Report(**vars(charp.willems_scan(args.p, args.kmax)), command="charp.willems"), None


def _cmd_example12(args):
    from . import charp
    try:
        report = charp.example12_refutation(args.p, args.bound)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return Report(**vars(report), command="charp.example12"), None


def _cmd_crucial(args):
    from . import charp, imagemap
    problem = imagemap.ImageProblem(2, GF(args.p))
    b, p_wit, q_wit = (_parse(t, problem.ring, problem.variables)
                       for t in _read_inputs(args, ("b", "p_witness", "q_witness")))
    try:
        report = charp.crucial_lemma_descent(b, p_wit, q_wit, problem)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return Report(**vars(report), command="charp.crucial"), None


def _cmd_lemma81(args):
    from . import charp
    g = _parse(_read_inputs(args, ("g",))[0], QQ, VariableSet(("u",)))
    try:
        report = charp.lemma81_nonvanishing(g, args.primes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return Report(**vars(report), command="lemma81", input=g), None


def _cmd_conj73(args):
    from . import imagemap
    problem = imagemap.ImageProblem(1, _RINGS[args.ring])
    f = _parse(_read_inputs(args, ("f",))[0], problem.ring, problem.variables)
    report = imagemap.ic1_pipeline(problem, f, args.mmax)
    return Report(**vars(report), command="conj73", input=f), None


# -- the subcommand table ----------------------------------------------

# ortho.FAMILIES, spelled out so that parsing flags does not import ortho
_FAMILIES = ("hermite", "laguerre", "jacobi", "legendre", "uniform01")

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
    "family": ("--family", {"choices": _FAMILIES, "required": True}),
    "ortho_family": ("--family", {"choices": ("hermite", "laguerre", "jacobi",
                                              "legendre"), "required": True}),
    "oracle": ("--oracle", {"required": True, "choices": ("kerl", "laurent", "trace")
                            + tuple(f"moment:{family}" for family in _FAMILIES)}),
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


def _add_commands(parser, table, dest, argv):
    """Register every name of `table`, and give flags only to the one `argv`
    names, its first word that does not start with '-': the one argparse runs."""
    sub = parser.add_subparsers(dest=dest, required=True)
    words = list(dropwhile(lambda a: a.startswith("-"), argv))
    for name, entry in table.items():
        p = sub.add_parser(name, allow_abbrev=False)
        if words[:1] != [name]:
            continue
        if isinstance(entry, dict):
            _add_commands(p, entry, "mode", words[1:])
            continue
        handler, flags = entry
        p.set_defaults(handler=handler)
        for flag in flags:
            option, spec = _FLAGS[flag]
            p.add_argument(option, **spec)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser tree for `argv`, with flags for the command it names only."""
    parser = _Parser(prog="mathieulab", allow_abbrev=False,
                     description="Exact kernel-map, orthogonal-polynomial and "
                                 "Mathieu-subspace experiments")
    _add_commands(parser, _COMMANDS, "command", argv)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        report, csv_rows = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report.as_report(), args.format, _printed(csv_rows))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at interpreter exit cannot fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
