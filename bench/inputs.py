"""Seeded workload inputs, built with the standard library only.

Every input is drawn from a finite corpus: a fixed list of slots, each with
`VARIANTS` variants.  A slot fixes its input (number of pairs, exponents,
coefficients, scan kind and size) from a fixed master stream.  A variant
applies a ring automorphism that commutes with the kernel map L: w_i -> +-w_i
together with z_i -> +-z_i (t -> -t for Laurent inputs), an overall sign,
complex conjugation over Q(i), a unit factor over F_p.  Such a map changes the
output but not which terms meet or cancel, so every variant costs the same
polynomial work (lemma 8.1 inputs, whose ops take about a millisecond, get
plain coefficient sign flips instead).  The run seed picks one variant per
slot.  That keeps
seed-to-seed spread small, and every output that can occur has a digest
recorded in `golden.json`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from terms import add, format_expr, lmap, pair_names

MASTER = "mathieulab-bench-1"
VARIANTS = 8
CORPUS_SLOTS = 600  # certify uses the first CERTIFY_SLOTS, lmap the n = 3 ones
CERTIFY_SLOTS = 450  # p99 then falls mid-request, 4.5 requests from the top
LMAP_LINES = 300


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, (MASTER,) + parts)))


def seed_variants(workload: str, seed: int, count: int) -> list:
    rng = _rng(workload, "seed", seed)
    return [rng.randrange(VARIANTS) for _ in range(count)]


# -- certify: Q polynomials in n = 2 or 3 pairs ------------------------

class Expr:
    """One corpus polynomial: its term dict, pair count and input text."""

    __slots__ = ("slot", "variant", "n", "terms", "text")

    def __init__(self, slot, variant, n, terms):
        self.slot, self.variant, self.n, self.terms = slot, variant, n, terms
        self.text = format_expr(terms, pair_names(n))


def _signs(variant: int, k: int) -> list:
    """k signs +-1 read from the low bits of the variant."""
    return [-1 if variant >> i & 1 else 1 for i in range(k)]


def _pair_sign(e: tuple, signs: list, n: int) -> int:
    """Sign of w^a z^b under w_i -> s_i w_i, z_i -> s_i z_i (e = a + b)."""
    out = 1
    for i in range(n):
        if (e[i] + e[n + i]) % 2:
            out *= signs[i]
    return out


def _var_sign(e: tuple, signs: list) -> int:
    """Sign of a monomial under x_i -> s_i x_i."""
    out = 1
    for k, s in zip(e, signs):
        if k % 2:
            out *= s
    return out


def _certify_skeleton(slot: int):
    """Shape of a slot, as in tests/conftest.random_polynomial.

    Slots with slot % 4 in (2, 3) are built as f - L(f), which lies in Im D;
    their base has at most 3 terms so that f - L(f) has at most 6.
    """
    rng = _rng("certify-shape", slot)
    n = 2 + slot % 2
    member = slot % 4 >= 2
    degree = rng.randint(2, 5)
    count = rng.randint(1, 3 if member else 6)
    while True:
        exps = []
        while len(exps) < count:
            e = tuple(rng.randint(0, degree) for _ in range(2 * n))
            if e not in exps:
                exps.append(e)
        if not member or any(any(e[:n]) for e in exps):
            break
    coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
              for _ in exps]
    return n, member, exps, coeffs


def certify_expr(slot: int, variant: int) -> Expr:
    n, member, exps, coeffs = _certify_skeleton(slot)
    signs = _signs(variant, 3)  # for n = 2 the third bit is an overall sign
    overall = signs[2] if n == 2 else 1
    f = {e: overall * _pair_sign(e, signs, n) * c for e, c in zip(exps, coeffs)}
    if member:
        f = add(f, lmap(f, n), -1)
    return Expr(slot, variant, n, f)


def certify_inputs(seed: int) -> list:
    variants = seed_variants("certify", seed, CERTIFY_SLOTS)
    return [certify_expr(slot, v) for slot, v in enumerate(variants)]


def lmap_inputs(seed: int) -> list:
    """The bulk `lmap --file` lines: the n = 3 certify slots, seeded variants."""
    slots = range(1, 2 * LMAP_LINES, 2)
    variants = seed_variants("lmap", seed, LMAP_LINES)
    return [certify_expr(slot, v) for slot, v in zip(slots, variants)]


# -- scans: one request per slot ---------------------------------------

# (kind, parameters) per slot; the order interleaves heavy and light requests
# so that a run cut at any point has about the same mix.
SCAN_SLOTS = (
    ("gvc", {"mmax": 7}),
    ("power", {"ring": "qi", "terms": 4, "mmax": 11}),
    ("lemma81", {"degree": 3}),
    ("power", {"ring": "fp", "p": 7, "terms": 6, "mmax": 12}),
    ("willems", {"p": 2, "kmax": 7}),
    ("power", {"ring": "fp", "p": 1000003, "terms": 5, "mmax": 11}),
    ("mathieu", {"oracle": "laurent", "mmax": 20}),
    ("willems", {"p": 2, "kmax": 8}),
    ("power", {"ring": "qi", "terms": 5, "mmax": 10}),
    ("mathieu", {"oracle": "kerl", "mmax": 8}),
    ("power", {"ring": "fp", "p": 7, "terms": 5, "mmax": 12}),
    ("willems", {"p": 3, "kmax": 4}),
    ("lemma81", {"degree": 4}),
    ("power", {"ring": "fp", "p": 1000003, "terms": 4, "mmax": 12}),
    ("gvc", {"mmax": 6}),
    ("power", {"ring": "fp", "p": 7, "terms": 5, "mmax": 11}),
    ("power", {"ring": "qi", "terms": 4, "mmax": 12}),
    ("mathieu", {"oracle": "laurent", "mmax": 24}),
    ("willems", {"p": 5, "kmax": 3}),
    ("power", {"ring": "fp", "p": 7, "terms": 6, "mmax": 11}),
    ("mathieu", {"oracle": "kerl", "mmax": 7}),
    ("gvc", {"mmax": 9}),
    ("power", {"ring": "fp", "p": 1000003, "terms": 6, "mmax": 10}),
    ("gvc", {"mmax": 8}),
    ("lemma81", {"degree": 2}),
)


def _rational(shape, high, den=1) -> Fraction:
    return Fraction(shape.choice((-1, 1)) * shape.randint(1, high), shape.randint(1, den))


def _qi_text(re: Fraction, im: Fraction) -> str:
    if not im:
        return f"({re})"
    sign = "-" if im < 0 else "+"
    return f"({re} {sign} {abs(im)}*i)" if re else f"({im}*i)"


def _join(pairs, names) -> str:
    """`coeff*monomial` pieces joined by ' + '; coefficients are given as text."""
    text = ""
    for coeff, exps in pairs:
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, exps) if k)
        negative = coeff.startswith("-")
        body = coeff.lstrip("-")
        body = f"{body}*{mono}" if mono else body
        if text:
            text += f" - {body}" if negative else f" + {body}"
        else:
            text = f"-{body}" if negative else body
    return text


def _distinct(rng, count, draw):
    out = []
    while len(out) < count:
        e = draw()
        if e not in out:
            out.append(e)
    return out


def scan_request(slot: int, variant: int) -> dict:
    kind, params = SCAN_SLOTS[slot]
    shape = _rng("scan-shape", slot)
    signs = _signs(variant, 3)
    req = dict(params, kind=kind)
    if kind == "power":
        exps = _distinct(shape, params["terms"],
                         lambda: tuple(shape.randint(0, 2) for _ in range(4)))
        if params["ring"] == "qi":
            coeffs = []
            for e in exps:
                re = Fraction(shape.randint(0, 4), shape.randint(1, 3))
                im = Fraction(shape.randint(0 if re else 1, 4), shape.randint(1, 3))
                sign = _pair_sign(e, signs, 2)
                coeffs.append(_qi_text(sign * re, sign * signs[2] * im))  # conjugation
        else:
            p = params["p"]
            unit = 2 if signs[2] < 0 else 1
            coeffs = [str(shape.randrange(1, p) * unit * _pair_sign(e, signs, 2) % p)
                      for e in exps]
        req["f"] = _join(zip(coeffs, exps), pair_names(2))
    elif kind == "gvc":
        op = _distinct(shape, 2, lambda: (shape.randint(0, 2), shape.randint(0, 2)))
        op = [e for e in op if any(e)] or [(1, 0)]
        p_exps = _distinct(shape, 2, lambda: (shape.randint(0, 2), shape.randint(0, 2)))
        q_exps = [(shape.randint(0, 2), shape.randint(0, 2))]

        def poly(exps, names, overall=1):
            return _join(((str(overall * _var_sign(e, signs) * _rational(shape, 3)), e)
                          for e in exps), names)
        req["operator"] = poly(op, ("d1", "d2"))
        req["p_poly"] = poly(p_exps, ("z1", "z2"), signs[2])
        req["q_poly"] = poly(q_exps, ("z1", "z2"))
    elif kind == "mathieu" and params["oracle"] == "laurent":
        f_exps = _distinct(shape, 3, lambda: (shape.randint(1, 3),))
        g_exps = [(-shape.randint(1, 4),), (-shape.randint(2, 5),)]
        req["f"] = _join(((str(signs[1] * _var_sign(e, signs) * _rational(shape, 4)), e)
                          for e in f_exps), ("t",))
        req["gs"] = [_join([(str(signs[2] * _var_sign(e, signs) * _rational(shape, 4)), e)],
                           ("t",)) for e in g_exps]
    elif kind == "mathieu":
        # every term of f has more w-degree than z-degree, so L(f^m) = 0 for all m
        def negative_grade():
            a = (shape.randint(0, 2), shape.randint(0, 2))
            b = (shape.randint(0, 1), shape.randint(0, 1))
            return a + b if sum(a) > sum(b) else (a[0] + 1, a[1], 0, 0)
        f_exps = _distinct(shape, 3, negative_grade)
        g_exps = [(0, 0, shape.randint(0, 2), shape.randint(1, 2)), (0, 0, 1, 0)]
        names = pair_names(2)
        req["f"] = _join(((str(signs[2] * _pair_sign(e, signs, 2) * _rational(shape, 3)), e)
                          for e in f_exps), names)
        req["gs"] = [_join([(str(_pair_sign(e, signs, 2) * _rational(shape, 3)), e)], names)
                     for e in g_exps]
    elif kind == "lemma81":
        # L(g^p) is not invariant under these sign flips, but the op is tiny
        exps = sorted(_distinct(shape, 3, lambda: (shape.randint(0, params["degree"]),)))
        coeffs = [str(s * _rational(shape, 5, den=3)) for s, _ in zip(signs, exps)]
        req["g"] = _join(zip(coeffs, exps), ("u",))
        # candidates start below the admissible range, so some are tried in vain
        req["primes"] = list(range(2, 40))
    return req


def scan_inputs(seed: int) -> list:
    variants = seed_variants("scans", seed, len(SCAN_SLOTS))
    return [(slot, v, scan_request(slot, v)) for slot, v in enumerate(variants)]


# -- cli: a fixed cycle of subcommand calls ----------------------------

# The README examples, the ortho closed forms at d = 12 and the other
# subcommands the cycle names; the bulk lmap call reads a seeded file.
CLI_REQUESTS = (
    ("readme-certify", ["certify", "1 - w1*z1", "--n", "1"]),
    ("ortho-jacobi", ["ortho", "--family", "jacobi", "--alpha", "3", "--beta", "2",
                      "--dmax", "12"]),
    ("readme-powerscan", ["powerscan", "w1*z1", "--n", "1", "--mmax", "5"]),
    ("readme-ortho", ["ortho", "--family", "laguerre", "--alpha", "0", "--dmax", "4"]),
    ("ortho-hermite", ["ortho", "--family", "hermite", "--dmax", "12"]),
    ("readme-moments", ["moments", "--family", "hermite", "--nmax", "8", "--format", "csv"]),
    ("lmap-bulk", ["lmap", "--n", "3", "--file", None]),
    ("readme-willems", ["charp", "willems", "--p", "2", "--kmax", "3"]),
    ("ortho-laguerre", ["ortho", "--family", "laguerre", "--alpha", "2", "--dmax", "12"]),
    ("readme-lemma81", ["lemma81", "u - 1"]),
    ("moments", ["moments", "--family", "jacobi", "--alpha", "3", "--beta", "2",
                 "--nmax", "24"]),
    ("readme-scan", ["scan", "--oracle", "laurent", "t^-1 + t", "--mmax", "8"]),
    ("ortho-legendre", ["ortho", "--family", "legendre", "--dmax", "12"]),
    ("charp-example12", ["charp", "example12", "--p", "5"]),
    ("conj73", ["conj73", "w1^2*z1 + z1"]),
)


def cli_requests(lmap_path: str) -> list:
    """(name, argv) pairs; the bulk lmap call reads `lmap_path`."""
    return [(name, [lmap_path if a is None else a for a in argv])
            for name, argv in CLI_REQUESTS]
