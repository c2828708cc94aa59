"""Exact term-dict arithmetic over Q that does not use mathieulab.

A polynomial is a dict from exponent tuples to nonzero Fractions, with the
variables w1..wn, z1..zn in that order.  The benchmark uses this module to
build inputs and to re-verify the program's outputs independently of
`mathieulab.poly`: the kernel map L, the image sum of a certificate witness,
and a reader for the program's canonical output text.
"""

from __future__ import annotations

from fractions import Fraction


def pair_names(n: int) -> tuple:
    return tuple(f"w{i}" for i in range(1, n + 1)) + tuple(f"z{i}" for i in range(1, n + 1))


def _add_term(acc: dict, key: tuple, c) -> None:
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for key, c in g.items():
        _add_term(out, key, sign * c)
    return out


def _falling(b: int, a: int) -> int:
    out = 1
    for j in range(a):
        out *= b - j
    return out


def lmap(f: dict, n: int) -> dict:
    """L(w^a z^b) = d^a(z^b): zero unless a <= b componentwise."""
    out = {}
    for e, c in f.items():
        a, b = e[:n], e[n:]
        if any(ai > bi for ai, bi in zip(a, b)):
            continue
        scale = 1
        for ai, bi in zip(a, b):
            scale *= _falling(bi, ai)
        _add_term(out, (0,) * n + tuple(bi - ai for ai, bi in zip(a, b)), c * scale)
    return out


def image_sum(witness: list, n: int) -> dict:
    """sum_i (d/dz_i - w_i) h_i, the element a membership witness certifies."""
    out = {}
    for i, h in enumerate(witness):
        w_i, z_i = i, n + i
        for e, c in h.items():
            if e[z_i]:
                _add_term(out, e[:z_i] + (e[z_i] - 1,) + e[z_i + 1:], c * e[z_i])
            _add_term(out, e[:w_i] + (e[w_i] + 1,) + e[w_i + 1:], -c)
    return out


def format_expr(f: dict, names: tuple) -> str:
    """Input text in the CLI grammar, e.g. `-3/2*w1^2*z1 + z2`."""
    pieces = []
    for e, c in sorted(f.items(), key=lambda item: (-sum(item[0]), item[0])):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)
        mag = abs(c)
        body = f"{mag}*{mono}" if mono and mag != 1 else (mono or str(mag))
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(pieces) or "0"


def parse_output(text: str, names: tuple) -> dict:
    """Read a Q polynomial printed by the program (`Polynomial.to_str`)."""
    index = {v: i for i, v in enumerate(names)}
    out = {}
    if text == "0":
        return out
    body = text.replace(" - ", " + -").split(" + ")
    for piece in body:
        sign = -1 if piece.startswith("-") else 1
        factors = piece.lstrip("-").split("*")
        coeff = Fraction(1)
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        exps = [0] * len(names)
        for factor in factors:
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power or 1)
        _add_term(out, tuple(exps), sign * coeff)
    return out
