"""Text format for exact polynomials.

Grammar (round-trips with Polynomial.to_str):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' ('-')? integer)?
    base   := rational | 'i' | ident | '(' expr ')'

Rationals are `a` or `a/b` with non-negative integer literals of ASCII digits
(any other character, a non-ASCII digit or space too, is an error); `i` is the
imaginary unit (Gaussian coefficient ring only); identifiers are the declared
variable names.  Negative exponents are accepted only on Laurent variables.

One regex search rejects the first character that starts no token, and one
`findall` splits the rest into token strings, with "" for the end of input.
A token's offset is found only for an error message, by scanning the text
again: an error sits at its token's start, or at len(text) at the end.
A group nested deeper than the interpreter's recursion limit allows is an
error at the first '('; every shallower input parses as before.

A term becomes one (key, coeff) pair: `name^k` adds k to one exponent, a
rational or `i` is the coefficient or multiplies it, and the term's sign is
applied once at its end.  Only a parenthesised group or a powered coefficient
is a Polynomial factor, multiplied into the pair.  An expression is one
Polynomial constructor call over its terms' pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, VariableSet
from .rings import RingDescriptor

_TOKEN_RE = re.compile(r"[-+*/^()]|[A-Za-z][A-Za-z0-9]*|[0-9]+")
_BAD_RE = re.compile(r"[^\s0-9A-Za-z+\-*/^()]", re.ASCII)  # starts no token


class ParseError(ValueError):
    """Syntax or semantic error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _error(text: str, index: int, message: str) -> ParseError:
    """`message` at the start of token `index` of `text`, or at its end."""
    for k, match in enumerate(_TOKEN_RE.finditer(text)):
        if k == index:
            return ParseError(message, match.start())
    return ParseError(message, len(text))


def _expected(text: str, tokens: list, index: int, what: str) -> ParseError:
    return _error(text, index, f"expected {what}, found {tokens[index] or 'end of input'!r}")


def parse_polynomial(text: str, ring: RingDescriptor,
                     variables: VariableSet) -> Polynomial:
    """Parse `text` into an exact polynomial over the given ring and variables."""
    if not text.strip():
        raise ParseError("empty input", 0)
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    names = variables.names
    slots = dict(zip(names, range(len(names))))

    def base(i: int) -> tuple:
        """The rational, `i` or group at token i, and the index after it."""
        tok = tokens[i]
        if tok == "(":
            inner, i = expr(i + 1)
            if tokens[i] != ")":
                raise _expected(text, tokens, i, "')'")
            return Polynomial(ring, variables, inner), i + 1
        if tok.isdigit():
            if tokens[i + 1] != "/":
                return ring.from_int(int(tok)), i + 1
            if not tokens[i + 2].isdigit():
                raise _expected(text, tokens, i + 2, "'int'")
            if int(tokens[i + 2]) == 0:
                raise _error(text, i + 2, "zero denominator")
            try:
                return ring.from_fraction(Fraction(int(tok), int(tokens[i + 2]))), i + 3
            except ZeroDivisionError:
                raise _error(text, i, "denominator is zero in the ring") from None
        if tok == "i":
            try:
                return ring.imaginary_unit(), i + 1
            except ValueError:
                raise _error(text, i, "imaginary unit needs the Gaussian "
                                      "coefficient ring") from None
        if tok.isalnum():
            raise _error(text, i, f"unknown variable {tok!r}")
        raise _expected(text, tokens, i, "a value")

    def expr(i: int) -> tuple:
        """The (key, coeff) pairs of every term from token i, and the index after them."""
        pairs = []
        negative = tokens[i] == "-"
        if negative or tokens[i] == "+":
            i += 1
        while True:
            exps = [0] * len(names)
            coeff = None
            factors = []
            while True:
                start = i
                var = slots.get(tokens[i])  # index of a variable base
                if var is None:
                    group = tokens[i] == "("
                    value, i = base(i)
                else:
                    i += 1
                exponent, inverse = 1, False
                if tokens[i] == "^":
                    i += 1
                    if tokens[i] == "-":
                        i += 1
                        inverse = True
                    try:
                        exponent = int(tokens[i])
                    except ValueError:
                        raise _expected(text, tokens, i, "'int'") from None
                    i += 1
                if inverse:
                    if var is None and group and len(value.terms) == 1:  # a bare variable?
                        (key, c), = value.terms.items()
                        if c == ring.one() and 1 in key and key.count(0) == len(key) - 1:
                            var = key.index(1)
                    if var is None or not variables.is_laurent(names[var]):
                        raise _error(text, start,
                                     "negative exponents need a Laurent variable base")
                    exps[var] -= exponent
                elif var is not None:
                    exps[var] += exponent
                elif not group and exponent == 1:
                    coeff = value if coeff is None else coeff * value
                else:
                    if not group:
                        value = Polynomial.constant(ring, variables, value)
                    factors.append(value if exponent == 1 else value ** exponent)
                if tokens[i] != "*":
                    break
                i += 1
            if coeff is None:
                coeff = ring.one()
            if negative:
                coeff = -coeff
            if factors:
                product = Polynomial(ring, variables, {tuple(exps): coeff})
                for factor in factors:
                    product = product * factor
                pairs.extend(product.terms.items())
            else:
                pairs.append((tuple(exps), coeff))
            if tokens[i] != "+" and tokens[i] != "-":
                return pairs, i
            negative = tokens[i] == "-"
            i += 1

    try:
        pairs, i = expr(0)
    except RecursionError:  # each '(' level takes two frames: expr and base
        raise ParseError("parentheses nested too deeply", text.index("(")) from None
    if tokens[i]:
        raise _error(text, i, f"trailing input {tokens[i]!r}")
    return Polynomial(ring, variables, pairs)
