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

A term becomes one (key, coeff) pair: `name^k` adds k to one exponent, and a
sign, rational or `i` multiplies the coefficient.  Only a parenthesised group
or a powered coefficient is a Polynomial factor, multiplied into the pair.  An
expression is one Polynomial constructor call over its terms' pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, VariableSet
from .rings import RingDescriptor

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                       r"|(?P<punct>[+\-*/^()])|(?P<bad>\S))", re.ASCII)


class ParseError(ValueError):
    """Syntax or semantic error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list:
    """(kind, text, position) tuples; kind is "int", "name", the punctuation or "end"."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m['bad']!r}", m.start(kind))
        tokens.append((m[kind] if kind == "punct" else kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: RingDescriptor, variables: VariableSet):
        self.tokens = _tokenize(text)
        self.index = 0
        self.ring = ring
        self.variables = variables

    def _peek(self) -> str:
        return self.tokens[self.index][0]

    def _advance(self) -> tuple:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def _expect(self, kind: str) -> tuple:
        found, text, position = self._advance()
        if found != kind:
            raise ParseError(f"expected {kind!r}, found {text or 'end of input'!r}", position)
        return found, text, position

    def parse(self) -> Polynomial:
        pairs = self.expr()
        kind, text, position = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", position)
        return Polynomial(self.ring, self.variables, pairs)

    def expr(self) -> list:
        """The (key, coeff) pairs of every term, for one constructor call to sum."""
        one = self.ring.one()
        sign = -one if self._peek() == "-" else one
        if self._peek() in ("+", "-"):
            self.index += 1
        pairs = self.term(sign)
        while self._peek() in ("+", "-"):
            pairs.extend(self.term(-one if self._advance()[0] == "-" else one))
        return pairs

    def term(self, coeff) -> list:
        ring, variables = self.ring, self.variables
        names = variables.names
        exps = [0] * len(names)
        factors = []
        while True:
            kind, text, position = self._advance()
            var = None  # index of a variable base
            if kind == "(":
                value = Polynomial(ring, variables, self.expr())
                self._expect(")")
            elif kind == "int":
                value = self._rational(text, position)
            elif kind == "name" and text == "i" and "i" not in names:
                try:
                    value = ring.imaginary_unit()
                except ValueError:
                    raise ParseError("imaginary unit needs the Gaussian "
                                     "coefficient ring", position) from None
            elif kind == "name":
                if text not in names:
                    raise ParseError(f"unknown variable {text!r}", position)
                var = names.index(text)
            else:
                raise ParseError(f"expected a value, found {text or 'end of input'!r}",
                                 position)
            exponent, negative = 1, False
            if self._peek() == "^":
                self.index += 1
                if self._peek() == "-":
                    self.index += 1
                    negative = True
                exponent = int(self._expect("int")[1])
            if negative:
                if kind == "(" and len(value.terms) == 1:  # a bare variable?
                    (key, c), = value.terms.items()
                    if c == ring.one() and 1 in key and key.count(0) == len(key) - 1:
                        var = key.index(1)
                if var is None or not variables.is_laurent(names[var]):
                    raise ParseError("negative exponents need a Laurent variable base",
                                     position)
                exps[var] -= exponent
            elif var is not None:
                exps[var] += exponent
            elif kind != "(" and exponent == 1:
                coeff = coeff * value
            else:
                if kind != "(":
                    value = Polynomial.constant(ring, variables, value)
                factors.append(value if exponent == 1 else value ** exponent)
            if self._peek() != "*":
                break
            self.index += 1
        if not factors:
            return [(tuple(exps), coeff)]
        product = Polynomial(ring, variables, {tuple(exps): coeff})
        for factor in factors:
            product = product * factor
        return list(product.terms.items())

    def _rational(self, text: str, position: int):
        numerator, denominator = int(text), 1
        if self._peek() == "/":
            self.index += 1
            _, text, denom_position = self._expect("int")
            denominator = int(text)
            if denominator == 0:
                raise ParseError("zero denominator", denom_position)
        try:
            return self.ring.from_fraction(Fraction(numerator, denominator))
        except ZeroDivisionError:
            raise ParseError("denominator is zero in the ring", position) from None


def parse_polynomial(text: str, ring: RingDescriptor,
                     variables: VariableSet) -> Polynomial:
    """Parse `text` into an exact polynomial over the given ring and variables."""
    if not text.strip():
        raise ParseError("empty input", 0)
    return _Parser(text, ring, variables).parse()
