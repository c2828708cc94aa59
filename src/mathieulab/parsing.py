"""Text format for exact polynomials.

Grammar (round-trips with Polynomial.to_str):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' ('-')? integer)?
    base   := rational | 'i' | ident | '(' expr ')'

Rationals are `a` or `a/b` with non-negative integer literals; `i` is the
imaginary unit (Gaussian coefficient ring only); identifiers are the declared
variable names.  Negative exponents are accepted only on Laurent variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial, VariableSet
from .rings import RingDescriptor

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^()]))")


class ParseError(ValueError):
    """Syntax or semantic error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class _Token:
    kind: str  # "int" | "name" | punctuation itself | "end"
    text: str
    position: int


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1) is not None:
            tokens.append(_Token("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(_Token("name", m.group(2), m.start(2)))
        else:
            tokens.append(_Token(m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: RingDescriptor, variables: VariableSet):
        self.tokens = _tokenize(text)
        self.index = 0
        self.ring = ring
        self.variables = variables

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        tok = self.current
        self.index += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self.current.text or 'end of input'!r}",
                             self.current.position)
        return self._advance()

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.current.kind != "end":
            raise ParseError(f"trailing input {self.current.text!r}",
                             self.current.position)
        return result

    def expr(self) -> Polynomial:
        negate = False
        if self.current.kind in ("+", "-"):
            negate = self._advance().kind == "-"
        result = self.term()
        if negate:
            result = -result
        while self.current.kind in ("+", "-"):
            op = self._advance().kind
            rhs = self.term()
            result = result - rhs if op == "-" else result + rhs
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.current.kind == "*":
            self._advance()
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        base_token = self.current
        base = self.base()
        if self.current.kind != "^":
            return base
        self._advance()
        negative = False
        if self.current.kind == "-":
            self._advance()
            negative = True
        exponent = int(self._expect("int").text)
        if not negative:
            return base ** exponent
        name = self._laurent_name(base, base_token)
        return Polynomial.var(self.ring, self.variables, name, -exponent)

    def _laurent_name(self, base: Polynomial, token: _Token) -> str:
        if len(base.terms) == 1:
            (exps, coeff), = base.terms.items()
            if coeff == self.ring.one() and sum(exps) == 1:
                name = self.variables.names[exps.index(1)]
                if self.variables.is_laurent(name):
                    return name
        raise ParseError("negative exponents need a Laurent variable base",
                         token.position)

    def base(self) -> Polynomial:
        tok = self.current
        if tok.kind == "(":
            self._advance()
            inner = self.expr()
            self._expect(")")
            return inner
        if tok.kind == "int":
            self._advance()
            numerator = int(tok.text)
            if self.current.kind == "/":
                self._advance()
                denom_tok = self._expect("int")
                denominator = int(denom_tok.text)
                if denominator == 0:
                    raise ParseError("zero denominator", denom_tok.position)
                value = Fraction(numerator, denominator)
            else:
                value = Fraction(numerator)
            try:
                coeff = self.ring.from_fraction(value)
            except ZeroDivisionError:
                raise ParseError("denominator is zero in the ring", tok.position) from None
            return Polynomial.constant(self.ring, self.variables, coeff)
        if tok.kind == "name":
            self._advance()
            if tok.text == "i":
                if "i" in self.variables.names:
                    return Polynomial.var(self.ring, self.variables, "i")
                try:
                    unit = self.ring.imaginary_unit()
                except ValueError:
                    raise ParseError("imaginary unit needs the Gaussian "
                                     "coefficient ring", tok.position) from None
                return Polynomial.constant(self.ring, self.variables, unit)
            if tok.text not in self.variables.names:
                raise ParseError(f"unknown variable {tok.text!r}", tok.position)
            return Polynomial.var(self.ring, self.variables, tok.text)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.position)


def parse_polynomial(text: str, ring: RingDescriptor,
                     variables: VariableSet) -> Polynomial:
    """Parse `text` into an exact polynomial over the given ring and variables."""
    if not text.strip():
        raise ParseError("empty input", 0)
    return _Parser(text, ring, variables).parse()
