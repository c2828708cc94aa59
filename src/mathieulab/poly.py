"""Sparse multivariate (Laurent-capable) polynomials over a fixed exact ring.

Terms are keyed by dense exponent tuples aligned with the declared variable
order, so two equal polynomials always have identical representations.
Canonical printing uses graded lexicographic order, highest first.

The `Polynomial` constructor sums (key, coefficient) pairs with
`_sum_terms`, its only reader: sums, products, derivatives, the kernel map,
the t-operators and the image map's closed forms pass their pairs straight
in, and a key whose coefficients cancel is dropped.  A dict's keys are
already distinct, so it is only copied without its zero coefficients.
The kernel-map and constant-term scans read L(g * f^m), m = 1..m_max, off
the other route, the integer power loop of `powers`.
"""

from __future__ import annotations

from itertools import chain
from operator import add, mul
from types import SimpleNamespace

from .rings import Immutable, RingDescriptor


class VerificationError(Exception):
    """A computed result failed its exact re-check (raised, so `python -O` keeps it)."""


class Report(SimpleNamespace):
    """A result with a printed report: keyword fields, in the order the JSON prints them.

    The values stay typed (polynomials, ring elements, fractions, matrices,
    nested Reports); equality compares every field.  `as_report` prints them
    once, into a fresh dict, and a nested Report prints as the dict of its fields.
    """

    def as_report(self) -> dict:
        return _printed(self)


def _printed(value):
    """`value` as the report prints it.

    A Report prints as the dict of its fields; dicts, lists and tuples are
    printed item by item (a tuple as a list); None, bool, int and str stay
    as they are; anything else becomes its `to_str()` if it has one, else
    its `str()`.
    """
    if isinstance(value, Report):
        value = vars(value)
    if isinstance(value, dict):
        return {k: _printed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_printed(v) for v in value]
    if value is None or isinstance(value, (int, str)):  # a bool is an int
        return value
    return value.to_str() if hasattr(value, "to_str") else str(value)


class VariableSet(Immutable):
    """Ordered variable names; a name in `laurent` may carry negative exponents."""

    __slots__ = __match_args__ = ("names", "laurent")

    def __init__(self, names, laurent=frozenset()):
        names, laurent = tuple(names), frozenset(laurent)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        unknown = laurent - set(names)
        if unknown:
            raise ValueError(f"laurent flags for unknown variables: {sorted(unknown)}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "laurent", laurent)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def is_laurent(self, name: str) -> bool:
        return name in self.laurent

    def __len__(self):
        return len(self.names)


class Polynomial(Immutable):
    """Immutable sparse polynomial; all operations return fresh values."""

    __slots__ = __match_args__ = ("ring", "variables", "terms")

    def __init__(self, ring: RingDescriptor, variables: VariableSet, terms=()):
        """`terms`: a dict {exponent tuple: coeff}, copied without its zero
        coefficients, or such pairs, summed; then checked."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "variables", variables)
        terms = ({e: c for e, c in terms.items() if c} if isinstance(terms, dict)
                 else _sum_terms(terms))
        if terms and {*map(len, terms)} != {len(variables.names)}:
            raise ValueError("exponent tuple length mismatch")
        if variables.names and terms and min(chain.from_iterable(terms)) < 0 and any(
                min(column) < 0 for name, column in zip(variables.names, zip(*terms))
                if not variables.is_laurent(name)):
            for exps in terms:  # name the variable of the first offending term
                for name, e in zip(variables.names, exps):
                    if e < 0 and not variables.is_laurent(name):
                        raise ValueError(f"negative exponent on non-Laurent variable {name}")
        object.__setattr__(self, "terms", terms)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring, variables) -> "Polynomial":
        return Polynomial(ring, variables, {})

    @staticmethod
    def constant(ring, variables, c) -> "Polynomial":
        zero_key = (0,) * len(variables)
        return Polynomial(ring, variables, {zero_key: c})

    @staticmethod
    def one(ring, variables) -> "Polynomial":
        return Polynomial.constant(ring, variables, ring.one())

    @staticmethod
    def var(ring, variables, name, exp=1) -> "Polynomial":
        exps = [0] * len(variables)
        exps[variables.index(name)] = exp
        return Polynomial(ring, variables, {tuple(exps): ring.one()})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _compat(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError("coefficient ring mismatch")
        if other.variables != self.variables:
            raise ValueError("variable set mismatch")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        return Polynomial(self.ring, self.variables,
                          chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return Polynomial(self.ring, self.variables,
                          {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._compat(other)
        return Polynomial(self.ring, self.variables, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

    def scale(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        if not c:
            return Polynomial.zero(self.ring, self.variables)
        return Polynomial(self.ring, self.variables,
                          {e: coeff * c for e, coeff in self.terms.items()})

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.ring, self.variables)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ring == other.ring and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.variables, frozenset(self.terms.items())))

    # -- calculus and structure --------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal derivative; Laurent exponents follow n*t^(n-1) including n < 0."""
        i = self.variables.index(name)
        from_int = self.ring.from_int
        return Polynomial(self.ring, self.variables, (
            (exps[:i] + (exps[i] - 1,) + exps[i + 1:], c * from_int(exps[i]))
            for exps, c in self.terms.items() if exps[i]))

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.variables), self.ring.zero())

    def grade_degree(self, weights: tuple):
        """Max term weight, with one integer weight per variable in order; None for 0."""
        return max((sum(map(mul, weights, e)) for e in self.terms), default=None)

    def total_degree(self):
        return max(map(sum, self.terms), default=None)

    def homogeneous_components(self, weights: tuple) -> dict:
        """Split by term weight (one weight per variable); values reassemble to self."""
        buckets = {}
        for exps, c in self.terms.items():
            buckets.setdefault(sum(map(mul, weights, exps)), {})[exps] = c
        return {w: Polynomial(self.ring, self.variables, t)
                for w, t in sorted(buckets.items())}

    # -- canonical form ----------------------------------------------

    def to_str(self) -> str:
        """Terms in graded-lex order on the declared variables, highest first.

        Each coefficient prints as its literal (`str`); a 1 before a monomial
        is implicit, and a Gaussian coefficient with both parts nonzero is
        parenthesized so the text re-parses.
        """
        names, gaussian = self.variables.names, self.ring.kind == "Qi"
        pieces = []
        for exps, c in sorted(self.terms.items(), key=_graded_lex, reverse=True):
            mono = "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e])
            text, sign = str(c), " + "
            if gaussian and c.re.numerator and c.im.numerator:
                text = f"({text})"
            elif text[0] == "-":
                text, sign = text[1:], " - "
            pieces.append(sign + (text if not mono else mono if text == "1" else f"{text}*{mono}"))
        text = "".join(pieces)
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return f"<Polynomial {self.to_str()}>"

    def embed(self, variables: VariableSet) -> "Polynomial":
        """Re-home into a larger variable set, matched by name, over the same ring."""
        idx = [variables.index(n) for n in self.variables.names]
        terms = {}
        for exps, c in self.terms.items():
            key = [0] * len(variables)
            for j, e in zip(idx, exps):
                key[j] = e
            terms[tuple(key)] = c
        return Polynomial(self.ring, variables, terms)


def _graded_lex(term) -> tuple:
    """Sort key of a (key, coeff) term: total degree, then the exponent tuple."""
    return sum(term[0]), term[0]


def _sum_terms(pairs) -> dict:
    """Sum (key, coeff) pairs into a term dict without zero coefficients.

    A key whose sum cancels is dropped, and so is a coefficient that
    arrives as zero (such as c * n with p | n over F_p).
    """
    out = {}
    for key, c in pairs:
        if key in out:
            s = out[key] + c
            if s:
                out[key] = s
            else:
                del out[key]
        elif c:
            out[key] = c
    return out
