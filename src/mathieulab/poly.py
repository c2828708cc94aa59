"""Sparse multivariate (Laurent-capable) polynomials over a fixed exact ring.

Terms are keyed by dense exponent tuples aligned with the declared variable
order, so two equal polynomials always have identical representations.
Canonical printing uses graded lexicographic order, highest first.

`_sum_terms` is the one place where terms are accumulated: every map that
sends monomials to (key, coefficient) pairs -- sums, products, derivatives,
the kernel map, Weyl composition and action -- feeds it and lets it drop
the keys whose coefficients cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add

from .rings import RingDescriptor

NEG_INF = float("-inf")


class VerificationError(Exception):
    """A computed result failed its exact re-check (raised, so `python -O` keeps it)."""


@dataclass(frozen=True)
class VariableSet:
    """Ordered variable names; a name in `laurent` may carry negative exponents."""

    names: tuple
    laurent: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "laurent", frozenset(self.laurent))
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        unknown = self.laurent - set(self.names)
        if unknown:
            raise ValueError(f"laurent flags for unknown variables: {sorted(unknown)}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def is_laurent(self, name: str) -> bool:
        return name in self.laurent

    def __len__(self):
        return len(self.names)


@dataclass(frozen=True)
class Grading:
    """Integer weight per variable; a term's weight is the weighted exponent sum."""

    weights: dict

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))

    def term_weight(self, variables: VariableSet, exps: tuple) -> int:
        return sum(self.weights.get(n, 0) * e for n, e in zip(variables.names, exps))

    @staticmethod
    def total_degree(variables: VariableSet) -> "Grading":
        return Grading({n: 1 for n in variables.names})


class Polynomial:
    """Immutable sparse polynomial; all operations return fresh values."""

    __slots__ = ("ring", "variables", "terms")

    def __init__(self, ring: RingDescriptor, variables: VariableSet, terms=None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "variables", variables)
        terms = terms or {}
        for exps in terms:
            if len(exps) != len(variables):
                raise ValueError("exponent tuple length mismatch")
            for name, e in zip(variables.names, exps):
                if e < 0 and not variables.is_laurent(name):
                    raise ValueError(f"negative exponent on non-Laurent variable {name}")
        object.__setattr__(self, "terms", _sum_terms(terms.items()))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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

    @staticmethod
    def monomial(ring, variables, coeff, exps_by_name) -> "Polynomial":
        exps = [0] * len(variables)
        for name, e in exps_by_name.items():
            exps[variables.index(name)] = e
        return Polynomial(ring, variables, {tuple(exps): coeff})

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
                          _sum_terms(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return Polynomial(self.ring, self.variables,
                          {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._compat(other)
        return Polynomial(self.ring, self.variables, _sum_terms(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        elif isinstance(c, Fraction) and self.ring.kind != "Q":
            c = self.ring.from_fraction(c)
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
        return Polynomial(self.ring, self.variables, _sum_terms(
            (exps[:i] + (exps[i] - 1,) + exps[i + 1:], c * from_int(exps[i]))
            for exps, c in self.terms.items() if exps[i]))

    def coefficient_of(self, exps_by_name) -> object:
        exps = [0] * len(self.variables)
        for name, e in exps_by_name.items():
            exps[self.variables.index(name)] = e
        return self.terms.get(tuple(exps), self.ring.zero())

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.variables), self.ring.zero())

    def grade_degree(self, grading: Grading):
        """Max term weight under the grading; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(grading.term_weight(self.variables, e) for e in self.terms)

    def total_degree(self):
        return self.grade_degree(Grading.total_degree(self.variables))

    def homogeneous_components(self, grading: Grading) -> dict:
        """Split into graded pieces; values reassemble to self exactly."""
        buckets = {}
        for exps, c in self.terms.items():
            w = grading.term_weight(self.variables, exps)
            buckets.setdefault(w, {})[exps] = c
        return {w: Polynomial(self.ring, self.variables, t)
                for w, t in sorted(buckets.items())}

    # -- canonical form ----------------------------------------------

    def sorted_terms(self):
        """Graded-lex order on the declared variable order, highest first."""
        def key(item):
            exps = item[0]
            return (sum(exps), exps)
        return sorted(self.terms.items(), key=key, reverse=True)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables.names, exps) if e != 0
            )
            text, negative = _format_coeff(self.ring, coeff, bool(mono))
            if mono:
                body = mono if text == "" else f"{text}*{mono}"
            else:
                body = text
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"<Polynomial {self.to_str()}>"

    def embed(self, ring: RingDescriptor, variables: VariableSet) -> "Polynomial":
        """Re-home into a larger variable set (matched by name) or wider ring."""
        idx = [variables.index(n) for n in self.variables.names]
        terms = {}
        for exps, c in self.terms.items():
            key = [0] * len(variables)
            for j, e in zip(idx, exps):
                key[j] = e
            terms[tuple(key)] = _convert_coeff(c, self.ring, ring)
        return Polynomial(ring, variables, terms)

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial":
        """Exact division; raises ValueError when the quotient is not polynomial."""
        self._compat(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        remainder = self
        quotient = Polynomial.zero(self.ring, self.variables)
        lead_exps, lead_coeff = max(
            divisor.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        last_lead = None
        while remainder.terms:
            r_exps, r_coeff = max(
                remainder.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            lead_key = (sum(r_exps), r_exps)
            if last_lead is not None and lead_key >= last_lead:
                raise ValueError("division is not exact")
            last_lead = lead_key
            diff = tuple(a - b for a, b in zip(r_exps, lead_exps))
            for name, e in zip(self.variables.names, diff):
                if e < 0 and not self.variables.is_laurent(name):
                    raise ValueError("division is not exact")
            piece = Polynomial(self.ring, self.variables,
                               {diff: r_coeff / lead_coeff})
            quotient = quotient + piece
            remainder = remainder - piece * divisor
        return quotient


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


def _convert_coeff(c, source: RingDescriptor, target: RingDescriptor):
    if source == target:
        return c
    if source.kind == "Q":
        return target.from_fraction(c)
    raise ValueError(f"cannot convert coefficients from {source.kind} to {target.kind}")


def _format_coeff(ring, coeff, has_monomial):
    """Return (text, negative) for canonical printing.

    text == "" means the coefficient is an implicit 1 before a monomial.
    Mixed Gaussian coefficients are parenthesized so the output re-parses.
    """
    if ring.kind == "Q":
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if has_monomial and mag == 1:
            return "", negative
        return str(mag), negative
    if ring.kind == "Fp":
        if has_monomial and coeff.residue == 1:
            return "", False
        return str(coeff.residue), False
    # Gaussian rationals
    if coeff.im == 0:
        negative = coeff.re < 0
        mag = -coeff.re if negative else coeff.re
        if has_monomial and mag == 1:
            return "", negative
        return str(mag), negative
    if coeff.re == 0:
        negative = coeff.im < 0
        mag = abs(coeff.im)
        text = "i" if mag == 1 else f"{mag}*i"
        return text, negative
    return f"({ring.format(coeff)})", False
