"""Weyl algebra elements in right-normal order z^a d^b, with symbol maps.

Reordering uses the closed-form rewrite

    d^b z^a = sum_k  C(b,k) C(a,k) k!  z^(a-k) d^(b-k)

applied multi-index-wise, which keeps intermediate results small.  `_reorder`
is the single home of this formula: composition, the left-normal rewrite
(with sign (-1)^|k|) and `from_left_symbol` all draw their terms from it.
Binomial bookkeeping happens over the integers and is reduced into the
coefficient ring at the end, so characteristic-p elements work too.
"""

from __future__ import annotations

from itertools import chain, product
from math import comb, factorial, perm, prod
from operator import add, sub

from .poly import Polynomial, VariableSet, _sum_terms
from .rings import RingDescriptor


def _falling_product(e, d) -> int:
    """prod_i e_i (e_i - 1) ... (e_i - d_i + 1) for e_i >= 0; zero when some d_i > e_i."""
    return prod(map(perm, e, d))


def _reorder(b, a):
    """Yield (k, C(b,k) C(a,k) k!) for d^b z^a = sum_k ... z^(a-k) d^(b-k)."""
    for k in product(*(range(m + 1) for m in map(min, b, a))):
        yield k, prod(comb(bj, kj) * comb(aj, kj) * factorial(kj)
                      for bj, aj, kj in zip(b, a, k))


class WeylElement:
    """Element of A_n acting on polynomials in the given z-variables."""

    __slots__ = ("ring", "z_names", "terms")

    def __init__(self, ring: RingDescriptor, z_names, terms=None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "z_names", tuple(z_names))
        terms = terms or {}
        n = len(self.z_names)
        for a, b in terms:
            if len(a) != n or len(b) != n:
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 for e in chain(a, b)):
                raise ValueError("negative exponents in a Weyl element")
        object.__setattr__(self, "terms", _sum_terms(terms.items()))

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def one(ring, z_names):
        n = len(z_names)
        return WeylElement(ring, z_names, {((0,) * n, (0,) * n): ring.one()})

    @staticmethod
    def z_var(ring, z_names, i: int):
        """Multiplication by z_i (1-based index)."""
        n = len(z_names)
        a = tuple(1 if j == i - 1 else 0 for j in range(n))
        return WeylElement(ring, z_names, {(a, (0,) * n): ring.one()})

    @staticmethod
    def d_var(ring, z_names, i: int):
        """The derivation d/dz_i (1-based index)."""
        n = len(z_names)
        b = tuple(1 if j == i - 1 else 0 for j in range(n))
        return WeylElement(ring, z_names, {((0,) * n, b): ring.one()})

    @staticmethod
    def constant_coefficient(p: Polynomial, z_names) -> "WeylElement":
        """Operator from a polynomial in d-symbols, read positionally.

        The i-th variable of `p` becomes d/dz_i; e.g. d1^2+d2^2 is the Laplacian.
        """
        if len(p.variables) != len(z_names):
            raise ValueError("d-symbol count must match the z-variable count")
        n = len(z_names)
        return WeylElement(p.ring, z_names,
                           {((0,) * n, exps): c for exps, c in p.terms.items()})

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (self.ring == other.ring and self.z_names == other.z_names
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.z_names,
                     frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "<WeylElement 0>"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            mono = "*".join(
                [f"{n}^{e}" if e != 1 else n for n, e in zip(self.z_names, a) if e] +
                [f"d{n}^{e}" if e != 1 else f"d{n}" for n, e in zip(self.z_names, b) if e])
            bits.append(f"{c}*{mono}" if mono else str(c))
        return f"<WeylElement {' + '.join(bits)}>"

    def _compat(self, other):
        if self.ring != other.ring or self.z_names != other.z_names:
            raise ValueError("Weyl elements live over different rings or variables")

    def __add__(self, other):
        self._compat(other)
        return WeylElement(self.ring, self.z_names,
                           _sum_terms(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return WeylElement(self.ring, self.z_names,
                           {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    # -- action and composition --------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Act on a polynomial in exactly the element's z-variables."""
        if f.ring != self.ring:
            raise ValueError("coefficient ring mismatch")
        if f.variables.names != self.z_names:
            raise ValueError("variable mismatch between operator and argument")
        from_int = self.ring.from_int
        return Polynomial(self.ring, f.variables, _sum_terms(
            (tuple(map(add, map(sub, exps, b), a)), c * fc * from_int(scale))
            for (a, b), c in self.terms.items() for exps, fc in f.terms.items()
            if (scale := _falling_product(exps, b))))

    def compose(self, other: "WeylElement") -> "WeylElement":
        """Normal-ordered product: self acts after `other`."""
        self._compat(other)
        from_int = self.ring.from_int
        return WeylElement(self.ring, self.z_names, _sum_terms(
            ((tuple(map(sub, map(add, a1, a2), k)), tuple(map(sub, map(add, b1, b2), k))),
             c1 * c2 * from_int(scale))
            for (a1, b1), c1 in self.terms.items() for (a2, b2), c2 in other.terms.items()
            for k, scale in _reorder(b1, a2)))

    def left_normal_terms(self) -> dict:
        """Rewrite into left-normal order: dict (b, a) -> coeff for d^b z^a."""
        from_int = self.ring.from_int
        return _sum_terms(
            ((tuple(map(sub, b, k)), tuple(map(sub, a, k))),
             c * from_int(-scale if sum(k) % 2 else scale))
            for (a, b), c in self.terms.items() for k, scale in _reorder(b, a))


# -- symbol maps ------------------------------------------------------

def left_symbol(w: WeylElement, symbol_vars: VariableSet) -> Polynomial:
    """Send d^a z^b (left-normal order) to zeta^a z^b.

    `symbol_vars` must list the zeta-stand-ins first, then the z-variables,
    matching the element's variable count.
    """
    n = len(w.z_names)
    _check_symbol_vars(symbol_vars, n)
    terms = {}
    for (b, a), c in w.left_normal_terms().items():
        terms[b + a] = c
    return Polynomial(w.ring, symbol_vars, terms)


def from_left_symbol(p: Polynomial, z_names) -> WeylElement:
    """Inverse of `left_symbol`: zeta^a z^b becomes the operator d^a z^b."""
    n = len(z_names)
    _check_symbol_vars(p.variables, n)
    from_int = p.ring.from_int
    return WeylElement(p.ring, z_names, _sum_terms(
        ((tuple(map(sub, exps[n:], k)), tuple(map(sub, exps[:n], k))), c * from_int(scale))
        for exps, c in p.terms.items() for k, scale in _reorder(exps[:n], exps[n:])))


def right_symbol(w: WeylElement, symbol_vars: VariableSet) -> Polynomial:
    """Send z^a d^b (the stored normal form) to z^a zeta^b."""
    n = len(w.z_names)
    _check_symbol_vars(symbol_vars, n)
    terms = {}
    for (a, b), c in w.terms.items():
        terms[b + a] = c
    return Polynomial(w.ring, symbol_vars, terms)


def _check_symbol_vars(symbol_vars: VariableSet, n: int):
    if len(symbol_vars) != 2 * n:
        raise ValueError("symbol variable set must pair each z with a zeta stand-in")
    if symbol_vars.laurent:
        raise ValueError("symbol variables cannot be Laurent")

