"""Constant-coefficient differential operators as Weyl-algebra elements.

A `WeylElement` stores the terms c z^a d^b of an operator in right-normal
order, keyed by the exponent pair (a, b).  The library only builds and
passes operators around: `gvc_scan` reads a constant-coefficient one as its
symbol and powers that in closed form.  The normal-ordering arithmetic
(composition, action, the symbol maps) lives with the tests, as an oracle
for those closed forms.
"""

from __future__ import annotations

from itertools import chain

from .poly import Polynomial, _sum_terms
from .rings import Immutable, RingDescriptor


class WeylElement(Immutable):
    """Element of A_n acting on polynomials in the given z-variables."""

    __slots__ = __match_args__ = ("ring", "z_names", "terms")

    def __init__(self, ring: RingDescriptor, z_names, terms=()):
        """`terms`: a dict {(a, b): coeff} for z^a d^b or such pairs; summed, then checked."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "z_names", tuple(z_names))
        terms = _sum_terms(terms.items() if isinstance(terms, dict) else terms)
        n = len(self.z_names)
        for a, b in terms:
            if len(a) != n or len(b) != n:
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 for e in chain(a, b)):
                raise ValueError("negative exponents in a Weyl element")
        object.__setattr__(self, "terms", terms)

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
