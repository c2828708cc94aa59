"""The general Weyl-algebra element and its normal ordering, as a test oracle.

The library's `mathieulab.weyl.WeylElement` holds only a constant-coefficient
operator, as its d-symbol; `Element` here is the general sum c z^a d^b, and
`lift` turns the one into the other.  Reordering uses the closed-form rewrite

    d^b z^a = sum_k  C(b,k) C(a,k) k!  z^(a-k) d^(b-k)

applied multi-index-wise.  `reorder` is the single home of this formula:
composition, the left-normal rewrite (with sign (-1)^|k|) and
`from_left_symbol` all draw their terms from it.  The library computes the
decomposition, the certificate witness and the gvc operator powers in
closed form; the tests compare those with this route, which shares no code
with them.  Binomial bookkeeping happens over the integers and is reduced
into the coefficient ring at the end, so characteristic-p elements work too.
"""

from itertools import chain, product
from math import comb, factorial, perm, prod
from operator import add, sub

from mathieulab.poly import Polynomial, VariableSet, _sum_terms
from mathieulab.rings import Immutable


class Element(Immutable):
    """Element of A_n acting on polynomials in the given z-variables.

    `terms` maps the exponent pair (a, b) of z^a d^b (right-normal order) to
    its coefficient.
    """

    __slots__ = __match_args__ = ("ring", "z_names", "terms")

    def __init__(self, ring, z_names, terms=()):
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


def lift(operator) -> Element:
    """The general element sum c d^b of a library `WeylElement` with d-symbol sum c d^b."""
    n = len(operator.z_names)
    return Element(operator.symbol.ring, operator.z_names,
                   {((0,) * n, b): c for b, c in operator.symbol.terms.items()})


def reorder(b, a):
    """Yield (k, C(b,k) C(a,k) k!) for d^b z^a = sum_k ... z^(a-k) d^(b-k)."""
    for k in product(*(range(m + 1) for m in map(min, b, a))):
        yield k, prod(comb(bj, kj) * comb(aj, kj) * factorial(kj)
                      for bj, aj, kj in zip(b, a, k))


# -- constructors ------------------------------------------------------

def one(ring, z_names):
    n = len(z_names)
    return Element(ring, z_names, {((0,) * n, (0,) * n): ring.one()})


def z_var(ring, z_names, i: int):
    """Multiplication by z_i (1-based index)."""
    n = len(z_names)
    a = tuple(1 if j == i - 1 else 0 for j in range(n))
    return Element(ring, z_names, {(a, (0,) * n): ring.one()})


def d_var(ring, z_names, i: int):
    """The derivation d/dz_i (1-based index)."""
    n = len(z_names)
    b = tuple(1 if j == i - 1 else 0 for j in range(n))
    return Element(ring, z_names, {((0,) * n, b): ring.one()})


# -- arithmetic --------------------------------------------------------

def _compat(u, v):
    if u.ring != v.ring or u.z_names != v.z_names:
        raise ValueError("Weyl elements live over different rings or variables")


def plus(u, v):
    _compat(u, v)
    return Element(u.ring, u.z_names, chain(u.terms.items(), v.terms.items()))


def neg(u):
    return Element(u.ring, u.z_names, {k: -c for k, c in u.terms.items()})


def minus(u, v):
    return plus(u, neg(v))


def apply(w, f: Polynomial) -> Polynomial:
    """Act on a polynomial in exactly the element's z-variables."""
    if f.ring != w.ring:
        raise ValueError("coefficient ring mismatch")
    if f.variables.names != w.z_names:
        raise ValueError("variable mismatch between operator and argument")
    from_int = w.ring.from_int
    return Polynomial(w.ring, f.variables, (
        (tuple(map(add, map(sub, exps, b), a)), c * fc * from_int(scale))
        for (a, b), c in w.terms.items() for exps, fc in f.terms.items()
        if (scale := prod(map(perm, exps, b)))))


def compose(u, v):
    """Normal-ordered product: u acts after v."""
    _compat(u, v)
    from_int = u.ring.from_int
    return Element(u.ring, u.z_names, (
        ((tuple(map(sub, map(add, a1, a2), k)), tuple(map(sub, map(add, b1, b2), k))),
         c1 * c2 * from_int(scale))
        for (a1, b1), c1 in u.terms.items() for (a2, b2), c2 in v.terms.items()
        for k, scale in reorder(b1, a2)))


def left_normal_terms(w) -> dict:
    """Rewrite into left-normal order: dict (b, a) -> coeff for d^b z^a."""
    from_int = w.ring.from_int
    return _sum_terms(
        ((tuple(map(sub, b, k)), tuple(map(sub, a, k))),
         c * from_int(-scale if sum(k) % 2 else scale))
        for (a, b), c in w.terms.items() for k, scale in reorder(b, a))


# -- symbol maps -------------------------------------------------------

def left_symbol(w, symbol_vars: VariableSet) -> Polynomial:
    """Send d^a z^b (left-normal order) to zeta^a z^b.

    `symbol_vars` must list the zeta-stand-ins first, then the z-variables,
    matching the element's variable count.
    """
    _check_symbol_vars(symbol_vars, len(w.z_names))
    return Polynomial(w.ring, symbol_vars,
                      ((b + a, c) for (b, a), c in left_normal_terms(w).items()))


def from_left_symbol(p: Polynomial, z_names) -> Element:
    """Inverse of `left_symbol`: zeta^a z^b becomes the operator d^a z^b."""
    n = len(z_names)
    _check_symbol_vars(p.variables, n)
    from_int = p.ring.from_int
    return Element(p.ring, z_names, (
        ((tuple(map(sub, exps[n:], k)), tuple(map(sub, exps[:n], k))), c * from_int(scale))
        for exps, c in p.terms.items() for k, scale in reorder(exps[:n], exps[n:])))


def right_symbol(w, symbol_vars: VariableSet) -> Polynomial:
    """Send z^a d^b (the stored normal form) to z^a zeta^b."""
    _check_symbol_vars(symbol_vars, len(w.z_names))
    return Polynomial(w.ring, symbol_vars, ((b + a, c) for (a, b), c in w.terms.items()))


def _check_symbol_vars(symbol_vars: VariableSet, n: int):
    if len(symbol_vars) != 2 * n:
        raise ValueError("symbol variable set must pair each z with a zeta stand-in")
    if symbol_vars.laurent:
        raise ValueError("symbol variables cannot be Laurent")
