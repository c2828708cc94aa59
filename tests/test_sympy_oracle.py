"""Differential tests against sympy: an independent route to the kernel map
and to the Weyl action, normal ordering and symbol maps.

sympy is a test-only dependency; the suite skips this module without it.
"""

import pytest

from conftest import random_polynomial
from mathieulab.imagemap import ImageProblem, L_map
from mathieulab.poly import VariableSet
from mathieulab.rings import QQ
from mathieulab.weyl import WeylElement, from_left_symbol

sympy = pytest.importorskip("sympy")

Z = sympy.symbols("z1 z2")
P2 = ImageProblem(2, QQ)
ZVARS = VariableSet(P2.z_names)
SYMS = VariableSet(("w1", "w2", "z1", "z2"))


def to_sympy(p):
    """The polynomial as a sympy expression, its variables named as in `p`."""
    symbols = sympy.symbols(p.variables.names)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
                       for exps, c in p.terms.items()))


def z_monomial(exps):
    return sympy.Mul(*(z ** e for z, e in zip(Z, exps)))


def d(expr, orders):
    """The mixed partial d^orders of expr in z1, z2."""
    for z, k in zip(Z, orders):
        if k:
            expr = sympy.diff(expr, z, k)
    return expr


def right_normal_action(terms, expr):
    """sum c z^a d^b (expr) over (a, b) -> c."""
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * z_monomial(a) * d(expr, b) for (a, b), c in terms.items()))


def random_weyl(rng, max_exp=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        b = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[(a, b)] = QQ.from_int(rng.randint(-5, 5))
    return WeylElement(QQ, P2.z_names, terms)


def same(lhs, rhs):
    return sympy.expand(lhs - rhs) == 0


def test_lmap_matches_sympy_diff(rng):
    """L(zeta^a z^b) = d^a(z^b) term by term, summed by sympy."""
    for _ in range(40):
        f = random_polynomial(rng, QQ, P2.variables, max_degree=5, max_terms=6)
        expected = sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                               * d(z_monomial(exps[2:]), exps[:2])
                               for exps, c in f.terms.items()))
        assert same(to_sympy(L_map(P2, f)), expected)


def test_weyl_apply_matches_sympy(rng):
    for _ in range(30):
        w = random_weyl(rng)
        f = random_polynomial(rng, QQ, ZVARS, max_degree=5, max_terms=5)
        assert same(to_sympy(w.apply(f)), right_normal_action(w.terms, to_sympy(f)))


def test_weyl_reordering_matches_sympy(rng):
    """compose, left_normal_terms and from_left_symbol act as sympy says."""
    for _ in range(12):
        w1, w2 = random_weyl(rng, max_terms=3), random_weyl(rng, max_terms=3)
        f = to_sympy(random_polynomial(rng, QQ, ZVARS, max_degree=5, max_terms=5))
        # composition acts as sequential application
        assert same(right_normal_action(w1.compose(w2).terms, f),
                    right_normal_action(w1.terms, right_normal_action(w2.terms, f)))
        # the left-normal form sum c d^b z^a acts as the element does
        left = sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * d(z_monomial(a) * f, b)
                           for (b, a), c in w1.left_normal_terms().items()))
        assert same(left, right_normal_action(w1.terms, f))
        # zeta^a z^b -> the operator d^a z^b
        p = random_polynomial(rng, QQ, SYMS, max_degree=3, max_terms=4)
        symbol_action = sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                                    * d(z_monomial(exps[2:]) * f, exps[:2])
                                    for exps, c in p.terms.items()))
        assert same(right_normal_action(from_left_symbol(p, P2.z_names).terms, f),
                    symbol_action)
