"""Differential tests against sympy: an independent route to the kernel map,
to the test-side Weyl oracle's action, normal ordering and symbol maps, to
the classical orthogonal polynomials of the Rodrigues route, and to the
weights' moments.

sympy is a test-only dependency; the suite skips this module without it.
"""

import pytest

from conftest import random_polynomial
from mathieulab import ortho
from mathieulab.imagemap import ImageProblem, L_map
from mathieulab.poly import VariableSet
from mathieulab.rings import QQ
from weyl_algebra import Element, apply, compose, from_left_symbol, left_normal_terms

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
    return Element(QQ, P2.z_names, terms)


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
        assert same(to_sympy(apply(w, f)), right_normal_action(w.terms, to_sympy(f)))


def test_weyl_reordering_matches_sympy(rng):
    """compose, left_normal_terms and from_left_symbol act as sympy says."""
    for _ in range(12):
        w1, w2 = random_weyl(rng, max_terms=3), random_weyl(rng, max_terms=3)
        f = to_sympy(random_polynomial(rng, QQ, ZVARS, max_degree=5, max_terms=5))
        # composition acts as sequential application
        assert same(right_normal_action(compose(w1, w2).terms, f),
                    right_normal_action(w1.terms, right_normal_action(w2.terms, f)))
        # the left-normal form sum c d^b z^a acts as the element does
        left = sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * d(z_monomial(a) * f, b)
                           for (b, a), c in left_normal_terms(w1).items()))
        assert same(left, right_normal_action(w1.terms, f))
        # zeta^a z^b -> the operator d^a z^b
        p = random_polynomial(rng, QQ, SYMS, max_degree=3, max_terms=4)
        symbol_action = sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                                    * d(z_monomial(exps[2:]) * f, exps[:2])
                                    for exps, c in p.terms.items()))
        assert same(right_normal_action(from_left_symbol(p, P2.z_names).terms, f),
                    symbol_action)


def test_rodrigues_matches_sympy_families():
    """rodrigues(spec, d) is sympy's standard normalisation of each family."""
    x = sympy.Symbol("x")
    references = [("hermite", 0, 0, lambda d: sympy.hermite(d, x)),
                  ("legendre", 0, 0, lambda d: sympy.legendre(d, x))]
    references += [("laguerre", a, 0, lambda d, a=a: sympy.assoc_laguerre(d, a, x))
                   for a in (0, 2)]
    references += [("jacobi", a, b, lambda d, a=a, b=b: sympy.jacobi(d, a, b, x))
                   for a, b in ((0, 0), (3, 2), (1, 3))]
    for family, alpha, beta, reference in references:
        spec = ortho.WeightSpec(family, alpha, beta)
        for d in range(9):
            assert same(to_sympy(ortho.rodrigues(spec, d)), reference(d)), (spec, d)


def test_lambda_power_matches_sympy():
    """lambda_power(spec, a) is the polynomial w^(-1) d^a (w g^a)."""
    x = sympy.Symbol("x")
    weights = [("hermite", 0, 0, sympy.exp(-x ** 2), 1),
               ("legendre", 0, 0, 1, (1 - x) * (1 + x))]
    weights += [("laguerre", a, 0, x ** a * sympy.exp(-x), x) for a in (0, 2)]
    weights += [("jacobi", a, b, (1 - x) ** a * (1 + x) ** b, (1 - x) * (1 + x))
                for a, b in ((1, 0), (3, 2))]
    for family, alpha, beta, w, g in weights:
        spec = ortho.WeightSpec(family, alpha, beta)
        for a in range(4):
            num, den = sympy.fraction(sympy.cancel(sympy.diff(w * g ** a, x, a) / w))
            assert not den.has(x), (spec, a)
            assert same(to_sympy(ortho.lambda_power(spec, a)), num / den), (spec, a)


def test_moments_match_sympy_integrals():
    """MomentFunctional(spec).moment(n) is int x^n w / int w over the weight's interval."""
    x = sympy.Symbol("x")
    weights = [("hermite", 0, 0, sympy.exp(-x ** 2), -sympy.oo, sympy.oo),
               ("uniform01", 0, 0, sympy.Integer(1), 0, 1)]
    weights += [("laguerre", a, 0, x ** a * sympy.exp(-x), 0, sympy.oo) for a in (0, 3)]
    weights += [("jacobi", a, b, (1 - x) ** a * (1 + x) ** b, -1, 1)
                for a, b in ((0, 0), (4, 1), (2, 3))]
    for family, alpha, beta, w, low, high in weights:
        m = ortho.MomentFunctional(ortho.WeightSpec(family, alpha, beta))
        mu_0 = sympy.integrate(w, (x, low, high))
        for n in range(7):
            mu = m.moment(n)
            assert same(sympy.integrate(x ** n * w, (x, low, high)) / mu_0,
                        sympy.Rational(mu.numerator, mu.denominator)), (family, alpha, beta, n)
