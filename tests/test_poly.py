"""Polynomial ring laws, calculus rules, and canonical-form behavior."""

import random
from fractions import Fraction

import pytest

from conftest import random_polynomial
from mathieulab.poly import NEG_INF, Grading, Polynomial, VariableSet
from mathieulab.rings import GF, QI, QQ

XY = VariableSet(("x", "y"))
LT = VariableSet(("t",), laurent=frozenset(("t",)))


def _samples(ring, variables, count, seed=7, **kw):
    rng = random.Random(seed)
    return [random_polynomial(rng, ring, variables, **kw) for _ in range(count)]


@pytest.mark.parametrize("ring", [QQ, QI, GF(5)], ids=["Q", "Qi", "F5"])
def test_commutative_ring_axioms(ring):
    polys = _samples(ring, XY, 3 * 170)
    for a, b, c in zip(polys[0::3], polys[1::3], polys[2::3]):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * Polynomial.one(ring, XY) == a


def test_zero_terms_never_stored(rng):
    p = Polynomial(QQ, XY, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert list(p.terms) == [(1, 0)]
    q = p - p
    assert q.terms == {}
    for _ in range(50):
        a = random_polynomial(rng, QQ, XY)
        b = random_polynomial(rng, QQ, XY)
        for poly in (a + b, a * b, a - b):
            assert all(c for c in poly.terms.values())


def test_leibniz_rule(rng):
    for _ in range(100):
        f = random_polynomial(rng, QQ, XY)
        g = random_polynomial(rng, QQ, XY)
        for v in ("x", "y"):
            assert (f * g).partial(v) == f.partial(v) * g + f * g.partial(v)


def test_partials_commute(rng):
    for _ in range(50):
        f = random_polynomial(rng, QQ, XY, max_degree=5)
        assert f.partial("x").partial("y") == f.partial("y").partial("x")


def test_laurent_derivative():
    t_inv = Polynomial.var(QQ, LT, "t", -1)
    assert t_inv.partial("t") == Polynomial.var(QQ, LT, "t", -2).scale(-1)


def test_negative_exponent_requires_laurent():
    with pytest.raises(ValueError):
        Polynomial.var(QQ, XY, "x", -1)
    Polynomial.var(QQ, LT, "t", -3)  # fine


def test_frobenius_in_char_p(rng):
    for p in (2, 3, 5):
        ring = GF(p)
        for _ in range(40):
            f = random_polynomial(rng, ring, XY)
            g = random_polynomial(rng, ring, XY)
            assert (f + g) ** p == f ** p + g ** p


def test_pow_matches_repeated_product(rng):
    f = random_polynomial(rng, QQ, XY)
    acc = Polynomial.one(QQ, XY)
    for m in range(5):
        assert f ** m == acc
        acc = acc * f


def test_grading_and_components(rng):
    grading = Grading({"x": 1, "y": -2})
    for _ in range(50):
        f = random_polynomial(rng, QQ, XY)
        comps = f.homogeneous_components(grading)
        total = Polynomial.zero(QQ, XY)
        for w, part in comps.items():
            assert part.grade_degree(grading) == w
            assert len(part.homogeneous_components(grading)) == 1
            total = total + part
        assert total == f
    assert Polynomial.zero(QQ, XY).grade_degree(grading) == NEG_INF


def test_exact_divide(rng):
    for _ in range(60):
        f = random_polynomial(rng, QQ, XY)
        g = random_polynomial(rng, QQ, XY)
        if g.is_zero():
            continue
        assert (f * g).exact_divide(g) == f
    x = Polynomial.var(QQ, XY, "x")
    with pytest.raises(ValueError):
        (x + Polynomial.one(QQ, XY)).exact_divide(x)
    with pytest.raises(ZeroDivisionError):
        x.exact_divide(Polynomial.zero(QQ, XY))


def test_embed_by_name():
    small = VariableSet(("y",))
    f = Polynomial.var(QQ, small, "y", 2)
    g = f.embed(QQ, XY)
    assert g == Polynomial.var(QQ, XY, "y", 2)
    gi = f.embed(QI, XY)
    assert gi.ring == QI


def test_canonical_text_is_sorted():
    f = (Polynomial.var(QQ, XY, "x", 2) + Polynomial.var(QQ, XY, "y")
         - Polynomial.one(QQ, XY).scale(3))
    assert f.to_str() == "x^2 + y - 3"
    assert Polynomial.zero(QQ, XY).to_str() == "0"


def test_immutability():
    f = Polynomial.one(QQ, XY)
    with pytest.raises(AttributeError):
        f.terms = {}
