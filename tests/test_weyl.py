"""The test-side Weyl oracle (`weyl_algebra`): normal ordering, operator action,
the left-symbol bijection and the right-symbol map, and the general `Element`
constructor it builds on."""

import pytest

from conftest import random_polynomial
from mathieulab.poly import Polynomial, VariableSet
from mathieulab.rings import GF, QQ
from weyl_algebra import (
    Element,
    apply,
    compose,
    d_var,
    from_left_symbol,
    left_normal_terms,
    left_symbol,
    minus,
    one,
    right_symbol,
    z_var,
)

Z2 = ("z1", "z2")
SYMS = VariableSet(("w1", "w2", "z1", "z2"))
ZVARS = VariableSet(Z2)


def random_weyl(rng, ring, z_names, max_exp=3, max_terms=4):
    n = len(z_names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(n))
        b = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[(a, b)] = ring.from_int(rng.randint(-4, 4))
    return Element(ring, z_names, terms)


def test_canonical_commutator():
    z = z_var(QQ, Z2, 1)
    d = d_var(QQ, Z2, 1)
    assert minus(compose(d, z), compose(z, d)) == one(QQ, Z2)
    d2 = d_var(QQ, Z2, 2)
    assert compose(d2, z) == compose(z, d2)


def test_apply_single_term():
    # (z d^2)(z^3) = z * 6z = 6 z^2
    op = Element(QQ, ("z1",), {((1,), (2,)): QQ.one()})
    f = Polynomial.var(QQ, VariableSet(("z1",)), "z1", 3)
    assert apply(op, f) == Polynomial.var(QQ, VariableSet(("z1",)), "z1", 2).scale(6)


def test_compose_matches_sequential_application(rng):
    for _ in range(40):
        u = random_weyl(rng, QQ, Z2, max_exp=2)
        v = random_weyl(rng, QQ, Z2, max_exp=2)
        f = random_polynomial(rng, QQ, ZVARS, max_degree=4)
        assert apply(compose(u, v), f) == apply(u, apply(v, f))


def test_compose_associative(rng):
    for _ in range(20):
        u = random_weyl(rng, QQ, Z2, max_exp=2, max_terms=2)
        v = random_weyl(rng, QQ, Z2, max_exp=2, max_terms=2)
        w = random_weyl(rng, QQ, Z2, max_exp=2, max_terms=2)
        assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_symbol_round_trips(rng):
    for _ in range(60):
        w = random_weyl(rng, QQ, Z2)
        assert from_left_symbol(left_symbol(w, SYMS), Z2) == w
        assert right_symbol(w, SYMS).terms == {b + a: c for (a, b), c in w.terms.items()}
    for _ in range(60):
        p = random_polynomial(rng, QQ, SYMS)
        assert left_symbol(from_left_symbol(p, Z2), SYMS) == p


def test_symbol_round_trips_char_p(rng):
    ring = GF(3)
    for _ in range(30):
        w = random_weyl(rng, ring, Z2)
        assert from_left_symbol(left_symbol(w, SYMS), Z2) == w


def test_reorder_base_case():
    # d z = z d + 1, read off the left-normal terms of the stored product
    z = z_var(QQ, ("z1",), 1)
    d = d_var(QQ, ("z1",), 1)
    prod = compose(d, z)
    assert prod.terms == {((1,), (1,)): QQ.one(), ((0,), (0,)): QQ.one()}
    assert left_normal_terms(prod) == {((1,), (1,)): QQ.one()}


def test_pairs_are_summed_and_checked_like_a_dict():
    z = ((1, 0), (0, 0))
    dz2 = ((0, 0), (0, 2))
    pairs = [(z, QQ.from_int(2)), (dz2, QQ.one()), (z, QQ.from_int(-1)),
             (dz2, QQ.from_int(-1)), (((0, 1), (1, 0)), QQ.zero())]
    w = Element(QQ, Z2, iter(pairs))
    assert w == z_var(QQ, Z2, 1)
    assert w.terms == {z: QQ.one()}
    for key in (((-1, 0), (0, 0)), ((0, 0), (0, -1)), ((1,), (0, 0)), ((0, 0), (1, 0, 0))):
        with pytest.raises(ValueError):
            Element(QQ, Z2, ((k, QQ.one()) for k in [z, key]))


def test_apply_variable_mismatch():
    d = d_var(QQ, ("z1",), 1)
    with pytest.raises(ValueError):
        apply(d, Polynomial.one(QQ, ZVARS))
