"""Polynomial ring laws, calculus rules, and canonical-form behavior."""

import random
from fractions import Fraction

import pytest

from conftest import random_polynomial
from mathieulab.imagemap import _falling_product
from mathieulab.poly import Polynomial, VariableSet
from mathieulab.powers import _below, _int_powers, _pack, _pair_mask, _unpacker
from mathieulab.rings import GF, QI, QQ, GaussianRational

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
    # pairs: a repeated key, a pair that cancels and a zero coefficient
    pairs = [((1, 0), Fraction(1, 2)), ((2, 1), Fraction(3)), ((1, 0), Fraction(1, 2)),
             ((2, 1), Fraction(-3)), ((0, 1), Fraction(0))]
    assert Polynomial(QQ, XY, iter(pairs)) == p
    assert Polynomial(QQ, XY, iter(pairs)).terms == {(1, 0): Fraction(1)}
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
    # keys arriving as (key, coeff) pairs get the same checks
    for key in ((-1, 0), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            Polynomial(QQ, XY, ((k, QQ.one()) for k in [(0, 0), key]))


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
    """A grading is one integer weight per variable, in order; a zero weight
    leaves its variable out of the degree."""
    for weights in ((1, -2), (0, 1), (1, 1)):
        for _ in range(50):
            f = random_polynomial(rng, QQ, XY)
            comps = f.homogeneous_components(weights)
            total = Polynomial.zero(QQ, XY)
            for w, part in comps.items():
                assert part.grade_degree(weights) == w
                assert len(part.homogeneous_components(weights)) == 1
                total = total + part
            assert total == f
            if weights == (1, 1) and f:
                assert f.total_degree() == f.grade_degree(weights)
        assert Polynomial.zero(QQ, XY).grade_degree(weights) is None
    x3y2 = Polynomial.var(QQ, XY, "x", 3) * Polynomial.var(QQ, XY, "y", 2)
    assert x3y2.grade_degree((0, 1)) == 2 and x3y2.total_degree() == 5
    assert Polynomial.zero(QQ, XY).total_degree() is None


def test_embed_by_name():
    small = VariableSet(("y",))
    f = Polynomial.var(QI, small, "y", 2)
    g = f.embed(XY)
    assert g == Polynomial.var(QI, XY, "y", 2)
    assert g.ring == QI


def test_canonical_text_is_sorted():
    f = (Polynomial.var(QQ, XY, "x", 2) + Polynomial.var(QQ, XY, "y")
         - Polynomial.one(QQ, XY).scale(3))
    assert f.to_str() == "x^2 + y - 3"
    assert Polynomial.zero(QQ, XY).to_str() == "0"


X = VariableSet(("x",))


@pytest.mark.parametrize("ring, coeff, expected", [
    (QQ, QQ.from_int(1), ("1", "x", "x + 1", "x^2 + x")),
    (QQ, QQ.from_int(-1), ("-1", "-x", "x - 1", "x^2 - x")),
    (QQ, Fraction(7, 3), ("7/3", "7/3*x", "x + 7/3", "x^2 + 7/3*x")),
    (QQ, Fraction(-7, 3), ("-7/3", "-7/3*x", "x - 7/3", "x^2 - 7/3*x")),
    (GF(7), GF(7).from_int(1), ("1", "x", "x + 1", "x^2 + x")),
    (GF(7), GF(7).from_int(5), ("5", "5*x", "x + 5", "x^2 + 5*x")),
    (QI, QI.from_int(1), ("1", "x", "x + 1", "x^2 + x")),
    (QI, QI.from_fraction(Fraction(-3, 2)),
     ("-3/2", "-3/2*x", "x - 3/2", "x^2 - 3/2*x")),
    (QI, QI.imaginary_unit(), ("i", "i*x", "x + i", "x^2 + i*x")),
    (QI, -QI.imaginary_unit(), ("-i", "-i*x", "x - i", "x^2 - i*x")),
    (QI, QI.from_fraction(Fraction(2, 3)) * QI.imaginary_unit(),
     ("2/3*i", "2/3*i*x", "x + 2/3*i", "x^2 + 2/3*i*x")),
    (QI, QI.from_fraction(Fraction(-2, 3)) * QI.imaginary_unit(),
     ("-2/3*i", "-2/3*i*x", "x - 2/3*i", "x^2 - 2/3*i*x")),
    (QI, QI.from_fraction(Fraction(1, 2))
     - QI.from_fraction(Fraction(2, 3)) * QI.imaginary_unit(),
     ("(1/2-2/3*i)", "(1/2-2/3*i)*x", "x + (1/2-2/3*i)", "x^2 + (1/2-2/3*i)*x")),
    (QI, QI.from_int(3) * QI.imaginary_unit(), ("3*i", "3*i*x", "x + 3*i", "x^2 + 3*i*x")),
    (QI, QI.from_int(-3) * QI.imaginary_unit(),
     ("-3*i", "-3*i*x", "x - 3*i", "x^2 - 3*i*x")),
    (QI, QI.from_int(2) + QI.imaginary_unit(),
     ("(2+i)", "(2+i)*x", "x + (2+i)", "x^2 + (2+i)*x")),
    (QI, QI.from_int(2) - QI.imaginary_unit(),
     ("(2-i)", "(2-i)*x", "x + (2-i)", "x^2 + (2-i)*x")),
    (QI, QI.from_fraction(Fraction(-1, 2))
     + QI.from_fraction(Fraction(2, 3)) * QI.imaginary_unit(),
     ("(-1/2+2/3*i)", "(-1/2+2/3*i)*x", "x + (-1/2+2/3*i)", "x^2 + (-1/2+2/3*i)*x")),
    (QI, QI.from_fraction(Fraction(-5, 4)), ("-5/4", "-5/4*x", "x - 5/4", "x^2 - 5/4*x")),
], ids=["Q-1", "Q-neg1", "Q-7_3", "Q-neg7_3", "F7-1", "F7-5", "Qi-1", "Qi-neg3_2",
        "Qi-i", "Qi-neg-i", "Qi-2_3i", "Qi-neg2_3i", "Qi-mixed", "Qi-3i", "Qi-neg3i",
        "Qi-2+i", "Qi-2-i", "Qi-neg1_2+2_3i", "Qi-real-neg5_4"])
def test_printed_coefficient(ring, coeff, expected):
    # c alone, c before a monomial, then each as a later term
    one = ring.one()
    shapes = [{(0,): coeff}, {(1,): coeff}, {(1,): one, (0,): coeff},
              {(2,): one, (1,): coeff}]
    assert tuple(Polynomial(ring, X, t).to_str() for t in shapes) == expected


def _fraction_formatted(c) -> str:
    """The Q(i) literal as printed by comparing `Fraction`s: the reference formatter."""
    if not c.im:
        return str(c.re)
    mag = abs(c.im)
    im = "i" if mag == 1 else f"{mag}*i"
    if not c.re:
        return im if c.im > 0 else f"-{im}"
    return f"{c.re}{'+' if c.im > 0 else '-'}{im}"


def test_gaussian_literals_match_the_fraction_formatter():
    """Random Gaussian rationals, zero parts and unit magnitudes included, print
    as the reference formatter prints them, alone and as the coefficient of x."""
    rng = random.Random(2929)

    def part():
        num = rng.choice((0, 0, 1, -1, rng.randint(-40, 40)))
        return Fraction(num, rng.choice((1, 1, rng.randint(1, 12))))
    for _ in range(1500):
        c = GaussianRational(part(), part())
        text = _fraction_formatted(c)
        assert str(c) == text
        if not c:
            continue
        if c.re and c.im:
            sign, body = "+", f"({text})"
        else:
            sign, body = ("-", text[1:]) if text.startswith("-") else ("+", text)
        alone = "x" if body == "1" else f"{body}*x"
        assert Polynomial(QI, X, {(1,): c}).to_str() == ("-" if sign == "-" else "") + alone
        assert Polynomial(QI, X, {(2,): QI.one(), (1,): c}).to_str() == f"x^2 {sign} {alone}"


MIXED = VariableSet(("x", "t"), laurent=frozenset(("t",)))


@pytest.mark.parametrize("variables, before, key, message", [
    (XY, (0, 0), (1,), "exponent tuple length mismatch"),
    (XY, (0, 0), (1, 0, 0), "exponent tuple length mismatch"),
    (XY, (0, 0), (0, -1), "negative exponent on non-Laurent variable y"),
    (MIXED, (1, -3), (-1, 2), "negative exponent on non-Laurent variable x"),
    (MIXED, (0, -1), (-1, -2), "negative exponent on non-Laurent variable x"),
])
def test_constructor_error_texts(variables, before, key, message):
    """Dict and pair input raise the same text, after a valid term; in a mixed
    set only x's negative exponent fails, and t's is accepted."""
    one = QQ.one()
    for terms in ({before: one, key: one}, [(before, one), (key, one)]):
        with pytest.raises(ValueError) as raised:
            Polynomial(QQ, variables, terms)
        assert str(raised.value) == message
    assert Polynomial(QQ, MIXED, {(2, -3): one, (0, -1): one}).terms == {(2, -3): one,
                                                                         (0, -1): one}


def test_immutability():
    f = Polynomial.one(QQ, XY)
    with pytest.raises(AttributeError):
        f.terms = {}


def test_int_powers_rejects_negative_exponents():
    f = Polynomial(QQ, LT, {(-1,): Fraction(1), (1,): Fraction(1)})  # t^-1 + t
    with pytest.raises(ValueError):
        list(_int_powers(f, 3))


def test_pair_mask_keeps_exactly_the_terms_L_keeps():
    """On packed keys w^a z^b at widths near their minimum, the mask keeps a
    key exactly when every a_i <= b_i, and a_i <= cap with a cap (None, or one
    past the field, keeps every key); unpacking inverts packing."""
    rng = random.Random(1208)
    for n in (1, 2, 3):
        for width in (1, 2, 3, 4):
            top = (1 << (width - 1)) - 1  # the largest exponent below the guard bit
            unpack = _unpacker(2 * n, width)
            for cap in (None, 0, 1, max(top - 1, 0), top, top + 1):
                keep = _pair_mask(n, width, cap=cap)
                for _ in range(100):
                    exps = tuple(rng.choice((0, top, rng.randint(0, top))) for _ in range(2 * n))
                    key = _pack(exps, width)
                    assert unpack(key) == exps
                    assert keep(key) == (_falling_product(exps[n:], exps[:n]) != 0 and (
                        cap is None or max(exps[:n]) <= cap)), (n, width, cap, exps)


def test_below_keeps_exactly_the_keys_under_the_ceiling():
    """At widths near their minimum, a key passes exactly when every e_j <= c_j,
    with ceilings past the field (clamped) and below zero (no key passes)."""
    rng = random.Random(2707)
    for nvars in (1, 2, 3):
        for width in (1, 2, 3, 4):
            top = (1 << (width - 1)) - 1  # the largest exponent below the guard bit
            for _ in range(100):
                ceiling = [rng.choice((-1, 0, top, top + 1, 1 << width, rng.randint(0, top)))
                           for _ in range(nvars)]
                keep = _below(ceiling, width)
                for _ in range(10):
                    exps = [rng.choice((0, top, rng.randint(0, top))) for _ in range(nvars)]
                    assert keep(_pack(exps, width)) == all(map(int.__le__, exps, ceiling)), (
                        width, ceiling, exps)
