"""Field axioms and valuation facts for the coefficient rings."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieulab.rings import (
    GF,
    QI,
    QQ,
    GaussianRational,
    PrimeFieldElement,
    RingDescriptor,
    is_prime,
    valuation_p,
)

fractions_st = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
gaussians = st.builds(GaussianRational, fractions_st, fractions_st)
f7 = st.integers(min_value=0, max_value=6).map(lambda r: PrimeFieldElement(r, 7))


def _field_axioms(a, b, c, one):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == a - a
    assert a * one == a
    if b:
        assert (a / b) * b == a


@settings(max_examples=500)
@given(gaussians, gaussians, gaussians)
def test_gaussian_field_axioms(a, b, c):
    _field_axioms(a, b, c, QI.one())


@settings(max_examples=500)
@given(f7, f7, f7)
def test_prime_field_axioms(a, b, c):
    _field_axioms(a, b, c, GF(7).one())


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_gaussian_division_inverts():
    x = GaussianRational.of(Fraction(3, 2), Fraction(-1, 3))
    assert (QI.one() / x) * x == QI.one()
    with pytest.raises(ZeroDivisionError):
        QI.one() / GaussianRational.of(0, 0)


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 5) + PrimeFieldElement(1, 7)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RingDescriptor("Fp", 6)
    with pytest.raises(ValueError):
        RingDescriptor("Q", 5)
    with pytest.raises(ValueError):
        RingDescriptor("Z")
    with pytest.raises(ValueError):
        QQ.imaginary_unit()
    assert QI.imaginary_unit() * QI.imaginary_unit() == QI.from_int(-1)


def test_from_fraction_in_char_p():
    r = GF(5)
    # 1/2 = 3 mod 5
    assert r.from_fraction(Fraction(1, 2)) == r.from_int(3)
    with pytest.raises(ZeroDivisionError):
        r.from_fraction(Fraction(1, 5))


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7]))
def test_valuation_is_additive(n, p):
    m = n + 1
    assert valuation_p(Fraction(n) * Fraction(m), p) == \
        valuation_p(n, p) + valuation_p(m, p)
    assert valuation_p(Fraction(n, m), p) == valuation_p(n, p) - valuation_p(m, p)


def test_valuation_of_zero_is_infinite():
    assert valuation_p(0, 3) == math.inf


def test_format_round_trip_constants():
    from mathieulab.parsing import parse_polynomial
    from mathieulab.poly import VariableSet

    no_vars = VariableSet(())
    cases = [
        (QQ, Fraction(-7, 3)),
        (QQ, Fraction(4)),
        (QI, GaussianRational.of(Fraction(1, 2), Fraction(-2, 3))),
        (QI, GaussianRational.of(0, 1)),
        (QI, GaussianRational.of(0, -1)),
        (GF(11), GF(11).from_int(9)),
    ]
    for ring, value in cases:
        text = ring.format(value)
        back = parse_polynomial(text, ring, no_vars).constant_coefficient()
        assert back == value, (text, value)
