"""Moments, Gram-Schmidt, Rodrigues recursions, and the operator route."""

from fractions import Fraction
from math import factorial

import pytest

from mathieulab import ortho
from mathieulab.ortho import (
    MomentFunctional,
    TwistedRational,
    WeightSpec,
    X_VARS,
    gram_schmidt,
    hankel_determinant,
    hankel_nonsingularity,
    inner_product,
    lambda_power,
    log_derivative,
    moments,
    rodrigues,
    rodrigues_constant,
)
from mathieulab.poly import Polynomial, VariableSet
from mathieulab.rings import QQ

X = Polynomial.var(QQ, X_VARS, "x")
ONE = Polynomial.one(QQ, X_VARS)

ALL_SPECS = ([WeightSpec("hermite"), WeightSpec("legendre"), WeightSpec("uniform01")]
             + [WeightSpec("laguerre", a) for a in (0, 1, 2)]
             + [WeightSpec("jacobi", a, b) for a in (0, 1, 2) for b in (0, 1, 2)])


def test_moment_closed_forms():
    h = moments(WeightSpec("hermite"), 8)
    for k in range(5):
        assert h.moment(2 * k) == Fraction(factorial(2 * k),
                                           4 ** k * factorial(k))
        if 2 * k + 1 <= 8:
            assert h.moment(2 * k + 1) == 0
    lag = moments(WeightSpec("laguerre", 2), 6)
    for n in range(7):
        assert lag.moment(n) == Fraction(factorial(n + 2), 2)
    uni = moments(WeightSpec("uniform01"), 6)
    assert [uni.moment(n) for n in range(4)] == [1, Fraction(1, 2),
                                                 Fraction(1, 3), Fraction(1, 4)]
    leg = moments(WeightSpec("legendre"), 6)
    assert leg.moment(0) == 1
    assert leg.moment(1) == 0
    assert leg.moment(2) == Fraction(1, 3)


def test_jacobi_moments_are_normalized():
    for a in range(3):
        for b in range(3):
            m = moments(WeightSpec("jacobi", a, b), 10)
            assert m.moment(0) == 1


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("hermite", alpha=1)
    with pytest.raises(ValueError):
        WeightSpec("laguerre", beta=1)
    with pytest.raises(ValueError):
        WeightSpec("gaussian")
    with pytest.raises(ValueError):
        WeightSpec("jacobi", alpha=-1)


def test_gram_schmidt_orthogonality():
    for spec in ALL_SPECS:
        m = moments(spec, 12)
        fam = gram_schmidt(m, 6)
        for i in range(7):
            assert fam.polys[i].terms[(i,)] == 1  # monic
            for j in range(i):
                assert not inner_product(fam.polys[i], fam.polys[j], m)


def test_rodrigues_known_values():
    # physicists' Hermite: H2 = 4x^2 - 2, H3 = 8x^3 - 12x
    h = WeightSpec("hermite")
    assert rodrigues(h, 2) == X * X * 4 - ONE * 2
    assert rodrigues(h, 3) == (X ** 3) * 8 - X * 12
    # Laguerre(0): L1 = 1 - x, L2 = x^2/2 - 2x + 1
    l0 = WeightSpec("laguerre")
    assert rodrigues(l0, 1) == ONE - X
    assert rodrigues(l0, 2) == (X * X).scale(Fraction(1, 2)) - X * 2 + ONE
    # Legendre: P2 = (3x^2 - 1)/2
    leg = WeightSpec("legendre")
    assert rodrigues(leg, 2) == (X * X * 3 - ONE).scale(Fraction(1, 2))


def test_degree_one_outputs():
    assert rodrigues(WeightSpec("hermite"), 1) == X * 2
    assert rodrigues(WeightSpec("laguerre"), 1) == ONE - X
    assert rodrigues(WeightSpec("legendre"), 1) == X


def test_rodrigues_equals_operator_route():
    for spec in ALL_SPECS:
        if spec.family == "uniform01":
            continue
        for a in range(7):
            lam = lambda_power(spec, a, a)
            assert lam.is_polynomial()
            assert lam.as_polynomial().scale(rodrigues_constant(spec, a)) \
                == rodrigues(spec, a)


def test_lambda_power_midway_can_be_twisted():
    # for Laguerre(0), one application of the operator to g^2 is already
    # polynomial only after reduction; higher alpha stays twisted longer
    spec = WeightSpec("laguerre", 2)
    t = lambda_power(spec, 2, 1)
    assert isinstance(t, TwistedRational)


def test_rodrigues_proportional_to_monic():
    for spec in ALL_SPECS:
        if spec.family == "uniform01":
            continue
        m = moments(spec, 16)
        fam = gram_schmidt(m, 8)
        for a in range(9):
            rod = rodrigues(spec, a)
            lead = rod.terms[(a,)]
            assert rod == fam.polys[a].scale(lead)


def test_twisted_rational_reduction():
    x = X
    tr = TwistedRational(x * x, {"x": 1})
    assert tr.numerator == x and not tr.denominator
    tr = TwistedRational(x + ONE, {"x": 1})
    assert tr.denominator == {"x": 1}
    with pytest.raises(ValueError):
        tr.as_polynomial()
    with pytest.raises(ValueError):
        TwistedRational(x, {"x^2": 1})


def test_twisted_rational_derivative_quotient_rule():
    # d/dx (x^3 / (1-x)) == (3x^2(1-x) + x^3) / (1-x)^2
    tr = TwistedRational(X ** 3, {"1-x": 1})
    d = tr.derivative()
    expected_num = (X * X * 3) * (ONE - X) + X ** 3
    assert d == TwistedRational(expected_num, {"1-x": 2})


def test_log_derivative_reduces_for_alpha_zero():
    ld = log_derivative(WeightSpec("laguerre", 0))
    assert ld.is_polynomial() and ld.as_polynomial() == -ONE
    ld = log_derivative(WeightSpec("legendre"))
    # (-0(1+x) + 0(1-x)) / ((1-x)(1+x)) reduces to zero
    assert ld.is_polynomial() and ld.as_polynomial().is_zero()


def test_hankel_nonsingular_for_shipped_families():
    for spec in ALL_SPECS:
        m = moments(spec, 16)
        for d in range(9):
            assert hankel_nonsingularity(m, d), (spec.label(), d)


def test_hankel_base_values():
    uni = moments(WeightSpec("uniform01"), 4)
    # det [[1, 1/2], [1/2, 1/3]] = 1/12
    assert hankel_determinant(uni, 1) == Fraction(1, 12)


def test_moment_functional_bounds():
    m = moments(WeightSpec("hermite"), 4)
    with pytest.raises(ValueError):
        m.moment(5)
    with pytest.raises(ValueError):
        gram_schmidt(m, 4)
