"""Moments and the three routes to the orthogonal polynomials: the moment
recurrence (against a Gram-Schmidt projection oracle), the Rodrigues closed
forms, and the operator route."""

from fractions import Fraction
from math import factorial

import pytest

from mathieulab import ortho
from mathieulab.ortho import (
    MomentFunctional,
    WeightSpec,
    X_VARS,
    gram_schmidt,
    hankel_determinant,
    inner_product,
    lambda_power,
    log_derivative,
    moments,
    rodrigues,
    rodrigues_constant,
)
from mathieulab.poly import Polynomial, VerificationError
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
            assert fam[i].terms[(i,)] == 1  # monic
            for j in range(i):
                assert not inner_product(fam[i], fam[j], m)


def _projection_oracle(m, d_max):
    """Monic orthogonal polynomials by Gram-Schmidt: x^d minus its projections."""
    polys, norms = {}, {}
    for d in range(d_max + 1):
        p = Polynomial.var(QQ, X_VARS, "x", d)
        for j in range(d):
            if not norms[j]:
                raise ValueError("singular Hankel system in Gram-Schmidt")
            p = p - polys[j].scale(inner_product(p, polys[j], m) / norms[j])
        polys[d] = p
        norms[d] = inner_product(p, p, m)
    return polys


def test_gram_schmidt_matches_projection_oracle():
    for spec in ALL_SPECS:
        m = moments(spec, 32)
        assert gram_schmidt(m, 16) == _projection_oracle(m, 16), spec.label()
    m = moments(WeightSpec("jacobi", 3, 2), 48)
    assert gram_schmidt(m, 24) == _projection_oracle(m, 24)


def test_zero_norm_is_a_singular_hankel_system():
    """Moments 1, 0, 0, ... make <x, x> = 0: degree 1 exists, degree 2 does not."""
    m = MomentFunctional(WeightSpec("hermite"), tuple(Fraction(int(n == 0)) for n in range(5)))
    assert gram_schmidt(m, 1) == _projection_oracle(m, 1) == {0: ONE, 1: X}
    for route in (gram_schmidt, _projection_oracle):
        with pytest.raises(ValueError, match="singular Hankel system"):
            route(m, 2)


def test_rodrigues_degree_check_fires(monkeypatch):
    monkeypatch.setattr(ortho, "rodrigues_constant", lambda spec, a: Fraction(0))
    with pytest.raises(VerificationError, match="wrong degree"):
        rodrigues(WeightSpec("legendre"), 3)


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


OPERATOR_SPECS = ([WeightSpec("hermite"), WeightSpec("legendre")]
                  + [WeightSpec("laguerre", a) for a in range(4)]
                  + [WeightSpec("jacobi", a, b) for a in range(4) for b in range(4)])
GENERATORS = {"hermite": ONE, "laguerre": X, "jacobi": ONE - X * X, "legendre": ONE - X * X}


def _literal_operator_oracle(spec, a):
    """(N_m, D^m) for m = 0..a, where (d/dx + w'/w)^m g^a = N_m / D^m.

    With w'/w = T / D, N_0 = g^a and N_(j+1) = D N_j' + (T - j D') N_j.
    """
    t, den = log_derivative(spec)
    den_prime = den.partial("x")
    num, den_power = GENERATORS[spec.family] ** a, ONE
    for j in range(a + 1):
        yield num, den_power
        num = den * num.partial("x") + (t - den_prime.scale(j)) * num
        den_power = den_power * den


@pytest.mark.parametrize("spec", OPERATOR_SPECS, ids=WeightSpec.label)
def test_lambda_power_matches_literal_oracle(spec):
    """D^m lambda_power(spec, a, m) = N_m for a <= 14 and m <= a."""
    for a in range(15):
        for m, (num, den_power) in enumerate(_literal_operator_oracle(spec, a)):
            assert lambda_power(spec, a, m) * den_power == num, (a, m)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=WeightSpec.label)
def test_lambda_power_takes_m_at_most_a(spec):
    """m > a raises, even where the value is a polynomial (hermite: D = 1)."""
    for a, m in ((0, 1), (2, 3), (3, 5), (0, -1)):
        with pytest.raises(ValueError):
            lambda_power(spec, a, m)


def test_lambda_power_builds_no_products(monkeypatch):
    """lambda_power(spec, a, a) multiplies no Polynomials and builds a fixed number."""
    products, built = [], []
    mul, init = Polynomial.__mul__, Polynomial.__init__

    def counting_mul(self, other):
        products.append(self)
        return mul(self, other)

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    for spec in (WeightSpec("hermite"), WeightSpec("laguerre", 2), WeightSpec("jacobi", 3, 1)):
        counts = []
        for a in (1, 6, 14):
            built.clear()
            lambda_power(spec, a, a)
            counts.append(len(built))
        assert products == [] and len(set(counts)) == 1, (spec.label(), counts)
    list(_literal_operator_oracle(WeightSpec("legendre"), 3))
    assert products  # the counter sees the literal route's products


def test_rodrigues_equals_operator_route():
    for spec in ALL_SPECS:
        if spec.family == "uniform01":
            continue
        for a in range(7):
            lam = lambda_power(spec, a, a)
            assert lam.scale(rodrigues_constant(spec, a)) == rodrigues(spec, a)


def test_rodrigues_proportional_to_monic():
    for spec in ALL_SPECS:
        if spec.family == "uniform01":
            continue
        m = moments(spec, 16)
        fam = gram_schmidt(m, 8)
        for a in range(9):
            rod = rodrigues(spec, a)
            lead = rod.terms[(a,)]
            assert rod == fam[a].scale(lead)


def test_log_derivative_reduces_for_alpha_zero():
    t, den = log_derivative(WeightSpec("laguerre", 0))
    assert den == X and t == -den
    t, den = log_derivative(WeightSpec("legendre"))
    # the pair is not reduced: w'/w = 0 keeps D = (1-x)(1+x)
    assert den == ONE - X * X and t.is_zero()


def test_hankel_nonsingular_for_shipped_families():
    for spec in ALL_SPECS:
        m = moments(spec, 16)
        for d in range(9):
            assert hankel_determinant(m, d) != 0, (spec.label(), d)


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
