"""Moments and the three routes to the orthogonal polynomials: the moments'
Pearson recurrence (against the closed forms), the three-term recurrence
(against a Gram-Schmidt projection oracle), the Rodrigues closed forms, and
the operator route."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from conftest import MomentTable
from mathieulab import ortho
from mathieulab.ortho import (
    MomentFunctional,
    WeightSpec,
    X_VARS,
    gram_schmidt,
    hankel_determinant,
    inner_product,
    lambda_power,
    rodrigues,
    rodrigues_constant,
)
from mathieulab.poly import Polynomial
from mathieulab.rings import QQ

X = Polynomial.var(QQ, X_VARS, "x")
ONE = Polynomial.one(QQ, X_VARS)

ALL_SPECS = ([WeightSpec("hermite"), WeightSpec("legendre"), WeightSpec("uniform01")]
             + [WeightSpec("laguerre", a) for a in (0, 1, 2)]
             + [WeightSpec("jacobi", a, b) for a in (0, 1, 2) for b in (0, 1, 2)])


def _jacobi_raw_moment(n, alpha, beta):
    """Integral of x^n (1-x)^alpha (1+x)^beta over (-1, 1), as a double sum."""
    return sum((Fraction((-1) ** j * comb(alpha, j) * comb(beta, k) * 2, n + j + k + 1)
                for j in range(alpha + 1) for k in range(beta + 1) if (n + j + k) % 2 == 0),
               Fraction(0))


def _closed_form_moment(spec, n):
    """mu_n / mu_0 from each family's own closed form."""
    if spec.family == "hermite":
        return Fraction(factorial(n), 4 ** (n // 2) * factorial(n // 2)) if n % 2 == 0 else 0
    if spec.family == "laguerre":
        return Fraction(factorial(n + spec.alpha), factorial(spec.alpha))
    if spec.family == "uniform01":
        return Fraction(1, n + 1)
    return (_jacobi_raw_moment(n, spec.alpha, spec.beta)
            / _jacobi_raw_moment(0, spec.alpha, spec.beta))


RECURRENCE_SPECS = ([WeightSpec("hermite"), WeightSpec("legendre"), WeightSpec("uniform01")]
                    + [WeightSpec("laguerre", a) for a in range(5)]
                    + [WeightSpec("jacobi", a, b) for a in range(5) for b in range(5)])


@pytest.mark.parametrize("spec", RECURRENCE_SPECS, ids=WeightSpec.label)
def test_moment_recurrence_matches_closed_forms(spec):
    """The Pearson recurrence gives each family's closed form up to n = 40, read
    in order or out of it, and a later read never changes an earlier value."""
    expected = [_closed_form_moment(spec, n) for n in range(41)]
    ascending = MomentFunctional(spec)
    assert [ascending.moment(n) for n in range(41)] == expected
    order = list(range(41))
    random.Random(spec.label()).shuffle(order)
    shuffled = MomentFunctional(spec)
    first = {n: shuffled.moment(n) for n in order}
    assert [first[n] for n in range(41)] == expected
    assert all(shuffled.moment(n) is first[n] for n in order)
    assert MomentFunctional(spec).moment(40) == expected[40]


def test_negative_moment_index_is_refused():
    """A negative n raises on a fresh functional and after moments are made."""
    m = MomentFunctional(WeightSpec("hermite"))
    with pytest.raises(ValueError, match="non-negative"):
        m.moment(-1)
    assert m.moment(4) == Fraction(3, 4)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="non-negative"):
            m.moment(n)
    assert [m.moment(n) for n in range(5)] == [1, 0, Fraction(1, 2), 0, Fraction(3, 4)]


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
        m = MomentFunctional(spec)
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
        m = MomentFunctional(spec)
        assert gram_schmidt(m, 16) == _projection_oracle(m, 16), spec.label()
    m = MomentFunctional(WeightSpec("jacobi", 3, 2))
    assert gram_schmidt(m, 24) == _projection_oracle(m, 24)


def test_zero_norm_is_a_singular_hankel_system():
    """Moments 1, 0, 0, ... make <x, x> = 0: degree 1 exists, degree 2 does not."""
    m = MomentTable(WeightSpec("hermite"), [1, 0, 0, 0, 0])
    assert gram_schmidt(m, 1) == _projection_oracle(m, 1) == {0: ONE, 1: X}
    for route in (gram_schmidt, _projection_oracle):
        with pytest.raises(ValueError, match="singular Hankel system"):
            route(m, 2)


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


def log_derivative(spec):
    """w'/w as the pair (T, D) with w'/w = T / D, D the weight's singular product."""
    return tuple(ortho._x_poly(coeffs) for coeffs in ortho._operator(spec))


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
    """D^a lambda_power(spec, a) = N_a for a <= 14."""
    for a in range(15):
        *_, (num, den_power) = _literal_operator_oracle(spec, a)
        assert lambda_power(spec, a) * den_power == num, a


@pytest.mark.parametrize("spec", ALL_SPECS, ids=WeightSpec.label)
def test_lambda_power_has_degree_a(spec):
    """w^(-1) d^a (w g^a) has degree exactly a, uniform01 too; a < 0 raises."""
    assert lambda_power(spec, 0) == ONE
    for a in range(1, 9):
        assert lambda_power(spec, a).total_degree() == a, a
    for a in (-1, -3):
        with pytest.raises(ValueError):
            lambda_power(spec, a)


def test_lambda_power_builds_no_products(monkeypatch):
    """lambda_power(spec, a) multiplies no Polynomials and builds a fixed number."""
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
            lambda_power(spec, a)
            counts.append(len(built))
        assert products == [] and len(set(counts)) == 1, (spec.label(), counts)
    list(_literal_operator_oracle(WeightSpec("legendre"), 3))
    assert products  # the counter sees the literal route's products


def test_rodrigues_equals_operator_route():
    for spec in ALL_SPECS:
        if spec.family == "uniform01":
            continue
        for a in range(7):
            lam = lambda_power(spec, a)
            assert lam.scale(rodrigues_constant(spec, a)) == rodrigues(spec, a)


def test_rodrigues_proportional_to_monic():
    for spec in ALL_SPECS:
        if spec.family == "uniform01":
            continue
        m = MomentFunctional(spec)
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
        m = MomentFunctional(spec)
        for d in range(9):
            assert hankel_determinant(m, d) != 0, (spec.label(), d)


def test_hankel_base_values():
    uni = MomentFunctional(WeightSpec("uniform01"))
    # det [[1, 1/2], [1/2, 1/3]] = 1/12
    assert hankel_determinant(uni, 1) == Fraction(1, 12)
