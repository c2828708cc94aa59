"""Kernel map, decomposition, certificates, and the power-scan machinery."""

import math
import random

import pytest

from conftest import random_coeff, random_polynomial
from mathieulab.imagemap import (
    ImageProblem,
    L_map,
    MonomialCountScan,
    certify_imD,
    decompose,
    factorial_functional,
    ic1_pipeline,
    monomial_count_scan,
    power_scan,
    recompose,
    t_apply,
    to_u_polynomial,
)
from mathieulab.poly import Polynomial, VariableSet
from mathieulab.rings import GF, QI, QQ

P1 = ImageProblem(1, QQ)
P2 = ImageProblem(2, QQ)


def test_lmap_monomial_rule():
    # w^2 z^5 -> d^2(z^5) = 20 z^3
    f = Polynomial.monomial(QQ, P1.variables, QQ.one(), {"w1": 2, "z1": 5})
    assert L_map(P1, f) == P1.z(1).__pow__(3).scale(20)
    # order above degree kills the term
    g = Polynomial.monomial(QQ, P1.variables, QQ.one(), {"w1": 3, "z1": 2})
    assert L_map(P1, g).is_zero()
    # over F_3 a falling factorial divisible by 3 kills the term: d(z^3) = 3 z^2 = 0
    f3 = ImageProblem(1, GF(3))
    for w_exp, z_exp in ((1, 3), (2, 4)):
        h = Polynomial.monomial(GF(3), f3.variables, GF(3).one(),
                                {"w1": w_exp, "z1": z_exp})
        assert L_map(f3, h).is_zero()
    h = Polynomial.monomial(GF(3), f3.variables, GF(3).one(), {"w1": 1, "z1": 2})
    assert L_map(f3, h) == f3.z(1).scale(2)


def test_lmap_is_linear(rng):
    for _ in range(40):
        f = random_polynomial(rng, QQ, P2.variables)
        g = random_polynomial(rng, QQ, P2.variables)
        assert L_map(P2, f + g) == L_map(P2, f) + L_map(P2, g)


def test_image_inside_kernel(rng):
    """L vanishes on (d/dz_i - w_i) g for every i."""
    for _ in range(40):
        g = random_polynomial(rng, QQ, P2.variables)
        for i in (1, 2):
            image = g.partial(f"z{i}") - P2.zeta(i) * g
            assert L_map(P2, image).is_zero()


def test_zeta_shift_equivariance(rng):
    """L(w^c h) applies d^c to L(h)."""
    for _ in range(30):
        h = random_polynomial(rng, QQ, P2.variables)
        c = [rng.randint(0, 2), rng.randint(0, 2)]
        shifted = Polynomial.monomial(QQ, P2.variables, QQ.one(),
                                      {"w1": c[0], "w2": c[1]}) * h
        expected = L_map(P2, h)
        for i, k in enumerate(c, start=1):
            for _ in range(k):
                expected = expected.partial(f"z{i}")
        assert L_map(P2, shifted) == expected


def test_negative_deg_implies_kernel(rng):
    grading = P2.deg_grading()
    found = 0
    for _ in range(300):
        f = random_polynomial(rng, QQ, P2.variables)
        if f.grade_degree(grading) <= -1:
            found += 1
            assert L_map(P2, f).is_zero()
    assert found > 10


def test_decompose_recompose_round_trip(rng):
    for problem in (P1, P2, ImageProblem(3, QQ), ImageProblem(2, QI)):
        for _ in range(25):
            f = random_polynomial(rng, problem.ring, problem.variables)
            d = decompose(problem, f)
            assert recompose(d) == f
            for comp in d.components.values():
                for name in problem.zeta_names:
                    assert comp.partial(name).is_zero()


def test_decompose_order_independence(rng):
    for _ in range(25):
        f = random_polynomial(rng, QQ, P2.variables)
        a = decompose(P2, f, order=[1, 2])
        b = decompose(P2, f, order=[2, 1])
        assert a.components == b.components


def test_zero_component_is_lmap(rng):
    for _ in range(40):
        f = random_polynomial(rng, QQ, P2.variables)
        d = decompose(P2, f)
        assert d.component((0, 0)) == L_map(P2, f)


def test_decompose_rejects_char_p():
    problem = ImageProblem(1, GF(5))
    with pytest.raises(ValueError):
        decompose(problem, problem.one())


def test_certify_examples():
    f = P1.one() - P1.zeta(1) * P1.z(1)
    cert = certify_imD(P1, f)
    assert cert.status == "member"
    assert cert.witness == [P1.z(1)]
    assert cert.verify(f)

    cert = certify_imD(P1, P1.zeta(1) * P1.z(1))
    assert cert.status == "nonmember"
    assert cert.residue == P1.one()

    cert = certify_imD(P1, P1.zero())
    assert cert.status == "member"
    assert all(h.is_zero() for h in cert.witness)


def test_certificate_iff_kernel(rng):
    for _ in range(60):
        f = random_polynomial(rng, QQ, P2.variables)
        cert = certify_imD(P2, f)
        if L_map(P2, f).is_zero():
            assert cert.status == "member"
            assert cert.verify(f)
        else:
            assert cert.status == "nonmember"
            assert cert.residue == L_map(P2, f)


def test_power_scan_factorials():
    f = P1.zeta(1) * P1.z(1)
    scan = power_scan(P1, f, 6)
    for m, value in enumerate(scan.values, start=1):
        assert value == P1.one().scale(math.factorial(m))
    assert scan.first_nonzero == 1


def test_power_scan_negative_deg():
    f = P1.zeta(1) ** 2 * P1.z(1)
    scan = power_scan(P1, f, 10)
    assert scan.first_nonzero is None


def test_factorial_functional_values():
    u2 = VariableSet(("u1", "u2"))
    f = Polynomial.monomial(QQ, u2, QQ.one(), {"u1": 1, "u2": 2})
    assert factorial_functional(f) == QQ.from_int(2)
    assert factorial_functional(Polynomial.one(QQ, u2)) == QQ.one()
    u1 = VariableSet(("u",))
    assert factorial_functional(Polynomial.var(QQ, u1, "u", 2)) == QQ.from_int(2)


def _pair_polynomial(f: Polynomial) -> Polynomial:
    """u^a -> w^a z^a, as a polynomial over P2."""
    return Polynomial(QQ, P2.variables, {a + a: c for a, c in f.terms.items()})


def test_factorial_functional_matches_lmap(rng):
    u2 = VariableSet(("u1", "u2"))
    for _ in range(30):
        f = random_polynomial(rng, QQ, u2, max_degree=3)
        pair = _pair_polynomial(f)
        assert L_map(P2, pair) == Polynomial.constant(
            QQ, P2.variables, factorial_functional(f))


def test_u_round_trip(rng):
    u2 = VariableSet(("u1", "u2"))
    for _ in range(20):
        f = random_polynomial(rng, QQ, u2, max_degree=3)
        assert to_u_polynomial(P2, _pair_polynomial(f), u2) == f
    with pytest.raises(ValueError):
        to_u_polynomial(P2, P2.zeta(1))


def test_monomial_count_scan_examples():
    u1 = VariableSet(("u",))
    u = Polynomial.var(QQ, u1, "u")
    one = Polynomial.one(QQ, u1)
    scan = monomial_count_scan(u - one)
    assert scan.first_nonzero == 2 and scan.within_monomial_count
    assert scan.values == [QQ.zero(), QQ.one()]
    scan = monomial_count_scan(u)
    assert scan.first_nonzero == 1
    scan = monomial_count_scan(u * u - u.scale(2))
    assert scan.first_nonzero == 2
    assert scan.values[-1] == QQ.from_int(8)
    with pytest.raises(ValueError):
        monomial_count_scan(Polynomial.zero(QQ, u1))
    with pytest.raises(ValueError):
        monomial_count_scan(u - one, bound=1)


def test_ic1_pipeline_branches():
    neg = P1.zeta(1) ** 2 * P1.z(1)
    report = ic1_pipeline(P1, neg)
    assert report["branch"] == "negative_degree"
    assert report["power_scan"]["first_nonzero"] is None

    f = P1.zeta(1) * P1.z(1) - P1.one()
    report = ic1_pipeline(P1, f)
    assert report["branch"] == "shifted_to_diagonal"
    assert report["count_scan"]["within_monomial_count"]

    with pytest.raises(ValueError):
        ic1_pipeline(P2, P2.one())


def test_t_apply_is_the_certificate_operator(rng):
    """t_i h = w_i h - dh/dz_i, including terms that cancel or vanish mod p."""
    for ring in (QQ, QI, GF(3)):
        problem = ImageProblem(2, ring)
        for _ in range(20):
            h = random_polynomial(rng, ring, problem.variables)
            terms = {}
            for _ in range(3):
                # z-exponents divisible by 3 make the derivative vanish over F_3
                exps = (rng.randint(0, 2), rng.randint(0, 2),
                        3 * rng.randint(0, 2), 3 * rng.randint(0, 2))
                terms[exps] = random_coeff(rng, ring)
            i = rng.randint(1, 2)
            # c*y*X + c*Y with Y = X*w_i*z_i: the w_i-shift of the first term
            # cancels the z_i-derivative of the second
            x = [rng.randint(0, 2) for _ in range(4)]
            y = list(x)
            y[i - 1] += 1
            y[i + 1] += 1
            c = random_coeff(rng, ring)
            terms[tuple(x)] = c * ring.from_int(y[i + 1])
            terms[tuple(y)] = c
            h = h + Polynomial(ring, problem.variables, terms)
            for j in (1, 2):
                assert t_apply(problem, j, h) == problem.zeta(j) * h - h.partial(f"z{j}")
        z1, w1 = problem.z(1), problem.zeta(1)
        # the w_1-shift of 2*z1 cancels the derivative of w1*z1^2
        expected = (w1 * z1) ** 2 - problem.one().scale(2)
        assert t_apply(problem, 1, w1 * z1 ** 2 + z1.scale(2)) == expected
        if ring.characteristic == 3:
            assert t_apply(problem, 1, z1 ** 3) == w1 * z1 ** 3
