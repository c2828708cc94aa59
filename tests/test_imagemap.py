"""Kernel map, decomposition, certificates, and the power-scan machinery."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coeff, random_components, random_polynomial
from mathieulab import imagemap, powers
from mathieulab.imagemap import (
    ImageProblem,
    L_map,
    certify_imD,
    decompose,
    factorial_functional,
    ic1_pipeline,
    monomial_count_scan,
    power_scan,
    recompose,
    t_apply,
)
from mathieulab.parsing import parse_polynomial
from mathieulab.poly import Polynomial, VariableSet
from mathieulab.powers import _int_powers
from mathieulab.rings import GF, QI, QQ, GaussianRational
from weyl_algebra import Element, from_left_symbol, left_symbol

P1 = ImageProblem(1, QQ)
P2 = ImageProblem(2, QQ)


def test_lmap_monomial_rule():
    # w^2 z^5 -> d^2(z^5) = 20 z^3
    f = Polynomial(QQ, P1.variables, {(2, 5): QQ.one()})
    assert L_map(P1, f) == P1.z(1).__pow__(3).scale(20)
    # order above degree kills the term
    g = Polynomial(QQ, P1.variables, {(3, 2): QQ.one()})
    assert L_map(P1, g).is_zero()
    # over F_3 a falling factorial divisible by 3 kills the term: d(z^3) = 3 z^2 = 0
    f3 = ImageProblem(1, GF(3))
    for w_exp, z_exp in ((1, 3), (2, 4)):
        h = Polynomial(GF(3), f3.variables, {(w_exp, z_exp): GF(3).one()})
        assert L_map(f3, h).is_zero()
    h = Polynomial(GF(3), f3.variables, {(1, 2): GF(3).one()})
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
        shifted = Polynomial(QQ, P2.variables, {(*c, 0, 0): QQ.one()}) * h
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
        d = f.grade_degree(grading)
        if d is None or d <= -1:
            found += 1
            assert L_map(P2, f).is_zero()
    assert found > 10


def test_decompose_recompose_round_trip(rng):
    for problem in (P1, P2, ImageProblem(3, QQ), ImageProblem(2, QI)):
        for _ in range(25):
            f = random_polynomial(rng, problem.ring, problem.variables)
            components = decompose(problem, f)
            assert recompose(problem, components) == f
            for comp in components.values():
                for name in problem.variables.names[:problem.n]:
                    assert comp.partial(name).is_zero()


def test_decompose_uniqueness(rng):
    """decompose recovers exactly the w-free components that built f."""
    for problem in (P1, P2, ImageProblem(3, QQ), ImageProblem(2, QI), ImageProblem(3, QI)):
        for _ in range(25):
            components = random_components(rng, problem)
            f = recompose(problem, components)
            assert decompose(problem, f) == components


def test_zero_component_is_lmap(rng):
    for _ in range(40):
        f = random_polynomial(rng, QQ, P2.variables)
        assert decompose(P2, f).get((0, 0), P2.zero()) == L_map(P2, f)


def _symbol_map_route(problem, f):
    """The components and the witness parts read off the test-side Weyl symbol maps.

    The term c z^b d^a of `from_left_symbol(f)` is c z^b in f_a, and h_i is the
    left symbol of sum -c z^c d^(a-e_i) over the components f_a whose first
    nonzero index is i.
    """
    n = problem.n
    components, parts = {}, [{} for _ in range(n)]
    for (b, a), c in from_left_symbol(f, problem.z_names).terms.items():
        components.setdefault(a, {})[(0,) * n + b] = c
        if any(a):
            i = next(j for j, e in enumerate(a) if e)
            parts[i][(b, a[:i] + (a[i] - 1,) + a[i + 1:])] = -c
    witness = [left_symbol(Element(problem.ring, problem.z_names, terms), problem.variables)
               for terms in parts]
    return {a: Polynomial(problem.ring, problem.variables, terms)
            for a, terms in components.items()}, witness


def test_closed_forms_match_the_symbol_map_route(rng):
    """decompose's components and certify_imD's witnesses equal the Weyl route term for term."""
    members = 0
    for problem in [ImageProblem(n, ring) for n in (1, 2, 3) for ring in (QQ, QI)]:
        for case in range(40):
            f = random_polynomial(rng, problem.ring, problem.variables, max_terms=5)
            if case % 2:
                f = f - L_map(problem, f)  # in the kernel of L, so in Im D
            components, witness = _symbol_map_route(problem, f)
            assert {a: c.terms for a, c in decompose(problem, f).items()} == {
                a: c.terms for a, c in components.items()}
            cert = certify_imD(problem, f)
            if cert.status == "member":
                members += 1
                assert [h.terms for h in cert.witness] == [h.terms for h in witness]
    assert members >= 120


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


def test_a_nonmember_certificate_verifies_only_the_polynomial_it_certifies():
    """A residue certifies the f whose L(f) it is, and only a non-zero one."""
    f = Polynomial(QQ, P1.variables, {(1, 2): QQ.one(), (0, 0): QQ.from_int(3)})  # w1*z1^2 + 3
    cert = certify_imD(P1, f)
    assert cert.as_report() == {"status": "nonmember", "residue": "2*z1 + 3"}
    assert cert.verify(f)
    member = P1.zeta(1) * P1.z(1) - P1.one()  # L = 0
    assert not cert.verify(member)
    assert not cert.verify(P1.z(1))  # L = z1, another residue
    assert not imagemap.MembershipCertificate(status="nonmember", residue=P1.zero()).verify(
        P1.zero())


def test_a_certificate_does_not_verify_a_polynomial_of_another_problem():
    one_pair = certify_imD(P1, P1.one() - P1.zeta(1) * P1.z(1))
    for problem in (P2, ImageProblem(1, QI)):
        for cert in (one_pair, certify_imD(P1, P1.z(1))):
            assert not cert.verify(problem.one() - problem.zeta(1) * problem.z(1))


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


def _mixed_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10, 25)))


# coefficient draws per ring: Q and Q(i) denominators differ term to term
_COEFFS = [
    (QQ, _mixed_fraction),
    (QI, lambda rng: GaussianRational(_mixed_fraction(rng), Fraction(0))),
    (QI, lambda rng: GaussianRational(Fraction(0), _mixed_fraction(rng))),
    (QI, lambda rng: GaussianRational(_mixed_fraction(rng), _mixed_fraction(rng))),
    (GF(2), lambda rng: GF(2).from_int(rng.randrange(2))),
    (GF(7), lambda rng: GF(7).from_int(rng.randrange(7))),
    (GF(1000003), lambda rng: GF(1000003).from_int(rng.randrange(1000003))),
]


def _scan_inputs(rng, problem, coeff):
    """The zero and a constant f, then random f with up to 4 terms."""
    ring, variables = problem.ring, problem.variables
    yield problem.zero()
    yield Polynomial.constant(ring, variables, coeff(rng))
    for _ in range(8):
        yield Polynomial(ring, variables, {
            tuple(rng.randint(0, 2) for _ in range(2 * problem.n)): coeff(rng)
            for _ in range(rng.randint(1, 4))})


def test_power_scan_matches_polynomial_route():
    """The integer power loop agrees with Polynomial powers and L_map, and the
    monomial-count scan with factorial_functional of `f ** m`."""
    rng = random.Random(1106)
    for ring, coeff in _COEFFS:
        for n in (1, 2, 3):
            problem = ImageProblem(n, ring)
            for f in _scan_inputs(rng, problem, coeff):
                m_max = rng.randint(1, 8 if n < 3 else 6)
                powers = [f ** m for m in range(1, m_max + 1)]
                scan = power_scan(problem, f, m_max)
                expected = [L_map(problem, p) for p in powers]
                assert scan.values == expected, (ring, f)
                assert scan.first_nonzero == next(
                    (m for m, v in enumerate(expected, start=1) if v), None)
                if f.is_zero():
                    continue
                bound = len(f.terms) + m_max
                count = monomial_count_scan(f, bound)
                values = [factorial_functional(f ** m)
                          for m in range(1, len(count.values) + 1)]
                assert count.values == values, (ring, f)
                # the scan stops at the first nonzero value, else at the bound
                assert not any(values[:-1])
                assert count.first_nonzero == (len(values) if values[-1] else None)
                assert values[-1] or len(values) == bound


# (top, m_max): top * m_max is 2^k - 1 (f^m_max fills a field to all ones) or 2^k
_WIDTH_EDGES = [(3, 5), (5, 3), (1, 7), (2, 4), (4, 4), (1, 8)]


def _nonzero(rng, coeff):
    while not (c := coeff(rng)):
        pass
    return c


def test_power_scan_field_width_edges():
    """Packed keys at their narrowest: f^m_max reaches top * m_max in some field.

    f holds a term w_i^top z_i^top (a_i = b_i, kept by L at every power), a
    pure power of one variable and one random term with exponents <= top.
    """
    rng = random.Random(1207)
    for ring, coeff in (_COEFFS[0], _COEFFS[3], _COEFFS[4], _COEFFS[6]):
        for n in (1, 2, 3):
            problem = ImageProblem(n, ring)
            for top, m_max in _WIDTH_EDGES:
                diagonal, pure = [0] * (2 * n), [0] * (2 * n)
                i = rng.randrange(n)
                diagonal[i] = diagonal[n + i] = top
                pure[rng.randrange(2 * n)] = top
                random_term = tuple(rng.randint(0, top) for _ in range(2 * n))
                f = Polynomial(ring, problem.variables, {
                    tuple(diagonal): _nonzero(rng, coeff), tuple(pure): _nonzero(rng, coeff),
                    random_term: _nonzero(rng, coeff)})
                powers = [f ** m for m in range(1, m_max + 1)]
                scan = power_scan(problem, f, m_max)
                assert scan.values == [L_map(problem, p) for p in powers], (ring, f, m_max)
                count = monomial_count_scan(f, m_max)
                assert count.values == [factorial_functional(p)
                                        for p in powers[:len(count.values)]], (ring, f, m_max)


# (top(f), m_max, top(q)): top(f) * m_max + top(q) is 2^k - 1, a field full to its guard bit
_HORIZON_EDGES = [(3, 5, 0), (2, 3, 1), (1, 5, 2), (3, 4, 3), (2, 7, 1)]


def _random_terms(rng, problem, coeff, count, exponent):
    """Up to `count` terms with nonzero coefficients; `exponent(i)` draws variable i's exponent."""
    return Polynomial(problem.ring, problem.variables, {
        tuple(exponent(i) for i in range(2 * problem.n)): _nonzero(rng, coeff)
        for _ in range(count)})


def _cofactor_cases(rng, problem, coeff):
    """(f, qs, m_max): one to three cofactors whose tops and reaches differ.

    Random tuples, a zero cofactor, f with every D_i = 0, one cofactor per
    z_i (so each D_i(q) comes from a different q), and the horizon width
    edges, where the largest cofactor sets W from anywhere in the tuple.
    Cofactors range over all 2n variables, so they carry w-variables too.
    """
    n = problem.n
    short = 5 if n == 3 else 6

    def draw(top):
        return lambda i: rng.randint(0, top)

    def pure(i, e):
        """The monomial of variable i to the power e, with a random coefficient."""
        key = [0] * (2 * n)
        key[i] = e
        return Polynomial(problem.ring, problem.variables, {tuple(key): _nonzero(rng, coeff)})

    for _ in range(5):
        yield (_random_terms(rng, problem, coeff, rng.randint(1, 4), draw(2)),
               tuple(_random_terms(rng, problem, coeff, rng.randint(1, 3), draw(rng.randint(0, 3)))
                     for _ in range(rng.randint(1, 3))),
               rng.randint(1, short))
    yield (_random_terms(rng, problem, coeff, 3, draw(2)),
           (problem.zero(), _random_terms(rng, problem, coeff, 2, draw(1))), short)
    # every term zeta^a z^b with b <= a: D_i(f) = 0, only the cofactors' reach is left
    a = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3)]
    no_reach = Polynomial(problem.ring, problem.variables, {
        e + tuple(rng.randint(0, k) for k in e): _nonzero(rng, coeff) for e in a})
    yield no_reach, (_random_terms(rng, problem, coeff, 2, draw(2)), pure(n - 1, 3)), short
    # q_i = z_i^(i+1) + w_i: D_i(q) is q_i's alone, and the last q has the largest top
    yield (_random_terms(rng, problem, coeff, 3, draw(2)),
           tuple(pure(n + i, i + 1) + pure(i, 1) for i in range(n)), short)
    for top, m_max, top_q in _HORIZON_EDGES:
        # z_i^top in f and z_i^top_q in the widest q keep b_i + slack at
        # top * m_max + top_q at every step; w_j^top drives a_j to m * top
        i, j = rng.randrange(n), rng.randrange(n)
        f = pure(n + i, top) + pure(j, top) + _random_terms(rng, problem, coeff, 1, draw(top))
        widest = pure(n + i, top_q) + _random_terms(rng, problem, coeff, 1, draw(top_q))
        others = [pure(j, top_q), _random_terms(rng, problem, coeff, 2, draw(top_q // 2))]
        qs = others[:rng.randint(0, 2)]
        qs.insert(rng.randint(0, len(qs)), widest)
        yield f, tuple(qs), m_max


def test_int_powers_with_cofactor_match_the_kernel_map():
    """The pruned power loop yields L(f^m) and each L(q f^m): against `f ** m` and L_map."""
    rng = random.Random(1501)
    for ring, coeff in _COEFFS:
        for n in (1, 2, 3):
            problem = ImageProblem(n, ring)
            for f, qs, m_max in _cofactor_cases(rng, problem, coeff):
                power = problem.one()
                for m, (lf, *products) in enumerate(_int_powers(f, m_max, n, qs), start=1):
                    power = power * f
                    assert lf == L_map(problem, power).terms, (ring, f, qs, m_max, m)
                    assert len(products) == len(qs)
                    for q, lq in zip(qs, products):
                        assert lq == L_map(problem, q * power).terms, (ring, f, q, qs, m_max, m)
                assert m == m_max


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from((2, 3, 5, 7)), n=st.integers(1, 2))
def test_int_powers_past_p_match_the_kernel_map(data, p, n):
    """Over F_p, with w-exponents drawn up to p + 1 so that f, the cofactors
    and the powers carry terms with some a_i >= p, the capped power loop
    yields L(f^m) and each L(q f^m) as `f ** m` and L_map do, to m_max =
    2p + 1, where rows past 2p - 1 are read off Frobenius twice."""
    m_max = data.draw(st.integers(1, 2 * p + 1) | st.just(2 * p + 1))
    ring = GF(p)
    problem = ImageProblem(n, ring)
    term = st.tuples(st.tuples(*[st.integers(0, p + 1)] * n, *[st.integers(0, p + 2)] * n),
                     st.integers(1, p - 1))
    w_free = st.tuples(st.tuples(*[st.just(0)] * n, *[st.integers(0, 2)] * n),
                       st.integers(1, p - 1))

    def draw(most, terms=term, least=1):
        return Polynomial(ring, problem.variables, [
            (e, ring.from_int(c)) for e, c in data.draw(st.lists(terms, min_size=least,
                                                                  max_size=most))])
    f = draw(4) + draw(2, w_free, 0)  # f_0 != 0 makes the rows past p nonzero
    qs = tuple(draw(2) for _ in range(data.draw(st.integers(0, 2))))
    power = problem.one()
    for m, (lf, *products) in enumerate(_int_powers(f, m_max, n, qs), start=1):
        power = power * f
        assert lf == L_map(problem, power).terms, (f, m)
        assert products == [L_map(problem, q * power).terms for q in qs], (f, qs, m)
    assert m == m_max


def test_lmap_of_a_power_past_p_is_frobenius_times_an_earlier_one():
    """Over F_p, L(g f^m) = f_0(z^p) L(g f^(m-p)) for m >= p, f_0 the w-free part
    of f: f^p = f_0(z^p) plus terms with some a_i >= p, which L sends to 0, and
    (b + pc)!/(b + pc - a)! = b!/(b - a)! mod p for a < p.  Polynomial and L_map
    alone, with and without a w-free term, exponents up to p + 1."""
    rng = random.Random(3939)
    for p in (2, 3, 5, 7):
        ring = GF(p)
        for n in (1, 2):
            problem = ImageProblem(n, ring)
            for trial in range(4):
                f, g = (_random_terms(rng, problem, lambda rng: ring.from_int(rng.randrange(p)),
                                      3, lambda i: rng.randint(0, p + 1)) for _ in range(2))
                if trial % 2:
                    f = f + _random_terms(rng, problem, lambda rng: ring.one(), 1,
                                          lambda i: rng.randint(0, 2) if i >= n else 0)
                frobenius = Polynomial(ring, problem.variables, {
                    (0,) * n + tuple(p * b for b in e[n:]): c
                    for e, c in f.terms.items() if not any(e[:n])})
                for m in range(p, 2 * p + 2):
                    assert (L_map(problem, g * f ** m)
                            == frobenius * L_map(problem, g * f ** (m - p))), (p, n, f, g, m)


def test_lmap_vanishes_mod_p_once_a_w_exponent_reaches_p():
    """L(w^a z^b) = b!/(b-a)! z^(b-a), a product of a consecutive integers: over
    F_p it is 0 once a >= p, in either pair, although b >= a keeps it off 0 over Q."""
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            problem = ImageProblem(n, GF(p))
            for a in range(p, 3 * p):
                for b in range(a, a + 2 * p):
                    assert math.perm(b, a) % p == 0 < math.perm(b, a)
                    for i in range(n):
                        exps = [1] * (2 * n)
                        exps[i], exps[n + i] = a, b
                        w = Polynomial(GF(p), problem.variables, {tuple(exps): GF(p).one()})
                        assert L_map(problem, w).is_zero(), (p, n, a, b)


def test_power_scan_without_a_w_free_term_vanishes_from_p(monkeypatch):
    """Over F_p, f^p is the sum of c M^p over f's terms c M (Frobenius), and
    with no w-free term every M^p has some a_i >= p, so L(f^m) = 0 from m = p
    on, also past n(p-1): those rows are f_0(z^p) = 0 times an earlier row, and
    come as fresh empty dicts after at most p - 1 products.  For w1*z1,
    L(f^(p-1)) = (p-1)! is not 0, so the loop runs to f^(p-1), at exactly p - 2
    products, and forms none for the rows past it."""
    calls = []

    def counting(g, h):
        calls.append((g, h))
        return product(g, h)
    product = powers._int_product
    monkeypatch.setattr(powers, "_int_product", counting)
    rng = random.Random(3303)
    for p in (2, 3, 5, 7):
        ring = GF(p)
        for n in (1, 2):
            problem = ImageProblem(n, ring)
            m_max = n * (p - 1) + 4
            for _ in range(4):
                f = _random_terms(rng, problem, lambda rng: ring.from_int(rng.randrange(p)),
                                  4, lambda i: rng.randint(1 if i < n else 0, 3))
                assert all(sum(e[:n]) for e in f.terms)
                calls.clear()
                values = power_scan(problem, f, m_max).values
                assert len(calls) <= p - 1 and not any(values[p - 1:]), (p, n, f)
                rows = list(_int_powers(f, m_max, n, (f, problem.one())))[p - 1:]
                empty = [d for row in rows for d in row]
                assert empty == [{}] * 3 * (m_max - p + 1)
                assert len({id(d) for d in empty}) == len(empty)
        problem = ImageProblem(1, ring)
        calls.clear()
        values = power_scan(problem, problem.zeta(1) * problem.z(1), p + 2).values
        assert values[p - 2].constant_coefficient() == ring.from_int(math.factorial(p - 1))
        assert not any(values[p - 1:]) and len(calls) == p - 2


def test_power_loop_pair_products_on_a_fixed_f7_input(monkeypatch):
    """A deterministic work count: the pair products `_int_product` forms in one
    F_7 power scan of 6 terms to m = 12, the shape of the scans benchmark's F_7
    requests.  The loop multiplies out f^m to m = p - 1 = 6 (2082 products) and
    reads rows 7..12 off f_0(z^7) = 5*z2^7 times rows 0..5 (47).  Multiplying
    out every row to m = 12 forms 5454, and without the cap at a_i <= p - 1
    too, 10152."""
    calls = []

    def counting(g, h):
        calls.append(len(g) * len(h))
        return product(g, h)
    product = powers._int_product
    monkeypatch.setattr(powers, "_int_product", counting)
    problem = ImageProblem(2, GF(7))
    f = parse_polynomial("5*z2 + 2*w2*z1 + 5*w1^2*w2*z1^2*z2 + w1 + 5*w1*z1^2"
                         " + 4*w1*w2^2*z1^2*z2^2", GF(7), problem.variables)
    power_scan(problem, f, 12)
    assert sum(calls) == 2129


def test_power_scan_decodes_only_the_printed_terms(monkeypatch):
    """Over Q, `_int_powers` yields one {exponent tuple: Fraction} per row, the
    printed terms alone, and builds one `Fraction` per printed term."""
    built, rows = [], []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    def recording(*args):
        for row in _int_powers(*args):
            rows.append(row)
            yield row
    monkeypatch.setattr(powers, "Fraction", CountingFraction)
    monkeypatch.setattr(powers, "_int_powers", recording)
    rng = random.Random(2929)
    problem = ImageProblem(2, QQ)
    cancelling = Polynomial(QQ, problem.variables, {(1, 0, 2, 0): Fraction(1),  # L: 2*z1 - 2*z1
                                                    (0, 0, 1, 0): Fraction(-2)})
    for f in [cancelling] + [random_polynomial(rng, QQ, problem.variables) for _ in range(30)]:
        built.clear()
        rows.clear()
        values = power_scan(problem, f, 6).values
        assert len(built) == sum(len(v.terms) for v in values), f
        for (terms,), v in zip(rows, values, strict=True):
            assert type(terms) is dict and all(type(c) is Fraction for c in terms.values())
            assert terms == v.terms
        if f is cancelling:  # its zero sum is dropped before any Fraction is built
            assert rows[0] == [{}]


def test_factorial_functional_values():
    u2 = VariableSet(("u1", "u2"))
    f = Polynomial(QQ, u2, {(1, 2): QQ.one()})
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


def test_ic1_diagonal_part_matches_the_shifted_grade_zero_part():
    """The shifted branch's diagonal part and count scan equal the route the
    one-pair argument spells out: w^r * f, its grade-0 component, rewritten in u1."""
    rng = random.Random(7301)
    u1 = VariableSet(("u1",))
    shifted = 0
    for case in range(700):
        problem = ImageProblem(1, (QQ, QI)[case % 2])
        f = random_polynomial(rng, problem.ring, problem.variables, max_degree=4, max_terms=4)
        report = ic1_pipeline(problem, f, 6).as_report()
        if report["branch"] != "shifted_to_diagonal":
            continue
        shifted += 1
        r = report["shift_power"]
        g = problem.zeta(1) ** r * f
        g0 = g.homogeneous_components(problem.deg_grading()).get(0, problem.zero())
        assert all(a == b for a, b in g0.terms)
        u_poly = Polynomial(problem.ring, u1, {(b,): c for (_a, b), c in g0.terms.items()})
        assert report["diagonal_part"] == u_poly.to_str()
        assert report["count_scan"] == monomial_count_scan(u_poly).as_report()
    assert shifted >= 500


def test_ic1_pipeline_branches():
    neg = P1.zeta(1) ** 2 * P1.z(1)
    report = ic1_pipeline(P1, neg).as_report()
    assert report["branch"] == "negative_degree"
    assert report["power_scan"]["first_nonzero"] is None

    f = P1.zeta(1) * P1.z(1) - P1.one()
    report = ic1_pipeline(P1, f).as_report()
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
