"""Positive-characteristic certificates and the valuation machinery."""

import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polynomial
from mathieulab import charp
from mathieulab.charp import (
    crucial_lemma_descent,
    example12_refutation,
    koszul_solve,
    lemma81_nonvanishing,
    sufficient_membership,
    theorem51_pipeline,
    willems_scan,
)
from mathieulab.imagemap import ImageProblem, monomial_count_scan, t_apply
from mathieulab.parsing import parse_polynomial
from mathieulab.poly import Polynomial, VariableSet, VerificationError
from mathieulab.rings import GF, QI, QQ, is_prime, valuation_p
from test_acceptance import frobenius_expansion_check, w_ideal_member

U_VARS = VariableSet(("u",))


def _u_poly(coeffs):
    return Polynomial(QQ, U_VARS,
                      {(e,): QQ.from_fraction(Fraction(c)) for e, c in coeffs.items()})


@pytest.mark.parametrize("ring", (QQ, QI))
def test_char_p_arguments_reject_characteristic_zero(ring):
    problem = ImageProblem(2, ring)
    one, zero = problem.one(), problem.zero()
    with pytest.raises(ValueError, match="not characteristic 0"):
        theorem51_pipeline(problem.zeta(1), one, problem)
    with pytest.raises(ValueError, match="not characteristic 0"):
        sufficient_membership(problem.zeta(1) ** 2, problem)
    with pytest.raises(ValueError, match="not characteristic 0"):
        crucial_lemma_descent(zero, zero, zero, problem)


def _shift(problem, i, h):
    """d/dz_i - w_i applied to h, which is -t_i h."""
    return -t_apply(problem, i, h)


def test_shift_operator_p_th_power_is_multiplication():
    """(d/dz_i - w_i)^p acts as multiplication by -w_i^p."""
    rng = random.Random(3)
    for p in (2, 3):
        problem = ImageProblem(2, GF(p))
        for _ in range(20):
            h = random_polynomial(rng, problem.ring, problem.variables)
            for i in (1, 2):
                lhs = h
                for _ in range(p):
                    lhs = _shift(problem, i, lhs)
                assert lhs == -(problem.zeta(i) ** p) * h


def test_monomial_ideal_membership():
    """I = (w_i) is the exponent threshold 1 and J = (w_i^p) the threshold p."""
    problem = ImageProblem(2, GF(3))
    f = problem.zeta(1) ** 3 * problem.z(2) + problem.zeta(2) ** 4
    assert w_ideal_member(f, 2, 3)
    assert w_ideal_member(f, 2, 1)
    assert not w_ideal_member(f + problem.one(), 2, 1)
    assert w_ideal_member(problem.zero(), 2, 3)
    in_i_only = problem.zeta(1) * problem.z(2)
    assert w_ideal_member(in_i_only, 2, 1)
    assert not w_ideal_member(in_i_only, 2, 3)


def test_sufficient_membership_witness():
    rng = random.Random(5)
    for p in (2, 3):
        problem = ImageProblem(2, GF(p))
        for _ in range(15):
            base = random_polynomial(rng, problem.ring, problem.variables)
            b = (problem.zeta(1) ** p) * base
            witness = sufficient_membership(b, problem)
            assert witness is not None
            assert witness.verify(b)


def test_sufficient_membership_declines():
    problem = ImageProblem(1, GF(3))
    assert sufficient_membership(problem.one(), problem) is None
    assert sufficient_membership(problem.zeta(1), problem) is None


def test_koszul_solve():
    problem = ImageProblem(2, GF(2))
    g = problem.z(1) * problem.z(2)
    p_poly = problem.zeta(2) * g
    q_poly = -(problem.zeta(1) * g)
    assert koszul_solve(problem, p_poly, q_poly) == g
    # w1*z1 + w2*z1 != 0: the re-check refuses the pair
    with pytest.raises(VerificationError, match="Koszul solution failed to re-verify"):
        koszul_solve(problem, problem.z(1), problem.z(1))


def test_descent_on_random_witnesses():
    """Witnesses of z-degree <= 3: a random pair plus (t2 G, -t1 G) for a
    random G, which leaves b unchanged, so the top layers can cancel and the
    Koszul steps find non-zero quotients."""
    rng = random.Random(11)
    checked, g_tops, g_mids = 0, 0, 0
    for p in (2, 3):
        problem = ImageProblem(2, GF(p))
        grading = problem.z_grading()
        for _ in range(60):
            p_wit, q_wit, big_g = (random_polynomial(rng, problem.ring, problem.variables,
                                                     max_degree=1) for _ in range(3))
            big_g = big_g * problem.z(1)
            p_wit = p_wit - _shift(problem, 2, big_g)
            q_wit = q_wit + _shift(problem, 1, big_g)
            b = _shift(problem, 1, p_wit) + _shift(problem, 2, q_wit)
            d = b.grade_degree(grading) or 0
            top = max((w.grade_degree(grading) for w in (p_wit, q_wit) if w), default=0)
            assert top <= 3
            if top > d + 2:
                continue
            r = crucial_lemma_descent(b, p_wit, q_wit, problem)
            assert r.verified
            assert w_ideal_member(r.top_component, 2, 1)
            checked += 1
            g_tops += not r.g_top.is_zero()
            g_mids += not r.g_mid.is_zero()
    assert checked >= 40 and g_tops and g_mids


def test_descent_rejects_bad_witness():
    problem = ImageProblem(2, GF(3))
    with pytest.raises(ValueError):
        crucial_lemma_descent(problem.one(), problem.zero(), problem.zero(), problem)


def _premise_holding_pair(rng, problem):
    """A random f in I = (w_1..w_n) and a random g."""
    f = problem.zero()
    for i in range(1, problem.n + 1):
        f = f + problem.zeta(i) * random_polynomial(
            rng, problem.ring, problem.variables, max_degree=1, max_terms=2)
    return f, random_polynomial(rng, problem.ring, problem.variables, max_degree=1, max_terms=2)


def test_theorem51_pipeline_positive(monkeypatch):
    """Over F_2, F_3 and F_5 with n <= 2, a premise-holding (f, g) reports
    every conclusion, and each witness, expanded by the shift operator p times
    per component, is f^(p^2) or g * f ** m for a sampled m."""
    rng = random.Random(17)
    witnesses, honest = [], charp.sufficient_membership
    monkeypatch.setattr(charp, "sufficient_membership",
                        lambda b, problem: witnesses.append(honest(b, problem)) or witnesses[-1])
    for p in (2, 3, 5):
        for n in (1, 2):
            problem = ImageProblem(n, GF(p))
            for _ in range(5):
                f, g = _premise_holding_pair(rng, problem)
                witnesses.clear()
                report = theorem51_pipeline(f, g, problem)
                assert report.premise_holds
                assert report.f_power_coefficients_in_J
                assert report.products_in_J
                assert report.products_in_image
                assert report.sampled_m == (p * p, p * p + 1, p * p + 2)
                expected = [f ** (p * p)] + [g * f ** m for m in report.sampled_m]
                assert len(witnesses) == len(expected)
                for witness, b in zip(witnesses, expected):
                    total = problem.zero()
                    for i, h in witness.components.items():
                        for _ in range(p):
                            h = _shift(problem, i, h)
                        total = total + h
                    assert total == b


def test_theorem51_power_matches_repeated_multiplication(monkeypatch):
    """The pipeline's f^(p^2), built term by term, is `f ** p**2`: the
    elements it hands the witness are f^(p^2) and g f^m, m = p^2..p^2+2."""
    rng = random.Random(51)
    tested, honest = [], charp.sufficient_membership
    monkeypatch.setattr(charp, "sufficient_membership",
                        lambda b, problem: tested.append(b) or honest(b, problem))
    for _ in range(40):
        p = rng.choice((2, 3, 5, 7))
        problem = ImageProblem(rng.choice((1, 2)), GF(p))
        f, g = _premise_holding_pair(rng, problem)
        tested.clear()
        theorem51_pipeline(f, g, problem)
        power = f ** p ** 2
        assert tested == [power, g * power, g * power * f, g * power * f * f]


def test_theorem51_pipeline_premise_failure():
    problem = ImageProblem(1, GF(2))
    report = theorem51_pipeline(problem.one(), problem.one(), problem)
    assert not report.premise_holds
    assert report.as_report()["failing_coefficient"] == "1"


def test_willems_counterexample():
    for p in (2, 3, 5):
        report = willems_scan(p, 2 if p == 5 else 3)
        assert report.constant_terms_vanish
        assert report.all_expected_hit
        for m in report.expected_violations:
            assert m in report.violations
    with pytest.raises(ValueError):
        willems_scan(4, 2)


def test_willems_p2_exact_violations():
    report = willems_scan(2, 3)
    assert report.expected_violations == [1, 3, 7]
    assert report.violations == [1, 3, 7]
    assert willems_scan(3, 2).violations == [2, 5, 8]


def _willems_by_products(p, k_max):
    """The scan by the m-step product chain of f = t^-1 + t^(p-1) over F_p."""
    ring = GF(p)
    t_vars = VariableSet(("t",), laurent=frozenset(("t",)))
    f = Polynomial(ring, t_vars, {(-1,): ring.one(), (p - 1,): ring.one()})
    constant_ok = True
    violations = []
    power = Polynomial.one(ring, t_vars)
    for m in range(1, p ** k_max):
        power = power * f
        if power.constant_coefficient():
            constant_ok = False
        if power.terms.get((1,)):
            violations.append(m)
    expected = [p ** k - 1 for k in range(1, k_max + 1)]
    return {"p": p, "k_max": k_max, "constant_terms_vanish": constant_ok,
            "violations": violations, "expected_violations": expected,
            "all_expected_hit": all(m in violations for m in expected)}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_willems_matches_product_chain(p):
    """The Lucas digit rule agrees with multiplying out f^m, for p^k <= 1000."""
    k = 1
    while p ** k <= 1000:
        assert willems_scan(p, k).as_report() == _willems_by_products(p, k)
        k += 1


def test_example12():
    for p in (2, 3, 5):
        report = example12_refutation(p)
        assert report.one_in_image
        assert report.refuted
        assert report.as_report()["missing_monomial"] == ("z" if p == 2 else f"z^{p - 1}")
        # a bound below p leaves out z^p, whose derivative alone could reach z^(p-1)
        with pytest.raises(ValueError, match=f"z\\^{p}, the one monomial"):
            example12_refutation(p, p - 1)
    assert example12_refutation(3, 3).refuted


# b = (d1-w1)p + (d2-w2)q with p = w2*z1^2, q = -w1*z1^2: g_top = 0, g_mid = z1^2
_DESCENT = ("2*w2*z1", "w2*z1^2", "0 - w1*z1^2")


def test_descent_of_a_witness_without_a_top_layer():
    """The fault table's `charp crucial` input, on which doubled derivatives
    change only the final identity's right-hand side."""
    problem = ImageProblem(2, GF(3))
    b, p_wit, q_wit = (parse_polynomial(t, problem.ring, problem.variables) for t in _DESCENT)
    witness = crucial_lemma_descent(b, p_wit, q_wit, problem)
    assert witness.g_top.is_zero() and witness.g_mid == problem.z(1) ** 2


def test_frobenius_expansion_random():
    rng = random.Random(23)
    for _ in range(60):
        s = rng.randint(0, 2)
        coeffs = {s: 1}
        for _ in range(rng.randint(1, 3)):
            coeffs[s + rng.randint(1, 4)] = rng.randint(-9, 9)
        coeffs[s] = 1
        g = _u_poly({e: c for e, c in coeffs.items() if c})
        for p in (2, 3, 5, 7):
            assert frobenius_expansion_check(g, p), (coeffs, p)


def test_frobenius_rejects_nonmonic():
    with pytest.raises(ValueError):
        frobenius_expansion_check(_u_poly({0: 2, 1: 1}), 3)
    with pytest.raises(ValueError):
        frobenius_expansion_check(_u_poly({0: Fraction(1), 1: Fraction(1, 2)}), 3)


def test_lemma81_certificate_structure():
    g = _u_poly({1: 1, 0: -1})  # the L(g) = 0 borderline case
    report = lemma81_nonvanishing(g)
    assert report.status == "certified"
    assert report.prime == 2
    assert report.valuation == 0
    # trace: the i = s*p summand has valuation 0, all others positive
    total = Fraction(0)
    for entry in report.trace:
        total += entry["summand"]
        if entry["exponent"] == report.s * report.prime:
            assert entry["valuation"] == "0"
        else:
            assert entry["valuation"] == "inf" or int(entry["valuation"]) > 0
    assert valuation_p(total, report.prime) == 0
    assert total == report.value


def test_lemma81_cross_checks_count_scan():
    # the count scan finds L(g^2) = 1 for g = u - 1; the valuation
    # certificate must agree that some power has nonzero value
    g = _u_poly({1: 1, 0: -1})
    scan = monomial_count_scan(g)
    assert scan.first_nonzero == 2
    report = lemma81_nonvanishing(g)
    assert report.status == "certified" and Fraction(report.value) != 0


def test_lemma81_random_inputs():
    rng = random.Random(29)
    for _ in range(25):
        s = rng.randint(0, 2)
        coeffs = {s: Fraction(1)}
        for _ in range(rng.randint(1, 3)):
            e = s + rng.randint(1, 3)
            coeffs[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        g = _u_poly(coeffs)
        report = lemma81_nonvanishing(g)
        assert report.status == "certified"
        assert report.valuation == 0


def test_lemma81_scaling_invariance():
    plain = _u_poly({1: 1, 3: Fraction(1, 2)})
    scaled = _u_poly({1: 4, 3: 2})
    a = lemma81_nonvanishing(plain)
    b = lemma81_nonvanishing(scaled)
    assert a.prime == b.prime and a.value == b.value


def _admissible(p, coeffs):
    """p is prime, exceeds the degree, and divides no denominator of the
    coefficients normalised by the lowest one."""
    lead = coeffs[min(coeffs)]
    return is_prime(p) and p > max(coeffs) and all(
        (Fraction(c) / lead).denominator % p for c in coeffs.values())


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 4), st.fractions(-20, 20, max_denominator=12).filter(bool),
                       min_size=1, max_size=4),
       st.lists(st.integers(0, 40), max_size=6))
def test_lemma81_certifies_at_the_first_admissible_candidate(coeffs, candidates):
    """At the first admissible candidate, or by default at the first
    admissible prime; `exhausted` exactly when no candidate is admissible."""
    g = _u_poly(coeffs)
    default = lemma81_nonvanishing(g)
    assert default.status == "certified"
    assert default.tried == (next(p for p in count(2) if _admissible(p, coeffs)),)
    report = lemma81_nonvanishing(g, prime_candidates=candidates)
    first = next((i for i, p in enumerate(candidates) if _admissible(p, coeffs)), None)
    if first is None:
        assert report.status == "exhausted" and report.tried == tuple(candidates)
        return
    assert report.status == "certified" and report.valuation == 0
    assert report.tried == tuple(candidates[:first + 1]) and report.prime == candidates[first]
    assert valuation_p(report.value, report.prime) == 0


def test_lemma81_exhaustion():
    g = _u_poly({0: 1, 2: Fraction(1, 3)})
    report = lemma81_nonvanishing(g, prime_candidates=[2, 3])
    # 2 fails the degree bound, 3 divides a denominator
    assert report.status == "exhausted"
    assert report.tried == (2, 3)
