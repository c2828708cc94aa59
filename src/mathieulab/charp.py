"""Positive characteristic and valuation arguments.

The coefficient algebra is F_p[w_1..w_n] with a_i = w_i, sitting inside the
same (w, z) polynomial ring used everywhere else.  The operator d/dz_i - w_i
raised to the p-th power collapses to multiplication by -w_i^p, which is the
engine behind the sufficiency certificate and the full-pipeline check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .harness import SubspaceOracle, one_property_probe
from .imagemap import ImageProblem, t_apply
from .poly import NEG_INF, Polynomial, VariableSet, VerificationError
from .rings import GF, QQ, is_prime, valuation_p


@dataclass(frozen=True)
class CharPProblem:
    """n variable pairs over F_p; (w_1..w_n) is a regular sequence by construction."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1:
            raise ValueError("need at least one variable pair")

    @property
    def image(self) -> ImageProblem:
        return ImageProblem(self.n, GF(self.p))

    def ideal_I(self) -> "IdealSpec":
        return IdealSpec(tuple({f"w{i}": 1} for i in range(1, self.n + 1)))

    def ideal_J(self) -> "IdealSpec":
        return IdealSpec(tuple({f"w{i}": self.p} for i in range(1, self.n + 1)))


@dataclass(frozen=True)
class IdealSpec:
    """Monomial ideal in the w-variables, given by its monomial generators."""

    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators",
                           tuple(dict(g) for g in self.generators))


def monomial_ideal_member(f: Polynomial, ideal: IdealSpec) -> bool:
    """Every term of f divisible by some generator monomial."""
    if f.is_zero():
        return True
    indexed = []
    for g in ideal.generators:
        indexed.append({f.variables.index(name): e for name, e in g.items()})
    for exps in f.terms:
        if not any(all(exps[i] >= e for i, e in g.items()) for g in indexed):
            return False
    return True


def _shift_operator_apply(problem: ImageProblem, i: int, h: Polynomial,
                          times: int = 1) -> Polynomial:
    """(d/dz_i - w_i) applied `times` times, i.e. (-t_i)^times."""
    for _ in range(times):
        h = t_apply(problem, i, h)
    return -h if times % 2 else h


@dataclass
class SufficiencyWitness:
    problem: ImageProblem
    p: int
    components: dict  # i -> h_i with b = sum (d/dz_i - w_i)^p h_i

    def verify(self, b: Polynomial) -> bool:
        total = self.problem.zero()
        for i, h in self.components.items():
            total = total + _shift_operator_apply(self.problem, i, h, self.p)
        return total == b


def sufficient_membership(b: Polynomial, prob: CharPProblem):
    """Membership witness when every coefficient of b lies in J = (w_i^p).

    Each qualifying term c w^a z^e equals (d/dz_i - w_i)^p applied to
    -c w^(a - p e_i) z^e, because the p-th power of the shift operator is
    multiplication by -w_i^p.  Returns None (decline) when some term fails.
    """
    problem = prob.image
    problem.check(b)
    if not monomial_ideal_member(b, prob.ideal_J()):
        return None
    components = {}
    for exps, c in b.terms.items():
        i = next(j for j in range(1, prob.n + 1) if exps[j - 1] >= prob.p)
        key = list(exps)
        key[i - 1] -= prob.p
        mono = Polynomial(problem.ring, problem.variables, {tuple(key): -c})
        components[i] = components.get(i, problem.zero()) + mono
    witness = SufficiencyWitness(problem, prob.p, components)
    if not witness.verify(b):
        raise VerificationError("sufficiency witness failed to re-verify")
    return witness


def koszul_solve(problem: ImageProblem, p_poly: Polynomial,
                 q_poly: Polynomial) -> Polynomial:
    """Given w1*P + w2*Q = 0 with P, Q z-homogeneous of equal degree,
    return the unique g with P = w2*g and Q = -w1*g."""
    if problem.n != 2:
        raise ValueError("Koszul relation is the two-pair case")
    relation = problem.zeta(1) * p_poly + problem.zeta(2) * q_poly
    if not relation.is_zero():
        raise ValueError("Koszul relation does not hold")
    for poly in (p_poly, q_poly):
        comps = poly.homogeneous_components(problem.z_grading())
        if len(comps) > 1:
            raise ValueError("inputs must be z-homogeneous")
    if p_poly.is_zero():
        g = problem.zero()
    else:
        g = p_poly.exact_divide(problem.zeta(2))
    if p_poly != problem.zeta(2) * g or q_poly != -(problem.zeta(1) * g):
        raise VerificationError("Koszul solution failed to re-verify")
    return g


@dataclass
class DescentWitness:
    """Chain from the two-pair degree descent, with the final exact identity."""

    d: int
    g_top: Polynomial  # homogeneous of z-degree d+2
    g_mid: Polynomial  # homogeneous of z-degree d+1
    top_component: Polynomial  # b_d
    identity_lhs: Polynomial
    identity_rhs: Polynomial

    def verify(self) -> bool:
        return self.identity_lhs == self.identity_rhs


def crucial_lemma_descent(b: Polynomial, p_wit: Polynomial, q_wit: Polynomial,
                          prob: CharPProblem) -> DescentWitness:
    """Descend the witness identity to express the top component of b in I.

    Requires the simplifying degree hypothesis: both witnesses have z-degree
    at most deg(b) + 2.  The chain is checked step by step and the final
    identity b_d = -w1*(p_d + d2 g_mid) - w2*(q_d - d1 g_mid) is asserted
    exactly, whence all coefficients of b_d lie in I = (w1, w2).
    """
    if prob.n != 2:
        raise ValueError("the descent is implemented for two variable pairs")
    problem = prob.image
    for poly in (b, p_wit, q_wit):
        problem.check(poly)
    built = (_shift_operator_apply(problem, 1, p_wit)
             + _shift_operator_apply(problem, 2, q_wit))
    if built != b:
        raise ValueError("witness identity fails: b != (d1-w1)p + (d2-w2)q")
    grading = problem.z_grading()
    d = b.grade_degree(grading)
    if d == NEG_INF:
        d = 0
    d = int(d)
    for name, poly in (("p", p_wit), ("q", q_wit)):
        deg = poly.grade_degree(grading)
        if deg != NEG_INF and deg > d + 2:
            raise ValueError(
                f"degree hypothesis violated: z-degree of witness {name} exceeds d+2")
    p_comp = p_wit.homogeneous_components(grading)
    q_comp = q_wit.homogeneous_components(grading)
    zero = problem.zero()
    p_top, q_top = p_comp.get(d + 2, zero), q_comp.get(d + 2, zero)
    g_top = koszul_solve(problem, p_top, q_top)
    # degree d+1 layer: w1*(p_{d+1} + d2 g_top) + w2*(q_{d+1} - d1 g_top) = 0
    p_mid = p_comp.get(d + 1, zero) + g_top.partial("z2")
    q_mid = q_comp.get(d + 1, zero) - g_top.partial("z1")
    g_mid = koszul_solve(problem, p_mid, q_mid)
    b_d = b.homogeneous_components(grading).get(d, zero)
    lhs = b_d
    rhs = (-(problem.zeta(1) * (p_comp.get(d, zero) + g_mid.partial("z2")))
           - problem.zeta(2) * (q_comp.get(d, zero) - g_mid.partial("z1")))
    witness = DescentWitness(d, g_top, g_mid, b_d, lhs, rhs)
    if not (witness.verify() and monomial_ideal_member(b_d, prob.ideal_I())):
        raise VerificationError("descent identity failed to verify")
    return witness


@dataclass
class Theorem51Report:
    premise_holds: bool
    failing_coefficient: str = None
    power_coefficients_in_J: bool = None
    sampled_m: tuple = ()
    products_in_J: bool = None

    def as_report(self) -> dict:
        out = {"premise_holds": self.premise_holds}
        if not self.premise_holds:
            out["failing_coefficient"] = self.failing_coefficient
            return out
        out["f_power_coefficients_in_J"] = self.power_coefficients_in_J
        out["sampled_m"] = list(self.sampled_m)
        out["products_in_J"] = self.products_in_J
        return out


def theorem51_pipeline(f: Polynomial, g: Polynomial,
                       prob: CharPProblem) -> Theorem51Report:
    """Check the positive-characteristic membership pipeline by expansion.

    Premise surrogate: every coefficient of f (in the w-algebra) lies in
    I = (w_i).  Then f^(p^2) has coefficients in J = (w_i^p) and so does
    g f^m for every sampled m >= p^2.
    """
    problem = prob.image
    problem.check(f)
    problem.check(g)
    ideal_i, ideal_j = prob.ideal_I(), prob.ideal_J()
    if not monomial_ideal_member(f, ideal_i):
        for exps, c in f.terms.items():
            if all(e == 0 for e in exps[:prob.n]):
                mono = Polynomial(problem.ring, problem.variables, {exps: c})
                return Theorem51Report(False, failing_coefficient=mono.to_str())
        return Theorem51Report(False, failing_coefficient="(no w-free term found)")
    p2 = prob.p ** 2
    f_p2 = f ** p2
    power_ok = monomial_ideal_member(f_p2, ideal_j)
    sampled = (p2, p2 + 1, p2 + 2)
    products_ok = True
    power = f_p2
    for m in range(p2, sampled[-1] + 1):
        if m > p2:
            power = power * f
        if m in sampled and not monomial_ideal_member(g * power, ideal_j):
            products_ok = False
    return Theorem51Report(True, power_coefficients_in_J=power_ok,
                           sampled_m=sampled, products_in_J=products_ok)


# -- Laurent counterexample -------------------------------------------

@dataclass
class WillemsReport:
    p: int
    k_max: int
    constant_terms_vanish: bool
    violations: list  # m values where t^-1 f^m has nonzero constant coefficient
    expected_violations: list  # m = p^k - 1 for k <= k_max
    all_expected_hit: bool

    def as_report(self) -> dict:
        return {"p": self.p, "k_max": self.k_max,
                "constant_terms_vanish": self.constant_terms_vanish,
                "violations": self.violations,
                "expected_violations": self.expected_violations,
                "all_expected_hit": self.all_expected_hit}


def willems_scan(p: int, k_max: int) -> WillemsReport:
    """f = t^-1 + t^(p-1) over F_p: powers have zero constant term, yet
    t^-1 f^m has a nonzero constant coefficient at every m = p^k - 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ring = GF(p)
    t_vars = VariableSet(("t",), laurent=frozenset(("t",)))
    f = Polynomial(ring, t_vars, {(-1,): ring.one(), (p - 1,): ring.one()})
    m_max = p ** k_max - 1
    constant_ok = True
    violations = []
    power = Polynomial.one(ring, t_vars)
    for m in range(1, m_max + 1):
        power = power * f
        if power.constant_coefficient():
            constant_ok = False
        if power.coefficient_of({"t": 1}):
            # constant coefficient of t^-1 f^m is the t^1 coefficient of f^m
            violations.append(m)
    expected = [p ** k - 1 for k in range(1, k_max + 1)]
    return WillemsReport(p, k_max, constant_ok, violations, expected,
                         all(m in violations for m in expected))


@dataclass
class Example12Report:
    p: int
    degree_bound: int
    one_in_image: bool
    missing_monomial: str
    refuted: bool

    def as_report(self) -> dict:
        return {"p": self.p, "degree_bound": self.degree_bound,
                "one_in_image": self.one_in_image,
                "missing_monomial": self.missing_monomial,
                "refuted": self.refuted}


def example12_refutation(p: int, degree_bound: int = None) -> Example12Report:
    """Over F_p with D = {d/dz}: the derivative image contains 1 but misses
    z^(p-1), so the 1-property refutes the Mathieu property outright."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if degree_bound is None:
        degree_bound = 4 * p
    ring = GF(p)
    z_vars = VariableSet(("z",))
    # image of the monomial basis under d/dz: j z^(j-1) for j <= bound,
    # spanning exactly the monomials z^e with e+1 not divisible by p
    span_degrees = {j - 1 for j in range(1, degree_bound + 1) if j % p != 0}

    def member(f):
        return all(exps[0] in span_degrees for exps in f.terms)

    oracle = SubspaceOracle(f"imD_ddz_F{p}", "polynomial", member)
    one = Polynomial.one(ring, z_vars)
    basis = [Polynomial.var(ring, z_vars, "z", e) for e in range(1, degree_bound)]
    probe = one_property_probe(oracle, one, basis)
    missing = Polynomial.var(ring, z_vars, "z", p - 1)
    if member(missing):
        raise VerificationError(f"{missing.to_str()} lies in the derivative image")
    return Example12Report(p, degree_bound, probe.contains_one,
                           missing.to_str(), probe.refuted)


# -- valuation machinery (number-field route, instantiated over Q) -----

@dataclass
class FrobeniusReport:
    p: int
    divisible: bool
    h_values: dict  # exponent -> integer h with remainder coefficient p*h


def frobenius_expansion_check(g: Polynomial, p: int) -> FrobeniusReport:
    """For integer g = u^s + sum c_i u^i: g^p minus (u^(sp) + sum c_i^p u^(ip))
    has every coefficient divisible by p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if len(g.variables) != 1 or g.variables.laurent:
        raise ValueError("expected a univariate polynomial")
    if g.is_zero():
        raise ValueError("expected a non-zero monic-lowest-term polynomial")
    coeffs = {e[0]: c for e, c in g.terms.items()}
    s = min(coeffs)
    if coeffs[s] != 1:
        raise ValueError("lowest term must be monic")
    for c in coeffs.values():
        if Fraction(c).denominator != 1:
            raise ValueError("coefficients must be integers")
    gp = g ** p
    expected = {s * p: Fraction(1)}
    for i, c in coeffs.items():
        if i != s:
            expected[i * p] = expected.get(i * p, Fraction(0)) + Fraction(c) ** p
    actual = {e[0]: Fraction(c) for e, c in gp.terms.items()}
    h_values = {}
    divisible = True
    for exponent in sorted(set(actual) | set(expected)):
        rem = actual.get(exponent, Fraction(0)) - expected.get(exponent, Fraction(0))
        if rem:
            if rem.numerator % p:
                divisible = False
            h_values[exponent] = rem / p
    return FrobeniusReport(p, divisible, h_values)


@dataclass
class Lemma81Report:
    status: str  # "certified" | "exhausted"
    prime: int = None
    s: int = None
    value: str = None  # L(g^p) / (sp)!
    valuation: int = None
    trace: list = None  # (exponent, summand, valuation) triples
    tried: tuple = ()

    def as_report(self) -> dict:
        out = {"status": self.status, "tried": list(self.tried)}
        if self.status == "certified":
            out.update({"prime": self.prime, "s": self.s, "value": self.value,
                        "valuation": self.valuation,
                        "trace": [{"exponent": e, "summand": str(t), "valuation": str(v)}
                                  for e, t, v in self.trace]})
        return out


def lemma81_nonvanishing(g: Polynomial, prime_candidates=None) -> Lemma81Report:
    """Certify L(g^p) != 0 for a suitable prime via the valuation trace.

    g is a non-zero rational polynomial in one variable; it is normalized so
    the lowest term is monic (vanishing of the exponential moments is
    scale-equivariant, so nothing is lost).  An admissible prime exceeds the
    degree and every coefficient denominator; for such p the normalized sum
    L(g^p)/(sp)! is 1 plus terms of positive p-valuation, so it cannot vanish.
    """
    if g.is_zero():
        raise ValueError("the zero polynomial is out of scope")
    if len(g.variables) != 1 or g.variables.laurent:
        raise ValueError("expected a univariate polynomial")
    if g.ring != QQ:
        raise ValueError("the valuation route is instantiated over Q")
    coeffs = {e[0]: c for e, c in g.terms.items()}
    s = min(coeffs)
    lead = coeffs[s]
    coeffs = {i: c / lead for i, c in coeffs.items()}
    d = max(coeffs)
    if prime_candidates is None:
        prime_candidates = _default_primes(coeffs, d, count=25)
    tried = []
    for p in prime_candidates:
        tried.append(p)
        if not is_prime(p):
            continue
        if p <= d:
            continue
        if any(valuation_p(c, p) != float("inf") and valuation_p(c, p) < 0
               for c in coeffs.values()):
            continue
        norm = Polynomial(QQ, g.variables, {(i,): c for i, c in coeffs.items()})
        gp = norm ** p
        sp_fact = Fraction(factorial(s * p))
        total = Fraction(0)
        trace = []
        for exps, c in gp.terms.items():
            summand = c * Fraction(factorial(exps[0])) / sp_fact
            total += summand
            trace.append((exps[0], summand, valuation_p(summand, p)))
        trace.sort()
        v = valuation_p(total, p)
        if v == 0:
            return Lemma81Report("certified", prime=p, s=s, value=str(total),
                                 valuation=0, trace=trace, tried=tuple(tried))
    return Lemma81Report("exhausted", tried=tuple(tried))


def _default_primes(coeffs, degree, count):
    out = []
    p = 2
    while len(out) < count:
        if is_prime(p) and p > degree and all(
                Fraction(c).denominator % p for c in coeffs.values()):
            out.append(p)
        p += 1
    return out
