"""Positive characteristic and valuation arguments.

The coefficient algebra is F_p[w_1..w_n] with a_i = w_i, sitting inside the
same (w, z) polynomial ring used everywhere else: the char-p arguments take
an `ImageProblem` over GF(p) and read p off its ring.  The operator
d/dz_i - w_i = -t_i raised to the p-th power collapses to -t_i^p, that is
multiplication by -w_i^p: the sufficiency witness, which `theorem51`
hands each sampled power.
The Willems scan of f = t^-1 (1 + t^p) reads each coefficient of f^m off
Lucas's theorem instead of multiplying out the powers.

Three results are computed once from their proofs and re-checked once:
- Koszul: w1, w2 is a regular sequence, so w1 P + w2 Q = 0 gives P = w2 g, Q = -w1 g.
- Example 1.2: over F_p, d/dz z^j = j z^(j-1) is 0 iff p | j: 1 is hit, z^(p-1) is not.
- Lemma 8.1: p > deg g, g p-integral: g^p = sum c_i^p u^(ip), L(g^p)/(sp)! = 1 (mod p).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial

from .poly import Polynomial, Report, VariableSet, VerificationError
from .rings import GF, QQ, is_prime, valuation_p


def _characteristic(problem: ImageProblem) -> int:
    """The prime p of `problem`'s ring GF(p); characteristic 0 is out of scope."""
    p = problem.ring.characteristic
    if not p:
        raise ValueError("the char-p arguments need a ring GF(p), not characteristic 0")
    return p


def _w_index(exps, n: int, e: int):
    """First i with w_i^e dividing the monomial `exps` (w_1..w_n first), else None."""
    return next((i for i in range(1, n + 1) if exps[i - 1] >= e), None)


class SufficiencyWitness:
    def __init__(self, problem: ImageProblem, components: dict):
        self.problem = problem
        self.components = components  # i -> h_i with b = sum (d/dz_i - w_i)^p h_i

    def verify(self, b: Polynomial) -> bool:
        """(d/dz_i - w_i)^p = (-t_i)^p = -t_i^p in characteristic p."""
        from .imagemap import t_apply
        total = self.problem.zero()
        for i, h in self.components.items():
            for _ in range(self.problem.ring.characteristic):
                h = t_apply(self.problem, i, h)
            total = total - h
        return total == b


def sufficient_membership(b: Polynomial, problem: ImageProblem):
    """Membership witness when every coefficient of b lies in J = (w_i^p).

    `problem` is over GF(p).  Each qualifying term c w^a z^e equals
    (d/dz_i - w_i)^p applied to -c w^(a - p e_i) z^e, because the p-th power
    of the shift operator is multiplication by -w_i^p.  Returns None
    (decline) when some term fails.
    """
    p = _characteristic(problem)
    problem.check(b)
    pairs = {}
    for exps, c in b.terms.items():
        i = _w_index(exps, problem.n, p)
        if i is None:
            return None
        key = list(exps)
        key[i - 1] -= p
        pairs.setdefault(i, []).append((tuple(key), -c))
    witness = SufficiencyWitness(problem, {
        i: Polynomial(problem.ring, problem.variables, terms) for i, terms in pairs.items()})
    if not witness.verify(b):
        raise VerificationError("sufficiency witness failed to re-verify")
    return witness


def koszul_solve(problem: ImageProblem, p_poly: Polynomial,
                 q_poly: Polynomial) -> Polynomial:
    """Given w1*P + w2*Q = 0 over two pairs, return the g with P = w2*g and Q = -w1*g.

    w1*P = -w2*Q puts w2 in every term of P, so g is read off P's terms by
    lowering the w2 exponent by one; P = w2*g and Q = -w1*g are re-checked,
    so a pair outside the relation raises `VerificationError`.
    """
    g = Polynomial(problem.ring, problem.variables,
                   {(w1, w2 - 1, *z): c for (w1, w2, *z), c in p_poly.terms.items() if w2})
    if p_poly != problem.zeta(2) * g or q_poly != -(problem.zeta(1) * g):
        raise VerificationError("Koszul solution failed to re-verify")
    return g


def crucial_lemma_descent(b: Polynomial, p_wit: Polynomial, q_wit: Polynomial,
                          problem: ImageProblem) -> Report:
    """Descend the witness identity to express the top component of b in I.

    `problem` has two variable pairs over GF(p).  Requires the simplifying
    degree hypothesis: both witnesses have z-degree at most deg(b) + 2.  The
    chain is checked step by step and the final identity
    b_d = -w1*(p_d + d2 g_mid) - w2*(q_d - d1 g_mid) is asserted exactly,
    whence all coefficients of b_d lie in I = (w1, w2).  The report gives
    d, `g_top` (z-degree d+2), `g_mid` (z-degree d+1), the `top_component`
    b_d and `verified`, true once both checks pass.
    """
    from .imagemap import t_apply
    if problem.n != 2:
        raise ValueError("the descent is implemented for two variable pairs")
    _characteristic(problem)
    for poly in (b, p_wit, q_wit):
        problem.check(poly)
    # (d/dz_i - w_i) = -t_i
    if -(t_apply(problem, 1, p_wit) + t_apply(problem, 2, q_wit)) != b:
        raise ValueError("witness identity fails: b != (d1-w1)p + (d2-w2)q")
    grading = problem.z_grading()
    d = b.grade_degree(grading) or 0
    for name, poly in (("p", p_wit), ("q", q_wit)):
        deg = poly.grade_degree(grading)
        if deg is not None and deg > d + 2:
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
    rhs = (-(problem.zeta(1) * (p_comp.get(d, zero) + g_mid.partial("z2")))
           - problem.zeta(2) * (q_comp.get(d, zero) - g_mid.partial("z1")))
    if b_d != rhs:
        raise VerificationError("descent identity failed to verify")
    return Report(d=d, g_top=g_top, g_mid=g_mid, top_component=b_d, verified=True)


def theorem51_pipeline(f: Polynomial, g: Polynomial,
                       problem: ImageProblem) -> Report:
    """Certify Theorem 5.1's conclusion g f^m in Im D on sampled m.

    `problem` is over GF(p).  Premise surrogate: every coefficient of f (in
    the w-algebra) lies in I = (w_i).  Then each term of f^(p^2) has some
    w_i^(p^2), so f^(p^2) and, J being an ideal, every g f^m with m >= p^2
    have coefficients in J = (w_i^p), and J lies in Im D.  f^(p^2) and each
    g f^m, m = p^2..p^2+2, get a `sufficient_membership` witness, which
    re-verifies itself; a decline contradicts the theorem and raises
    `VerificationError`.  The report gives `premise_holds` and then either
    the `failing_coefficient`, the first term of f outside I, or
    `f_power_coefficients_in_J`, the `sampled_m`, `products_in_J` and
    `products_in_image`, each read off those witnesses.
    """
    p = _characteristic(problem)
    problem.check(f)
    problem.check(g)
    for exps, c in f.terms.items():
        if _w_index(exps, problem.n, 1) is None:
            return Report(premise_holds=False, failing_coefficient=Polynomial(
                problem.ring, problem.variables, {exps: c}))
    p2 = p ** 2
    # Frobenius is a ring map fixing F_p: f^(p^2) is the sum of c * M^(p^2) over f's terms c * M
    power = Polynomial(problem.ring, problem.variables,
                       {tuple(p2 * e for e in exps): c for exps, c in f.terms.items()})
    sampled = (p2, p2 + 1, p2 + 2)
    elements = {f"f^{p2}": power}
    for m in sampled:
        if m > p2:
            power = power * f
        elements[f"g*f^{m}"] = g * power
    for name, b in elements.items():
        if sufficient_membership(b, problem) is None:
            raise VerificationError(f"{name} has a term outside J = (w_i^p)")
    return Report(premise_holds=True, f_power_coefficients_in_J=True, sampled_m=sampled,
                  products_in_J=True, products_in_image=True)


# -- Laurent counterexample -------------------------------------------

def _willems_coefficient_nonzero(p: int, m: int, j: int) -> bool:
    """The t^j coefficient of (t^-1 (1 + t^p))^m is C(m, (m+j)/p) if p | m+j,
    else 0; by Lucas, C(m, i) != 0 mod p iff no base-p digit of i exceeds m's."""
    if (m + j) % p:
        return False
    i = (m + j) // p
    while i:
        if i % p > m % p:
            return False
        i, m = i // p, m // p
    return True


def willems_scan(p: int, k_max: int) -> Report:
    """f = t^-1 + t^(p-1) over F_p: powers have zero constant term, yet
    t^-1 f^m has a nonzero constant coefficient at every m = p^k - 1.

    Over m < p^k_max the report gives whether every f^m has a zero constant
    term (`constant_terms_vanish`), the `violations`, every m where t^-1 f^m
    has a nonzero constant coefficient, the `expected_violations`
    m = p^k - 1 for k <= k_max, and whether all of those are hit.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ms = range(1, p ** k_max)
    constant_ok = not any(_willems_coefficient_nonzero(p, m, 0) for m in ms)
    # the constant coefficient of t^-1 f^m is the t^1 coefficient of f^m
    violations = [m for m in ms if _willems_coefficient_nonzero(p, m, 1)]
    expected = [p ** k - 1 for k in range(1, k_max + 1)]
    return Report(p=p, k_max=k_max, constant_terms_vanish=constant_ok, violations=violations,
                  expected_violations=expected,
                  all_expected_hit=all(m in violations for m in expected))


def example12_refutation(p: int, degree_bound: int = None) -> Report:
    """Over F_p with D = {d/dz}: the derivative image contains 1 but misses
    z^(p-1), so the 1-property refutes the Mathieu property outright."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if degree_bound is None:
        degree_bound = 4 * p
    if degree_bound < p:
        raise ValueError(f"degree bound {degree_bound} < p = {p}: z^{p}, the one "
                         f"monomial whose derivative could reach z^{p - 1}, is left out")
    ring = GF(p)
    z_vars = VariableSet(("z",))
    span_degrees = {e for j in range(1, degree_bound + 1)
                    for (e,) in Polynomial.var(ring, z_vars, "z", j).partial("z").terms}
    missing = next(e for e in count() if e not in span_degrees)
    if missing != p - 1:
        raise VerificationError(f"the first monomial outside the image is z^{missing}, "
                                f"not z^{p - 1}")
    return Report(p=p, degree_bound=degree_bound, one_in_image=0 in span_degrees,
                  missing_monomial=Polynomial.var(ring, z_vars, "z", missing), refuted=True)


# -- valuation machinery (number-field route, instantiated over Q) -----

def lemma81_nonvanishing(g: Polynomial, prime_candidates=None) -> Report:
    """Certify L(g^p) != 0 at the first admissible prime via the valuation trace.

    g is a non-zero rational polynomial in one variable; it is normalized so
    the lowest term is monic (vanishing of the exponential moments is
    scale-equivariant, so nothing is lost).  A prime is admissible when it
    exceeds the degree and divides no coefficient denominator; at such p,
    L(g^p)/(sp)! = 1 mod p, so a non-zero p-valuation raises `VerificationError`.

    The report's `status` is "certified" or "exhausted" (no candidate is
    admissible), and `tried` lists the candidates up to the first admissible
    one, by default that prime alone.  A certificate adds the `prime`, s (the
    lowest exponent), the `value` L(g^p)/(sp)!, its `valuation` 0, and the
    `trace`: per term u^e of g^p, by e, the summand e!/(sp)! times its
    coefficient and the summand's p-valuation, as the report prints them.
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

    def admissible(p):
        return is_prime(p) and p > d and all(Fraction(c).denominator % p for c in coeffs.values())

    if prime_candidates is None:
        prime_candidates = [next(filter(admissible, count(2)))]
    tried = []
    for p in prime_candidates:
        tried.append(p)
        if admissible(p):
            break
    else:
        return Report(status="exhausted", tried=tuple(tried))
    gp = Polynomial(QQ, g.variables, {(i,): c for i, c in coeffs.items()}) ** p
    sp_fact = Fraction(factorial(s * p))
    total = Fraction(0)
    trace = []
    for (e,), c in sorted(gp.terms.items()):
        summand = c * Fraction(factorial(e)) / sp_fact
        total += summand
        trace.append({"exponent": e, "summand": summand,
                      "valuation": str(valuation_p(summand, p))})
    valuation = valuation_p(total, p)
    if valuation != 0:
        raise VerificationError(f"L(g^{p})/({s * p})! has {p}-valuation {valuation}, not 0")
    return Report(status="certified", tried=tuple(tried), prime=p, s=s, value=total,
                  valuation=0, trace=trace)
