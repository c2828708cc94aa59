"""The kernel map L(zeta^a z^b) = d^a(z^b) and everything built on it.

Variable pairs are spelled w1..wn (the zeta stand-ins) and z1..zn.  The
decomposition writes f = sum t^a f_a with t_i h = w_i h - d(h)/dz_i and each
f_a free of the w-variables.  Since w_i = t_i + d/dz_i, the closed form

    w^a z^b = sum_k  C(a,k) b!/(b-k)!  t^(a-k) z^(b-k)

gives the components term by term (`_expansion`), and its inverse

    t^a z^c = sum_k  (-1)^|k| C(a,k) c!/(c-k)!  w^(a-k) z^(c-k)

writes the certificate witness back in the w- and z-variables.  The
zero-index component is exactly L(f), which turns kernel membership into
an effective witness.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial, perm, prod
from operator import sub

from .poly import Polynomial, Report, VariableSet, VerificationError
from .rings import Immutable, RingDescriptor


class ImageProblem(Immutable):
    """n pairs (w_i, z_i) over a fixed coefficient field."""

    __match_args__ = ("n", "ring")
    __slots__ = __match_args__ + ("variables",)  # built from n, so not a field

    def __init__(self, n: int, ring: RingDescriptor):
        if n < 1:
            raise ValueError("need at least one variable pair")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "variables", VariableSet(
            [f"w{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]))

    @property
    def z_names(self):
        return self.variables.names[self.n:]

    def zeta(self, i: int) -> Polynomial:
        return Polynomial.var(self.ring, self.variables, f"w{i}")

    def z(self, i: int) -> Polynomial:
        return Polynomial.var(self.ring, self.variables, f"z{i}")

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.ring, self.variables)

    def one(self) -> Polynomial:
        return Polynomial.one(self.ring, self.variables)

    def deg_grading(self) -> tuple:
        """Weight -1 on each w_i and +1 on each z_i."""
        return (-1,) * self.n + (1,) * self.n

    def z_grading(self) -> tuple:
        return (0,) * self.n + (1,) * self.n

    def check(self, f: Polynomial):
        if f.ring != self.ring or f.variables != self.variables:
            raise ValueError("polynomial does not live in this problem's ring")


def _falling_product(e, d) -> int:
    """prod_i e_i (e_i - 1) ... (e_i - d_i + 1) for e_i >= 0; zero when some d_i > e_i."""
    return prod(map(perm, e, d))


def _expansion(a, b):
    """Yield (k, C(a,k) b!/(b-k)!) for every multi-index k <= min(a, b)."""
    for k in product(*(range(m + 1) for m in map(min, a, b))):
        yield k, prod(map(comb, a, k)) * _falling_product(b, k)


def L_map(problem: ImageProblem, f: Polynomial) -> Polynomial:
    """Linear extension of zeta^a z^b -> d^a(z^b); zero when any a_i > b_i.

    L sends c zeta^a z^b to c * b!/(b-a)! z^(b-a).
    """
    problem.check(f)
    n, from_int = problem.n, problem.ring.from_int
    return Polynomial(problem.ring, problem.variables, (
        ((0,) * n + tuple(map(sub, exps[n:], exps[:n])), c * from_int(scale))
        for exps, c in f.terms.items() if (scale := _falling_product(exps[n:], exps[:n]))))


def t_apply(problem: ImageProblem, i: int, h: Polynomial) -> Polynomial:
    """One application of t_i: h -> w_i h - dh/dz_i."""
    return Polynomial(problem.ring, problem.variables, _t_terms(problem.n, i, h))


def _t_terms(n: int, i: int, h: Polynomial):
    """The (key, coeff) pairs of t_i h, h in n pairs (w, z), from one pass over its terms."""
    w, z = i - 1, n + i - 1
    from_int = h.ring.from_int
    for exps, c in h.terms.items():
        yield exps[:w] + (exps[w] + 1,) + exps[w + 1:], c
        if exps[z]:
            yield exps[:z] + (exps[z] - 1,) + exps[z + 1:], c * from_int(-exps[z])


def decompose(problem: ImageProblem, f: Polynomial) -> dict:
    """Unique decomposition f = sum t^a f_a, each f_a free of the w-variables.

    Returns {a: f_a} over the non-zero components; the term c w^a z^b adds
    c C(a,k) b!/(b-k)! z^(b-k) to f_(a-k).

    The closed form has integer coefficients, but F_p is not offered until
    positive characteristic-p tests exist, so characteristic 0 only.
    """
    problem.check(f)
    if problem.ring.characteristic != 0:
        raise ValueError("decomposition requires characteristic 0")
    n, from_int = problem.n, problem.ring.from_int
    w_free = (0,) * n
    pairs = {}
    for exps, c in f.terms.items():
        a, b = exps[:n], exps[n:]
        for k, scale in _expansion(a, b):
            pairs.setdefault(tuple(map(sub, a, k)), []).append(
                (w_free + tuple(map(sub, b, k)), c * from_int(scale)))
    return {a: comp for a, terms in pairs.items()
            if not (comp := Polynomial(problem.ring, problem.variables, terms)).is_zero()}


def recompose(problem: ImageProblem, components: dict) -> Polynomial:
    """sum t^a f_a over the components {a: f_a}."""
    total = problem.zero()
    for a, comp in components.items():
        acc = comp
        for i, k in enumerate(a, start=1):
            for _ in range(k):
                acc = t_apply(problem, i, acc)
        total = total + acc
    return total


class MembershipCertificate(Report):
    """Either `status` "member" with a `witness` (h_1..h_n), sum (d/dz_i - w_i) h_i = f,
    or "nonmember" with the `residue` L(f) != 0."""

    def verify(self, f: Polynomial) -> bool:
        if self.status != "member":
            problem = ImageProblem(len(f.variables) // 2, f.ring)
            return not self.residue.is_zero() and self.residue == L_map(problem, f)
        # sum_i (d/dz_i - w_i) h_i = -sum_i t_i h_i, summed in one pass in the
        # witness's own ring; the equality also checks that f lives there
        h1, n = self.witness[0], len(self.witness)
        return Polynomial(h1.ring, h1.variables, (
            pair for i, h in enumerate(self.witness, start=1)
            for pair in _t_terms(n, i, h))) == -f


def certify_imD(problem: ImageProblem, f: Polynomial) -> MembershipCertificate:
    """Decide membership in sum_i (d/dz_i - w_i) C[w,z] via the decomposition."""
    problem.check(f)
    n = problem.n
    components = decompose(problem, f)
    f0 = components.get((0,) * n, problem.zero())
    if L_map(problem, f) != f0:
        raise VerificationError("the zero component of the decomposition is not L(f)")
    if not f0.is_zero():
        return MembershipCertificate(status="nonmember", residue=f0)
    # t^a f_a = t_i t^(a-e_i) f_a with i the first index where a_i > 0, and
    # t_i = -(d/dz_i - w_i), so h_i = -sum t^(a-e_i) f_a over those a
    parts = [[] for _ in range(n)]
    for a, comp in components.items():
        i = next(j for j, e in enumerate(a) if e)
        parts[i].append((a[:i] + (a[i] - 1,) + a[i + 1:], comp))
    from_int = problem.ring.from_int
    witness = [Polynomial(problem.ring, problem.variables, (
        (tuple(map(sub, lowered, k)) + tuple(map(sub, exps[n:], k)),
         c * from_int(scale if sum(k) % 2 else -scale))
        for lowered, comp in part for exps, c in comp.terms.items()
        for k, scale in _expansion(lowered, exps[n:]))) for part in parts]
    cert = MembershipCertificate(status="member", witness=witness)
    if not cert.verify(f):
        raise VerificationError("certificate failed to re-verify")
    return cert


def power_scan(problem: ImageProblem, f: Polynomial, m_max: int) -> Report:
    """L(f^m) for m = 1..m_max, from the integer power loop.

    `values` holds L(f^m) for m = 1..m_max, and `first_nonzero` is the
    first m with L(f^m) != 0 (None if all vanish).

    The rows come from the integer power loop (`powers._int_powers`); over
    F_p, L(f^m) = f_0(z^p) L(f^(m-p)) past m = p - 1 (f_0: f's w-free part).
    """
    from .powers import _int_powers
    problem.check(f)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    values = [Polynomial(problem.ring, problem.variables, terms)
              for terms, in _int_powers(f, m_max, problem.n)]
    return Report(values=values,
                  first_nonzero=next((m for m, v in enumerate(values, start=1) if v), None))


def factorial_functional(f: Polynomial):
    """sum over terms of coeff * prod(exponent!), the exponential-moment value."""
    if f.variables.laurent:
        raise ValueError("factorial functional is defined on plain polynomial variables")
    total = f.ring.zero()
    for exps, c in f.terms.items():
        total = total + c * f.ring.from_int(prod(map(factorial, exps)))
    return total


def monomial_count_scan(f: Polynomial, bound: int = None) -> Report:
    """Scan factorial_functional(f^m) for the first nonvanishing power.

    Evidence gathering for the N-monomial stopping rule: with N the number
    of monomials of f, a nonzero value is expected at some m <= N.  Each
    f^m = f^(m-1) * f is multiplied out as a `Polynomial`, and
    `factorial_functional` reads it.  The report gives N (`monomials`), the
    first m with a nonzero value (`first_nonzero`, None if the bound is
    exhausted), whether that m is at most N (`within_monomial_count`), and
    the `values` up to the first nonzero one.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no nonvanishing power")
    count = len(f.terms)
    if bound is None:
        bound = count
    if bound < count:
        raise ValueError("scan bound must be at least the monomial count")
    values = []
    first = None
    power = Polynomial.one(f.ring, f.variables)
    for m in range(1, bound + 1):
        power = power * f
        v = factorial_functional(power)
        values.append(v)
        if v:
            first = m
            break
    return Report(monomials=count, first_nonzero=first,
                  within_monomial_count=first is not None and first <= count, values=values)


def ic1_pipeline(problem: ImageProblem, f: Polynomial, m_max: int = 12) -> Report:
    """Composite one-pair demonstration: grade, shift by w^r, reduce to u, scan.

    Mirrors the degree argument that settles the one-pair case: a polynomial
    with top grade r >= 0 is multiplied by w^r, and its grade-zero part, read
    as a u-polynomial, goes to the monomial-count scan, which exhibits a
    nonvanishing power.  That part is read off f itself: the terms
    c w^a z^b of grade b - a = r become c (w z)^b = c u^b.
    """
    if problem.n != 1:
        raise ValueError("pipeline is specific to one variable pair")
    problem.check(f)
    r = f.grade_degree(problem.deg_grading())
    if r is None or r <= -1:
        return Report(deg=r, branch="negative_degree",
                      power_scan=power_scan(problem, f, m_max))
    u_poly = Polynomial(problem.ring, VariableSet(("u1",)),
                        {(b,): c for (a, b), c in f.terms.items() if b - a == r})
    return Report(deg=r, branch="shifted_to_diagonal", shift_power=r, diagonal_part=u_poly,
                  count_scan=monomial_count_scan(u_poly))
