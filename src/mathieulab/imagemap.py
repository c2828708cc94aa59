"""The kernel map L(zeta^a z^b) = d^a(z^b) and everything built on it.

Variable pairs are spelled w1..wn (the zeta stand-ins) and z1..zn.  The
decomposition follows the integration recursion: peel one w-variable at a
time, writing f = sum t^a f_a with t_i h = w_i h - d(h)/dz_i and each f_a
free of the w-variables.  In characteristic zero the zero-index component
is exactly L(f), which turns kernel membership into an effective witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import sub

from . import linalg
from .poly import NEG_INF, Grading, Polynomial, VariableSet, VerificationError, _sum_terms
from .rings import RingDescriptor
from .weyl import DiffOperatorSpec, _falling_product


@dataclass(frozen=True)
class ImageProblem:
    """n pairs (w_i, z_i) over a fixed coefficient field."""

    n: int
    ring: RingDescriptor

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable pair")

    @property
    def zeta_names(self):
        return tuple(f"w{i}" for i in range(1, self.n + 1))

    @property
    def z_names(self):
        return tuple(f"z{i}" for i in range(1, self.n + 1))

    @property
    def variables(self) -> VariableSet:
        return VariableSet(self.zeta_names + self.z_names)

    def zeta(self, i: int) -> Polynomial:
        return Polynomial.var(self.ring, self.variables, f"w{i}")

    def z(self, i: int) -> Polynomial:
        return Polynomial.var(self.ring, self.variables, f"z{i}")

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.ring, self.variables)

    def one(self) -> Polynomial:
        return Polynomial.one(self.ring, self.variables)

    def deg_grading(self) -> Grading:
        """Weight -1 on each w_i and +1 on each z_i."""
        w = {name: -1 for name in self.zeta_names}
        w.update({name: 1 for name in self.z_names})
        return Grading(w)

    def z_grading(self) -> Grading:
        return Grading({name: 1 for name in self.z_names})

    def check(self, f: Polynomial):
        if f.ring != self.ring or f.variables != self.variables:
            raise ValueError("polynomial does not live in this problem's ring")


def L_map(problem: ImageProblem, f: Polynomial) -> Polynomial:
    """Linear extension of zeta^a z^b -> d^a(z^b); zero when any a_i > b_i."""
    problem.check(f)
    n = problem.n
    from_int = problem.ring.from_int
    return Polynomial(problem.ring, problem.variables, _sum_terms(
        ((0,) * n + tuple(map(sub, exps[n:], exps[:n])), c * from_int(scale))
        for exps, c in f.terms.items()
        if (scale := _falling_product(exps[n:], exps[:n]))))


def t_apply(problem: ImageProblem, i: int, h: Polynomial) -> Polynomial:
    """One application of t_i: h -> w_i h - dh/dz_i."""
    return Polynomial(problem.ring, problem.variables, _sum_terms(_t_terms(problem, i, h)))


def _t_terms(problem: ImageProblem, i: int, h: Polynomial):
    """The (key, coeff) pairs of t_i h, from one pass over the terms of h."""
    w, z = i - 1, problem.n + i - 1
    from_int = problem.ring.from_int
    for exps, c in h.terms.items():
        yield exps[:w] + (exps[w] + 1,) + exps[w + 1:], c
        if exps[z]:
            yield exps[:z] + (exps[z] - 1,) + exps[z + 1:], c * from_int(-exps[z])


@dataclass
class DecompositionResult:
    """Components f_a of f = sum t^a f_a, each free of the w-variables."""

    problem: ImageProblem
    components: dict

    def component(self, a) -> Polynomial:
        return self.components.get(tuple(a), self.problem.zero())


def decompose(problem: ImageProblem, f: Polynomial,
              order=None) -> DecompositionResult:
    """Unique decomposition; characteristic 0 only (integration divides).

    `order` optionally permutes the elimination order of the w-variables;
    uniqueness makes the result independent of it.
    """
    problem.check(f)
    if problem.ring.characteristic != 0:
        raise ValueError("decomposition requires characteristic 0")
    order = list(order) if order is not None else list(range(1, problem.n + 1))
    if sorted(order) != list(range(1, problem.n + 1)):
        raise ValueError("order must permute 1..n")
    partial = {(): f}
    for i in order:
        nxt = {}
        for prefix, g in partial.items():
            for k, comp in _decompose_one(problem, i, g).items():
                nxt[prefix + ((i, k),)] = comp
        partial = nxt
    components = {}
    for prefix, g in partial.items():
        a = [0] * problem.n
        for i, k in prefix:
            a[i - 1] = k
        if not g.is_zero():
            components[tuple(a)] = g
    return DecompositionResult(problem, components)


def _decompose_one(problem: ImageProblem, i: int, f: Polynomial) -> dict:
    """Single-variable integration recursion for the pair (w_i, z_i)."""
    name = f"w{i}"
    if f.is_zero():
        return {}
    df = f.partial(name)
    if df.is_zero():
        return {0: f}
    sub = _decompose_one(problem, i, df)
    components = {}
    g_sum = problem.zero()
    for k, g in sub.items():
        scaled = g.scale(problem.ring.from_fraction(Fraction(1, k + 1)))
        components[k + 1] = scaled
        acc = scaled
        for _ in range(k + 1):
            acc = t_apply(problem, i, acc)
        g_sum = g_sum + acc
    f0 = f - g_sum
    if not f0.is_zero():
        components[0] = f0
    return components


def recompose(d: DecompositionResult) -> Polynomial:
    problem = d.problem
    total = problem.zero()
    for a, comp in d.components.items():
        acc = comp
        for i, k in enumerate(a, start=1):
            for _ in range(k):
                acc = t_apply(problem, i, acc)
        total = total + acc
    return total


@dataclass
class MembershipCertificate:
    """Either a witness (h_1..h_n) with sum (d/dz_i - w_i) h_i = f, or the residue L(f)."""

    problem: ImageProblem
    status: str  # "member" | "nonmember"
    witness: list = None
    residue: Polynomial = None

    def verify(self, f: Polynomial) -> bool:
        if self.status != "member":
            return self.residue is not None and not self.residue.is_zero()
        # sum_i (d/dz_i - w_i) h_i = -sum_i t_i h_i, summed in one pass
        problem = self.problem
        total = _sum_terms(pair for i, h in enumerate(self.witness, start=1)
                           for pair in _t_terms(problem, i, h))
        return Polynomial(problem.ring, problem.variables, total) == -f

    def as_report(self) -> dict:
        if self.status == "member":
            return {"status": "member",
                    "witness": [h.to_str() for h in self.witness]}
        return {"status": "nonmember", "residue": self.residue.to_str()}


def certify_imD(problem: ImageProblem, f: Polynomial) -> MembershipCertificate:
    """Decide membership in sum_i (d/dz_i - w_i) C[w,z] via the decomposition."""
    problem.check(f)
    d = decompose(problem, f)
    zero_index = (0,) * problem.n
    f0 = d.components.get(zero_index)
    lf = L_map(problem, f)
    if not (lf.is_zero() if f0 is None else lf == f0):
        raise VerificationError("the zero component of the decomposition is not L(f)")
    if f0 is not None and not f0.is_zero():
        return MembershipCertificate(problem, "nonmember", residue=f0)
    witness = [problem.zero() for _ in range(problem.n)]
    for a, comp in d.components.items():
        if a == zero_index:
            continue
        i = next(j for j, e in enumerate(a, start=1) if e > 0)
        acc = comp
        for j, k in enumerate(a, start=1):
            steps = k - 1 if j == i else k
            for _ in range(steps):
                acc = t_apply(problem, j, acc)
        # t^a f_a = t_i(acc) = -(d/dz_i - w_i)(acc)
        witness[i - 1] = witness[i - 1] - acc
    cert = MembershipCertificate(problem, "member", witness=witness)
    if not cert.verify(f):
        raise VerificationError("certificate failed to re-verify")
    return cert


@dataclass
class PowerScan:
    values: list  # L(f^m) for m = 1..m_max
    first_nonzero: int = None  # 1-based power index, None if all vanish

    def as_report(self) -> dict:
        return {"values": [v.to_str() for v in self.values],
                "first_nonzero": self.first_nonzero}


def power_scan(problem: ImageProblem, f: Polynomial, m_max: int) -> PowerScan:
    """L(f^m) for m = 1..m_max, computing powers incrementally."""
    problem.check(f)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    values = []
    first = None
    power = problem.one()
    for m in range(1, m_max + 1):
        power = power * f
        v = L_map(problem, power)
        values.append(v)
        if first is None and not v.is_zero():
            first = m
    return PowerScan(values, first)


def factorial_functional(f: Polynomial):
    """sum over terms of coeff * prod(exponent!), the exponential-moment value."""
    if f.variables.laurent:
        raise ValueError("factorial functional is defined on plain polynomial variables")
    total = f.ring.zero()
    for exps, c in f.terms.items():
        scale = 1
        for e in exps:
            scale *= factorial(e)
        total = total + c * f.ring.from_int(scale)
    return total


def to_u_polynomial(problem: ImageProblem, f: Polynomial,
                    u_vars: VariableSet = None) -> Polynomial:
    """Rewrite a polynomial in the monomials (w_i z_i)^k as a u-polynomial.

    Fails when some term is not of the balanced shape w^a z^a.
    """
    problem.check(f)
    n = problem.n
    if u_vars is None:
        u_vars = VariableSet(tuple(f"u{i}" for i in range(1, n + 1)))
    terms = {}
    for exps, c in f.terms.items():
        a, b = exps[:n], exps[n:]
        if a != b:
            raise ValueError("polynomial is not supported on the diagonal monomials w_i z_i")
        terms[a] = c
    return Polynomial(f.ring, u_vars, terms)


def u_to_pair_polynomial(problem: ImageProblem, f: Polynomial) -> Polynomial:
    """Substitute u_i -> w_i z_i, landing back in the (w, z) ring."""
    bindings = {name: problem.zeta(i) * problem.z(i)
                for i, name in enumerate(f.variables.names, start=1)}
    return f.substitute(bindings, target=problem.zero())


@dataclass
class MonomialCountScan:
    monomials: int
    first_nonzero: int  # first m with nonzero value, None if bound exhausted
    within_monomial_count: bool
    values: list

    def as_report(self) -> dict:
        return {"monomials": self.monomials,
                "first_nonzero": self.first_nonzero,
                "within_monomial_count": self.within_monomial_count,
                "values": [str(v) for v in self.values]}


def monomial_count_scan(f: Polynomial, bound: int = None) -> MonomialCountScan:
    """Scan factorial_functional(f^m) for the first nonvanishing power.

    Evidence gathering for the N-monomial stopping rule: with N the number
    of monomials of f, a nonzero value is expected at some m <= N.
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
    return MonomialCountScan(count, first,
                             first is not None and first <= count, values)


@dataclass
class WitnessSearchResult:
    status: str  # "member" | "unknown"
    witnesses: list = None
    degree_bound: int = 0

    def as_report(self) -> dict:
        if self.status == "member":
            return {"status": "member", "degree_bound": self.degree_bound,
                    "witness": [p.to_str() for p in self.witnesses]}
        return {"status": "unknown", "degree_bound": self.degree_bound}


def bounded_witness_search(operators: DiffOperatorSpec, b: Polynomial,
                           degree_bound: int = None) -> WitnessSearchResult:
    """Exact linear search for p_j with sum_j op_j(p_j) = b, degrees <= bound.

    Sound but incomplete: "unknown" only means no witness exists below the
    bound.  The default bound is deg(b) plus the operator count.
    """
    if b.variables.laurent:
        raise ValueError("witness search needs plain polynomial variables")
    if degree_bound is None:
        deg = b.total_degree()
        degree_bound = (0 if deg == NEG_INF else int(deg)) + len(operators)
    ring = b.ring
    basis = list(_monomials_up_to(b.variables, degree_bound))
    columns = []
    row_index = {}
    images = []
    for op in operators:
        for exps in basis:
            mono = Polynomial(ring, b.variables, {exps: ring.one()})
            img = op.apply(mono)
            images.append(img)
            for key in img.terms:
                row_index.setdefault(key, len(row_index))
    for key in b.terms:
        row_index.setdefault(key, len(row_index))
    n_rows, n_cols = len(row_index), len(images)
    zero, one = ring.zero(), ring.one()
    rows = [[zero] * n_cols for _ in range(n_rows)]
    for col, img in enumerate(images):
        for key, c in img.terms.items():
            rows[row_index[key]][col] = c
    rhs = [zero] * n_rows
    for key, c in b.terms.items():
        rhs[row_index[key]] = c
    solution = linalg.solve_linear(rows, rhs, zero, one)
    if solution is None:
        return WitnessSearchResult("unknown", degree_bound=degree_bound)
    witnesses = []
    per_op = len(basis)
    for j, op in enumerate(operators):
        terms = {}
        for i, exps in enumerate(basis):
            c = solution[j * per_op + i]
            if c:
                terms[exps] = c
        witnesses.append(Polynomial(ring, b.variables, terms))
    total = Polynomial.zero(ring, b.variables)
    for op, p in zip(operators, witnesses):
        total = total + op.apply(p)
    if total != b:
        raise VerificationError("witness search solution failed to re-verify")
    return WitnessSearchResult("member", witnesses, degree_bound)


def _monomials_up_to(variables: VariableSet, bound: int):
    def rec(i, remaining):
        if i == len(variables):
            yield ()
            return
        for e in range(remaining + 1):
            for tail in rec(i + 1, remaining - e):
                yield (e,) + tail
    yield from rec(0, bound)


def ic1_pipeline(problem: ImageProblem, f: Polynomial, m_max: int = 12) -> dict:
    """Composite one-pair demonstration: grade, shift by w^r, reduce to u, scan.

    Mirrors the degree argument that settles the one-pair case: a polynomial
    with top grade r >= 0 is multiplied by w^r, its grade-zero part becomes a
    u-polynomial, and the monomial-count scan exhibits a nonvanishing power.
    """
    if problem.n != 1:
        raise ValueError("pipeline is specific to one variable pair")
    problem.check(f)
    deg = f.grade_degree(problem.deg_grading())
    report = {"deg": None if deg == NEG_INF else int(deg)}
    if deg == NEG_INF or deg <= -1:
        scan = power_scan(problem, f, m_max)
        report["branch"] = "negative_degree"
        report["power_scan"] = scan.as_report()
        return report
    r = int(deg)
    g = (problem.zeta(1) ** r) * f
    g0 = g.homogeneous_components(problem.deg_grading()).get(0, problem.zero())
    u_poly = to_u_polynomial(problem, g0)
    scan = monomial_count_scan(u_poly)
    report["branch"] = "shifted_to_diagonal"
    report["shift_power"] = r
    report["diagonal_part"] = u_poly.to_str()
    report["count_scan"] = scan.as_report()
    return report
