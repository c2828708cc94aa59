"""Generic Mathieu-property experiments: named membership oracles, bounded
power scans, the trace / constant-term / moment / kernel instances, the
vanishing-conjecture bridge, and the Jacobian matrix (`jacobian_matrix`,
whose `is_nilpotent` is the nilpotency test).

A bounded scan never proves anything; its verdicts are "premise_failed",
"consistent" (up to m_max), or "unknown" when some g f^m still misses at
m_max.  Each result is a `poly.Report`, and each g's result in it is a dict
with the keys the report prints.  The kernel and constant-term oracles
scan through the integer power loop (`powers._int_powers`); the moment and
trace oracles have no scan of their own, so f^m and g f^m are multiplied
out and asked of `member` (`SubspaceOracle._products`).  A reported miss is
multiplied out and re-checked with `member`.  The constant-term scan caps
f^m's exponents at what a later read can reach, so its powers can run empty
(`laurent_constant_oracle`).  The bridge (`gvc_scan`) reads a
constant-coefficient operator's d-symbol and powers it as a `Polynomial`.
"""

from __future__ import annotations

from operator import mul, sub

from .poly import Polynomial, Report, VerificationError, _printed
from .rings import RingDescriptor


class SubspaceOracle:
    """Named exact membership predicate.  `scan(f, gs, m_max)`, when given, yields
    per m whether f^m is a member and a callable saying which g * f^m are."""

    def __init__(self, name: str, member: callable, scan: callable = None):
        self.name = name
        self.member = member
        self.scan = scan

    def __call__(self, element) -> bool:
        return self.member(element)

    def _products(self, f, gs, m_max):
        """The scan without `scan`: f^m and g * f^m multiplied out, asked of `member`."""
        power = f
        for m in range(1, m_max + 1):
            if m > 1:
                power = power * f
            yield self(power), lambda power=power: [self(g * power) for g in gs]


def mathieu_scan(oracle: SubspaceOracle, f, gs, m_max: int = 24) -> Report:
    """Scan f^m membership, then g f^m stabilization for each supplied g.

    The report's `premise_held_through` is the last m up to which every f^m
    is a member.  Only when that is m_max does each g get a `g_results`
    entry: {"g", "stabilization_index"}, or, when g f^m_max misses,
    {"g", "miss": {"m", "element"}} with the first m whose g f^m misses.
    The `verdict` is "premise_failed", "consistent", or "unknown" when some
    g misses: a premise that holds through m_max and a miss at m_max show
    neither that every f^m is a member nor that g f^m keeps missing.  A
    miss's g f^m and g f^m_max are multiplied out and re-checked.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    rows = []
    for member, g_members in (oracle.scan or oracle._products)(f, gs, m_max):
        if not member:
            break
        rows.append(g_members)
    report = Report(oracle=oracle.name, f=f, m_max=m_max, premise_held_through=len(rows),
                    g_results=[], verdict="premise_failed")
    if len(rows) < m_max:
        return report
    report.verdict = "consistent"
    for g, column in zip(gs, zip(*(row() for row in rows))):
        misses = [m for m, member in enumerate(column, start=1) if not member]
        if not misses:
            report.g_results.append({"g": g, "stabilization_index": 1})
        elif misses[-1] == m_max:
            m = misses[0]
            element = g * f ** m
            if oracle(element) or m < m_max and oracle(g * f ** m_max):
                raise VerificationError(f"{oracle.name} scan reported a member as a miss")
            report.g_results.append({"g": g, "miss": {"m": m, "element": element}})
            report.verdict = "unknown"
        else:
            report.g_results.append({"g": g, "stabilization_index": misses[-1] + 1})
    return report


# -- exact matrices ----------------------------------------------------

class MatrixValue:
    """Small square matrix with exact entries (ring elements or polynomials)."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.dim = len(self.entries)
        if any(len(row) != self.dim for row in self.entries):
            raise ValueError("matrix must be square")

    def __mul__(self, other):
        n = self.dim
        return MatrixValue([
            [sum((self.entries[i][k] * other.entries[k][j] for k in range(1, n)),
                 self.entries[i][0] * other.entries[0][j])
             for j in range(n)] for i in range(n)])

    def __pow__(self, m: int) -> "MatrixValue":
        if m < 1:
            raise ValueError("power must be positive")
        out = self
        for _ in range(m - 1):
            out = out * self
        return out

    def trace(self):
        return sum((self.entries[i][i] for i in range(1, self.dim)),
                   self.entries[0][0])

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def is_nilpotent(self) -> bool:
        return (self ** self.dim).is_zero()

    def to_str(self) -> str:
        return "[" + "; ".join(
            ", ".join(map(_printed, row)) for row in self.entries) + "]"


# -- concrete oracles --------------------------------------------------

def trace_oracle(dim: int, ring: RingDescriptor) -> SubspaceOracle:
    """Trace-zero matrices; requires characteristic 0 or > dim."""
    if 0 < ring.characteristic <= dim:
        raise ValueError(
            "trace-zero subspace needs characteristic 0 or larger than the "
            "dimension; small characteristic admits no codimension-one instance")
    return SubspaceOracle(f"trace_zero_{dim}", lambda a: not a.trace())


def laurent_constant_oracle(ring: RingDescriptor) -> SubspaceOracle:
    """Constant-term-free.  The scan sends t_j to 1/t_j in f and the gs for each t_j
    in which every exponent of f is negative (no constant term changes).  Then,
    with f = t^s f_0, s the lowest exponent of each variable, it reads
    [t^0](g f^m) = sum_k g_k [t^(-k - m s)] f_0^m off `_int_powers`.  With
    K_j = max(0, max over the gs' terms t^k of -k_j), no read at step m or later
    reaches a term of f_0^m with e_j > K_j - m s_j (s_j >= 0) or with
    e_j > K_j + m_max |s_j| (s_j < 0): that is the power loop's ceiling.  Once
    a capped f_0^m is empty, so is every later one: the remaining rows are
    one shared answer, every f^m and g f^m free of a constant term."""
    def scan(f, gs, m_max):
        from .powers import _int_powers
        sign = [-1 if max(c) < 0 else 1 for c in zip(*f.terms)] or [1] * len(f.variables)
        f, *gs = [Polynomial(g.ring, g.variables, {tuple(map(mul, sign, e)): c
                                                   for e, c in g.terms.items()}) for g in (f, *gs)]
        s = [min(e) for e in zip(*f.terms)] or [0] * len(f.variables)
        f_0 = Polynomial(f.ring, f.variables, {
            tuple(a - b for a, b in zip(e, s)): c for e, c in f.terms.items()})
        top = [max([0] + [-k[j] for g in gs for k in g.terms]) for j in range(len(s))]
        powers = _int_powers(f_0, m_max, ceiling=lambda m: [
            t - min(m * b, m_max * b) for t, b in zip(top, s)])
        for m, (terms,) in enumerate(powers, start=1):
            if not terms:
                yield from [(True, lambda free=[True] * len(gs): free)] * (m_max - m + 1)
                return
            # f^m's terms keyed by the negated exponent: g's t^k meets t^-k
            power = {tuple(-a - m * b for a, b in zip(e, s)): c for e, c in terms.items()}

            def constant_free(g, power=power):
                return not sum((c * power[k] for k, c in g.terms.items() if k in power),
                               f.ring.zero())
            yield (0,) * len(s) not in power, lambda one=constant_free: [one(g) for g in gs]
    return SubspaceOracle(f"laurent_constant_{ring.kind}{ring.characteristic or ''}",
                          lambda p: not p.constant_coefficient(), scan)


def moment_oracle(m: MomentFunctional) -> SubspaceOracle:
    """Zero moment sum_j c_j mu_j, read off each term of f; a scan multiplies f^m
    and g f^m out, and m makes a moment (over F_p, reduces it mod p) only when a
    term reads it, so a scan that stops early meets no higher moment."""
    def member(f):
        from .ortho import inner_product
        one = Polynomial.one(f.ring, f.variables)
        return not inner_product(f, one, m)
    return SubspaceOracle(f"moment_zero_{m.spec.label()}", member)


def kerL_oracle(problem: ImageProblem) -> SubspaceOracle:
    """ker L; the scan reads L(f^m) and L(g f^m) off `_int_powers`."""
    from .imagemap import L_map

    def scan(f, gs, m_max):
        from .powers import _int_powers
        for x in (f, *gs):
            problem.check(x)
        return ((not lf, lambda products=products: [not lq for lq in products])
                for lf, *products in _int_powers(f, m_max, problem.n, gs))
    return SubspaceOracle(f"kerL_n{problem.n}", lambda f: L_map(problem, f).is_zero(), scan)


# -- vanishing-conjecture bridge ---------------------------------------

def gvc_scan(operator: WeylElement, p_poly: Polynomial, q_poly: Polynomial,
             m_max: int, problem: ImageProblem) -> Report:
    """Exact scan of operator^m(P^m) and operator^m(Q P^m).

    The report gives `premise_values`, operator^m(P^m) for m = 1..m_max;
    `premise_held_through`, the last m up to which they all vanish;
    `shifted_values`, operator^m(Q P^m); and `stabilization_index`, one
    more than the last m with operator^m(Q P^m) != 0 (1 if none).

    The operator's d-symbol sum c d^b is read once as s = sum c w^b in the
    problem's variables, over the symbol's own ring; operator^m has symbol
    s^m, a `Polynomial` power, and acts term by term through the derivative
    rule (`_apply_symbol`).  Both sequences are cross-checked against the
    kernel-map route through f = s * P, term by term.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    ring = operator.symbol.ring
    symbol = Polynomial(ring, problem.variables,
                        {b + (0,) * problem.n: c for b, c in operator.symbol.terms.items()})
    premise, shifted = [], []
    s_power = Polynomial.one(ring, problem.variables)
    p_power = Polynomial.one(p_poly.ring, p_poly.variables)
    for m in range(1, m_max + 1):
        s_power = s_power * symbol
        p_power = p_power * p_poly
        premise.append(_apply_symbol(s_power, p_power))
        shifted.append(_apply_symbol(s_power, q_poly * p_power))
    _gvc_crosscheck(symbol, p_poly, q_poly, m_max, problem, premise, shifted)
    return Report(premise_values=premise,
                  premise_held_through=next((m for m, v in enumerate(premise) if v), m_max),
                  shifted_values=shifted, stabilization_index=next(
                      (m + 1 for m in range(m_max, 0, -1) if shifted[m - 1]), 1))


def _apply_symbol(symbol: Polynomial, h: Polynomial) -> Polynomial:
    """The operator sum c d^b with symbol sum c w^b, applied to h in z alone:
    c d^b z^e = c e!/(e-b)! z^(e-b)."""
    from .imagemap import _falling_product
    n, from_int = len(h.variables), h.ring.from_int
    return Polynomial(h.ring, h.variables, (
        (tuple(map(sub, e, b[:n])), c * hc * from_int(scale))
        for b, c in symbol.terms.items() for e, hc in h.terms.items()
        if (scale := _falling_product(e, b[:n]))))


def _gvc_crosscheck(symbol, p_poly, q_poly, m_max, problem, premise, shifted):
    """Check both sequences against L(f^m) and L(q f^m), f = symbol * P.

    The kernel-map route runs through the integer power loop
    (`powers._int_powers` with q as cofactor) and L on packed keys, which
    share no code with the `Polynomial` powers of the symbol or with
    `_apply_symbol`.
    """
    from .powers import _int_powers
    variables = problem.variables
    f = symbol * p_poly.embed(variables)
    powers = _int_powers(f, m_max, problem.n, (q_poly.embed(variables),))
    for m, (lf, lq) in enumerate(powers, start=1):
        if (lf != premise[m - 1].embed(variables).terms
                or lq != shifted[m - 1].embed(variables).terms):
            raise VerificationError("kernel-map route disagrees with operator route")


# -- nilpotent Jacobians -----------------------------------------------

def jacobian_matrix(h_polys, z_names) -> MatrixValue:
    return MatrixValue([[h.partial(name) for name in z_names] for h in h_polys])
