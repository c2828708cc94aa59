"""Generic Mathieu-property experiments: named membership oracles, bounded
power scans, the trace / constant-term / moment / kernel instances, the
vanishing-conjecture bridge, and the Jacobian matrix with its nilpotency
test (`jacobian_matrix`, `jacobian_nilpotent`).

A bounded scan never proves anything; its verdicts are "premise_failed",
"consistent" (up to m_max), or a concrete re-checkable violation witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .imagemap import ImageProblem, L_map
from .ortho import MomentFunctional, inner_product
from .poly import Polynomial, VerificationError
from .rings import RingDescriptor
from .weyl import WeylElement


@dataclass
class SubspaceOracle:
    """Named exact membership predicate on an algebra of elements."""

    name: str
    algebra: str
    member: callable
    samples: tuple = ()

    def __post_init__(self):
        # registration self-test: linear-subspace consistency on the samples
        members = [s for s in self.samples if self.member(s)]
        for a in members:
            for b in members:
                if not self.member(a + b):
                    raise ValueError(f"oracle {self.name}: members not closed under +")
            if not self.member(a + a + a):
                raise ValueError(f"oracle {self.name}: members not closed under scaling")

    def __call__(self, element) -> bool:
        return self.member(element)


@dataclass
class GResult:
    g_text: str
    stabilization_index: int = None
    violation: dict = None


@dataclass
class ScanReport:
    oracle: str
    f_text: str
    m_max: int
    premise_held_through: int
    g_results: list
    verdict: str  # premise_failed | consistent | violation_witness

    def as_report(self) -> dict:
        out = {
            "oracle": self.oracle,
            "f": self.f_text,
            "m_max": self.m_max,
            "premise_held_through": self.premise_held_through,
            "g_results": [],
            "verdict": self.verdict,
        }
        for g in self.g_results:
            entry = {"g": g.g_text}
            if g.violation is not None:
                entry["violation"] = g.violation
            else:
                entry["stabilization_index"] = g.stabilization_index
            out["g_results"].append(entry)
        return out


def _text(x) -> str:
    return x.to_str() if hasattr(x, "to_str") else str(x)


def mathieu_scan(oracle: SubspaceOracle, f, gs, m_max: int = 24) -> ScanReport:
    """Scan f^m membership, then g f^m stabilization for each supplied g."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    powers = []
    power = f
    premise_through = 0
    for m in range(1, m_max + 1):
        if m > 1:
            power = power * f
        powers.append(power)
        if oracle(power):
            premise_through = m
        else:
            break
    if premise_through < m_max:
        return ScanReport(oracle.name, _text(f), m_max, premise_through, [],
                          "premise_failed")
    g_results = []
    verdict = "consistent"
    for g in gs:
        misses = [m for m, p in enumerate(powers, start=1) if not oracle(g * p)]
        if not misses:
            g_results.append(GResult(_text(g), stabilization_index=1))
        else:
            last_miss = misses[-1]
            if last_miss == m_max:
                m = misses[0]
                g_results.append(GResult(_text(g), violation={
                    "m": m, "element": _text(g * powers[m - 1])}))
                verdict = "violation_witness"
            else:
                g_results.append(GResult(_text(g), stabilization_index=last_miss + 1))
    return ScanReport(oracle.name, _text(f), m_max, premise_through, g_results, verdict)


@dataclass
class ProbeReport:
    oracle: str
    contains_one: bool
    refuting_element: str = None

    @property
    def refuted(self) -> bool:
        return self.refuting_element is not None


def one_property_probe(oracle: SubspaceOracle, one, basis) -> ProbeReport:
    """A Mathieu subspace containing 1 must be everything; search for a non-member."""
    if not oracle(one):
        return ProbeReport(oracle.name, False)
    for g in basis:
        if not oracle(g):
            return ProbeReport(oracle.name, True, refuting_element=_text(g))
    return ProbeReport(oracle.name, True)


# -- exact matrices ----------------------------------------------------

class MatrixValue:
    """Small square matrix with exact entries (ring elements or polynomials)."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.dim = len(self.entries)
        if any(len(row) != self.dim for row in self.entries):
            raise ValueError("matrix must be square")

    def __add__(self, other):
        return MatrixValue([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __mul__(self, other):
        if not isinstance(other, MatrixValue):
            return MatrixValue([[a * other for a in row] for row in self.entries])
        n = self.dim
        return MatrixValue([
            [sum((self.entries[i][k] * other.entries[k][j] for k in range(1, n)),
                 self.entries[i][0] * other.entries[0][j])
             for j in range(n)] for i in range(n)])

    __rmul__ = __mul__

    def power(self, m: int) -> "MatrixValue":
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
        return self.power(self.dim).is_zero()

    def __eq__(self, other):
        return isinstance(other, MatrixValue) and self.entries == other.entries

    def __repr__(self):
        return f"MatrixValue({self.entries!r})"

    def to_str(self) -> str:
        return "[" + "; ".join(
            ", ".join(_text(e) for e in row) for row in self.entries) + "]"


# -- concrete oracles --------------------------------------------------

def trace_oracle(dim: int, ring: RingDescriptor) -> SubspaceOracle:
    """Trace-zero matrices; requires characteristic 0 or > dim."""
    if 0 < ring.characteristic <= dim:
        raise ValueError(
            "trace-zero subspace needs characteristic 0 or larger than the "
            "dimension; small characteristic admits no codimension-one instance")
    return SubspaceOracle(f"trace_zero_{dim}", "matrix",
                          lambda a: not a.trace())


def laurent_constant_oracle(ring: RingDescriptor) -> SubspaceOracle:
    return SubspaceOracle(f"laurent_constant_{ring.kind}{ring.characteristic or ''}",
                          "laurent",
                          lambda p: not p.constant_coefficient())


def moment_oracle(m: MomentFunctional) -> SubspaceOracle:
    def member(f):
        one = Polynomial.one(f.ring, f.variables)
        return not inner_product(f, one, m)
    return SubspaceOracle(f"moment_zero_{m.spec.label()}", "polynomial", member)


def kerL_oracle(problem: ImageProblem) -> SubspaceOracle:
    return SubspaceOracle(f"kerL_n{problem.n}", "pair_polynomial",
                          lambda f: L_map(problem, f).is_zero())


# -- vanishing-conjecture bridge ---------------------------------------

@dataclass
class GvcReport:
    premise_values: list  # operator^m applied to P^m, m = 1..m_max
    premise_held_through: int
    shifted_values: list  # operator^m applied to Q P^m
    stabilization_index: int = None

    def as_report(self) -> dict:
        return {
            "premise_values": [v.to_str() for v in self.premise_values],
            "premise_held_through": self.premise_held_through,
            "shifted_values": [v.to_str() for v in self.shifted_values],
            "stabilization_index": self.stabilization_index,
        }


def gvc_scan(operator: WeylElement, p_poly: Polynomial, q_poly: Polynomial,
             m_max: int, problem: ImageProblem = None) -> GvcReport:
    """Exact scan of operator^m(P^m) and operator^m(Q P^m).

    When `problem` is given, both sequences are cross-checked against the
    kernel-map route through f = operator-symbol * P, term by term.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if any(a != (0,) * len(a) for (a, _b) in operator.terms):
        raise ValueError("scan requires a constant-coefficient operator")
    premise, shifted = [], []
    premise_through = 0
    op_power = WeylElement.one(operator.ring, operator.z_names)
    p_power = Polynomial.one(p_poly.ring, p_poly.variables)
    for m in range(1, m_max + 1):
        op_power = op_power.compose(operator)
        p_power = p_power * p_poly
        v = op_power.apply(p_power)
        premise.append(v)
        if v.is_zero() and premise_through == m - 1:
            premise_through = m
        shifted.append(op_power.apply(q_poly * p_power))
    stabilization = None
    for m in range(m_max, 0, -1):
        if not shifted[m - 1].is_zero():
            stabilization = m + 1
            break
    else:
        stabilization = 1
    if problem is not None:
        _gvc_crosscheck(operator, p_poly, q_poly, m_max, problem, premise, shifted)
    return GvcReport(premise, premise_through, shifted, stabilization)


def _gvc_crosscheck(operator, p_poly, q_poly, m_max, problem, premise, shifted):
    symbol_terms = {}
    n = problem.n
    for (_a, b), c in operator.terms.items():
        symbol_terms[b + (0,) * n] = c
    op_symbol = Polynomial(problem.ring, problem.variables, symbol_terms)
    f = op_symbol * p_poly.embed(problem.ring, problem.variables)
    q_emb = q_poly.embed(problem.ring, problem.variables)
    f_power = problem.one()
    for m in range(1, m_max + 1):
        f_power = f_power * f
        lhs = L_map(problem, f_power)
        if lhs != premise[m - 1].embed(problem.ring, problem.variables):
            raise VerificationError("kernel-map route disagrees with operator route")
        lhs_q = L_map(problem, q_emb * f_power)
        if lhs_q != shifted[m - 1].embed(problem.ring, problem.variables):
            raise VerificationError("kernel-map route disagrees with operator route")


# -- nilpotent Jacobians -----------------------------------------------

def jacobian_matrix(h_polys, z_names) -> MatrixValue:
    return MatrixValue([[h.partial(name) for name in z_names] for h in h_polys])


def jacobian_nilpotent(h_polys, z_names) -> bool:
    return jacobian_matrix(h_polys, z_names).is_nilpotent()
