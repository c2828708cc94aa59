"""Scan harness: oracles, verdicts, matrices, and the operator bridge."""

from fractions import Fraction

import pytest

from conftest import random_polynomial
from mathieulab.harness import (
    MatrixValue,
    SubspaceOracle,
    gvc_scan,
    jacobian_nilpotent,
    kerL_oracle,
    laurent_constant_oracle,
    mathieu_scan,
    moment_oracle,
    one_property_probe,
    trace_oracle,
)
from mathieulab.imagemap import ImageProblem
from mathieulab.ortho import WeightSpec, moments
from mathieulab.poly import Polynomial, VariableSet, VerificationError
from mathieulab.rings import GF, QQ
from mathieulab.weyl import WeylElement

T_VARS = VariableSet(("t",), laurent=frozenset(("t",)))


def _laurent(terms):
    return Polynomial(QQ, T_VARS, {(k,): QQ.from_int(c) for k, c in terms.items()})


def test_mathieu_scan_consistent():
    oracle = laurent_constant_oracle(QQ)
    f = _laurent({1: 1})  # t: all powers constant-free
    g = _laurent({-2: 1})
    report = mathieu_scan(oracle, f, [g], m_max=6)
    assert report.verdict == "consistent"
    assert report.premise_held_through == 6
    # g f^m has a constant term exactly at m = 2
    assert report.g_results[0].stabilization_index == 3


def test_mathieu_scan_premise_failed():
    oracle = laurent_constant_oracle(QQ)
    f = _laurent({-1: 1, 1: 1})
    report = mathieu_scan(oracle, f, [], m_max=6)
    assert report.verdict == "premise_failed"
    assert report.premise_held_through == 1


def test_mathieu_scan_violation_witness():
    oracle = laurent_constant_oracle(QQ)
    f = _laurent({1: 1})
    g = _laurent({-6: 1})  # misses at the scan boundary m = 6
    report = mathieu_scan(oracle, f, [g], m_max=6)
    assert report.verdict == "violation_witness"
    violation = report.g_results[0].violation
    assert violation["m"] == 6
    out = report.as_report()
    assert out["verdict"] == "violation_witness"


def test_one_property_probe():
    oracle = laurent_constant_oracle(QQ)
    # the constant-free subspace does not contain 1
    probe = one_property_probe(oracle, _laurent({0: 1}), [])
    assert not probe.contains_one and not probe.refuted

    everything = SubspaceOracle("all", lambda p: True)
    probe = one_property_probe(everything, _laurent({0: 1}),
                               [_laurent({k: 1}) for k in range(-3, 4)])
    assert probe.contains_one and not probe.refuted


def test_matrix_arithmetic():
    a = MatrixValue([[QQ.from_int(1), QQ.from_int(2)],
                     [QQ.from_int(3), QQ.from_int(4)]])
    b = a * a
    assert b.entries[0][0] == QQ.from_int(7)
    assert b.entries[1][1] == QQ.from_int(22)
    assert a.trace() == QQ.from_int(5)
    assert not a.is_nilpotent()
    n = MatrixValue([[QQ.zero(), QQ.one()], [QQ.zero(), QQ.zero()]])
    assert n.is_nilpotent()
    with pytest.raises(ValueError):
        MatrixValue([[QQ.one()], [QQ.zero(), QQ.one()]])


def test_trace_oracle_characteristic_guard():
    with pytest.raises(ValueError):
        trace_oracle(3, GF(2))
    trace_oracle(2, GF(5))  # fine: p > dim


def test_trace_oracle_scan():
    nil = MatrixValue([[QQ.zero(), QQ.one(), QQ.zero()],
                       [QQ.zero(), QQ.zero(), QQ.one()],
                       [QQ.zero(), QQ.zero(), QQ.zero()]])
    g = MatrixValue([[QQ.one(), QQ.zero(), QQ.zero()],
                     [QQ.zero(), QQ.zero(), QQ.zero()],
                     [QQ.zero(), QQ.zero(), QQ.zero()]])
    report = mathieu_scan(trace_oracle(3, QQ), nil, [g], m_max=6)
    assert report.verdict == "consistent"


def test_moment_oracle():
    m = moments(WeightSpec("uniform01"), 20)
    oracle = moment_oracle(m)
    x = Polynomial.var(QQ, VariableSet(("x",)), "x")
    one = Polynomial.one(QQ, VariableSet(("x",)))
    half = one.scale(1) - x.scale(2)  # 1 - 2x has mean zero on (0,1)
    assert oracle(half)
    assert not oracle(x)


def test_kerl_oracle(rng):
    problem = ImageProblem(2, QQ)
    oracle = kerL_oracle(problem)
    for i in (1, 2):
        g = random_polynomial(rng, QQ, problem.variables)
        assert oracle(g.partial(f"z{i}") - problem.zeta(i) * g)
    assert not oracle(problem.zeta(1) * problem.z(1))


def test_gvc_scan_with_crosscheck():
    problem = ImageProblem(1, QQ)
    zv = VariableSet(problem.z_names)
    lap = WeylElement(QQ, problem.z_names, {((0,), (2,)): QQ.one()})
    p_poly = Polynomial.var(QQ, zv, "z1")
    q_poly = Polynomial.var(QQ, zv, "z1", 3)
    report = gvc_scan(lap, p_poly, q_poly, 6, problem=problem)
    # d^{2m}(z^m) = 0 for every m >= 1
    assert report.premise_held_through == 6
    # d^{2m}(z^{m+3}) = 0 once 2m > m + 3
    assert report.stabilization_index == 4
    assert all(v.is_zero() for v in report.shifted_values[3:])


@pytest.mark.parametrize("wrong_call", [0, 1, 6, 11])
def test_gvc_crosscheck_refuses_a_wrong_operator_value(monkeypatch, wrong_call):
    """One operator-route value off by 1 (calls alternate premise m, shifted m; m_max = 6)."""
    problem = ImageProblem(2, QQ)
    zv = VariableSet(problem.z_names)
    op = WeylElement(QQ, problem.z_names, {((0, 0), (2, 0)): QQ.one(),
                                           ((0, 0), (0, 1)): QQ.from_int(3)})
    z1, z2 = (Polynomial.var(QQ, zv, name) for name in problem.z_names)
    p_poly, q_poly = z1 + z2 * z2.scale(Fraction(1, 2)), z1 * z2
    gvc_scan(op, p_poly, q_poly, 6, problem=problem)  # the honest values pass
    apply, calls = WeylElement.apply, []

    def tampered(self, h):
        value = apply(self, h)
        calls.append(h)
        return value + Polynomial.one(QQ, zv) if len(calls) - 1 == wrong_call else value

    monkeypatch.setattr(WeylElement, "apply", tampered)
    with pytest.raises(VerificationError):
        gvc_scan(op, p_poly, q_poly, 6, problem=problem)
    assert len(calls) == 12


def test_gvc_requires_constant_coefficients():
    problem = ImageProblem(1, QQ)
    zv = VariableSet(problem.z_names)
    z_op = WeylElement.z_var(QQ, problem.z_names, 1)
    with pytest.raises(ValueError):
        gvc_scan(z_op, Polynomial.one(QQ, zv), Polynomial.one(QQ, zv), 3, problem=problem)


def test_gvc_rejects_empty_scan():
    problem = ImageProblem(1, QQ)
    zv = VariableSet(problem.z_names)
    lap = WeylElement(QQ, problem.z_names, {((0,), (2,)): QQ.one()})
    one = Polynomial.one(QQ, zv)
    for m_max in (0, -5):
        with pytest.raises(ValueError, match="m_max must be at least 1"):
            gvc_scan(lap, one, one, m_max, problem=problem)


def test_gvc_one_dim_stabilization_bound(rng):
    """Observed stabilization never exceeds the first m with 2m > deg(Q P^m)."""
    problem = ImageProblem(1, QQ)
    zv = VariableSet(problem.z_names)
    op = WeylElement(QQ, problem.z_names, {((0,), (2,)): QQ.one()})
    for _ in range(10):
        p_poly = random_polynomial(rng, QQ, zv, max_degree=1, max_terms=2)
        q_poly = random_polynomial(rng, QQ, zv, max_degree=3, max_terms=2)
        if p_poly.is_zero() or q_poly.is_zero():
            continue
        report = gvc_scan(op, p_poly, q_poly, 8, problem=problem)
        dp = int(p_poly.total_degree())
        dq = int(q_poly.total_degree())
        if dp <= 1:
            # order 2m beats degree dq + m*dp eventually; bound the observed index
            bound = dq + 2
            assert report.stabilization_index <= bound


def test_jacobian_nilpotent_triangular():
    problem = ImageProblem(3, QQ)
    zv = VariableSet(problem.z_names)
    z2 = Polynomial.var(QQ, zv, "z2")
    z3 = Polynomial.var(QQ, zv, "z3")
    h = [z2 * z2, z3 * z3 * z3, Polynomial.zero(QQ, zv)]
    assert jacobian_nilpotent(h, problem.z_names)
    assert not jacobian_nilpotent([z2 * z2, z2 * z3, z3 * z3],
                                  problem.z_names)

