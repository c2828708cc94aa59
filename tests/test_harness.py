"""Scan harness: oracles, verdicts, matrices, and the operator bridge."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MomentTable, random_coeff, random_polynomial
from mathieulab import harness, powers
from mathieulab.harness import (
    MatrixValue,
    SubspaceOracle,
    gvc_scan,
    jacobian_matrix,
    kerL_oracle,
    laurent_constant_oracle,
    mathieu_scan,
    moment_oracle,
    trace_oracle,
)
from mathieulab.imagemap import ImageProblem
from mathieulab.ortho import X_VARS, MomentFunctional, WeightSpec
from mathieulab.poly import Polynomial, VariableSet, VerificationError
from mathieulab.rings import GF, QI, QQ, GaussianRational
from mathieulab.weyl import WeylElement
from weyl_algebra import apply, compose, lift

T_VARS = VariableSet(("t",), laurent=frozenset(("t",)))
TU_VARS = VariableSet(("t", "u"), laurent=frozenset(("t", "u")))


def _laurent(terms, ring=QQ):
    return Polynomial(ring, T_VARS, {(k,): ring.from_int(c) for k, c in terms.items()})


def _operator(problem, terms):
    """The constant-coefficient operator sum c d^b, from its d-symbol's terms {b: c}."""
    d_vars = VariableSet(tuple(f"d{i}" for i in range(1, problem.n + 1)))
    return WeylElement.constant_coefficient(Polynomial(problem.ring, d_vars, terms),
                                            problem.z_names)


def test_mathieu_scan_consistent():
    oracle = laurent_constant_oracle(QQ)
    f = _laurent({1: 1})  # t: all powers constant-free
    g = _laurent({-2: 1})
    report = mathieu_scan(oracle, f, [g], m_max=6)
    assert report.verdict == "consistent"
    assert report.premise_held_through == 6
    # g f^m has a constant term exactly at m = 2
    assert report.g_results[0]["stabilization_index"] == 3


def test_mathieu_scan_premise_failed():
    oracle = laurent_constant_oracle(QQ)
    f = _laurent({-1: 1, 1: 1})
    report = mathieu_scan(oracle, f, [], m_max=6)
    assert report.verdict == "premise_failed"
    assert report.premise_held_through == 1


def test_mathieu_scan_bounded_miss_is_unknown():
    """g f^m = t^(m-6) misses at the scan boundary m = 6 only: no violation."""
    oracle = laurent_constant_oracle(QQ)
    f = _laurent({1: 1})
    g = _laurent({-6: 1})
    report = mathieu_scan(oracle, f, [g], m_max=6)
    assert report.verdict == "unknown"
    assert report.g_results[0]["miss"] == {"m": 6, "element": _laurent({0: 1})}
    assert report.as_report()["verdict"] == "unknown"
    assert mathieu_scan(oracle, f, [g], m_max=7).verdict == "consistent"


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
    m = MomentFunctional(WeightSpec("uniform01"))
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
    lap = _operator(problem, {(2,): QQ.one()})
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
    """One derivative-route value off by 1 (calls alternate premise m, shifted m; m_max = 6)."""
    problem = ImageProblem(2, QQ)
    zv = VariableSet(problem.z_names)
    op = _operator(problem, {(2, 0): QQ.one(), (0, 1): QQ.from_int(3)})
    z1, z2 = (Polynomial.var(QQ, zv, name) for name in problem.z_names)
    p_poly, q_poly = z1 + z2 * z2.scale(Fraction(1, 2)), z1 * z2
    gvc_scan(op, p_poly, q_poly, 6, problem=problem)  # the honest values pass
    honest, calls = harness._apply_symbol, []

    def tampered(symbol, h):
        value = honest(symbol, h)
        calls.append(h)
        return value + Polynomial.one(QQ, zv) if len(calls) - 1 == wrong_call else value

    monkeypatch.setattr(harness, "_apply_symbol", tampered)
    with pytest.raises(VerificationError):
        gvc_scan(op, p_poly, q_poly, 6, problem=problem)
    assert len(calls) == 12


def test_gvc_values_match_the_normal_ordered_powers(rng):
    """operator^m(P^m) and operator^m(Q P^m) equal the test-side Weyl route:
    the m-fold normal-ordered composition, applied."""
    for problem in (ImageProblem(1, QQ), ImageProblem(2, QI)):
        n, zv = problem.n, VariableSet(problem.z_names)
        for _ in range(6):
            op = _operator(problem, {tuple(rng.randint(0, 2) for _ in range(n)):
                                     random_coeff(rng, problem.ring) for _ in range(3)})
            p_poly, q_poly = (random_polynomial(rng, problem.ring, zv, max_degree=2, max_terms=3)
                              for _ in range(2))
            report = gvc_scan(op, p_poly, q_poly, 4, problem=problem)
            power = general = lift(op)
            for m in range(1, 5):
                assert report.premise_values[m - 1] == apply(power, p_poly ** m)
                assert report.shifted_values[m - 1] == apply(power, q_poly * p_poly ** m)
                power = compose(power, general)


def test_gvc_rejects_empty_scan():
    problem = ImageProblem(1, QQ)
    zv = VariableSet(problem.z_names)
    lap = _operator(problem, {(2,): QQ.one()})
    one = Polynomial.one(QQ, zv)
    for m_max in (0, -5):
        with pytest.raises(ValueError, match="m_max must be at least 1"):
            gvc_scan(lap, one, one, m_max, problem=problem)


def test_gvc_one_dim_stabilization_bound(rng):
    """Observed stabilization never exceeds the first m with 2m > deg(Q P^m)."""
    problem = ImageProblem(1, QQ)
    zv = VariableSet(problem.z_names)
    op = _operator(problem, {(2,): QQ.one()})
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
    assert jacobian_matrix(h, problem.z_names).is_nilpotent()
    assert not jacobian_matrix([z2 * z2, z2 * z3, z3 * z3], problem.z_names).is_nilpotent()



# -- scan routes against the multiplied-out path --------------------------

_SCAN_RINGS = (QQ, QI, GF(3), GF(7))
_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _coefficients(ring):
    if ring.kind == "Q":
        return _SMALL
    if ring.kind == "Qi":
        return st.builds(GaussianRational, _SMALL, _SMALL)
    return st.integers(0, ring.characteristic - 1).map(ring.from_int)


@st.composite
def _polynomials(draw, ring, variables, low, high, min_terms=1):
    keys = draw(st.lists(st.tuples(*[st.integers(low, high)] * len(variables)),
                         min_size=min_terms, max_size=3))
    return Polynomial(ring, variables, [(k, draw(_coefficients(ring))) for k in keys])


def _outcome(oracle, f, gs, m_max):
    try:
        return mathieu_scan(oracle, f, gs, m_max).as_report()
    except (ValueError, ZeroDivisionError) as exc:
        return repr(exc)


def _assert_matches_products(oracle, f, gs, m_max):
    """The oracle's scan route and `member` on multiplied-out f^m, g f^m give one report."""
    assert oracle.scan is not None
    products = SubspaceOracle(oracle.name, oracle.member)
    expected = _outcome(products, f, gs, m_max)
    assert _outcome(oracle, f, gs, m_max) == expected, (f, gs, m_max)
    return expected


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=st.sampled_from(_SCAN_RINGS),
       variables=st.sampled_from((T_VARS, TU_VARS)),
       m_max=st.one_of(st.integers(1, 8), st.integers(9, 30)),
       span=st.sampled_from(((1, 3), (-3, -1), (-2, 2), (0, 2))))
def test_laurent_scan_matches_products(data, ring, variables, m_max, span):
    """Past m = 9 no g's term reaches f_0^m when f's exponents in some variable
    are all positive or all negative, so the power loop's ceiling empties it."""
    f = data.draw(_polynomials(ring, variables, *span))
    gs = data.draw(st.lists(_polynomials(ring, variables, -9, 3), min_size=1, max_size=3))
    _assert_matches_products(laurent_constant_oracle(ring), f, gs, m_max)


@pytest.mark.parametrize("m_max", [1, 2, 3, 4])
def test_laurent_ceiling_past_the_field_matches_products(m_max):
    """f = i*t*u + i*t.  At m_max = 3 a packed field holds exponents up to 3, and
    u^-9 sets u's ceiling to 9: the ceiling is clamped below the guard bit
    instead of wrapping into it (this g fails without the clamp)."""
    def term(a, b):
        return Polynomial(QI, TU_VARS, {(a, b): QI.imaginary_unit()})
    f = term(1, 1) + term(1, 0)
    for gs in ([term(-1, -1) + term(-5, 0)], [term(-3, -3), term(0, -9)]):
        _assert_matches_products(laurent_constant_oracle(QI), f, gs, m_max)


@pytest.mark.parametrize("f, g, last", [({1: 2, 3: 1}, {-5: 1}, 5),  # 2*t + t^3, t^-5
                                        ({-1: 1, -2: 2}, {3: 1}, 3)])  # t^-1 + 2*t^-2, t^3
def test_laurent_ceiling_empties_the_power(monkeypatch, f, g, last):
    """Past m = `last` no read reaches f_0^m: the power loop runs until its
    first empty power (the second f's only once t -> 1/t is applied), and
    every later row is one shared answer, with no power of its own."""
    sizes, honest = [], powers._int_powers

    def recording(*args, **kwargs):
        for row in honest(*args, **kwargs):
            sizes.append(len(row[0]))
            yield row
    monkeypatch.setattr(powers, "_int_powers", recording)
    f, g = _laurent(f), _laurent(g)
    report = mathieu_scan(laurent_constant_oracle(QQ), f, [g], 400)
    assert report.verdict == "consistent"
    assert all(sizes[:last]) and sizes[last:] == [0], sizes[:last + 1]
    rows = list(laurent_constant_oracle(QQ).scan(f, [g], 400))
    assert len(rows) == 400 and len({id(row) for row in rows[last:]}) == 1
    member, g_members = rows[-1]
    assert member is True and g_members() == [True] and g_members() is g_members()


@settings(max_examples=120, deadline=None)
@given(data=st.data(), ring=st.sampled_from(_SCAN_RINGS), n=st.integers(1, 2),
       m_max=st.integers(1, 5), negative_grade=st.booleans())
def test_kerl_scan_matches_products(data, ring, n, m_max, negative_grade):
    problem = ImageProblem(n, ring)
    f = data.draw(_polynomials(ring, problem.variables, 0, 2))
    if negative_grade:  # more w- than z-degree in every term: the premise holds
        f = Polynomial(ring, problem.variables, {
            e: c for e, c in f.terms.items() if sum(e[:n]) > sum(e[n:])})
    gs = data.draw(st.lists(_polynomials(ring, problem.variables, 0, 2), min_size=1, max_size=3))
    _assert_matches_products(kerL_oracle(problem), f, gs, m_max)


def _one_scan_per_route():
    """(oracle, f, gs, m_max) per scan route, each with a premise that holds."""
    problem = ImageProblem(2, QQ)
    w1, w2, z1, z2 = (problem.zeta(1), problem.zeta(2), problem.z(1), problem.z(2))
    return [
        (kerL_oracle(problem), w1 * w1 * z1 + w2, [z1, z1 * z2 + z2], 6),
        (laurent_constant_oracle(QQ), _laurent({1: 2, 3: -1}), [_laurent({-4: 1}),
                                                                _laurent({-9: 3, -2: 1})], 8),
    ]


def _moment_scan():
    """A moment scan over F_5 whose premise holds, and whose gs miss at m = 1 only."""
    x = Polynomial.var(GF(5), X_VARS, "x")
    # mu_0 = mu_3 = 1 and every other moment 0: x^2m is in M, x^3 is not
    mu = MomentTable(WeightSpec("hermite"), (1, 0, 0, 1) + (0,) * 20)
    return moment_oracle(mu), x * x, [x + Polynomial.one(GF(5), X_VARS), x.scale(3)], 6


def test_moment_scans_multiply_out():
    """A moment oracle has no scan of its own: its scans ask `member` of f^m and g f^m."""
    oracle, f, gs, m_max = _moment_scan()
    assert oracle.scan is None
    report = mathieu_scan(oracle, f, gs, m_max)
    assert (report.verdict, report.premise_held_through) == ("consistent", m_max)
    assert [g["stabilization_index"] for g in report.g_results] == [2, 2]
    hermite = moment_oracle(MomentFunctional(WeightSpec("hermite")))
    x = Polynomial.var(GF(3), X_VARS, "x")
    # over F_3 every Hermite moment mu_j with j >= 3 is 0: x^3 F_3[x] lies in M
    report = mathieu_scan(hermite, x ** 4 + x ** 3, [x + x ** 0, x * x], 6)
    assert report.verdict == "consistent"
    x = Polynomial.var(GF(7), X_VARS, "x")
    assert mathieu_scan(hermite, x ** 3, [x, x * x], 5).verdict == "premise_failed"


def test_scan_edge_cases_match_products():
    """f = 0, no g, g below every exponent of f^m, mixed signs."""
    for oracle, f, gs, m_max in _one_scan_per_route():
        zero = Polynomial.zero(f.ring, f.variables)
        report = _assert_matches_products(oracle, zero, gs, m_max)
        assert report["verdict"] == "consistent"
        assert [g["stabilization_index"] for g in report["g_results"]] == [1] * len(gs)
        assert _assert_matches_products(oracle, f, [], m_max)["g_results"] == []
        assert _assert_matches_products(oracle, f, gs, m_max)["premise_held_through"] == m_max
    for ring in _SCAN_RINGS:
        oracle = laurent_constant_oracle(ring)
        f = _laurent({1: 1, 2: 1}, ring)  # f^m spans t^m .. t^2m
        below, near = (_laurent({k: 1}, ring) for k in (-30, -3))
        report = _assert_matches_products(oracle, f, [below, below + near], 6)
        assert [g["stabilization_index"] for g in report["g_results"]] == [1, 4]
        mixed = _laurent({-1: 1, 1: 1}, ring)  # f^2 has constant term 2
        report = _assert_matches_products(oracle, mixed, [below], 6)
        assert (report["verdict"], report["premise_held_through"]) == ("premise_failed", 1)


def test_premise_failed_scans_ask_no_g():
    """A failed premise reports no g, and neither a route nor `member` is asked about one."""
    problem = ImageProblem(1, QQ)
    # mu_0..mu_4 only: asking about g * f^m reads past the table and raises
    short = MomentTable(WeightSpec("uniform01"), [Fraction(1, n + 1) for n in range(5)])
    cases = [
        (kerL_oracle(problem), problem.zeta(1) * problem.z(1), problem.z(1)),
        (laurent_constant_oracle(QQ), _laurent({-1: 1, 1: 1}), _laurent({-2: 1})),
        (moment_oracle(short), Polynomial.var(QQ, X_VARS, "x"),
         Polynomial.var(QQ, X_VARS, "x", 9)),
    ]
    for oracle, f, g in cases:
        asked, route = [], oracle.scan

        def recording(f, gs, m_max, route=route):
            for member, g_members in route(f, gs, m_max):
                yield member, lambda g_members=g_members: asked.append(1) or g_members()
        if route:  # the moment oracle has none
            oracle.scan = recording
        report = mathieu_scan(oracle, f, [g], 6)
        assert (report.verdict, report.g_results, asked) == ("premise_failed", [], [])
        elements = []
        products = SubspaceOracle(oracle.name, lambda e: elements.append(e) or oracle.member(e))
        assert mathieu_scan(products, f, [g], 6) == report
        assert elements == [f ** m for m in range(1, report.premise_held_through + 2)]


def test_route_scans_multiply_no_polynomials(monkeypatch):
    """Scans without a violation read g f^m off the power loop: no Polynomial product."""
    cases = _one_scan_per_route()
    products, mul = [], Polynomial.__mul__

    def counting_mul(self, other):
        products.append(self)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    for oracle, f, gs, m_max in cases:
        assert mathieu_scan(oracle, f, gs, m_max).verdict == "consistent"
    assert products == []
    oracle, f, gs, m_max = cases[1]
    mathieu_scan(SubspaceOracle(oracle.name, oracle.member), f, gs, m_max)
    assert products  # the counter sees the multiplied-out path


def _claim_a_miss_at_m_max(route):
    """`route` with every g * f^m_max reported outside the subspace."""
    def tampered(f, gs, m_max):
        for m, (member, g_members) in enumerate(route(f, gs, m_max), start=1):
            yield member, lambda g_members=g_members, last=m == m_max: [
                x and not last for x in g_members()]
    return tampered


@pytest.mark.parametrize("case", range(4))
def test_violation_recheck_refuses_a_member_reported_as_a_miss(case):
    """A route that reports every g f^m_max as a miss fails the re-check.

    In the two route scans of `_one_scan_per_route` and the moment scan,
    which multiplies out, each g also misses at small m, so the reported
    element is a true miss and g f^m_max must be re-checked too; with
    f = g = t, m_max is the only miss.
    """
    oracle, f, gs, m_max = (_one_scan_per_route() + [_moment_scan(), (
        laurent_constant_oracle(QQ), _laurent({1: 1}), [_laurent({1: 1})], 6)])[case]
    report = mathieu_scan(oracle, f, gs, m_max)
    assert report.verdict == "consistent"
    oracle.scan = _claim_a_miss_at_m_max(oracle.scan or oracle._products)
    with pytest.raises(VerificationError, match="reported a member as a miss"):
        mathieu_scan(oracle, f, gs, m_max)
