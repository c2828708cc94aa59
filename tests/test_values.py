"""The contract of the immutable value types: equality, hashing, repr,
immutability, copies and the constructor checks; and the printed results
(`Report`)."""

import copy
import pickle
from fractions import Fraction

import pytest

from mathieulab.harness import MatrixValue
from mathieulab.imagemap import ImageProblem
from mathieulab.ortho import MomentFunctional, WeightSpec
from mathieulab.poly import Polynomial, Report, VariableSet
from mathieulab.rings import GF, QI, QQ, GaussianRational, PrimeFieldElement, RingDescriptor
from mathieulab.weyl import WeylElement

JACOBI = WeightSpec("jacobi", 1, 2)
D1 = VariableSet(("d1",))

# (make an equal value afresh, a value differing in one field, its repr)
VALUES = {
    "GaussianRational": (lambda: GaussianRational(Fraction(1, 2), Fraction(-3)),
                         GaussianRational(Fraction(1, 2), Fraction(3)),
                         "GaussianRational(Fraction(1, 2), Fraction(-3, 1))"),
    "PrimeFieldElement": (lambda: PrimeFieldElement(3, 7), PrimeFieldElement(4, 7),
                          "PrimeFieldElement(3, 7)"),
    "RingDescriptor": (lambda: RingDescriptor("Fp", 7), GF(5),
                       "RingDescriptor(kind='Fp', characteristic=7)"),
    "VariableSet": (lambda: VariableSet(["t", "u"], laurent={"t"}), VariableSet(("t", "u")),
                    "VariableSet(names=('t', 'u'), laurent=frozenset({'t'}))"),
    "Polynomial": (lambda: Polynomial.var(QQ, D1, "d1", 2), Polynomial.var(QQ, D1, "d1", 3),
                   "<Polynomial d1^2>"),
    "ImageProblem": (lambda: ImageProblem(2, QQ), ImageProblem(2, QI),
                     "ImageProblem(n=2, ring=RingDescriptor(kind='Q', characteristic=0))"),
    "WeightSpec": (lambda: WeightSpec("jacobi", 1, 2), WeightSpec("jacobi", 2, 1),
                   "WeightSpec(family='jacobi', alpha=1, beta=2)"),
    "MomentFunctional": (lambda: MomentFunctional(JACOBI),
                         MomentFunctional(WeightSpec("jacobi", 2, 1)),
                         "MomentFunctional(spec=WeightSpec(family='jacobi', alpha=1, beta=2))"),
    "WeylElement": (lambda: WeylElement(Polynomial.var(QQ, D1, "d1", 2), ("z1",)),
                    WeylElement(Polynomial.var(QQ, D1, "d1", 2), ("z2",)),
                    "WeylElement(symbol=<Polynomial d1^2>, z_names=('z1',))"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_equality_hash_and_repr(name):
    make, other, shown = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert repr(a) == shown
    assert a != 1 and a != repr(a)
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", VALUES)
def test_values_are_immutable(name):
    value = VALUES[name][0]()
    before = repr(value)
    for field in value.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", VALUES)
def test_values_copy_and_pickle(name):
    value = VALUES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and repr(twin) == repr(value) and twin == value


def test_polynomials_copy_and_pickle():
    f = Polynomial(QI, VariableSet(("t",), laurent={"t"}), {(-1,): QI.imaginary_unit()})
    op = WeylElement.constant_coefficient(Polynomial.var(GF(7), D1, "d1", 3), ("z1",))
    for value, terms in ((f, lambda v: v.terms), (op, lambda v: v.symbol.terms)):
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and terms(twin) is not terms(value)


def test_moment_functional_is_its_spec():
    """The moment cache is not a field: reads leave equality, hash and repr as they were."""
    read = MomentFunctional(JACOBI)
    assert read.moment(6) == Fraction(1, 21)
    fresh = MomentFunctional(JACOBI)
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    twin = pickle.loads(pickle.dumps(read))
    assert twin == read and twin.moment(6) == read.moment(6)


def test_scaling_takes_the_polynomial_on_the_left():
    p = Polynomial.var(QQ, D1, "d1")
    assert p * 2 == p.scale(2) == p + p
    with pytest.raises(TypeError):
        2 * p


def test_report_prints_every_value_as_its_literal():
    x = Polynomial.var(QQ, VariableSet(("x",)), "x")
    half, residue = Fraction(-1, 2), PrimeFieldElement(3, 7)
    report = Report(poly=x * x - x, matrix=MatrixValue([[half, Fraction(0)], [x, x * 2]]),
                    fraction=half, gaussian=GaussianRational(Fraction(1, 2), Fraction(3)),
                    residue=residue, nested=[(x, {"k": [residue, None]}), {"pair": (1, "s")}],
                    none=None, yes=True, no=False, count=-3, text="x^2",
                    report=Report(values=[x, x * x], rows=[Report(g=x)]))
    printed = {"poly": "x^2 - x", "matrix": "[-1/2, 0; x, 2*x]", "fraction": "-1/2",
               "gaussian": "1/2+3*i", "residue": "3",
               "nested": [["x", {"k": ["3", None]}], {"pair": [1, "s"]}],
               "none": None, "yes": True, "no": False, "count": -3, "text": "x^2",
               "report": {"values": ["x", "x^2"], "rows": [{"g": "x"}]}}
    out = report.as_report()
    assert out == printed
    assert list(out) == list(vars(report))  # the fields print in the order given
    assert [type(out[k]) for k in ("yes", "no", "count")] == [bool, bool, int]
    # a fresh dict each time: a caller's update leaves the Report as it was
    out.update({"command": "scan"})
    out["nested"][1]["pair"].append(2)
    assert report.as_report() == printed
    assert report.nested[1]["pair"] == (1, "s") and "command" not in vars(report)


def test_reports_with_equal_fields_are_equal():
    x = Polynomial.var(QQ, VariableSet(("x",)), "x")
    assert Report(f=x, g_results=[{"g": x}]) == Report(f=x * 1, g_results=[{"g": x + x - x}])
    assert Report(f=x, verdict="consistent") != Report(f=x, verdict="premise_failed")
    assert Report(f=x) != Report(f=x * 2)
    assert Report(a=1, b=2) != Report(a=1)


def test_ring_elements_never_equal_bare_numbers():
    for x in (QI.one(), GF(7).one(), QI.zero(), GF(7).zero()):
        assert (x == 1) is False and (x == 0) is False and (x == Fraction(1)) is False
    with pytest.raises(ValueError, match="mixed prime-field moduli 7 and 5"):
        GF(7).one() == GF(5).one()


def test_image_problem_caches_its_variables():
    problem = ImageProblem(2, QQ)
    assert problem.variables is problem.variables
    assert problem.variables == VariableSet(("w1", "w2", "z1", "z2"))
    assert problem == ImageProblem(2, QQ)


@pytest.mark.parametrize("build, message", [
    (lambda: RingDescriptor("Z"), "unknown ring kind 'Z'"),
    (lambda: RingDescriptor("Fp", 6), "modulus 6 is not prime"),
    (lambda: RingDescriptor("Q", 5), "Q has characteristic 0"),
    (lambda: VariableSet(("x", "x")), "variable names must be distinct"),
    (lambda: VariableSet(("x",), laurent={"t", "s"}),
     "laurent flags for unknown variables: ['s', 't']"),
    (lambda: ImageProblem(0, QQ), "need at least one variable pair"),
    (lambda: WeightSpec("gauss"), "unknown weight family 'gauss'"),
    (lambda: WeightSpec("jacobi", -1), "weight parameters must be non-negative integers"),
    (lambda: WeightSpec("hermite", 1), "hermite takes no parameters"),
    (lambda: WeightSpec("laguerre", 1, 1), "laguerre takes a single parameter alpha"),
    (lambda: GF(4), "modulus 4 is not prime"),
    (lambda: WeylElement(Polynomial.var(QQ, D1, "d1"), ("z1", "z2")),
     "d-symbol count must match the z-variable count"),
])
def test_constructor_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
