"""Classical weights: exact moments, Gram-Schmidt, Rodrigues, and the
first-order operator route.

Everything stays rational: moments are normalized by the zeroth moment, so
even the Gaussian weight only ever contributes rational numbers.  The two
generator routes are computed independently; the recursion here keeps the
weight factored out symbolically, while `lambda_power` works in twisted
rationals with explicit singular denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from . import linalg
from .poly import Polynomial, VariableSet, VerificationError
from .rings import QQ, RingDescriptor

X_VARS = VariableSet(("x",))

FAMILIES = ("hermite", "laguerre", "jacobi", "legendre", "uniform01")


@dataclass(frozen=True)
class WeightSpec:
    """One of the shipped weights; parameters are non-negative integers."""

    family: str
    alpha: int = 0
    beta: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weight parameters must be non-negative integers")
        if self.family in ("hermite", "legendre", "uniform01") and (self.alpha or self.beta):
            raise ValueError(f"{self.family} takes no parameters")
        if self.family == "laguerre" and self.beta:
            raise ValueError("laguerre takes a single parameter alpha")

    def label(self) -> str:
        if self.family == "laguerre":
            return f"laguerre({self.alpha})"
        if self.family == "jacobi":
            return f"jacobi({self.alpha},{self.beta})"
        return self.family


@dataclass(frozen=True)
class MomentFunctional:
    """Normalized exact moments mu_n / mu_0 of a weight."""

    spec: WeightSpec
    values: tuple

    def moment(self, n: int) -> Fraction:
        if n >= len(self.values):
            raise ValueError(f"moment {n} not available (have {len(self.values)})")
        return self.values[n]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def moments(spec: WeightSpec, n_max: int) -> MomentFunctional:
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    fam = spec.family
    if fam == "hermite":
        vals = [Fraction(factorial(n), 4 ** (n // 2) * factorial(n // 2))
                if n % 2 == 0 else Fraction(0) for n in range(n_max + 1)]
    elif fam == "laguerre":
        vals = [Fraction(factorial(n + spec.alpha), factorial(spec.alpha))
                for n in range(n_max + 1)]
    elif fam == "uniform01":
        vals = [Fraction(1, n + 1) for n in range(n_max + 1)]
    else:
        alpha = spec.alpha if fam == "jacobi" else 0
        beta = spec.beta if fam == "jacobi" else 0
        mu0 = _jacobi_raw_moment(0, alpha, beta)
        vals = [_jacobi_raw_moment(n, alpha, beta) / mu0 for n in range(n_max + 1)]
    return MomentFunctional(spec, tuple(vals))


def _jacobi_raw_moment(n: int, alpha: int, beta: int) -> Fraction:
    """Integral of x^n (1-x)^alpha (1+x)^beta over (-1, 1), exactly."""
    total = Fraction(0)
    for j in range(alpha + 1):
        for k in range(beta + 1):
            e = n + j + k
            if e % 2 == 0:
                total += Fraction((-1) ** j * comb(alpha, j) * comb(beta, k) * 2, e + 1)
    return total


def inner_product(f: Polynomial, g: Polynomial, m: MomentFunctional):
    """Bilinear moment expansion; the second argument is conjugated over Q(i)."""
    f._compat(g)
    if len(f.variables) != 1:
        raise ValueError("inner product is defined on univariate polynomials only")
    ring = f.ring
    total = ring.zero()
    for (j,), cf in f.terms.items():
        for (k,), cg in g.terms.items():
            total = total + cf * ring.conjugate(cg) * ring.from_fraction(m.moment(j + k))
    return total


@dataclass
class OrthFamily:
    """Univariate polynomials indexed by degree."""

    variables: VariableSet
    polys: dict
    specs: tuple  # the WeightSpec of the variable


def gram_schmidt(m: MomentFunctional, d_max: int,
                 ring: RingDescriptor = QQ) -> OrthFamily:
    """Monic orthogonal polynomials of each degree <= d_max, exactly."""
    if m.n_max < 2 * d_max:
        raise ValueError("not enough moments for the requested degree")
    polys = {}
    norms = {}
    for d in range(d_max + 1):
        p = Polynomial.var(ring, X_VARS, "x", d) if d else Polynomial.one(ring, X_VARS)
        for j in range(d):
            num = inner_product(p, polys[j], m)
            if not norms[j]:
                raise ValueError("singular Hankel system in Gram-Schmidt")
            p = p - polys[j].scale(num / norms[j])
        polys[d] = p
        norms[d] = inner_product(p, p, m)
    return OrthFamily(X_VARS, polys, (m.spec,))


# -- twisted rationals -------------------------------------------------

_FACTOR_POLYS = {
    "x": Polynomial.var(QQ, X_VARS, "x"),
    "1-x": Polynomial.one(QQ, X_VARS) - Polynomial.var(QQ, X_VARS, "x"),
    "1+x": Polynomial.one(QQ, X_VARS) + Polynomial.var(QQ, X_VARS, "x"),
}
_FACTOR_DERIVS = {"x": 1, "1-x": -1, "1+x": 1}


@dataclass(frozen=True)
class TwistedRational:
    """numerator / product of singular weight factors, reduced eagerly.

    Division is exact or not at all: a non-divisible cancellation simply
    stays in the denominator, and `as_polynomial` fails loudly.
    """

    numerator: Polynomial
    denominator: dict = field(default_factory=dict)

    def __post_init__(self):
        den = {k: v for k, v in self.denominator.items() if v}
        for k, v in den.items():
            if k not in _FACTOR_POLYS:
                raise ValueError(f"unknown singular factor {k!r}")
            if v < 0:
                raise ValueError("denominator powers must be non-negative")
        num = self.numerator
        for name in list(den):
            factor = _FACTOR_POLYS[name]
            while den[name] and not num.is_zero():
                try:
                    num = num.exact_divide(factor)
                except ValueError:
                    break
                den[name] -= 1
            if not den[name]:
                del den[name]
        if num.is_zero():
            den = {}
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @staticmethod
    def from_polynomial(p: Polynomial) -> "TwistedRational":
        return TwistedRational(p, {})

    def is_polynomial(self) -> bool:
        return not self.denominator

    def as_polynomial(self) -> Polynomial:
        if self.denominator:
            raise ValueError(f"non-polynomial residue: denominator {self.denominator}")
        return self.numerator

    def __add__(self, other: "TwistedRational") -> "TwistedRational":
        den = {k: max(self.denominator.get(k, 0), other.denominator.get(k, 0))
               for k in set(self.denominator) | set(other.denominator)}
        a = self.numerator
        for k, v in den.items():
            a = a * _FACTOR_POLYS[k] ** (v - self.denominator.get(k, 0))
        b = other.numerator
        for k, v in den.items():
            b = b * _FACTOR_POLYS[k] ** (v - other.denominator.get(k, 0))
        return TwistedRational(a + b, den)

    def __neg__(self):
        return TwistedRational(-self.numerator, dict(self.denominator))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "TwistedRational") -> "TwistedRational":
        den = {k: self.denominator.get(k, 0) + other.denominator.get(k, 0)
               for k in set(self.denominator) | set(other.denominator)}
        return TwistedRational(self.numerator * other.numerator, den)

    def derivative(self) -> "TwistedRational":
        """Quotient rule over the factored denominator, then eager reduction."""
        n = self.numerator
        num = n.partial("x")
        for k in self.denominator:
            num = num * _FACTOR_POLYS[k]
        for k, v in self.denominator.items():
            piece = n.scale(-v * _FACTOR_DERIVS[k])
            for j, w in self.denominator.items():
                if j != k:
                    piece = piece * _FACTOR_POLYS[j]
            num = num + piece
        den = {k: v + 1 for k, v in self.denominator.items()}
        return TwistedRational(num, den)

    def __eq__(self, other):
        if not isinstance(other, TwistedRational):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)


def log_derivative(spec: WeightSpec) -> TwistedRational:
    """w'/w as a twisted rational."""
    fam = spec.family
    one = Polynomial.one(QQ, X_VARS)
    x = _FACTOR_POLYS["x"]
    if fam == "hermite":
        return TwistedRational(x.scale(-2))
    if fam == "laguerre":
        return TwistedRational(one.scale(spec.alpha) - x, {"x": 1})
    if fam in ("jacobi", "legendre"):
        alpha = spec.alpha if fam == "jacobi" else 0
        beta = spec.beta if fam == "jacobi" else 0
        num = (_FACTOR_POLYS["1+x"].scale(-alpha)
               + _FACTOR_POLYS["1-x"].scale(beta))
        return TwistedRational(num, {"1-x": 1, "1+x": 1})
    raise ValueError(f"no first-order operator for {fam}")


def generator(spec: WeightSpec) -> Polynomial:
    """The Rodrigues generator polynomial g."""
    fam = spec.family
    if fam == "hermite":
        return Polynomial.one(QQ, X_VARS)
    if fam == "laguerre":
        return _FACTOR_POLYS["x"]
    if fam in ("jacobi", "legendre"):
        return _FACTOR_POLYS["1-x"] * _FACTOR_POLYS["1+x"]
    raise ValueError(f"no Rodrigues generator for {fam}")


def rodrigues_constant(spec: WeightSpec, a: int) -> Fraction:
    fam = spec.family
    if fam == "hermite":
        return Fraction((-1) ** a)
    if fam == "laguerre":
        return Fraction(1, factorial(a))
    if fam in ("jacobi", "legendre"):
        return Fraction((-1) ** a, 2 ** a * factorial(a))
    raise ValueError(f"no Rodrigues constant for {fam}")


def lambda_power(spec: WeightSpec, a: int, m: int) -> TwistedRational:
    """m applications of (d/dx + w'/w) to g^a; polynomial whenever m <= a."""
    if m < 0 or a < 0:
        raise ValueError("a and m must be non-negative")
    ell = log_derivative(spec)
    t = TwistedRational.from_polynomial(generator(spec) ** a)
    for _ in range(m):
        t = t.derivative() + ell * t
    return t


def rodrigues(spec: WeightSpec, a: int) -> Polynomial:
    """c_a * w^(-1) d^a (w g^a), via the weight-factored recursion.

    The weight never appears explicitly: for each family the a-th derivative
    of w g^a equals w times a polynomial recursion, so the result is exact
    and provably polynomial.
    """
    if a < 0:
        raise ValueError("degree must be non-negative")
    fam = spec.family
    one = Polynomial.one(QQ, X_VARS)
    x = _FACTOR_POLYS["x"]
    if fam == "hermite":
        r = one
        for _ in range(a):
            r = r.partial("x") - x.scale(2) * r
    elif fam == "laguerre":
        r = one
        s = spec.alpha + a
        for _ in range(a):
            r = r.scale(s) + x * (r.partial("x") - r)
            s -= 1
    elif fam in ("jacobi", "legendre"):
        alpha = spec.alpha if fam == "jacobi" else 0
        beta = spec.beta if fam == "jacobi" else 0
        r = one
        s, t = alpha + a, beta + a
        for _ in range(a):
            r = (_FACTOR_POLYS["1+x"].scale(-s) * r
                 + _FACTOR_POLYS["1-x"].scale(t) * r
                 + _FACTOR_POLYS["1-x"] * _FACTOR_POLYS["1+x"] * r.partial("x"))
            s -= 1
            t -= 1
    else:
        raise ValueError(f"no Rodrigues formula for {fam}")
    result = r.scale(rodrigues_constant(spec, a))
    if result.total_degree() != a:
        raise VerificationError(f"Rodrigues polynomial of degree {a} has the wrong degree")
    return result


def hankel_matrix(m: MomentFunctional, d: int):
    return [[m.moment(i + j) for j in range(d + 1)] for i in range(d + 1)]


def hankel_determinant(m: MomentFunctional, d: int) -> Fraction:
    return linalg.determinant(hankel_matrix(m, d), Fraction(0), Fraction(1))


def hankel_nonsingularity(m: MomentFunctional, d: int) -> bool:
    return hankel_determinant(m, d) != 0
