"""Classical weights: exact moments, Gram-Schmidt, Rodrigues, and the
first-order operator route.

Everything stays rational: moments are normalized by the zeroth moment, so
even the Gaussian weight only ever contributes rational numbers.  The two
generator routes are computed independently; the recursion here keeps the
weight factored out symbolically, while `lambda_power` applies the operator
d/dx + w'/w literally over the common denominator D^j, with D the weight's
singular product, and ends with one exact division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import linalg
from .poly import Polynomial, VariableSet, VerificationError
from .rings import QQ

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
        mu0 = _jacobi_raw_moment(0, spec.alpha, spec.beta)
        vals = [_jacobi_raw_moment(n, spec.alpha, spec.beta) / mu0
                for n in range(n_max + 1)]
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


def gram_schmidt(m: MomentFunctional, d_max: int) -> dict:
    """{degree: monic orthogonal polynomial} for each degree <= d_max, exactly."""
    if m.n_max < 2 * d_max:
        raise ValueError("not enough moments for the requested degree")
    polys = {}
    norms = {}
    for d in range(d_max + 1):
        p = Polynomial.var(QQ, X_VARS, "x", d) if d else Polynomial.one(QQ, X_VARS)
        for j in range(d):
            num = inner_product(p, polys[j], m)
            if not norms[j]:
                raise ValueError("singular Hankel system in Gram-Schmidt")
            p = p - polys[j].scale(num / norms[j])
        polys[d] = p
        norms[d] = inner_product(p, p, m)
    return polys


_FACTOR_POLYS = {
    "x": Polynomial.var(QQ, X_VARS, "x"),
    "1-x": Polynomial.one(QQ, X_VARS) - Polynomial.var(QQ, X_VARS, "x"),
    "1+x": Polynomial.one(QQ, X_VARS) + Polynomial.var(QQ, X_VARS, "x"),
}


def log_derivative(spec: WeightSpec) -> tuple:
    """w'/w as the pair (T, D) with w'/w = T / D, D the weight's singular product."""
    fam = spec.family
    one = Polynomial.one(QQ, X_VARS)
    x = _FACTOR_POLYS["x"]
    if fam == "hermite":
        return x.scale(-2), one
    if fam == "laguerre":
        return one.scale(spec.alpha) - x, x
    if fam in ("jacobi", "legendre"):
        num = (_FACTOR_POLYS["1+x"].scale(-spec.alpha)
               + _FACTOR_POLYS["1-x"].scale(spec.beta))
        return num, _FACTOR_POLYS["1-x"] * _FACTOR_POLYS["1+x"]
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


def lambda_power(spec: WeightSpec, a: int, m: int) -> Polynomial:
    """m applications of (d/dx + w'/w) to g^a; polynomial whenever m <= a.

    With w'/w = T / D, the j-th application is N_j / D^j, where N_0 = g^a and
    N_{j+1} = D N_j' + (T - j D') N_j.  One exact division by D^m ends the
    route; it raises ValueError when the result is not a polynomial.
    """
    if m < 0 or a < 0:
        raise ValueError("a and m must be non-negative")
    t, den = log_derivative(spec)
    den_prime = den.partial("x")
    num = generator(spec) ** a
    for j in range(m):
        num = den * num.partial("x") + (t - den_prime.scale(j)) * num
    return num.exact_divide(den ** m)


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
        r = one
        s, t = spec.alpha + a, spec.beta + a
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
