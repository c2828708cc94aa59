"""Classical weights: exact moments and three routes to their orthogonal
polynomials.

Everything stays rational: moments are normalized by the zeroth moment, so
even the Gaussian weight only ever contributes rational numbers.  Each weight
is one pair (T, D) with w'/w = T / D (`_operator`).  `MomentFunctional` reads
the moments off it by Pearson's recurrence and `gram_schmidt` turns them into
the monic polynomials by the three-term recurrence (the Chebyshev algorithm);
`lambda_power` applies d/dx + w'/w a times to g^a = D^a on integer
coefficient lists.  The moment and operator routes share the pair, so the third,
`rodrigues` (Rodrigues' formula as its Leibniz sum), is the independent one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .poly import Polynomial, VariableSet, VerificationError
from .rings import QQ, Immutable

X_VARS = VariableSet(("x",))

FAMILIES = ("hermite", "laguerre", "jacobi", "legendre", "uniform01")


class WeightSpec(Immutable):
    """One of the shipped weights; parameters are non-negative integers."""

    __slots__ = __match_args__ = ("family", "alpha", "beta")

    def __init__(self, family: str, alpha: int = 0, beta: int = 0):
        if family not in FAMILIES:
            raise ValueError(f"unknown weight family {family!r}")
        if alpha < 0 or beta < 0:
            raise ValueError("weight parameters must be non-negative integers")
        if family in ("hermite", "legendre", "uniform01") and (alpha or beta):
            raise ValueError(f"{family} takes no parameters")
        if family == "laguerre" and beta:
            raise ValueError("laguerre takes a single parameter alpha")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def label(self) -> str:
        if self.family == "laguerre":
            return f"laguerre({self.alpha})"
        if self.family == "jacobi":
            return f"jacobi({self.alpha},{self.beta})"
        return self.family


class MomentFunctional(Immutable):
    """Normalized exact moments mu_n / mu_0 of a weight, each made when first read.

    With w'/w = T / D, T = t0 + t1 x and D = d0 + d1 x + d2 x^2: D w vanishes at
    both ends of each shipped weight's interval and D w' = T w, so the integral
    of (x^n D w)' = w (n x^(n-1) D + x^n (D' + T)) is 0, Pearson's equation
    (Szegő, *Orthogonal Polynomials*, ch. 4)
        n d0 mu_(n-1) + ((n+1) d1 + t0) mu_n + ((n+2) d2 + t1) mu_(n+1) = 0,
    whose last coefficient is never 0 here.  A read never changes an earlier one.
    """

    __match_args__ = ("spec",)
    __slots__ = __match_args__ + ("_values",)  # a cache of the spec's moments, so not a field

    def __init__(self, spec: WeightSpec):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_values", [Fraction(1)])

    def moment(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"moment index must be non-negative, got {n}")
        values = self._values
        if n >= len(values):
            (t0, t1), (d0, d1, d2) = _operator(self.spec)
            for k in range(len(values) - 1, n):  # at k = 0, mu_(k-1) has coefficient 0
                values.append(-(k * d0 * values[k - 1] + ((k + 1) * d1 + t0) * values[k])
                              / ((k + 2) * d2 + t1))
        return values[n]


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
    """{degree: monic orthogonal polynomial} for each degree <= d_max, exactly.

    The Chebyshev algorithm (Gautschi, "On generating orthogonal polynomials",
    1982) reads p_(k+1) = (x - a_k) p_k - b_k p_(k-1) off the rows
    sigma_k[l] = <p_k, x^l>, which start at sigma_0 = the moments:
        a_k = sigma_k[k+1] / sigma_k[k] - sigma_(k-1)[k] / sigma_(k-1)[k-1],
        b_k = sigma_k[k] / sigma_(k-1)[k-1]  (a_0 = sigma_0[1] / sigma_0[0], b_0 = 0),
        sigma_(k+1)[l] = sigma_k[l+1] - a_k sigma_k[l] - b_k sigma_(k-1)[l].
    Monic orthogonal polynomials are unique, so these are the Gram-Schmidt
    ones.  A zero norm sigma_k[k], k < d_max, is a singular Hankel minor.
    """
    x = Polynomial.var(QQ, X_VARS, "x")
    polys = [Polynomial.one(QQ, X_VARS)]
    row = prev = [m.moment(n) for n in range(2 * d_max + 1)]  # sigma_k and sigma_(k-1)
    for k in range(d_max):
        if not row[k]:
            raise ValueError(f"singular Hankel system at degree {k}")
        a = row[k + 1] / row[k] - (prev[k] / prev[k - 1] if k else 0)
        # b_0 = 0, so at k = 0 prev and polys[-1] stand in for sigma_(-1) and p_(-1)
        b = row[k] / prev[k - 1] if k else 0
        polys.append(x * polys[k] - polys[k].scale(a) - polys[k - 1].scale(b))
        row, prev = [row[l + 1] - a * row[l] - b * prev[l] for l in range(len(row) - 1)], row
    return dict(enumerate(polys))


def _operator(spec: WeightSpec) -> tuple:
    """w'/w = T / D as ascending integer coefficients: T to x^1, D to x^2."""
    fam = spec.family
    if fam == "hermite":
        return [0, -2], [1, 0, 0]
    if fam == "laguerre":
        return [spec.alpha, -1], [0, 1, 0]
    if fam in ("jacobi", "legendre"):
        return [spec.beta - spec.alpha, -spec.alpha - spec.beta], [1, 0, -1]
    return [0, 0], [0, 1, -1]  # uniform01: w'/w = 0 over D = x - x^2


def _x_poly(coeffs) -> Polynomial:
    return Polynomial(QQ, X_VARS, {(i,): Fraction(c) for i, c in enumerate(coeffs)})


def rodrigues_constant(spec: WeightSpec, a: int) -> Fraction:
    fam = spec.family
    if fam == "hermite":
        return Fraction((-1) ** a)
    if fam == "laguerre":
        return Fraction(1, factorial(a))
    if fam in ("jacobi", "legendre"):
        return Fraction((-1) ** a, 2 ** a * factorial(a))
    raise ValueError(f"no Rodrigues constant for {fam}")


def lambda_power(spec: WeightSpec, a: int) -> Polynomial:
    """a applications of (d/dx + w'/w) to g^a, a polynomial: w^(-1) d^a (w g^a).

    With w'/w = T / D the generator is g = D (hermite 1, laguerre x, jacobi
    and legendre (1-x)(1+x)), and for u = D^k P
    (d/dx + T/D) u = D^(k-1) (D P' + (T + k D') P).  So the a-th application
    is P_a, with P_0 = 1 and P_(j+1) = D P_j' + (T + (a-j) D') P_j.
    T, D and D' have integer coefficients, so P_j (degree <= j) is a dense
    integer list.
    """
    if a < 0:
        raise ValueError(f"lambda_power takes a >= 0, got a = {a}")
    (t0, t1), (d0, d1, d2) = _operator(spec)
    p = [1]
    for j in range(a):
        s0, s1 = t0 + (a - j) * d1, t1 + 2 * (a - j) * d2  # T + (a-j) D'
        # x^i of D P' + (s0 + s1 x) P reads p_(i-1), p_i and p_(i+1)
        p = [(i + 1) * d0 * high + (i * d1 + s0) * mid + ((i - 1) * d2 + s1) * low
             for i, (low, mid, high) in enumerate(zip([0] + p, p + [0], p[1:] + [0, 0]))]
    return _x_poly(p)


def rodrigues(spec: WeightSpec, a: int) -> Polynomial:
    """c_a * w^(-1) d^a (w g^a), with Leibniz's rule summed in closed form.

    With y^(s) = y (y-1) ... (y-s+1) the falling factorial, w^(-1) d^a (w g^a)
    is (Szegő, *Orthogonal Polynomials*, (5.5.4), (5.1.6), (4.3.2))
      hermite   (-1)^a a! sum_k (-1)^k (2x)^(a-2k) / (k! (a-2k)!),
      laguerre  sum_s C(a,s) (-1)^(a-s) (a+alpha)^(s) x^(a-s),
      jacobi    sum_s (-1)^s C(a,s) (a+alpha)^(s) (a+beta)^(a-s) (1-x)^(a-s) (1+x)^s.
    """
    if a < 0:
        raise ValueError("degree must be non-negative")
    scale = rodrigues_constant(spec, a)  # raises for a weight without a formula
    if spec.family == "hermite":
        terms = {a - 2 * k: (-1) ** (a + k) * 2 ** (a - 2 * k) * factorial(a)
                 // (factorial(k) * factorial(a - 2 * k)) for k in range(a // 2 + 1)}
    elif spec.family == "laguerre":
        terms = {j: (-1) ** j * comb(a, j) * perm(a + spec.alpha, a - j) for j in range(a + 1)}
    else:
        coeffs = [0] * (a + 1)  # h <- (1+x) h + (s-th term)/(1+x)^s for s = a, ..., 0
        for s in range(a, -1, -1):
            c = (-1) ** s * comb(a, s) * perm(a + spec.alpha, s) * perm(a + spec.beta, a - s)
            coeffs = [h + h_low + (-1) ** j * comb(a - s, j) * c
                      for j, (h, h_low) in enumerate(zip(coeffs, [0] + coeffs))]
        terms = dict(enumerate(coeffs))
    result = Polynomial(QQ, X_VARS, {(j,): c * scale for j, c in terms.items()})
    if result.total_degree() != a:
        raise VerificationError(f"Rodrigues polynomial of degree {a} has the wrong degree")
    return result


def hankel_determinant(m: MomentFunctional, d: int) -> Fraction:
    from . import linalg
    hankel = [[m.moment(i + j) for j in range(d + 1)] for i in range(d + 1)]
    return linalg.determinant(hankel, Fraction(0), Fraction(1))
