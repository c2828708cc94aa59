"""Exact coefficient arithmetic: rationals, Gaussian rationals, prime fields.

All values are immutable; arithmetic never leaves the exact world.
Rationals are plain `fractions.Fraction` (always reduced, positive
denominator), so ``Rational`` is just an alias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_SMALL_PRIME_LIMIT = 10**6
# deterministic Miller-Rabin witness set, valid for n < 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division for small n, Miller-Rabin beyond."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n <= _SMALL_PRIME_LIMIT:
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), stored as reduced real and imaginary rationals."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x), Fraction(0))
    return NotImplemented


@dataclass(frozen=True)
class PrimeFieldElement:
    """Residue in F_p.  Mixing moduli is an error, never a coercion."""

    residue: int
    p: int

    def _check(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError(f"mixed prime-field moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other % self.p, self.p)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement((self.residue + other.residue) % self.p, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement((self.residue - other.residue) % self.p, self.p)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return PrimeFieldElement(-self.residue % self.p, self.p)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.residue * other.residue % self.p, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if other.residue == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return self * PrimeFieldElement(pow(other.residue, -1, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other / self

    def __bool__(self) -> bool:
        return self.residue != 0

    def __eq__(self, other) -> bool:
        checked = self._check(other) if isinstance(other, (PrimeFieldElement, int)) else None
        if checked is None:
            return NotImplemented
        return self.residue == checked.residue

    def __hash__(self):
        return hash((self.residue, self.p))

    def __repr__(self) -> str:
        return f"PrimeFieldElement({self.residue}, {self.p})"


@dataclass(frozen=True)
class RingDescriptor:
    """Selects one of the three shipped coefficient fields.

    kind is "Q", "Qi" or "Fp"; characteristic is 0 or the prime.
    """

    kind: str
    characteristic: int = 0

    def __post_init__(self):
        if self.kind not in ("Q", "Qi", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if not is_prime(self.characteristic):
                raise ValueError(f"modulus {self.characteristic} is not prime")
        elif self.characteristic != 0:
            raise ValueError(f"{self.kind} has characteristic 0")

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        if self.kind == "Q":
            return Fraction(k)
        if self.kind == "Qi":
            return GaussianRational(Fraction(k), Fraction(0))
        return PrimeFieldElement(k % self.characteristic, self.characteristic)

    def from_fraction(self, q: Fraction):
        if self.kind == "Q":
            return q
        if self.kind == "Qi":
            return GaussianRational(q, Fraction(0))
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def imaginary_unit(self):
        if self.kind != "Qi":
            raise ValueError(f"ring {self.kind} has no imaginary unit")
        return GaussianRational(Fraction(0), Fraction(1))

    def conjugate(self, c):
        return c.conjugate() if self.kind == "Qi" else c

    def format(self, c) -> str:
        """Ring literal in the CLI grammar: "a/b", "a/b+c/d*i", or a residue."""
        if self.kind == "Q":
            return str(c)
        if self.kind == "Fp":
            return str(c.residue)
        if not c.im:
            return str(c.re)
        sign = "+" if c.im > 0 else "-"
        mag = abs(c.im)
        im = "i" if mag == 1 else f"{mag}*i"
        if not c.re:
            return im if c.im > 0 else f"-{im}"
        return f"{c.re}{sign}{im}"


QQ = RingDescriptor("Q")
QI = RingDescriptor("Qi")


def GF(p: int) -> RingDescriptor:
    return RingDescriptor("Fp", p)


def valuation_p(x, p: int):
    """p-adic valuation of a rational; math.inf for zero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v
