"""Exact coefficient arithmetic: rationals, Gaussian rationals, prime fields.

All values are immutable; arithmetic never leaves the exact world.
Rationals are plain `fractions.Fraction` (always reduced, positive
denominator).  `GaussianRational` and `PrimeFieldElement` do field
arithmetic (+ - * /) and equality on two elements of the same ring only:
there is no coercion from `int` or `Fraction` and no reflected operator.
Values enter a ring through `RingDescriptor.from_int`/`from_fraction`,
and every element's `str` is its literal in the CLI grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Element of Q(i), stored as reduced real and imaginary rationals.

    Arithmetic and equality take another `GaussianRational` only; a bare
    number is never coerced, so `x + 1` raises and `x == 1` is False.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        """The Q(i) literal: "a/b", "c/d*i", "a/b+c/d*i" or "a/b-c/d*i"."""
        if not self.im:
            return str(self.re)
        mag = abs(self.im)
        im = "i" if mag == 1 else f"{mag}*i"
        if not self.re:
            return im if self.im > 0 else f"-{im}"
        return f"{self.re}{'+' if self.im > 0 else '-'}{im}"


@dataclass(frozen=True)
class PrimeFieldElement:
    """Residue in F_p.

    Arithmetic and equality take another `PrimeFieldElement` only; a bare
    number is never coerced, so `x + 1` raises and `x == 1` is False.
    Mixing moduli is an error, never a coercion.
    """

    residue: int
    p: int

    def _check(self, other) -> int:
        """The other operand's residue, after checking that the moduli agree."""
        if other.p != self.p:
            raise ValueError(f"mixed prime-field moduli {self.p} and {other.p}")
        return other.residue

    def __add__(self, other):
        return PrimeFieldElement((self.residue + self._check(other)) % self.p, self.p)

    def __sub__(self, other):
        return PrimeFieldElement((self.residue - self._check(other)) % self.p, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.residue % self.p, self.p)

    def __mul__(self, other):
        return PrimeFieldElement(self.residue * self._check(other) % self.p, self.p)

    def __truediv__(self, other):
        residue = self._check(other)
        if residue == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.residue * pow(residue, -1, self.p) % self.p, self.p)

    def __bool__(self) -> bool:
        return self.residue != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return self.residue == self._check(other)

    def __repr__(self) -> str:
        return f"PrimeFieldElement({self.residue}, {self.p})"

    def __str__(self) -> str:
        """The F_p literal: the residue in 0..p-1."""
        return str(self.residue)


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
