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
from fractions import Fraction

# bound once: the ring elements' constructors run on the scans' hot path
_set = object.__setattr__
_SMALL_PRIME_LIMIT = 10**6
# deterministic Miller-Rabin witnesses: the first 13 primes decide every n below
# the smallest strong pseudoprime to all of them
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division for small n, Miller-Rabin beyond.

    Raises ValueError for n >= _MR_BOUND, where passing every witness proves nothing.
    """
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
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


class Immutable:
    """Base of the immutable value types.

    A subclass lists its fields in `__match_args__` and in `__slots__`, and
    sets each once in `__init__` through `object.__setattr__`.  Equality and
    hashing compare the fields in that order, and only values of the same
    class compare equal; the repr is `Name(field=value, ...)`, and a copy or
    an unpickled value is rebuilt by `Name(*fields)`.
    """

    __slots__ = ()
    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__name__}({fields})"


class GaussianRational(Immutable):
    """Element of Q(i), stored as reduced real and imaginary rationals.

    Arithmetic and equality take another `GaussianRational` only; a bare
    number is never coerced, so `x + 1` raises and `x == 1` is False.
    """

    __slots__ = __match_args__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        _set(self, "re", re)
        _set(self, "im", im)

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

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    __hash__ = Immutable.__hash__

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        """The Q(i) literal: "a/b", "c/d*i", "a/b+c/d*i" or "a/b-c/d*i".

        Zero, sign and a unit magnitude are read off the integer numerator
        and denominator of each part."""
        n, d = self.im.numerator, self.im.denominator
        if not n:
            return str(self.re)
        im = f"{abs(n)}/{d}*i" if d != 1 else "i" if n in (1, -1) else f"{abs(n)}*i"
        if not self.re.numerator:
            return im if n > 0 else f"-{im}"
        return f"{self.re}{'+' if n > 0 else '-'}{im}"


class PrimeFieldElement(Immutable):
    """Residue in F_p.

    Arithmetic and equality take another `PrimeFieldElement` only; a bare
    number is never coerced, so `x + 1` raises and `x == 1` is False.
    Mixing moduli is an error, never a coercion.
    """

    __slots__ = __match_args__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        _set(self, "residue", residue)
        _set(self, "p", p)

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

    __hash__ = Immutable.__hash__

    def __repr__(self) -> str:
        return f"PrimeFieldElement({self.residue}, {self.p})"

    def __str__(self) -> str:
        """The F_p literal: the residue in 0..p-1."""
        return str(self.residue)


class RingDescriptor(Immutable):
    """Selects one of the three shipped coefficient fields.

    kind is "Q", "Qi" or "Fp"; characteristic is 0 or the prime.
    """

    __slots__ = __match_args__ = ("kind", "characteristic")

    def __init__(self, kind: str, characteristic: int = 0):
        if kind not in ("Q", "Qi", "Fp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if not is_prime(characteristic):
                raise ValueError(f"modulus {characteristic} is not prime")
        elif characteristic != 0:
            raise ValueError(f"{kind} has characteristic 0")
        _set(self, "kind", kind)
        _set(self, "characteristic", characteristic)

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
