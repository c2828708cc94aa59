"""Constant-coefficient differential operators.

A `WeylElement` is the operator sum c d^b acting on polynomials in its
z-variables, stored as its d-symbol: the `Polynomial` sum c d^b, whose i-th
variable stands for d/dz_i.  The library only builds and passes operators
around: `gvc_scan` reads the symbol and powers it in closed form.  The
general Weyl element sum c z^a d^b and its normal-ordering arithmetic
(composition, action, the symbol maps) live with the tests, as an oracle
for those closed forms.
"""

from __future__ import annotations

from .poly import Polynomial
from .rings import Immutable


class WeylElement(Immutable):
    """The operator with d-symbol `symbol`, acting on polynomials in `z_names`."""

    __slots__ = __match_args__ = ("symbol", "z_names")

    def __init__(self, symbol: Polynomial, z_names):
        if len(symbol.variables) != len(z_names):
            raise ValueError("d-symbol count must match the z-variable count")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "z_names", tuple(z_names))

    @staticmethod
    def constant_coefficient(p: Polynomial, z_names) -> "WeylElement":
        """Operator from a polynomial in d-symbols, read positionally.

        The i-th variable of `p` becomes d/dz_i; e.g. d1^2+d2^2 is the Laplacian.
        """
        return WeylElement(p, z_names)
