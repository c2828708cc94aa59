"""Exact-arithmetic toolkit for kernel-map decompositions, classical
orthogonal polynomials, positive-characteristic membership certificates,
and bounded Mathieu-subspace experiments."""

from .imagemap import (
    ImageProblem,
    L_map,
    certify_imD,
    decompose,
    power_scan,
    recompose,
)
from .poly import Grading, Polynomial, VariableSet, VerificationError
from .rings import GF, QI, QQ, RingDescriptor

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Grading",
    "ImageProblem",
    "L_map",
    "Polynomial",
    "QI",
    "QQ",
    "RingDescriptor",
    "VariableSet",
    "VerificationError",
    "certify_imD",
    "decompose",
    "power_scan",
    "recompose",
    "__version__",
]
