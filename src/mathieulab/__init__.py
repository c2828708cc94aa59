"""Exact-arithmetic toolkit for kernel-map decompositions, classical
orthogonal polynomials, positive-characteristic membership certificates,
and bounded Mathieu-subspace experiments.

The names below are looked up in their module on first access (PEP 562), so
importing the package alone loads none of its modules.
"""

import importlib

__version__ = "0.1.0"

# each exported name -> the module that defines it
_HOMES = {
    "ImageProblem": "imagemap", "L_map": "imagemap", "certify_imD": "imagemap",
    "decompose": "imagemap", "power_scan": "imagemap", "recompose": "imagemap",
    "Polynomial": "poly", "VariableSet": "poly", "VerificationError": "poly",
    "GF": "rings", "QI": "rings", "QQ": "rings", "RingDescriptor": "rings",
}

__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
