"""Shared random generators for the exact-arithmetic test suite, and a
hand-built moment table.

Bulk identity checks use a seeded `random.Random`, so failures reproduce;
algebraic laws additionally run under hypothesis in the per-module tests.
"""

import random
from fractions import Fraction

import pytest

from mathieulab.poly import Polynomial
from mathieulab.rings import GaussianRational


class MomentTable:
    """A hand-built moment functional: `spec` names its weight and `moment(n)`
    reads a fixed table, so a read past the table's end raises IndexError."""

    def __init__(self, spec, values):
        self.spec, self.values = spec, tuple(map(Fraction, values))

    def moment(self, n):
        return self.values[n]


def random_coeff(rng, ring):
    if ring.kind == "Q":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if ring.kind == "Qi":
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return ring.from_int(rng.randrange(ring.characteristic))


def random_polynomial(rng, ring, variables, max_degree=3, max_terms=4,
                      min_exponent=0):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        for name in variables.names:
            low = min_exponent if variables.is_laurent(name) else 0
            exps.append(rng.randint(low, max_degree))
        terms[tuple(exps)] = random_coeff(rng, ring)
    return Polynomial(ring, variables, terms)


def random_components(rng, problem, max_index=3, max_components=3):
    """Nonzero w-free components f_a of f = sum t^a f_a, at random indices a."""
    n = problem.n
    components = {}
    for _ in range(rng.randint(1, max_components)):
        a = tuple(rng.randint(0, max_index) for _ in range(n))
        f = random_polynomial(rng, problem.ring, problem.variables)
        comp = Polynomial(problem.ring, problem.variables,
                          {(0,) * n + exps[n:]: c for exps, c in f.terms.items()})
        if not comp.is_zero():
            components[a] = comp
    return components


@pytest.fixture
def rng():
    return random.Random(20260824)
