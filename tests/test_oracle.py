"""Gamma, R and Ricci of tests/reference.py, computed in sympy's rationals.

The reference reads only the raw numbers of a structure (structure
constants, g and J) and follows the definitions entry by entry.  Here it
runs on ``sympy.Rational`` inputs, so neither the package's integer kernels
nor Python's ``fractions`` enter the values it is compared with; the
package's exact results must agree entry for entry.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

import reference
from corpora import direct_sum, lists, raw

from antikahler.classify4 import transform_structure
from antikahler.geometry import curvature, levi_civita, ricci
from antikahler.scalars import Matrix
from antikahler.verifier import GeneratorConfig, random_structure


def in_sympy(t):
    return [in_sympy(x) for x in t] if isinstance(t, list) else sympy.Rational(str(t))


def direct_sum_with_basis_change(first, second, seed):
    """first (+) second, rewritten in a seeded dense rational basis."""
    rng = random.Random(seed)
    n = first.dim + second.dim
    while True:
        p = Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)])
        if p.det():
            return transform_structure(direct_sum(first, second), p)


CASES = {f"dim{dim}-{index}": random_structure(GeneratorConfig(dim=dim), index)
         for dim, indices in ((4, range(6)), (6, (0, 1, 3, 4))) for index in indices}
CASES.update({f"dim8-{seed}": direct_sum_with_basis_change(
    random_structure(GeneratorConfig(dim=4), a), random_structure(GeneratorConfig(dim=4), b), seed)
    for seed, (a, b) in enumerate(((1, 2), (3, 5)))})


@pytest.mark.parametrize("s", CASES.values(), ids=CASES)
def test_connection_curvature_and_ricci_match_sympy(s):
    c, g, _ = (in_sympy(x) for x in raw(s))
    gamma = reference.christoffel(c, g)
    r = reference.curvature(c, gamma)
    assert in_sympy(lists(levi_civita(s).tensor)) == gamma
    assert in_sympy(lists(curvature(s).tensor)) == r
    assert [in_sympy(lists(x)) for x in ricci(s)] == list(reference.ricci(r, g))


def test_dim8_structures_are_dense():
    s = CASES["dim8-0"]
    assert s.dim == 8
    assert len(s.algebra.nonzero_brackets()) > 8
    assert sum(1 for row in s.g.rows for x in row if x) > 16
