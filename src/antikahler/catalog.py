"""Built-in validated structures used across tests, docs and the CLI.

Every entry records the flags the engines are expected to reproduce; the
test suite recomputes all of them from scratch.  Killing-form metrics are
computed by the Killing-form operation at construction rather than being
transcribed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .classify4 import make_family_case1, make_family_case2, standard_j, standard_metric
from .geometry import AntiHermitianStructure
from .liealg import LieAlgebra
from .scalars import Matrix


class UnknownEntryError(KeyError):
    """Requested catalog name does not exist."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    structure: AntiHermitianStructure
    description: str
    expected: dict = field(default_factory=dict)


def _abelian4() -> CatalogEntry:
    alg = LieAlgebra.abelian(4)
    s = AntiHermitianStructure(alg, standard_metric(4), standard_j(4))
    return CatalogEntry(
        name="abelian4",
        structure=s,
        description="four-dimensional abelian algebra with the standard neutral pair",
        expected={
            "anti_kahler": True,
            "flat": True,
            "ricci_flat": True,
            "einstein": True,
            "einstein_constant": Fraction(0),
            "unimodular": True,
            "abelian_j": True,
            "bi_invariant_j": True,
            "anti_abelian_j": True,
            "bi_invariant_metric": True,
            "nijenhuis_zero": True,
            "signature": (2, 2, 0),
            "derived_dim": 0,
        },
    )


def _n7() -> CatalogEntry:
    half = Fraction(1, 2)
    alg = LieAlgebra.from_brackets(6, {
        (0, 1): {3: 1},    # [X1, X2] = X4
        (0, 2): {4: 1},    # [X1, X3] = X5
        (0, 3): {5: 1},    # [X1, X4] = X6
        (1, 2): {5: 1},    # [X2, X3] = X6
        (1, 3): {4: -1},   # [X2, X4] = -X5
    })
    g = Matrix([
        [0, 0, 0, 0, half, 0],
        [0, 0, 0, 0, 0, half],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [half, 0, 0, 0, 0, 0],
        [0, half, 0, 0, 0, 0],
    ]).map(Fraction)
    # J X1 = X2, J X3 = -X4, J X5 = -X6
    j = Matrix.from_cols([
        (0, 1, 0, 0, 0, 0),
        (-1, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, -1),
        (0, 0, 0, 0, 1, 0),
    ]).map(Fraction)
    s = AntiHermitianStructure(alg, g, j)
    return CatalogEntry(
        name="n7_J-1",
        structure=s,
        description="six-dimensional nilpotent algebra with an abelian complex structure",
        expected={
            "anti_kahler": True,
            "flat": True,
            "ricci_flat": True,
            "einstein": True,
            "einstein_constant": Fraction(0),
            "unimodular": True,
            "abelian_j": True,
            "bi_invariant_j": False,
            "anti_abelian_j": False,
            "bi_invariant_metric": False,
            "nijenhuis_zero": True,
            "signature": (3, 3, 0),
            "derived_dim": 3,
        },
    )


def _sl2c() -> CatalogEntry:
    # realification of sl(2, C) on the basis {H, iH, E, iE, F, iF}
    alg = LieAlgebra.from_brackets(6, {
        (0, 2): {2: 2},    # [H, E] = 2E
        (0, 3): {3: 2},    # [H, iE] = 2iE
        (1, 2): {3: 2},    # [iH, E] = 2iE
        (1, 3): {2: -2},   # [iH, iE] = -2E
        (0, 4): {4: -2},   # [H, F] = -2F
        (0, 5): {5: -2},   # [H, iF] = -2iF
        (1, 4): {5: -2},   # [iH, F] = -2iF
        (1, 5): {4: 2},    # [iH, iF] = 2F
        (2, 4): {0: 1},    # [E, F] = H
        (2, 5): {1: 1},    # [E, iF] = iH
        (3, 4): {1: 1},    # [iE, F] = iH
        (3, 5): {0: -1},   # [iE, iF] = -H
    })
    j = standard_j(6)
    # the negative Killing form is the bi-invariant metric with Einstein
    # constant +1/4 under the fixed curvature and Ricci conventions
    g = -alg.killing_form()
    s = AntiHermitianStructure(alg, g, j)
    return CatalogEntry(
        name="sl2c_killing",
        structure=s,
        description="realified sl(2, C) with multiplication by i and the "
                    "negative Killing-form metric",
        expected={
            "anti_kahler": True,
            "flat": False,
            "ricci_flat": False,
            "einstein": True,
            "einstein_constant": Fraction(1, 4),
            "unimodular": True,
            "abelian_j": False,
            "bi_invariant_j": True,
            "anti_abelian_j": True,
            "bi_invariant_metric": True,
            "nijenhuis_zero": True,
            "signature": (3, 3, 0),
            "derived_dim": 6,
        },
    )


def _r_std() -> CatalogEntry:
    s = make_family_case1(1, 0, 1)
    return CatalogEntry(
        name="r-1-1_std",
        structure=s,
        description="solvable family member mu_{1,0,+1}, isomorphic to r(-1,-1)",
        expected={
            "anti_kahler": True,
            "flat": True,
            "ricci_flat": True,
            "einstein": True,
            "einstein_constant": Fraction(0),
            "unimodular": False,
            "abelian_j": False,
            "bi_invariant_j": False,
            "anti_abelian_j": False,
            "bi_invariant_metric": False,
            "nijenhuis_zero": True,
            "signature": (2, 2, 0),
            "derived_dim": 3,
        },
    )


def _aff_std() -> CatalogEntry:
    s = make_family_case2(1, 0, 0, 0)
    return CatalogEntry(
        name="affC_std",
        structure=s,
        description="bi-invariant family member mu_{1,0,0,0}, realified aff(C)",
        expected={
            "anti_kahler": True,
            "flat": False,
            "ricci_flat": False,
            "einstein": True,
            "einstein_constant": Fraction(-2),
            "unimodular": False,
            "abelian_j": False,
            "bi_invariant_j": True,
            "anti_abelian_j": True,
            "bi_invariant_metric": False,
            "nijenhuis_zero": True,
            "signature": (2, 2, 0),
            "derived_dim": 2,
        },
    )


_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {
    "abelian4": _abelian4,
    "n7_J-1": _n7,
    "sl2c_killing": _sl2c,
    "r-1-1_std": _r_std,
    "affC_std": _aff_std,
}

_ENTRIES: dict[str, CatalogEntry] = {}


def list_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def get(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownEntryError(name)
    if name not in _ENTRIES:
        _ENTRIES[name] = _BUILDERS[name]()
    return _ENTRIES[name]
