"""The cyclic 3-tensor criterion for the anti-Kahler property.

theta(x, y, z) = <[Jx, y], z> + <[Jy, z], x> + <[Jz, x], y> characterizes
anti-Kahler structures: (g, J) is anti-Kahler iff theta is skew-symmetric
and pure.  The same tensor arises as the cyclic sum of <D(x, y), z> with
D(x, y) = nabla_{Jx} y + J nabla_x y; both constructions are implemented
independently and cross-checked, and in dimension 4 the criterion collapses
to theta = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .geometry import AntiHermitianStructure, Connection, levi_civita
from .scalars import Matrix, basis_vector


class ThetaTensor:
    """Covariant 3-tensor over the basis of a validated structure."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(tuple(x for x in row) for row in plane)
                        for plane in entries)
        object.__setattr__(self, "dim", len(entries))
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ThetaTensor is immutable")

    def __call__(self, i: int, j: int, k: int) -> Fraction:
        return self.entries[i][j][k]

    def __eq__(self, other):
        if not isinstance(other, ThetaTensor):
            return NotImplemented
        return self.entries == other.entries

    def is_zero(self) -> bool:
        return all(x == 0 for plane in self.entries for row in plane for x in row)

    def with_j_in_slot(self, j_map: Matrix, slot: int) -> "ThetaTensor":
        """Tensor (x, y, z) -> theta(..., J arg at `slot`, ...)."""
        n = self.dim
        out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    idx = (i, j, k)
                    total = Fraction(0)
                    for m in range(n):
                        coeff = j_map[m][idx[slot]]
                        if coeff:
                            sub = list(idx)
                            sub[slot] = m
                            total += coeff * self.entries[sub[0]][sub[1]][sub[2]]
                    out[i][j][k] = total
        return ThetaTensor(out)


def theta_bracket_form(s: AntiHermitianStructure) -> ThetaTensor:
    """Cyclic sum of <[J ., .], .> straight from the structure constants."""
    alg, g, J = s.algebra, s.g, s.J
    n = alg.dim

    def pair(i: int, j: int, k: int) -> Fraction:
        vec = alg.bracket(J.col(i), basis_vector(n, j))
        return sum((vec[m] * g[m][k] for m in range(n) if vec[m]), Fraction(0))

    entries = [[[pair(i, j, k) + pair(j, k, i) + pair(k, i, j)
                 for k in range(n)] for j in range(n)] for i in range(n)]
    return ThetaTensor(entries)


def theta_connection_form(s: AntiHermitianStructure,
                          conn: Optional[Connection] = None) -> ThetaTensor:
    """Cyclic sum of <D(., .), .> with D(x, y) = nabla_{Jx} y + J nabla_x y."""
    conn = conn or levi_civita(s)
    n = s.dim
    J, g = s.J, s.g
    d_ops = []
    for i in range(n):
        ji = J.col(i)
        nabla_ji = conn.nabla_direction(ji)
        d_ops.append(nabla_ji + J * conn.nabla_basis(i))

    def delta(i: int, j: int, k: int) -> Fraction:
        vec = d_ops[i].col(j)
        return sum((vec[m] * g[m][k] for m in range(n) if vec[m]), Fraction(0))

    entries = [[[delta(i, j, k) + delta(j, k, i) + delta(k, i, j)
                 for k in range(n)] for j in range(n)] for i in range(n)]
    return ThetaTensor(entries)


def theta_is_skew(theta: ThetaTensor) -> bool:
    """Full antisymmetry; the transpositions (12) and (23) generate S_3."""
    n = theta.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = theta(i, j, k)
                if theta(j, i, k) != -v or theta(i, k, j) != -v:
                    return False
    return True


def theta_is_pure(theta: ThetaTensor, j_map: Matrix) -> bool:
    """theta(Jx, y, z) = theta(x, Jy, z) = theta(x, y, Jz) on the basis."""
    t0 = theta.with_j_in_slot(j_map, 0)
    return t0 == theta.with_j_in_slot(j_map, 1) and t0 == theta.with_j_in_slot(j_map, 2)


def anti_kahler_via_theta(s: AntiHermitianStructure) -> bool:
    """Skewness + pureness of theta; an independent route to is_anti_kahler."""
    theta = theta_connection_form(s)
    return theta_is_skew(theta) and theta_is_pure(theta, s.J)


def theta_form_ratio(s: AntiHermitianStructure) -> Optional[Fraction]:
    """Measured constant c with connection form = c * bracket form.

    Returns None when both tables vanish; raises if the tables are not
    proportional (they always are, the ratio is measured rather than assumed).
    """
    bracket = theta_bracket_form(s)
    conn = theta_connection_form(s)
    n = s.dim
    ratio = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                b, c = bracket(i, j, k), conn(i, j, k)
                if b == 0:
                    if c != 0:
                        raise ArithmeticError("theta forms are not proportional")
                    continue
                r = c / b
                if ratio is None:
                    ratio = r
                elif ratio != r:
                    raise ArithmeticError("theta forms are not proportional")
    return ratio
