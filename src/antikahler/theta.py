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

from .geometry import AntiHermitianStructure, Connection, _planes, _tensor, levi_civita
from .liealg import _structure_tensor
from .scalars import Matrix, clear_denominators, contract, integer_map


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


def _cyclic_lowered(s: AntiHermitianStructure, t: list, den: int,
                    cyclic: bool = True) -> ThetaTensor:
    """P(x, y, z) = g(v(x, y), z) or its cyclic sum, for v(e_i, e_j)_m = t[i][j][m] / den."""
    g, dg = clear_denominators(s.g.rows)
    n = s.dim
    p = contract(t, g, 2)
    if cyclic:
        nn = n * n
        p = [p[i * nn + j * n + k] + p[j * nn + k * n + i] + p[k * nn + i * n + j]
             for i in range(n) for j in range(n) for k in range(n)]
    return ThetaTensor(_planes(p, den * dg, n))


def j_bracket_pairing(s: AntiHermitianStructure, cyclic: bool = False) -> ThetaTensor:
    """<[Jx, y], z> on basis triples, or its cyclic sum."""
    c, dc = _structure_tensor(s.algebra)
    j, _, dj = integer_map(s.J)
    return _cyclic_lowered(s, contract(c, j, 0), dc * dj, cyclic)


def theta_bracket_form(s: AntiHermitianStructure) -> ThetaTensor:
    """Cyclic sum of <[J ., .], .> straight from the structure constants."""
    return j_bracket_pairing(s, cyclic=True)


def theta_connection_form(s: AntiHermitianStructure,
                          conn: Optional[Connection] = None) -> ThetaTensor:
    """Cyclic sum of <D(., .), .> with D(x, y) = nabla_{Jx} y + J nabla_x y.

    D(e_i, e_j) is read off the integer Christoffel numerators as
    sum_m J_mi nabla_{e_m} e_j + J nabla_{e_i} e_j and lowered once.
    """
    conn = conn or levi_civita(s)
    gamma, d = _tensor(conn.operators)
    j, jt, dj = integer_map(s.J)
    d_ij = [a + b for a, b in zip(contract(gamma, j, 0), contract(gamma, jt, 2))]
    return _cyclic_lowered(s, d_ij, d * dj)


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
    rows, _ = clear_denominators(row for plane in theta.entries for row in plane)
    t = [x for row in rows for x in row]
    j, _, _ = integer_map(j_map)
    t0 = contract(t, j, 0)
    return t0 == contract(t, j, 1) and t0 == contract(t, j, 2)


def anti_kahler_via_theta(s: AntiHermitianStructure) -> bool:
    """Skewness + pureness of theta; an independent route to is_anti_kahler."""
    theta = theta_connection_form(s)
    return theta_is_skew(theta) and theta_is_pure(theta, s.J)


def tensor_ratio(top: ThetaTensor, bottom: ThetaTensor) -> Optional[Fraction]:
    """Constant c with top = c * bottom entrywise, or None when both vanish.

    Raises ArithmeticError when the tensors are not proportional.
    """
    pairs = [(t, b) for t_plane, b_plane in zip(top.entries, bottom.entries)
             for t_row, b_row in zip(t_plane, b_plane) for t, b in zip(t_row, b_row)]
    ratios = {t / b for t, b in pairs if b}
    if len(ratios) > 1 or any(t for t, b in pairs if not b):
        raise ArithmeticError("theta forms are not proportional")
    return ratios.pop() if ratios else None


def theta_form_ratio(s: AntiHermitianStructure) -> Optional[Fraction]:
    """Measured constant c with connection form = c * bracket form.

    Returns None when both tables vanish; raises if the tables are not
    proportional (they always are, the ratio is measured rather than assumed).
    """
    return tensor_ratio(theta_connection_form(s), theta_bracket_form(s))
