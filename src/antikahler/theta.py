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

from .geometry import AntiHermitianStructure, Connection, _planes, levi_civita
from .liealg import _structure_tensor
from .scalars import Matrix, clear_denominators, contract


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
                    cyclic: bool = True) -> tuple[list, int]:
    """P(x, y, z) = g(v(x, y), z) or its cyclic sum, for v(e_i, e_j)_m = t[i][j][m] / den,
    as a flat integer tensor P[i][j][k] and its denominator."""
    g, _, dg = s.g.integer_form
    n = s.dim
    p = contract(t, g, 2)
    if cyclic:
        nn = n * n
        p = [p[i * nn + j * n + k] + p[j * nn + k * n + i] + p[k * nn + i * n + j]
             for i in range(n) for j in range(n) for k in range(n)]
    return p, den * dg


def j_bracket_pairing(s: AntiHermitianStructure, cyclic: bool = False) -> ThetaTensor:
    """<[Jx, y], z> on basis triples, or its cyclic sum."""
    c, dc = _structure_tensor(s.algebra)
    j, _, dj = s.J.integer_form
    return ThetaTensor(_planes(*_cyclic_lowered(s, contract(c, j, 0), dc * dj, cyclic), s.dim))


def theta_bracket_form(s: AntiHermitianStructure) -> ThetaTensor:
    """Cyclic sum of <[J ., .], .> straight from the structure constants."""
    return j_bracket_pairing(s, cyclic=True)


def theta_connection_form(s: AntiHermitianStructure,
                          conn: Optional[Connection] = None) -> ThetaTensor:
    """Cyclic sum of <D(., .), .> with D(x, y) = nabla_{Jx} y + J nabla_x y.

    D(e_i, e_j) is read off the integer Christoffel numerators as
    sum_m J_mi nabla_{e_m} e_j + J nabla_{e_i} e_j and lowered once.
    """
    return ThetaTensor(_planes(*_connection_theta(s, conn or levi_civita(s)), s.dim))


def _connection_theta(s: AntiHermitianStructure, conn: Connection) -> tuple[list, int]:
    """theta_connection_form as a flat integer tensor and its denominator."""
    gamma = conn._numerators
    j, jt, dj = s.J.integer_form
    d_ij = [a + b for a, b in zip(contract(gamma, j, 0), contract(gamma, jt, 2))]
    return _cyclic_lowered(s, d_ij, conn._den * dj)


def _numerators(theta: ThetaTensor) -> list:
    """theta's entries as one flat integer tensor, up to a common positive factor."""
    rows, _ = clear_denominators(row for plane in theta.entries for row in plane)
    return [x for row in rows for x in row]


def _is_skew(t: list, n: int) -> bool:
    """A flat order-3 tensor changes sign under the swaps (12) and (23),
    which generate S_3."""
    span = range(n)
    neg = [-x for x in t]
    return ([t[(j * n + i) * n + k] for i in span for j in span for k in span] == neg
            and [t[(i * n + k) * n + j] for i in span for j in span for k in span] == neg)


def _is_pure(t: list, j: list) -> bool:
    """J moves freely between the slots of a flat order-3 tensor."""
    t0 = contract(t, j, 0)
    return t0 == contract(t, j, 1) and t0 == contract(t, j, 2)


def theta_is_skew(theta: ThetaTensor) -> bool:
    """Full antisymmetry; the transpositions (12) and (23) generate S_3."""
    return _is_skew(_numerators(theta), theta.dim)


def theta_is_pure(theta: ThetaTensor, j_map: Matrix) -> bool:
    """theta(Jx, y, z) = theta(x, Jy, z) = theta(x, y, Jz) on the basis."""
    return _is_pure(_numerators(theta), j_map.integer_form[0])


def anti_kahler_via_theta(s: AntiHermitianStructure) -> bool:
    """Skewness + pureness of theta; an independent route to is_anti_kahler.

    Both tests read the integer numerators of the connection form."""
    t, _ = _connection_theta(s, levi_civita(s))
    return _is_skew(t, s.dim) and _is_pure(t, s.J.integer_form[0])


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
