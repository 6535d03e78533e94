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
from .liealg import _structure_tensor
from .scalars import Matrix, Tensor


class ThetaTensor:
    """Covariant 3-tensor over the basis of a validated structure."""

    __slots__ = ("tensor",)

    def __init__(self, entries):
        entries = [[list(row) for row in plane] for plane in entries]
        object.__setattr__(self, "tensor", Tensor.of(
            len(entries), 3, (x for plane in entries for row in plane for x in row)))

    @classmethod
    def _of(cls, tensor: Tensor) -> "ThetaTensor":
        theta = cls.__new__(cls)
        object.__setattr__(theta, "tensor", tensor)
        return theta

    def __setattr__(self, name, value):
        raise AttributeError("ThetaTensor is immutable")

    @property
    def dim(self) -> int:
        return self.tensor.n

    @property
    def entries(self) -> tuple:
        """The entries as Fractions, entries[i][j][k]."""
        return self.tensor.fractions()

    def __call__(self, i: int, j: int, k: int) -> Fraction:
        return self.tensor[i, j, k]

    def __eq__(self, other):
        if not isinstance(other, ThetaTensor):
            return NotImplemented
        return self.tensor == other.tensor

    def is_zero(self) -> bool:
        return self.tensor.is_zero()


def _cyclic_lowered(s: AntiHermitianStructure, t: Tensor, cyclic: bool = True) -> Tensor:
    """P(x, y, z) = g(v(x, y), z), or its cyclic sum, for v(e_i, e_j) = t[i][j]."""
    p = t.pull(s.g, 2)
    return p + p.permute((2, 0, 1)) + p.permute((1, 2, 0)) if cyclic else p


def j_bracket_pairing(s: AntiHermitianStructure, cyclic: bool = False) -> ThetaTensor:
    """<[Jx, y], z> on basis triples, or its cyclic sum."""
    return ThetaTensor._of(_cyclic_lowered(s, _structure_tensor(s.algebra).pull(s.J, 0), cyclic))


def theta_bracket_form(s: AntiHermitianStructure) -> ThetaTensor:
    """Cyclic sum of <[J ., .], .> straight from the structure constants."""
    return j_bracket_pairing(s, cyclic=True)


def theta_connection_form(s: AntiHermitianStructure,
                          conn: Optional[Connection] = None) -> ThetaTensor:
    """Cyclic sum of <D(., .), .> with D(x, y) = nabla_{Jx} y + J nabla_x y.

    D(e_i, e_j) is read off the Christoffel tensor as
    sum_m J_mi nabla_{e_m} e_j + J nabla_{e_i} e_j and lowered once.
    """
    return ThetaTensor._of(_connection_theta(s, conn or levi_civita(s)))


def _connection_theta(s: AntiHermitianStructure, conn: Connection) -> Tensor:
    """theta_connection_form as a tensor."""
    gamma = conn.tensor
    return _cyclic_lowered(s, gamma.pull(s.J, 0) + gamma.push(s.J, 2))


def _is_skew(t: Tensor) -> bool:
    """An order-3 tensor changes sign under the swaps (12) and (23), which
    generate S_3."""
    neg = -t
    return t.permute((1, 0, 2)) == neg and t.permute((0, 2, 1)) == neg


def _is_pure(t: Tensor, j_map: Matrix) -> bool:
    """J moves freely between the slots of an order-3 tensor."""
    t0 = t.pull(j_map, 0)
    return t0 == t.pull(j_map, 1) and t0 == t.pull(j_map, 2)


def theta_is_skew(theta: ThetaTensor) -> bool:
    """Full antisymmetry; the transpositions (12) and (23) generate S_3."""
    return _is_skew(theta.tensor)


def theta_is_pure(theta: ThetaTensor, j_map: Matrix) -> bool:
    """theta(Jx, y, z) = theta(x, Jy, z) = theta(x, y, Jz) on the basis."""
    return _is_pure(theta.tensor, j_map)


def anti_kahler_via_theta(s: AntiHermitianStructure) -> bool:
    """Skewness + pureness of theta; an independent route to is_anti_kahler.

    Both tests read the integer numerators of the connection form."""
    t = _connection_theta(s, levi_civita(s))
    return _is_skew(t) and _is_pure(t, s.J)


def tensor_ratio(top: ThetaTensor, bottom: ThetaTensor) -> Optional[Fraction]:
    """Constant c with top = c * bottom entrywise, or None when both vanish.

    Raises ArithmeticError when the tensors are not proportional.
    """
    t, b = top.tensor, bottom.tensor
    p = next((p for p, x in enumerate(b.nums) if x), None)
    tp, bp = (0, 1) if p is None else (t.nums[p], b.nums[p])
    # top = c * bottom with c = (tp / t.den) / (bp / b.den), or top = 0 when bottom is
    if any(x * bp != y * tp for x, y in zip(t.nums, b.nums)):
        raise ArithmeticError("theta forms are not proportional")
    return None if p is None else Fraction(tp * b.den, bp * t.den)

