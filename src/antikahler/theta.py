"""The cyclic 3-tensor criterion for the anti-Kahler property.

theta(x, y, z) = <[Jx, y], z> + <[Jy, z], x> + <[Jz, x], y> characterizes
anti-Kahler structures: (g, J) is anti-Kahler iff theta is skew-symmetric
and pure.  The same tensor arises as the cyclic sum of <D(x, y), z> with
D(x, y) = nabla_{Jx} y + J nabla_x y; both constructions are implemented
independently and cross-checked, and in dimension 4 the criterion collapses
to theta = 0.

Both forms are built from the Levi-Civita connection or the structure
constants of a structure alone, and are returned as order-3 ``Tensor``s with
theta[i, j, k] = theta(e_i, e_j, e_k); the skew and pure tests take any
such tensor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .geometry import AntiHermitianStructure, levi_civita
from .liealg import _cj
from .scalars import Matrix, Tensor


def _cyclic(p: Tensor) -> Tensor:
    """P(x, y, z) + P(y, z, x) + P(z, x, y)."""
    return p + p.permute((2, 0, 1)) + p.permute((1, 2, 0))


def j_bracket_pairing(s: AntiHermitianStructure) -> Tensor:
    """<[Jx, y], z> on basis triples, lowering the C.pull(J, 0) that the J
    predicates of `check` share through the structure's memo."""
    return _cj(s.algebra.structure, s.J, s._memo).pull(s.g, 2)


def theta_bracket_form(s: AntiHermitianStructure) -> Tensor:
    """Cyclic sum of <[J ., .], .> straight from the structure constants."""
    return _cyclic(j_bracket_pairing(s))


def theta_connection_form(s: AntiHermitianStructure) -> Tensor:
    """Cyclic sum of <D(., .), .> with D(x, y) = nabla_{Jx} y + J nabla_x y.

    D(e_i, e_j) is read off the Christoffel tensor as
    sum_m J_mi nabla_{e_m} e_j + J nabla_{e_i} e_j and lowered once.
    """
    gamma = levi_civita(s).tensor
    return _cyclic((gamma.pull(s.J, 0) + gamma.push(s.J, 2)).pull(s.g, 2))


def theta_is_skew(theta: Tensor) -> bool:
    """Full antisymmetry; the transpositions (12) and (23) generate S_3."""
    neg = -theta
    return theta.permute((1, 0, 2)) == neg and theta.permute((0, 2, 1)) == neg


def theta_is_pure(theta: Tensor, j_map: Matrix) -> bool:
    """theta(Jx, y, z) = theta(x, Jy, z) = theta(x, y, Jz) on the basis."""
    t0 = theta.pull(j_map, 0)
    return t0 == theta.pull(j_map, 1) and t0 == theta.pull(j_map, 2)


def anti_kahler_via_theta(s: AntiHermitianStructure) -> bool:
    """Skewness + pureness of theta; an independent route to is_anti_kahler.

    Both tests read the bracket form, built from the structure constants,
    g and J alone as the paper defines theta, so no Levi-Civita connection
    enters this verdict."""
    theta = theta_bracket_form(s)
    return theta_is_skew(theta) and theta_is_pure(theta, s.J)


def tensor_ratio(top: Tensor, bottom: Tensor) -> Optional[Fraction]:
    """Constant c with top = c * bottom entrywise, or None when both vanish.

    Raises ArithmeticError when the tensors are not proportional.
    """
    p = next((p for p, x in enumerate(bottom.nums) if x), None)
    tp, bp = (0, 1) if p is None else (top.nums[p], bottom.nums[p])
    # top = c * bottom with c = (tp / top.den) / (bp / bottom.den), or top = 0 when bottom is
    if any(x * bp != y * tp for x, y in zip(top.nums, bottom.nums)):
        raise ArithmeticError("theta forms are not proportional")
    return None if p is None else Fraction(tp * bottom.den, bp * top.den)
