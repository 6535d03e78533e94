"""Lie algebras from structure-constant tables.

A :class:`LieAlgebra` stores the brackets of basis pairs (i, j) with i < j
and synthesizes antisymmetry.  Construction validates the Jacobi identity;
unvalidated tables only exist as the raw mapping passed to
:func:`jacobi_residual` or :meth:`LieAlgebra.from_brackets`.

Linear maps on the algebra (complex structures, adjoint maps, isomorphism
witnesses) are plain :class:`~antikahler.scalars.Matrix` objects over the
chosen basis.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .scalars import (
    DimensionMismatchError,
    Matrix,
    Tensor,
    clear_denominators,
    int_matmul,
)

BracketTable = Mapping[tuple[int, int], Sequence]


class AntisymmetryViolation(ValueError):
    """Bracket table lists a pair (i, j) with i >= j."""


class JacobiViolation(ValueError):
    """Bracket table fails the Jacobi identity."""


class NotComplexStructureError(ValueError):
    """Linear map J does not satisfy J^2 = -I."""


def _zero(dim: int) -> tuple:
    return (Fraction(0),) * dim


def _as_vector(dim: int, value) -> tuple:
    if isinstance(value, Mapping):
        vec = [Fraction(0)] * dim
        for k, coeff in value.items():
            k = operator.index(k)
            if not 0 <= k < dim:
                raise DimensionMismatchError(
                    f"bracket component index {k} out of range for dim {dim}")
            vec[k] = Fraction(coeff)
        return tuple(vec)
    vec = tuple(Fraction(x) for x in value)
    if len(vec) != dim:
        raise DimensionMismatchError("bracket vector has wrong length")
    return vec


def jacobi_residual(dim, brackets: BracketTable = None) -> Fraction:
    """Max-abs component of [[x,y],z] + [[y,z],x] + [[z,x],y] over basis triples.

    Zero exactly when the (antisymmetrized) table defines a Lie algebra.
    Works on raw tables, before any validation; a validated LieAlgebra may
    be passed directly (and then always yields zero).  A raw table is read
    pair by pair: [e_a, e_b] is the listed (a, b) value, else minus the
    listed (b, a) value, else zero, so a table may list either order or
    both.  Only triples holding a nonzero bracket are visited, in integers
    over one shared denominator.
    """
    if isinstance(dim, LieAlgebra):
        dim, brackets = dim.dim, dim.nonzero_brackets()
    table = {key: _as_vector(dim, vec) for key, vec in brackets.items()}
    span = range(dim)
    listed = {(a, b): vec for (a, b), vec in table.items()
              if a != b and a in span and b in span}
    rows, den = clear_denominators(listed.values())
    listed = dict(zip(listed, rows))
    bracket = {}
    for (a, b), row in listed.items():
        bracket[(a, b)] = [(k, x) for k, x in enumerate(row) if x]
        if (b, a) not in listed:
            bracket[(b, a)] = [(k, -x) for k, x in enumerate(row) if x]
    triples = {tuple(sorted((a, b, c)))
               for (a, b), terms in bracket.items() if terms
               for c in span if c != a and c != b}
    worst = 0
    for i, j, k in triples:
        res = [0] * dim
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in bracket.get((a, b), ()):
                for p, y in bracket.get((m, c), ()):
                    res[p] += x * y
        worst = max(worst, max(map(abs, res)))
    return Fraction(worst, den * den)


class LieAlgebra:
    """Validated Lie algebra over Q given by its structure constants."""

    __slots__ = ("dim", "_table", "_killing", "_structure")

    def __init__(self, dim: int, table: dict, _validated: bool = False):
        if not _validated:
            raise TypeError("use LieAlgebra.from_brackets")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_killing", None)
        object.__setattr__(self, "_structure", None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_brackets(cls, dim: int, brackets: BracketTable) -> "LieAlgebra":
        """Build and validate; keys must satisfy i < j, values are coefficient
        vectors (or {index: coeff} mappings) of [e_i, e_j]."""
        table = {}
        for (i, j), value in brackets.items():
            i, j = operator.index(i), operator.index(j)
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatchError(f"basis index out of range: {(i, j)}")
            if i >= j:
                raise AntisymmetryViolation(
                    f"bracket ({i}, {j}) must be listed with i < j")
            vec = _as_vector(dim, value)
            if any(vec):
                table[(i, j)] = vec
        residual = jacobi_residual(dim, table)
        if residual != 0:
            raise JacobiViolation(f"Jacobi identity fails, residual {residual}")
        return cls(dim, table, _validated=True)

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls(dim, {}, _validated=True)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self._table == other._table

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self._table.items()))))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self._table)})"

    def nonzero_brackets(self) -> dict:
        """Copy of the stored i<j table (only nonzero brackets)."""
        return dict(self._table)

    def bracket_basis(self, i: int, j: int) -> tuple:
        if i == j:
            return _zero(self.dim)
        if (i, j) in self._table:
            return self._table[(i, j)]
        if (j, i) in self._table:
            return tuple(-x for x in self._table[(j, i)])
        return _zero(self.dim)

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear expansion of [x, y] through the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError("vector length mismatch")
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj or i == j:
                    continue
                w = self.bracket_basis(i, j)
                coeff = xi * yj
                for k in range(self.dim):
                    if w[k]:
                        out[k] += coeff * w[k]
        return tuple(out)

    def killing_form(self) -> Matrix:
        """The Killing form as a Matrix of Fractions, from _killing_tensor; cached."""
        if self._killing is None:
            object.__setattr__(self, "_killing", Matrix(_killing_tensor(self).fractions()))
        return self._killing

    def is_unimodular(self) -> bool:
        """trace(ad_{e_i}) = sum_k C_ik^k = 0 for every i."""
        return _structure_tensor(self).trace(1, 2).is_zero()

    def is_abelian(self) -> bool:
        return not self._table

    def derived_dim(self) -> int:
        """Dimension of span{[e_i, e_j]}, by exact rank."""
        return Matrix(list(self._table.values())).rank() if self._table else 0

    def center_dim(self) -> int:
        """dim ker(x -> ad_x): the rank of x -> ad_x is that of the rows C_i."""
        return self.dim - Matrix(_structure_tensor(self).rows()).rank()


def check_complex_structure(j_map: Matrix) -> tuple[list, list, int]:
    """Raise unless J^2 = -I exactly; return J as integers (J, J^T, dj) with
    J = J/dj.  J^2 = -I is tested on the integer J as J J = -dj^2 I."""
    if not j_map.is_square():
        raise NotComplexStructureError("J must be square")
    j, jt, dj = j_map.integer_form
    n = len(j)
    if int_matmul(j, j) != [[-dj * dj if a == b else 0 for b in range(n)] for a in range(n)]:
        raise NotComplexStructureError("J^2 != -I")
    return j, jt, dj


def _structure_tensor(algebra: LieAlgebra) -> Tensor:
    """C[a][b][k], the coefficient of e_k in [e_a, e_b], as one integer tensor.
    Computed once per algebra and shared."""
    if algebra._structure is None:
        n, table = algebra.dim, algebra._table
        rows, den = clear_denominators(table.values())
        listed, zero = dict(zip(table, rows)), [0] * n
        upper = Tensor(n, 3, [x for a in range(n) for b in range(n)
                              for x in listed.get((a, b), zero)], den)
        object.__setattr__(algebra, "_structure", upper - upper.permute((1, 0, 2)))
    return algebra._structure


def _killing_tensor(algebra: LieAlgebra) -> Tensor:
    """B_ij = trace(ad_{e_i} ad_{e_j}) = sum_kl C_ik^l C_jl^k as an integer
    tensor; symmetric."""
    c = _structure_tensor(algebra)
    return c.dot(c.permute((2, 1, 0)), 2)


def _checked_structure(algebra: LieAlgebra, j_map: Matrix) -> Tensor:
    """The structure tensor, once J passes check_complex_structure and is
    dim x dim (DimensionMismatchError otherwise)."""
    check_complex_structure(j_map)
    if j_map.nrows != algebra.dim:
        raise DimensionMismatchError("J must be dim x dim")
    return _structure_tensor(algebra)


def nijenhuis(algebra: LieAlgebra, j_map: Matrix) -> Tensor:
    """N(e_i, e_j) = [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y] on basis pairs,
    laid out as C: C(J x J) - J C(J x 1) - J C(1 x J) - C.

    Vanishes identically iff J is integrable in the left-invariant sense.
    """
    c = _checked_structure(algebra, j_map)
    cj = c.pull(j_map, 0)
    return cj.pull(j_map, 1) - cj.push(j_map, 2) - c.pull(j_map, 1).push(j_map, 2) - c


def is_abelian_j(algebra: LieAlgebra, j_map: Matrix) -> bool:
    """[Jx, Jy] = [x, y] on all basis pairs."""
    c = _checked_structure(algebra, j_map)
    return c.pull(j_map, 0).pull(j_map, 1) == c


def is_bi_invariant_j(algebra: LieAlgebra, j_map: Matrix) -> bool:
    """[Jx, y] = J[x, y] on all basis pairs."""
    c = _checked_structure(algebra, j_map)
    return c.pull(j_map, 0) == c.push(j_map, 2)


def is_anti_abelian_j(algebra: LieAlgebra, j_map: Matrix) -> bool:
    """[Jx, Jy] = -[x, y] on all basis pairs."""
    c = _checked_structure(algebra, j_map)
    return c.pull(j_map, 0).pull(j_map, 1) == -c
