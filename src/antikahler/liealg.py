"""Lie algebras from structure-constant tables.

A :class:`LieAlgebra` is its structure tensor: the brackets of basis pairs
(i, j) with i < j are read in, validated against the Jacobi identity and
antisymmetrized into one integer ``Tensor``, from which every Fraction view
is read off.  Unvalidated tables only exist as the raw mapping passed to
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
    fractions_over,
    int_matmul,
)

BracketTable = Mapping[tuple[int, int], Sequence]


class AntisymmetryViolation(ValueError):
    """Bracket table lists a pair (i, j) with i >= j."""


class JacobiViolation(ValueError):
    """Bracket table fails the Jacobi identity."""


class NotComplexStructureError(ValueError):
    """Linear map J does not satisfy J^2 = -I."""


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
    """Validated Lie algebra over Q, held as its structure tensor `structure`:
    C[a][b][k] is the coefficient of e_k in [e_a, e_b], one integer Tensor."""

    __slots__ = ("structure",)

    def __init__(self, structure: Tensor, _validated: bool = False):
        if not _validated:
            raise TypeError("use LieAlgebra.from_brackets")
        object.__setattr__(self, "structure", structure)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.structure.n

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
            table[(i, j)] = _as_vector(dim, value)
        residual = jacobi_residual(dim, table)
        if residual != 0:
            raise JacobiViolation(f"Jacobi identity fails, residual {residual}")
        rows, den = clear_denominators(table.values())
        listed, zero = dict(zip(table, rows)), [0] * dim
        upper = Tensor(dim, 3, [x for a in range(dim) for b in range(dim)
                                for x in listed.get((a, b), zero)], den)
        return cls(upper - upper.permute((1, 0, 2)), _validated=True)

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls(Tensor(dim, 3, [0] * dim ** 3, 1), _validated=True)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.structure == other.structure

    def __hash__(self):
        c = self.structure.reduced()
        return hash((c.n, tuple(c.nums), c.den))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.nonzero_brackets())})"

    def nonzero_brackets(self) -> dict:
        """{(i, j): [e_i, e_j]} as Fraction tuples, for each nonzero bracket
        with i < j, in that order."""
        c = self.structure
        out = {}
        for i in range(c.n):
            for j, row in enumerate(c[i].rows()[i + 1:], i + 1):
                if any(row):
                    out[(i, j)] = tuple(fractions_over([row], c.den)[0])
        return out

    def bracket_basis(self, i: int, j: int) -> tuple:
        """[e_i, e_j] as a Fraction tuple; IndexError outside range(dim)."""
        return self.structure[i, j].fractions()

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear expansion of [x, y] through the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError("vector length mismatch")
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    for k, w in enumerate(self.bracket_basis(i, j)):
                        if w:
                            out[k] += xi * yj * w
        return tuple(out)

    def killing_form(self) -> Matrix:
        """The Killing form as a Matrix of Fractions, from _killing_tensor;
        built on each call."""
        return Matrix(_killing_tensor(self).fractions())

    def is_unimodular(self) -> bool:
        """trace(ad_{e_i}) = sum_k C_ik^k = 0 for every i."""
        return self.structure.trace(1, 2).is_zero()

    def is_abelian(self) -> bool:
        return self.structure.is_zero()

    def derived_dim(self) -> int:
        """Dimension of span{[e_i, e_j]}, by exact rank."""
        return Matrix(self.structure.rows(2)).rank()

    def center_dim(self) -> int:
        """dim ker(x -> ad_x): the rank of x -> ad_x is that of the rows C_i."""
        return self.dim - Matrix(self.structure.rows()).rank()


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


def _killing_tensor(algebra: LieAlgebra) -> Tensor:
    """B_ij = trace(ad_{e_i} ad_{e_j}) = sum_kl C_ik^l C_jl^k as an integer
    tensor; symmetric."""
    c = algebra.structure
    return c.dot(c.permute((2, 1, 0)), 2)


def _checked_structure(algebra: LieAlgebra, j_map: Matrix) -> Tensor:
    """The structure tensor, once J passes check_complex_structure and is
    dim x dim (DimensionMismatchError otherwise)."""
    check_complex_structure(j_map)
    if j_map.nrows != algebra.dim:
        raise DimensionMismatchError("J must be dim x dim")
    return algebra.structure


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
