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
    basis_vector,
    clear_denominators,
    contract,
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

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        return self.bracket_basis(i, j)[k]

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

    def ad_basis(self, i: int) -> Matrix:
        """Matrix of ad_{e_i}: columns are [e_i, e_j]."""
        return Matrix.from_cols([self.bracket_basis(i, j) for j in range(self.dim)])

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of ad_x = [x, .]."""
        return Matrix.from_cols([self.bracket(x, basis_vector(self.dim, j))
                                 for j in range(self.dim)])

    def killing_form(self) -> Matrix:
        """B_ij = trace(ad_{e_i} ad_{e_j}) = sum_kl C_ik^l C_jl^k; cached, symmetric."""
        if self._killing is None:
            n = self.dim
            c, den = _structure_tensor(self)
            blocks = [c[a * n * n:(a + 1) * n * n] for a in range(n)]
            flipped = [[b[l * n + k] for k in range(n) for l in range(n)] for b in blocks]
            rows = [[sum(x * y for x, y in zip(blocks[i], flipped[j]) if x) for j in range(n)]
                    for i in range(n)]
            object.__setattr__(self, "_killing", Matrix(fractions_over(rows, den * den)))
        return self._killing

    def is_unimodular(self) -> bool:
        """trace(ad_{e_i}) = sum_k C_ik^k = 0 for every i."""
        c, n = _structure_tensor(self)[0], self.dim
        return not any(sum(c[(i * n + k) * n + k] for k in range(n)) for i in range(n))

    def is_abelian(self) -> bool:
        return not self._table

    def derived_dim(self) -> int:
        """Dimension of span{[e_i, e_j]}, by exact rank."""
        return Matrix(list(self._table.values())).rank() if self._table else 0

    def center_dim(self) -> int:
        """dim ker(x -> ad_x): the rank of x -> ad_x is that of the rows C_i."""
        c, den = _structure_tensor(self)
        n = self.dim
        return n - Matrix(fractions_over((c[i * n * n:(i + 1) * n * n] for i in range(n)),
                                         den)).rank()


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


def _structure_tensor(algebra: LieAlgebra) -> tuple[list, int]:
    """Flat integer tensor C[a][b][k] (coefficient of e_k in [e_a, e_b]) over
    one denominator; only the nonzero brackets are written.  Computed once per
    algebra and shared, so no reader may mutate it."""
    if algebra._structure is None:
        n = algebra.dim
        table = algebra._table
        rows, den = clear_denominators(table.values())
        flat = [0] * n ** 3
        for (a, b), row in zip(table, rows):
            flat[(a * n + b) * n:(a * n + b + 1) * n] = row
            flat[(b * n + a) * n:(b * n + a + 1) * n] = [-x for x in row]
        object.__setattr__(algebra, "_structure", (flat, den))
    return algebra._structure


def _j_contractions(algebra: LieAlgebra, j_map: Matrix):
    """C and J as integers: (C, dc, J, J^T, dj) with C = C/dc, J = J/dj.

    Raises as check_complex_structure does, then DimensionMismatchError
    unless J is dim x dim.
    """
    j, jt, dj = check_complex_structure(j_map)
    if len(j) != algebra.dim:
        raise DimensionMismatchError("J must be dim x dim")
    return (*_structure_tensor(algebra), j, jt, dj)


def _nijenhuis_numerators(algebra: LieAlgebra, j_map: Matrix) -> tuple[list, int]:
    """C(J x J) - J C(J x 1) - J C(1 x J) - C as a flat integer tensor laid out
    as C, and its denominator."""
    c, dc, j, jt, dj = _j_contractions(algebra, j_map)
    cj = contract(c, j, 0)
    sq = dj * dj
    terms = zip(contract(cj, j, 1), contract(cj, jt, 2), contract(contract(c, j, 1), jt, 2), c)
    return [a - b - e - sq * x for a, b, e, x in terms], dc * sq


def nijenhuis(algebra: LieAlgebra, j_map: Matrix) -> tuple:
    """Table N(e_i, e_j) of [Jx,Jy] - J[Jx,y] - J[x,JY] - [x,y] on basis pairs.

    Vanishes identically iff J is integrable in the left-invariant sense.
    Computed over integers by _nijenhuis_numerators.
    """
    nums, den = _nijenhuis_numerators(algebra, j_map)
    n = algebra.dim
    vecs = fractions_over((nums[p:p + n] for p in range(0, len(nums), n)), den)
    return tuple(tuple(tuple(vecs[i * n + k]) for k in range(n)) for i in range(n))


def nijenhuis_is_zero(algebra: LieAlgebra, j_map: Matrix) -> bool:
    return not any(_nijenhuis_numerators(algebra, j_map)[0])


def is_abelian_j(algebra: LieAlgebra, j_map: Matrix) -> bool:
    """[Jx, Jy] = [x, y] on all basis pairs."""
    c, _, j, _, dj = _j_contractions(algebra, j_map)
    return contract(contract(c, j, 0), j, 1) == [dj * dj * x for x in c]


def is_bi_invariant_j(algebra: LieAlgebra, j_map: Matrix) -> bool:
    """[Jx, y] = J[x, y] on all basis pairs."""
    c, _, j, jt, _ = _j_contractions(algebra, j_map)
    return contract(c, j, 0) == contract(c, jt, 2)


def is_anti_abelian_j(algebra: LieAlgebra, j_map: Matrix) -> bool:
    """[Jx, Jy] = -[x, y] on all basis pairs."""
    c, _, j, _, dj = _j_contractions(algebra, j_map)
    return contract(contract(c, j, 0), j, 1) == [-dj * dj * x for x in c]
