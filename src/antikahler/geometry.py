"""Anti-Hermitian structures, the Koszul connection, and curvature.

An anti-Hermitian (Norden) structure on a Lie algebra is a pair (g, J) with
J^2 = -I, g symmetric invertible and g(Jx, Jy) = -g(x, y); the signature is
forced to be neutral.  Everything downstream of the Koszul formula is exact.

Curvature convention: R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z
- nabla_[x,y] z, the sign for which a bi-invariant metric satisfies
R(x, y)z = -1/4 [[x, y], z].  The Ricci tensor is the trace over the first
slot, Rc_jk = sum_i R^i_ijk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .liealg import (
    LieAlgebra,
    NotComplexStructureError,
    _structure_tensor,
    check_complex_structure,
)
from .scalars import (
    DimensionMismatchError,
    GaussianRational,
    Matrix,
    SingularMatrixError,
    basis_vector,
    clear_denominators,
    contract,
    format_quotient,
    fractions_over,
    int_matmul,
    signature,
)


class BadJSquareError(ValueError):
    """J^2 != -I."""


class SingularMetricError(ValueError):
    """Metric matrix is not invertible."""


class NotAntiIsometryError(ValueError):
    """g(Jx, Jy) = -g(x, y) fails (or g is not symmetric)."""


class AntiHermitianStructure:
    """Validated triple (algebra, g, J); geometric computations are cached."""

    __slots__ = ("algebra", "g", "J", "g_inv", "_cache")

    def __init__(self, algebra: LieAlgebra, g: Matrix, j_map: Matrix):
        n = algebra.dim
        if g.nrows != n or g.ncols != n or j_map.nrows != n or j_map.ncols != n:
            raise DimensionMismatchError("g and J must be dim x dim")
        try:
            j = check_complex_structure(j_map)
        except NotComplexStructureError:
            raise BadJSquareError("J^2 != -I") from None
        if not g.is_symmetric():
            raise NotAntiIsometryError("metric matrix is not symmetric")
        try:
            g_inv = g.inverse()
        except SingularMatrixError:
            raise SingularMetricError("metric matrix is singular") from None
        if not _j_anti_invariant(g.integer_form[0], *j):
            raise NotAntiIsometryError("g(Jx, Jy) != -g(x, y)")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "J", j_map)
        object.__setattr__(self, "g_inv", g_inv)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("AntiHermitianStructure is immutable")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __eq__(self, other):
        if not isinstance(other, AntiHermitianStructure):
            return NotImplemented
        return (self.algebra == other.algebra and self.g == other.g
                and self.J == other.J)

    def __repr__(self):
        return f"AntiHermitianStructure(dim={self.dim})"

    def metric(self, x: Sequence, y: Sequence) -> Fraction:
        return sum((xi * gy for xi, gy in zip(x, self.g.apply(y))), Fraction(0))

    def metric_signature(self) -> tuple[int, int, int]:
        return signature(self.g)

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


def _j_anti_invariant(b: list, j: list, jt: list, dj: int) -> bool:
    """J^T B J = -B for an integer matrix B and a J given as integers (J, J^T)
    over dj, tested as J^T B J = -dj^2 B."""
    sq = dj * dj
    return int_matmul(jt, int_matmul(b, j)) == [[-sq * x for x in row] for row in b]


class Connection:
    """Levi-Civita data: operators M_i with M_i column j = nabla_{e_i} e_j.

    Stored as flat integer Christoffel numerators t[i][j][k] (coefficient of
    e_k in nabla_{e_i} e_j) over one denominator that shares no factor with
    all of them, which is the lcm of the reduced Fraction denominators.  The
    Fraction operators are built on first read of ``operators``.
    """

    __slots__ = ("dim", "_numerators", "_den", "_operators")

    def __init__(self, operators: Sequence[Matrix]):
        operators = tuple(operators)
        rows, den = clear_denominators(col for m in operators for col in zip(*m.rows))
        self._store(len(operators), [x for row in rows for x in row], den, operators)

    @classmethod
    def _from_numerators(cls, dim: int, t: list, den: int) -> "Connection":
        """The connection t / den (den > 0), reduced by the gcd of all entries."""
        g = math.gcd(den, *t)
        conn = cls.__new__(cls)
        conn._store(dim, [x // g for x in t] if g > 1 else t, den // g, None)
        return conn

    def _store(self, dim, t, den, operators):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_numerators", t)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_operators", operators)

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    @property
    def operators(self) -> tuple:
        if self._operators is None:
            object.__setattr__(self, "_operators", tuple(map(
                Matrix.from_cols, _planes(self._numerators, self._den, self.dim))))
        return self._operators

    def _matrices(self) -> list:
        """The integer operators N_i = M_i * den, as row lists N_i[k][j]."""
        n, t = self.dim, self._numerators
        columns = [t[p:p + n] for p in range(0, len(t), n)]  # nabla_{e_i} e_j at i * n + j
        return [[list(row) for row in zip(*columns[i * n:(i + 1) * n])] for i in range(n)]

    def nabla_basis(self, i: int) -> Matrix:
        return self.operators[i]

    def gamma(self, i: int, j: int, k: int) -> Fraction:
        """Coefficient of e_k in nabla_{e_i} e_j."""
        n = self.dim
        return Fraction(self._numerators[(i * n + j) * n + k], self._den)

    def component_texts(self) -> list:
        """Every Gamma^k_{ij} as its exact rational string, out[i][j][k]."""
        n, den = self.dim, self._den
        texts = [format_quotient(x, den) for x in self._numerators]
        return [[texts[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
                for i in range(n)]

    def nabla_direction(self, x: Sequence) -> Matrix:
        """Operator nabla_x = sum_i x_i nabla_{e_i}."""
        n = self.dim
        out = Matrix.zeros(n, n)
        for i, xi in enumerate(x):
            if xi:
                out = out + xi * self.operators[i]
        return out

    def apply(self, x: Sequence, y: Sequence) -> tuple:
        return self.nabla_direction(x).apply(y)

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._numerators == other._numerators)


def _bracket_rows(algebra: LieAlgebra) -> tuple[dict, int]:
    """{(a, b): row} for the nonzero brackets, a < b, with [e_a, e_b] = row / d,
    read from the structure tensor; and d."""
    c, dc = _structure_tensor(algebra)
    n = algebra.dim
    return {(a, b): c[(a * n + b) * n:(a * n + b + 1) * n] for a, b in algebra._table}, dc


def _lowered_brackets(s: AntiHermitianStructure) -> tuple[list, int]:
    """Integers L and a denominator d with L[a][b][k] / d = g([e_a, e_b], e_k).

    Each nonzero bracket is lowered once; rows of pairs with a zero bracket
    are one shared zero row.
    """
    n = s.dim
    brackets, dc = _bracket_rows(s.algebra)
    g, _, dg = s.g.integer_form
    zero = [0] * n
    lowered = [[zero] * n for _ in range(n)]
    for (a, b), row in zip(brackets, int_matmul(list(brackets.values()), g)):
        lowered[a][b] = row
        lowered[b][a] = [-x for x in row]
    return lowered, dc * dg


def levi_civita(s: AntiHermitianStructure) -> Connection:
    """Unique metric, torsion-free connection via the Koszul formula.

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i)
                                + g([e_k,e_i], e_j), solved by g^{-1}.
    The right-hand sides and the product with g^{-1} run over integers with
    one shared denominator, and the connection keeps them as integers.
    """
    def build():
        n = s.dim
        lowered, den = _lowered_brackets(s)
        g_inv, _, d_inv = s.g_inv.integer_form
        t = []
        for i in range(n):
            low_i = lowered[i]
            # rhs[j][k] = 2 g(nabla_{e_i} e_j, e_k) times the lowering denominator;
            # g^{-1} is symmetric, so row j of rhs g^{-1} is nabla_{e_i} e_j
            rhs = [[low_i[j][k] - lowered[j][k][i] + lowered[k][i][j]
                    for k in range(n)] for j in range(n)]
            for row in int_matmul(rhs, g_inv):
                t += row
        return Connection._from_numerators(n, t, 2 * den * d_inv)

    return s._memo("levi_civita", build)


def nabla_j_operators(s: AntiHermitianStructure,
                      conn: Optional[Connection] = None) -> tuple[Matrix, ...]:
    """Operators (nabla_{e_i} J) = nabla_i J - J nabla_i; all zero iff anti-Kahler."""
    return tuple(map(Matrix.from_cols, _planes(*_nabla_j(s, conn or levi_civita(s)), s.dim)))


def _nabla_j(s: AntiHermitianStructure, conn: Connection) -> tuple[list, int]:
    """nabla_i J - J nabla_i laid out as the connection's numerators, and its
    denominator."""
    gamma = conn._numerators
    j, jt, dj = s.J.integer_form
    return [a - b for a, b in zip(contract(gamma, j, 1), contract(gamma, jt, 2))], conn._den * dj


def is_anti_kahler(s: AntiHermitianStructure) -> bool:
    def build():
        return not any(_nabla_j(s, levi_civita(s))[0])
    return s._memo("anti_kahler", build)


class CurvatureTensor:
    """R(e_i, e_j) as operators for i < j, with the g-lowered form available.

    The operators are kept as integer numerators over one shared denominator,
    read by the Ricci trace, the J tests and component_texts; op, component
    and lowered build their Fraction form on first use.
    """

    __slots__ = ("dim", "g", "_fraction_ops", "_numerators", "_den")

    def __init__(self, dim: int, g: Matrix, numerators: dict, den: int):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_fraction_ops", None)
        object.__setattr__(self, "_numerators", numerators)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    @property
    def _ops(self) -> dict:
        if self._fraction_ops is None:
            object.__setattr__(self, "_fraction_ops", {
                key: Matrix(fractions_over(rows, self._den))
                for key, rows in self._numerators.items()})
        return self._fraction_ops

    def op(self, i: int, j: int) -> Matrix:
        """Operator R(e_i, e_j); antisymmetric in (i, j) by construction."""
        if i == j:
            return Matrix.zeros(self.dim, self.dim)
        if i < j:
            return self._ops[(i, j)]
        return -self._ops[(j, i)]

    def component(self, i: int, j: int, k: int, l: int) -> Fraction:
        """R^l_{ijk}: coefficient of e_l in R(e_i, e_j) e_k."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self._ops[(i, j)][l][k]
        return -self._ops[(j, i)][l][k]

    def lowered(self, i: int, j: int, k: int, l: int) -> Fraction:
        """R_{ijkl} = g(R(e_i, e_j) e_k, e_l)."""
        if i == j:
            return Fraction(0)
        rows = self._ops[(i, j) if i < j else (j, i)].rows
        g = self.g
        total = sum((row[k] * g[m][l] for m, row in enumerate(rows) if row[k]),
                    Fraction(0))
        return total if i < j else -total

    def is_zero(self) -> bool:
        return not any(x for rows in self._numerators.values() for row in rows for x in row)

    def component_texts(self) -> list:
        """Every R^l_{ijk} as its exact rational string, out[i][j][k][l].

        Formatted from the integer numerators, one gcd per nonzero entry of
        the i < j blocks; the i > j blocks are those strings negated and the
        i = j blocks are "0".
        """
        n, den = self.dim, self._den
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            out[i][i] = [["0"] * n for _ in range(n)]
        for (i, j), rows in self._numerators.items():
            block = [[format_quotient(x, den) for x in col] for col in zip(*rows)]
            out[i][j] = block
            out[j][i] = [[t if t == "0" else t[1:] if t[0] == "-" else "-" + t for t in col]
                         for col in block]
        return out

    def _flat(self) -> list:
        """Numerators as one flat tensor T[i][j][l][k] = R(e_i, e_j)[l][k], all i, j."""
        n, nums = self.dim, self._numerators
        blocks = [nums[(i, j)] if i < j else [[-x for x in row] for row in nums[(j, i)]]
                  if i > j else [[0] * n] * n for i in range(n) for j in range(n)]
        return [x for block in blocks for row in block for x in row]


def _pair_blocks(n: int, mirror: bool = False) -> list:
    """Slices of the i < j blocks R(e_i, e_j), or of R(e_j, e_i) if mirror, in _flat."""
    size = n * n
    pairs = [(j, i) if mirror else (i, j) for i in range(n) for j in range(i + 1, n)]
    return [slice((a * n + b) * size, (a * n + b + 1) * size) for a, b in pairs]


def _planes(t: list, den: int, n: int) -> list:
    """A flat order-3 integer tensor over den as Fraction rows: out[i][j] = t[i][j][:]."""
    return [fractions_over((t[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)), den)
            for i in range(n)]


def _foreign(s: AntiHermitianStructure, conn: Optional[Connection]):
    """conn, or None when it is the structure's own memoized levi_civita(s)."""
    return None if conn is s._cache.get("levi_civita") else conn


def curvature(s: AntiHermitianStructure,
              conn: Optional[Connection] = None) -> CurvatureTensor:
    """R(x,y) = [nabla_x, nabla_y] - nabla_{[x,y]} on basis pairs.

    The tensor is memoized on s when conn is None or is s's own memoized
    levi_civita(s); any other connection builds a fresh, unmemoized tensor.
    """
    conn_in = _foreign(s, conn)

    def build():
        c = conn_in or levi_civita(s)
        n = s.dim
        brackets, dw = _bracket_rows(s.algebra)
        nums, d = c._matrices(), c._den
        # R(e_i, e_j) = (N_i N_j - N_j N_i) / d^2 - sum_l (w_l / dw) N_l / d
        numerators = {}
        for i in range(n):
            for j in range(i + 1, n):
                ab, ba = int_matmul(nums[i], nums[j]), int_matmul(nums[j], nums[i])
                r = [[(x - y) * dw for x, y in zip(ab_row, ba_row)]
                     for ab_row, ba_row in zip(ab, ba)]
                for l, wl in enumerate(brackets.get((i, j), ())):
                    if wl:
                        scale = d * wl
                        r = [[x - scale * y for x, y in zip(r_row, n_row)]
                             for r_row, n_row in zip(r, nums[l])]
                numerators[(i, j)] = r
        return CurvatureTensor(n, s.g, numerators, d * d * dw)

    if conn_in is None:
        return s._memo("curvature", build)
    return build()


def ricci(s: AntiHermitianStructure,
          conn: Optional[Connection] = None) -> tuple[Matrix, Matrix]:
    """Ricci tensor Rc and operator Ric with Rc(x, y) = g(Ric x, y).

    Rc_jk = sum_i R^i_{ijk} (trace over the first curvature slot);
    Ric = g^{-1} Rc.  Memoized, together with the curvature it traces, under
    the same rule as curvature(): when conn is None or s's own levi_civita(s).
    """
    conn_in = _foreign(s, conn)

    def build():
        if conn_in is None:
            rc, den = _ricci_numerators(s)
        else:
            rc, den = _ricci_trace(curvature(s, conn_in))
        g_inv, _, d_inv = s.g_inv.integer_form
        ric = Matrix(fractions_over(int_matmul(g_inv, rc), d_inv * den))
        return Matrix(fractions_over(rc, den)), ric

    if conn_in is None:
        return s._memo("ricci", build)
    return build()


def _ricci_trace(r: CurvatureTensor) -> tuple[list, int]:
    """Integer rows rc and a denominator d with Rc_jk = rc[j][k] / d."""
    n, nums = r.dim, r._numerators
    # Rc_jk = sum_i R(e_i, e_j)[i][k], read from the stored i < j numerators
    return [[sum(nums[(i, j)][i][k] if i < j else -nums[(j, i)][i][k]
                 for i in range(n) if i != j) for k in range(n)] for j in range(n)], r._den


def _ricci_numerators(s: AntiHermitianStructure) -> tuple[list, int]:
    """_ricci_trace of the structure's own curvature, memoized on s."""
    return s._memo("ricci_numerators", lambda: _ricci_trace(curvature(s)))


def is_flat(s: AntiHermitianStructure) -> bool:
    return curvature(s).is_zero()


def is_einstein(s: AntiHermitianStructure) -> tuple[bool, Optional[Fraction]]:
    """Exact test Rc = lambda g; lambda from the first nonzero g entry.

    All-zero Rc reports (True, 0): Ricci-flat counts as Einstein.  With
    Rc = rc / d and g = G / dg, lambda = rc_ij dg / (d G_ij) for that entry
    (i, j), and Rc = lambda g reads rc G_ij = rc_ij G on the integers.
    """
    rc, den = _ricci_numerators(s)
    g, _, dg = s.g.integer_form
    i, j = next((i, j) for i, row in enumerate(g) for j, x in enumerate(row) if x)
    gij, rij = g[i][j], rc[i][j]
    if all(x * gij == rij * y for rc_row, g_row in zip(rc, g) for x, y in zip(rc_row, g_row)):
        return True, Fraction(rij * dg, den * gij)
    return False, None


def is_ricci_flat(s: AntiHermitianStructure) -> bool:
    return not any(x for row in _ricci_numerators(s)[0] for x in row)


def curvature_is_pure(s: AntiHermitianStructure) -> bool:
    """Lowered curvature is pure: moving J across any slot preserves it,
    R(Jx,y,z,w) = R(x,Jy,z,w) = R(x,y,Jz,w) = R(x,y,z,Jw) on the basis.

    J is g-symmetric and g invertible, so on integer numerators this is, for
    i < j, R(e_i, e_j) J = J R(e_i, e_j) = sum_m J_mi R(e_m, e_j) =
    sum_m J_mj R(e_i, e_m), the last being minus the third at (j, i)."""
    t = curvature(s)._flat()
    j, jt, _ = s.J.integer_form
    blocks = _pair_blocks(s.dim)
    right = []
    for b in blocks:
        right.append(contract(t[b], j, 1))
        if right[-1] != contract(t[b], jt, 0):
            return False
    first = contract(t, j, 0)
    return all(first[b] == rj and [-x for x in first[m]] == rj
               for b, m, rj in zip(blocks, _pair_blocks(s.dim, mirror=True), right))


def curvature_j_anticommutes(s: AntiHermitianStructure) -> bool:
    """R(Je_i, Je_j) = -R(e_i, e_j) as operators."""
    t = curvature(s)._flat()
    j, _, dj = s.J.integer_form
    rjj = contract(contract(t, j, 0), j, 1)
    return all(rjj[b] == [-dj * dj * x for x in t[b]] for b in _pair_blocks(s.dim))


def is_bi_invariant_metric(s: AntiHermitianStructure) -> bool:
    """g([x,y], z) + g(y, [x,z]) = 0 on all basis triples (ad-invariance)."""
    lowered, _ = _lowered_brackets(s)
    n = s.dim
    return all(lowered[i][j][k] + lowered[i][k][j] == 0
               for i in range(n) for j in range(n) for k in range(n))


def twin_metric(s: AntiHermitianStructure) -> AntiHermitianStructure:
    """Twin structure with g~(x, y) = g(Jx, y) on the same (algebra, J)."""
    return AntiHermitianStructure(s.algebra, s.J.transpose() * s.g, s.J)


class ComplexifiedForm:
    """C-bilinear symmetric form <v,w> - i <Jv,w> on the J-complex space."""

    __slots__ = ("structure", "complex_basis", "gram")

    def __init__(self, structure: AntiHermitianStructure):
        object.__setattr__(self, "structure", structure)
        basis = _complex_basis(structure.J)
        object.__setattr__(self, "complex_basis", basis)
        gram = Matrix([[self.eval(u, v) for v in basis] for u in basis])
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexifiedForm is immutable")

    def eval(self, v: Sequence, w: Sequence) -> GaussianRational:
        s = self.structure
        jv = s.J.apply(v)
        return GaussianRational(s.metric(v, w), -s.metric(jv, w))

    def is_isometry(self, t: Matrix) -> bool:
        """T preserves the complexified form on all basis pairs."""
        n = self.structure.dim
        cols = [t.col(i) for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                if self.eval(cols[i], cols[j]) != self.eval(basis_vector(n, i), basis_vector(n, j)):
                    return False
        return True


def _complex_basis(j_map: Matrix) -> tuple:
    """Greedy basis f_1..f_m of the J-complex space: {f_p, J f_p} spans R^2m."""
    check_complex_structure(j_map)
    n = j_map.nrows
    chosen: list = []
    spanning_rows: list = []
    for i in range(n):
        cand = basis_vector(n, i)
        trial = spanning_rows + [cand, j_map.apply(cand)]
        if Matrix(trial).rank() == len(trial):
            chosen.append(cand)
            spanning_rows = trial
            if len(spanning_rows) == n:
                break
    return tuple(chosen)


def complexify(s: AntiHermitianStructure) -> ComplexifiedForm:
    return s._memo("complexified", lambda: ComplexifiedForm(s))


def preserves_metric_and_j(s: AntiHermitianStructure, t: Matrix) -> bool:
    """T is a g-isometry commuting with J."""
    return t.transpose() * s.g * t == s.g and t * s.J == s.J * t


def preserves_complexified_form(s: AntiHermitianStructure, t: Matrix) -> bool:
    return complexify(s).is_isometry(t)


def satisfies_abelian_connection_rule(s: AntiHermitianStructure,
                                      conn: Optional[Connection] = None) -> bool:
    """nabla_{Jx} y = -J nabla_x y on the basis."""
    return _j_direction_rule(s, (conn or levi_civita(s))._numerators, -1)


def satisfies_bi_invariant_connection_rule(s: AntiHermitianStructure,
                                           conn: Optional[Connection] = None) -> bool:
    """nabla_{Jx} y = J nabla_x y on the basis."""
    return _j_direction_rule(s, (conn or levi_civita(s))._numerators, 1)


def _j_direction_rule(s, t: list, sign) -> bool:
    """sum_m J_mi M_m = sign J M_i for all i, operators M laid out as a
    connection's numerators t[i][j][k] = M_i[k][j]."""
    j, jt, _ = s.J.integer_form
    return contract(t, j, 0) == [sign * x for x in contract(t, jt, 2)]


def epsilon_parallel_holds(s: AntiHermitianStructure, eps: int,
                           conn: Optional[Connection] = None) -> bool:
    """(nabla_{Jx} J) y = eps J (nabla_x J) y on the basis, eps in {+1, -1}."""
    return _j_direction_rule(s, _nabla_j(s, conn or levi_civita(s))[0], eps)


def abelian_j_connection(s: AntiHermitianStructure) -> Connection:
    """Closed form nabla_x y = 1/2 ([x, y] - J [x, Jy]).

    Valid Levi-Civita formula exactly when the structure is anti-Kahler with
    an abelian J; exposed independently so the Koszul path can be checked
    against it.
    """
    c, dc = _structure_tensor(s.algebra)
    j, jt, dj = s.J.integer_form
    t = [dj * dj * a - b for a, b in zip(c, contract(contract(c, j, 1), jt, 2))]
    return Connection._from_numerators(s.dim, t, 2 * dc * dj * dj)


def killing_anti_invariant(s: AntiHermitianStructure) -> bool:
    """B(Jx, Jy) = -B(x, y) for the Killing form B."""
    return _j_anti_invariant(s.algebra.killing_form().integer_form[0], *s.J.integer_form)


def second_derivatives_commute(s: AntiHermitianStructure,
                               conn: Optional[Connection] = None) -> bool:
    """nabla_{e_i} nabla_{e_j} = nabla_{e_j} nabla_{e_i} as operator tables."""
    nums = (conn or levi_civita(s))._matrices()
    n = s.dim
    return all(int_matmul(nums[i], nums[j]) == int_matmul(nums[j], nums[i])
               for i in range(n) for j in range(i + 1, n))
