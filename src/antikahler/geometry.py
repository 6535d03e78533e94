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
    _killing_tensor,
    check_complex_structure,
)
from .scalars import (
    DimensionMismatchError,
    GaussianRational,
    Matrix,
    SingularMatrixError,
    Tensor,
    basis_vector,
    int_matmul,
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
        if not _congruent(g.integer_form[0], *j, -1):
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

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


def _congruent(b: list, t: list, tt: list, dt: int, sign: int) -> bool:
    """T^T B T = sign B for an integer matrix B and a T given as integers
    (T, T^T) over dt, tested as T^T B T = sign dt^2 B."""
    k = sign * dt * dt
    return int_matmul(tt, int_matmul(b, t)) == [[k * x for x in row] for row in b]


class Connection:
    """Levi-Civita data: the Christoffel tensor Gamma[i][j][k], the
    coefficient of e_k in nabla_{e_i} e_j, over its smallest denominator.

    ``operators`` (M_i with column j = nabla_{e_i} e_j, in Fractions) is
    built on first read.
    """

    __slots__ = ("tensor", "_operators")

    def __init__(self, gamma: Tensor):
        object.__setattr__(self, "tensor", gamma.reduced())
        object.__setattr__(self, "_operators", None)

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    @property
    def operators(self) -> tuple:
        if self._operators is None:
            object.__setattr__(self, "_operators", tuple(map(Matrix.from_cols,
                                                             self.tensor.fractions())))
        return self._operators


def _lowered_structure(s: AntiHermitianStructure) -> Tensor:
    """g([e_i, e_j], e_k) at (i, j, k), built once per structure."""
    return s._memo("lowered_structure", lambda: s.algebra.structure.pull(s.g, 2))


def levi_civita(s: AntiHermitianStructure) -> Connection:
    """Unique metric, torsion-free connection via the Koszul formula.

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i)
                                + g([e_k,e_i], e_j), solved by g^{-1}.
    The right-hand sides and the product with g^{-1} run over integers with
    one shared denominator, and the connection keeps them as integers.
    """
    def build():
        low = _lowered_structure(s)
        rhs = low - low.permute((2, 0, 1)) + low.permute((1, 2, 0))
        # g^{-1} is symmetric, so contracting the last slot with it solves for nabla
        return Connection(rhs.pull(s.g_inv, 2) / 2)

    return s._memo("levi_civita", build)


def nabla_j(s: AntiHermitianStructure) -> Tensor:
    """nabla_i J - J nabla_i laid out as the connection's tensor; zero iff
    anti-Kahler."""
    gamma = levi_civita(s).tensor
    return gamma.pull(s.J, 1) - gamma.push(s.J, 2)


def is_anti_kahler(s: AntiHermitianStructure) -> bool:
    """nabla_j(s) = 0, memoized on s.  The slice nabla_{e_0} J is tested
    first, so most structures that are not anti-Kahler stop there; only when
    it vanishes are the other slices tested, together, with slice 0 zeroed."""
    def build():
        gamma, j = levi_civita(s).tensor, s.J
        if gamma[0].pull(j, 0) != gamma[0].push(j, 1):
            return False
        rows = gamma.rows()
        rest = Tensor(gamma.n, 3, [0] * len(rows[0]) + [x for row in rows[1:] for x in row],
                      gamma.den)
        return rest.pull(j, 1) == rest.push(j, 2)

    return s._memo("anti_kahler", build)


class CurvatureTensor:
    """The tensor R[i][j][k][l] = R^l_{ijk}, the coefficient of e_l in
    R(e_i, e_j) e_k, for every pair (i, j).

    The Fraction operators ``_ops`` (R(e_i, e_j) for keys i < j) are built
    on first read.
    """

    __slots__ = ("tensor", "_fraction_ops")

    def __init__(self, tensor: Tensor):
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "_fraction_ops", None)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    @property
    def _ops(self) -> dict:
        if self._fraction_ops is None:
            r, n = self.tensor, self.tensor.n
            object.__setattr__(self, "_fraction_ops", {
                (i, j): Matrix.from_cols(r[i, j].fractions())
                for i in range(n) for j in range(i + 1, n)})
        return self._fraction_ops


def _second_derivatives(gamma: Tensor) -> Tensor:
    """nabla_{e_i} nabla_{e_j} e_k laid out as [i][j][k][l] (coefficient of
    e_l), from sum_m Gamma[j][k][m] Gamma[i][m][l]."""
    return gamma.dot(gamma.permute((1, 0, 2))).permute((2, 0, 1, 3))


def curvature(s: AntiHermitianStructure) -> CurvatureTensor:
    """R(x,y) = [nabla_x, nabla_y] - nabla_{[x,y]} on basis pairs, memoized on s.

    With G_a[j][k] = Gamma[a][j][k], the block R(e_a, e_b) laid out [k][l] is
    G_b G_a - G_a G_b - sum_m C_ab^m G_m.  Each a takes three integer
    products: the G_b (b > a) stacked, times G_a; G_a times the G_b side by
    side; and the bracket rows C_ab (b > a) times Gamma.  R(e_b, e_a) is the
    negation, and the denominator is lcm(dGamma^2, dC dGamma).
    """
    def build():
        gamma = levi_civita(s).tensor
        c = s.algebra.structure
        n, dg, nn = gamma.n, gamma.den, gamma.n ** 2
        den = math.lcm(dg * dg, c.den * dg)
        f, fc = den // (dg * dg), den // (c.den * dg)
        ops, gamma_rows, c_rows = gamma.rows(2), gamma.rows(1), c.rows(2)
        wide = [[x for b in range(n) for x in ops[b * n + k]] for k in range(n)]
        out = [0] * (nn * nn)
        for a in range(n - 1):
            g_a = ops[a * n:(a + 1) * n]
            below = int_matmul(ops[(a + 1) * n:], g_a)
            above = int_matmul(g_a, [row[(a + 1) * n:] for row in wide])
            brackets = int_matmul(c_rows[a * n + a + 1:(a + 1) * n], gamma_rows)
            for p in range(n - 1 - a):
                block = []
                for k in range(n):
                    block += [f * (x - y) - fc * z for x, y, z in
                              zip(below[p * n + k], above[k][p * n:(p + 1) * n],
                                  brackets[p][k * n:(k + 1) * n])]
                ab, ba = (a * n + a + 1 + p) * nn, ((a + 1 + p) * n + a) * nn
                out[ab:ab + nn] = block
                out[ba:ba + nn] = [-x for x in block]
        return CurvatureTensor(Tensor(n, 4, out, den))

    return s._memo("curvature", build)


def ricci(s: AntiHermitianStructure) -> tuple[Tensor, Tensor]:
    """Ricci tensor Rc and operator Ric with Rc(x, y) = g(Ric x, y), memoized on s.

    Rc_jk = sum_i R^i_{ijk} (trace over the first curvature slot) and
    Ric[i, j] is entry (i, j) of the matrix g^{-1} Rc.  A memoized curvature is
    traced.  Otherwise Rc comes from Gamma, as
    Rc_jk = sum_m Gamma[j][k][m] v_m - sum_{i,m} (Gamma[j][m][i] - C_jm^i)
    Gamma[i][k][m] with v_m = sum_i Gamma[i][m][i], in n^4 work."""
    def build():
        if "curvature" in s._cache:
            rc = curvature(s).tensor.trace(0, 3)
        else:
            gamma = levi_civita(s).tensor
            rc = (gamma.dot(gamma.trace(0, 2))
                  - (gamma - s.algebra.structure).dot(gamma.permute((2, 0, 1)), 2))
        return rc, rc.push(s.g_inv, 0)

    return s._memo("ricci", build)


def is_flat(s: AntiHermitianStructure) -> bool:
    """R = 0; a nonzero Ricci tensor decides False before R is built."""
    if "curvature" not in s._cache and not is_ricci_flat(s):
        return False
    return curvature(s).tensor.is_zero()


def is_einstein(s: AntiHermitianStructure) -> tuple[bool, Optional[Fraction]]:
    """Exact test Rc = lambda g; lambda from the first nonzero g entry.

    All-zero Rc reports (True, 0): Ricci-flat counts as Einstein.  With
    Rc = rc / d and g = G / dg, lambda = rc_ij dg / (d G_ij) for that entry
    (i, j), and Rc = lambda g reads rc G_ij = rc_ij G on the integers.
    """
    rc = ricci(s)[0]
    rows, (g, _, dg) = rc.rows(), s.g.integer_form
    i, j = next((i, j) for i, row in enumerate(g) for j, x in enumerate(row) if x)
    gij, rij = g[i][j], rows[i][j]
    if all(x * gij == rij * y for rc_row, g_row in zip(rows, g) for x, y in zip(rc_row, g_row)):
        return True, Fraction(rij * dg, rc.den * gij)
    return False, None


def is_ricci_flat(s: AntiHermitianStructure) -> bool:
    return ricci(s)[0].is_zero()


def curvature_is_pure(s: AntiHermitianStructure) -> bool:
    """Lowered curvature is pure: moving J across any slot preserves it,
    R(Jx,y,z,w) = R(x,Jy,z,w) = R(x,y,Jz,w) = R(x,y,z,Jw) on the basis.

    J is g-symmetric and g invertible, so on the operators this reads, for
    i < j, R(e_i, e_j) J = J R(e_i, e_j) = sum_m J_mi R(e_m, e_j) =
    sum_m J_mj R(e_i, e_m), the last being minus the third at (j, i).  The
    first equation is tested block by block, so most failures exit early.

    Pure R gives Rc(Jx, y) = tr(J A) = tr(A J) = Rc(x, Jy) with A: z ->
    R(z, x)y, so a Ricci tensor that fails this decides False before R is
    built."""
    j = s.J
    if "curvature" not in s._cache:
        rc = ricci(s)[0]
        if rc.pull(j, 0) != rc.pull(j, 1):
            return False
    r = curvature(s).tensor
    pairs = [(a, b) for a in range(r.n) for b in range(a + 1, r.n)]
    right = []
    for a, b in pairs:
        block = r[a, b]
        right.append(block.pull(j, 0))
        if right[-1] != block.push(j, 1):
            return False
    first = r.pull(j, 0)
    return all(first[a, b] == rj and -first[b, a] == rj for (a, b), rj in zip(pairs, right))


def curvature_j_anticommutes(s: AntiHermitianStructure) -> bool:
    """R(Je_i, Je_j) = -R(e_i, e_j) as operators."""
    r = curvature(s).tensor
    return r.pull(s.J, 0).pull(s.J, 1) == -r


def is_bi_invariant_metric(s: AntiHermitianStructure) -> bool:
    """g([x,y], z) + g(y, [x,z]) = 0 on all basis triples (ad-invariance)."""
    low = _lowered_structure(s)
    return low.permute((0, 2, 1)) == -low


def twin_metric(s: AntiHermitianStructure) -> AntiHermitianStructure:
    """Twin structure with g~(x, y) = g(Jx, y) on the same (algebra, J)."""
    return AntiHermitianStructure(s.algebra, s.J.transpose() * s.g, s.J)


def complex_form(s: AntiHermitianStructure, v: Sequence, w: Sequence) -> GaussianRational:
    """The C-bilinear symmetric form <v, w> = g(v, w) - i g(Jv, w) on the J-complex space."""
    return GaussianRational(s.metric(v, w), -s.metric(s.J.apply(v), w))


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


def preserves_metric_and_j(s: AntiHermitianStructure, t: Matrix) -> bool:
    """T is a g-isometry commuting with J."""
    return t.transpose() * s.g * t == s.g and t * s.J == s.J * t


def preserves_complexified_form(s: AntiHermitianStructure, t: Matrix) -> bool:
    """T preserves <v, w> - i <Jv, w>: T^T G T = G for G = g and for
    G = J^T g, both symmetric, tested on the integer T."""
    if t.nrows != s.dim or t.ncols != s.dim:
        raise DimensionMismatchError("T must be dim x dim")
    g, jt, t_int = s.g.integer_form[0], s.J.integer_form[1], t.integer_form
    return _congruent(g, *t_int, 1) and _congruent(int_matmul(jt, g), *t_int, 1)


def satisfies_abelian_connection_rule(s: AntiHermitianStructure) -> bool:
    """nabla_{Jx} y = -J nabla_x y on the basis."""
    return _j_direction_rule(s, levi_civita(s).tensor, -1)


def satisfies_bi_invariant_connection_rule(s: AntiHermitianStructure) -> bool:
    """nabla_{Jx} y = J nabla_x y on the basis."""
    return _j_direction_rule(s, levi_civita(s).tensor, 1)


def _j_direction_rule(s, t: Tensor, sign) -> bool:
    """sum_m J_mi M_m = sign J M_i for all i, operators M laid out as a
    connection's tensor t[i][j][k] = M_i[k][j]."""
    return t.pull(s.J, 0) == t.push(s.J, 2) * sign


def epsilon_parallel_holds(s: AntiHermitianStructure, eps: int) -> bool:
    """(nabla_{Jx} J) y = eps J (nabla_x J) y on the basis, eps in {+1, -1}."""
    return _j_direction_rule(s, nabla_j(s), eps)


def abelian_j_connection(s: AntiHermitianStructure) -> Tensor:
    """Closed form nabla_x y = 1/2 ([x, y] - J [x, Jy]), laid out as the
    connection's tensor.

    Valid Levi-Civita formula exactly when the structure is anti-Kahler with
    an abelian J; exposed independently so the Koszul path can be checked
    against it.
    """
    c = s.algebra.structure
    return (c - c.pull(s.J, 1).push(s.J, 2)) / 2


def killing_anti_invariant(s: AntiHermitianStructure) -> bool:
    """B(Jx, Jy) = -B(x, y) for the Killing form B."""
    return _congruent(_killing_tensor(s.algebra).rows(), *s.J.integer_form, -1)


def second_derivatives_commute(s: AntiHermitianStructure) -> bool:
    """nabla_{e_i} nabla_{e_j} = nabla_{e_j} nabla_{e_i} as operator tables."""
    twice = _second_derivatives(levi_civita(s).tensor)
    return twice == twice.permute((1, 0, 2, 3))
