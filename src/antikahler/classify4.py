"""Classification of 4-dimensional anti-Kahler structures.

In dimension 4 an anti-Kahler structure, written in a normalized basis
{X, JX, Y, JY} with g = diag(1, -1, 1, -1) and block-standard J, has
brackets constrained to a 12-parameter shape (a, b, c, d, t1..t8).  The
homogeneous system with coefficient matrix

    A = [[0, c, a, -b], [0, d, b, a], [a, 0, c, d], [b, 0, d, -c]]

splits the classification: A nonzero forces the two-parameter family
mu_{a,b,eps} isomorphic to r(-1,-1); A zero forces the family
mu_{t1,t2,t3,t4} whose nonabelian members realify aff(C), carry a
bi-invariant J, and are classified up to structure-preserving equivalence
by the complex invariant zeta = (t1 + i t2)^2 + (t3 + i t4)^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    AntiHermitianStructure,
    _complex_basis,
    complex_form,
    is_anti_kahler,
    is_einstein,
    is_flat,
    is_ricci_flat,
)
from .liealg import LieAlgebra
from .scalars import (
    DimensionMismatchError,
    GaussianRational,
    Matrix,
    gaussian_sqrt,
)

VERDICT_ABELIAN = "abelian"
VERDICT_R = "r-1-1"
VERDICT_AFF = "affC"

_I = GaussianRational(Fraction(0), Fraction(1))


class DegenerateParametersError(ValueError):
    """Family parameters are all zero."""


class NotAntiKahlerError(ValueError):
    """classify requires an anti-Kahler input."""


class NormalizationFailedError(ValueError):
    """No rational orthonormal J-basis was found."""


class WitnessDerivationError(RuntimeError):
    """A stated witness matrix failed exact verification."""


class InequivalentParametersError(ValueError):
    """Equivalence witness requested for parameters with different zeta."""


def standard_metric(dim: int) -> Matrix:
    return Matrix.diagonal([Fraction(1) if i % 2 == 0 else Fraction(-1)
                            for i in range(dim)])


def standard_j(dim: int) -> Matrix:
    """Block-diagonal J sending e_{2p} -> e_{2p+1} -> -e_{2p}."""
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for p in range(dim // 2):
        rows[2 * p][2 * p + 1] = Fraction(-1)
        rows[2 * p + 1][2 * p] = Fraction(1)
    return Matrix(rows)


@functools.cache
def r_minus_one_minus_one() -> LieAlgebra:
    """Canonical r(-1,-1): [e1,e2]=e2, [e1,e3]=-e3, [e1,e4]=-e4; built once,
    on first call (a LieAlgebra is immutable)."""
    return LieAlgebra.from_brackets(4, {
        (0, 1): {1: 1},
        (0, 2): {2: -1},
        (0, 3): {3: -1},
    })


@functools.cache
def aff_c_real() -> LieAlgebra:
    """Realified aff(C): [e1,e3]=e3, [e1,e4]=e4, [e2,e3]=e4, [e2,e4]=-e3;
    built once, on first call."""
    return LieAlgebra.from_brackets(4, {
        (0, 2): {2: 1},
        (0, 3): {3: 1},
        (1, 2): {3: 1},
        (1, 3): {2: -1},
    })


def make_family_case1(a, b, eps: int) -> AntiHermitianStructure:
    """Family member mu_{a,b,eps} on the normalized basis; eps = +-1."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise DegenerateParametersError("(a, b) must not both vanish")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    e = Fraction(eps)
    alg = LieAlgebra.from_brackets(4, {
        (0, 1): {2: a, 3: b},            # [X, JX]  = a Y + b JY
        (0, 2): {1: a, 3: -e * b},       # [X, Y]   = a JX - eps b JY
        (0, 3): {0: -a, 3: e * a},       # [X, JY]  = -a X + eps a JY
        (1, 2): {1: b, 2: e * b},        # [JX, Y]  = b JX + eps b Y
        (1, 3): {0: -b, 2: -e * a},      # [JX, JY] = -b X - eps a Y
        (2, 3): {0: e * b, 1: -e * a},   # [Y, JY]  = eps b X - eps a JX
    })
    return AntiHermitianStructure(alg, standard_metric(4), standard_j(4))


def make_family_case2(t1, t2, t3, t4) -> AntiHermitianStructure:
    """Family member mu_{t1..t4} on the normalized basis; bi-invariant J."""
    t = tuple(Fraction(x) for x in (t1, t2, t3, t4))
    if not any(t):
        raise DegenerateParametersError("parameters must not all vanish")
    t1, t2, t3, t4 = t
    alg = LieAlgebra.from_brackets(4, {
        (0, 2): {0: t1, 1: t2, 2: t3, 3: t4},     # [X, Y]
        (0, 3): {0: -t2, 1: t1, 2: -t4, 3: t3},   # [X, JY]
        (1, 2): {0: -t2, 1: t1, 2: -t4, 3: t3},   # [JX, Y]
        (1, 3): {0: -t1, 1: -t2, 2: -t3, 3: -t4}, # [JX, JY]
    })
    return AntiHermitianStructure(alg, standard_metric(4), standard_j(4))


@dataclass(frozen=True)
class NormalizedCoefficients:
    """Bracket coefficients in the normalized basis, after the theta identities."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    t: tuple  # (t1, ..., t8)


def extract_coefficients(s: AntiHermitianStructure) -> NormalizedCoefficients:
    """Read (a, b, c, d, t1..t8) off a structure in normalized form.

    The cross-bracket identities forced by the vanishing cyclic tensor are
    asserted; they fail only on non-anti-Kahler input.
    """
    if s.g != standard_metric(4) or s.J != standard_j(4):
        raise NormalizationFailedError("structure is not in normalized form")
    alg = s.algebra
    b01 = alg.bracket_basis(0, 1)
    b23 = alg.bracket_basis(2, 3)
    b02 = alg.bracket_basis(0, 2)
    b03 = alg.bracket_basis(0, 3)
    b12 = alg.bracket_basis(1, 2)
    b13 = alg.bracket_basis(1, 3)

    def demand(condition: bool):
        if not condition:
            raise NotAntiKahlerError(
                "normalized brackets violate the vanishing-theta identities")

    demand(b01[0] == 0 and b01[1] == 0)
    demand(b23[2] == 0 and b23[3] == 0)
    a, b = b01[2], b01[3]
    c, d = b23[0], b23[1]
    t1, t2, t3, t4 = b02
    demand(b03[0] == -t2 and b03[1] == t1)
    t5, t6 = b03[2], b03[3]
    demand(b12[2] == -t4 and b12[3] == t3)
    t7, t8 = b12[0], b12[1]
    demand(tuple(b13) == (-t8, t7, -t6, t5))
    demand(a == t2 + t7 and b == t8 - t1)
    demand(c == -(t4 + t5) and d == t3 - t6)
    return NormalizedCoefficients(a, b, c, d, (t1, t2, t3, t4, t5, t6, t7, t8))


def coefficient_matrix(coeffs: NormalizedCoefficients) -> Matrix:
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    zero = Fraction(0)
    return Matrix([
        [zero, c, a, -b],
        [zero, d, b, a],
        [a, zero, c, d],
        [b, zero, d, -c],
    ])


def _complex_scale(j_map: Matrix, z: GaussianRational, vec: Sequence) -> tuple:
    """(re + im i) . v = re v + im (J v) under the J-complex structure."""
    jv = j_map.apply(vec)
    return tuple(z.re * v + z.im * w for v, w in zip(vec, jv))


def transform_algebra(alg: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Structure constants in the basis given by the columns of p:
    p^-1 [p e_i, p e_j], read off the structure tensor.  A basis change
    keeps C antisymmetric and the Jacobi identity, so nothing is re-checked."""
    c = alg.structure.pull(p, 0).pull(p, 1).push(p.inverse(), 2)
    return LieAlgebra(c.reduced(), _validated=True)


def transform_structure(s: AntiHermitianStructure, p: Matrix) -> AntiHermitianStructure:
    """Pull the whole structure back along the basis change p."""
    p_inv = p.inverse()
    return AntiHermitianStructure(
        transform_algebra(s.algebra, p),
        p.transpose() * s.g * p,
        p_inv * s.J * p,
    )


def normalize_basis(s: AntiHermitianStructure) -> tuple[Matrix, AntiHermitianStructure]:
    """Find a rational orthonormal J-basis {X, JX, Y, JY}.

    Complexified Gram-Schmidt needs square roots in Q(i); when a root does
    not exist the attempt fails (such a basis always exists over the reals,
    not necessarily over the rationals).  Returns (P, normalized structure)
    with the columns of P holding the new basis in the old coordinates.
    """
    if s.dim != 4:
        raise DimensionMismatchError("normalization implemented for dim 4")
    if s.g == standard_metric(4) and s.J == standard_j(4):
        return Matrix.identity(4), s

    f1, f2 = _complex_basis(s.J)
    f_sum = tuple(x + y for x, y in zip(f1, f2))

    u1 = next((u for u in (f1, f2, f_sum) if not complex_form(s, u, u).is_zero()), None)
    if u1 is None:
        raise NormalizationFailedError("complexified form has no anisotropic basis vector")
    sigma1 = gaussian_sqrt(complex_form(s, u1, u1))
    if sigma1 is None:
        raise NormalizationFailedError(
            "no rational orthonormal J-basis: <u,u> is not a square in Q(i); "
            "supply the structure in a normalized basis")
    x_vec = _complex_scale(s.J, GaussianRational(Fraction(1)) / sigma1, u1)

    u2 = None
    for h in (f1, f2, f_sum):
        proj = complex_form(s, h, x_vec)
        cand = tuple(hv - xv for hv, xv in
                     zip(h, _complex_scale(s.J, proj, x_vec)))
        if any(cand) and not complex_form(s, cand, cand).is_zero():
            u2 = cand
            break
    if u2 is None:
        raise NormalizationFailedError("complex Gram-Schmidt found no second basis vector")
    sigma2 = gaussian_sqrt(complex_form(s, u2, u2))
    if sigma2 is None:
        raise NormalizationFailedError(
            "no rational orthonormal J-basis: <u,u> is not a square in Q(i); "
            "supply the structure in a normalized basis")
    y_vec = _complex_scale(s.J, GaussianRational(Fraction(1)) / sigma2, u2)

    p = Matrix.from_cols([x_vec, s.J.apply(x_vec), y_vec, s.J.apply(y_vec)])
    normalized = transform_structure(s, p)
    if normalized.g != standard_metric(4) or normalized.J != standard_j(4):
        raise NormalizationFailedError("normalization produced a non-standard frame")
    return p, normalized


def verify_isomorphism(phi: Matrix, src: LieAlgebra, dst: LieAlgebra, *,
                       g_src: Optional[Matrix] = None,
                       g_dst: Optional[Matrix] = None,
                       j_src: Optional[Matrix] = None,
                       j_dst: Optional[Matrix] = None) -> bool:
    """phi[x, y]_src = [phi x, phi y]_dst, optionally also requiring phi to
    carry g_src/J_src to g_dst/J_dst.  The bracket test compares the two
    structure tensors with phi contracted in, so phi must be rational
    (ValueError names the first entry that is not)."""
    if src.dim != dst.dim:
        raise DimensionMismatchError("source and target dimensions differ")
    if phi.nrows != src.dim or phi.ncols != src.dim:
        raise DimensionMismatchError("witness matrix has wrong shape")
    if phi.det() == 0:
        return False
    if src.structure.push(phi, 2) != \
            dst.structure.pull(phi, 0).pull(phi, 1):
        return False
    if g_src is not None and phi.transpose() * g_dst * phi != g_src:
        return False
    if j_src is not None and phi * j_src != j_dst * phi:
        return False
    return True


def case1_isomorphism(a, b, eps: int) -> Matrix:
    """Lie-algebra isomorphism mu_{a,b,eps} -> r(-1,-1) (columns act on the
    normalized basis)."""
    a, b, e = Fraction(a), Fraction(b), Fraction(eps)
    return Matrix([
        [-e * a, -e * b, b, -a],
        [e * b, -e * a, a, b],
        [Fraction(0), -e, Fraction(-1), Fraction(0)],
        [e, Fraction(0), Fraction(0), Fraction(-1)],
    ])


def case1_isomorphism_inverse(a, b, eps: int) -> Matrix:
    """Stated closed-form inverse of case1_isomorphism, prefactor 1/(2(a^2+b^2))."""
    a, b, e = Fraction(a), Fraction(b), Fraction(eps)
    n = a * a + b * b
    scale = Fraction(1) / (2 * n)
    return scale * Matrix([
        [-e * a, e * b, Fraction(0), e * n],
        [-e * b, -e * a, -e * n, Fraction(0)],
        [b, a, -n, Fraction(0)],
        [-a, b, Fraction(0), -n],
    ])


def case2_isomorphism(t: Sequence) -> Matrix:
    """Lie-algebra isomorphism mu_t -> aff(C); inverse is transpose/sum(t_i^2)."""
    t1, t2, t3, t4 = (Fraction(x) for x in t)
    return Matrix([
        [t3, -t4, -t1, t2],
        [t4, t3, -t2, -t1],
        [-t1, -t2, -t3, -t4],
        [t2, -t1, t4, -t3],
    ])


def zeta_from_params(t: Sequence) -> GaussianRational:
    """Moduli invariant zeta = (t1 + i t2)^2 + (t3 + i t4)^2."""
    t1, t2, t3, t4 = (Fraction(x) for x in t)
    z1 = GaussianRational(t1, t2)
    z2 = GaussianRational(t3, t4)
    return z1 * z1 + z2 * z2


def orbit_invariant(s: AntiHermitianStructure) -> GaussianRational:
    """zeta of a structure in the bi-invariant family (normalized basis)."""
    coeffs = extract_coefficients(s)
    if not coefficient_matrix(coeffs).is_zero():
        raise ValueError("structure is not in the bi-invariant family")
    return zeta_from_params(coeffs.t[:4])


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict plus verified witness and curvature facts for a dim-4 input."""

    verdict: str
    witness: Optional[Matrix]
    zeta: Optional[GaussianRational]
    flat: bool
    einstein: bool
    einstein_constant: Optional[Fraction]
    ricci_flat: bool
    normalization: Matrix
    case1_params: Optional[tuple] = None
    case2_params: Optional[tuple] = None


def classify(s: AntiHermitianStructure) -> ClassificationReport:
    """Decide abelian / r(-1,-1) / aff(C) for a dim-4 anti-Kahler structure.

    The verdict is re-verified through verify_isomorphism and cross-checkable
    against the derived-algebra dimension (0 / 3 / 2 respectively).
    """
    if s.dim != 4:
        raise DimensionMismatchError("classification is only defined in dimension 4")
    if not is_anti_kahler(s):
        raise NotAntiKahlerError("structure is not anti-Kahler")
    p, normalized = normalize_basis(s)
    p_inv = p.inverse()
    coeffs = extract_coefficients(normalized)
    a_matrix = coefficient_matrix(coeffs)

    flat = is_flat(s)
    einstein, lam = is_einstein(s)
    ricci_flat = is_ricci_flat(s)

    if a_matrix.is_zero():
        t = coeffs.t[:4]
        if not any(t):
            witness = Matrix.identity(4)
            if not verify_isomorphism(witness, s.algebra, LieAlgebra.abelian(4)):
                raise WitnessDerivationError("abelian witness failed verification")
            return ClassificationReport(
                VERDICT_ABELIAN, witness, None, flat, einstein, lam, ricci_flat, p)
        witness = case2_isomorphism(t) * p_inv
        if not verify_isomorphism(witness, s.algebra, aff_c_real()):
            raise WitnessDerivationError("stated aff(C) witness failed verification")
        return ClassificationReport(
            VERDICT_AFF, witness, zeta_from_params(t), flat, einstein, lam,
            ricci_flat, p, case2_params=t)

    a, b, eps = _case1_parameters(coeffs)
    witness = case1_isomorphism(a, b, eps) * p_inv
    if not verify_isomorphism(witness, s.algebra, r_minus_one_minus_one()):
        raise WitnessDerivationError("stated r(-1,-1) witness failed verification")
    return ClassificationReport(
        VERDICT_R, witness, None, flat, einstein, lam, ricci_flat, p,
        case1_params=(a, b, eps))


def _case1_parameters(coeffs: NormalizedCoefficients) -> tuple:
    """Derive (a, b, eps) with the kernel-vector parallelism argument.

    The four coefficient vectors of the Jacobi relations all lie in the
    one-dimensional kernel of A; the first nonzero one is the reference and
    the remaining relations are asserted rather than assumed.
    """
    t1, t2, t3, t4, t5, t6, t7, t8 = coeffs.t
    v1 = (-t1 - t8, t1 - t8, t3, t4)
    v2 = (t2 - t7, t2 + t7, t5, t6)
    v3 = (t6 - t3, t3 + t6, -t1, t2)
    v4 = (t4 + t5, t4 - t5, t7, -t8)
    vectors = (v1, v2, v3, v4)
    reference = next((v for v in vectors if any(v)), None)
    if reference is None:
        raise NotAntiKahlerError("degenerate case-1 input: no kernel vector")

    def parallel(u, v):
        return all(u[p] * v[q] == u[q] * v[p]
                   for p in range(4) for q in range(p + 1, 4))

    if not all(parallel(reference, v) for v in vectors):
        raise NotAntiKahlerError("kernel vectors of A are not parallel")
    if not (t3 == 0 and t1 == 0 and t5 == 0 and t7 == 0):
        raise NotAntiKahlerError("case-1 relations t1 = t3 = t5 = t7 = 0 fail")
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    if not (a == t2 and b == t8 and c == -t4 and d == -t6):
        raise NotAntiKahlerError("case-1 coefficient identities fail")

    # A != 0, so at most one eps satisfies both
    candidates = [e for e in (1, -1) if c == e * b and d == -e * a]
    if not candidates:
        raise NotAntiKahlerError("no eps = +-1 satisfies c = eps b, d = -eps a")
    return a, b, candidates[0]


@dataclass(frozen=True)
class EquivalenceWitness:
    """(g, J)-preserving isomorphism between two family members."""

    matrix: Matrix
    printed_inverse_consistent: Optional[bool] = None


def equivalence_witness_case1(a, b, eps: int) -> EquivalenceWitness:
    """Structure-preserving isomorphism mu_{1,0,+1} -> mu_{a,b,eps}.

    The stated matrix (prefactor 1/(2(a^2+b^2)), r = a^2+b^2+1,
    s = a^2+b^2-1) is returned only after it is verified exactly; a failed
    verification raises WitnessDerivationError.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise DegenerateParametersError("(a, b) must not both vanish")
    e = Fraction(eps)
    n = a * a + b * b
    r = n + 1
    t = n - 1
    scale = Fraction(1) / (2 * n)
    phi = scale * Matrix([
        [e * r * a, e * t * b, e * r * b, -e * t * a],
        [-e * t * b, e * r * a, e * t * a, e * r * b],
        [-r * b, t * a, r * a, t * b],
        [-t * a, -r * b, -t * b, r * a],
    ])
    phi_inv_printed = scale * Matrix([
        [e * r * a, e * t * b, -r * b, t * a],
        [-e * t * b, e * r * a, -t * a, -r * b],
        [e * r * b, -e * t * a, r * a, t * b],
        [e * t * a, e * r * b, -t * b, r * a],
    ])
    inverse_consistent = (phi * phi_inv_printed == Matrix.identity(4))

    src = make_family_case1(1, 0, 1)
    dst = make_family_case1(a, b, eps)
    if not verify_isomorphism(phi, src.algebra, dst.algebra,
                              g_src=src.g, g_dst=dst.g, j_src=src.J, j_dst=dst.J):
        raise WitnessDerivationError("stated case-1 equivalence witness failed verification")
    return EquivalenceWitness(phi, inverse_consistent)


def equivalent_case2(t: Sequence, t_other: Sequence) -> bool:
    """Family members are equivalent exactly when their zeta values agree."""
    return zeta_from_params(t) == zeta_from_params(t_other)


def _realify(rows: Sequence[Sequence]) -> Matrix:
    """The m x m matrix X + iY over Q(i), given by rows of Q(i) scalars, as the
    rational 2m x 2m block in the J-adapted basis: entry z becomes
    [[Re z, -Im z], [Im z, Re z]].  Realification is an injective ring
    homomorphism whose determinant is |det(X + iY)|^2, so products, inverses
    and nonzero tests carry over exactly."""
    out = []
    for row in rows:
        zs = [GaussianRational.of(x) for x in row]
        out.append([p for z in zs for p in (z.re, -z.im)])
        out.append([p for z in zs for p in (z.im, z.re)])
    return Matrix(out)


def _phi_scaling(z: GaussianRational) -> Matrix:
    """Realified isometry scaling the isotropic direction X + iY by z (and
    X - iY by 1/z)."""
    one = GaussianRational(Fraction(1))
    p = (z + one / z) * GaussianRational(Fraction(1, 2))
    q = _I * (z - one / z) * GaussianRational(Fraction(1, 2))
    return _realify([[p, -q], [q, p]])


def _zeta_zero_anchor_map(t: Sequence) -> Matrix:
    """Realified isometry carrying mu_{(1,0,0,1)} to mu_t when zeta(t) = 0.

    On the isotropic orbit (z1, z2) = z (1, i) or z (1, -i) with z = z1; the
    first branch is the scaling by z, the second composes the swap of the
    isotropic directions X +- iY, diag(1, -1) in the {X, Y} frame, with the
    scaling by -1/z (the swap has determinant -1, which re-enters the family
    action as a sign on the parameters).
    """
    t1, t2, t3, t4 = (Fraction(x) for x in t)
    z1 = GaussianRational(t1, t2)
    z2 = GaussianRational(t3, t4)
    if z2 == _I * z1:
        return _phi_scaling(z1)
    if z2 == -_I * z1:
        return _phi_scaling(-GaussianRational(Fraction(1)) / z1) * _realify([[1, 0], [0, -1]])
    raise InequivalentParametersError("parameters do not lie on the zeta = 0 orbit")


def case2_equivalence_witness(t: Sequence, t_other: Sequence) -> Matrix:
    """Verified (g, J, bracket)-preserving witness mu_t -> mu_{t'}.

    zeta != 0: map matching the orthogonal frames {z1 X + z2 Y, -z2 X + z1 Y}.
    zeta = 0: composition of the isotropic scaling and swap isometries
    through the anchor parameters (1, 0, 0, 1).  Both are built from
    realified Q(i) maps.
    """
    if not equivalent_case2(t, t_other):
        raise InequivalentParametersError("zeta invariants differ")
    zeta = zeta_from_params(t)
    t_fr = tuple(Fraction(x) for x in t)
    t2_fr = tuple(Fraction(x) for x in t_other)
    z1, z2 = GaussianRational(t_fr[0], t_fr[1]), GaussianRational(t_fr[2], t_fr[3])
    w1, w2 = GaussianRational(t2_fr[0], t2_fr[1]), GaussianRational(t2_fr[2], t2_fr[3])
    if not zeta.is_zero():
        witness = _realify([[w1, -w2], [w2, w1]]) * _realify([[z1, -z2], [z2, z1]]).inverse()
    else:
        witness = _zeta_zero_anchor_map(t_other) * _zeta_zero_anchor_map(t).inverse()

    src = make_family_case2(*t_fr)
    dst = make_family_case2(*t2_fr)
    if not verify_isomorphism(witness, src.algebra, dst.algebra,
                              g_src=src.g, g_dst=dst.g, j_src=src.J, j_dst=dst.J):
        raise WitnessDerivationError("case-2 equivalence witness failed verification")
    return witness


@dataclass(frozen=True)
class Case2Curvature:
    """Closed-form curvature data of the bi-invariant family."""

    zeta: GaussianRational
    r_xy: Matrix
    ricci_operator: Matrix
    flat: bool
    einstein: bool
    einstein_constant: Optional[Fraction]
    ricci_flat: bool


def closed_form_curvature_case2(t: Sequence) -> Case2Curvature:
    """Curvature of mu_t from zeta alone.

    H = [[Re zeta, -Im zeta], [Im zeta, Re zeta]]; R(X, Y) = [[0, -H], [H, 0]]
    and Ric = -2 diag(H, H) under the fixed curvature convention.  Flat iff
    zeta = 0, Einstein iff Im zeta = 0 with constant -2 zeta, and Ricci-flat
    only when flat.
    """
    zeta = zeta_from_params(t)
    re, im = zeta.re, zeta.im
    zero = Fraction(0)
    r_xy = Matrix([
        [zero, zero, -re, im],
        [zero, zero, -im, -re],
        [re, -im, zero, zero],
        [im, re, zero, zero],
    ])
    ric = Matrix([
        [-2 * re, 2 * im, zero, zero],
        [-2 * im, -2 * re, zero, zero],
        [zero, zero, -2 * re, 2 * im],
        [zero, zero, -2 * im, -2 * re],
    ])
    flat = zeta.is_zero()
    einstein = (im == 0)
    return Case2Curvature(
        zeta=zeta,
        r_xy=r_xy,
        ricci_operator=ric,
        flat=flat,
        einstein=einstein,
        einstein_constant=(-2 * re) if einstein else None,
        ricci_flat=flat,
    )
