"""verify_isomorphism, transform_algebra and preserves_complexified_form
against the basis-pair loops they replaced, which are kept here as the
reference.

Inputs are seeded stream structures at dims 4 and 6, maps drawn from
GL(n, Q), the same maps with one entry changed, singular maps, genuine
isometries of (g, J) conjugated by a random basis change, and maps that
keep only one of g and J^T g.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antikahler.classify4 import (
    standard_j,
    standard_metric,
    transform_algebra,
    transform_structure,
    verify_isomorphism,
)
from antikahler.geometry import (
    AntiHermitianStructure,
    complex_form,
    preserves_complexified_form,
    preserves_metric_and_j,
)
from antikahler.liealg import LieAlgebra
from antikahler.scalars import (
    DimensionMismatchError,
    GaussianRational,
    Matrix,
    SingularMatrixError,
    basis_vector,
)
from antikahler.verifier import _standard_pair_isometry, random_invertible_matrix
from corpora import structures

# ---------------------------------------------------------------------------
# reference implementations, one Fraction bracket or form value per basis pair


def reference_verify_isomorphism(phi, src, dst, *, g_src=None, g_dst=None,
                                 j_src=None, j_dst=None):
    if src.dim != dst.dim:
        raise DimensionMismatchError("source and target dimensions differ")
    if phi.nrows != src.dim or phi.ncols != src.dim:
        raise DimensionMismatchError("witness matrix has wrong shape")
    if phi.det() == 0:
        return False
    n = src.dim
    for i in range(n):
        for j in range(i + 1, n):
            if phi.apply(src.bracket_basis(i, j)) != dst.bracket(phi.col(i), phi.col(j)):
                return False
    if g_src is not None and phi.transpose() * g_dst * phi != g_src:
        return False
    if j_src is not None and phi * j_src != j_dst * phi:
        return False
    return True


def reference_transform_algebra(alg, p):
    p_inv = p.inverse()
    n = alg.dim
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = p_inv.apply(alg.bracket(p.col(i), p.col(j)))
            if any(vec):
                brackets[(i, j)] = vec
    return LieAlgebra.from_brackets(n, brackets)


def reference_is_isometry(s, t):
    n = s.dim
    cols = [t.col(i) for i in range(n)]
    return all(complex_form(s, cols[i], cols[j]) ==
               complex_form(s, basis_vector(n, i), basis_vector(n, j))
               for i in range(n) for j in range(i, n))


# ---------------------------------------------------------------------------
# inputs


def nudged(m, rng):
    """m with one entry changed by a nonzero rational."""
    rows = [list(row) for row in m.rows]
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows[i][j] += Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    return Matrix(rows)


def singular(m, rng):
    """m with one column replaced by a rational combination of two others
    (or by zero), so det = 0."""
    cols = [list(m.col(j)) for j in range(m.ncols)]
    k, a, b = rng.sample(range(m.ncols), 3)
    x, y = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    cols[k] = [x * u + y * v for u, v in zip(cols[a], cols[b])]
    return Matrix.from_cols(cols)


def standard_pair_isometry(rng, n):
    """The verifier's realified complex rotation on the first two J-planes
    of the standard pair, the identity elsewhere; it preserves g and J."""
    rotation = _standard_pair_isometry(rng, 3).rows
    return Matrix([list(rotation[i]) + [Fraction(0)] * (n - 4) if i < 4 else
                   [Fraction(int(i == j)) for j in range(n)] for i in range(n)])


MAPS = ("exact", "nudged", "singular", "identity", "inverse")


# ---------------------------------------------------------------------------
# tests


class TestVerifyIsomorphism:
    @given(structures(dims=(4, 6)), st.integers(0, 10**6), st.sampled_from(MAPS))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, dst, seed, kind):
        """P carries transform_structure(dst, P) onto dst; the other maps are
        near misses, singular maps, and identity and inverse maps."""
        rng = random.Random(seed)
        p = random_invertible_matrix(rng, dst.dim, 2)
        src = transform_structure(dst, p)
        phi = {"exact": lambda: p, "nudged": lambda: nudged(p, rng),
               "singular": lambda: singular(p, rng),
               "identity": lambda: Matrix.identity(dst.dim),
               "inverse": lambda: p.inverse()}[kind]()
        if kind == "inverse":
            src, dst = dst, src
        for a, b in ((src, dst), (dst, dst)):
            for forms in ({}, {"g_src": a.g, "g_dst": b.g, "j_src": a.J, "j_dst": b.J}):
                got = verify_isomorphism(phi, a.algebra, b.algebra, **forms)
                assert got == reference_verify_isomorphism(phi, a.algebra, b.algebra, **forms)
        if kind in ("exact", "inverse"):
            assert verify_isomorphism(phi, src.algebra, dst.algebra, g_src=src.g,
                                      g_dst=dst.g, j_src=src.J, j_dst=dst.J)
        if kind == "singular":
            assert not verify_isomorphism(phi, src.algebra, dst.algebra)
        if kind == "identity":
            assert verify_isomorphism(phi, dst.algebra, dst.algebra, g_src=dst.g,
                                      g_dst=dst.g, j_src=dst.J, j_dst=dst.J)

    def test_gaussian_map_names_the_entry(self):
        alg = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
        phi = Matrix([[GaussianRational(Fraction(0), Fraction(1)), Fraction(0)],
                      [Fraction(0), Fraction(1)]])
        with pytest.raises(ValueError, match=r"entry \(0, 0\) is GaussianRational"):
            verify_isomorphism(phi, alg, alg)


class TestTransformAlgebra:
    @given(structures(dims=(4, 6)), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, s, seed):
        rng = random.Random(seed)
        p = random_invertible_matrix(rng, s.dim, 3)
        got = transform_algebra(s.algebra, p)
        assert got == reference_transform_algebra(s.algebra, p)
        assert all(type(x) is Fraction for vec in got.nonzero_brackets().values() for x in vec)
        for bad in (singular(p, rng), Matrix.zeros(s.dim, s.dim)):
            with pytest.raises(SingularMatrixError):
                transform_algebra(s.algebra, bad)


class TestPreservesComplexifiedForm:
    @given(structures(dims=(4, 6)), st.integers(0, 10**6),
           st.sampled_from(("random", "nudged", "singular", "identity", "negated")))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_stream(self, s, seed, kind):
        rng = random.Random(seed)
        n = s.dim
        t = {"random": lambda: random_invertible_matrix(rng, n, 2),
             "nudged": lambda: nudged(Matrix.identity(n), rng),
             "singular": lambda: singular(random_invertible_matrix(rng, n, 2), rng),
             "identity": lambda: Matrix.identity(n),
             "negated": lambda: -Matrix.identity(n)}[kind]()
        got = preserves_complexified_form(s, t)
        assert got == reference_is_isometry(s, t)
        assert got == preserves_metric_and_j(s, t)

    def test_wrong_shape_raises(self):
        s = AntiHermitianStructure(LieAlgebra.abelian(4), standard_metric(4), standard_j(4))
        for t in (Matrix.identity(3), Matrix.identity(5), Matrix.zeros(4, 3)):
            with pytest.raises(DimensionMismatchError):
                preserves_complexified_form(s, t)

    @given(st.sampled_from((4, 6)), st.integers(0, 10**6),
           st.sampled_from(("member", "nudged", "reflection", "swap")))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_members(self, n, seed, kind):
        """Maps P^-1 T P on the pair (P^T g P, P^-1 J P), g and J standard:
        T a standard-pair isometry, the same with one entry changed, and two
        maps that each keep only one part of the form, the reflection
        e_0 -> -e_0 (g, not J^T g) and the swap e_0 <-> e_1 (J^T g, not g)."""
        rng = random.Random(seed)
        p = random_invertible_matrix(rng, n, 2)
        p_inv = p.inverse()
        s = AntiHermitianStructure(LieAlgebra.abelian(n), p.transpose() * standard_metric(n) * p,
                                   p_inv * standard_j(n) * p)
        swap = list(range(n))
        swap[:2] = [1, 0]
        t = {"member": lambda: standard_pair_isometry(rng, n),
             "nudged": lambda: nudged(standard_pair_isometry(rng, n), rng),
             "reflection": lambda: Matrix.diagonal([Fraction(-1)] + [Fraction(1)] * (n - 1)),
             "swap": lambda: Matrix([[Fraction(int(j == swap[i])) for j in range(n)]
                                     for i in range(n)])}[kind]()
        t = p_inv * t * p
        got = preserves_complexified_form(s, t)
        assert got == reference_is_isometry(s, t)
        assert got == preserves_metric_and_j(s, t)
        assert got == (kind == "member")
