"""Independent oracle: Gamma, R and Ricci recomputed with sympy.

The oracle reads only the raw data of a structure (structure constants, g
and J as numbers) and recomputes everything with ``sympy.Matrix`` over
sympy rationals, without calling anything in ``antikahler.geometry``.  The
package's exact results must agree entry for entry.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from antikahler.geometry import AntiHermitianStructure, curvature, levi_civita, ricci
from antikahler.liealg import LieAlgebra
from antikahler.scalars import Matrix
from antikahler.verifier import GeneratorConfig, random_structure


def to_sympy(x):
    return sympy.Rational(x.numerator, x.denominator)


def to_fraction(x):
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def raw_data(s):
    """Structure constants c[i][j] (sympy column vectors), g and J."""
    n = s.dim
    table = {key: [to_sympy(x) for x in vec]
             for key, vec in s.algebra.nonzero_brackets().items()}
    zero = sympy.zeros(n, 1)
    c = [[zero] * n for _ in range(n)]
    for (i, j), vec in table.items():
        c[i][j] = sympy.Matrix(vec)
        c[j][i] = -sympy.Matrix(vec)
    g = sympy.Matrix(n, n, lambda i, j: to_sympy(s.g[i][j]))
    j_map = sympy.Matrix(n, n, lambda i, j: to_sympy(s.J[i][j]))
    return c, g, j_map


def oracle(s):
    """(Gamma_i matrices, R(e_i, e_j) for i < j, Rc, Ric), all in sympy."""
    c, g, _ = raw_data(s)
    n = s.dim
    g_inv = g.inv()

    def low(vec, k):  # g(vec, e_k)
        return (vec.T * g[:, k])[0, 0]

    gammas = []
    for i in range(n):
        rhs = sympy.Matrix(n, n, lambda k, j: (low(c[i][j], k) - low(c[j][k], i)
                                               + low(c[k][i], j)) / 2)
        gammas.append(g_inv * rhs)
    riemann = {}
    for i in range(n):
        for j in range(i + 1, n):
            r = gammas[i] * gammas[j] - gammas[j] * gammas[i]
            for l in range(n):
                r -= c[i][j][l] * gammas[l]
            riemann[(i, j)] = r

    def op(i, j):
        if i == j:
            return sympy.zeros(n, n)
        return riemann[(i, j)] if i < j else -riemann[(j, i)]

    rc = sympy.Matrix(n, n, lambda j, k: sum(op(i, j)[i, k] for i in range(n)))
    return gammas, riemann, rc, g_inv * rc


def assert_same(ours: Matrix, theirs):
    assert ours.nrows == theirs.rows and ours.ncols == theirs.cols
    for a in range(ours.nrows):
        for b in range(ours.ncols):
            assert ours[a][b] == to_fraction(theirs[a, b]), (a, b)


def direct_sum_with_basis_change(first, second, seed):
    """first (+) second, rewritten in a seeded dense rational basis."""
    rng = random.Random(seed)
    n1, n = first.dim, first.dim + second.dim
    c, g, j_map = (sympy.zeros(n, n) for _ in range(3))
    brackets = {}
    for offset, part in ((0, first), (n1, second)):
        pc, pg, pj = raw_data(part)
        g[offset:offset + part.dim, offset:offset + part.dim] = pg
        j_map[offset:offset + part.dim, offset:offset + part.dim] = pj
        for i in range(part.dim):
            for j in range(part.dim):
                vec = sympy.zeros(n, 1)
                vec[offset:offset + part.dim, 0] = pc[i][j]
                brackets[(offset + i, offset + j)] = vec
    while True:
        p = sympy.Matrix(n, n, lambda i, j: sympy.Rational(rng.randint(-2, 2),
                                                           rng.randint(1, 3)))
        if p.det() != 0:
            break
    p_inv = p.inv()
    zero = sympy.zeros(n, 1)
    new_brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            # [P e_i, P e_j] in old coordinates, mapped back by P^-1
            total = zero
            for a in range(n):
                for b in range(n):
                    if p[a, i] and p[b, j] and (a, b) in brackets:
                        total = total + p[a, i] * p[b, j] * brackets[(a, b)]
            vec = p_inv * total
            if any(vec):
                new_brackets[(i, j)] = [to_fraction(x) for x in vec]
    algebra = LieAlgebra.from_brackets(n, new_brackets)
    new_g = p.T * g * p
    new_j = p_inv * j_map * p
    return AntiHermitianStructure(
        algebra,
        Matrix([[to_fraction(new_g[i, j]) for j in range(n)] for i in range(n)]),
        Matrix([[to_fraction(new_j[i, j]) for j in range(n)] for i in range(n)]))


def seeded_structures():
    cases = []
    for dim, indices in ((4, range(6)), (6, (0, 1, 3, 4))):
        config = GeneratorConfig(dim=dim)
        for index in indices:
            cases.append(pytest.param(lambda c=config, k=index: random_structure(c, k),
                                      id=f"dim{dim}-{index}"))
    config = GeneratorConfig(dim=4)
    for seed, (a, b) in enumerate(((1, 2), (3, 5))):
        cases.append(pytest.param(
            lambda a=a, b=b, seed=seed: direct_sum_with_basis_change(
                random_structure(config, a), random_structure(config, b), seed),
            id=f"dim8-{seed}"))
    return cases


@pytest.mark.parametrize("make", seeded_structures())
def test_connection_curvature_and_ricci_match_sympy(make):
    s = make()
    gammas, riemann, rc, ric = oracle(s)
    conn = levi_civita(s).tensor
    for i, gamma in enumerate(gammas):
        assert_same(Matrix.from_cols(conn[i].fractions()), gamma)
    r = curvature(s).tensor
    for (i, j), op in riemann.items():
        assert_same(Matrix.from_cols(r[i, j].fractions()), op)
        assert_same(Matrix.from_cols(r[j, i].fractions()), -op)
    ours_rc, ours_ric = ricci(s)
    assert_same(Matrix(ours_rc.fractions()), rc)
    assert_same(Matrix(ours_ric.fractions()), ric)


def test_dim8_structures_are_dense():
    config = GeneratorConfig(dim=4)
    s = direct_sum_with_basis_change(random_structure(config, 1),
                                     random_structure(config, 2), 0)
    assert s.dim == 8
    assert len(s.algebra.nonzero_brackets()) > 8
    assert sum(1 for row in s.g.rows for x in row if x) > 16
