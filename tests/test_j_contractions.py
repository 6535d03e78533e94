"""The integer J-contraction kernels against tests/reference.py, which
computes each value from its definition in plain Fractions.

Inputs are seeded stream structures (anti-Kahler and generic, dims 4 and
6), optionally after a random rational basis change, so that J and the
structure constants are dense, and the catalog.
"""

import random
from fractions import Fraction

import reference
from corpora import (
    SPECIAL,
    constants,
    fraction_views,
    j_candidates,
    lists,
    raised,
    raw,
    structures,
    tensor3,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from antikahler import catalog
from antikahler.classify4 import aff_c_real, r_minus_one_minus_one
from antikahler.geometry import (
    AntiHermitianStructure,
    _complex_basis,
    curvature,
    curvature_is_pure,
    curvature_j_anticommutes,
    epsilon_parallel_holds,
    is_anti_kahler,
    nabla_j,
    satisfies_abelian_connection_rule,
    satisfies_bi_invariant_connection_rule,
)
from antikahler.liealg import (
    LieAlgebra,
    NotComplexStructureError,
    check_complex_structure,
    is_abelian_j,
    is_anti_abelian_j,
    is_bi_invariant_j,
    nijenhuis,
)
from antikahler.scalars import (
    DimensionMismatchError,
    GaussianRational,
    Matrix,
    format_rational,
    fractions_over,
)
from antikahler.theta import (
    anti_kahler_via_theta,
    theta_bracket_form,
    theta_connection_form,
    theta_is_pure,
    theta_is_skew,
)
from antikahler.verifier import (
    GeneratorConfig,
    _well_conditioned,
    random_anti_hermitian_metric,
    random_complex_structure,
    random_gaussian_rational,
    random_structure,
)

# ---------------------------------------------------------------------------
# references that pin a route or a behaviour rather than a value


def ref_check_complex_structure(j_map):
    """J^2 = -I by Fraction Matrix products, as check_complex_structure
    tested it before it moved to the integer J."""
    if not j_map.is_square():
        raise NotComplexStructureError("J must be square")
    n = j_map.nrows
    if j_map * j_map != -Matrix.identity(n):
        raise NotComplexStructureError("J^2 != -I")


def ref_component_texts(r):
    return [[[[format_rational(x) for x in row] for row in block] for block in plane]
            for plane in r.fractions()]


def gaussian_det(rows):
    """Determinant of a square matrix over Q(i) by cofactor expansion along
    the first row, in GaussianRational arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    total = GaussianRational(Fraction(0))
    for j, z in enumerate(rows[0]):
        term = z * gaussian_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def ref_random_metric(algebra, j_map, rng, bound=4, max_tries=200):
    """The generator's metric assembly as a GaussianRational triple loop,
    with S nondegenerate by its cofactor determinant over Q(i)."""
    n = algebra.dim
    m = n // 2
    basis = _complex_basis(j_map)
    frame = Matrix.from_cols([v for f in basis for v in (f, j_map.apply(f))])
    frame_inv = frame.inverse()
    for _ in range(max_tries):
        gram = [[None] * m for _ in range(m)]
        for p in range(m):
            for q in range(p, m):
                z = random_gaussian_rational(rng, bound)
                gram[p][q] = gram[q][p] = z
        real_part = Matrix([[z.re for z in row] for row in gram])
        if not _well_conditioned(real_part) or gaussian_det(gram).is_zero():
            continue
        coords = [tuple(GaussianRational(frame_inv.col(i)[2 * p], frame_inv.col(i)[2 * p + 1])
                        for p in range(m)) for i in range(n)]
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                total = GaussianRational(Fraction(0))
                for p in range(m):
                    if coords[i][p].is_zero():
                        continue
                    for q in range(m):
                        total = total + coords[i][p] * coords[j][q] * gram[p][q]
                row.append(total.re)
            rows.append(row)
        g = Matrix(rows)
        if _well_conditioned(g) and g.det() != 0:
            return AntiHermitianStructure(algebra, g, j_map)
    raise RuntimeError("exhausted retries")


# ---------------------------------------------------------------------------
# inputs


@st.composite
def algebras_with_j(draw):
    """A catalog or dim-4 algebra with a random complex structure."""
    algebra = draw(st.sampled_from((
        r_minus_one_minus_one(), aff_c_real(), LieAlgebra.abelian(4),
        catalog.get("n7_J-1").structure.algebra,
        catalog.get("sl2c_killing").structure.algebra,
        LieAlgebra.from_brackets(4, {(0, 1): {2: 1}}))))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return algebra, random_complex_structure(rng, algebra.dim, 2)


J_TEST_ALGEBRAS = (LieAlgebra.from_brackets(2, {(0, 1): {1: 1}}), r_minus_one_minus_one(),
                   aff_c_real(), catalog.get("n7_J-1").structure.algebra)


# ---------------------------------------------------------------------------
# tests


def numbers_and_curvature(s):
    """(g, j, R) of s, R from the reference connection."""
    c, g, j = raw(s)
    return g, j, reference.curvature(c, reference.christoffel(c, g))


class TestCurvatureContractions:
    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_purity(self, s):
        g, j, r = numbers_and_curvature(s)
        assert curvature_is_pure(s) == reference.curvature_is_pure(r, g, j)

    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_j_anticommutes(self, s):
        _, j, r = numbers_and_curvature(s)
        assert curvature_j_anticommutes(s) == reference.curvature_j_anticommutes(r, j)

    def test_catalog(self):
        for s in SPECIAL:
            g, j, r = numbers_and_curvature(s)
            assert curvature_is_pure(s) == reference.curvature_is_pure(r, g, j)
            assert curvature_j_anticommutes(s) == reference.curvature_j_anticommutes(r, j)

    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_component_texts(self, s):
        r = curvature(s)
        with fraction_views() as views:
            texts = r.tensor.texts()
        assert views == [] and r._fraction_ops is None
        assert texts == ref_component_texts(r.tensor)

    def test_check_builds_no_fraction_operators(self):
        s = random_structure(GeneratorConfig(dim=6), 3)
        with fraction_views() as views:
            curvature_is_pure(s)
            curvature_j_anticommutes(s)
        assert views == [] and curvature(s)._fraction_ops is None
        assert Matrix.from_cols(curvature(s).tensor[0, 1].fractions()) == curvature(s)._ops[(0, 1)]


class TestThetaContractions:
    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_forms_match(self, s):
        c, g, j = raw(s)
        conn_form, bracket_form = theta_connection_form(s), theta_bracket_form(s)
        assert lists(conn_form) == reference.theta_from_d(g, j, reference.christoffel(c, g))
        assert lists(bracket_form) == reference.theta(c, g, j)
        assert all(type(x) is Fraction for form in (conn_form, bracket_form)
                   for plane in form.fractions() for row in plane for x in row)

    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_skew_and_pure(self, s):
        c, g, j = raw(s)
        theta = theta_connection_form(s)
        assert theta_is_pure(theta, s.J) == reference.is_pure(lists(theta), j)
        want = reference.theta(c, g, j)
        assert anti_kahler_via_theta(s) == (reference.is_skew(want)
                                            and reference.is_pure(want, j))

    def test_pure_on_a_non_skew_tensor(self):
        s = catalog.get("sl2c_killing").structure
        rng = random.Random(7)
        entries = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)]
                    for _ in range(6)] for _ in range(6)]
        theta = tensor3(entries)
        assert theta_is_pure(theta, s.J) == reference.is_pure(entries, lists(s.J))
        # g(x, y) f(z): J moves between the first two slots (g(Jx, y) = g(x, Jy)), not the third
        g, j = lists(s.g), lists(s.J)
        half = [[[g[a][b] * (k == 0) for k in range(6)] for b in range(6)] for a in range(6)]
        assert reference.with_j(half, j, 0) == reference.with_j(half, j, 1)
        assert not theta_is_pure(tensor3(half), s.J) and not reference.is_pure(half, j)
        zero = tensor3([[[Fraction(0)] * 6] * 6] * 6)
        assert theta_is_pure(zero, s.J) and theta_is_skew(zero)


class TestLieContractions:
    @given(algebras_with_j())
    @settings(max_examples=60, deadline=None)
    def test_nijenhuis_and_j_tests(self, case):
        algebra, j = case
        self.assert_matches(algebra, j)

    def test_catalog(self):
        """Catalog structures with their own J: abelian, bi-invariant and others."""
        for s in SPECIAL:
            self.assert_matches(s.algebra, s.J)

    @staticmethod
    def assert_matches(algebra, j):
        c, jl = constants(algebra), lists(j)
        table = nijenhuis(algebra, j)
        want = reference.nijenhuis(c, jl)
        assert lists(table) == want
        assert table.is_zero() == reference.is_zero(want)
        assert is_abelian_j(algebra, j) == reference.is_abelian_j(c, jl)
        assert is_anti_abelian_j(algebra, j) == reference.is_abelian_j(c, jl, sign=-1)
        assert is_bi_invariant_j(algebra, j) == reference.is_bi_invariant_j(c, jl)

    @given(j_candidates(), st.sampled_from(J_TEST_ALGEBRAS))
    @settings(max_examples=150, deadline=None)
    def test_j_square_check(self, j, algebra):
        """check_complex_structure and the J tests reject J exactly as the
        Fraction check does, with its message; the J tests only then check J
        against the algebra's dimension."""
        try:
            ref_check_complex_structure(j)
            want = None if j.nrows == algebra.dim else (
                DimensionMismatchError, "J must be dim x dim")
        except NotComplexStructureError as exc:
            want = NotComplexStructureError, str(exc)
        if want is None or want[0] is DimensionMismatchError:
            ints, ints_t, den = check_complex_structure(j)
            assert Matrix(fractions_over(ints, den)) == j
            assert ints_t == [list(col) for col in zip(*ints)]
        else:
            assert raised(check_complex_structure, j) == want
        for fn in (nijenhuis, is_abelian_j, is_bi_invariant_j, is_anti_abelian_j):
            assert raised(fn, algebra, j) == want

    @given(structures(dims=(4, 6)))
    @settings(max_examples=40, deadline=None)
    def test_killing_form(self, s):
        got = s.algebra.killing_form()
        assert lists(got) == reference.killing(constants(s.algebra))
        assert all(type(x) is Fraction for row in got.rows for x in row)


class TestConnectionContractions:
    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_direction_rules_and_epsilon(self, s):
        c, g, j = raw(s)
        gamma = reference.christoffel(c, g)
        nj = reference.nabla_j(gamma, j)
        assert lists(nabla_j(s)) == nj
        assert is_anti_kahler(s) == reference.is_zero(nj)
        assert satisfies_abelian_connection_rule(s) == reference.j_direction_rule(gamma, j, -1)
        assert satisfies_bi_invariant_connection_rule(s) == reference.j_direction_rule(gamma, j, 1)
        for eps in (1, -1):
            assert epsilon_parallel_holds(s, eps) == reference.j_direction_rule(nj, j, eps)


class TestGeneratorAssembly:
    @given(st.integers(0, 10**6), st.sampled_from((4, 6)))
    @settings(max_examples=30, deadline=None)
    def test_metric_matches_triple_loop(self, seed, dim):
        rng = random.Random(seed)
        algebra = LieAlgebra.abelian(dim)
        j = random_complex_structure(rng, dim, 3)
        state = random.Random(seed + 1).getstate()
        got_rng, want_rng = random.Random(), random.Random()
        got_rng.setstate(state)
        want_rng.setstate(state)
        got = random_anti_hermitian_metric(algebra, j, got_rng, 3)
        want = ref_random_metric(algebra, j, want_rng, 3)
        assert got.g == want.g
        assert [str(x) for row in got.g.rows for x in row] == \
            [str(x) for row in want.g.rows for x in row]
        assert got_rng.getstate() == want_rng.getstate()
