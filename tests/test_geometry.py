from fractions import Fraction

import pytest
from corpora import SPECIAL, fresh

from antikahler import catalog
from antikahler.classify4 import (
    make_family_case1,
    make_family_case2,
    standard_j,
    standard_metric,
)
from antikahler.geometry import (
    AntiHermitianStructure,
    BadJSquareError,
    Connection,
    NotAntiIsometryError,
    SingularMetricError,
    _complex_basis,
    abelian_j_connection,
    complex_form,
    curvature,
    curvature_is_pure,
    curvature_j_anticommutes,
    epsilon_parallel_holds,
    is_anti_kahler,
    is_bi_invariant_metric,
    is_einstein,
    is_flat,
    is_ricci_flat,
    killing_anti_invariant,
    levi_civita,
    nabla_j,
    preserves_complexified_form,
    preserves_metric_and_j,
    ricci,
    satisfies_abelian_connection_rule,
    satisfies_bi_invariant_connection_rule,
    second_derivatives_commute,
    twin_metric,
)
from antikahler.liealg import LieAlgebra
from antikahler.scalars import GaussianRational, Matrix, basis_vector, signature
from antikahler.theta import anti_kahler_via_theta, theta_connection_form
from antikahler.verifier import GeneratorConfig, random_structure


def sample_structures():
    yield from SPECIAL
    cfg = GeneratorConfig(master_seed=31415, samples=8, dim=4)
    for i in range(8):
        yield random_structure(cfg, i)
    cfg6 = GeneratorConfig(master_seed=2718, samples=4, dim=6)
    for i in range(4):
        yield random_structure(cfg6, i)


class TestValidation:
    def test_bad_j_square(self):
        with pytest.raises(BadJSquareError):
            AntiHermitianStructure(LieAlgebra.abelian(4), standard_metric(4),
                                   Matrix.identity(4))

    def test_not_anti_isometry(self):
        with pytest.raises(NotAntiIsometryError):
            AntiHermitianStructure(LieAlgebra.abelian(4), Matrix.identity(4),
                                   standard_j(4))

    def test_singular_metric(self):
        with pytest.raises(SingularMetricError):
            AntiHermitianStructure(LieAlgebra.abelian(4), Matrix.zeros(4, 4),
                                   standard_j(4))

    def test_non_symmetric_metric(self):
        g = Matrix([[0, 1, 0, 0], [0, 0, 0, 0],
                    [0, 0, 0, 1], [0, 0, 0, 0]]).map(Fraction)
        with pytest.raises(NotAntiIsometryError):
            AntiHermitianStructure(LieAlgebra.abelian(4), g, standard_j(4))

    def test_neutral_signature_forced(self):
        for s in sample_structures():
            n = s.dim
            assert signature(s.g) == (n // 2, n // 2, 0)


class TestLeviCivita:
    def test_n7_printed_coefficients(self):
        s = catalog.get("n7_J-1").structure
        conn = levi_civita(s)
        half = Fraction(1, 2)
        expected = {
            (0, 0): {2: -half},
            (0, 1): {3: half},
            (0, 2): {4: Fraction(1)},
            (0, 3): {5: Fraction(1)},
            (1, 0): {3: -half},
            (1, 1): {2: -half},
            (1, 2): {5: Fraction(1)},
            (1, 3): {4: -Fraction(1)},
        }
        for (i, j), terms in expected.items():
            want = [Fraction(0)] * 6
            for k, c in terms.items():
                want[k] = c
            assert conn.tensor[i, j].fractions() == tuple(want)

    def test_abelian_zero_connection(self):
        s = catalog.get("abelian4").structure
        conn = levi_civita(s)
        assert conn.tensor.is_zero()

    def test_case2_printed_coefficients(self):
        # t = (1, 0, 0, 0): nabla_X X = -Y
        s = make_family_case2(1, 0, 0, 0)
        conn = levi_civita(s)
        assert conn.tensor[0, 0].fractions() == (0, 0, -1, 0)

    def test_case1_printed_coefficients(self):
        # nabla_X X = -a JY, nabla_X Y = a JX, nabla_Y Y = -eps b JX
        for (a, b, eps) in ((1, 2, 1), (Fraction(1, 2), -1, -1)):
            s = make_family_case1(a, b, eps)
            conn = levi_civita(s)
            assert conn.tensor[0, 0].fractions() == (0, 0, 0, Fraction(-a))
            assert conn.tensor[0, 2].fractions() == (0, Fraction(a), 0, 0)
            assert conn.tensor[2, 2].fractions() == (0, Fraction(-eps) * Fraction(b), 0, 0)

    def test_koszul_laws(self):
        for s in sample_structures():
            conn = levi_civita(s)
            n = s.dim
            for i in range(n):
                gm = s.g * Matrix.from_cols(conn.tensor[i].fractions())
                assert gm.transpose() == -gm  # metric compatibility
            for i in range(n):
                for j in range(i + 1, n):
                    diff = tuple(conn.tensor[i, j, k] - conn.tensor[j, i, k]
                                 for k in range(n))
                    assert diff == s.algebra.bracket_basis(i, j)  # torsion-free

    def test_nabla_j_always_g_symmetric(self):
        for s in sample_structures():
            for cols in nabla_j(s).fractions():
                op = Matrix.from_cols(cols)
                assert op.transpose() * s.g == s.g * op


class TestAntiKahler:
    def test_catalog_flags(self):
        for name in catalog.list_names():
            entry = catalog.get(name)
            assert is_anti_kahler(entry.structure) == entry.expected["anti_kahler"]

    def test_heisenberg_like_not_anti_kahler(self):
        alg = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
        s = AntiHermitianStructure(alg, standard_metric(4), standard_j(4))
        assert not is_anti_kahler(s)

    def test_epsilon_parallelism_iff(self):
        for s in sample_structures():
            ak = is_anti_kahler(s)
            assert epsilon_parallel_holds(s, 1) == ak
            assert epsilon_parallel_holds(s, -1) == ak

    def test_connection_rules_directions(self):
        n7 = catalog.get("n7_J-1").structure
        assert satisfies_abelian_connection_rule(n7)
        assert not satisfies_bi_invariant_connection_rule(n7)
        sl2c = catalog.get("sl2c_killing").structure
        assert satisfies_bi_invariant_connection_rule(sl2c)
        assert not satisfies_abelian_connection_rule(sl2c)

    def test_abelian_connection_formula(self):
        n7 = catalog.get("n7_J-1").structure
        assert levi_civita(n7).tensor == abelian_j_connection(n7)
        assert second_derivatives_commute(n7)


class TestCurvature:
    def test_flat_cases(self):
        assert is_flat(catalog.get("n7_J-1").structure)
        assert is_flat(catalog.get("abelian4").structure)
        assert is_flat(make_family_case1(3, Fraction(-1, 2), -1))
        assert is_flat(make_family_case2(1, 0, 0, 1))  # zeta = 0

    def test_case2_r_xy_block(self):
        # zeta = 1: R(X, Y) maps X -> Y, JX -> JY, Y -> -X, JY -> -JX
        s = make_family_case2(1, 0, 0, 0)
        r = curvature(s)
        assert Matrix.from_cols(r.tensor[0, 2].fractions()) == Matrix.from_cols(
            [(0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)]).map(Fraction)

    def test_symmetries(self):
        for s in sample_structures():
            r = curvature(s).tensor
            n = s.dim
            for i in range(n):
                for j in range(i + 1, n):
                    assert r[j, i] == -r[i, j]
            # pair symmetry and first Bianchi on a fixed sweep
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        for l in range(n):
                            assert r[i, j, k].pull(s.g, 0)[l] == r[k, l, i].pull(s.g, 0)[j]
                        bianchi = tuple(r[i, j, k, m] + r[j, k, i, m] + r[k, i, j, m]
                                        for m in range(n))
                        assert bianchi == tuple([Fraction(0)] * n)

    def test_sl2c_quarter_bracket(self):
        s = catalog.get("sl2c_killing").structure
        r = curvature(s)
        alg = s.algebra
        for i in range(6):
            for j in range(i + 1, 6):
                w = alg.bracket_basis(i, j)
                for k in range(6):
                    expected = tuple(Fraction(-1, 4) * x
                                     for x in alg.bracket(w, basis_vector(6, k)))
                    assert r.tensor[i, j, k].fractions() == expected

    def test_reads_below_the_diagonal(self):
        for s in sample_structures():
            r = curvature(s).tensor
            n = s.dim
            for i in range(n):
                for j in range(i):
                    for k in range(n):
                        col = r[i, j, k].fractions()
                        lowered, mirror = r[i, j, k].pull(s.g, 0), r[j, i, k].pull(s.g, 0)
                        for l in range(n):
                            assert r[i, j, k, l] == -r[j, i, k, l]
                            assert lowered[l] == s.metric(col, basis_vector(n, l))
                            assert lowered[l] == -mirror[l]
            assert r[1, 1, 0, 0] == 0 and r[1, 1, 0].pull(s.g, 0)[0] == 0

    def test_purity_for_anti_kahler(self):
        for s in sample_structures():
            if is_anti_kahler(s):
                assert curvature_is_pure(s)
                assert curvature_j_anticommutes(s)


class TestMemo:
    def test_own_connection_uses_memo(self, monkeypatch):
        """Every derived object reads the one memoized Levi-Civita connection."""
        built = []
        init = Connection.__init__
        monkeypatch.setattr(Connection, "__init__",
                            lambda self, gamma: built.append(gamma) or init(self, gamma))
        s = fresh(catalog.get("sl2c_killing").structure)
        assert curvature(s) is curvature(s)
        assert ricci(s) is ricci(s)
        nabla_j(s)
        theta_connection_form(s)
        satisfies_abelian_connection_rule(s)
        satisfies_bi_invariant_connection_rule(s)
        epsilon_parallel_holds(s, 1)
        second_derivatives_commute(s)
        anti_kahler_via_theta(s)
        assert len(built) == 1 and levi_civita(s) is levi_civita(s)


class TestLazyFractionViews:
    """The Fraction views that perfbench's tracer reads for its operand sizes:
    ``Connection.operators`` and ``CurvatureTensor._ops`` (keys i < j)."""

    def test_views_match_the_accessors(self):
        for s in sample_structures():
            s = fresh(s)
            n, conn, r = s.dim, levi_civita(s), curvature(s)
            ops = conn.operators
            assert len(ops) == n and all(isinstance(m, Matrix) for m in ops)
            assert all(ops[i][k][j] == conn.tensor[i, j, k]
                       for i in range(n) for j in range(n) for k in range(n))
            assert sorted(r._ops) == [(i, j) for i in range(n) for j in range(i + 1, n)]
            for (i, j), m in r._ops.items():
                assert isinstance(m, Matrix)
                assert all(type(m[l][k]) is Fraction and m[l][k] == r.tensor[i, j, k, l]
                           for k in range(n) for l in range(n))
            assert conn.operators is ops and r._ops is r._fraction_ops


class TestRicci:
    def test_trace_of_components(self):
        for s in sample_structures():
            n = s.dim
            r = curvature(s).tensor
            rc, ric = ricci(s)
            want = Matrix([[sum((r[i, j, k, i] for i in range(n)),
                                Fraction(0)) for k in range(n)] for j in range(n)])
            assert Matrix(rc.fractions()) == want
            assert Matrix(ric.fractions()) == s.g_inv * want

    def test_case2_unit(self):
        s = make_family_case2(1, 0, 0, 0)
        rc, ric = ricci(s)
        assert Matrix(ric.fractions()) == -2 * Matrix.identity(4)
        assert Matrix(rc.fractions()) == -2 * s.g

    def test_abelian_zero(self):
        rc, _ = ricci(catalog.get("abelian4").structure)
        assert rc.is_zero()

    def test_sl2c_quarter(self):
        s = catalog.get("sl2c_killing").structure
        einstein, lam = is_einstein(s)
        assert einstein and lam == Fraction(1, 4)
        rc, _ = ricci(s)
        assert Matrix(rc.fractions()) == Fraction(1, 4) * s.g
        # with the Killing form itself the constant flips sign
        flipped = AntiHermitianStructure(s.algebra, -s.g, s.J)
        einstein2, lam2 = is_einstein(flipped)
        assert einstein2 and lam2 == Fraction(-1, 4)

    def test_einstein_flags(self):
        einstein, lam = is_einstein(make_family_case2(1, 0, 0, 0))
        assert einstein and lam == -2
        einstein, lam = is_einstein(make_family_case2(0, 0, 1, 0))
        assert einstein and lam == -2
        einstein, lam = is_einstein(make_family_case2(1, 1, 0, 0))  # zeta = 2i
        assert not einstein and lam is None
        assert is_ricci_flat(make_family_case2(1, 0, 0, 1))

    def test_bi_invariant_metric_predicate(self):
        assert is_bi_invariant_metric(catalog.get("sl2c_killing").structure)
        assert not is_bi_invariant_metric(catalog.get("affC_std").structure)

    def test_killing_anti_invariance(self):
        assert killing_anti_invariant(catalog.get("n7_J-1").structure)


class TestTwin:
    def test_double_twin_negates(self):
        for s in sample_structures():
            assert twin_metric(twin_metric(s)).g == -s.g

    def test_standard_twin_block(self):
        s = catalog.get("abelian4").structure
        twin = twin_metric(s)
        block = Matrix([[0, -1], [-1, 0]]).map(Fraction)
        expected = Matrix([
            [block[0][0], block[0][1], 0, 0],
            [block[1][0], block[1][1], 0, 0],
            [0, 0, block[0][0], block[0][1]],
            [0, 0, block[1][0], block[1][1]],
        ]).map(Fraction)
        assert twin.g == expected
        assert signature(twin.g) == (2, 2, 0)

    def test_n7_twin_shares_connection(self):
        s = catalog.get("n7_J-1").structure
        assert levi_civita(twin_metric(s)).tensor == levi_civita(s).tensor


class TestComplexified:
    def test_standard_gram(self):
        s = catalog.get("abelian4").structure
        one = GaussianRational(Fraction(1))
        zero = GaussianRational(Fraction(0))
        f = _complex_basis(s.J)
        assert [[complex_form(s, u, v) for v in f] for u in f] == [[one, zero], [zero, one]]

    def test_n7_pairing(self):
        s = catalog.get("n7_J-1").structure
        assert complex_form(s, basis_vector(6, 0), basis_vector(6, 4)).re == Fraction(1, 2)

    def test_i_linearity(self):
        s = catalog.get("r-1-1_std").structure
        v = (Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5))
        w = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 7))
        i_unit = GaussianRational(Fraction(0), Fraction(1))
        assert complex_form(s, s.J.apply(v), w) == i_unit * complex_form(s, v, w)
        assert complex_form(s, v, w) == complex_form(s, w, v)
        assert complex_form(s, v, w).re == s.metric(v, w)

    def test_group_equality_members_and_nonmembers(self):
        s = catalog.get("r-1-1_std").structure
        # a genuine member: realified complex rotation
        from antikahler.classify4 import _realify
        sigma = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        one = GaussianRational(Fraction(1))
        den = one + sigma * sigma
        alpha = (one - sigma * sigma) / den
        beta = (sigma + sigma) / den
        member = _realify([[alpha, -beta], [beta, alpha]])
        assert preserves_metric_and_j(s, member)
        assert preserves_complexified_form(s, member)
        # a random non-member
        outsider = Matrix([[1, 2, 0, 0], [0, 1, 0, 0],
                           [0, 0, 1, 0], [0, 0, 1, 1]]).map(Fraction)
        assert not preserves_metric_and_j(s, outsider)
        assert not preserves_complexified_form(s, outsider)
