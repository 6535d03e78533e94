from fractions import Fraction

from antikahler import catalog
from antikahler.classify4 import make_family_case1, make_family_case2, standard_j, standard_metric
from antikahler.geometry import AntiHermitianStructure, is_anti_kahler
from antikahler.liealg import LieAlgebra
from antikahler.scalars import basis_vector
from antikahler.theta import (
    anti_kahler_via_theta,
    theta_bracket_form,
    theta_connection_form,
    tensor_ratio,
    theta_is_pure,
    theta_is_skew,
)
from antikahler.verifier import GeneratorConfig, random_structure


class TestThetaForms:
    def test_abelian_zero(self):
        s = catalog.get("abelian4").structure
        assert theta_bracket_form(s).is_zero()
        assert theta_connection_form(s).is_zero()

    def test_n7_zero(self):
        s = catalog.get("n7_J-1").structure
        assert theta_bracket_form(s).is_zero()

    def test_dim4_anti_kahler_instances_zero(self):
        for s in (make_family_case1(2, -1, 1), make_family_case2(1, 2, 3, 4),
                  catalog.get("r-1-1_std").structure):
            assert theta_bracket_form(s).is_zero()

    def test_sl2c_forms_agree(self):
        s = catalog.get("sl2c_killing").structure
        bracket = theta_bracket_form(s)
        conn = theta_connection_form(s)
        assert not bracket.is_zero()
        assert bracket == conn
        assert tensor_ratio(conn, bracket) == 1

    def test_sl2c_multiple_of_bracket_pairing(self):
        # bi-invariant g and J: theta(x,y,z) = 3 <[Jx, y], z>
        s = catalog.get("sl2c_killing").structure
        theta = theta_bracket_form(s)
        alg, g, j = s.algebra, s.g, s.J
        for i in range(6):
            for jdx in range(6):
                vec = alg.bracket(j.col(i), basis_vector(6, jdx))
                for k in range(6):
                    base = sum((vec[m] * g[m][k] for m in range(6)), Fraction(0))
                    assert theta[i, jdx, k] == 3 * base


class TestSkewPure:
    def test_zero_tensor(self):
        s = catalog.get("abelian4").structure
        theta = theta_bracket_form(s)
        assert theta_is_skew(theta)
        assert theta_is_pure(theta, s.J)

    def test_sl2c_skew_and_pure(self):
        s = catalog.get("sl2c_killing").structure
        theta = theta_connection_form(s)
        assert theta_is_skew(theta)
        assert theta_is_pure(theta, s.J)

    def test_non_anti_kahler_fails_some_check(self):
        alg = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
        s = AntiHermitianStructure(alg, standard_metric(4), standard_j(4))
        theta = theta_connection_form(s)
        assert not (theta_is_skew(theta) and theta_is_pure(theta, s.J))


class TestNormalizedBasisIdentities:
    def test_eight_bracket_pairings(self):
        # consequences of theta(u, v, Jv) = 0 in the normalized dim-4 frame,
        # e.g. <[X,Y], X> = -<[X,JY], JX>; spot-checked tablewise
        for s in (make_family_case1(2, -3, -1), make_family_case2(1, -2, 0, 3)):
            g, alg = s.g, s.algebra

            def pair(i, j, k):
                vec = alg.bracket_basis(i, j)
                return sum((vec[m] * g[m][k] for m in range(4)), Fraction(0))

            X, JX, Y, JY = 0, 1, 2, 3
            assert pair(X, Y, X) == -pair(X, JY, JX)
            assert pair(X, Y, JX) == pair(X, JY, X)
            assert pair(X, Y, Y) == -pair(JX, Y, JY)
            assert pair(X, Y, JY) == pair(JX, Y, Y)
            assert pair(X, JY, Y) == -pair(JX, JY, JY)
            assert pair(X, JY, JY) == pair(JX, JY, Y)
            assert pair(JX, Y, X) == -pair(JX, JY, JX)
            assert pair(JX, Y, JX) == pair(JX, JY, X)
            theta = theta_bracket_form(s)
            for u in range(4):
                for v in range(4):
                    jv = s.J.col(v)
                    value = sum((jv[m] * theta[u, v, m] for m in range(4)),
                                Fraction(0))
                    assert value == 0  # theta(u, v, Jv) = 0


class TestCharacterization:
    def test_catalog(self):
        for name in catalog.list_names():
            s = catalog.get(name).structure
            assert anti_kahler_via_theta(s) == is_anti_kahler(s)

    def test_random_structures(self):
        seen = {True: 0, False: 0}
        for dim, count in ((4, 30), (6, 12)):
            cfg = GeneratorConfig(master_seed=777, samples=count, dim=dim)
            for i in range(count):
                s = random_structure(cfg, i)
                verdict = is_anti_kahler(s)
                seen[verdict] += 1
                assert anti_kahler_via_theta(s) == verdict
        assert seen[True] > 0 and seen[False] > 0

    def test_dim4_zero_iff_anti_kahler(self):
        cfg = GeneratorConfig(master_seed=101, samples=18, dim=4)
        for i in range(18):
            s = random_structure(cfg, i)
            assert theta_bracket_form(s).is_zero() == is_anti_kahler(s)
