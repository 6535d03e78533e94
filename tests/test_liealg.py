import time
from fractions import Fraction

import pytest
import reference
from corpora import constants, lists
from hypothesis import given, settings
from hypothesis import strategies as st

from antikahler import catalog
from antikahler.classify4 import aff_c_real, r_minus_one_minus_one, standard_j
from antikahler.liealg import (
    AntisymmetryViolation,
    JacobiViolation,
    LieAlgebra,
    NotComplexStructureError,
    is_abelian_j,
    is_anti_abelian_j,
    is_bi_invariant_j,
    jacobi_residual,
    nijenhuis,
)
from antikahler.scalars import DimensionMismatchError, Matrix, basis_vector, signature

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


class TestConstruction:
    def test_bad_key_order(self):
        with pytest.raises(AntisymmetryViolation):
            LieAlgebra.from_brackets(3, {(1, 0): {2: 1}})
        with pytest.raises(AntisymmetryViolation):
            LieAlgebra.from_brackets(3, {(1, 1): {2: 1}})

    def test_jacobi_violation(self):
        # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi on the triple (e1,e2,e3)
        with pytest.raises(JacobiViolation):
            LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})

    @pytest.mark.parametrize("component", [-1, 3, 5])
    def test_bracket_component_out_of_range(self, component):
        # a negative index would otherwise wrap around to the last basis vector
        with pytest.raises(DimensionMismatchError):
            LieAlgebra.from_brackets(3, {(0, 1): {component: 1}})
        with pytest.raises(DimensionMismatchError):
            jacobi_residual(3, {(0, 1): {component: 1}})

    @pytest.mark.parametrize("pair, value",
                             [((0, 3), {0: 1}), ((-1, 1), {0: 1}), ((0, 1), (1, 0))])
    def test_pair_out_of_range_or_vector_of_wrong_length(self, pair, value):
        with pytest.raises(DimensionMismatchError):
            LieAlgebra.from_brackets(3, {pair: value})

    def test_non_integer_indices(self):
        # integer-valued keys are normalized, so every kernel can index with them
        alg = LieAlgebra.from_brackets(3, {(True, 2): {0: 1}})
        assert alg.nonzero_brackets() == {(1, 2): (1, 0, 0)}
        with pytest.raises(TypeError):
            LieAlgebra.from_brackets(3, {(0.0, 1): (0, 0, 1)})
        with pytest.raises(TypeError):
            LieAlgebra.from_brackets(3, {(0, 1): {1.0: 1}})

    def test_one_structure_tensor(self):
        alg = LieAlgebra.from_brackets(3, {(0, 1): {2: Fraction(1, 2)}, (0, 2): (0, 0, 0)})
        assert LieAlgebra.__slots__ == ("structure",)
        c = alg.structure
        assert (c[0, 1, 2], c[1, 0, 2], c[0, 0, 2]) == (Fraction(1, 2), Fraction(-1, 2), 0)
        assert alg.nonzero_brackets() == {(0, 1): (0, 0, Fraction(1, 2))}
        assert repr(alg) == "LieAlgebra(dim=3, brackets=1)"
        # equal and equally hashed over any denominator of the same tensor
        same = LieAlgebra(c * 2 / 2, _validated=True)
        assert same.structure.den != c.den
        assert same == alg and hash(same) == hash(alg)
        assert alg != LieAlgebra.abelian(3) and LieAlgebra.abelian(3).is_abelian()

    def test_jacobi_residual_value(self):
        # hand expansion: [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = -e3
        residual = jacobi_residual(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
        assert residual == 1

    def test_jacobi_residual_zero_cases(self):
        assert jacobi_residual(4, {}) == 0
        n7 = catalog.get("n7_J-1").structure.algebra
        assert jacobi_residual(6, n7.nonzero_brackets()) == 0


def dense_jacobi_residual(dim, brackets):
    """Reference: every triple i < j < k and every component, over Fractions.

    A raw table is read as the check reads it: the listed (a, b) value,
    else minus the listed (b, a) value, else zero.
    """
    def vector(value):
        if isinstance(value, dict):
            vec = [Fraction(0)] * dim
            for k, coeff in value.items():
                vec[k] = Fraction(coeff)
            return tuple(vec)
        return tuple(Fraction(x) for x in value)

    table = {key: vector(vec) for key, vec in brackets.items()}
    zero = (Fraction(0),) * dim

    def basis_bracket(i, j):
        if i == j:
            return zero
        if (i, j) in table:
            return table[(i, j)]
        if (j, i) in table:
            return tuple(-x for x in table[(j, i)])
        return zero

    worst = Fraction(0)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                res = [Fraction(0)] * dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = basis_bracket(a, b)
                    for m, x in enumerate(inner):
                        if x:
                            outer = basis_bracket(m, c)
                            for p in range(dim):
                                res[p] += x * outer[p]
                worst = max(worst, max(abs(x) for x in res))
    return worst


@st.composite
def raw_tables(draw, ordered=False):
    """Raw bracket tables; unless ordered, keys may be (j, i), both orders or (i, i)."""
    dim = draw(st.integers(2 if ordered else 1, 5))
    coeffs = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
    vectors = st.lists(coeffs, min_size=dim, max_size=dim).map(tuple)
    sparse = st.dictionaries(st.integers(0, dim - 1), small_fractions, max_size=2)
    index = st.integers(0, dim - 1)
    keys = st.tuples(index, index)
    if ordered:
        keys = st.integers(0, dim - 2).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(i + 1, dim - 1)))
    table = draw(st.dictionaries(keys, st.one_of(vectors, sparse), max_size=dim * dim))
    return dim, table


class TestSparseJacobiResidual:
    @given(raw_tables())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, case):
        dim, table = case
        got = jacobi_residual(dim, table)
        want = dense_jacobi_residual(dim, table)
        assert got == want
        assert type(got) is Fraction
        assert str(got) == str(want)

    @given(raw_tables(ordered=True))
    @settings(max_examples=200, deadline=None)
    def test_same_violation_message(self, case):
        dim, table = case
        want = dense_jacobi_residual(dim, table)
        if want == 0:
            assert LieAlgebra.from_brackets(dim, table).dim == dim
        else:
            with pytest.raises(JacobiViolation) as err:
                LieAlgebra.from_brackets(dim, table)
            assert str(err.value) == f"Jacobi identity fails, residual {want}"

    def test_both_orders_listed(self):
        # (1, 0) is read as given, not as minus (0, 1)
        table = {(0, 1): (0, 0, 1), (1, 0): (1, 0, 0), (0, 2): (1, 0, 0)}
        assert jacobi_residual(3, table) == dense_jacobi_residual(3, table)

    def test_validated_algebra(self):
        n7 = catalog.get("n7_J-1").structure.algebra
        assert jacobi_residual(n7) == 0

    def test_large_bare_tables_are_fast(self):
        start = time.perf_counter()
        assert jacobi_residual(60, {}) == 0
        assert jacobi_residual(60, {(0, 1): {2: 1}}) == 0
        assert jacobi_residual(60, {(0, 1): {1: 1}, (0, 2): {2: Fraction(1, 3)}}) == 0
        assert jacobi_residual(60, {(0, 1): {2: 1}, (0, 2): {0: 1}}) == 1
        assert time.perf_counter() - start < 1.0


class TestBracket:
    def test_r_minus_one_minus_one(self):
        alg = r_minus_one_minus_one()
        assert alg.bracket(basis_vector(4, 0), basis_vector(4, 1)) == basis_vector(4, 1)

    def test_n7_bracket(self):
        alg = catalog.get("n7_J-1").structure.algebra
        # [X2, X4] = -X5
        assert alg.bracket(basis_vector(6, 1), basis_vector(6, 3)) == \
            tuple(-x for x in basis_vector(6, 4))

    @pytest.mark.parametrize("i, j", [(5, 6), (-1, 0), (0, 2)])
    def test_bracket_basis_index_out_of_range(self, i, j):
        alg = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
        assert alg.bracket_basis(0, 1) == (0, 1) and alg.bracket_basis(1, 1) == (0, 0)
        with pytest.raises(IndexError):
            alg.bracket_basis(i, j)

    @given(st.lists(small_fractions, min_size=4, max_size=4),
           st.lists(small_fractions, min_size=4, max_size=4),
           st.lists(small_fractions, min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_bilinear_antisymmetric(self, x, y, z):
        alg = r_minus_one_minus_one()
        assert alg.bracket(x, x) == (0, 0, 0, 0)
        lhs = alg.bracket(x, y)
        assert alg.bracket(y, x) == tuple(-v for v in lhs)
        xpz = [a + b for a, b in zip(x, z)]
        combined = alg.bracket(xpz, y)
        split = tuple(a + b for a, b in
                      zip(alg.bracket(x, y), alg.bracket(z, y)))
        assert combined == split


class TestKillingForm:
    def test_abelian_zero(self):
        assert LieAlgebra.abelian(4).killing_form() == Matrix.zeros(4, 4)

    def test_r_minus_one_minus_one_frozen(self):
        alg = r_minus_one_minus_one()
        expected = Matrix.diagonal([Fraction(3), Fraction(0), Fraction(0), Fraction(0)])
        assert lists(expected) == reference.killing(constants(alg))
        assert alg.killing_form() == expected

    def test_sl2c_nondegenerate_neutral(self):
        alg = catalog.get("sl2c_killing").structure.algebra
        b = alg.killing_form()
        assert b.det() != 0
        assert signature(b) == (3, 3, 0)

    def test_ad_invariance(self):
        # B([x,y],z) + B(y,[x,z]) = 0 on all basis triples
        for name in ("r-1-1_std", "sl2c_killing", "n7_J-1"):
            alg = catalog.get(name).structure.algebra
            b = alg.killing_form()
            n = alg.dim

            def b_of(vec, k):
                return sum((vec[m] * b[m][k] for m in range(n)), Fraction(0))

            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert b_of(alg.bracket_basis(i, j), k) + \
                            b_of(alg.bracket_basis(i, k), j) == 0


class TestStructuralInvariants:
    def test_unimodular(self):
        assert catalog.get("n7_J-1").structure.algebra.is_unimodular()
        assert not r_minus_one_minus_one().is_unimodular()
        assert LieAlgebra.abelian(4).is_unimodular()

    def test_derived_dims(self):
        assert LieAlgebra.abelian(4).derived_dim() == 0
        assert aff_c_real().derived_dim() == 2
        assert r_minus_one_minus_one().derived_dim() == 3

    def test_center_dims(self):
        assert LieAlgebra.abelian(4).center_dim() == 4
        assert catalog.get("n7_J-1").structure.algebra.center_dim() == 2
        assert r_minus_one_minus_one().center_dim() == 0


class TestComplexStructurePredicates:
    def test_requires_square_minus_identity(self):
        alg = LieAlgebra.abelian(4)
        with pytest.raises(NotComplexStructureError):
            nijenhuis(alg, Matrix.identity(4))

    def test_bi_invariant_gives_zero_nijenhuis(self):
        aff = aff_c_real()
        j = standard_j(4)
        assert is_bi_invariant_j(aff, j)
        assert nijenhuis(aff, j).is_zero()

    def test_n7_abelian_structure(self):
        s = catalog.get("n7_J-1").structure
        assert is_abelian_j(s.algebra, s.J)
        assert nijenhuis(s.algebra, s.J).is_zero()
        assert not is_bi_invariant_j(s.algebra, s.J)

    def test_nonzero_nijenhuis(self):
        # [e1,e2]=e3 with J e1 = e3, J e2 = e4: the hand oracle gives
        # N(e1,e2) = [Je1,Je2] - J[Je1,e2] - J[e1,Je2] - [e1,e2] = -e3
        alg = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
        j = Matrix.from_cols([(0, 0, 1, 0), (0, 0, 0, 1),
                              (-1, 0, 0, 0), (0, -1, 0, 0)]).map(Fraction)
        table = nijenhuis(alg, j)
        assert table[0, 1].fractions() == (0, 0, -1, 0)
        assert not table.is_zero()

    def test_abelian_algebra_all_predicates(self):
        alg = LieAlgebra.abelian(4)
        j = standard_j(4)
        assert is_abelian_j(alg, j)
        assert is_bi_invariant_j(alg, j)
        assert is_anti_abelian_j(alg, j)

    def test_case2_family_bi_invariant(self):
        from antikahler.classify4 import make_family_case2
        s = make_family_case2(Fraction(1, 2), -2, 3, Fraction(-1, 3))
        assert is_bi_invariant_j(s.algebra, s.J)
        assert not is_abelian_j(s.algebra, s.J)

    def test_abelian_and_bi_invariant_imply_integrable(self):
        for name in catalog.list_names():
            s = catalog.get(name).structure
            if is_abelian_j(s.algebra, s.J) or is_bi_invariant_j(s.algebra, s.J):
                assert nijenhuis(s.algebra, s.J).is_zero()
