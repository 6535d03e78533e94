import random
from fractions import Fraction

import pytest

from antikahler import catalog, classify4
from antikahler.classify4 import (
    DegenerateParametersError,
    InequivalentParametersError,
    NormalizationFailedError,
    NotAntiKahlerError,
    VERDICT_ABELIAN,
    VERDICT_AFF,
    VERDICT_R,
    WitnessDerivationError,
    aff_c_real,
    case1_isomorphism,
    case1_isomorphism_inverse,
    case2_equivalence_witness,
    case2_isomorphism,
    classify,
    closed_form_curvature_case2,
    coefficient_matrix,
    equivalence_witness_case1,
    equivalent_case2,
    extract_coefficients,
    make_family_case1,
    make_family_case2,
    normalize_basis,
    orbit_invariant,
    r_minus_one_minus_one,
    standard_j,
    standard_metric,
    transform_structure,
    verify_isomorphism,
    zeta_from_params,
)
from antikahler.geometry import (
    AntiHermitianStructure,
    curvature,
    is_anti_kahler,
    is_einstein,
    is_flat,
    is_ricci_flat,
    preserves_complexified_form,
    preserves_metric_and_j,
    ricci,
)
from antikahler.liealg import LieAlgebra, is_bi_invariant_j
from antikahler.scalars import GaussianRational, Matrix

CASE1_SAMPLES = [
    (1, 0, 1), (1, 1, 1), (2, 1, -1), (Fraction(1, 2), -1, 1),
    (0, 1, -1), (Fraction(-2, 3), Fraction(5, 7), 1), (-3, -3, -1),
]


def drawn_case1_samples(count: int, seed: int = 17) -> list:
    """(a, b, eps) with a, b random rationals, not both zero (either may be)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        if a or b:
            out.append((a, b, rng.choice((1, -1))))
    return out


CASE2_SAMPLES = [
    (1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 3, 4), (Fraction(1, 2), 0, -1, 1),
    (0, 0, 0, -2), (1, 1, 1, 1), (Fraction(-1, 3), Fraction(2, 5), 0, 0),
]


class TestFamilies:
    def test_case1_printed_brackets(self):
        # (a, b, eps) = (1, 0, +1)
        s = make_family_case1(1, 0, 1)
        alg = s.algebra
        assert alg.bracket_basis(0, 2) == (0, 1, 0, 0)    # [X, Y] = JX
        assert alg.bracket_basis(0, 3) == (-1, 0, 0, 1)   # [X, JY] = -X + JY
        assert alg.bracket_basis(1, 3) == (0, 0, -1, 0)   # [JX, JY] = -Y
        assert alg.bracket_basis(2, 3) == (0, -1, 0, 0)   # [Y, JY] = -JX
        assert alg.bracket_basis(0, 1) == (0, 0, 1, 0)    # [X, JX] = Y

    def test_case2_printed_brackets(self):
        s = make_family_case2(1, 0, 0, 0)
        alg = s.algebra
        assert alg.bracket_basis(0, 2) == (1, 0, 0, 0)    # [X, Y] = X
        assert alg.bracket_basis(0, 3) == (0, 1, 0, 0)    # [X, JY] = JX
        assert alg.bracket_basis(1, 2) == (0, 1, 0, 0)    # [JX, Y] = JX
        assert alg.bracket_basis(1, 3) == (-1, 0, 0, 0)   # [JX, JY] = -X
        assert alg.bracket_basis(0, 1) == (0, 0, 0, 0)    # [X, JX] = 0
        assert alg.bracket_basis(2, 3) == (0, 0, 0, 0)    # [Y, JY] = 0

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParametersError):
            make_family_case1(0, 0, 1)
        with pytest.raises(DegenerateParametersError):
            make_family_case2(0, 0, 0, 0)
        with pytest.raises(ValueError):
            make_family_case1(1, 0, 2)

    @pytest.mark.parametrize("a,b,eps", CASE1_SAMPLES)
    def test_case1_properties(self, a, b, eps):
        s = make_family_case1(a, b, eps)  # Jacobi validated at construction
        assert is_anti_kahler(s)
        assert is_flat(s)

    @pytest.mark.parametrize("t", CASE2_SAMPLES)
    def test_case2_properties(self, t):
        s = make_family_case2(*t)
        assert is_anti_kahler(s)
        assert is_bi_invariant_j(s.algebra, s.J)

    @pytest.mark.parametrize("t", CASE2_SAMPLES)
    def test_case2_coefficient_matrix_zero(self, t):
        coeffs = extract_coefficients(make_family_case2(*t))
        assert coefficient_matrix(coeffs).is_zero()
        t1, t2, t3, t4, t5, t6, t7, t8 = coeffs.t
        assert (t5, t6, t7, t8) == (-t4, t3, -t2, t1)

    @pytest.mark.parametrize("a,b,eps", CASE1_SAMPLES)
    def test_case1_abcd_identities(self, a, b, eps):
        coeffs = extract_coefficients(make_family_case1(a, b, eps))
        assert (coeffs.a, coeffs.b) == (Fraction(a), Fraction(b))
        assert coeffs.c == eps * Fraction(b)
        assert coeffs.d == -eps * Fraction(a)
        assert not coefficient_matrix(coeffs).is_zero()

    def test_jacobi_relation_vectors(self):
        # the four coefficient vectors of the bracket relations annihilate A
        for (a, b, eps) in CASE1_SAMPLES:
            coeffs = extract_coefficients(make_family_case1(a, b, eps))
            t1, t2, t3, t4, t5, t6, t7, t8 = coeffs.t
            a_matrix = coefficient_matrix(coeffs)
            vectors = [(-t1 - t8, t1 - t8, t3, t4), (t2 - t7, t2 + t7, t5, t6),
                       (t6 - t3, t3 + t6, -t1, t2), (t4 + t5, t4 - t5, t7, -t8)]
            for vec in vectors:
                assert a_matrix.apply(vec) == (0, 0, 0, 0)
            assert a_matrix.rank() == 3


class TestClassify:
    def test_abelian(self):
        report = classify(catalog.get("abelian4").structure)
        assert report.verdict == VERDICT_ABELIAN

    @pytest.mark.parametrize("a,b,eps", CASE1_SAMPLES + drawn_case1_samples(16))
    def test_case1(self, a, b, eps):
        s = make_family_case1(a, b, eps)
        report = classify(s)
        assert report.verdict == VERDICT_R
        assert report.case1_params == (Fraction(a), Fraction(b), eps)
        assert verify_isomorphism(report.witness, s.algebra,
                                  r_minus_one_minus_one())
        assert report.flat
        assert s.algebra.derived_dim() == 3

    @pytest.mark.parametrize("t", CASE2_SAMPLES)
    def test_case2(self, t):
        s = make_family_case2(*t)
        report = classify(s)
        assert report.verdict == VERDICT_AFF
        assert report.zeta == zeta_from_params(t)
        assert verify_isomorphism(report.witness, s.algebra, aff_c_real())
        assert s.algebra.derived_dim() == 2

    def test_affc_std_report(self):
        report = classify(catalog.get("affC_std").structure)
        assert report.verdict == VERDICT_AFF
        assert report.zeta == GaussianRational(Fraction(1))
        assert report.einstein and report.einstein_constant == -2
        assert not report.flat

    def test_rejects_non_anti_kahler(self):
        alg = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
        s = AntiHermitianStructure(alg, standard_metric(4), standard_j(4))
        with pytest.raises(NotAntiKahlerError):
            classify(s)

    def test_discriminator_agreement(self):
        # derived-algebra dimension separates the three verdicts
        widths = {VERDICT_ABELIAN: 0, VERDICT_AFF: 2, VERDICT_R: 3}
        for s in (catalog.get("abelian4").structure,
                  make_family_case1(1, 2, -1), make_family_case2(0, 1, 1, 0)):
            report = classify(s)
            assert s.algebra.derived_dim() == widths[report.verdict]


class TestNormalization:
    def test_identity_path(self):
        s = make_family_case1(1, 1, 1)
        p, normalized = normalize_basis(s)
        assert p == Matrix.identity(4)
        assert normalized is s

    def test_scaled_metric_normalizes(self):
        # 4g admits the rational root 2, so normalization succeeds
        base = make_family_case2(1, 0, 0, 0)
        scaled = AntiHermitianStructure(base.algebra, 4 * base.g, base.J)
        p, normalized = normalize_basis(scaled)
        assert normalized.g == standard_metric(4)
        assert normalized.J == standard_j(4)
        report = classify(scaled)
        assert report.verdict == VERDICT_AFF
        assert verify_isomorphism(report.witness, scaled.algebra, aff_c_real())

    def test_conjugated_structure_normalizes(self):
        # a rational change of frame keeps a rational J-basis reachable
        base = make_family_case1(1, 0, 1)
        p = Matrix([[1, 0, 2, 0], [0, 1, 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]]).map(Fraction)
        moved = transform_structure(base, p.inverse())
        report = classify(moved)
        assert report.verdict == VERDICT_R
        assert verify_isomorphism(report.witness, moved.algebra,
                                  r_minus_one_minus_one())

    def test_irrational_norm_fails(self):
        base = make_family_case2(1, 0, 0, 0)
        doubled = AntiHermitianStructure(base.algebra, 2 * base.g, base.J)
        with pytest.raises(NormalizationFailedError):
            normalize_basis(doubled)


class TestIsomorphisms:
    def test_identity_map(self):
        alg = r_minus_one_minus_one()
        assert verify_isomorphism(Matrix.identity(4), alg, alg)

    def test_rejects_non_isomorphism(self):
        assert not verify_isomorphism(Matrix.identity(4),
                                      r_minus_one_minus_one(), aff_c_real())
        assert not verify_isomorphism(Matrix.zeros(4, 4),
                                      r_minus_one_minus_one(),
                                      r_minus_one_minus_one())

    @pytest.mark.parametrize("a,b,eps", CASE1_SAMPLES)
    def test_case1_printed_phi(self, a, b, eps):
        phi = case1_isomorphism(a, b, eps)
        s = make_family_case1(a, b, eps)
        assert verify_isomorphism(phi, s.algebra, r_minus_one_minus_one())
        assert phi * case1_isomorphism_inverse(a, b, eps) == Matrix.identity(4)

    @pytest.mark.parametrize("t", CASE2_SAMPLES)
    def test_case2_printed_phi(self, t):
        phi = case2_isomorphism(t)
        s = make_family_case2(*t)
        assert verify_isomorphism(phi, s.algebra, aff_c_real())
        norm = sum(Fraction(x) ** 2 for x in t)
        assert phi.inverse() == (1 / norm) * phi.transpose()

    def test_case2_phi_inverse_example(self):
        phi = case2_isomorphism((1, 2, 3, 4))
        assert phi.inverse() == Fraction(1, 30) * phi.transpose()


class TestEquivalenceCase1:
    @pytest.mark.parametrize("a,b,eps", CASE1_SAMPLES)
    def test_printed_witness(self, a, b, eps):
        witness = equivalence_witness_case1(a, b, eps)
        assert witness.printed_inverse_consistent
        src = make_family_case1(1, 0, 1)
        dst = make_family_case1(a, b, eps)
        assert verify_isomorphism(witness.matrix, src.algebra, dst.algebra,
                                  g_src=src.g, g_dst=dst.g,
                                  j_src=src.J, j_dst=dst.J)
        assert preserves_complexified_form(dst, witness.matrix)

    def test_base_point_reduces_to_identity(self):
        witness = equivalence_witness_case1(1, 0, 1)
        assert witness.matrix == Matrix.identity(4)

    def test_failed_verification_raises(self, monkeypatch):
        # the stated witness is returned only once it is verified
        monkeypatch.setattr(classify4, "verify_isomorphism", lambda *a, **k: False)
        with pytest.raises(WitnessDerivationError):
            equivalence_witness_case1(2, 1, -1)


class TestModuli:
    def test_zeta_values(self):
        assert zeta_from_params((1, 0, 0, 1)) == GaussianRational(Fraction(0))
        assert zeta_from_params((1, 0, 0, 0)) == GaussianRational(Fraction(1))
        assert zeta_from_params((0, 1, 0, 0)) == GaussianRational(Fraction(-1))
        assert zeta_from_params((1, 1, 0, 0)) == \
            GaussianRational(Fraction(0), Fraction(2))

    def test_orbit_invariant_from_structure(self):
        s = make_family_case2(1, 2, 3, 4)
        assert orbit_invariant(s) == zeta_from_params((1, 2, 3, 4))

    def test_reflexive(self):
        assert equivalent_case2((1, 2, 3, 4), (1, 2, 3, 4))

    def test_inequivalent(self):
        assert not equivalent_case2((1, 0, 0, 0), (0, 1, 0, 0))
        with pytest.raises(InequivalentParametersError):
            case2_equivalence_witness((1, 0, 0, 0), (0, 1, 0, 0))

    @pytest.mark.parametrize("t,t_other", [
        ((1, 0, 0, 0), (0, 0, 1, 0)),
        ((1, 2, 3, 4), (-1, -2, -3, -4)),
        ((1, 2, 3, 4), (3, 4, 1, 2)),
        ((1, 0, 0, 1), (2, 0, 0, 2)),
        ((1, 0, 0, 1), (1, 0, 0, -1)),
        ((0, 1, -1, 0), (1, 1, -1, 1)),
    ])
    def test_witnesses(self, t, t_other):
        assert equivalent_case2(t, t_other)
        witness = case2_equivalence_witness(t, t_other)
        src = make_family_case2(*t)
        dst = make_family_case2(*t_other)
        assert verify_isomorphism(witness, src.algebra, dst.algebra,
                                  g_src=src.g, g_dst=dst.g,
                                  j_src=src.J, j_dst=dst.J)
        assert preserves_metric_and_j(src, witness)


class TestClosedFormCurvature:
    def test_unit_case(self):
        closed = closed_form_curvature_case2((1, 0, 0, 0))
        assert closed.ricci_operator == -2 * Matrix.identity(4)
        assert closed.einstein and closed.einstein_constant == -2
        assert not closed.flat

    def test_flat_case(self):
        closed = closed_form_curvature_case2((1, 0, 0, 1))
        assert closed.flat and closed.ricci_flat
        assert closed.r_xy.is_zero()
        assert is_flat(make_family_case2(1, 0, 0, 1))

    @pytest.mark.parametrize("t", CASE2_SAMPLES)
    def test_matches_engine(self, t):
        closed = closed_form_curvature_case2(t)
        s = make_family_case2(*t)
        r = curvature(s)
        rc, ric = ricci(s)
        assert r.op(0, 2) == closed.r_xy
        assert ric == closed.ricci_operator
        assert is_flat(s) == closed.flat
        einstein, lam = is_einstein(s)
        assert einstein == closed.einstein
        if einstein:
            assert lam == closed.einstein_constant
        assert is_ricci_flat(s) == closed.ricci_flat
