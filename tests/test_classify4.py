import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antikahler import catalog, classify4
from antikahler.cli.main import main
from antikahler.cli.textio import format_structure
from antikahler.classify4 import (
    DegenerateParametersError,
    InequivalentParametersError,
    NormalizationFailedError,
    NotAntiKahlerError,
    VERDICT_ABELIAN,
    VERDICT_AFF,
    VERDICT_R,
    WitnessDerivationError,
    _realify,
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
from antikahler.scalars import DimensionMismatchError, GaussianRational, Matrix
from antikahler.verifier import GeneratorConfig, random_structure

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
        # every builder checks its parameters before any arithmetic, so none
        # divides by zero or returns a singular matrix
        for build, args in [
                (make_family_case1, (0, 0, 1)), (make_family_case2, (0, 0, 0, 0)),
                (case1_isomorphism, (0, 0, 1)), (case1_isomorphism_inverse, (0, 0, 1)),
                (equivalence_witness_case1, (0, 0, -1)), (case2_isomorphism, ((0, 0, 0, 0),)),
                (case2_equivalence_witness, ((1, 0, 0, 1), (0, 0, 0, 0))),
                (case2_equivalence_witness, ((0, 0, 0, 0), (1, 0, 0, 1)))]:
            with pytest.raises(DegenerateParametersError):
                build(*args)
        for build in (make_family_case1, case1_isomorphism, case1_isomorphism_inverse,
                      equivalence_witness_case1):
            with pytest.raises(ValueError, match="eps must be"):
                build(1, 0, 2)

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

    @pytest.mark.parametrize("step", [classify, normalize_basis])
    def test_rejects_dimension_other_than_4(self, step):
        with pytest.raises(DimensionMismatchError):
            step(catalog.get("n7_J-1").structure)

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
        with pytest.raises(NormalizationFailedError, match="not a square in Q"):
            normalize_basis(doubled)

    def test_coefficients_need_the_standard_frame(self):
        base = make_family_case2(1, 0, 0, 0)
        scaled = AntiHermitianStructure(base.algebra, 4 * base.g, base.J)
        with pytest.raises(NormalizationFailedError, match="not in normalized form"):
            extract_coefficients(scaled)

    def test_coefficients_need_the_theta_identities(self):
        # [e1, e2] = e1 on the standard pair: [X, JX] has an X component
        alg = LieAlgebra.from_brackets(4, {(0, 1): {0: 1}})
        s = AntiHermitianStructure(alg, standard_metric(4), standard_j(4))
        with pytest.raises(NotAntiKahlerError):
            extract_coefficients(s)


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

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatchError, match="dimensions differ"):
            verify_isomorphism(Matrix.identity(4), LieAlgebra.abelian(3), aff_c_real())
        with pytest.raises(DimensionMismatchError, match="wrong shape"):
            verify_isomorphism(Matrix.identity(3), aff_c_real(), aff_c_real())

    def test_rejects_a_map_that_moves_j(self):
        # swapping X and Y keeps the (zero) brackets and g = diag(1, -1, 1, -1),
        # but it fixes JX where J-linearity would send it to JY
        s = catalog.get("abelian4").structure
        phi = Matrix([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]).map(Fraction)
        kept = dict(g_src=s.g, g_dst=s.g)
        assert verify_isomorphism(phi, s.algebra, s.algebra, **kept)
        assert not verify_isomorphism(phi, s.algebra, s.algebra, **kept, j_src=s.J, j_dst=s.J)

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

    def test_orbit_invariant_rejects_case1(self):
        with pytest.raises(ValueError, match="not in the bi-invariant family"):
            orbit_invariant(make_family_case1(1, 0, 1))

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


# ---------------------------------------------------------------------------
# Q(i) maps as realified blocks, against 2 x 2 GaussianRational arithmetic

I_UNIT = GaussianRational(Fraction(0), Fraction(1))
ONE = GaussianRational(Fraction(1))
ZERO = GaussianRational(Fraction(0))


def gaussian_pair(t):
    """(z1, z2) = (t1 + i t2, t3 + i t4)."""
    t1, t2, t3, t4 = (Fraction(x) for x in t)
    return GaussianRational(t1, t2), GaussianRational(t3, t4)


def c2_mul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def c2_inverse(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]


def reference_scaling(z):
    p = (z + ONE / z) * GaussianRational(Fraction(1, 2))
    q = I_UNIT * (z - ONE / z) * GaussianRational(Fraction(1, 2))
    return [[p, -q], [q, p]]


def reference_anchor(t):
    z1, z2 = gaussian_pair(t)
    if z2 == I_UNIT * z1:
        return reference_scaling(z1)
    assert z2 == -I_UNIT * z1
    return c2_mul(reference_scaling(-ONE / z1), [[ONE, ZERO], [ZERO, -ONE]])


def reference_case2_equivalence_witness(t, t_other):
    """The witness as built before Q(i) matrices were realified: the
    complex 2 x 2 map in GaussianRational arithmetic, realified last."""
    (z1, z2), (w1, w2) = gaussian_pair(t), gaussian_pair(t_other)
    if not zeta_from_params(t).is_zero():
        complex_map = c2_mul([[w1, -w2], [w2, w1]], c2_inverse([[z1, -z2], [z2, z1]]))
    else:
        complex_map = c2_mul(reference_anchor(t_other), c2_inverse(reference_anchor(t)))
    witness = _realify(complex_map)
    src, dst = make_family_case2(*t), make_family_case2(*t_other)
    return next(c for c in (witness, -witness)
                if verify_isomorphism(c, src.algebra, dst.algebra, g_src=src.g, g_dst=dst.g,
                                      j_src=src.J, j_dst=dst.J))


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
gaussians = st.builds(GaussianRational, small, small)
nonzero_gaussians = gaussians.filter(lambda z: not z.is_zero())
c2_matrices = st.lists(st.lists(gaussians, min_size=2, max_size=2), min_size=2, max_size=2)


def parts(z1, z2):
    return (z1.re, z1.im, z2.re, z2.im)


@st.composite
def zeta_orbit_pairs(draw):
    """(t, t') with zeta(t) = zeta(t') != 0: t' is (z1, z2) under a complex
    rotation with parameter sigma, maybe swapped or negated."""
    z1, z2 = draw(gaussians), draw(gaussians)
    sigma = draw(gaussians)
    den = ONE + sigma * sigma
    assume(not (z1 * z1 + z2 * z2).is_zero() and not den.is_zero())
    c, s = (ONE - sigma * sigma) / den, (sigma + sigma) / den
    w1, w2 = c * z1 - s * z2, s * z1 + c * z2
    if draw(st.booleans()):
        w1, w2 = w2, w1
    if draw(st.booleans()):
        w1, w2 = -w1, -w2
    return parts(z1, z2), parts(w1, w2)


@st.composite
def zeta_zero_pairs(draw):
    """(t, t') on the isotropic orbit, each on the branch z2 = i z1 or z2 = -i z1."""
    out = []
    for _ in range(2):
        z = draw(nonzero_gaussians)
        out.append(parts(z, draw(st.sampled_from((I_UNIT, -I_UNIT))) * z))
    return tuple(out)


small_ratios = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def orbit_partners(draw):
    """(t, t') with t' = -t, (t3, t4, t1, t2), (-t3, -t4, t1, t2) or
    (t3, t4, -t1, -t2): zeta(t') = zeta(t), on and off the zeta = 0 orbit."""
    t1, t2, t3, t4 = t = tuple(draw(small_ratios) for _ in range(4))
    assume(any(t))
    partner = draw(st.sampled_from(((-t1, -t2, -t3, -t4), (t3, t4, t1, t2),
                                    (-t3, -t4, t1, t2), (t3, t4, -t1, -t2))))
    return t, partner


class TestRealifiedMaps:
    @given(c2_matrices, c2_matrices)
    @settings(max_examples=80, deadline=None)
    def test_products_and_inverses_carry_over(self, a, b):
        assert _realify(a) * _realify(b) == _realify(c2_mul(a, b))
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        assert _realify(a).det() == det.norm_sq()
        if not det.is_zero():
            assert _realify(a).inverse() == _realify(c2_inverse(a))

    @given(zeta_orbit_pairs())
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_reference_off_zero(self, pair):
        t, t_other = pair
        got = case2_equivalence_witness(t, t_other)
        assert got.rows == reference_case2_equivalence_witness(t, t_other).rows

    @given(zeta_zero_pairs())
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_reference_on_zero_orbit(self, pair):
        t, t_other = pair
        got = case2_equivalence_witness(t, t_other)
        assert got.rows == reference_case2_equivalence_witness(t, t_other).rows

    @given(st.one_of(orbit_partners(), zeta_zero_pairs()))
    @settings(max_examples=120, deadline=None)
    def test_witness_needs_no_sign_flip(self, pair):
        """The derived witness verifies as built: the reference, which also
        tries its negative, returns the same map."""
        t, t_other = pair
        got = case2_equivalence_witness(t, t_other)
        assert got.rows == reference_case2_equivalence_witness(t, t_other).rows


class TestTargets:
    def test_built_once_per_process(self):
        assert r_minus_one_minus_one() is r_minus_one_minus_one()
        assert aff_c_real() is aff_c_real()
        assert r_minus_one_minus_one() == r_minus_one_minus_one.__wrapped__()
        assert aff_c_real() == aff_c_real.__wrapped__()

    def test_classify_reports_keep_their_bytes(self, tmp_path, capsys):
        """classify documents on stream samples of kinds 1 and 2 are the same
        with shared targets as with targets built afresh for every call."""
        paths = []
        for index in (1, 2, 7, 8, 13, 14):
            path = tmp_path / f"s{index}.txt"
            path.write_text(format_structure(random_structure(GeneratorConfig(dim=4), index)),
                            encoding="utf-8")
            paths.append(str(path))

        def documents(fresh):
            out = []
            for path in paths:
                if fresh:
                    r_minus_one_minus_one.cache_clear()
                    aff_c_real.cache_clear()
                assert main(["classify", path, "--output", "machine"]) == 0
                out.append(capsys.readouterr().out)
            return out

        assert documents(fresh=False) == documents(fresh=True)


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
        assert Matrix.from_cols(r.tensor[0, 2].fractions()) == closed.r_xy
        assert Matrix(ric.fractions()) == closed.ricci_operator
        assert is_flat(s) == closed.flat
        einstein, lam = is_einstein(s)
        assert einstein == closed.einstein
        if einstein:
            assert lam == closed.einstein_constant
        assert is_ricci_flat(s) == closed.ricci_flat
