"""Seeded random structure generators and the proposition test suites.

Everything is deterministic: a sample's RNG is seeded with a splitmix-style
mix of the master seed and the sample index, so identical configurations
produce byte-identical reports.  Assertions are evaluated exactly; floating
point appears only in the random generators, as a conditioning filter
(``_well_conditioned``) that is always followed by the exact det != 0 check.
The filter shapes which samples are drawn, so it is part of the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import catalog
from .classify4 import (
    VERDICT_ABELIAN,
    VERDICT_AFF,
    VERDICT_R,
    _realify,
    aff_c_real,
    closed_form_curvature_case2,
    case2_equivalence_witness,
    equivalence_witness_case1,
    equivalent_case2,
    classify,
    make_family_case1,
    make_family_case2,
    r_minus_one_minus_one,
    standard_j,
    verify_isomorphism,
    zeta_from_params,
)
from .geometry import (
    AntiHermitianStructure,
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
from .liealg import (
    LieAlgebra,
    is_abelian_j,
    is_bi_invariant_j,
    nijenhuis,
)
from .scalars import GaussianRational, Matrix, Tensor, signature
from .theta import (
    anti_kahler_via_theta,
    j_bracket_pairing,
    tensor_ratio,
    theta_bracket_form,
)


class UnknownSuiteError(KeyError):
    """Requested suite name is not registered."""


@dataclass(frozen=True)
class GeneratorConfig:
    master_seed: int = 20240601
    samples: int = 20
    dim: int = 4
    coefficient_bound: int = 4


_MIX_MULT = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def split_seed(master_seed: int, index: int) -> int:
    """splitmix64-style mix; the documented per-sample seed derivation."""
    z = (master_seed + (index + 1) * _MIX_MULT) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def sample_rng(config: GeneratorConfig, index: int) -> random.Random:
    return random.Random(split_seed(config.master_seed, index))


def random_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_gaussian_rational(rng: random.Random, bound: int) -> GaussianRational:
    return GaussianRational(random_rational(rng, bound), random_rational(rng, bound))


def _well_conditioned(m: Matrix) -> bool:
    """Float conditioning filter of the random generators, not a singularity test.

    Partial-pivot elimination in floats on the rational entries.  Returns
    False when a pivot vanishes or when |det| <= 1e-9 * (largest pivot)^n,
    so it also rejects nonsingular matrices that are ill-conditioned.
    Entries too large for a float pass, and are left to the exact check.
    Every draw of the generators goes through it, so changing it changes
    the sample stream.
    """
    n = m.nrows
    try:
        work = [[float(x) for x in row] for row in m.rows]
    except (OverflowError, ValueError):
        return True  # defer to the exact check
    det = 1.0
    scale = 0.0
    for c in range(n):
        pivot = max(range(c, n), key=lambda r: abs(work[r][c]))
        if abs(work[pivot][c]) < 1e-300:
            return False
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
        det *= work[c][c]
        scale = max(scale, abs(work[c][c]))
        for r in range(c + 1, n):
            f = work[r][c] / work[c][c]
            work[r] = [a - f * b for a, b in zip(work[r], work[c])]
    return abs(det) > 1e-9 * max(scale, 1.0) ** n


def random_invertible_matrix(rng: random.Random, n: int, bound: int) -> Matrix:
    while True:
        m = Matrix([[random_rational(rng, bound) for _ in range(n)]
                    for _ in range(n)])
        if _well_conditioned(m) and m.det() != 0:
            return m


def random_complex_structure(rng: random.Random, dim: int, bound: int) -> Matrix:
    """Random conjugate of the standard block J; J^2 = -I exactly."""
    p = random_invertible_matrix(rng, dim, bound)
    return p * standard_j(dim) * p.inverse()


def random_anti_hermitian_metric(algebra: LieAlgebra, j_map: Matrix,
                                 seed_or_rng, bound: int = 4,
                                 max_tries: int = 200) -> AntiHermitianStructure:
    """Random valid anti-Hermitian metric adapted to J.

    Draws a random nondegenerate C-symmetric bilinear form S = X + iY on the
    J-complex space and takes the real part of C S C^T, where C = A + iB
    holds the complex coordinates of the basis vectors:
    g = (AX - BY) A^T - (AY + BX) B^T is symmetric with J an anti-isometry.
    The float filter reads X; S is nondegenerate when its realified block is.
    """
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) \
        else random.Random(seed_or_rng)
    n = algebra.dim
    m = n // 2
    basis = _complex_basis(j_map)
    frame = Matrix.from_cols(
        [v for f in basis for v in (f, j_map.apply(f))])
    coords = frame.inverse().rows
    a = Matrix(coords[0::2]).transpose()
    b = Matrix(coords[1::2]).transpose()
    for _ in range(max_tries):
        gram = [[None] * m for _ in range(m)]
        for p in range(m):
            for q in range(p, m):
                z = random_gaussian_rational(rng, bound)
                gram[p][q] = z
                gram[q][p] = z
        x = Matrix([[z.re for z in row] for row in gram])
        if not _well_conditioned(x) or _realify(gram).det() == 0:
            continue
        y = Matrix([[z.im for z in row] for row in gram])
        g = (a * x - b * y) * a.transpose() - (a * y + b * x) * b.transpose()
        if _well_conditioned(g) and g.det() != 0:
            return AntiHermitianStructure(algebra, g, j_map)
    raise RuntimeError("exhausted retries generating a nondegenerate metric")


def random_structure(config: GeneratorConfig, index: int) -> AntiHermitianStructure:
    """Deterministic mixed stream of anti-Kahler and generic structures."""
    rng = sample_rng(config, index)
    bound = config.coefficient_bound
    if config.dim == 4:
        kind = index % 6
        if kind == 0:
            return _random_j_structure(LieAlgebra.abelian(4), rng, bound)
        if kind == 1:
            a, b = _nonzero_tuple(rng, bound, 2)
            return make_family_case1(a, b, rng.choice((1, -1)))
        if kind == 2:
            return make_family_case2(*_nonzero_tuple(rng, bound, 4))
        if kind == 3:
            return random_anti_hermitian_metric(aff_c_real(), standard_j(4), rng, bound)
        if kind == 4:
            return _random_j_structure(r_minus_one_minus_one(), rng, bound)
        return _random_j_structure(aff_c_real(), rng, bound)
    if config.dim == 6:
        kind = index % 6
        n7 = catalog.get("n7_J-1").structure
        sl2c = catalog.get("sl2c_killing").structure
        if kind == 0:
            return _random_j_structure(LieAlgebra.abelian(6), rng, bound)
        if kind == 1:
            return _n7_metric_variant(n7, rng, bound)
        if kind == 2:
            return random_anti_hermitian_metric(sl2c.algebra, sl2c.J, rng, bound)
        if kind == 3:
            return random_anti_hermitian_metric(n7.algebra, n7.J, rng, bound)
        if kind == 4:
            return _random_j_structure(n7.algebra, rng, bound)
        return _random_j_structure(sl2c.algebra, rng, bound)
    raise ValueError("generator dims are 4 and 6")


def _random_j_structure(algebra: LieAlgebra, rng: random.Random,
                        bound: int) -> AntiHermitianStructure:
    """A random J on the algebra and a random metric adapted to it.  When
    every metric draw for a J fails the float filter, a new J is drawn from
    the same rng, up to 8 J in all; a sample whose first J succeeds keeps
    the draws it always had."""
    for _ in range(8):
        j = random_complex_structure(rng, algebra.dim, bound)
        try:
            return random_anti_hermitian_metric(algebra, j, rng, bound)
        except RuntimeError:
            continue
    raise RuntimeError("exhausted retries generating a nondegenerate metric")


def _n7_metric_variant(n7: AntiHermitianStructure, rng: random.Random,
                       bound: int) -> AntiHermitianStructure:
    """Anti-Kahler metric perturbation: nondegenerate combos of g and its twin."""
    twin = twin_metric(n7)
    for _ in range(100):
        lam = random_rational(rng, bound)
        mu = random_rational(rng, bound)
        if lam == 0 and mu == 0:
            continue
        g = lam * n7.g + mu * twin.g
        if _well_conditioned(g) and g.det() != 0:
            return AntiHermitianStructure(n7.algebra, g, n7.J)
    return n7


def _nonzero_tuple(rng: random.Random, bound: int, size: int) -> tuple:
    while True:
        t = tuple(random_rational(rng, bound) for _ in range(size))
        if any(t):
            return t


# ---------------------------------------------------------------------------
# suite machinery


@dataclass
class SuiteReport:
    suite: str
    config: GeneratorConfig
    checks: int = 0
    failures: list = field(default_factory=list)
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        """No assertion failed, and at least one was checked."""
        return self.checks > 0 and not self.failures

    def check(self, ok: bool, assertion: str, sample: int = -1,
              structure: Optional[AntiHermitianStructure] = None):
        """Count one assertion; the first failing one with a structure
        formats it as the counterexample."""
        self.checks += 1
        if not ok:
            self.failures.append({"sample": sample, "assertion": assertion})
            if self.counterexample is None and structure is not None:
                from .cli.textio import format_structure
                self.counterexample = format_structure(structure)

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"master_seed: {self.config.master_seed}",
            f"samples: {self.config.samples}",
            f"dim: {self.config.dim}",
            f"coefficient_bound: {self.config.coefficient_bound}",
            f"checks: {self.checks}",
            f"failures: {len(self.failures)}",
        ]
        for failure in self.failures:
            lines.append(f"failure: sample={failure['sample']} "
                         f"assertion={failure['assertion']}")
        if self.counterexample is not None:
            lines.append("counterexample:")
            lines.extend("  " + ln for ln in self.counterexample.splitlines())
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_machine(self) -> dict:
        return {
            "suite": self.suite,
            "master_seed": self.config.master_seed,
            "samples": self.config.samples,
            "dim": self.config.dim,
            "coefficient_bound": self.config.coefficient_bound,
            "checks": self.checks,
            "failures": self.failures,
            "counterexample": self.counterexample,
            "result": "pass" if self.passed else "fail",
        }


def _tensor(m: Matrix) -> Tensor:
    """The square matrix m as the order-2 tensor t[i, j] = m[i][j]."""
    return Tensor.of(m.nrows, 2, (x for row in m.rows for x in row))


def _structures(config: GeneratorConfig) -> Iterable[tuple[int, AntiHermitianStructure]]:
    for index in range(config.samples):
        yield index, random_structure(config, index)


def _abelian_j_instances(config: GeneratorConfig):
    """Anti-Kahler structures with an abelian J, at desk scale."""
    n7 = catalog.get("n7_J-1").structure
    yield 0, n7
    yield 1, twin_metric(n7)
    yield 2, AntiHermitianStructure(n7.algebra, 2 * n7.g, n7.J)
    yield 3, AntiHermitianStructure(n7.algebra, -3 * n7.g, n7.J)
    for index in range(4, max(6, min(config.samples, 10))):
        rng = sample_rng(config, index)
        yield index, _n7_metric_variant(n7, rng, config.coefficient_bound)
    abelian = catalog.get("abelian4").structure
    yield 100, abelian


def _bi_invariant_j_instances(config: GeneratorConfig):
    sl2c = catalog.get("sl2c_killing").structure
    aff = aff_c_real()
    yield 0, sl2c
    yield 1, catalog.get("affC_std").structure
    count = max(2, min(config.samples, 8))
    for index in range(2, 2 + count):
        rng = sample_rng(config, index)
        if index % 2 == 0:
            yield index, random_anti_hermitian_metric(
                aff, standard_j(4), rng, config.coefficient_bound)
        else:
            yield index, random_anti_hermitian_metric(
                sl2c.algebra, sl2c.J, rng, config.coefficient_bound)


# ---------------------------------------------------------------------------
# suites


def _suite_neutral_signature(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        n = s.dim
        report.check(signature(s.g) == (n // 2, n // 2, 0),
                     "signature_neutral", index, s)


def _suite_complexified_form(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        rng = sample_rng(config, 10_000 + index)
        n = s.dim
        v = [random_rational(rng, config.coefficient_bound) for _ in range(n)]
        w = [random_rational(rng, config.coefficient_bound) for _ in range(n)]
        vw = complex_form(s, v, w)
        sym = vw == complex_form(s, w, v)
        real_part = vw.re == s.metric(v, w)
        i_unit = GaussianRational(Fraction(0), Fraction(1))
        i_linear = complex_form(s, s.J.apply(v), w) == i_unit * vw
        report.check(sym, "complex_form_symmetric", index, s)
        report.check(real_part, "complex_form_real_part", index, s)
        report.check(i_linear, "complex_form_i_linear", index, s)
    # orthonormal J-basis on the standard pair
    std = catalog.get("abelian4").structure
    basis = _complex_basis(std.J)
    gram = [[complex_form(std, u, v) for v in basis] for u in basis]
    report.check(gram == [[1, 0], [0, 1]], "orthonormal_j_basis_standard", -1)


def _suite_group_equality(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        rng = sample_rng(config, 20_000 + index)
        n = s.dim
        t = Matrix([[random_rational(rng, config.coefficient_bound)
                     for _ in range(n)] for _ in range(n)])
        agree = preserves_metric_and_j(s, t) == preserves_complexified_form(s, t)
        report.check(agree, "group_membership_agrees_random", index, s)
    # genuine members on the standard pair
    std = catalog.get("r-1-1_std").structure
    for k in range(4):
        rng = sample_rng(config, 30_000 + k)
        member = _standard_pair_isometry(rng, config.coefficient_bound)
        both = preserves_metric_and_j(std, member) and \
            preserves_complexified_form(std, member)
        report.check(both, "group_membership_agrees_member", k)


def _standard_pair_isometry(rng: random.Random, bound: int) -> Matrix:
    """Realified complex rotation: preserves the standard (g, J) pair."""
    while True:
        sigma = random_gaussian_rational(rng, bound)
        denom = GaussianRational(Fraction(1)) + sigma * sigma
        if not denom.is_zero():
            break
    one = GaussianRational(Fraction(1))
    alpha = (one - sigma * sigma) / denom
    beta = (sigma + sigma) / denom
    return _realify([[alpha, -beta], [beta, alpha]])


def _suite_nabla_j_symmetric(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        # g((nabla_{e_i} J) e_j, e_k) is symmetric in (j, k)
        low = nabla_j(s).pull(s.g, 2)
        report.check(low.permute((0, 2, 1)) == low, "nabla_j_g_symmetric", index, s)


def _suite_epsilon_parallelism(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        ak = is_anti_kahler(s)
        for eps in (1, -1):
            rule = epsilon_parallel_holds(s, eps)
            report.check(rule == ak, f"epsilon_{eps:+d}_iff_anti_kahler",
                         index, s)


def _suite_connection_rules(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        abelian_rule = satisfies_abelian_connection_rule(s)
        bi_rule = satisfies_bi_invariant_connection_rule(s)
        ak = is_anti_kahler(s)
        if abelian_rule:
            report.check(ak and is_abelian_j(s.algebra, s.J),
                         "abelian_rule_sufficient", index, s)
        if bi_rule:
            report.check(ak and is_bi_invariant_j(s.algebra, s.J),
                         "bi_invariant_rule_sufficient", index, s)
        if ak and is_abelian_j(s.algebra, s.J):
            report.check(abelian_rule, "abelian_rule_necessary", index, s)
        if ak and is_bi_invariant_j(s.algebra, s.J):
            report.check(bi_rule, "bi_invariant_rule_necessary", index, s)
    for index, s in _abelian_j_instances(config):
        report.check(satisfies_abelian_connection_rule(s),
                     "abelian_rule_on_instances", index, s)
    for index, s in _bi_invariant_j_instances(config):
        report.check(satisfies_bi_invariant_connection_rule(s),
                     "bi_invariant_rule_on_instances", index, s)


def _suite_bi_invariant_j(config: GeneratorConfig, report: SuiteReport):
    for index, s in _bi_invariant_j_instances(config):
        report.check(is_anti_kahler(s), "bi_invariant_j_anti_kahler",
                     index, s)


def _suite_killing_einstein(config: GeneratorConfig, report: SuiteReport):
    entry = catalog.get("sl2c_killing")
    s = entry.structure
    einstein, lam = is_einstein(s)
    report.check(einstein and lam == Fraction(1, 4), "killing_einstein_constant", 0)
    report.check(s.algebra.killing_form().det() != 0, "killing_nondegenerate", 0)
    report.check(is_bi_invariant_metric(s), "killing_metric_bi_invariant", 0)
    report.check(_bi_invariant_curvature_identity(s), "bi_invariant_curvature", 0)
    flipped = AntiHermitianStructure(s.algebra, -s.g, s.J)
    einstein2, lam2 = is_einstein(flipped)
    report.check(einstein2 and lam2 == Fraction(-1, 4),
                 "killing_einstein_constant_sign_flip", 1)
    report.check(_bi_invariant_curvature_identity(flipped),
                 "bi_invariant_curvature_sign_flip", 1)


def _bi_invariant_curvature_identity(s: AntiHermitianStructure) -> bool:
    """R(x, y)z = -1/4 [[x, y], z] on all basis triples."""
    c = s.algebra.structure
    return curvature(s).tensor * 4 == -c.dot(c)


def _suite_abelian_obstructions(config: GeneratorConfig, report: SuiteReport):
    for index, s in _abelian_j_instances(config):
        report.check(s.algebra.is_unimodular(), "abelian_j_unimodular",
                     index, s)
        report.check(killing_anti_invariant(s), "abelian_j_killing_anti_invariance",
                     index, s)
        report.check(_bracket_identity_holds(s), "abelian_j_bracket_identity",
                     index, s)


def _bracket_identity_holds(s: AntiHermitianStructure) -> bool:
    """[J[x, y], z] = J[[x, y], z] on all basis triples."""
    c = s.algebra.structure
    return c.push(s.J, 2).dot(c) == c.dot(c).push(s.J, 3)


def _suite_abelian_implies_flat(config: GeneratorConfig, report: SuiteReport):
    for index, s in _abelian_j_instances(config):
        report.check(levi_civita(s).tensor == abelian_j_connection(s),
                     "abelian_j_connection_formula", index, s)
        report.check(second_derivatives_commute(s),
                     "abelian_j_commuting_second_derivatives", index, s)
        report.check(is_flat(s), "abelian_j_flat", index, s)


def _suite_worked_example(config: GeneratorConfig, report: SuiteReport):
    s = catalog.get("n7_J-1").structure
    gamma = levi_civita(s).tensor
    half = Fraction(1, 2)
    expected = {
        (0, 0): {2: -half}, (0, 1): {3: half}, (0, 2): {4: 1}, (0, 3): {5: 1},
        (1, 0): {3: -half}, (1, 1): {2: -half}, (1, 2): {5: 1}, (1, 3): {4: -1},
    }
    for (i, j), terms in expected.items():
        report.check(gamma[i, j] == Tensor.of(6, 1, (terms.get(k, 0) for k in range(6))),
                     f"connection_coefficient_{i + 1}{j + 1}", 0)
    report.check(is_anti_kahler(s), "worked_example_parallel_j", 0)
    report.check(is_flat(s), "worked_example_flat", 0)
    report.check(s.algebra.is_unimodular(), "worked_example_unimodular", 0)
    report.check(_bracket_identity_holds(s), "worked_example_bracket_identity", 0)


def _suite_theta(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        via_theta = anti_kahler_via_theta(s)
        via_nabla = is_anti_kahler(s)
        report.check(via_theta == via_nabla, "theta_iff_anti_kahler",
                     index, s)
        if s.dim == 4:
            report.check(theta_bracket_form(s).is_zero() == via_nabla,
                         "theta_dim4_vanishing", index, s)
    sl2c = catalog.get("sl2c_killing").structure
    report.check(_theta_is_bracket_multiple(sl2c), "theta_bi_invariant_multiple", -1)


def _theta_is_bracket_multiple(s: AntiHermitianStructure) -> bool:
    """For bi-invariant g and J, theta is a pointwise multiple of <[Jx,y],z>."""
    try:
        return tensor_ratio(theta_bracket_form(s), j_bracket_pairing(s)) is not None
    except ArithmeticError:
        return False


def _suite_classification(config: GeneratorConfig, report: SuiteReport):
    config4 = GeneratorConfig(config.master_seed, config.samples, 4,
                              config.coefficient_bound)
    r_target = r_minus_one_minus_one()
    aff_target = aff_c_real()
    base = make_family_case1(1, 0, 1)
    for index in range(max(4, config.samples // 2)):
        rng = sample_rng(config4, 40_000 + index)
        a, b = _nonzero_tuple(rng, config.coefficient_bound, 2)
        eps = rng.choice((1, -1))
        s = make_family_case1(a, b, eps)
        rep = classify(s)
        report.check(rep.verdict == VERDICT_R, "case1_verdict", index, s)
        report.check(verify_isomorphism(rep.witness, s.algebra, r_target),
                     "case1_witness", index, s)
        report.check(s.algebra.derived_dim() == 3, "case1_discriminator", index)
        witness = equivalence_witness_case1(a, b, eps)
        report.check(verify_isomorphism(witness.matrix, base.algebra, s.algebra,
                                        g_src=base.g, g_dst=s.g, j_src=base.J, j_dst=s.J),
                     "case1_equivalence_path", index)
        report.check(preserves_complexified_form(s, witness.matrix),
                     "case1_equivalence_complex_form", index)
        t = _nonzero_tuple(rng, config.coefficient_bound, 4)
        s2 = make_family_case2(*t)
        rep2 = classify(s2)
        report.check(rep2.verdict == VERDICT_AFF, "case2_verdict", index, s2)
        report.check(verify_isomorphism(rep2.witness, s2.algebra, aff_target),
                     "case2_witness", index, s2)
        report.check(s2.algebra.derived_dim() == 2, "case2_discriminator", index)
        report.check(rep2.zeta == zeta_from_params(t), "case2_zeta", index)
    abelian = catalog.get("abelian4").structure
    rep = classify(abelian)
    report.check(rep.verdict == VERDICT_ABELIAN, "abelian_verdict", -1)
    report.check(abelian.algebra.derived_dim() == 0, "abelian_discriminator", -1)


def _suite_moduli(config: GeneratorConfig, report: SuiteReport):
    rng = sample_rng(config, 50_000)
    bound = config.coefficient_bound
    pairs = max(6, config.samples // 2)
    for index in range(pairs):
        t = _nonzero_tuple(rng, bound, 4)
        if index % 3 == 0:
            t_other = tuple(-x for x in t)
        elif index % 3 == 1:
            t_other = (t[2], t[3], t[0], t[1])
        else:
            t_other = _nonzero_tuple(rng, bound, 4)
        same = equivalent_case2(t, t_other)
        if same:
            witness = case2_equivalence_witness(t, t_other)
            src, dst = make_family_case2(*t), make_family_case2(*t_other)
            ok = verify_isomorphism(witness, src.algebra, dst.algebra,
                                    g_src=src.g, g_dst=dst.g,
                                    j_src=src.J, j_dst=dst.J)
            report.check(ok, "moduli_witness_verified", index, src)
        else:
            report.check(zeta_from_params(t) != zeta_from_params(t_other),
                         "moduli_distinct_zeta", index)
    # the isotropic orbit: distinct representatives of zeta = 0
    reps = [(1, 0, 0, 1), (2, 0, 0, 2), (0, 1, -1, 0), (1, 1, -1, 1),
            (1, 0, 0, -1)]
    for i, t in enumerate(reps):
        for t_other in reps[i + 1:]:
            witness = case2_equivalence_witness(t, t_other)
            src, dst = make_family_case2(*t), make_family_case2(*t_other)
            ok = verify_isomorphism(witness, src.algebra, dst.algebra,
                                    g_src=src.g, g_dst=dst.g,
                                    j_src=src.J, j_dst=dst.J)
            report.check(ok, "moduli_zeta_zero_orbit", i, src)


def _suite_case2_curvature(config: GeneratorConfig, report: SuiteReport):
    rng = sample_rng(config, 60_000)
    samples = [(1, 0, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0)]
    while len(samples) < max(8, config.samples // 2):
        samples.append(_nonzero_tuple(rng, config.coefficient_bound, 4))
    for index, t in enumerate(samples):
        s = make_family_case2(*t)
        closed = closed_form_curvature_case2(t)
        # R(X, Y) has columns R(X, Y) e_k, the rows of the curvature block at (0, 2)
        report.check(curvature(s).tensor[0, 2] == _tensor(closed.r_xy.transpose()),
                     "case2_r_xy_matches_engine", index, s)
        report.check(ricci(s)[1] == _tensor(closed.ricci_operator),
                     "case2_ricci_matches_engine", index, s)
        report.check(is_flat(s) == closed.flat, "case2_flat_iff_zeta_zero", index)
        einstein, lam = is_einstein(s)
        report.check(einstein == closed.einstein, "case2_einstein_iff_real_zeta",
                     index)
        if einstein:
            report.check(lam == closed.einstein_constant, "case2_einstein_constant",
                         index)
        report.check(is_ricci_flat(s) == closed.flat, "case2_ricci_flat_iff_flat",
                     index)


def _suite_twin(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        twin = twin_metric(s)
        double = twin_metric(twin)
        report.check(double.g == -s.g, "twin_twin_negates", index, s)
        if is_anti_kahler(s):
            report.check(levi_civita(twin).tensor == levi_civita(s).tensor,
                         "twin_shares_connection", index, s)


def _suite_purity(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        if not is_anti_kahler(s):
            continue
        report.check(curvature_is_pure(s), "anti_kahler_curvature_pure",
                     index, s)
        report.check(curvature_j_anticommutes(s), "anti_kahler_r_jj_anticommutes",
                     index, s)


def _suite_integrability(config: GeneratorConfig, report: SuiteReport):
    for index, s in _abelian_j_instances(config):
        report.check(nijenhuis(s.algebra, s.J).is_zero(),
                     "abelian_j_integrable", index, s)
    for index, s in _bi_invariant_j_instances(config):
        report.check(nijenhuis(s.algebra, s.J).is_zero(),
                     "bi_invariant_j_integrable", index, s)
    # a non-integrable J on the Heisenberg-like algebra: J e1 = e3, J e2 = e4
    algebra = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
    j = Matrix.from_cols([(0, 0, 1, 0), (0, 0, 0, 1),
                          (-1, 0, 0, 0), (0, -1, 0, 0)]).map(Fraction)
    report.check(not nijenhuis(algebra, j).is_zero(), "nijenhuis_nonzero_witness", -1)


def _suite_koszul(config: GeneratorConfig, report: SuiteReport):
    for index, s in _structures(config):
        gamma = levi_civita(s).tensor
        # g(nabla_{e_i} e_j, e_k) is skew in (j, k)
        low = gamma.pull(s.g, 2)
        report.check(low.permute((0, 2, 1)) == -low, "koszul_metric_compatibility",
                     index, s)
        # nabla_{e_i} e_j - nabla_{e_j} e_i = [e_i, e_j]
        torsion_free = gamma - gamma.permute((1, 0, 2)) == s.algebra.structure
        report.check(torsion_free, "koszul_torsion_free", index, s)


SUITES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "neutral_signature": (_suite_neutral_signature,
                          ("anti_hermitian_neutral_signature",)),
    "complexified_form": (_suite_complexified_form,
                          ("complexified_inner_product", "orthonormal_j_basis")),
    "group_equality": (_suite_group_equality, ("isometry_group_equality",)),
    "nabla_j_symmetric": (_suite_nabla_j_symmetric,
                          ("covariant_derivative_j_symmetric",)),
    "epsilon_parallelism": (_suite_epsilon_parallelism,
                            ("epsilon_parallelism_collapse",)),
    "connection_rules": (_suite_connection_rules,
                         ("abelian_connection_rule_sufficient",
                          "abelian_connection_rule_necessary",
                          "bi_invariant_connection_rule_sufficient",
                          "bi_invariant_connection_rule_necessary")),
    "bi_invariant_j_anti_kahler": (_suite_bi_invariant_j,
                                   ("bi_invariant_j_anti_kahler",)),
    "killing_metric_einstein": (_suite_killing_einstein,
                                ("semisimple_killing_einstein",
                                 "bi_invariant_curvature_formula")),
    "abelian_j_obstructions": (_suite_abelian_obstructions,
                               ("abelian_j_unimodular",
                                "abelian_j_killing_anti_invariance",
                                "abelian_j_bracket_identity")),
    "abelian_implies_flat": (_suite_abelian_implies_flat,
                             ("abelian_j_connection_formula",
                              "abelian_j_commuting_second_derivatives",
                              "abelian_j_flat")),
    "worked_example_n7": (_suite_worked_example, ("nilpotent6_worked_example",)),
    "theta_iff_antikahler": (_suite_theta,
                             ("theta_characterization", "theta_dim4_vanishing",
                              "theta_bi_invariant_multiple")),
    "dim4_classification": (_suite_classification,
                            ("dim4_classification_theorem",
                             "case1_equivalence_witness")),
    "case2_moduli": (_suite_moduli, ("case2_moduli_invariant",)),
    "case2_curvature": (_suite_case2_curvature, ("case2_curvature_closed_form",)),
    "twin_metric": (_suite_twin, ("twin_metric_shared_connection",)),
    "curvature_purity": (_suite_purity,
                         ("anti_kahler_curvature_pure",
                          "anti_kahler_j_curvature_anticommute")),
    "integrability": (_suite_integrability, ("nijenhuis_special_structures",)),
    "koszul_laws": (_suite_koszul,
                    ("koszul_metric_compatibility", "koszul_torsion_free")),
}


PROPOSITIONS = tuple(name for _, names in SUITES.values() for name in names)


def list_suites() -> tuple[str, ...]:
    return tuple(SUITES)


def run_suite(name: str, config: Optional[GeneratorConfig] = None) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuiteError(name)
    config = config or GeneratorConfig()
    report = SuiteReport(suite=name, config=config)
    SUITES[name][0](config, report)
    return report
