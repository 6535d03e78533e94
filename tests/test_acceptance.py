"""Acceptance suite.

One test per criterion, each printing a pass line on success; every check
runs in exact arithmetic with zero tolerance unless stated otherwise.
"""

import json
from fractions import Fraction

from antikahler import catalog
from antikahler.classify4 import (
    VERDICT_AFF,
    VERDICT_R,
    aff_c_real,
    case1_isomorphism,
    case2_equivalence_witness,
    case2_isomorphism,
    classify,
    closed_form_curvature_case2,
    equivalence_witness_case1,
    equivalent_case2,
    make_family_case1,
    make_family_case2,
    r_minus_one_minus_one,
    verify_isomorphism,
    zeta_from_params,
)
from antikahler.cli.main import main as cli_main
from antikahler.cli.textio import format_structure, parse_structure
from antikahler.geometry import (
    AntiHermitianStructure,
    abelian_j_connection,
    curvature,
    curvature_is_pure,
    is_anti_kahler,
    is_einstein,
    is_flat,
    is_ricci_flat,
    levi_civita,
    nabla_j,
    preserves_complexified_form,
    preserves_metric_and_j,
    ricci,
    satisfies_abelian_connection_rule,
    second_derivatives_commute,
    twin_metric,
)
from antikahler.scalars import Matrix, basis_vector
from antikahler.theta import anti_kahler_via_theta, theta_bracket_form
from antikahler.verifier import (
    GeneratorConfig,
    random_anti_hermitian_metric,
    random_rational,
    random_structure,
    sample_rng,
)


def _passed(number: int, label: str):
    print(f"[acceptance] criterion {number:02d} ({label}): PASS")


def test_criterion_01_worked_example_n7():
    s = catalog.get("n7_J-1").structure
    conn = levi_civita(s)
    half = Fraction(1, 2)
    printed = {
        (0, 0): {2: -half},           # nabla_X1 X1 = -1/2 X3
        (0, 1): {3: half},            # nabla_X1 X2 =  1/2 X4
        (0, 2): {4: Fraction(1)},     # nabla_X1 X3 = X5
        (0, 3): {5: Fraction(1)},     # nabla_X1 X4 = X6
        (1, 0): {3: -half},           # nabla_X2 X1 = -1/2 X4
        (1, 1): {2: -half},           # nabla_X2 X2 = -1/2 X3
        (1, 2): {5: Fraction(1)},     # nabla_X2 X3 = X6
        (1, 3): {4: Fraction(-1)},    # nabla_X2 X4 = -X5
    }
    for (i, j), terms in printed.items():
        want = [Fraction(0)] * 6
        for k, coeff in terms.items():
            want[k] = coeff
        assert conn.tensor[i, j].fractions() == tuple(want)
    assert nabla_j(s).is_zero()
    assert curvature(s).tensor.is_zero()
    assert s.algebra.is_unimodular()
    alg, j_map = s.algebra, s.J
    for i in range(6):
        for j in range(i + 1, 6):
            w = alg.bracket_basis(i, j)
            jw = j_map.apply(w)
            for k in range(6):
                ek = basis_vector(6, k)
                assert alg.bracket(jw, ek) == tuple(j_map.apply(alg.bracket(w, ek)))
    _passed(1, "nilpotent worked example")


def test_criterion_02_theta_oracle_equivalence():
    disagreements = 0
    outcomes = {True: 0, False: 0}
    for dim, count, seed in ((4, 102, 424201), (6, 51, 424206)):
        cfg = GeneratorConfig(master_seed=seed, samples=count, dim=dim)
        for index in range(count):
            s = random_structure(cfg, index)
            via_nabla = is_anti_kahler(s)
            outcomes[via_nabla] += 1
            if anti_kahler_via_theta(s) != via_nabla:
                disagreements += 1
    assert disagreements == 0
    assert outcomes[True] > 0 and outcomes[False] > 0  # genuine mix
    _passed(2, "theta criterion vs parallel J on 153 structures")


def test_criterion_03_bi_invariant_j_forces_anti_kahler():
    aff = aff_c_real()
    from antikahler.classify4 import standard_j
    sl2c = catalog.get("sl2c_killing").structure
    hits = 0
    for seed in range(20):
        s = random_anti_hermitian_metric(aff, standard_j(4), 90_000 + seed, bound=3)
        assert is_anti_kahler(s)
        hits += 1
    for seed in range(20):
        s = random_anti_hermitian_metric(sl2c.algebra, sl2c.J, 91_000 + seed,
                                         bound=2)
        assert is_anti_kahler(s)
        hits += 1
    assert hits == 40
    _passed(3, "bi-invariant J anti-Kahler, 40/40 random metrics")


def test_criterion_04_classification_families():
    rng = sample_rng(GeneratorConfig(master_seed=8842), 0)
    r_target = r_minus_one_minus_one()
    aff_target = aff_c_real()

    case1_params = [(1, 0, 1), (0, 1, -1), (1, 1, 1)]
    while len(case1_params) < 20:
        a, b = random_rational(rng, 4), random_rational(rng, 4)
        if a == 0 and b == 0:
            continue
        case1_params.append((a, b, rng.choice((1, -1))))
    for (a, b, eps) in case1_params:
        s = make_family_case1(a, b, eps)  # Jacobi holds: validated construction
        assert theta_bracket_form(s).is_zero()
        assert is_anti_kahler(s)
        assert is_flat(s)
        report = classify(s)
        assert report.verdict == VERDICT_R
        phi = case1_isomorphism(a, b, eps)
        assert verify_isomorphism(phi, s.algebra, r_target)

    case2_params = [(1, 0, 0, 0), (1, 0, 0, 1), (1, 2, 3, 4)]
    while len(case2_params) < 20:
        t = tuple(random_rational(rng, 4) for _ in range(4))
        if any(t):
            case2_params.append(t)
    for t in case2_params:
        s = make_family_case2(*t)
        report = classify(s)
        assert report.verdict == VERDICT_AFF
        phi = case2_isomorphism(t)
        assert verify_isomorphism(phi, s.algebra, aff_target)
        norm = sum(Fraction(x) ** 2 for x in t)
        assert phi.inverse() == (1 / norm) * phi.transpose()
    _passed(4, "dim-4 classification on 20 + 20 family samples")


def test_criterion_05_case2_curvature():
    rng = sample_rng(GeneratorConfig(master_seed=5150), 0)
    samples = [(1, 0, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0)]
    while len(samples) < 20:
        t = tuple(random_rational(rng, 4) for _ in range(4))
        if any(t):
            samples.append(t)
    for t in samples:
        s = make_family_case2(*t)
        closed = closed_form_curvature_case2(t)
        r = curvature(s)
        rc, ric = ricci(s)
        assert Matrix.from_cols(r.tensor[0, 2].fractions()) == closed.r_xy
        assert Matrix(ric.fractions()) == closed.ricci_operator
        zeta = zeta_from_params(t)
        assert is_flat(s) == (zeta.is_zero())
        einstein, lam = is_einstein(s)
        assert einstein == (zeta.im == 0)
        if einstein:
            assert lam == -2 * zeta.re
        assert is_ricci_flat(s) == is_flat(s)
    # the two pinned cases
    _, ric = ricci(make_family_case2(1, 0, 0, 0))
    assert Matrix(ric.fractions()) == -2 * Matrix.identity(4)
    assert curvature(make_family_case2(1, 0, 0, 1)).tensor.is_zero()
    _passed(5, "closed-form curvature agrees with engine on 20 samples")


def test_criterion_06_moduli():
    rng = sample_rng(GeneratorConfig(master_seed=6001), 0)
    zero_reps = [(1, 0, 0, 1), (2, 0, 0, 2), (0, 1, -1, 0), (1, 1, -1, 1),
                 (1, 0, 0, -1)]
    for t in zero_reps:
        assert zeta_from_params(t).is_zero()
    assert len({tuple(Fraction(x) for x in t) for t in zero_reps}) == 5

    pairs = []
    for i, t in enumerate(zero_reps):
        for t_other in zero_reps[i + 1:]:
            pairs.append((t, t_other, True))
    while len(pairs) < 22:
        t = tuple(random_rational(rng, 3) for _ in range(4))
        if not any(t):
            continue
        flip = (-t[0], -t[1], -t[2], -t[3]) if len(pairs) % 2 else \
            (t[2], t[3], t[0], t[1])
        pairs.append((t, flip, True))
    while len(pairs) < 30:
        t = tuple(random_rational(rng, 3) for _ in range(4))
        t_other = tuple(random_rational(rng, 3) for _ in range(4))
        if not any(t) or not any(t_other):
            continue
        if zeta_from_params(t) != zeta_from_params(t_other):
            pairs.append((t, t_other, False))

    assert len(pairs) == 30
    for t, t_other, expect in pairs:
        assert equivalent_case2(t, t_other) == expect
        if expect:
            witness = case2_equivalence_witness(t, t_other)
            src = make_family_case2(*t)
            dst = make_family_case2(*t_other)
            assert verify_isomorphism(witness, src.algebra, dst.algebra,
                                      g_src=src.g, g_dst=dst.g,
                                      j_src=src.J, j_dst=dst.J)
        else:
            assert zeta_from_params(t) != zeta_from_params(t_other)
    _passed(6, "moduli invariant on 30 pairs incl. the isotropic orbit")


def test_criterion_07_abelian_j_identities():
    n7 = catalog.get("n7_J-1").structure
    variants = [n7,
                twin_metric(n7),
                AntiHermitianStructure(n7.algebra, 3 * n7.g, n7.J),
                AntiHermitianStructure(n7.algebra, -2 * n7.g, n7.J),
                AntiHermitianStructure(n7.algebra,
                                       n7.g + 2 * twin_metric(n7).g, n7.J),
                catalog.get("abelian4").structure]
    for s in variants:
        assert is_anti_kahler(s)
        assert satisfies_abelian_connection_rule(s)
        assert levi_civita(s).tensor == abelian_j_connection(s)
        assert second_derivatives_commute(s)
        b = s.algebra.killing_form()
        assert s.J.transpose() * b * s.J == -b
    _passed(7, "abelian-J connection identities on 6 structures")


def test_criterion_08_sl2c():
    s = catalog.get("sl2c_killing").structure
    assert is_anti_kahler(s)
    einstein, lam = is_einstein(s)
    assert einstein and lam == Fraction(1, 4)
    r = curvature(s)
    alg = s.algebra
    for i in range(6):
        for j in range(i + 1, 6):
            w = alg.bracket_basis(i, j)
            for k in range(6):
                expected = tuple(Fraction(-1, 4) * x
                                 for x in alg.bracket(w, basis_vector(6, k)))
                assert r.tensor[i, j, k].fractions() == expected
    assert curvature_is_pure(s)
    _passed(8, "sl(2,C) Einstein constant 1/4 and quarter-bracket curvature")


def test_criterion_09_group_equality():
    disagreements = 0
    checked = 0
    hosts = [catalog.get("r-1-1_std").structure,
             catalog.get("affC_std").structure,
             catalog.get("n7_J-1").structure]
    rng = sample_rng(GeneratorConfig(master_seed=9009), 0)
    for k in range(50):
        host = hosts[k % len(hosts)]
        n = host.dim
        t = Matrix([[random_rational(rng, 3) for _ in range(n)]
                    for _ in range(n)])
        if preserves_metric_and_j(host, t) != preserves_complexified_form(host, t):
            disagreements += 1
        checked += 1
    # catalog witnesses: the verified structure-preserving isomorphisms
    witness_cases = []
    for (a, b, eps) in ((1, 1, 1), (2, 1, -1), (Fraction(1, 2), -1, 1)):
        witness_cases.append((make_family_case1(a, b, eps),
                              equivalence_witness_case1(a, b, eps).matrix))
    for t, t_other in (((1, 0, 0, 0), (0, 0, 1, 0)),
                       ((1, 0, 0, 1), (2, 0, 0, 2))):
        witness_cases.append((make_family_case2(*t_other),
                              case2_equivalence_witness(t, t_other)))
    for host, witness in witness_cases:
        lhs = preserves_metric_and_j(host, witness)
        rhs = preserves_complexified_form(host, witness)
        if lhs != rhs:
            disagreements += 1
        assert lhs and rhs  # witnesses genuinely belong to the group
        checked += 1
    assert disagreements == 0
    assert checked == 55
    _passed(9, "group equality on 50 random maps + 5 witnesses")


def test_criterion_10_cli(tmp_path, capsys):
    # byte-identical round trips on every catalog export
    for name in catalog.list_names():
        s = catalog.get(name).structure
        text = format_structure(s)
        assert format_structure(parse_structure(text)) == text
        assert parse_structure(text) == s

    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # documented error classes with their exit codes
    error_cases = [
        ("[algebra]\ndim = 3\nbracket e1 e1 = 1 e2\n", "AntisymmetryViolation"),
        ("[algebra]\ndim = 3\nbracket e1 e2 = 1 e3\nbracket e1 e3 = 1 e1\n",
         "JacobiViolation"),
        ("[algebra]\ndim = 2\n[metric]\nrow = 1 0\nrow = 0 1\n"
         "[complex_structure]\nrow = 0 -1\nrow = 1 0\n", "NotAntiIsometry"),
        ("[algebra]\ndim = 2\n[metric]\nrow = 0 0\nrow = 0 0\n"
         "[complex_structure]\nrow = 0 -1\nrow = 1 0\n", "SingularMetric"),
        ("[algebra]\ndim = 2\n[metric]\nrow = 1 0\nrow = 0 -1\n"
         "[complex_structure]\nrow = 1 0\nrow = 0 1\n", "BadJSquare"),
        ("[algebra]\ndim = 3\nbracket e1 e2 = 1 e3\nbracket e1 e2 = 1 e3\n",
         "SyntaxError"),
    ]
    for k, (text, expected_class) in enumerate(error_cases):
        path = tmp_path / f"case{k}.txt"
        path.write_text(text)
        code, out, _ = run("check", str(path), "--output", "machine")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["class"] == expected_class

    # exit code 1 is reserved for semantic failure of classify
    bad = tmp_path / "nonak.txt"
    bad.write_text(
        "[algebra]\ndim = 4\nbracket e1 e2 = 1 e3\n[metric]\n"
        "row = 1 0 0 0\nrow = 0 -1 0 0\nrow = 0 0 1 0\nrow = 0 0 0 -1\n"
        "[complex_structure]\n"
        "row = 0 -1 0 0\nrow = 1 0 0 0\nrow = 0 0 0 -1\nrow = 0 0 1 0\n")
    code, _, _ = run("classify", str(bad))
    assert code == 1

    good = tmp_path / "aff.txt"
    good.write_text(format_structure(catalog.get("affC_std").structure))
    code, out, _ = run("classify", str(good), "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "affC" and doc["zeta"] == "1 + 0i"
    _passed(10, "CLI round trips and error contract")
