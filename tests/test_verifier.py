import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import antikahler
from antikahler import catalog
from antikahler.cli.textio import format_structure, parse_structure
from antikahler.classify4 import standard_j
from antikahler.geometry import is_anti_kahler
from antikahler.liealg import LieAlgebra
from antikahler.scalars import Matrix, signature
from antikahler.verifier import (
    PROPOSITIONS,
    SUITES,
    GeneratorConfig,
    SuiteReport,
    UnknownSuiteError,
    _well_conditioned,
    list_suites,
    random_anti_hermitian_metric,
    random_complex_structure,
    random_structure,
    run_suite,
    sample_rng,
    split_seed,
)
from test_j_contractions import fraction_views


class TestDeterminism:
    def test_split_seed_stable(self):
        assert split_seed(1, 0) == split_seed(1, 0)
        assert split_seed(1, 0) != split_seed(1, 1)
        assert split_seed(1, 0) != split_seed(2, 0)

    def test_identical_configs_identical_reports(self):
        cfg = GeneratorConfig(master_seed=5, samples=5, dim=4)
        first = run_suite("theta_iff_antikahler", cfg)
        second = run_suite("theta_iff_antikahler", cfg)
        assert first.to_text() == second.to_text()
        assert first.to_machine() == second.to_machine()

    def test_structures_reproducible(self):
        cfg = GeneratorConfig(master_seed=11, samples=4, dim=4)
        for i in range(4):
            assert random_structure(cfg, i) == random_structure(cfg, i)


# dim-6 samples (master seed, index) of random-J kinds whose first J admits
# no metric draw that passes the float filter
FIRST_J_FAILS = [(4169, 4), (7314, 10), (7695, 5), (8568, 0), (10358, 0),
                 (11695, 11), (11926, 4)]


@pytest.mark.parametrize("seed, index", FIRST_J_FAILS)
def test_random_structure_redraws_a_j_without_metric(seed, index):
    cfg = GeneratorConfig(master_seed=seed, dim=6)
    rng = sample_rng(cfg, index)
    kind = index % 6
    algebra = (LieAlgebra.abelian(6) if kind == 0 else
               catalog.get("n7_J-1" if kind == 4 else "sl2c_killing").structure.algebra)
    j = random_complex_structure(rng, 6, cfg.coefficient_bound)
    with pytest.raises(RuntimeError, match="exhausted retries"):
        random_anti_hermitian_metric(algebra, j, rng, cfg.coefficient_bound)
    s = random_structure(cfg, index)
    assert s.algebra == algebra and s.J != j
    assert random_structure(cfg, index) == s


def test_verify_at_a_seed_that_redraws_j_exits_cleanly():
    src = str(Path(antikahler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "antikahler", "verify", "theta_iff_antikahler",
         "--seed", "4169", "--dim", "6"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr


class TestGenerators:
    def test_random_complex_structure(self):
        rng = sample_rng(GeneratorConfig(master_seed=3), 0)
        j = random_complex_structure(rng, 4, 3)
        assert j * j == -Matrix.identity(4)

    def test_random_metric_valid_and_neutral(self):
        alg = LieAlgebra.abelian(6)
        j = standard_j(6)
        s = random_anti_hermitian_metric(alg, j, 12345, bound=3)
        assert signature(s.g) == (3, 3, 0)

    def test_random_metric_deterministic(self):
        alg = LieAlgebra.abelian(4)
        j = standard_j(4)
        assert random_anti_hermitian_metric(alg, j, 9, bound=3) == \
            random_anti_hermitian_metric(alg, j, 9, bound=3)

    def test_bi_invariant_j_forces_anti_kahler(self):
        # random metric adapted to the bi-invariant J is always anti-Kahler
        sl2c = catalog.get("sl2c_killing").structure
        for seed in range(3):
            s = random_anti_hermitian_metric(sl2c.algebra, sl2c.J, seed, bound=2)
            assert is_anti_kahler(s)

    def test_stream_mixes_verdicts(self):
        cfg = GeneratorConfig(master_seed=55, samples=12, dim=4)
        verdicts = {is_anti_kahler(random_structure(cfg, i)) for i in range(12)}
        assert verdicts == {True, False}


class TestConditioningFilter:
    """The generators' float filter rejects some nonsingular draws, and the
    stream depends on which: these cases pin what it does."""

    def test_rejects_ill_conditioned_nonsingular(self):
        m = Matrix([[Fraction(1), Fraction(1)], [Fraction(1), 1 + Fraction(1, 10**10)]])
        assert m.det() != 0
        assert not _well_conditioned(m)

    # at dim 6, master seed 2, samples 60 and 113 are drawn after the filter
    # rejected a nonsingular 6x6 metric (exact det about -1.1e-4 and -6.5e-2)
    @pytest.mark.parametrize("index,digest", [
        (60, "e635850c5a7f0a3a1537da4c9f0d763b6f032dba1bfc3fdf4f9a26f1a6ffccf9"),
        (113, "db595524ef74ff93c1a55a03d5d882144d86cf8d5e58030f8f16865ac1be7e93"),
    ])
    def test_stream_samples_it_shapes(self, index, digest):
        s = random_structure(GeneratorConfig(master_seed=2, dim=6), index)
        assert hashlib.sha256(format_structure(s).encode()).hexdigest() == digest


class TestRegistry:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("nope", GeneratorConfig())

    def test_propositions_covered_exactly_once(self):
        seen = {}
        for name, (_, props) in SUITES.items():
            for prop in props:
                assert prop not in seen, f"{prop} covered twice"
                seen[prop] = name
        assert set(seen) == set(PROPOSITIONS)

    def test_list_suites(self):
        assert set(list_suites()) == set(SUITES)


class TestSuitesRun:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_passes_dim4(self, name):
        report = run_suite(name, GeneratorConfig(master_seed=17, samples=5, dim=4))
        assert report.passed, report.to_text()
        assert report.checks > 0

    @pytest.mark.parametrize("name", ["theta_iff_antikahler", "koszul_laws",
                                      "curvature_purity", "twin_metric"])
    def test_suite_passes_dim6(self, name):
        report = run_suite(name, GeneratorConfig(master_seed=23, samples=4, dim=6))
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("name", ["worked_example_n7", "case2_curvature"])
    def test_suite_builds_no_fraction_view(self, name):
        """The closed forms are compared with the integer tensors."""
        with fraction_views() as views:
            report = run_suite(name, GeneratorConfig(master_seed=17, samples=5, dim=4))
        assert report.passed and report.checks > 0
        assert views == []


class TestReportFormat:
    def test_counterexample_serializes_to_cli_format(self):
        cfg = GeneratorConfig(master_seed=1, samples=1, dim=4)
        report = SuiteReport(suite="demo", config=cfg)
        s = catalog.get("affC_std").structure
        report.check(False, "demo_assertion", 0, s)
        assert not report.passed
        text = report.to_text()
        assert "result: FAIL" in text
        assert "counterexample:" in text
        payload = "\n".join(
            line[2:] for line in text.splitlines()
            if line.startswith("  "))
        assert parse_structure(payload) == s

    def test_passing_suite_formats_no_structure(self, monkeypatch):
        import antikahler.cli.textio as textio
        formatted = []
        monkeypatch.setattr(textio, "format_structure", lambda s: formatted.append(s))
        report = run_suite("koszul_laws", GeneratorConfig(master_seed=5, samples=4, dim=4))
        assert report.passed and report.checks > 0
        assert formatted == []

    def test_failing_suite_keeps_its_counterexample_text(self, monkeypatch):
        """The first failing check's structure, formatted as before."""
        import antikahler.verifier as verifier
        monkeypatch.setattr(verifier, "signature", lambda g: (0, 0, 0))
        config = GeneratorConfig(master_seed=5, samples=3, dim=4)
        report = run_suite("neutral_signature", config)
        assert report.checks == 3 and len(report.failures) == 3
        assert report.counterexample == format_structure(random_structure(config, 0))
        assert ("counterexample:\n  " + format_structure(random_structure(config, 0))
                .rstrip("\n").replace("\n", "\n  ")) in report.to_text()

    def test_zero_checks_is_a_failure(self):
        report = SuiteReport(suite="demo",
                             config=GeneratorConfig(master_seed=1, samples=1, dim=4))
        assert report.checks == 0 and not report.passed
        assert report.to_text().endswith("result: FAIL\n")
        assert report.to_machine()["result"] == "fail"

    def test_pass_report_shape(self):
        report = run_suite("worked_example_n7",
                           GeneratorConfig(master_seed=2, samples=2, dim=4))
        text = report.to_text()
        assert text.endswith("result: PASS\n")
        machine = report.to_machine()
        assert machine["result"] == "pass"
        assert machine["failures"] == []
