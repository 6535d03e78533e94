"""The cheap routes to curvature data against the full products.

`curvature` builds R block by block, `ricci` takes Ricci from Gamma when R
is not memoized, `is_flat` and `curvature_is_pure` let Ricci decide False
first, and `check` reads flatness and purity from the paper's theorems on
anti-Kahler input.  Each route must give what the full product
R = twice - twice^T - C Gamma gives, which is written out here as the
reference, on the catalog, on the seed-77 stream at dims 4 and 6 (odd
indices after a random rational basis change) and on dense dim-8/10
direct sums.  On the same structures the two constructions of theta, from
the structure constants and from Gamma, are one tensor, and the J
predicates, the Nijenhuis tensor and the anti-Kahler test that `check`
decides from shared contractions equal their formulas, written out here.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import antikahler
from antikahler import catalog
from antikahler.classify4 import transform_structure
from antikahler.cli import main as cli_main
from antikahler.cli.textio import format_structure
from antikahler.geometry import (
    AntiHermitianStructure,
    _second_derivatives,
    curvature,
    curvature_is_pure,
    is_anti_kahler,
    is_flat,
    levi_civita,
    nabla_j,
    ricci,
)
from antikahler.liealg import (
    JacobiViolation,
    LieAlgebra,
    is_abelian_j,
    is_anti_abelian_j,
    is_bi_invariant_j,
    jacobi_residual,
    nijenhuis,
)
from antikahler.scalars import Matrix, Tensor
from antikahler.theta import j_bracket_pairing, theta_bracket_form, theta_connection_form
from antikahler.verifier import (
    GeneratorConfig,
    random_anti_hermitian_metric,
    random_complex_structure,
    random_invertible_matrix,
    random_structure,
)

STREAM_SAMPLES = 48


def reference_curvature(s):
    """R = twice - twice.permute - C Gamma, the whole n^5 product at once."""
    gamma = levi_civita(s).tensor
    twice = _second_derivatives(gamma)
    return twice - twice.permute((1, 0, 2, 3)) - s.algebra.structure.dot(gamma)


def fresh(s):
    """The same structure with an empty memo."""
    return AntiHermitianStructure(s.algebra, s.g, s.J)


def block_sum(x, y):
    zero = Fraction(0)
    n, m = x.nrows, y.nrows
    return Matrix([list(row) + [zero] * m for row in x.rows]
                  + [[zero] * n + list(row) for row in y.rows])


def direct_sum_algebra(a, b):
    zero = Fraction(0)
    brackets = {key: list(vec) + [zero] * b.dim for key, vec in a.nonzero_brackets().items()}
    brackets.update({(i + a.dim, j + a.dim): [zero] * a.dim + list(vec)
                     for (i, j), vec in b.nonzero_brackets().items()})
    return LieAlgebra.from_brackets(a.dim + b.dim, brackets)


def direct_sum(s, t):
    return AntiHermitianStructure(direct_sum_algebra(s.algebra, t.algebra),
                                  block_sum(s.g, t.g), block_sum(s.J, t.J))


def dense_sums():
    """Dense dim-8 and dim-10 structures, anti-Kahler and generic."""
    rng = random.Random(29)
    affc = catalog.get("affC_std").structure
    for name in ("r-1-1_std", "n7_J-1"):
        product = direct_sum(catalog.get(name).structure, affc)
        n = product.dim
        dense = transform_structure(product, random_invertible_matrix(rng, n, 2))
        yield f"ak{n}d", dense
        yield f"g{n}d", random_anti_hermitian_metric(
            dense.algebra, random_complex_structure(rng, n, 2), rng, 2)


def structures(samples=STREAM_SAMPLES):
    """The catalog, `samples` seed-77 stream structures at each of dims 4 and 6
    (odd indices after a random rational basis change), and dense_sums()."""
    out = [(name, catalog.get(name).structure) for name in catalog.list_names()]
    for dim in (4, 6):
        config = GeneratorConfig(master_seed=77, dim=dim)
        for index in range(samples):
            s = random_structure(config, index)
            if index % 2:
                p = random_invertible_matrix(random.Random(f"{dim}:{index}"), dim, 2)
                s = transform_structure(s, p)
            out.append((f"stream{dim}-{index}", s))
    return out + list(dense_sums())


CASES = structures()
IDS = [name for name, _ in CASES]


def run_check(monkeypatch, capsys, s):
    """`check --output machine` on s itself, so its memo can be read after."""
    monkeypatch.setattr(cli_main, "_load", lambda path: s)
    assert cli_main.main(["check", "structure.txt", "--output", "machine"]) == 0
    return json.loads(capsys.readouterr().out)["predicates"]


def reference_j_route(s):
    """The J predicates, N and <[Jx, y], z>, each contracted afresh from
    its formula."""
    c, j = s.algebra.structure, s.J
    cj = c.pull(j, 0)
    return {"abelian": cj.pull(j, 1) == c,
            "bi_invariant": cj == c.push(j, 2),
            "anti_abelian": cj.pull(j, 1) == -c,
            "nijenhuis": cj.pull(j, 1) - cj.push(j, 2) - c.pull(j, 1).push(j, 2) - c,
            "pairing": cj.pull(s.g, 2)}


def j_route(s, **memo):
    a, j = s.algebra, s.J
    return {"abelian": is_abelian_j(a, j, **memo),
            "bi_invariant": is_bi_invariant_j(a, j, **memo),
            "anti_abelian": is_anti_abelian_j(a, j, **memo),
            "nijenhuis": nijenhuis(a, j, **memo),
            "pairing": j_bracket_pairing(s)}


def perturbed_tables(algebra):
    """The bracket table with 1/3 e_k added to one bracket, for a few
    (pair, k); most of them break the Jacobi identity."""
    n, table = algebra.dim, algebra.nonzero_brackets()
    for i, j in ((0, 1), (0, n - 1), (1, 2)):
        for k in (0, n - 1):
            vec = list(table.get((i, j), [Fraction(0)] * n))
            vec[k] += Fraction(1, 3)
            yield n, {**table, (i, j): vec}


def full_purity(s):
    """curvature_is_pure reading a memoized R, so no Ricci pre-test runs."""
    s = fresh(s)
    curvature(s)
    return curvature_is_pure(s)


@pytest.mark.parametrize("s", [s for _, s in CASES], ids=IDS)
class TestRoutes:
    def test_slice_kernel_is_the_full_product(self, s):
        r, ref = curvature(fresh(s)).tensor, reference_curvature(s)
        assert (r.den, r.nums) == (ref.den, ref.nums)

    def test_ricci_from_gamma_is_the_trace(self, s):
        trace = reference_curvature(s).trace(0, 3)
        t = fresh(s)
        rc, ric = ricci(t)
        assert "curvature" not in t._cache
        assert rc == trace and ric == trace.push(s.g_inv, 0)
        traced = fresh(s)
        curvature(traced)
        assert ricci(traced) == (rc, ric)

    def test_predicates_decide_as_the_full_tensor(self, s):
        flat = reference_curvature(s).is_zero()
        assert is_flat(fresh(s)) == flat
        assert curvature_is_pure(fresh(s)) == full_purity(s)

    def test_check_verdicts_and_what_check_builds(self, s, monkeypatch, capsys):
        t = fresh(s)
        predicates = run_check(monkeypatch, capsys, t)
        assert predicates["flat"] == reference_curvature(s).is_zero()
        assert predicates["curvature_pure"] == full_purity(s)
        # R is built only when Ricci cannot decide a verdict that no theorem gives
        rc = reference_curvature(s).trace(0, 3)
        j_symmetric = rc.pull(s.J, 0) == rc.pull(s.J, 1)
        if is_anti_kahler(s):
            needed = rc.is_zero() and not is_abelian_j(s.algebra, s.J)
        else:
            needed = rc.is_zero() or j_symmetric
        assert ("curvature" in t._cache) == needed

    def test_theta_forms_are_one_tensor(self, s):
        """check's anti_kahler_theta reads the bracket form alone."""
        assert theta_bracket_form(s) == theta_connection_form(s)

    def test_shared_j_contractions_are_the_formulas(self, s):
        """Alone and through the memo `check` passes, in either order."""
        want = reference_j_route(s)
        shared = fresh(s)
        for got in (j_route(fresh(s)), j_route(shared, _memo=shared._memo)):
            for key, value in want.items():
                if isinstance(value, Tensor):
                    assert (got[key].den, got[key].nums) == (value.den, value.nums), key
                else:
                    assert got[key] == value, key
        assert {"cj", "cjj"} <= set(shared._cache)
        theta_first = fresh(s)
        theta_bracket_form(theta_first)
        assert nijenhuis(s.algebra, s.J, _memo=theta_first._memo) == want["nijenhuis"]

    def test_anti_kahler_is_nabla_j_zero(self, s):
        assert is_anti_kahler(fresh(s)) == nabla_j(s).is_zero()

    def test_from_brackets_names_the_jacobi_residual(self, s):
        for n, table in perturbed_tables(s.algebra):
            residual = jacobi_residual(n, table)
            if residual:
                with pytest.raises(JacobiViolation) as err:
                    LieAlgebra.from_brackets(n, table)
                assert str(err.value) == f"Jacobi identity fails, residual {residual}"
            else:
                assert jacobi_residual(LieAlgebra.from_brackets(n, table)) == 0


GENERIC = [(name, s) for name, s in CASES if not is_anti_kahler(fresh(s))]


@pytest.mark.parametrize("s", [s for _, s in GENERIC], ids=[name for name, _ in GENERIC])
def test_generic_check_builds_no_curvature(s, monkeypatch, capsys):
    t = fresh(s)
    predicates = run_check(monkeypatch, capsys, t)
    assert not predicates["anti_kahler_nabla"]
    assert "curvature" not in t._cache


def test_anti_kahler_reads_past_slice_zero():
    """An anti-Kahler summand first: nabla_{e_0} J vanishes, and only the
    slices of the generic summand decide."""
    affc = catalog.get("affC_std").structure
    for _, t in GENERIC[:6]:
        s = direct_sum(affc, t)
        nj = nabla_j(s)
        assert nj[0].is_zero() and not nj.is_zero()
        assert not is_anti_kahler(s)


def test_perturbed_tables_break_jacobi():
    broken = sum(bool(jacobi_residual(n, table))
                 for _, s in CASES for n, table in perturbed_tables(s.algebra))
    assert broken > len(CASES)


@pytest.mark.parametrize("name, most", [("g10d", 12), ("ak10d", 15)])
def test_contractions_per_check(name, most, monkeypatch, capsys):
    """Tensor.pull and Tensor.push calls in one `check`: the J-contractions
    are shared, and nabla J stops at slice 0 on generic input (20 and 21
    when each predicate contracted afresh)."""
    calls = []
    for attr in ("pull", "push"):
        def counted(self, m, slot, _orig=getattr(Tensor, attr)):
            calls.append(slot)
            return _orig(self, m, slot)
        monkeypatch.setattr(Tensor, attr, counted)
    predicates = run_check(monkeypatch, capsys, fresh(dict(CASES)[name]))
    assert predicates["anti_kahler_nabla"] == name.startswith("ak")
    assert len(calls) <= most


def test_samples_reach_every_route():
    """The cases hold anti-Kahler structures with abelian J, with non-abelian
    J both flat and not, and generic ones, which are impure."""
    kinds = set()
    for _, s in CASES:
        ak = is_anti_kahler(s)
        kinds.add((ak, ak and is_abelian_j(s.algebra, s.J),
                   reference_curvature(s).is_zero(), full_purity(s)))
    assert {(True, True, True, True), (True, False, False, True),
            (True, False, True, True), (False, False, False, False)} <= kinds


def test_machine_curvature_into_a_pipe_closed_early(tmp_path):
    """The reader closes stdout after one byte of a document far larger than
    a 64 KB pipe buffer: the CLI exits 1 and prints no traceback."""
    path = tmp_path / "g10d.txt"
    path.write_text(format_structure(dict(CASES)["g10d"]), encoding="utf-8")
    src = str(Path(antikahler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "antikahler", "curvature", str(path), "--output", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
