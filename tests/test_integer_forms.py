"""Integer forms computed once per object, against tests/reference.py,
which computes each value from its definition in plain Fractions.

Covers the validation of AntiHermitianStructure, the Connection that stores
integer Christoffel numerators, the Ricci-based predicates, the Killing
anti-invariance, Nijenhuis and theta tests of ``check``, and the lazily
filled ``Matrix.integer_form``, which no reader may change.  Inputs are the
seeded stream structures of ``corpora.structures`` (dims 4 and 6, half of
them after a random rational basis change) and the catalog.
"""

import json
import math
import random
from fractions import Fraction

import pytest
import reference
from corpora import (
    SPECIAL,
    changed_basis,
    fresh,
    j_candidates,
    lists,
    raised,
    raw,
    structures,
    tensor3,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from antikahler import catalog, geometry
from antikahler.classify4 import make_family_case2
from antikahler.cli.main import main
from antikahler.cli.textio import format_structure
from antikahler.geometry import (
    AntiHermitianStructure,
    BadJSquareError,
    Connection,
    NotAntiIsometryError,
    SingularMetricError,
    abelian_j_connection,
    is_einstein,
    is_ricci_flat,
    killing_anti_invariant,
    levi_civita,
    second_derivatives_commute,
)
from antikahler.liealg import LieAlgebra, nijenhuis
from antikahler.scalars import (
    DimensionMismatchError,
    GaussianRational,
    Matrix,
    SingularMatrixError,
    clear_denominators,
    format_rational,
)
from antikahler.theta import (
    anti_kahler_via_theta,
    theta_connection_form,
    theta_is_pure,
    theta_is_skew,
)
from antikahler.verifier import GeneratorConfig, random_structure

# ---------------------------------------------------------------------------
# references that pin a route or a behaviour rather than a value


def ref_mul(a, b):
    cols = list(zip(*b.rows))
    return Matrix([[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
                   for row in a.rows])


def ref_validate(algebra, g, j_map):
    """The checks of AntiHermitianStructure.__init__ on Fraction products."""
    n = algebra.dim
    if g.nrows != n or g.ncols != n or j_map.nrows != n or j_map.ncols != n:
        raise DimensionMismatchError("g and J must be dim x dim")
    if ref_mul(j_map, j_map) != -Matrix.identity(n):
        raise BadJSquareError("J^2 != -I")
    if not g.is_symmetric():
        raise NotAntiIsometryError("metric matrix is not symmetric")
    try:
        g.inverse()
    except SingularMatrixError:
        raise SingularMetricError("metric matrix is singular") from None
    if ref_mul(ref_mul(j_map.transpose(), g), j_map) != -g:
        raise NotAntiIsometryError("g(Jx, Jy) != -g(x, y)")


def stream_and_catalog():
    """The catalog, non-flat Einstein structures whose metrics have
    denominators, and stream structures at dims 4 and 6; each of the last
    two also after a basis change."""
    sl2c = catalog.get("sl2c_killing").structure
    out = list(SPECIAL)
    einstein = [AntiHermitianStructure(sl2c.algebra, c * sl2c.g, sl2c.J)
                for c in (Fraction(2, 3), Fraction(-5, 7))]
    einstein += [make_family_case2(1, 0, 0, 0), make_family_case2(Fraction(1, 2), 0, 3, 0)]
    stream = [random_structure(GeneratorConfig(dim=dim, master_seed=5), index)
              for dim, count in ((4, 12), (6, 6)) for index in range(count)]
    for index, s in enumerate(einstein + stream):
        out += [s, changed_basis(s, index)]
    return out


FIXED = stream_and_catalog()

# ---------------------------------------------------------------------------
# inputs


@st.composite
def near_misses(draw):
    """(algebra, g, J): a valid stream triple, or one with an entry of J or
    g changed (g symmetrically, so that the anti-isometry test decides), a
    singular or non-symmetric g, or a J that is not a complex structure."""
    s = draw(structures(dims=(4, 6)))
    n = s.dim
    g = [list(row) for row in s.g.rows]
    j = [list(row) for row in s.J.rows]
    kind = draw(st.sampled_from(("valid", "j", "g", "g-sym", "singular", "j-candidate")))
    i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    delta = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))
    if kind == "j":
        j[i][k] += delta
    elif kind == "g":
        g[i][k] += delta
    elif kind == "g-sym":
        g[i][k] += delta
        if i != k:
            g[k][i] += delta
    elif kind == "singular":
        g[i] = [Fraction(0)] * n
        for row in g:
            row[i] = Fraction(0)
    elif kind == "j-candidate":
        candidate = draw(j_candidates())
        j = [list(row) for row in candidate.rows]
    return s.algebra, Matrix(g), Matrix(j)


# ---------------------------------------------------------------------------
# tests


class TestValidation:
    @given(near_misses())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_checks(self, case):
        algebra, g, j = case
        want = raised(ref_validate, algebra, g, j)
        assert raised(AntiHermitianStructure, algebra, g, j) == want
        if want is None:
            s = AntiHermitianStructure(algebra, g, j)
            assert s.g is g and s.J is j
            assert s.g_inv == g.inverse()

    def test_catalog_and_fixed(self):
        for s in FIXED:
            assert ref_validate(s.algebra, s.g, s.J) is None
            assert AntiHermitianStructure(s.algebra, s.g, s.J) == s

    def test_gaussian_j_is_rejected(self):
        i, zero = GaussianRational(Fraction(0), Fraction(1)), GaussianRational(Fraction(0))
        g = Matrix.diagonal([Fraction(1), Fraction(-1)])
        with pytest.raises(ValueError, match=r"entry \(0, 0\) is GaussianRational"):
            AntiHermitianStructure(LieAlgebra.abelian(2), g, Matrix([[i, zero], [zero, i]]))

    def test_gaussian_metric_is_rejected(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        g = Matrix([[Fraction(1), i], [i, Fraction(1)]])
        j = Matrix([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is GaussianRational"):
            AntiHermitianStructure(LieAlgebra.abelian(2), g, j)


class TestConnection:
    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_levi_civita_matches_fraction_operators(self, s):
        self.assert_matches(s)

    def test_fixed(self):
        for s in FIXED:
            self.assert_matches(s)

    @staticmethod
    def assert_matches(s):
        s = fresh(s)  # no memo shared with other tests
        c, g, _ = raw(s)
        gamma = reference.christoffel(c, g)
        conn, want = levi_civita(s), tensor3(gamma)
        # the reduced denominator is the lcm of the reduced Fraction denominators
        assert conn.tensor.den == math.lcm(*(x.denominator for plane in gamma for row in plane
                                             for x in row))
        assert (conn.tensor.nums, conn.tensor.den) == (want.nums, want.den)
        # a Connection keeps the Christoffel tensor it is given, reduced
        unreduced = Connection(want * 3 / 3).tensor
        assert (unreduced.nums, unreduced.den) == (want.nums, want.den)
        assert conn._operators is None
        n = s.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    got = conn.tensor[i, j, k]
                    assert type(got) is Fraction and got == gamma[i][j][k]
        assert conn.tensor.texts() == [[[format_rational(x) for x in row] for row in plane]
                                       for plane in gamma]
        assert conn.operators == tuple(map(Matrix.from_cols, gamma))
        assert all(type(x) is Fraction for m in conn.operators for row in m.rows for x in row)

    @given(structures())
    @settings(max_examples=30, deadline=None)
    def test_abelian_formula_and_commuting_derivatives(self, s):
        c, g, j = raw(s)
        assert lists(abelian_j_connection(s)) == reference.abelian_j_gamma(c, j)
        assert second_derivatives_commute(s) == reference.second_derivatives_commute(
            reference.christoffel(c, g))

    def test_equality_across_entry_types(self):
        s = catalog.get("sl2c_killing").structure
        gamma = lists(levi_civita(s).tensor)
        scaled = [[[x * 6 for x in row] for row in plane] for plane in gamma]
        assert all(x.denominator == 1 for plane in scaled for row in plane for x in row)
        ints = Connection(tensor3([[list(map(int, row)) for row in plane] for plane in scaled]))
        assert ints.tensor == tensor3(scaled)
        assert ints.tensor != levi_civita(s).tensor
        assert Connection(ints.tensor / 6).tensor == tensor3(gamma) == levi_civita(s).tensor


class TestPredicates:
    @given(structures())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_predicates(self, s):
        self.assert_matches(s)

    def test_fixed(self):
        for s in FIXED:
            self.assert_matches(s)
        # lambda is tested where it is nonzero and g has a denominator
        assert any(is_einstein(s)[1] and s.g.integer_form[2] > 1 for s in FIXED)

    @staticmethod
    def assert_matches(s):
        c, g, j = raw(s)
        rc = reference.milnor_ricci(c, g)[0]
        einstein = is_einstein(s)
        assert einstein == reference.is_einstein(rc, g)
        assert einstein[1] is None or type(einstein[1]) is Fraction
        assert is_ricci_flat(s) == reference.is_zero(rc)
        assert killing_anti_invariant(s) == reference.killing_anti_invariant(c, j)
        table = nijenhuis(s.algebra, s.J)
        assert table.is_zero() == all(not any(v) for row in table.fractions() for v in row)
        want = reference.theta(c, g, j)
        assert anti_kahler_via_theta(s) == (reference.is_skew(want)
                                            and reference.is_pure(want, j))
        theta = theta_connection_form(s)
        assert theta_is_skew(theta) == reference.is_skew(lists(theta))
        assert theta_is_pure(theta, s.J) == reference.is_pure(lists(theta), j)

    @given(st.integers(0, 10**6), st.sampled_from(("none", "12", "23", "all")))
    @settings(max_examples=80, deadline=None)
    def test_skew_on_random_tensors(self, seed, symmetry):
        """Random tensors, antisymmetrized over no slots, one pair of slots or all."""
        rng = random.Random(seed)
        n = rng.choice((2, 3, 4))
        t = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
        signs = {"none": {(0, 1, 2): 1}, "12": {(0, 1, 2): 1, (1, 0, 2): -1},
                 "23": {(0, 1, 2): 1, (0, 2, 1): -1},
                 "all": {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                         (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1}}[symmetry]

        def value(i, j, k):
            idx = (i, j, k)
            return sum(sign * t[idx[p[0]]][idx[p[1]]][idx[p[2]]] for p, sign in signs.items())

        entries = [[[value(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]
        theta = tensor3(entries)
        assert theta_is_skew(theta) == reference.is_skew(entries)
        assert theta_is_skew(theta) == (symmetry == "all" or theta.is_zero())


class TestIntegerFormCache:
    @given(st.lists(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                             min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_readers_leave_it_unchanged(self, rows):
        m = Matrix(rows)
        form = m.integer_form
        snapshot = json.dumps(form)
        ints, den = clear_denominators(rows)
        assert form == (ints, [list(col) for col in zip(*ints)], den)
        m.det()
        m.rank()
        if m.det():
            m.inverse()
        m * m
        m.transpose() * m
        m * Matrix.identity(3)
        assert m.integer_form is form
        assert json.dumps(m.integer_form) == snapshot

    def test_structure_readers_leave_it_unchanged(self):
        s = random_structure(GeneratorConfig(dim=6, master_seed=5), 4)
        forms = [(m, json.dumps(m.integer_form)) for m in (s.g, s.J, s.g_inv)]
        is_einstein(s)
        killing_anti_invariant(s)
        anti_kahler_via_theta(s)
        second_derivatives_commute(s)
        twin = AntiHermitianStructure(s.algebra, s.J.transpose() * s.g, s.J)
        levi_civita(twin)
        assert all(json.dumps(m.integer_form) == snap for m, snap in forms)


class TestNoFractionOperators:
    """Machine check and classify read the connection's integers only."""

    @pytest.mark.parametrize("name,command", [
        ("n7_J-1", "check"), ("sl2c_killing", "check"), ("affC_std", "check"),
        ("affC_std", "classify"), ("r-1-1_std", "classify")])
    def test_commands(self, tmp_path, capsys, monkeypatch, name, command):
        connections = []

        class RecordingConnection(geometry.Connection):
            def __init__(self, *args):
                super().__init__(*args)
                connections.append(self)

        monkeypatch.setattr(geometry, "Connection", RecordingConnection)
        path = tmp_path / "s.txt"
        path.write_text(format_structure(catalog.get(name).structure))
        assert main([command, str(path), "--output", "machine"]) == 0
        capsys.readouterr()
        assert connections
        assert all(c._operators is None for c in connections)
