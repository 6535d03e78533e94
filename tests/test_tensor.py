"""scalars.Tensor against a Fraction reference that shares no code with it.

The reference keeps a tensor as a dict {index tuple: Fraction} and computes
every operation entry by entry from its definition.  Operands are random
tensors of order 1 to 4 on Q^1 to Q^4, all-zero ones included, with
denominators up to 2^80.
"""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antikahler import catalog
from antikahler.cli.main import main
from antikahler.cli.textio import format_structure
from antikahler.geometry import ricci
from antikahler.scalars import Matrix, Tensor
from antikahler.verifier import GeneratorConfig, random_structure

BIG = 2 ** 80

entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from([1, 3, BIG, BIG + 1, 2 ** 79])))


@st.composite
def tensors(draw, n=None, order=None, zero=None):
    n = draw(st.integers(1, 4)) if n is None else n
    order = draw(st.integers(1, 4 if n <= 3 else 3)) if order is None else order
    if zero is None:
        zero = draw(st.integers(0, 4)) == 0
    values = ([Fraction(0)] * n ** order if zero
              else draw(st.lists(entries, min_size=n ** order, max_size=n ** order)))
    return n, order, dict(zip(itertools.product(range(n), repeat=order), values))


@st.composite
def matrices(draw, n):
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


def build(n, order, ref):
    """The Tensor of a reference dict, from its row-major flat entries."""
    return Tensor.of(n, order, [ref[idx] for idx in sorted(ref)])


def nested(n, order, ref, leaf):
    def level(prefix):
        if len(prefix) == order:
            return leaf(ref[prefix])
        return [level(prefix + (i,)) for i in range(n)]
    return level(())


def as_lists(x):
    return [as_lists(y) for y in x] if isinstance(x, (tuple, list)) else x


def leaves(x):
    return [z for y in x for z in leaves(y)] if isinstance(x, (tuple, list)) else [x]


def assert_matches(t, n, order, ref):
    assert (t.n, t.order) == (n, order)
    assert as_lists(t.fractions()) == nested(n, order, ref, lambda x: x)
    assert all(type(x) is Fraction for x in leaves(t.fractions()))
    assert t.texts() == nested(n, order, ref, str)
    for idx, x in ref.items():
        got = t[idx]
        assert type(got) is Fraction and got == x
    assert t.is_zero() == (not any(ref.values()))


def ref_contract(n, ref, m, slot, transpose):
    out = {}
    for idx in ref:
        total = Fraction(0)
        for k in range(n):
            src = idx[:slot] + (k,) + idx[slot + 1:]
            factor = m[idx[slot]][k] if transpose else m[k][idx[slot]]
            total += factor * ref[src]
        out[idx] = total
    return out


class TestAgainstFractions:
    @given(tensors())
    @settings(max_examples=80, deadline=None)
    def test_views_and_indexing(self, case):
        n, order, ref = case
        t = build(n, order, ref)
        assert_matches(t, n, order, ref)
        for i in range(n):
            sub = t[i]
            if order == 1:
                assert sub == ref[(i,)]
            else:
                assert_matches(sub, n, order - 1,
                               {idx[1:]: x for idx, x in ref.items() if idx[0] == i})

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_contraction_on_every_slot(self, data):
        n, order, ref = data.draw(tensors())
        m = data.draw(matrices(n))
        t, mat = build(n, order, ref), Matrix(m)
        for slot in range(order):
            assert_matches(t.pull(mat, slot), n, order, ref_contract(n, ref, m, slot, False))
            assert_matches(t.push(mat, slot), n, order, ref_contract(n, ref, m, slot, True))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_permutation_and_trace(self, data):
        n, order, ref = data.draw(tensors())
        axes = data.draw(st.permutations(range(order)))
        want = {}
        for idx in ref:
            src = [None] * order
            for a, i in enumerate(idx):
                src[axes[a]] = i
            want[idx] = ref[tuple(src)]
        t = build(n, order, ref)
        assert_matches(t.permute(axes), n, order, want)
        if order >= 2:
            a, b = sorted(data.draw(st.lists(st.integers(0, order - 1), min_size=2,
                                             max_size=2, unique=True)))
            traced = {}
            for idx in itertools.product(range(n), repeat=order - 2):
                total = Fraction(0)
                for i in range(n):
                    full = list(idx)
                    full.insert(a, i)
                    full.insert(b, i)
                    total += ref[tuple(full)]
                traced[idx] = total
            got = t.trace(a, b)
            assert (got.n, got.order) == (n, order - 2)
            assert leaves(got.fractions()) == [traced[idx] for idx in sorted(traced)]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dot(self, data):
        n = data.draw(st.integers(1, 3))
        depth = data.draw(st.integers(1, 2))
        _, p, left = data.draw(tensors(n=n, order=data.draw(st.integers(depth, 3))))
        _, q, right = data.draw(tensors(n=n, order=data.draw(st.integers(depth, 3))))
        assume(p + q - 2 * depth >= 1)
        want = {}
        for a in itertools.product(range(n), repeat=p - depth):
            for b in itertools.product(range(n), repeat=q - depth):
                want[a + b] = sum((left[a + k] * right[k + b]
                                   for k in itertools.product(range(n), repeat=depth)),
                                  Fraction(0))
        got = build(n, p, left).dot(build(n, q, right), depth)
        assert_matches(got, n, p + q - 2 * depth, want)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_arithmetic(self, data):
        n, order, ref = data.draw(tensors())
        _, _, other = data.draw(tensors(n=n, order=order))
        k = data.draw(st.integers(-5, 5))
        d = data.draw(st.integers(1, 7))
        t, u = build(n, order, ref), build(n, order, other)
        assert_matches(t + u, n, order, {i: ref[i] + other[i] for i in ref})
        assert_matches(t - u, n, order, {i: ref[i] - other[i] for i in ref})
        assert_matches(-t, n, order, {i: -x for i, x in ref.items()})
        assert_matches(t * k, n, order, {i: k * x for i, x in ref.items()})
        assert_matches(t / d, n, order, {i: x / d for i, x in ref.items()})

    @given(tensors(), st.integers(1, BIG), st.integers(1, BIG))
    @settings(max_examples=80, deadline=None)
    def test_equality_over_unreduced_denominators(self, case, a, b):
        n, order, ref = case
        t = build(n, order, ref)
        # the same values written over a * den and b * den
        ta = Tensor(n, order, [a * x for x in t.nums], a * t.den)
        tb = Tensor(n, order, [b * x for x in t.nums], b * t.den)
        assert ta == tb and ta == t and t == tb
        assert_matches(ta, n, order, ref)
        reduced = ta.reduced()
        assert (reduced.nums, reduced.den) == (t.nums, t.den)
        assert reduced.den == math.lcm(*(x.denominator for x in ref.values()))
        changed = list(ta.nums)
        changed[-1] += 1
        assert Tensor(n, order, changed, ta.den) != t
        assert t != Tensor(n, order + 1, [0] * n ** (order + 1), 1)

    def test_all_zero_tensors(self):
        zeros = [Tensor(3, 2, [0] * 9, den) for den in (1, 7, BIG)]
        assert all(z == w for z in zeros for w in zeros)
        assert all(z.is_zero() and z.reduced().den == 1 for z in zeros)
        assert zeros[2].texts() == [["0"] * 3] * 3
        assert zeros[2].fractions() == ((Fraction(0),) * 3,) * 3


def structures():
    for name in catalog.list_names():
        yield catalog.get(name).structure
    for dim in (4, 6):
        for index in range(6):
            yield random_structure(GeneratorConfig(dim=dim), index)


def test_cli_ricci_rows_match_fraction_ricci(tmp_path):
    """Machine curvature prints Ricci from integer numerators; the strings are
    str() of the Fraction entries of the tensors that ricci() returns."""
    path = tmp_path / "s.txt"
    for s in structures():
        path.write_text(format_structure(s))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["curvature", str(path), "--output", "machine"]) == 0
        doc = json.loads(out.getvalue())
        rc, ric = ricci(s)
        assert doc["ricci"] == [[str(x) for x in row] for row in rc.fractions()]
        assert doc["ricci_operator"] == [[str(x) for x in row] for row in ric.fractions()]


def test_tensor_and_matrix_do_not_compare():
    """A Tensor against a Matrix of the same entries raises in both orders,
    for == and !=, rather than reading False; other types stay unequal."""
    rc = ricci(catalog.get("sl2c_killing").structure)[0]
    m = Matrix(rc.fractions())
    for left, right in ((rc, m), (m, rc)):
        with pytest.raises(TypeError):
            left == right
        with pytest.raises(TypeError):
            left != right
    assert rc == Tensor.of(rc.n, 2, [x for row in m.rows for x in row])
    assert rc != None and m != None and rc != 0 and m != "m"  # noqa: E711
