"""The tests' inputs, and the helpers that hand them to tests, in one module:
the catalog, the seed-77 stream and its basis changes, the dense direct
sums, the hypothesis strategies, and ``raw``, the numbers of a structure
in the nested-list form that ``reference.py`` reads."""

import contextlib
import random
from fractions import Fraction

from hypothesis import strategies as st

from antikahler import catalog
from antikahler.classify4 import transform_structure
from antikahler.geometry import AntiHermitianStructure
from antikahler.liealg import LieAlgebra
from antikahler.scalars import Matrix, Tensor
from antikahler.verifier import (
    GeneratorConfig,
    random_anti_hermitian_metric,
    random_complex_structure,
    random_invertible_matrix,
    random_structure,
)

CATALOG = [(name, catalog.get(name).structure) for name in catalog.list_names()]
SPECIAL = [s for _, s in CATALOG]


def stream_structure(dim, index):
    """Sample `index` of the seed-77 random_structure stream at `dim`."""
    return random_structure(GeneratorConfig(master_seed=77, dim=dim), index)


def changed_basis(s, key):
    """s after a random rational basis change drawn from random.Random(key)."""
    return transform_structure(s, random_invertible_matrix(random.Random(key), s.dim, 2))


def direct_sum(s, t):
    """s (+) t: the brackets of t shifted past those of s, and block-diagonal
    g and J."""
    n, m, zero = s.dim, t.dim, Fraction(0)
    brackets = {key: list(vec) + [zero] * m for key, vec in s.algebra.nonzero_brackets().items()}
    brackets.update({(i + n, j + n): [zero] * n + list(vec)
                     for (i, j), vec in t.algebra.nonzero_brackets().items()})

    def block(x, y):
        return Matrix([list(row) + [zero] * m for row in x.rows]
                      + [[zero] * n + list(row) for row in y.rows])

    return AntiHermitianStructure(LieAlgebra.from_brackets(n + m, brackets),
                                  block(s.g, t.g), block(s.J, t.J))


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


def named_structures(samples=48):
    """(name, structure): the catalog, `samples` stream structures at each
    of dims 4 and 6 (odd indices after changed_basis), and dense_sums()."""
    out = list(CATALOG)
    for dim in (4, 6):
        for index in range(samples):
            s = stream_structure(dim, index)
            if index % 2:
                s = changed_basis(s, f"{dim}:{index}")
            out.append((f"stream{dim}-{index}", s))
    return out + list(dense_sums())


@st.composite
def structures(draw, dims=(4, 4, 4, 6)):
    """A stream structure, after a random basis change half of the time.

    Stream kinds 4 and 5 are generic, the others anti-Kahler; they are
    listed first so that generic inputs are drawn as often.
    """
    dim = draw(st.sampled_from(dims))
    config = GeneratorConfig(master_seed=draw(st.integers(0, 10**6)), dim=dim)
    s = random_structure(config, draw(st.sampled_from((4, 5, 10, 11, 0, 1, 2, 3, 6, 7))))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        s = transform_structure(s, random_invertible_matrix(rng, dim, 2))
    return s


@st.composite
def j_candidates(draw):
    """Square and non-square maps, of which some, but not all, square to -I:
    random rational matrices, exact conjugates of the standard J and
    integer-entry complex structures, the last two also with one entry
    nudged."""
    n = draw(st.sampled_from((2, 4, 4, 6)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(("conjugate", "int", "near", "int-near", "random",
                                 "non-square")))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if kind == "random":
        return Matrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                    min_size=n, max_size=n)))
    if kind == "non-square":
        m = draw(st.sampled_from((n - 1, n + 1)))
        return Matrix(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                    min_size=n, max_size=n)))
    if kind.startswith("int"):
        # a block-diagonal J with blocks [[a, b], [c, -a]], a^2 + bc = -1
        rows = [[0] * n for _ in range(n)]
        for p in range(0, n, 2):
            a = rng.randint(-3, 3)
            b = rng.choice([d for d in range(-1 - a * a, 2 + a * a)
                            if d and (1 + a * a) % d == 0])
            rows[p][p], rows[p][p + 1] = a, b
            rows[p + 1][p], rows[p + 1][p + 1] = (-1 - a * a) // b, -a
    else:
        rows = [list(row) for row in random_complex_structure(rng, n, 2).rows]
    if kind.endswith("near"):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] += draw(entry.filter(bool))
    return Matrix(rows)


def constants(algebra):
    """c[a][b][k], the coefficient of e_k in [e_a, e_b], read from the
    algebra's bracket table."""
    n = algebra.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (a, b), vec in algebra.nonzero_brackets().items():
        c[a][b], c[b][a] = list(vec), [-x for x in vec]
    return c


def raw(s):
    """(c, g, j): a structure's numbers as nested lists of Fractions."""
    return constants(s.algebra), lists(s.g), lists(s.J)


def lists(t):
    """A Tensor's or a Matrix's entries as nested lists."""
    t = t.fractions() if isinstance(t, Tensor) else t.rows if isinstance(t, Matrix) else t
    return [lists(x) for x in t] if isinstance(t, tuple) else t


def raised(fn, *args):
    """(exception type, message) of the ValueError that fn(*args) raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def tensor3(entries):
    """The order-3 Tensor t[i, j, k] = entries[i][j][k]."""
    return Tensor.of(len(entries), 3, (x for plane in entries for row in plane for x in row))


def fresh(s):
    """The same structure with an empty memo."""
    return AntiHermitianStructure(s.algebra, s.g, s.J)


@contextlib.contextmanager
def fraction_views():
    """Records every Tensor that builds Fractions inside the block: through
    ``fractions`` or by reading one entry, the type's only Fraction views."""
    views = []
    fractions, getitem = Tensor.fractions, Tensor.__getitem__

    def recording_fractions(self):
        views.append(self)
        return fractions(self)

    def recording_getitem(self, index):
        out = getitem(self, index)
        if isinstance(out, Fraction):
            views.append(self)
        return out

    Tensor.fractions, Tensor.__getitem__ = recording_fractions, recording_getitem
    try:
        yield views
    finally:
        Tensor.fractions, Tensor.__getitem__ = fractions, getitem
