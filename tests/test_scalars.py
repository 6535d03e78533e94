from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antikahler.scalars import (
    GaussianRational,
    _dot,
    Matrix,
    NotSymmetricError,
    clear_denominators,
    SingularMatrixError,
    format_quotient,
    format_rational,
    gaussian_sqrt,
    parse_rational,
    rational_sqrt,
    signature,
)

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=9)
# entries of Q-only products: zeros often, integers, and large denominators
rational_entries = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.integers(-50, 50).map(Fraction),
    st.fractions(max_denominator=2**80),
)
# rationals whose denominators lie between 2**80 and 2**81
huge_entries = st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(2**80, 2**81))


def n7_metric() -> Matrix:
    half = Fraction(1, 2)
    return Matrix([
        [0, 0, 0, 0, half, 0],
        [0, 0, 0, 0, 0, half],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [half, 0, 0, 0, 0, 0],
        [0, half, 0, 0, 0, 0],
    ]).map(Fraction)


class TestRationalText:
    @pytest.mark.parametrize("token,value", [
        ("3", Fraction(3)),
        ("-3/2", Fraction(-3, 2)),
        ("+7/14", Fraction(1, 2)),
        ("0", Fraction(0)),
    ])
    def test_parse(self, token, value):
        assert parse_rational(token) == value

    @pytest.mark.parametrize("token", ["3.5", "1/0", "x", "1 /2", "--3", "",
                                       "\u0661", "1/\u0662", "\u00b2", "1_0", "\uff11"])
    def test_rejects(self, token):
        with pytest.raises(ValueError):
            parse_rational(token)

    @given(st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9))
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    @pytest.mark.parametrize("num,den", [
        (0, 1), (0, 7), (0, 2**200), (5, 1), (-5, 1), (6, 4), (-6, 4), (-6, 3),
        (2**200, 2**100), (-(2**200) - 1, 2**200), (3**130, 2**200), (1, 2**200 + 1),
    ])
    def test_format_quotient_cases(self, num, den):
        assert format_quotient(num, den) == str(Fraction(num, den))

    @given(st.integers(-(2**210), 2**210), st.integers(1, 2**210))
    def test_format_quotient(self, num, den):
        assert format_quotient(num, den) == str(Fraction(num, den))


class TestGaussianRational:
    @given(small_fractions, small_fractions, small_fractions, small_fractions)
    def test_field_ops(self, a, b, c, d):
        z = GaussianRational(a, b)
        w = GaussianRational(c, d)
        assert z + w == w + z
        assert z * w == w * z
        assert (z + w).conjugate() == z.conjugate() + w.conjugate()
        assert z.conjugate().conjugate() == z
        if not w.is_zero():
            assert (z / w) * w == z

    @given(small_fractions, small_fractions)
    def test_norm_and_inverse(self, a, b):
        z = GaussianRational(a, b)
        assert z * z.conjugate() == GaussianRational(z.norm_sq())
        if not z.is_zero():
            assert z * (GaussianRational(Fraction(1)) / z) == 1

    def test_sqrt_cases(self):
        assert gaussian_sqrt(GaussianRational(Fraction(9, 4))) == \
            GaussianRational(Fraction(3, 2))
        assert gaussian_sqrt(GaussianRational(Fraction(-4))) == \
            GaussianRational(Fraction(0), Fraction(2))
        i2 = GaussianRational(Fraction(0), Fraction(2))
        root = gaussian_sqrt(i2)
        assert root is not None and root * root == i2
        assert gaussian_sqrt(GaussianRational(Fraction(2))) is None

    @given(small_fractions, small_fractions)
    def test_sqrt_squares(self, a, b):
        z = GaussianRational(a, b)
        root = gaussian_sqrt(z * z)
        assert root is not None and root * root == z * z

    @pytest.mark.parametrize("x", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3),
                                   Fraction(2**80 + 1, 3)])
    def test_hash_of_a_rational_value(self, x):
        z = GaussianRational(Fraction(x))
        assert z == x and hash(z) == hash(x) == hash(Fraction(x))
        assert len({z, x, Fraction(x)}) == 1
        assert GaussianRational(Fraction(x), Fraction(1)) != x

    def test_equal_matrices_are_one_set_member(self):
        rational = Matrix([[Fraction(1), Fraction(0)], [Fraction(-2, 3), 5]])
        gaussian = rational.map(lambda x: GaussianRational(Fraction(x)))
        assert rational == gaussian and hash(rational) == hash(gaussian)
        assert len({rational, gaussian}) == 1
        assert gaussian in {rational} and rational in {gaussian}
        assert len({Matrix([[Fraction(1)]]), Matrix([[GaussianRational(Fraction(1))]])}) == 1

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-1)) is None
        assert rational_sqrt(Fraction(0)) == 0


class TestInvert:
    def test_identity(self):
        m = Matrix.identity(4)
        assert m.inverse() == m

    def test_involutive_diagonal(self):
        m = Matrix.diagonal([Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)])
        assert m.inverse() == m

    def test_n7_metric_inverse(self):
        # frozen expectation, independently checked by exact multiplication
        m = n7_metric()
        inv = m.inverse()
        expected = Matrix([
            [0, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 0, 2],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [2, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0],
        ]).map(Fraction)
        assert inv == expected
        assert m * inv == Matrix.identity(6)
        assert inv * m == Matrix.identity(6)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            Matrix.zeros(3, 3).inverse()

    @given(st.lists(small_fractions, min_size=9, max_size=9))
    @settings(max_examples=60)
    def test_double_inverse(self, entries):
        m = Matrix([entries[0:3], entries[3:6], entries[6:9]])
        if m.det() == 0:
            return
        assert m.inverse().inverse() == m


@st.composite
def symmetric_forms(draw):
    """Symmetric n x n forms, n in 1..7, of four kinds: an all-zero diagonal,
    a singular congruence P^T M P, the zero matrix, and entries over
    denominators near 2**80."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("zero_diagonal", "singular", "zero", "huge")))
    if kind == "zero":
        return Matrix.zeros(n, n)
    entries = huge_entries if kind == "huge" else rational_entries
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind != "zero_diagonal":
                rows[i][j] = rows[j][i] = draw(entries)
    m = Matrix(rows)
    if kind != "singular":
        return m
    cols = [draw(st.lists(small_fractions, min_size=n, max_size=n)) for _ in range(n - 1)]
    a, b = draw(small_fractions), draw(small_fractions)
    last = [a * x + b * y for x, y in zip(cols[0], cols[-1])] if cols else [Fraction(0)]
    p = Matrix.from_cols(cols + [last])
    return p.transpose() * m * p


class TestSignature:
    def test_diagonal(self):
        m = Matrix.diagonal([Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)])
        assert signature(m) == (2, 2, 0)

    def test_zero(self):
        assert signature(Matrix.zeros(2, 2)) == (0, 0, 2)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            signature(Matrix([[0, 1], [0, 0]]).map(Fraction))

    def test_n7_metric_neutral(self):
        # oracle: the explicit congruence mapping the pairing to diagonal form
        m = n7_metric()
        p = Matrix.from_cols([
            (1, 0, 0, 0, 1, 0),   # X1 + X5 spacelike
            (0, 1, 0, 0, 0, 1),   # X2 + X6 spacelike
            (0, 0, 1, 0, 0, 0),   # X3 spacelike
            (1, 0, 0, 0, -1, 0),  # X1 - X5 timelike
            (0, 1, 0, 0, 0, -1),  # X2 - X6 timelike
            (0, 0, 0, 1, 0, 0),   # X4 timelike
        ]).map(Fraction)
        diag = p.transpose() * m * p
        assert diag == Matrix.diagonal(
            [Fraction(1), Fraction(1), Fraction(1),
             Fraction(-1), Fraction(-1), Fraction(-1)])
        assert signature(m) == (3, 3, 0)

    def test_off_diagonal_block(self):
        m = Matrix([[0, 1], [1, 0]]).map(Fraction)
        assert signature(m) == (1, 1, 0)

    @given(st.lists(small_fractions, min_size=16, max_size=16),
           st.lists(small_fractions, min_size=10, max_size=10))
    @settings(max_examples=40)
    def test_congruence_invariance(self, p_entries, sym_entries):
        p = Matrix([p_entries[0:4], p_entries[4:8],
                    p_entries[8:12], p_entries[12:16]])
        if p.det() == 0:
            return
        rows = [[None] * 4 for _ in range(4)]
        it = iter(sym_entries)
        for i in range(4):
            for j in range(i, 4):
                value = next(it)
                rows[i][j] = value
                rows[j][i] = value
        m = Matrix(rows)
        assert signature(m) == signature(p.transpose() * m * p)

    @given(symmetric_forms())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, m):
        assert signature(m) == reference_signature(m)

    def test_zero_diagonal_and_singular_cases(self):
        for rows in ([[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                     [[0, 2, 3], [2, 0, 5], [3, 5, 0]],
                     [[1, 1], [1, 1]],
                     [[0, 0, 1], [0, 0, 0], [1, 0, 0]]):
            m = Matrix(rows).map(Fraction)
            assert signature(m) == reference_signature(m)

    def test_gaussian_entry_is_named(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        m = Matrix([[Fraction(1), i], [i, Fraction(0)]])
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is GaussianRational"):
            signature(m)


def reference_signature(m: Matrix) -> tuple[int, int, int]:
    """Inertia by symmetric congruence elimination in Fractions, as
    scalars.signature computed it before it ran in integers."""
    n = m.nrows
    work = [[Fraction(a) for a in row] for row in m.rows]
    pos = neg = zero = 0
    i = 0
    while i < n:
        pivot_row = next((p for p in range(i, n) if work[p][p] != 0), None)
        if pivot_row is None:
            hit = next(((p, q) for p in range(i, n) for q in range(p + 1, n)
                        if work[p][q] != 0), None)
            if hit is None:
                zero += n - i
                break
            p, q = hit
            # congruence e_p <- e_p + e_q turns the zero diagonal into 2*work[p][q]
            for c in range(n):
                work[p][c] = work[p][c] + work[q][c]
            for r in range(n):
                work[r][p] = work[r][p] + work[r][q]
            pivot_row = p
        if pivot_row != i:
            work[i], work[pivot_row] = work[pivot_row], work[i]
            for r in range(n):
                work[r][i], work[r][pivot_row] = work[r][pivot_row], work[r][i]
        d = work[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if work[r][i] != 0:
                factor = work[r][i] / d
                for c in range(n):
                    work[r][c] = work[r][c] - factor * work[i][c]
                for c in range(n):
                    work[c][r] = work[c][r] - factor * work[c][i]
        i += 1
    return pos, neg, zero


class TestNullspace:
    def test_kernel(self):
        m = Matrix([[1, 2, 3], [2, 4, 6]]).map(Fraction)
        basis = m.nullspace()
        assert len(basis) == 2
        for vec in basis:
            assert m.apply(vec) == (0, 0)

    def test_full_rank(self):
        assert Matrix.identity(3).nullspace() == []


def dense_dot(u, v):
    """The plain left-to-right sum of every product, zeros included."""
    total = None
    for a, b in zip(u, v):
        term = a * b
        total = term if total is None else total + term
    return total


def assert_same_scalar(got, want):
    assert got == want
    assert type(got) is type(want)
    assert str(got) == str(want)


class TestZeroSkippingDot:
    def test_all_zero_fraction_row(self):
        got = _dot((Fraction(0),) * 3, (Fraction(1), Fraction(2), Fraction(3)))
        assert_same_scalar(got, Fraction(0))

    def test_interleaved_zeros(self):
        u = (Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1), Fraction(0))
        v = (Fraction(5), Fraction(2), Fraction(7), Fraction(0), Fraction(1, 3))
        assert_same_scalar(_dot(u, v), dense_dot(u, v))

    @given(st.lists(st.tuples(rational_entries, rational_entries), min_size=1, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_sum(self, pairs):
        u, v = zip(*pairs)
        assert_same_scalar(_dot(u, v), dense_dot(u, v))

    @given(st.lists(rational_entries, min_size=9, max_size=9),
           st.lists(rational_entries, min_size=9, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_matrix_product_and_apply_match_dense(self, a, b):
        left = Matrix([a[0:3], a[3:6], a[6:9]])
        right = Matrix([b[0:3], b[3:6], b[6:9]])
        product = left * right
        for i in range(3):
            for j in range(3):
                assert_same_scalar(product[i][j], dense_dot(left[i], right.col(j)))
        applied = left.apply(b[0:3])
        for i in range(3):
            assert_same_scalar(applied[i], dense_dot(left[i], b[0:3]))


def dot_product(left: Matrix, right: Matrix) -> list:
    """The product entry by entry through _dot, the reference for the integer product."""
    cols = list(zip(*right.rows))
    return [[_dot(row, col) for col in cols] for row in left.rows]


@st.composite
def rational_operands(draw):
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    entries = st.lists(rational_entries, min_size=k, max_size=k)
    left = Matrix(draw(st.lists(entries, min_size=r, max_size=r)))
    right = Matrix(draw(st.lists(st.lists(rational_entries, min_size=c, max_size=c),
                                 min_size=k, max_size=k)))
    return left, right


class TestFractionFreeProduct:
    @given(rational_operands())
    @settings(max_examples=200, deadline=None)
    def test_matches_dot_product(self, operands):
        left, right = operands
        product = left * right
        want = dot_product(left, right)
        assert (product.nrows, product.ncols) == (left.nrows, right.ncols)
        for got_row, want_row in zip(product.rows, want):
            for got, expected in zip(got_row, want_row):
                assert_same_scalar(got, expected)

    def test_zero_and_integer_operands(self):
        zero = Matrix.zeros(2, 3)
        right = Matrix([[1, 2], [3, 4], [5, 6]]).map(Fraction)
        assert (zero * right).rows == ((Fraction(0), Fraction(0)),) * 2
        assert all(type(x) is Fraction for row in (zero * right).rows for x in row)
        assert (right.transpose() * right).rows == ((35, 44), (44, 56))

    def test_large_denominators(self):
        big = Fraction(1, 2**61 - 1)
        left = Matrix([[big, Fraction(3, 2**40)], [Fraction(0), Fraction(-7, 3)]])
        right = Matrix([[Fraction(2**61 - 1), Fraction(0)], [Fraction(1, 5), big]])
        for got_row, want_row in zip((left * right).rows, dot_product(left, right)):
            for got, want in zip(got_row, want_row):
                assert_same_scalar(got, want)

    def test_non_fraction_operands_keep_the_dot_path(self):
        # int entries are rationals: their product takes the integer path
        ints = Matrix([[1, 2], [3, 4]])
        assert (ints * ints).rows == ((7, 10), (15, 22))
        assert all(type(x) is Fraction for row in (ints * ints).rows for x in row)

    @given(st.lists(st.lists(rational_entries, min_size=3, max_size=3),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_clear_denominators(self, rows):
        ints, den = clear_denominators(rows)
        assert all(type(x) is int for row in ints for x in row)
        assert [[Fraction(x, den) for x in row] for row in ints] == rows
        # den is the least common denominator
        for p in range(2, 50):
            if den % p == 0:
                assert any(x % p for row in ints for x in row)


def reference_det(rows):
    """Gauss elimination over the entries' field, as Matrix.det did before the
    fraction-free kernel."""
    n = len(rows)
    work = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pivot_row is None:
            return Fraction(0) * det
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            det = -det
        pivot = work[c][c]
        det = det * pivot
        for r in range(c + 1, n):
            if work[r][c] != 0:
                factor = work[r][c] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[c])]
    return det


def reference_rank(rows):
    work = [list(row) for row in rows]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if work[r][c] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][c]
        for r in range(nrows):
            if r != rank and work[r][c] != 0:
                factor = work[r][c] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_inverse(rows):
    """Gauss-Jordan inverse over the entries' field; None when singular."""
    n = len(rows)
    work = [list(row) for row in rows]
    out = [list(row) for row in Matrix.identity(n).rows]
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pivot_row is None:
            return None
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            out[c], out[pivot_row] = out[pivot_row], out[c]
        pivot = work[c][c]
        work[c] = [a / pivot for a in work[c]]
        out[c] = [a / pivot for a in out[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                factor = work[r][c]
                work[r] = [a - factor * b for a, b in zip(work[r], work[c])]
                out[r] = [a - factor * b for a, b in zip(out[r], out[c])]
    return out


def reference_nullspace(rows):
    """Kernel basis from reduced row echelon form over the entries' field, as
    Matrix.nullspace did before one Gauss-Jordan routine served det, rank,
    nullspace and inverse."""
    nrows, ncols = len(rows), len(rows[0])
    work = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((p for p in range(r, nrows) if work[p][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        work[r] = [a / pivot for a in work[r]]
        for p in range(nrows):
            if p != r and work[p][c] != 0:
                factor = work[p][c]
                work[p] = [a - factor * b for a, b in zip(work[p], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            vec[c] = -work[row_idx][f]
        basis.append(tuple(vec))
    return basis


@st.composite
def elimination_operands(draw, entries=rational_entries, square=None):
    """Matrices with zero rows, dependent rows and huge denominators drawn often."""
    nrows = draw(st.integers(1, 6))
    is_square = draw(st.booleans()) if square is None else square
    ncols = nrows if is_square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    shape = draw(st.sampled_from(("free", "zero_row", "dependent")))
    if shape == "zero_row":
        rows[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    elif shape == "dependent" and nrows > 1:
        a, b = draw(small_fractions), draw(small_fractions)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
    return rows


def assert_same_matrix(got: Matrix, want_rows):
    assert (got.nrows, got.ncols) == (len(want_rows), len(want_rows[0]))
    for got_row, want_row in zip(got.rows, want_rows):
        for got_x, want_x in zip(got_row, want_row):
            assert_same_scalar(got_x, want_x)


def assert_same_nullspace(m: Matrix, rows):
    got, want = m.nullspace(), reference_nullspace(rows)
    assert len(got) == len(want)
    for got_vec, want_vec in zip(got, want):
        assert len(got_vec) == len(want_vec)
        for got_x, want_x in zip(got_vec, want_vec):
            assert_same_scalar(got_x, want_x)


class TestFractionFreeElimination:
    @given(elimination_operands())
    @settings(max_examples=200, deadline=None)
    def test_matches_field_elimination(self, rows):
        m = Matrix(rows)
        assert m.rank() == reference_rank(rows)
        assert_same_nullspace(m, rows)
        if not m.is_square():
            return
        assert_same_scalar(m.det(), reference_det(rows))
        want = reference_inverse(rows)
        if want is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            assert_same_matrix(m.inverse(), want)

    def test_singular_rectangular_and_zero(self):
        assert Matrix.zeros(3, 5).rank() == 0
        assert_same_scalar(Matrix.zeros(4, 4).det(), Fraction(0))
        wide = Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]]).map(Fraction)
        assert wide.rank() == 2 == wide.transpose().rank()
        singular = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).map(Fraction)
        assert_same_scalar(singular.det(), Fraction(0))
        with pytest.raises(SingularMatrixError):
            singular.inverse()

    def test_huge_denominators(self):
        big = Fraction(1, 2**80)
        rows = [[big, Fraction(3, 2**80 + 1), Fraction(0)],
                [Fraction(0), Fraction(-7, 3), big],
                [Fraction(2**80), Fraction(0), Fraction(5, 2**79)]]
        m = Matrix(rows)
        assert_same_scalar(m.det(), reference_det(rows))
        assert_same_matrix(m.inverse(), reference_inverse(rows))
        assert m * m.inverse() == Matrix.identity(3)

    def test_integer_entries_are_exact_rationals(self):
        """int entries are rationals: det, inverse, rank and nullspace give the
        Fraction results of the same matrix written with Fractions."""
        for rows in ([[1, 2], [3, 4]], [[2, 1], [1, 1]], [[0, 3, 1], [2, 0, 5], [7, 1, 0]]):
            m, exact = Matrix(rows), [[Fraction(x) for x in row] for row in rows]
            assert_same_scalar(m.det(), reference_det(exact))
            assert_same_matrix(m.inverse(), reference_inverse(exact))
            assert m.rank() == reference_rank(exact) == len(rows)
            assert m.nullspace() == []
        assert_same_scalar(Matrix([[1, 2], [3, 4]]).det(), Fraction(-2))
        assert_same_matrix(Matrix([[1, 2], [3, 4]]).inverse(),
                           [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]])
        singular = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        m = Matrix(singular)
        assert_same_scalar(m.det(), Fraction(0))
        with pytest.raises(SingularMatrixError):
            m.inverse()
        assert m.rank() == 2
        assert_same_nullspace(m, [[Fraction(x) for x in row] for row in singular])
        assert m.nullspace() == [(Fraction(1), Fraction(-2), Fraction(1))]
        assert all(type(x) is Fraction for vec in m.nullspace() for x in vec)
        wide = Matrix([[2, 4, 6, 8], [1, 3, 0, 1]])
        assert wide.rank() == 2
        assert_same_nullspace(wide, [[Fraction(x) for x in row] for row in wide.rows])


class TestRationalOnly:
    @pytest.mark.parametrize("op", [
        Matrix.det, Matrix.rank, Matrix.inverse, Matrix.nullspace,
        lambda m: m * Matrix.identity(2), lambda m: Matrix.identity(2) * m,
    ], ids=["det", "rank", "inverse", "nullspace", "mul", "rmul"])
    def test_gaussian_entry_is_named(self, op):
        """Matrix is rational only: like signature, every arithmetic op reads
        the integer form, which names the first entry in Q(i)."""
        i = GaussianRational(Fraction(0), Fraction(1))
        m = Matrix([[Fraction(1), i], [i, Fraction(0)]])
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is GaussianRational"):
            op(m)
