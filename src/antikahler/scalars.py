"""Exact field arithmetic and small dense matrix algebra.

All computation in this package runs over the rationals, with
arbitrary-precision integers underneath.  Matrices are immutable and
rational: entries are ``fractions.Fraction`` or ``int`` (taken as a
rational), and every product and elimination runs over Z on their integer
form.  Q(i) appears only as the scalar :class:`GaussianRational`; a Q(i)
matrix X + iY is carried as its rational realified block.  Derived tensors
are :class:`Tensor` objects: integers over one denominator.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class SingularMatrixError(ValueError):
    """Matrix has determinant zero where an inverse is required."""


class NotSymmetricError(ValueError):
    """Symmetric input required (signature computation)."""


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


def parse_rational(token: str) -> Fraction:
    """Parse 'p', '-p' or 'p/q' (q > 0).  Rejects floats and spaces."""
    token = token.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"not a rational token: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational; Fraction already normalizes sign and gcd."""
    return str(x)


def format_quotient(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, with one gcd and no Fraction."""
    if not num:
        return "0"
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i): re + im*i with exact rational parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value))

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        n = o.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(Fraction(self.re * o.re + self.im * o.im, n),
                                Fraction(self.im * o.re - self.re * o.im, n))

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # equal to a rational when im == 0, so it must hash like one
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im >= 0:
            return f"{self.re} + {self.im}i"
        return f"{self.re} - {-self.im}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def gaussian_sqrt(z: GaussianRational) -> Optional[GaussianRational]:
    """Exact square root in Q(i), or None when no such root exists.

    For z = p + qi a root x + yi needs x^2 - y^2 = p and 2xy = q, which
    reduces to rational square roots of (p +- sqrt(p^2 + q^2)) / 2.
    """
    p, q = z.re, z.im
    if q == 0:
        if p >= 0:
            r = rational_sqrt(p)
            return GaussianRational(r) if r is not None else None
        r = rational_sqrt(-p)
        return GaussianRational(Fraction(0), r) if r is not None else None
    n = rational_sqrt(p * p + q * q)
    if n is None:
        return None
    x = rational_sqrt((p + n) / 2)
    if x is None or x == 0:
        return None
    y = q / (2 * x)
    root = GaussianRational(x, y)
    return root if root * root == z else None


def basis_vector(dim: int, i: int) -> tuple:
    """Coordinates of the basis vector e_i in dimension dim."""
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim))


def clear_denominators(rows: Iterable[Sequence]) -> tuple[list[list[int]], int]:
    """Integer rows N and the lcm d of all denominators, so that rows = N / d.

    Entries must be rationals (Fraction or int).  The lcm is taken once for
    the whole table, so one shared denominator stands for every entry.
    """
    rows = list(rows)
    den = math.lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer matrix product a b, skipping every pair with a zero factor."""
    ncols = len(b[0])
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * ncols
        for x, b_row in zip(row, sparse_b):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def fractions_over(rows: Iterable[Iterable[int]], den: int) -> list[list[Fraction]]:
    """Entries num / den as Fractions, one normalization per nonzero entry."""
    zero = Fraction(0)
    return [[Fraction(x, den) if x else zero for x in row] for row in rows]


@functools.lru_cache(maxsize=64)
def _permutation(n: int, axes: tuple) -> list:
    """Source offsets of Tensor.permute(axes) on side n, in result order."""
    order = len(axes)
    pos = [0]
    for a in axes:
        stride = n ** (order - 1 - a)
        pos = [p + i * stride for p in pos for i in range(n)]
    return pos


class Tensor:
    """Immutable exact tensor of order `order` on Q^n: the flat row-major
    integer numerators `nums` over one positive denominator `den`.

    The entry at index (i_0, ..., i_{r-1}) is nums[sum_a i_a n^(r-1-a)] / den;
    no code outside this class knows that layout.  `nums` is shared by every
    reader, so none may mutate it.  Equality compares values, whatever the
    denominators.  Fractions are built only by indexing a full entry and by
    `fractions`.
    """

    __slots__ = ("n", "order", "nums", "den")

    def __init__(self, n: int, order: int, nums: list, den: int):
        if len(nums) != n ** order or den <= 0:
            raise DimensionMismatchError(
                f"{len(nums)} numerators over {den} do not form an order-{order} tensor on Q^{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, n: int, order: int, entries: Iterable) -> "Tensor":
        """The tensor of these flat row-major rationals, over their lcm denominator."""
        (nums,), den = clear_denominators([list(entries)])
        return cls(n, order, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __getitem__(self, index):
        """The entry at a full index as a Fraction, or the sub-tensor at a shorter one."""
        index = (index,) if isinstance(index, int) else tuple(index)
        n, rest = self.n, self.order - len(index)
        if rest < 0 or not all(0 <= i < n for i in index):
            raise IndexError(f"index {index} out of range for an order-{self.order} "
                             f"tensor on Q^{n}")
        start = 0
        for i in index:
            start = start * n + i
        if not rest:
            return Fraction(self.nums[start], self.den)
        size = n ** rest
        return Tensor(n, rest, self.nums[start * size:(start + 1) * size], self.den)

    def rows(self, k: int = 1) -> list:
        """The numerators as a matrix whose rows are indexed by the first k slots."""
        width = self.n ** (self.order - k)
        return [self.nums[p:p + width] for p in range(0, len(self.nums), width)]

    def _nest(self, flat: list, kind) -> object:
        for _ in range(self.order - 1):
            flat = [kind(flat[p:p + self.n]) for p in range(0, len(flat), self.n)]
        return kind(flat)

    def fractions(self) -> tuple:
        """The entries as Fractions, in nested tuples out[i_0]...[i_{r-1}]."""
        return self._nest(fractions_over([self.nums], self.den)[0], tuple)

    def texts(self) -> list:
        """The entries as str() of their Fractions, in nested lists, with no
        Fraction and one gcd per distinct nonzero |entry|."""
        den, known, out = self.den, {0: "0"}, []
        for x in self.nums:
            text = known.get(x)
            if text is None:
                text = known[x] = format_quotient(x, den)
                known[-x] = text[1:] if x < 0 else "-" + text
            out.append(text)
        return self._nest(out, list)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def reduced(self) -> "Tensor":
        """The same tensor over the smallest denominator."""
        g = math.gcd(self.den, *self.nums)
        return self if g == 1 else Tensor(self.n, self.order, [x // g for x in self.nums],
                                          self.den // g)

    def __eq__(self, other):
        if isinstance(other, Matrix):
            raise TypeError("a Tensor is not compared with a Matrix; read one as the other first")
        if not isinstance(other, Tensor):
            return NotImplemented
        if (self.n, self.order) != (other.n, other.order):
            return False
        if self.den == other.den:
            return self.nums == other.nums
        a, b = other.den, self.den
        return all(x * a == y * b for x, y in zip(self.nums, other.nums))

    def _aligned(self, other: "Tensor") -> tuple[list, list, int]:
        """Both numerator lists over the lcm of the two denominators, and it."""
        if (self.n, self.order) != (other.n, other.order):
            raise DimensionMismatchError("tensor shapes differ")
        if self.den == other.den:
            return self.nums, other.nums, self.den
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return ([fa * x for x in self.nums] if fa > 1 else self.nums,
                [fb * x for x in other.nums] if fb > 1 else other.nums, den)

    def __add__(self, other: "Tensor") -> "Tensor":
        a, b, den = self._aligned(other)
        return Tensor(self.n, self.order, [x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "Tensor") -> "Tensor":
        a, b, den = self._aligned(other)
        return Tensor(self.n, self.order, [x - y for x, y in zip(a, b)], den)

    def __mul__(self, k: int) -> "Tensor":
        """k times the tensor, for an integer k."""
        return Tensor(self.n, self.order, [k * x for x in self.nums], self.den)

    def __neg__(self) -> "Tensor":
        return self * -1

    def __truediv__(self, k: int) -> "Tensor":
        """The tensor divided by a positive integer k."""
        return Tensor(self.n, self.order, self.nums, self.den * k)

    def pull(self, m: "Matrix", slot: int) -> "Tensor":
        """out[.., i, ..] = sum_k m[k][i] t[.., k, ..]: the argument e_i in
        `slot` replaced by m e_i."""
        rows, cols, den = m.integer_form
        return Tensor(self.n, self.order, self._contract(rows, cols, slot), self.den * den)

    def push(self, m: "Matrix", slot: int) -> "Tensor":
        """out[.., i, ..] = sum_k m[i][k] t[.., k, ..]: m applied to the vector
        held in `slot`."""
        rows, cols, den = m.integer_form
        return Tensor(self.n, self.order, self._contract(cols, rows, slot), self.den * den)

    def _contract(self, m: list, mt: list, slot: int) -> list:
        """sum_k m[k][i] t[.., k, ..] at i in `slot` for integer rows m with
        transpose mt; zero factors are skipped."""
        n, t = self.n, self.nums
        stride = n ** (self.order - 1 - slot)
        if stride == 1:
            return [x for row in int_matmul(self.rows(self.order - 1), m) for x in row]
        # the blocks t[base + k * stride + r] side by side, row k, in one product
        bases = range(0, len(t), n * stride)
        wide = int_matmul(mt, [[x for base in bases for x in t[base + k * stride:
                                                                base + (k + 1) * stride]]
                               for k in range(n)])
        out = []
        for p in range(0, len(wide[0]), stride):
            for row in wide:
                out += row[p:p + stride]
        return out

    def dot(self, other: "Tensor", depth: int = 1) -> "Tensor":
        """Contraction of the last `depth` slots of self with the first `depth`
        slots of other: out[a.., b..] = sum_k self[a.., k..] other[k.., b..]."""
        nums = int_matmul(self.rows(self.order - depth), other.rows(depth))
        return Tensor(self.n, self.order + other.order - 2 * depth,
                      [x for row in nums for x in row], self.den * other.den)

    def permute(self, axes: Sequence[int]) -> "Tensor":
        """Slots reordered: slot a of the result is slot axes[a] of self, so
        out[i_0, .., i_{r-1}] = t[j] with j[axes[a]] = i_a.  Trailing slots
        that stay in place move as contiguous blocks."""
        axes, nums, moved = tuple(axes), self.nums, len(axes)
        while moved > 1 and axes[moved - 1] == moved - 1:
            moved -= 1
        size = self.n ** (self.order - moved)
        if size == 1:
            return Tensor(self.n, self.order, [nums[p] for p in _permutation(self.n, axes)],
                          self.den)
        out = []
        for p in _permutation(self.n, axes[:moved]):
            out += nums[p * size:(p + 1) * size]
        return Tensor(self.n, self.order, out, self.den)

    def trace(self, a: int, b: int) -> "Tensor":
        """Contraction of slot a with slot b (a < b)."""
        n, rest = self.n, tuple(s for s in range(self.order) if s not in (a, b))
        nums, nn = self.permute(rest + (a, b)).nums, n * n
        out = [sum(nums[p:p + nn:n + 1]) for p in range(0, len(nums), nn)]
        return Tensor(n, self.order - 2, out, self.den)


def _bareiss(rows: list, ncols: int, jordan: bool = False) -> tuple[list, int, int]:
    """Fraction-free elimination in place (Bareiss 1968) over Z on the first
    ncols columns, below each pivot (and above it when jordan is set),
    dividing exactly by the previous pivot.  Returns the pivot columns, the
    last pivot (held by every pivot row in its pivot column when jordan is
    set) and the sign of the row permutation."""
    nrows = len(rows)
    prev, sign, pivots = 1, 1, []
    for c in range(ncols):
        r = len(pivots)
        p = next((q for q in range(r, nrows) if rows[q][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        lo = 0 if jordan else c
        for q in range(0 if jordan else r + 1, nrows):
            if q != r:
                row = rows[q]
                f = row[c]
                row[lo:] = [(piv * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]
        prev = piv
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return pivots, prev, sign


class Matrix:
    """Immutable dense matrix over Q.  Every arithmetic operation reads the
    integer form, so an entry that is not rational raises the ValueError
    that names it."""

    __slots__ = ("rows", "_integer_form")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if not rows:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_integer_form", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def integer_form(self) -> tuple[list, list, int]:
        """(N, N^T, d) with self = N / d and d the lcm of the denominators,
        computed on first use.  Entries must be rational, or ValueError names
        the first entry that is not; the lists are shared by every reader, so
        none may mutate them."""
        if self._integer_form is None:
            try:
                rows, den = clear_denominators(self.rows)
            except AttributeError:
                i, j, x = next((i, j, x) for i, row in enumerate(self.rows)
                               for j, x in enumerate(row) if not isinstance(x, (int, Fraction)))
                raise ValueError(f"integer form needs rational entries; entry ({i}, {j}) "
                                 f"is {type(x).__name__} {x}") from None
            object.__setattr__(self, "_integer_form",
                               (rows, [list(col) for col in zip(*rows)], den))
        return self._integer_form

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        zero = Fraction(0)
        return Matrix([[zero] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries: Sequence) -> "Matrix":
        n = len(entries)
        zero = Fraction(0)
        return Matrix([[entries[i] if i == j else zero for j in range(n)]
                       for i in range(n)])

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix(list(zip(*cols)))

    def __getitem__(self, i: int):
        return self.rows[i]

    def __eq__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("a Matrix is not compared with a Tensor; read one as the other first")
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}")
            a, _, da = self.integer_form
            b, _, db = other.integer_form
            return Matrix(fractions_over(int_matmul(a, b), da * db))
        return Matrix([[a * other for a in row] for row in self.rows])

    def __rmul__(self, other):
        return Matrix([[other * a for a in row] for row in self.rows])

    __matmul__ = __mul__

    def _check_same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatchError("shape mismatch")

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def apply(self, vector: Sequence) -> tuple:
        if len(vector) != self.ncols:
            raise DimensionMismatchError("vector length mismatch")
        return tuple(_dot(row, vector) for row in self.rows)

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def _ring_form(self) -> tuple[list, int]:
        """A fresh copy of N, with self = N / d, to eliminate in place; and d."""
        rows, _, den = self.integer_form
        return [list(row) for row in rows], den

    def det(self) -> Fraction:
        """Determinant: (sign * last pivot) / d^n of the fraction-free N."""
        if not self.is_square():
            raise DimensionMismatchError("determinant of non-square matrix")
        n = self.nrows
        rows, den = self._ring_form()
        pivots, last, sign = _bareiss(rows, n)
        return Fraction(sign * last, den ** n) if len(pivots) == n else Fraction(0)

    def rank(self) -> int:
        return len(_bareiss(self._ring_form()[0], self.ncols)[0])

    def nullspace(self) -> list[tuple]:
        """Basis of the exact kernel from the fraction-free Gauss-Jordan form,
        whose pivot row r has the RREF entry rows[r][f] / last in a free column f."""
        ncols = self.ncols
        rows, _ = self._ring_form()
        pivots, last, _ = _bareiss(rows, ncols, jordan=True)
        zero, one = Fraction(0), Fraction(1)
        basis = []
        for f in (c for c in range(ncols) if c not in pivots):
            vec = [zero] * ncols
            vec[f] = one
            for r, c in enumerate(pivots):
                vec[c] = Fraction(-rows[r][f], last)
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "Matrix":
        """N / d is inverted as d (D N^-1) / D from the fraction-free
        [N | I] -> [D I | D N^-1]."""
        if not self.is_square():
            raise DimensionMismatchError("inverse of non-square matrix")
        n = self.nrows
        rows, den = self._ring_form()
        work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        pivots, last, _ = _bareiss(work, n, jordan=True)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        return Matrix([[Fraction(den * x, last) for x in row[n:]] for row in work])

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(a) for a in row] for row in self.rows])

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.rows)
        return f"Matrix[{body}]"


def _dot(u: Sequence, v: Sequence):
    """Sum of a * b over paired entries, skipping pairs with a zero factor;
    the sum starts from the first nonzero term, and is Fraction(0) when
    there is none."""
    total = None
    for a, b in zip(u, v):
        if a and b:
            term = a * b
            total = term if total is None else total + term
    return Fraction(0) if total is None else total


def signature(m: Matrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix.

    Symmetric fraction-free elimination on the integer form N of m (d > 0):
    a diagonal pivot is swapped into place, and the Bareiss update of the
    trailing block divides exactly by the previous pivot.  When every
    remaining diagonal entry vanishes, the congruence e_p <- e_p + e_q makes
    one nonzero (valid away from characteristic 2).  The pivots d_k are the
    leading minors of a form congruent to N, which is congruent to the
    diagonal d_k / d_{k-1}: d_k counts as positive when it has the sign of d_{k-1}.
    """
    if not m.is_square():
        raise DimensionMismatchError("signature of non-square matrix")
    if not m.is_symmetric():
        raise NotSymmetricError("signature requires a symmetric matrix")
    n = m.nrows
    work = [list(row) for row in m.integer_form[0]]
    pos, neg, prev = 0, 0, 1
    for i in range(n):
        p = next((p for p in range(i, n) if work[p][p]), None)
        if p is None:
            hit = next(((p, q) for p in range(i, n) for q in range(p + 1, n) if work[p][q]), None)
            if hit is None:
                break
            p, q = hit
            # congruence e_p <- e_p + e_q turns the zero diagonal into 2*work[p][q]
            work[p][i:] = [x + y for x, y in zip(work[p][i:], work[q][i:])]
            for row in work[i:]:
                row[p] += row[q]
        if p != i:
            work[i], work[p] = work[p], work[i]
            for row in work[i:]:
                row[i], row[p] = row[p], row[i]
        top = work[i]
        d = top[i]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for row in work[i + 1:]:
            f = row[i]
            row[i + 1:] = [(d * x - f * y) // prev for x, y in zip(row[i + 1:], top[i + 1:])]
        prev = d
    return pos, neg, n - pos - neg
