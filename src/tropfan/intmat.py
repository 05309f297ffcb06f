"""Exact integer matrices.

Entries are Python ints (arbitrary precision), stored row-major as a list of
lists. This is the carrier type for every boundary, inclusion and cap matrix
in the package; nothing here is numeric-approximate. The Borel-Moore
differentials, which are mostly zeros, are `SparseIntMatrix`es: one dict of
nonzeros per row, with the list-of-lists form built only when it is read.

Linear systems over Z and Q are solved by one fraction-free Gauss-Jordan
elimination on Python ints (`_gauss_jordan_ff`): a rational solution is read
off as integer numerators over a pivot, so no Fraction arithmetic runs inside
the elimination. An integral solve against a matrix in column echelon form,
such as a canonical HNF basis, is forward substitution instead
(`_substitute`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import ne


class IntMatrix:
    """An immutable-by-convention integer matrix. Zero dimensions are legal."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data shape mismatch")
            self.data = [[int(x) for x in row] for row in data]
            if any(map(ne, chain.from_iterable(self.data), chain.from_iterable(data))):
                raise ValueError("non-integral matrix entry")

    @classmethod
    def _adopt(cls, rows, cols, data):
        """Wrap int rows this package has just built, of the given shape,
        without the shape check and the entry conversion of the public
        constructor. The rows are taken over, not copied."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def from_rows(cls, rows_data):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        return cls(rows, cols, rows_data)

    @classmethod
    def from_cols(cls, cols_data, rows=None):
        cols = len(cols_data)
        if rows is None:
            if cols == 0:
                raise ValueError("cannot infer row count of an empty column list")
            rows = len(cols_data[0])
        data = [[cols_data[j][i] for j in range(cols)] for i in range(rows)]
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    def copy(self):
        return IntMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def submatrix(self, row_idx, col_idx):
        return IntMatrix._adopt(
            len(row_idx), len(col_idx), [[self.data[i][j] for j in col_idx] for i in row_idx]
        )

    def transpose(self):
        data = [list(col) for col in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)]
        return IntMatrix._adopt(self.cols, self.rows, data)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(
                self.rows, self.cols, [[x * other for x in row] for row in self.data]
            )
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = IntMatrix(self.rows, other.cols)
        a, b, o = self.data, other.data, out.data
        for i in range(self.rows):
            ai, oi = a[i], o[i]
            for k in range(self.cols):
                aik = ai[k]
                if aik:
                    bk = b[k]
                    for j in range(other.cols):
                        oi[j] += aik * bk[j]
        return out

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix(
            self.rows,
            self.cols,
            [[self.data[i][j] + other.data[i][j] for j in range(self.cols)] for i in range(self.rows)],
        )

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(self.data[i][j] * vec[j] for j in range(self.cols)) for i in range(self.rows)]

    def hstack(self, other):
        return hstack_all([self, other])


class SparseIntMatrix(IntMatrix):
    """An integer matrix kept as one {column: nonzero value} dict per row,
    columns in increasing order. The dense `.data` that the other
    `IntMatrix` methods read is built on first read and kept; the
    eliminations and products that only need the nonzeros read `entries`.
    """

    __slots__ = ("entries", "_dense")

    def __init__(self, rows, cols, entries):
        self.rows, self.cols, self.entries, self._dense = rows, cols, entries, None

    @property
    def data(self):
        if self._dense is None:
            dense = []
            for entry in self.entries:
                row = [0] * self.cols
                for j, x in entry.items():
                    row[j] = x
                dense.append(row)
            self._dense = dense
        return self._dense


def hstack_all(mats):
    """Concatenate matrices side by side; all must share a row count. Each
    row is built in one pass."""
    if not mats:
        raise ValueError("empty hstack")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row mismatch in hstack")
    data = [list(chain.from_iterable(parts)) for parts in zip(*(m.data for m in mats))]
    return IntMatrix._adopt(rows, sum(m.cols for m in mats), data)


def det_int(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [row[:] for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _gauss_jordan_ff(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of the first `ncols` columns.

    `rows` is a list of int lists, reduced in place; row operations act on
    whole rows, so trailing columns (a right-hand side) ride along. Pivots
    are chosen column by column, each from the first remaining row with a
    nonzero entry, exactly as Gaussian elimination over Q would choose them.
    On return rows[k] is a positive integer multiple of the k-th row of the
    reduced row echelon form over Q, so its pivot entry is positive and the
    other pivot columns are zero. Only the nonzero columns of the pivot row
    are updated, and an updated row that had to be scaled is divided by its
    content, which keeps the entries small. Returns the pivot columns.
    """
    pivots = []
    n = len(rows)
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        prow = rows[p]
        rows[p] = rows[r]
        if prow[c] < 0:
            prow = [-x for x in prow]
        rows[r] = prow
        piv = prow[c]
        support = [j for j, x in enumerate(prow) if x]
        for i in range(n):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            g = gcd(piv, f)
            scale, f = piv // g, f // g
            if scale != 1:
                row = [scale * x for x in row]
            for j in support:
                row[j] -= f * prow[j]
            if scale != 1:
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
            rows[i] = row
        pivots.append(c)
        r += 1
    return pivots


def _solve_ff(a: IntMatrix, b: IntMatrix):
    """Solve a*X = b for a with full column rank, without fractions.

    Returns one (pivot, numerators) pair per row of X: that row is the
    numerators divided by the pivot, which is positive. Raises ValueError
    when the shapes differ, when a has dependent columns or when the system
    is inconsistent, checked in that order.
    """
    rows, cols = a.rows, a.cols
    if b.rows != rows:
        raise ValueError("shape mismatch in solve")
    aug = [ra + rb for ra, rb in zip(a.data, b.data)]
    if len(_gauss_jordan_ff(aug, cols)) != cols:
        raise ValueError("matrix does not have full column rank")
    # Consistency: rows beyond the pivot rows must be zero on the rhs too.
    if any(any(row[cols:]) for row in aug[cols:]):
        raise ValueError("inconsistent system")
    return [(row[k], row[cols:]) for k, row in enumerate(aug[:cols])]


def solve_exact(a: IntMatrix, b: IntMatrix):
    """Solve a*X = b over Q for a with full column rank.

    Returns the unique rational solution as a list-of-lists of Fractions, or
    raises ValueError when the system is inconsistent or a has dependent
    columns. a may be rectangular (rows >= cols).
    """
    return [[Fraction(x, piv) for x in nums] for piv, nums in _solve_ff(a, b)]


def _echelon_pivots(a: IntMatrix):
    """The pivot row (first nonzero row) of each column of a, or None unless
    these strictly increase, that is unless a is in column echelon form."""
    pivots = []
    for j in range(a.cols):
        for i, row in enumerate(a.data):
            if row[j]:
                break
        else:
            return None
        if pivots and i <= pivots[-1]:
            return None
        pivots.append(i)
    return pivots


def _substitute(a: IntMatrix, pivots, rows):
    """The rows of the integer X with a*X = B, by forward substitution
    against a in column echelon form with the given pivot rows, where `rows`
    lists the rows of B; None when a column of B is not an integral
    combination of the columns of a. The list `rows` is overwritten (the row
    lists in it are not): what is left in it, remainders at pivot rows
    included, must be zero."""
    x = []
    for r, col in zip(pivots, zip(*a.data)):
        q = [y // col[r] for y in rows[r]]
        for i, f in enumerate(col[r:], r):
            if f:
                rows[i] = [y - f * z for y, z in zip(rows[i], q)]
        x.append(q)
    return None if any(map(any, rows)) else x


def solve_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a*X = b insisting on an integral solution.

    Against a in column echelon form this is forward substitution; any
    failure there, or any other a, goes through the fraction-free
    elimination, which raises the ValueError that describes it.
    """
    pivots = _echelon_pivots(a) if a.rows == b.rows else None
    if pivots is not None:
        x = _substitute(a, pivots, list(b.data))
        if x is not None:
            return IntMatrix._adopt(a.cols, b.cols, x)
    out = []
    for piv, nums in _solve_ff(a, b):
        if piv != 1:
            quotients = [divmod(x, piv) for x in nums]
            if any(rem for _, rem in quotients):
                raise ValueError("solution is not integral")
            nums = [q for q, _ in quotients]
        out.append(nums)
    return IntMatrix(a.cols, b.cols, out)
