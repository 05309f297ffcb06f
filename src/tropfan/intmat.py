"""Exact integer matrices.

Entries are Python ints (arbitrary precision), stored row-major as a list of
lists. This is the carrier type for every boundary, inclusion and cap matrix
in the package; nothing here is numeric-approximate. The Borel-Moore
differentials, which are mostly zeros, are `SparseIntMatrix`es: one dict of
nonzeros per row, with the list-of-lists form built only when it is read.

Ranks, pivot columns and linear systems over Z and Q share one elimination
on Python ints, the insertion HNF (`_row_hnf`), which runs on sparse rows:
one {column: value} dict of nonzeros per row. `exact` builds its lattice
bases on it too, and the module build its modules. The lead columns of the
HNF of a matrix's rows are its first independent columns, so their count is
its rank over Q. A system a*X = b is solved on the HNF of [a | b], whose row
operations are unimodular: with a of full column rank its top rows are
triangular, and back substitution divides exactly over Z and in Fractions
over Q. An integral solve against a matrix whose columns lead at distinct
rows, such as a canonical HNF basis, is forward substitution on the sparse
columns instead (`_substitute`).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from itertools import chain
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
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix._adopt(self.rows, self.cols + other.cols, [a + b for a, b in zip(self.data, other.data)])


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


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) > 0 and g = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _reduce(row, prow, q):
    """row -= q * prow, in place, on {column: value} dict rows."""
    for j, y in prow.items():
        x = row.get(j, 0) - q * y
        if x:
            row[j] = x
        else:
            del row[j]


def _row_hnf(rows, ncols, ride=False):
    """In-place row-style HNF of the first `ncols` columns of the
    {column: value} dict rows `rows`, which hold their nonzeros only and
    whose columns `ncols` and up ride along (`ride` says there are any).
    Returns the rank r; rows[:r] are the pivot rows in pivot order and
    rows[r:] hold no column below `ncols`. Pivots are positive and entries
    above a pivot are reduced into [0, pivot). The dicts given are copied
    as they are read, not changed.

    HNF by insertion: the pivot rows found so far are kept by pivot column,
    and each row is inserted in turn. At an occupied pivot column the row
    loses its entry by an exact multiple of the pivot row when the pivot
    divides it, and otherwise by a unimodular extended-gcd step on the two
    rows, after which the pivot is the gcd. A row that reaches a free column
    becomes the pivot row there; one that runs out of columns is a zero row.
    Each new or changed pivot row is reduced at the later pivot columns at
    once, which keeps the entries small: without it dense inputs blow up,
    and trailing columns with them. One back-reduction pass in pivot order
    then gives the canonical form. Each step reads and writes the nonzeros
    of the two rows only, so sparse generators stay cheap.

    Full-lattice exit: when no columns ride along and there are `ncols`
    unit pivots, the lattice is all of Z^ncols, and the rows not yet
    inserted are returned as zero rows without being read. A stack of many
    generators of a full lattice (the modules at the vertex of a Bergman
    fan) stops after a few dozen rows.
    """
    pivots = {}  # pivot column -> its row
    order = []  # the pivot columns, sorted
    zero = []
    units = 0

    def reduce_later(prow, c):
        # A pivot row is zero left of its pivot, so reducing at the later
        # pivot columns in increasing order never undoes an earlier step.
        for c2 in order[bisect_right(order, c):]:
            q = prow.get(c2, 0) // pivots[c2][c2]
            if q:
                _reduce(prow, pivots[c2], q)

    for k, row in enumerate(rows):
        if units == ncols and not ride:
            zero.extend({} for _ in range(len(rows) - k))
            break
        row = dict(row)
        # The least key is the lead: a row holds no key below the columns
        # it has lost, and a key of `ncols` or more ends the loop.
        c = min(row, default=ncols)
        while c < ncols:
            prow = pivots.get(c)
            x = row[c]
            if prow is None:
                if x < 0:
                    for j in row:
                        row[j] = -row[j]
                    x = -x
                if order and order[-1] > c:
                    reduce_later(row, c)
                pivots[c] = row
                insort(order, c)
                units += x == 1
                break
            a = prow[c]
            q, rem = divmod(x, a)
            if not rem:
                _reduce(row, prow, q)
            else:
                # The pivot becomes g = gcd(a, x) and the row loses its entry
                # at c; the 2x2 step [[s, t], [-x/g, a/g]] has determinant 1.
                g, s, t = _xgcd(a, x)
                u, v = a // g, x // g
                top, bottom = {}, {}
                for j in prow.keys() | row.keys():
                    y, z = prow.get(j, 0), row.get(j, 0)
                    if w := s * y + t * z:
                        top[j] = w
                    if w := u * z - v * y:
                        bottom[j] = w
                prow, row = top, bottom
                if order[-1] > c:
                    reduce_later(prow, c)
                pivots[c] = prow
                units += g == 1
            c = min(row, default=ncols)
        else:
            zero.append(row)
    # Back-reduction: reducing at pivot c changes an earlier pivot row only
    # at columns after c, which come later in this pass.
    done = []
    for c in order:
        prow = pivots[c]
        piv = prow[c]
        for row in done:
            q = row.get(c, 0) // piv
            if q:
                _reduce(row, prow, q)
        done.append(prow)
    rows[:] = done + zero
    return len(done)


def _columns(m: IntMatrix):
    """The nonzeros of each column of m, as one new {row: value} dict each."""
    if not m.rows:
        return [{} for _ in range(m.cols)]
    return [{i: x for i, x in enumerate(col) if x} for col in zip(*m.data)]


def _from_columns(cols, rows):
    """The rows x len(cols) matrix whose columns are the dicts `cols`, each
    {row: value} with rows below `rows`."""
    data = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            data[i][j] = x
    return IntMatrix._adopt(rows, len(cols), data)


def _pivots_over_q(m: IntMatrix):
    """Pivot column indices of m over Q (its rank is their count): the lead
    columns of its row HNF, which are its first independent columns."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.data]
    return [min(row) for row in rows[: _row_hnf(rows, m.cols)]]


def _solve_hnf(a: IntMatrix, b: IntMatrix, divide):
    """The rows of X with a*X = b, for a with full column rank, from the HNF
    of [a | b]: its top rows are triangular with pivot k in column k, and
    back substitution calls `divide(n, pivot)` for each entry n/pivot of X.
    Raises ValueError when the shapes differ, when a has dependent columns
    or when the system is inconsistent, checked in that order.
    """
    cols = a.cols
    if b.rows != a.rows:
        raise ValueError("shape mismatch in solve")
    aug = [{j: x for j, x in enumerate(ra + rb) if x} for ra, rb in zip(a.data, b.data)]
    if _row_hnf(aug, cols, ride=b.cols > 0) != cols:
        raise ValueError("matrix does not have full column rank")
    # Consistency: rows beyond the pivot rows must be zero on the rhs too.
    if any(aug[cols:]):
        raise ValueError("inconsistent system")
    x = [None] * cols
    for k in reversed(range(cols)):
        row = aug[k]
        rhs = [row.get(j, 0) for j in range(cols, cols + b.cols)]
        for i, f in row.items():
            if k < i < cols:
                rhs = [y - f * z for y, z in zip(rhs, x[i])]
        x[k] = [divide(y, row[k]) for y in rhs]
    return x


def solve_exact(a: IntMatrix, b: IntMatrix):
    """Solve a*X = b over Q for a with full column rank.

    Returns the unique rational solution as a list-of-lists of Fractions, or
    raises ValueError when the system is inconsistent or a has dependent
    columns. a may be rectangular (rows >= cols).
    """
    return _solve_hnf(a, b, Fraction)


def _substitute(echelon, cols):
    """The rows of the integer X with A X = B, by forward substitution:
    `echelon` lists the columns of A as dict rows with distinct leads
    (least keys), and `cols` the columns of B. Each column of B loses its
    lead entry to the column of A led there, until it is zero; None when a
    remainder is left, that is when a column of B is not an integral
    combination of the columns of A. The dicts given are not changed."""
    led = {min(e): (k, e) for k, e in enumerate(echelon)}
    x = [[0] * len(cols) for _ in echelon]
    for j, col in enumerate(cols):
        rem = dict(col)
        while rem:
            c = min(rem)
            if c not in led:
                return None
            k, e = led[c]
            q, r = divmod(rem[c], e[c])
            if r:
                return None
            _reduce(rem, e, q)
            x[k][j] = q
    return x


def _divide_exactly(n, d):
    q, rem = divmod(n, d)
    if rem:
        raise ValueError("solution is not integral")
    return q


def solve_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a*X = b insisting on an integral solution.

    Against a whose columns lead at distinct rows, such as a canonical HNF
    basis, this is forward substitution (`_substitute`); any failure there,
    or any other a, goes through the HNF of [a | b] (`_solve_hnf`), which
    raises the ValueError that describes it. Its row operations are
    unimodular, so an integral solution survives them.
    """
    if a.rows == b.rows:
        echelon = _columns(a)
        if all(echelon) and len({min(e) for e in echelon}) == a.cols:
            x = _substitute(echelon, _columns(b))
            if x is not None:
                return IntMatrix._adopt(a.cols, b.cols, x)
    return IntMatrix._adopt(a.cols, b.cols, _solve_hnf(a, b, _divide_exactly))
