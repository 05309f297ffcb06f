"""Exact linear algebra over Z, Q and prime fields.

Column-style Hermite and Smith normal forms with unimodular transforms,
saturated kernel lattices, and finitely generated abelian group
presentations of subquotients.
Everything is deterministic: the same input always yields byte-identical
bases, which downstream code relies on for reproducible reports.

The HNF (`intmat._row_hnf`) reduces sparse {column: value} rows by
whole-row operations, so columns past the matrix ride along:
`kernel_lattice` and `hermite_normal_form` add an identity block there to
record the transform, and `hnf_basis`, which needs none, adds nothing. The
rows are the matrix's columns, read off as dicts of their nonzeros
(`intmat._columns`), and the result is read back the same way. `_row_hnf`
computes the HNF by insertion, each row reduced against the pivot rows
found so far, and stops early when the rows found so far generate the
whole lattice; since the HNF is canonical, its bases do not depend on the
order of elimination.

Ranks and solves over Z use the same HNF. Q runs on that integer engine
too: the complexes here are complexes of free Z-modules, so
H(C (x) Q) = H(C) (x) Q, and a map between saturated integer bases is
bijective over Q exactly when its integer determinant is nonzero.
F_p has no dense elimination of its own. Unit-pivot reduction on sparse
rows (`_unit_pivot_reduce`, after Kaczynski, Mrozek and Slusarek, 1998)
reduces mod p inline, and over F_p every nonzero entry is a unit, so it
eliminates the whole matrix; pivoting each row on its first nonzero column
makes its pivot columns those of the reduced echelon form. The one loop
gives the ranks mod p, the reduced-echelon kernel basis (`kernel_field`)
and, in the image, the choice of representatives. `_kernel_basis` and
`_coords_in_kernel` decide, for every ring, which kernel basis is used and
how coordinates in it are found.

A homology group ker(d_out)/im(d_in) on Z^n is decided by ranks and
invariant factors alone. ker(d_out) is saturated in Z^n, so the torsion of
the group is the torsion of Z^n/im(d_in): over Z the group is
Z^(n - rank d_out - rank d_in) plus the invariant factors of d_in above 1,
over Q the free part of that, and over F_p its dimension is
n - rank_p d_out - rank_p d_in. The ranks and factors come from unit-pivot
reduction, with the dense SNF or rank on what is left over Z and Q.
Representatives come from a kernel basis and the SNF of the image in it
(the pivot columns of the image mod p over F_p), and only a nontrivial
group needs them.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction

from .intmat import (
    IntMatrix,
    SparseIntMatrix,
    _columns,
    _from_columns,
    _pivots_over_q,
    _row_hnf,
    solve_int,
)


# ---------------------------------------------------------------------------
# Rings


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test for p < MAX_MODULUS."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# Exponents and decimal points would let a short string denote a huge number.
_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


@dataclass(frozen=True)
class RingTag:
    """One of Z, Q, or the prime field F_p. All are PIDs."""

    kind: str  # "Z" | "Q" | "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if isinstance(self.p, int) and self.p >= MAX_MODULUS:
                raise ValueError(f"modulus too large: {self.p} (the limit is {MAX_MODULUS - 1})")
            if not isinstance(self.p, int) or not _is_prime(self.p):
                raise ValueError(f"modulus not prime: {self.p}")
        elif self.p is not None:
            raise ValueError("modulus only allowed for Fp")

    @classmethod
    def Z(cls):
        return cls("Z")

    @classmethod
    def Q(cls):
        return cls("Q")

    @classmethod
    def Fp(cls, p):
        return cls("Fp", p)

    @classmethod
    def parse(cls, text: str) -> "RingTag":
        text = text.strip()
        if text == "Z":
            return cls.Z()
        if text == "Q":
            return cls.Q()
        if text.startswith("Fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise ValueError(f"bad modulus in ring tag {text!r}") from None
            return cls.Fp(p)
        raise ValueError(f"unknown ring {text!r} (expected Z, Q or Fp:<p>)")

    def __str__(self):
        return f"Fp:{self.p}" if self.kind == "Fp" else self.kind

    @property
    def is_field(self):
        return self.kind in ("Q", "Fp")

    def coerce(self, value):
        """Coerce a JSON-ish scalar (int, Fraction, or an integer or 'a/b'
        string of decimal digits) into the ring."""
        if isinstance(value, str):
            if not _RATIONAL_STRING.fullmatch(value):
                raise ValueError("expected an integer or 'a/b' string of decimal digits")
            value = Fraction(value)
        if isinstance(value, Fraction):
            if self.kind == "Q":
                return value
            if value.denominator != 1:
                raise ValueError(f"non-integral value {value} over {self}")
            value = int(value)
        if not isinstance(value, int):
            raise ValueError(f"cannot coerce {value!r} into {self}")
        if self.kind == "Fp":
            return value % self.p
        if self.kind == "Q":
            return Fraction(value)
        return value

    def is_zero(self, x):
        return self.coerce(x) == 0

    def is_unit(self, x):
        x = self.coerce(x)
        if self.kind == "Z":
            return x in (1, -1)
        return x != 0

    def validate_weight(self, value):
        """Weights must not be zero-divisors; over Z, Q, F_p that means nonzero."""
        x = self.coerce(value)
        if self.is_zero(x):
            raise ValueError(f"weight {value!r} is a zero-divisor over {self}")
        return x


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def _transform_hnf(m: IntMatrix):
    """The row HNF of [m^T | I] as dict rows, and its rank r: the rows are
    [h | u], u at keys m.rows and up, with h = u m^T and u unimodular, and
    h vanishes on the rows r.. ."""
    rows = _columns(m)
    for j, row in enumerate(rows):
        row[m.rows + j] = 1
    return rows, _row_hnf(rows, m.rows, ride=True)


def hermite_normal_form(m: IntMatrix):
    """Column-style HNF: returns (H, U) with H = m*U, U unimodular.

    Nonzero columns of H form the canonical basis of the column lattice of m;
    zero columns are pushed to the right. Pivots are positive and entries to
    the left of a pivot in its row are reduced into [0, pivot). U is one
    such transform; it is not canonical.
    """
    rows, _ = _transform_hnf(m)
    h = [{i: x for i, x in row.items() if i < m.rows} for row in rows]
    u = [{i - m.rows: x for i, x in row.items() if i >= m.rows} for row in rows]
    return _from_columns(h, m.rows), _from_columns(u, m.cols)


def hnf_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis (nonzero HNF columns) of the column lattice of m."""
    rows = _columns(m)
    return _from_columns(rows[: _row_hnf(rows, m.rows)], m.rows)


def smith_normal_form(m: IntMatrix):
    """Returns (S, U, V) with S = U*m*V diagonal, nonnegative, d_i | d_{i+1}."""
    rows, cols = m.rows, m.cols
    s = [row[:] for row in m.data]
    u = IntMatrix.identity(rows).data
    v = IntMatrix.identity(cols).data

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        s[dst] = [x - q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in s:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while True:
        # Locate a pivot of minimal absolute value in the trailing block.
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # Clear column t.
            redo = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    addmul_row(i, t, q)
                    if s[i][t] != 0:
                        swap_rows(i, t)
                        redo = True
            if redo:
                continue
            # Clear row t.
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    addmul_col(j, t, q)
                    if s[t][j] != 0:
                        swap_cols(j, t)
                        redo = True
            if redo:
                continue
            # Enforce divisibility of the trailing block by the pivot.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, -1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t >= min(rows, cols):
            break
    return IntMatrix(rows, cols, s), IntMatrix(rows, rows, u), IntMatrix(cols, cols, v)


def invariant_factors(m: IntMatrix):
    """Diagonal of the SNF, nonzero entries only."""
    s, _, _ = smith_normal_form(m)
    out = []
    for i in range(min(s.rows, s.cols)):
        if s.data[i][i] != 0:
            out.append(s.data[i][i])
    return out


# ---------------------------------------------------------------------------
# Kernels and saturation


def kernel_lattice(m: IntMatrix) -> IntMatrix:
    """Canonical basis of {x in Z^cols : m x = 0}; automatically saturated."""
    # The u parts of the rows of [h | u] where h vanishes are a basis of the
    # kernel, and their HNF is the canonical one.
    rows, r = _transform_hnf(m)
    basis = [{j - m.rows: x for j, x in row.items()} for row in rows[r:]]
    _row_hnf(basis, m.cols)
    return _from_columns(basis, m.cols)


def saturate(b: IntMatrix) -> IntMatrix:
    """Saturation of the column lattice of b (columns must be independent,
    which the rank of the orthogonal lattice, b.rows - b.cols, shows)."""
    if b.cols == 0:
        return b.copy()
    perp = kernel_lattice(b.transpose())
    if perp.cols != b.rows - b.cols:
        raise ValueError("saturate requires linearly independent columns")
    return kernel_lattice(perp.transpose())


def rank_over_q(m: IntMatrix) -> int:
    return len(_pivots_over_q(m))


# ---------------------------------------------------------------------------
# Kernel bases and coordinates over a ring


def kernel_field(m: IntMatrix, ring: RingTag):
    """Kernel basis over F_p, as a list of coordinate columns: the reduced
    echelon one, which has a column for each free column c of m, 1 at c and
    0 at the other free columns.

    The pivots come from unit-pivot reduction of the rows of m mod p, whose
    pivot columns are those of the reduced echelon form of m mod p. Each
    pivot row solves for its pivot entry in terms of later columns, so a
    column's vector is found by back substitution, last pivot first."""
    p = ring.p
    pivots = list(_unit_pivot_reduce(_sparse_rows(m, p), p))
    bound = {j for j, _, _ in pivots}
    basis = []
    for c in range(m.cols):
        if c in bound:
            continue
        vec = [0] * m.cols
        vec[c] = 1
        for j, row, inv in reversed(pivots):
            vec[j] = -inv * sum(x * vec[k] for k, x in row.items()) % p
        basis.append(vec)
    return basis


def _kernel_basis(m: IntMatrix, ring: RingTag) -> IntMatrix:
    """The kernel basis of m over the ring, as the columns of a matrix: the
    saturated integer kernel lattice over Z and Q (a saturated integer basis
    is also a Q-basis), the reduced-echelon kernel mod p over F_p."""
    if ring.kind == "Fp":
        cols = kernel_field(m, ring)
        return IntMatrix.from_cols(cols, rows=m.cols) if cols else IntMatrix(m.cols, 0)
    return kernel_lattice(m)


def _coords_in_kernel(kern: IntMatrix, columns, ring: RingTag):
    """Coordinates of integer columns in a kernel basis from `_kernel_basis`,
    one coordinate column per column.

    Over Z and Q the basis is saturated, so an integer column in its span
    has integer coordinates, found by forward substitution against the HNF
    basis. Over F_p each basis column is 1 at its own free column and 0 at
    the other free columns, and that free column is its last nonzero entry
    (a reduced-echelon row is zero left of its pivot), so the coordinates
    of a column are its entries there, mod p. A column outside the span
    raises ValueError, which means an incidence-sign or balancing bug.
    """
    if kern.cols == 0:
        if not all(ring.is_zero(x) for col in columns for x in col):
            raise ValueError("image does not lie in the kernel")
        return [[] for _ in columns]
    if not columns:
        return []
    if ring.kind != "Fp":
        return solve_int(kern, IntMatrix.from_cols(columns, rows=kern.rows)).columns()
    p = ring.p
    free = [max(i for i, x in enumerate(col) if x) for col in kern.columns()]
    coords = [[col[i] % p for i in free] for col in columns]
    for col, x in zip(columns, coords):
        if any((y - z) % p for y, z in zip(kern.mul_vector(x), col)):
            raise ValueError("image does not lie in the kernel")
    return coords


# ---------------------------------------------------------------------------
# Subquotient presentations and homology


@dataclass(frozen=True)
class GroupPresentation:
    """A f.g. module over the ring: free rank plus invariant factors (> 1).

    Over a field the invariant factors are always empty and free_rank is the
    dimension. Triviality means free rank 0 AND no torsion.
    """

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        facs = self.invariant_factors
        if any(f <= 1 for f in facs):
            raise ValueError("invariant factors must exceed 1")
        if any(facs[i + 1] % facs[i] != 0 for i in range(len(facs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"R^{self.free_rank}" if self.free_rank > 1 else "R")
        parts.extend(f"R/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _sparse_rows(m: IntMatrix, p=None):
    """The nonzero entries of m as one new {column: value} dict per row,
    reduced mod p when p is given; a `SparseIntMatrix` has its rows copied,
    not scanned."""
    if isinstance(m, SparseIntMatrix):
        rows = [entry.items() for entry in m.entries]
    else:
        rows = [enumerate(row) for row in m.data]
    if p is None:
        return [{j: x for j, x in row if x} for row in rows]
    return [{j: x % p for j, x in row if x % p} for row in rows]


def _composes(out_rows, in_rows, p=None) -> bool:
    """Whether the product of two matrices, given by their sparse rows,
    vanishes (mod p when p is given)."""
    for a in out_rows:
        acc = {}
        for k, x in a.items():
            for j, y in in_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        if any(v % p if p else v for v in acc.values()):
            return False
    return True


def _unit_pivot_reduce(rows, p=None):
    """Eliminate unit pivots from the sparse rows `rows`, in place, yielding
    each pivot as it is taken.

    Over Z (p None) a pivot is an entry +-1; over F_p it is any nonzero
    entry. A pivot at (i, j) removes row i and column j and subtracts a
    rank-one update from the rest, so each pivot adds one to the rank and,
    over Z, one invariant factor 1. Pivots are taken from a shortest row
    that has one: over Z in its sparsest unit column, in rough Markowitz
    order; over F_p in its first nonzero column j. The rows stay vectors
    of the row space, zero at the columns already eliminated, so over F_p
    each pivot column is the leading column of such a vector: the pivot
    columns are those of the reduced echelon form. Each pivot is yielded
    as (j, row, inv): its column, its row without column j, and the
    inverse of its entry. The rows left nonzero when the generator is
    exhausted are the residual, which over F_p is always empty.
    """
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    while heap:
        length, i = heapq.heappop(heap)
        prow = rows[i]
        if length != len(prow) or not prow:
            continue  # stale entry; the row was pushed again when it changed
        if p:
            j = min(prow)
        else:
            units = [c for c, x in prow.items() if x in (1, -1)]
            if not units:
                continue  # parked until an update changes the row
            j = min(units, key=lambda c: len(cols[c]))
        inv = pow(prow.pop(j), -1, p) if p else prow.pop(j)
        rows[i] = {}
        for c in prow:
            cols[c].discard(i)
        cols[j].discard(i)
        for r in cols.pop(j):
            row = rows[r]
            f = row.pop(j) * inv
            for c, x in prow.items():
                old = row.get(c)
                y = (0 if old is None else old) - f * x
                if p:
                    y %= p
                if y:
                    row[c] = y
                    if old is None:
                        cols[c].add(r)
                elif old is not None:
                    del row[c]
                    cols[c].discard(r)
            heapq.heappush(heap, (len(row), r))
        yield j, prow, inv


def _rank_and_torsion(rows, p=None, torsion=False):
    """Rank of the matrix with sparse rows `rows` (consumed) over F_p, or
    over Q when p is None; with `torsion`, also its invariant factors above
    1 over Z. The dense eliminations run on the residual only."""
    rank = sum(1 for _ in _unit_pivot_reduce(rows, p))
    left = [row for row in rows if row]
    if not left:
        return rank, ()
    used = sorted({j for row in left for j in row})
    residual = IntMatrix._adopt(len(left), len(used), [[row.get(j, 0) for j in used] for row in left])
    if torsion:
        facs = invariant_factors(residual)
        return rank + len(facs), tuple(f for f in facs if f > 1)
    return rank + rank_over_q(residual), ()


def homology_of_pair(boundary_in: IntMatrix, boundary_out: IntMatrix, ring: RingTag):
    """ker(boundary_out)/im(boundary_in) over the ring.

    boundary_out maps the middle group outward, boundary_in maps into it;
    their composition must vanish. Returns (GroupPresentation, reps) where
    reps is a list of coordinate columns in the middle group: torsion
    generators first (matching invariant factor order), then free generators.

    The group comes from two ranks and one set of invariant factors. With n
    the rank of the middle group, ker(boundary_out) is saturated in Z^n, so
    the torsion of the homology is the torsion of Z^n/im(boundary_in):
    over Z the free rank is n - rank(out) - rank(in) and the torsion is the
    invariant factors of boundary_in above 1; over Q it is the free rank
    alone; over F_p it is n - rank_p(out) - rank_p(in). The ranks and
    factors come from unit-pivot reduction (`_unit_pivot_reduce`), with the
    dense SNF or rank on the residual only. A trivial group is returned
    without representatives; a nontrivial one gets its representatives from
    `_homology_with_representatives`, whose group must agree.
    """
    n = boundary_out.cols
    if boundary_in.rows != n:
        raise ValueError("boundary shapes do not match")
    p = ring.p if ring.kind == "Fp" else None
    out_rows = _sparse_rows(boundary_out, p)
    in_rows = _sparse_rows(boundary_in, p)
    if not _composes(out_rows, in_rows, p):
        raise ValueError("not a complex: boundary_out * boundary_in != 0")
    rank_out, _ = _rank_and_torsion(out_rows, p)
    rank_in, torsion = _rank_and_torsion(in_rows, p, torsion=ring.kind == "Z")
    group = GroupPresentation(n - rank_out - rank_in, torsion)
    if group.is_trivial:
        return group, []
    slow, reps = _homology_with_representatives(boundary_in, boundary_out, ring)
    if slow != group:
        raise RuntimeError(f"homology engines disagree: {group} by ranks, {slow} by kernels")
    return group, reps


def _homology_with_representatives(boundary_in: IntMatrix, boundary_out: IntMatrix,
                                   ring: RingTag):
    """`homology_of_pair` by a kernel basis and the SNF of the image in it,
    with representatives; the pair is known to compose to zero.

    Z and Q share the integer path. The matrices define free Z-modules, so
    the Q group is the free part of the Z group and its representatives are
    the integer free generators. Over F_p the representatives are the
    kernel columns that are not pivot columns of the image's reduced
    echelon form in kernel coordinates.
    """
    kmat = _kernel_basis(boundary_out, ring)
    k = kmat.cols
    if k == 0:
        return GroupPresentation(0), []
    if boundary_in.cols == 0:
        return GroupPresentation(k), kmat.columns()
    x = _coords_in_kernel(kmat, boundary_in.columns(), ring)  # the image in kernel coordinates
    if ring.kind == "Fp":
        pivots = _pivot_columns(x, k, ring.p)
        reps = [col for i, col in enumerate(kmat.columns()) if i not in pivots]
        return GroupPresentation(len(reps)), reps

    # Z and Q: SNF of the image expressed in the kernel lattice basis.
    s, u, _ = smith_normal_form(IntMatrix.from_cols(x, rows=k))
    u_inv = solve_int(u, IntMatrix.identity(u.rows))
    adapted = kmat * u_inv
    diag = [s.data[i][i] for i in range(min(s.rows, s.cols))]
    rank_x = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    reps = [adapted.column(i) for i in range(rank_x) if diag[i] > 1]
    reps += [adapted.column(i) for i in range(rank_x, k)]
    if ring.kind == "Q":
        return GroupPresentation(k - rank_x), reps[len(torsion):]
    return GroupPresentation(k - rank_x, torsion), reps


def _pivot_columns(a, cols, p):
    """The pivot columns of the reduced echelon form mod p of the int rows
    `a`, each `cols` long, from unit-pivot reduction."""
    rows = _sparse_rows(IntMatrix._adopt(len(a), cols, a), p)
    return {j for j, _, _ in _unit_pivot_reduce(rows, p)}
