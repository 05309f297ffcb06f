"""Exact linear algebra over Z, Q and prime fields.

Column-style Hermite and Smith normal forms with unimodular transforms,
saturated kernel lattices, and finitely generated abelian group
presentations of subquotients.
Everything is deterministic: the same input always yields byte-identical
bases, which downstream code relies on for reproducible reports.

The eliminations (`_row_hnf`, `_rref`, `intmat._gauss_jordan_ff`) reduce
int rows in place by whole-row operations, so trailing columns ride along:
`hermite_normal_form` appends an identity block to record its transform, and
`hnf_basis`, which needs none, appends nothing.

Ranks and solves over Z use the fraction-free elimination of `intmat`. Q runs
on the same integer engine: the complexes here are complexes of free
Z-modules, so H(C (x) Q) = H(C) (x) Q, and a map between saturated integer
bases is bijective over Q exactly when its integer determinant is nonzero.
Only F_p uses `_rref`, which is row-sparse: each pivot row updates the other
rows in its nonzero columns only, with the reduction mod p inline.

A homology group ker(d_out)/im(d_in) on Z^n is decided by ranks and
invariant factors alone. ker(d_out) is saturated in Z^n, so the torsion of
the group is the torsion of Z^n/im(d_in): over Z the group is
Z^(n - rank d_out - rank d_in) plus the invariant factors of d_in above 1,
over Q the free part of that, and over F_p its dimension is
n - rank_p d_out - rank_p d_in. The ranks and factors come from eliminating
unit pivots on sparse rows (`_unit_pivot_reduce`, after Kaczynski, Mrozek
and Slusarek, 1998), with the dense SNF or rank on what is left.
Representatives come from a kernel basis and the SNF of the image in it,
and only a nontrivial group needs them.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction

from .intmat import IntMatrix, _echelon_pivots, _gauss_jordan_ff, _substitute, solve_int


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


def _row_hnf(rows, ncols):
    """In-place row-style HNF of the first `ncols` columns of the int lists
    `rows`; returns the rank r, and rows[r:] are zero in those columns.
    Pivots are positive and entries above a pivot are reduced into [0, pivot).
    """
    n = len(rows)
    r = 0
    for c in range(ncols):
        if r >= n:
            break
        # Euclidean reduction in column c on rows r..end.
        while True:
            nz = [i for i in range(r, n) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
            done = True
            for i in range(r + 1, n):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            piv = rows[r][c]
            for i in range(r):
                q = rows[i][c] // piv
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
    return r


def hermite_normal_form(m: IntMatrix):
    """Column-style HNF: returns (H, U) with H = m*U, U unimodular.

    Nonzero columns of H form the canonical basis of the column lattice of m;
    zero columns are pushed to the right. Pivots are positive and entries to
    the left of a pivot in its row are reduced into [0, pivot).
    """
    n = m.cols
    rows = [m.column(j) + [int(i == j) for i in range(n)] for j in range(n)]
    _row_hnf(rows, m.rows)
    h = IntMatrix(n, m.rows, [row[: m.rows] for row in rows]).transpose()
    u = IntMatrix(n, n, [row[m.rows :] for row in rows]).transpose()
    return h, u


def hnf_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis (nonzero HNF columns) of the column lattice of m."""
    rows = m.transpose().data
    r = _row_hnf(rows, m.rows)
    return IntMatrix(r, m.rows, rows[:r]).transpose()


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
# Kernels, saturation, lattice membership


def kernel_lattice(m: IntMatrix) -> IntMatrix:
    """Canonical basis of {x in Z^cols : m x = 0}; automatically saturated."""
    if m.rows == 0:
        return IntMatrix.identity(m.cols)
    h, u = hermite_normal_form(m)
    zero_cols = [j for j in range(h.cols) if all(h.data[i][j] == 0 for i in range(h.rows))]
    basis = u.submatrix(range(u.rows), zero_cols)
    if basis.cols == 0:
        return basis
    return hnf_basis(basis)


def saturate(b: IntMatrix) -> IntMatrix:
    """Saturation of the column lattice of b (columns must be independent)."""
    if b.cols == 0:
        return b.copy()
    if len(_pivots_over_q(b)) != b.cols:
        raise ValueError("saturate requires linearly independent columns")
    perp = kernel_lattice(b.transpose())
    return kernel_lattice(perp.transpose())


def lattice_contains(basis: IntMatrix, vector) -> bool:
    """Membership of an integer vector in the column lattice of `basis`."""
    pivots = _echelon_pivots(basis)
    if pivots is None:
        basis = hnf_basis(basis)
        pivots = _echelon_pivots(basis)
    return _substitute(basis, pivots, [[x] for x in vector]) is not None


def _pivots_over_q(m: IntMatrix):
    """Pivot column indices of m over Q (its rank is their count)."""
    return _gauss_jordan_ff([row[:] for row in m.data], m.cols)


def rank_over_q(m: IntMatrix) -> int:
    return len(_pivots_over_q(m))


# ---------------------------------------------------------------------------
# Elimination over F_p


def field_matrix(m: IntMatrix, ring: RingTag):
    """The rows of m as residues mod p."""
    p = ring.p
    return [[x % p for x in row] for row in m.data]


def _rref(a, cols, p):
    """In-place reduced row echelon form over F_p of the first `cols` columns
    of the rows `a` (entries in [0, p)). Row operations act on whole rows but
    only touch the nonzero columns of the pivot row. Returns the pivot column
    list."""
    pivots = []
    n = len(a)
    r = 0
    for c in range(cols):
        i0 = next((i for i in range(r, n) if a[i][c]), None)
        if i0 is None:
            continue
        prow = a[i0]
        a[i0] = a[r]
        x = prow[c]
        if x != 1:
            inv = pow(x, -1, p)
            prow = [y * inv % p for y in prow]
        a[r] = prow
        support = [j for j, y in enumerate(prow) if y]
        for i in range(n):
            row = a[i]
            f = row[c]
            if not f or i == r:
                continue
            for j in support:
                row[j] = (row[j] - f * prow[j]) % p
        pivots.append(c)
        r += 1
    return pivots


def rank_field(m: IntMatrix, ring: RingTag) -> int:
    return len(_rref(field_matrix(m, ring), m.cols, ring.p))


def kernel_field(m: IntMatrix, ring: RingTag):
    """Kernel basis over F_p, as a list of coordinate columns."""
    p = ring.p
    a = field_matrix(m, ring)
    pivots = _rref(a, m.cols, p)
    pivot_set = set(pivots)
    basis = []
    for c in range(m.cols):
        if c in pivot_set:
            continue
        vec = [0] * m.cols
        vec[c] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][c] % p
        basis.append(vec)
    return basis


def solve_field(a_cols, b_cols, ring: RingTag):
    """Solve A*X = B over F_p where A, B are given by columns of residues.

    Raises ValueError when inconsistent or when A has dependent columns.
    """
    n = len(a_cols[0]) if a_cols else (len(b_cols[0]) if b_cols else 0)
    ca, cb = len(a_cols), len(b_cols)
    aug = [[a_cols[j][i] for j in range(ca)] + [b_cols[j][i] for j in range(cb)] for i in range(n)]
    pivots = _rref(aug, ca + cb, ring.p)
    if any(c >= ca for c in pivots):
        raise ValueError("inconsistent system over field")
    if len(pivots) != ca:
        raise ValueError("dependent columns in field solve")
    return [[aug[r][ca + j] for r in range(ca)] for j in range(cb)]


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
    """The nonzero entries of m as one {column: value} dict per row, reduced
    mod p when p is given."""
    if p is None:
        return [{j: x for j, x in enumerate(row) if x} for row in m.data]
    return [{j: x % p for j, x in enumerate(row) if x % p} for row in m.data]


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
    """Eliminate unit pivots from the sparse rows `rows`, in place.

    Over Z (p None) a pivot is an entry +-1; over F_p it is any nonzero
    entry. A pivot at (i, j) removes row i and column j and subtracts a
    rank-one update from the rest, so each pivot adds one to the rank and,
    over Z, one invariant factor 1. Pivots are taken in rough Markowitz
    order: from a shortest row that has one, in its sparsest column.
    Returns the pivot count and the residual, the nonzero rows and columns
    that are left, as an IntMatrix. Over F_p the residual is always empty.
    """
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        length, i = heapq.heappop(heap)
        prow = rows[i]
        if length != len(prow) or not prow:
            continue  # stale entry; the row was pushed again when it changed
        units = [j for j, x in prow.items() if p or x in (1, -1)]
        if not units:
            continue  # parked until an update changes the row
        j = min(units, key=lambda c: len(cols[c]))
        inv = pow(prow[j], -1, p) if p else prow[j]
        rows[i] = {}
        for c in prow:
            cols[c].discard(i)
        for r in cols.pop(j):
            row = rows[r]
            f = row.pop(j) * inv
            for c, x in prow.items():
                if c == j:
                    continue
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
        pivots += 1
    left = [row for row in rows if row]
    used = sorted({j for row in left for j in row})
    return pivots, IntMatrix._adopt(len(left), len(used), [[row.get(j, 0) for j in used] for row in left])


def _rank_and_torsion(rows, p=None, torsion=False):
    """Rank of the matrix with sparse rows `rows` (consumed) over F_p, or
    over Q when p is None; with `torsion`, also its invariant factors above
    1 over Z. The dense eliminations run on the residual only."""
    rank, residual = _unit_pivot_reduce(rows, p)
    if residual.rows == 0:
        return rank, ()
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
    the integer free generators. Only F_p eliminates mod p.
    """
    if ring.kind == "Fp":
        kb = kernel_field(boundary_out, ring)
        if not kb:
            return GroupPresentation(0), []
        if boundary_in.cols == 0:
            return GroupPresentation(len(kb)), kb
        img_cols = field_matrix(boundary_in.transpose(), ring)
        x = solve_field(kb, img_cols, ring)  # columns in kernel coordinates
        k = len(kb)
        pivot_rows = _rref(x, k, ring.p)
        reps = []
        for i in range(k):
            if i not in pivot_rows:
                reps.append(kb[i])
        return GroupPresentation(len(reps)), reps

    # Z and Q: SNF of the image expressed in the kernel lattice basis.
    kmat = kernel_lattice(boundary_out)
    k = kmat.cols
    if k == 0:
        return GroupPresentation(0), []
    if boundary_in.cols == 0:
        return GroupPresentation(k), kmat.columns()
    x = solve_int(kmat, boundary_in)  # integral since im lies in the kernel lattice
    s, u, _ = smith_normal_form(x)
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
