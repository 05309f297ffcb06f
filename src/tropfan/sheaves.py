"""Multi-tangent cosheaves and their dual sheaves on a fan.

For each face the degree-p module is the subgroup of the p-th exterior power
of the ambient lattice generated by the wedge powers of the lattices of the
maximal cofaces; it is built from the modules of the face's covers (see
`build_multitangent`). Everything is computed over Z once; rings enter later by
reinterpreting the integer matrices. Coordinates in exterior powers use
lexicographic subset order throughout, which fixes all contraction signs.
"""

from __future__ import annotations

import copy
import weakref
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from math import comb

from .intmat import IntMatrix, _from_columns, _row_hnf, _substitute


@lru_cache(maxsize=128)
def _lex_index(n: int, s: int):
    """The bit mask of each s-subset of range(n) -> its place in lex order."""
    return {sum(1 << i for i in rows): k for k, rows in enumerate(combinations(range(n), s))}


def wedge_basis(basis: IntMatrix, p: int) -> IntMatrix:
    """Wedge powers of the columns of `basis`, in lex wedge-monomial coords.

    Column J (a p-subset of basis columns, lex order) holds the p x p minors
    of those columns against all p-subsets of rows (lex order); see
    `_wedge_columns`.
    """
    return _from_columns(_wedge_columns(basis, p), comb(basis.rows, p))


def _wedge_columns(basis: IntMatrix, p: int):
    """The columns of `wedge_basis(basis, p)`, each as a {lex position:
    minor} dict of its nonzeros.

    The size-s minors come from the nonzero size-(s-1) ones by Laplace
    expansion along the last column, over the support of that column only,
    so each nonzero term costs one product and no zero minor is visited.
    Only prefixes of p-subsets are expanded: at size s the last column is
    at most r - 1 - (p - s).
    """
    n, r = basis.rows, basis.cols
    if p < 0 or p > r:
        raise ValueError(f"wedge degree {p} out of range for rank {r}")
    # minors[J]: {bit mask of a row subset: its nonzero minor on columns J}.
    minors = {(): {0: 1}}
    # Each column's nonzeros, as (row bit, entry); p = 0 reads none.
    support = [[(1 << i, x) for i, x in enumerate(col) if x] for col in zip(*basis.data)] if n and p else [[]] * r
    for s in range(1, p + 1):
        smaller, minors = minors, {}
        for cols in combinations(range(r - p + s), s):
            col = minors[cols] = {}
            for mask, m in smaller[cols[:-1]].items():
                for bit, x in support[cols[-1]]:
                    if not mask & bit:
                        # The new row is in place t of the new subset, t the
                        # rows of the mask below it; its sign is (-1)^(s-1-t).
                        term = x * m if (s - (mask & (bit - 1)).bit_count()) % 2 else -x * m
                        col[mask | bit] = col.get(mask | bit, 0) + term
            if 0 in col.values():
                minors[cols] = {mask: m for mask, m in col.items() if m}
    index = _lex_index(n, p)
    return [{index[mask]: m for mask, m in col.items()} for col in minors.values()]


class _Bases(Mapping):
    """Face id -> the dense basis of its module, built from the face's
    columns on first read and kept. Faces that share a column list share
    one matrix: every full face reads the same identity."""

    def __init__(self, columns, rows):
        self._columns = columns
        self._rows = rows
        # id of a column list -> its matrix; `columns` holds every such list
        # for as long as this mapping lives, so no id is reused.
        self._dense = {}

    def __getitem__(self, fid):
        cols = self._columns[fid]
        m = self._dense.get(id(cols))
        if m is None:
            m = self._dense[id(cols)] = _from_columns(cols, self._rows)
        return m

    def __iter__(self):
        return iter(self._columns)

    def __len__(self):
        return len(self._columns)


class ModuleAssignment:
    """Per-face bases and structure matrices for F_p (cosheaf) or its dual.

    At a maximal face the basis is exactly `wedge_basis` of the face's
    oriented lattice basis; at every other face it is the canonical HNF
    basis of the sum of its covers' modules (see `build_multitangent`).
    Cosheaf structure matrices point downward: inclusion(sigma, tau) writes
    the basis of F_p(sigma) in the basis of F_p(tau) for tau below sigma.
    The dual sheaf's restriction(tau, sigma) is its transpose.

    What is stored is what the build computes, as sparse columns: each
    face's basis columns and each covering pair's map columns, one
    {row: value} dict of nonzeros per column (`_map_columns`). Into a face
    whose module is the whole wedge power (basis the identity) any map is
    the upper face's basis columns, and any other pair is solved on its
    first read and kept. The dense `IntMatrix` forms are views built on
    first read and kept: `basis` maps a face id to its matrix, and
    `inclusion` is the dense form of `_map_columns`. The Borel-Moore
    differentials and the caps read the columns only.

    Columns, bases and maps may be shared objects: every full face holds
    the same unit columns, and a face contained in a cover holds that
    cover's columns. Like every `IntMatrix` they are immutable by
    convention.
    """

    def __init__(self, fan, p, variance, columns):
        # The fan caches its modules, so a strong reference back would make
        # a cycle that keeps every fan alive until the cyclic collector runs.
        self._fan = weakref.ref(fan)
        self.p = p
        self.variance = variance  # "cosheaf" | "sheaf"
        self._columns = columns  # face id -> its basis columns, in wedge coords
        self.basis = _Bases(columns, comb(fan.ambient_rank, p))
        self._maps = {}  # (sigma, tau) -> the columns of inclusion(sigma, tau)
        self._full = set()  # faces whose module is the whole wedge power
        self._inclusions = {}  # (sigma, tau) -> the dense inclusion, once read

    @property
    def fan(self):
        return self._fan()

    def rank(self, fid):
        return len(self._columns[fid])

    def _map_columns(self, sigma, tau):
        """The columns of inclusion(sigma, tau), one {row: value} dict of
        nonzeros per basis vector of F_p(sigma), in the basis of F_p(tau).
        A covering pair's were recorded when the module was built. Into a
        full module they are sigma's basis columns; any other pair is solved
        once, by substitution against tau's canonical HNF columns, and
        kept."""
        key = (sigma, tau)
        cols = self._maps.get(key)
        if cols is None:
            if tau in self._full:
                return self._columns[sigma]
            if tau == sigma:
                cols = [{k: 1} for k in range(self.rank(sigma))]
            else:
                cols = _substitute(self._columns[tau], self._columns[sigma])
                if cols is None:
                    raise ValueError(f"F_{self.p} of face {sigma} does not lie in that of face {tau}")
            self._maps[key] = cols
        return cols

    def inclusion(self, sigma, tau) -> IntMatrix:
        """Cosheaf map F_p(sigma) -> F_p(tau) for tau below sigma, in the
        stored bases: the dense form of `_map_columns`, built on first read
        and kept. Integral because the modules are nested subgroups. Into a
        full module (basis I) the map is sigma's basis itself."""
        if tau in self._full:
            return self.basis[sigma]
        key = (sigma, tau)
        m = self._inclusions.get(key)
        if m is None:
            m = self._inclusions[key] = _from_columns(self._map_columns(sigma, tau), self.rank(tau))
        return m

    def restriction(self, tau, sigma) -> IntMatrix:
        """Sheaf map F^p(tau) -> F^p(sigma), the transpose of the inclusion
        in the abstract dual bases."""
        return self.inclusion(sigma, tau).transpose()

    def dual(self) -> "ModuleAssignment":
        other = copy.copy(self)  # shares the columns, maps and dense views
        other.variance = "sheaf"
        return other


def build_multitangent(fan, p: int) -> ModuleAssignment:
    """The degree-p multi-tangent cosheaf of the fan.

    A face's module is the sum over its maximal cofaces of the wedge powers
    of their lattices: the literal subgroup sum, not its saturation. Every
    maximal coface lies above some cover and the modules are nested, so the
    sum is also the sum of the covers' modules. Faces are therefore built
    from the top down: a maximal face keeps the wedge power of its oriented
    basis (so the top-degree module is generated by the orientation
    generator, and dual coordinates there are wedge coordinates), and every
    other face gets the canonical HNF basis H of its covers' bases together,
    G = [B_1 | ... | B_k], with each cover's inclusion as its columns of the
    integral X with H X = G. Every basis and X are sparse columns, one
    {coordinate: value} dict each, a maximal face's straight from its
    minors (`_wedge_columns`), so G is a concatenation of lists and a
    cover's map a slice of X. They are stored as they are (see
    `ModuleAssignment`); the build makes no dense matrix. Each face takes
    the cheapest exact argument that applies:

    - full: when a cover's module is the whole wedge power, so is the
      face's. H is the identity of size C(n, p), whose unit columns all
      full faces share, and X = G, so each cover's map is that cover's
      basis columns. Nothing is stacked. A maximal face whose wedge basis
      is that identity is full, and at p = 0 every maximal face is.
    - contained: when G substitutes forward against the basis of its
      largest inner cover (one with covers of its own, so its basis is a
      canonical HNF) with every remainder zero, the sum is that cover's
      lattice, and canonical HNF is unique, so H is that basis and X the
      substitution.
    - full-lattice exit: when the insertion HNF of G (`intmat._row_hnf`)
      is the identity, X = G as above.
    - otherwise H is that HNF and X the substitution of G against it.

    Every path checks H X = G: the substitution returns None on any nonzero
    remainder, which after the HNF is an error, and H = I makes X = G hold
    by definition.
    """
    if p < 0 or p > fan.dim:
        raise ValueError(f"degree {p} out of range for a {fan.dim}-dimensional fan")
    unit = [{k: 1} for k in range(comb(fan.ambient_rank, p))]  # the identity's columns
    columns = {}  # face id -> its basis columns
    mod = ModuleAssignment(fan, p, "cosheaf", columns)
    maps, full_faces = mod._maps, mod._full
    # Face ids grow with dimension (see `build_fan`), so covers come first.
    for fid in reversed(range(fan.face_count())):
        covers = fan.covers_of(fid)
        if not covers:
            cols = _wedge_columns(fan.faces[fid].lattice_basis, p)
            if cols == unit:
                cols = unit
                full_faces.add(fid)
            columns[fid] = cols
            continue
        x = None
        if not any(c in full_faces for c in covers):
            # A largest cover with covers of its own goes first: its basis is
            # a canonical HNF already, so its columns enter the HNF
            # unreduced, and when it holds the other covers it is the face's.
            inner = [c for c in covers if fan.covers_of(c)]
            if inner:
                first = max(inner, key=lambda c: len(columns[c]))
                covers = [first] + [c for c in covers if c != first]
            g = [col for c in covers for col in columns[c]]
            h = columns[covers[0]]
            x = _substitute(h, g) if inner else None
            if x is None:
                h = g[:]
                del h[_row_hnf(h, len(unit)):]
                if h != unit:
                    x = _substitute(h, g)
                    if x is None:
                        raise ArithmeticError("a cover's module is not in the face's module")
        if x is None:  # full: a cover's module or the HNF of G is the identity
            columns[fid] = unit
            full_faces.add(fid)
            for c in covers:
                maps[(c, fid)] = columns[c]
            continue
        columns[fid] = h
        start = 0
        for c in covers:
            end = start + len(columns[c])
            maps[(c, fid)] = x[start:end]
            start = end
    return mod


def build_multicotangent(fan, p: int) -> ModuleAssignment:
    """The degree-p multi-cotangent sheaf: facewise dual of the cosheaf."""
    return fan.multitangent(p).dual()
