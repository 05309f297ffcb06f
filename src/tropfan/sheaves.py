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
from functools import lru_cache
from itertools import combinations
from math import comb

from .exact import hnf_basis
from .intmat import IntMatrix, _echelon_pivots, _substitute, hstack_all, solve_int


@lru_cache(maxsize=128)
def _row_masks(n: int, s: int):
    """The s-subsets of range(n) in lex order, each with its bit mask."""
    return tuple((rows, sum(1 << i for i in rows)) for rows in combinations(range(n), s))


def wedge_basis(basis: IntMatrix, p: int) -> IntMatrix:
    """Wedge powers of the columns of `basis`, in lex wedge-monomial coords.

    Column J (a p-subset of basis columns, lex order) holds the p x p minors
    of those columns against all p-subsets of rows (lex order). The size-s
    minors come from the size-(s-1) ones by Laplace expansion along the last
    column, so each costs s products instead of a determinant.
    """
    n, r = basis.rows, basis.cols
    if p < 0 or p > r:
        raise ValueError(f"wedge degree {p} out of range for rank {r}")
    a = basis.data

    # minors[J][mask]: the minor on columns J and the rows in the bit mask,
    # with the masks in the lex order of their row subsets.
    minors = {(): {0: 1}}
    for s in range(1, p + 1):
        smaller, minors = minors, {}
        subsets = _row_masks(n, s)
        for cols in combinations(range(r), s):
            below, c = smaller[cols[:-1]], cols[-1]
            col = minors[cols] = {}
            for rows, mask in subsets:
                total = 0
                sign = 1 if s % 2 else -1  # (-1)^(s-1-t) for row position t = 0
                for i in rows:
                    if a[i][c]:
                        total += sign * a[i][c] * below[mask ^ (1 << i)]
                    sign = -sign
                col[mask] = total
    data = [list(row) for row in zip(*(col.values() for col in minors.values()))]
    return IntMatrix._adopt(len(data), len(minors), data)


class ModuleAssignment:
    """Per-face bases and structure matrices for F_p (cosheaf) or its dual.

    At a maximal face the stored basis is exactly `wedge_basis` of the face's
    oriented lattice basis; at every other face it is the canonical HNF
    basis of the sum of its covers' modules (see `build_multitangent`).
    Cosheaf structure matrices point downward: inclusion(sigma, tau) writes
    the basis of F_p(sigma) in the basis of F_p(tau) for tau below sigma.
    The maps of covering pairs are recorded by `build_multitangent`, which
    solves for them together with the face's basis; at a face whose module
    is the whole wedge power (basis the identity) any map is the upper
    face's basis, and any other pair is solved on its first read. The dual
    sheaf's restriction(tau, sigma) is its transpose.

    Bases and maps may be shared objects: every full face holds the same
    identity matrix, a face contained in a cover holds that cover's basis,
    and a map into a full face is the upper face's basis. Like every
    `IntMatrix` they are immutable by convention.
    """

    def __init__(self, fan, p, variance, basis):
        # The fan caches its modules, so a strong reference back would make
        # a cycle that keeps every fan alive until the cyclic collector runs.
        self._fan = weakref.ref(fan)
        self.p = p
        self.variance = variance  # "cosheaf" | "sheaf"
        self.basis = basis  # face id -> IntMatrix (columns in wedge coords)
        self._structure = {}
        self._full = set()  # faces whose module is the whole wedge power

    @property
    def fan(self):
        return self._fan()

    def rank(self, fid):
        return self.basis[fid].cols

    def inclusion(self, sigma, tau) -> IntMatrix:
        """Cosheaf map F_p(sigma) -> F_p(tau) for tau below sigma, in the
        stored bases. Integral because the modules are nested subgroups.
        Into a full module (basis I) the map is sigma's basis itself. A
        covering pair's map was recorded when the module was built; any
        other pair is solved here once and kept."""
        if tau in self._full:
            return self.basis[sigma]
        key = (sigma, tau)
        if key not in self._structure:
            if tau == sigma:
                self._structure[key] = IntMatrix.identity(self.rank(sigma))
            else:
                self._structure[key] = solve_int(self.basis[tau], self.basis[sigma])
        return self._structure[key]

    def restriction(self, tau, sigma) -> IntMatrix:
        """Sheaf map F^p(tau) -> F^p(sigma), the transpose of the inclusion
        in the abstract dual bases."""
        return self.inclusion(sigma, tau).transpose()

    def dual(self) -> "ModuleAssignment":
        other = copy.copy(self)  # shares the bases and the structure matrices
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
    integral X with H X = G. Each face takes the cheapest exact argument
    that applies:

    - full: when a cover's module is the whole wedge power, so is the
      face's. H is the identity of size C(n, p), shared by all full faces,
      and X = G, so each cover's map is that cover's basis. Nothing is
      stacked. A maximal face whose wedge basis is that identity is full,
      and at p = 0 every maximal face is.
    - contained: when G substitutes against the basis of its largest inner
      cover (one with covers of its own, so its basis is a canonical HNF)
      with every remainder zero, the sum is that cover's lattice, and
      canonical HNF is unique, so H is that basis and X the substitution.
    - full-lattice exit: when the HNF of G is the identity, X = G as above.
    - otherwise one `solve_int` of H X = G, which checks H X = G exactly.

    Every path checks H X = G: the substitution and the solve check a zero
    remainder, and H = I makes X = G hold by definition. Bases and maps may
    therefore be shared objects (see `ModuleAssignment`).
    """
    if p < 0 or p > fan.dim:
        raise ValueError(f"degree {p} out of range for a {fan.dim}-dimensional fan")
    full = IntMatrix.identity(comb(fan.ambient_rank, p))
    mod = ModuleAssignment(fan, p, "cosheaf", {})
    basis, maps, full_faces = mod.basis, mod._structure, mod._full
    # Face ids grow with dimension (see `build_fan`), so covers come first.
    for fid in reversed(range(fan.face_count())):
        covers = fan.covers_of(fid)
        if not covers:
            b = wedge_basis(fan.faces[fid].lattice_basis, p)
            if b == full:
                b = full
                full_faces.add(fid)
            basis[fid] = b
            continue
        if any(c in full_faces for c in covers):
            basis[fid] = full
            full_faces.add(fid)
            for c in covers:
                maps[(c, fid)] = basis[c]
            continue
        # A largest cover with covers of its own goes first: its basis is a
        # canonical HNF already, so its columns enter the HNF unreduced, and
        # when it holds the other covers it is the face's basis.
        inner = [c for c in covers if fan.covers_of(c)]
        if inner:
            first = max(inner, key=lambda c: basis[c].cols)
            covers = [first] + [c for c in covers if c != first]
        stacked = hstack_all([basis[c] for c in covers])
        h = basis[covers[0]]
        x = _substitute(h, _echelon_pivots(h), list(stacked.data)) if inner else None
        if x is None:
            h = hnf_basis(stacked)
            if h == full:
                h = full
                x = stacked.data
                full_faces.add(fid)
            else:
                x = solve_int(h, stacked).data
        basis[fid] = h
        start = 0
        for c in covers:
            end = start + basis[c].cols
            maps[(c, fid)] = IntMatrix._adopt(h.cols, end - start, [row[start:end] for row in x])
            start = end
    return mod


def build_multicotangent(fan, p: int) -> ModuleAssignment:
    """The degree-p multi-cotangent sheaf: facewise dual of the cosheaf."""
    return fan.multitangent(p).dual()
