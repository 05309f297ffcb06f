"""Tropical chain and cochain complexes and their exact (co)homology.

Complexes are assembled as block integer matrices from a fan's incidence
signs and multi-tangent structure maps, then interpreted over Z, Q or F_p.
Degrees are labeled by face dimension so results print with the indexing
used for fans (homology of a d-fan lives in degrees 0..d).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import GroupPresentation, RingTag, _coords_in_kernel, _kernel_basis, homology_of_pair
from .fans import ConeView, Fan, WeightedFan
from .intmat import IntMatrix, SparseIntMatrix


@dataclass
class Block:
    face: int
    rank: int
    offset: int


class ChainComplex:
    """A bounded complex of free modules with integer differentials.

    direction "homological": differential lowers the degree; "cohomological":
    raises it. `blocks[q]` records which face contributes which coordinate
    slice of the degree-q term.
    """

    def __init__(self, direction, ring, degrees, blocks, diffs):
        self.direction = direction
        self.ring = ring
        self.degrees = list(degrees)
        self.blocks = blocks  # degree -> list[Block]
        self.diffs = diffs  # degree q -> matrix out of degree q

    def rank(self, q):
        return sum(b.rank for b in self.blocks.get(q, []))

    def _neighbor(self, q):
        return q - 1 if self.direction == "homological" else q + 1

    def boundary_out(self, q) -> IntMatrix:
        if q in self.diffs:
            return self.diffs[q]
        target = self._neighbor(q)
        rows = self.rank(target) if target in self.blocks else 0
        return SparseIntMatrix(rows, self.rank(q), [{} for _ in range(rows)])

    def boundary_in(self, q) -> IntMatrix:
        src = q + 1 if self.direction == "homological" else q - 1
        if src in self.diffs:
            return self.diffs[src]
        return IntMatrix(self.rank(q), 0)

    def homology(self) -> "HomologyTable":
        table = {}
        for q in self.degrees:
            pres, reps = homology_of_pair(self.boundary_in(q), self.boundary_out(q), self.ring)
            table[q] = HomologyEntry(pres, reps)
        return HomologyTable(table, self.direction)


@dataclass
class HomologyEntry:
    group: GroupPresentation
    representatives: list  # coordinate columns in the degree's chain group


class _KernelEntry(HomologyEntry):
    """The top entry of a star table. It keeps the star's top differential
    and owns its kernel basis, whose columns are the representatives."""

    def __init__(self, group, top, ring):
        self.group = group
        self.top = top
        self.ring = ring

    @cached_property
    def kernel(self) -> IntMatrix:
        """The kernel basis of the top differential (`_kernel_basis`).
        Built once, on first read: by the representatives, the star row, or
        a cap whose verdict or witness needs kernel coordinates."""
        return _kernel_basis(self.top, self.ring)

    @property
    def representatives(self):
        return self.kernel.columns()


@dataclass
class HomologyTable:
    entries: dict
    direction: str

    def group(self, q) -> GroupPresentation:
        return self.entries[q].group

    def is_trivial_except(self, keep) -> bool:
        keep = set(keep)
        return all(e.group.is_trivial for q, e in self.entries.items() if q not in keep)

    def nonzero_degrees(self):
        return sorted(q for q, e in self.entries.items() if not e.group.is_trivial)


# ---------------------------------------------------------------------------
# Assembly helpers


def _layout(face_ids, ranks):
    blocks = []
    off = 0
    for fid in face_ids:
        blocks.append(Block(fid, ranks[fid], off))
        off += ranks[fid]
    return blocks


def _bm_differential(fan: Fan, module, q, blocks_q, blocks_q1):
    """Block matrix of the Borel-Moore boundary from degree q to q-1, as a
    `SparseIntMatrix`. Each pair of a face and one of its facets fills its
    own block from the nonzeros of the inclusion's columns
    (`ModuleAssignment._map_columns`), so every nonzero is written once,
    and the blocks and columns of a row are visited in column order."""
    entries = [{} for _ in range(sum(b.rank for b in blocks_q1))]
    tau_of = {b.face: b for b in blocks_q1}
    for bs in blocks_q:
        for tau in fan.facets_of(bs.face):
            if tau not in tau_of:
                continue
            row = tau_of[tau].offset
            sign = fan.incidence_sign(tau, bs.face)
            for j, col in enumerate(module._map_columns(bs.face, tau), bs.offset):
                for i, x in col.items():
                    entries[row + i][j] = sign * x
    return SparseIntMatrix(len(entries), sum(b.rank for b in blocks_q), entries)


def _assemble(fan: Fan, p: int):
    """The Borel-Moore complex of F_p over the whole fan, without a ring:
    the block layout of every degree and the differential out of every
    degree above 0."""
    module = fan.multitangent(p)
    ranks = [module.rank(fid) for fid in range(fan.face_count())]
    blocks = {q: _layout(fan.faces_of_dim(q), ranks) for q in range(fan.dim + 1)}
    diffs = {q: _bm_differential(fan, module, q, blocks[q], blocks[q - 1]) for q in range(1, fan.dim + 1)}
    return blocks, diffs


def _bm(fan: Fan, p: int):
    """`_assemble` and each face's block, kept per fan: the one complex of
    degree p that every star complex, and the balancing check, read."""

    def compute():
        blocks, diffs = _assemble(fan, p)
        return blocks, diffs, {b.face: b for layout in blocks.values() for b in layout}

    return fan.memo(("bm", p), compute)


def bm_chain_complex(fan: Fan, p: int, ring: RingTag) -> ChainComplex:
    """Borel-Moore chain complex of the degree-p multi-tangent cosheaf,
    assembled afresh on every call (it is not kept on the fan)."""
    blocks, diffs = _assemble(fan, p)
    return ChainComplex("homological", ring, range(fan.dim + 1), blocks, diffs)


def star_bm_complex(fan: Fan, gamma: int, p: int, ring: RingTag) -> ChainComplex:
    """The Borel-Moore complex of the star of gamma, as the restriction of
    the fan's complex to the faces above gamma.

    Those faces form an upper set, so the star complex is the quotient by
    the faces not containing gamma, and its differentials are the fan's
    rows at the faces above gamma with their columns renumbered. Degrees run
    from dim gamma up to the fan's dimension, and member faces keep their
    dimensions: the star is realized without subdividing. A face above gamma
    has nonzeros only at its covers, which lie above gamma too, so no
    nonzero is dropped. The star of the vertex is the whole fan, and its
    complex shares the fan's blocks and differentials.
    """
    if not 0 <= gamma < fan.face_count():
        raise ValueError(f"invalid face id {gamma}")
    blocks, diffs, block_of = _bm(fan, p)
    if gamma == fan.vertex_id:
        return ChainComplex("homological", ring, range(fan.dim + 1), blocks, diffs)
    members = fan.upper_set(gamma)
    ranks = {fid: block_of[fid].rank for fid in members}
    degrees = range(fan.faces[gamma].dim, fan.dim + 1)
    star_blocks = {q: _layout([f for f in members if fan.faces[f].dim == q], ranks) for q in degrees}
    star_diffs = {}
    for q in degrees[1:]:
        column = {block_of[b.face].offset + j: b.offset + j for b in star_blocks[q] for j in range(b.rank)}
        rows = diffs[q].entries
        entries = [
            {column[j]: x for j, x in rows[block_of[b.face].offset + i].items()}
            for b in star_blocks[q - 1]
            for i in range(b.rank)
        ]
        star_diffs[q] = SparseIntMatrix(len(entries), len(column), entries)
    return ChainComplex("homological", ring, degrees, star_blocks, star_diffs)


def compact_cochain_complex(fan: Fan, p: int, ring: RingTag) -> ChainComplex:
    """Compact-support cochain complex of the degree-p sheaf: the transpose
    dual of the Borel-Moore complex in the stored bases."""
    bm = bm_chain_complex(fan, p, ring)
    diffs = {}
    for q in bm.degrees:
        if q + 1 in bm.diffs:
            diffs[q] = bm.diffs[q + 1].transpose()
    return ChainComplex("cohomological", ring, bm.degrees, bm.blocks, diffs)


def _vertex_complex(direction, fan: Fan, p: int, ring: RingTag) -> ChainComplex:
    v = fan.vertex_id
    degrees = list(range(fan.dim + 1))
    blocks = {q: [] for q in degrees}
    blocks[0] = _layout([v], {v: fan.multitangent(p).rank(v)})
    return ChainComplex(direction, ring, degrees, blocks, {})


def plain_cochain_complex(fan: Fan, p: int, ring: RingTag) -> ChainComplex:
    """The cochain complex without compact supports. The vertex is the only
    compact face of a pointed fan, so only degree 0 is nonzero."""
    return _vertex_complex("cohomological", fan, p, ring)


def plain_chain_complex(fan: Fan, p: int, ring: RingTag) -> ChainComplex:
    """The chain complex over compact faces only: the trivial specialization
    of the Borel-Moore complex to the vertex."""
    return _vertex_complex("homological", fan, p, ring)


def constant_compact_cochain(view, rank: int, ring: RingTag) -> ChainComplex:
    """Compact-support cochain complex of a constant sheaf of the given rank
    on a ConeView (or a whole fan)."""
    if isinstance(view, ConeView):
        fan = view.fan
        members = view.members
    else:
        fan = view
        members = range(fan.face_count())
    dims = [fan.faces[f].dim for f in members]
    degrees = list(range(max(dims) + 1))
    by_dim = {q: [f for f in members if fan.faces[f].dim == q] for q in degrees}
    ranks = {f: rank for f in members}
    blocks = {q: _layout(by_dim[q], ranks) for q in degrees}
    diffs = {}
    member_set = set(members)
    for q in degrees[:-1]:
        rows = sum(b.rank for b in blocks[q + 1])
        cols = sum(b.rank for b in blocks[q])
        mat = IntMatrix(rows, cols)
        sig_of = {b.face: b for b in blocks[q + 1]}
        for bt in blocks[q]:
            for sig in fan.covers_of(bt.face):
                if sig not in member_set:
                    continue
                bs = sig_of[sig]
                sign = fan.incidence_sign(bt.face, sig)
                for i in range(rank):
                    mat.data[bs.offset + i][bt.offset + i] += sign
        diffs[q] = mat
    return ChainComplex("cohomological", ring, degrees, blocks, diffs)


def homology(complex_: ChainComplex) -> HomologyTable:
    return complex_.homology()


def euler_characteristic(complex_: ChainComplex) -> int:
    """Alternating sum of block dimensions, anchored so the top degree counts
    positively; equals the same alternating sum of homology dimensions."""
    if not complex_.ring.is_field:
        raise ValueError("Euler characteristics are computed over a field")
    top = max(complex_.degrees)
    return sum((-1) ** (top - q) * complex_.rank(q) for q in complex_.degrees)


# ---------------------------------------------------------------------------
# Star complexes and the star-homology row (top homology of all stars)


def _star(fan: Fan, gamma: int, p: int, ring: RingTag):
    """The star of gamma in degree p, computed once per fan and ring: its
    homology table, the block layout of its top degree, and its top
    differential (weights play no role here).

    The star complex is `star_bm_complex`, read off the fan's complex of
    degree p, which is assembled once. Its lowest degree, dim gamma, is
    acyclic whenever it lies below the top: the map into it is the sum of
    the signed inclusions of gamma's covers, and `build_multitangent` makes
    F_p(gamma) exactly the sum of its covers' modules (one exact
    substitution proves H X = G for the HNF basis H of the stacked cover
    bases G). So the map is onto over Z, hence over Q and every F_p, and
    the group is 0.
    Every non-top face has covers: `build_fan` rejects fans that are not
    pure dimensional, so it lies in a top face. The degrees strictly
    between go through `homology_of_pair`, which reduces the top
    differential once, as the incoming map of degree d-1. The top degree
    has no incoming boundary, so its group is the kernel of the top
    differential: free, of the rank that the Euler characteristic leaves.
    The alternating sum of the ranks of the chain groups equals that of the
    homology groups, and all but the top one are known, so the top
    differential needs no second reduction. Its kernel basis is owned by
    the top entry, a `_KernelEntry`, and built only when it is read.
    """

    def compute():
        cx = star_bm_complex(fan, gamma, p, ring)
        d = fan.dim
        below = cx.degrees[:-1]
        entries = {q: HomologyEntry(GroupPresentation(0), []) for q in below[:1]}
        for q in below[1:]:
            entries[q] = HomologyEntry(*homology_of_pair(cx.boundary_in(q), cx.boundary_out(q), ring))
        top_rank = cx.rank(d) + sum(
            (-1) ** (d - q) * (cx.rank(q) - e.group.free_rank) for q, e in entries.items()
        )
        top = cx.boundary_out(d)
        entries[d] = _KernelEntry(GroupPresentation(top_rank), top, ring)
        return HomologyTable(entries, cx.direction), cx.blocks[d], top

    return fan.memo(("star", gamma, p, str(ring)), compute)


def _star_kernel(fan: Fan, gamma: int, p: int, ring: RingTag) -> IntMatrix:
    """The kernel basis of the top differential of a star from `_star`,
    owned by the top entry of its table (see `_KernelEntry.kernel`)."""
    return _star(fan, gamma, p, ring)[0].entries[fan.dim].kernel


def star_homology_table(fan: Fan, gamma: int, p: int, ring: RingTag) -> HomologyTable:
    """Memoized homology of the star complex, read from `_star`: the lowest
    degree is 0 by construction, only the degrees strictly between it and
    the top are eliminated, and the top group is read off the Euler
    characteristic."""
    return _star(fan, gamma, p, ring)[0]


def star_row_complex(wf: WeightedFan, p: int, ring: RingTag) -> ChainComplex:
    """The cochain complex whose degree-r term collects the top Borel-Moore
    homology of the stars of all r-faces, with the restricted coboundary.

    The differential of the block from a face to a cover is the incidence
    sign times the component restriction; its image is checked to lie in the
    covering face's kernel (integrally, over Z and Q), which certifies the
    restriction reading of the coboundary.
    """
    fan = wf.fan
    d = fan.dim
    if d < 2:
        raise ValueError("the star-homology row needs a fan of dimension >= 2")
    stars = {fid: _star(fan, fid, d - p, ring) for fid in range(fan.face_count())}
    kernels = {fid: table.entries[d].kernel for fid, (table, _, _) in stars.items()}
    # Row offset of each top face in the top layout of each star.
    top_rows = {fid: {b.face: b.offset for b in layout} for fid, (_, layout, _) in stars.items()}

    degrees = list(range(d + 1))
    ranks = {fid: kern.cols for fid, kern in kernels.items()}
    blocks = {r: _layout(fan.faces_of_dim(r), ranks) for r in degrees}
    offset = {b.face: b.offset for r in degrees for b in blocks[r]}

    diffs = {}
    for r in range(d):
        mat = IntMatrix(sum(b.rank for b in blocks[r + 1]), sum(b.rank for b in blocks[r]))
        for bg in blocks[r]:
            gamma = bg.face
            for kappa in fan.covers_of(gamma):
                # Restrict each kernel column to the top faces above kappa.
                rows = [top_rows[gamma][b.face] + i for b in stars[kappa][1] for i in range(b.rank)]
                sign = fan.incidence_sign(gamma, kappa)
                restricted = kernels[gamma].submatrix(rows, range(bg.rank)) * sign
                coords = _coords_in_kernel(kernels[kappa], restricted.columns(), ring)
                for j, col in enumerate(coords):
                    for i, x in enumerate(col):
                        mat.data[offset[kappa] + i][bg.offset + j] = x
        diffs[r] = mat
    return ChainComplex("cohomological", ring, degrees, blocks, diffs)

