"""Rational polyhedral fans: faces, posets, incidence signs, stars and cones.

The star of a face is its upper set (`Fan.upper_set`), and its complexes are
restrictions of the fan's (`complexes.star_bm_complex`). A cone is its lower
set (`Fan.cone_subfan`).

Faces carry an oriented saturated lattice basis. The orientation is the one
induced by the face's ray generators in index order (for rays this is the
outward primitive generator itself), which makes the incidence signs below
reproduce the usual boundary conventions for balanced fans. Incidence between
a facet and a face is the sign of the determinant expressing
[outward-vector | basis(facet)] in basis(face); the square of the resulting
boundary operator vanishes. Construction verifies that identity on a fan
given by its face list; on a simplicial fan it holds by construction.

On a simplicial face (as many rays as its dimension) with rays r_0 < ... <
r_{k-1} this sign needs no linear algebra: the facet without r_j has sign
(-1)^j. Both bases are oriented by their rays in index order, and the outward
vector is r_j itself, so the determinant is that of [r_j, r_0, ..., r_{k-1}
without r_j] in the face's basis, and moving r_j back to position j takes j
transpositions. Only non-simplicial faces solve for their signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, compress, count
from math import comb, gcd

from .intmat import IntMatrix, _pivots_over_q, det_int
from .exact import RingTag, hnf_basis, rank_over_q, saturate

# The largest face count a fan may have. It admits the Bergman fan of U(5,7)
# (3,151 faces) and bounds the cost of a document before any face is built.
MAX_FACES = 5000

# The largest rank a fan's wedge modules may have: max over p <= dim of
# C(ambient_rank, p), the rank of the p-th exterior power of the ambient
# lattice, which the multi-tangent modules of degree p live in. It admits
# every Bergman fan within MAX_FACES and a simplicial cone on 12 unit rays
# (C(12, 6) = 924); six rays in rank 60 would need C(60, 6) = 50 M rows.
MAX_WEDGE_RANK = 1000


def _coords_det_sign(basis: IntMatrix, mat: IntMatrix) -> int:
    """Sign of det(X) for the square solution X of basis * X = mat.

    basis is a canonical HNF up to the sign of its last column, so it is in
    column echelon form. On its pivot rows P it is triangular with the pivots
    on the diagonal, so det(X) = det(mat_P) / prod(pivots) and no solve is
    needed.
    """
    pivots = [next(compress(count(), col)) for col in zip(*basis.data)]
    det = det_int(mat.submatrix(pivots, range(mat.cols)))
    for j, r in enumerate(pivots):
        if basis.data[r][j] < 0:
            det = -det
    return (det > 0) - (det < 0)


def _is_primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g == 1


class Cone:
    """A face of a fan: its rays, its dimension and an oriented saturated
    lattice basis. Cones compare and hash by these three values.

    `build_fan` gives each face below its maximal cones a zero-argument
    function in place of the basis: the first read of `lattice_basis` calls
    it and keeps the matrix. The function holds the rays, never the fan.
    """

    __slots__ = ("ray_indices", "dim", "_basis")

    def __init__(self, ray_indices, lattice_basis, dim):
        self.ray_indices = ray_indices
        self._basis = lattice_basis
        self.dim = dim

    @property
    def lattice_basis(self) -> IntMatrix:
        if not isinstance(self._basis, IntMatrix):
            self._basis = self._basis()
        return self._basis

    def _key(self):
        return self.ray_indices, self.lattice_basis, self.dim

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Cone) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Cone(ray_indices={!r}, lattice_basis={!r}, dim={!r})".format(*self._key())


class Fan:
    """Immutable pure-dimensional pointed fan with oriented incidence data."""

    def __init__(self, ambient_rank, rays, faces, covering_signs, dim, explicit_faces=None):
        self.ambient_rank = ambient_rank
        self.rays = [tuple(r) for r in rays]
        self.faces = faces  # list[Cone], id = position
        self.covering = covering_signs  # {(tau_id, sigma_id): +-1}
        self.dim = dim
        self.faces_by_dim = {}
        for fid, cone in enumerate(faces):
            self.faces_by_dim.setdefault(cone.dim, []).append(fid)
        self.vertex_id = self.faces_by_dim[0][0]
        self._rayset_to_id = {cone.ray_indices: fid for fid, cone in enumerate(faces)}
        self._cofaces = {fid: [] for fid in range(len(faces))}
        self._facets = {fid: [] for fid in range(len(faces))}
        for (t, s) in covering_signs:
            self._cofaces[t].append(s)
            self._facets[s].append(t)
        self._upper_cache = {}
        self._multitangent_cache = {}
        self._memo = {}
        self.explicit_faces = explicit_faces  # the face list given to build_fan, if any

    # -- basic queries ------------------------------------------------------

    def face_count(self):
        return len(self.faces)

    def faces_of_dim(self, k):
        return self.faces_by_dim.get(k, [])

    def top_faces(self):
        return self.faces_of_dim(self.dim)

    def face_by_rays(self, ray_indices):
        return self._rayset_to_id[tuple(sorted(ray_indices))]

    def incidence_sign(self, tau, sigma):
        try:
            return self.covering[(tau, sigma)]
        except KeyError:
            raise ValueError(f"faces {tau} and {sigma} are not a covering pair") from None

    def covers_of(self, fid):
        return self._cofaces[fid]

    def facets_of(self, fid):
        return self._facets[fid]

    def upper_set(self, fid):
        """All faces above fid (inclusive), sorted by id."""
        if fid not in self._upper_cache:
            seen = {fid}
            frontier = [fid]
            while frontier:
                nxt = []
                for f in frontier:
                    for c in self._cofaces[f]:
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
                frontier = nxt
            self._upper_cache[fid] = sorted(seen)
        return self._upper_cache[fid]

    def lower_set(self, fid):
        seen = {fid}
        frontier = [fid]
        while frontier:
            nxt = []
            for f in frontier:
                for t in self._facets[f]:
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        return sorted(seen)

    def maximal_cofaces(self, fid):
        return [f for f in self.upper_set(fid) if self.faces[f].dim == self.dim]

    def describe_face(self, fid):
        cone = self.faces[fid]
        return {"id": fid, "dim": cone.dim, "rays": list(cone.ray_indices)}

    # -- derived views ------------------------------------------------------

    def cone_subfan(self, fid):
        if not 0 <= fid < len(self.faces):
            raise ValueError(f"invalid face id {fid}")
        return ConeView(self, fid, self.lower_set(fid))

    def multitangent(self, p):
        from .sheaves import build_multitangent

        if p not in self._multitangent_cache:
            self._multitangent_cache[p] = build_multitangent(self, p)
        return self._multitangent_cache[p]

    def memo(self, key, compute):
        """Weight-independent per-fan memo (Borel-Moore complexes, star
        computations, contractions), shared by the `with_ring` copies of a
        weighted fan."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


@dataclass
class ConeView:
    """The lower set of a face (the face together with all of its subfaces)."""

    fan: Fan
    top: int
    members: list


class WeightedFan:
    """A fan with a ring tag and a non-zero-divisor weight per top face."""

    def __init__(self, fan: Fan, ring: RingTag, weights):
        self.fan = fan
        self.ring = ring
        tops = fan.top_faces()
        if set(weights) != set(tops):
            raise ValueError("weights must cover exactly the top-dimensional faces")
        self.weights = {fid: ring.validate_weight(w) for fid, w in weights.items()}
        self._memo = {}

    def weight(self, fid):
        return self.weights[fid]

    def with_ring(self, ring: RingTag):
        return WeightedFan(self.fan, ring, dict(self.weights))

    def memo(self, key, compute):
        """Per-weighted-fan memo for facts that depend on the weights and the
        ring (balancing, star reports); `with_ring` copies start empty."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


# ---------------------------------------------------------------------------
# Construction


def _face_basis(rays_matrix: IntMatrix) -> IntMatrix:
    """Canonical HNF basis of the saturated lattice of the face's span.

    When every pivot of the rays' HNF is 1, one maximal minor is 1, so that
    lattice is already saturated and its HNF is the answer; this is the case
    on every unimodular face, Bergman fans included.
    """
    h = hnf_basis(rays_matrix)
    # The HNF rows are h's columns; each one's first nonzero is its pivot.
    if all(next(filter(None, row)) == 1 for row in zip(*h.data)):
        return h
    return saturate(h)


def _ray_matrix(rays, s, n) -> IntMatrix:
    """The rays with indices in s, as the columns of an n-row matrix. The
    rays are tuples of ints already (see `build_fan`)."""
    return IntMatrix._adopt(n, len(s), [[rays[i][k] for i in s] for k in range(n)])


def _orient_basis(basis: IntMatrix, ray_matrix: IntMatrix) -> IntMatrix:
    """Flip the last basis column if needed so the basis orientation matches
    the orientation of the face's ray generators in index order."""
    k = basis.cols
    if k == 0:
        return basis
    if ray_matrix.cols == k:
        sub = ray_matrix  # k rays spanning rank k are independent
    else:
        # The pivot columns are the first k independent rays, in index order.
        sub = ray_matrix.submatrix(range(ray_matrix.rows), _pivots_over_q(ray_matrix))
    if _coords_det_sign(basis, sub) < 0:
        return IntMatrix._adopt(basis.rows, k, [row[:-1] + [-row[-1]] for row in basis.data])
    return basis


def _oriented_basis(rays, s, n) -> IntMatrix:
    """The oriented basis of the face on the rays with indices in s."""
    mat = _ray_matrix(rays, s, n)
    return _orient_basis(_face_basis(mat), mat)


def _incidence_sign(fan_rays, tau: Cone, sigma: Cone):
    """Sign of det([u | basis(tau)] in basis(sigma)), u = sum of sigma's rays
    not in tau. Well-defined because u lies strictly on sigma's side."""
    extra = [r for r in sigma.ray_indices if r not in tau.ray_indices]
    n = sigma.lattice_basis.rows
    u = [sum(fan_rays[r][i] for r in extra) for i in range(n)]
    cols = [u] + tau.lattice_basis.columns()
    mat = IntMatrix.from_cols(cols, rows=n)
    sign = _coords_det_sign(sigma.lattice_basis, mat)
    if sign == 0:
        raise ValueError("degenerate incidence pair (invalid fan data)")
    return sign


def _too_many_faces(count):
    return ValueError(f"fan has more than {MAX_FACES} faces ({count} or more)")


def _check_wedge_rank(ambient_rank, dim):
    p = min(dim, ambient_rank // 2)
    if comb(ambient_rank, p) > MAX_WEDGE_RANK:
        raise ValueError(
            f"wedge modules too large: a {dim}-dimensional cone in rank {ambient_rank} needs "
            f"C({ambient_rank}, {p}) = {comb(ambient_rank, p)} coordinates (the limit is {MAX_WEDGE_RANK})"
        )


def build_fan(ambient_rank, rays, maximal_cones, explicit_faces=None) -> Fan:
    """Build and validate a fan from rays and maximal cones.

    Without `explicit_faces` every maximal cone must be simplicial and the
    face set is generated by all ray subsets. A face below the given maximal
    cones then has as many dimensions as rays, and its basis is computed on
    its first read (see `Cone`): only the maximal cones' bases enter the
    modules. Every face below the top dimension then lies in a face one
    dimension up, and the signs (-1)^j give boundary squared = 0, so
    neither is checked. Non-simplicial fans must supply the full face list
    (as ray-index sets); the pairwise-intersection axiom is not re-verified
    geometrically, but incidence consistency (boundary squared = 0) is
    (`_check_boundary_squared`), and so is that every face below the top
    dimension lies in a face one dimension up (`_check_covered`). A fan may
    have at most MAX_FACES faces, and its wedge modules at most
    MAX_WEDGE_RANK coordinates.
    """
    rays = [tuple(int(x) for x in r) for r in rays]
    for r in rays:
        if len(r) != ambient_rank:
            raise ValueError(f"ray {r} does not have ambient rank {ambient_rank}")
        if all(x == 0 for x in r):
            raise ValueError("zero ray")
        if not _is_primitive(r):
            raise ValueError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")

    maximal_sets = []
    for cone in maximal_cones:
        s = tuple(sorted(set(int(i) for i in cone)))
        if any(i < 0 or i >= len(rays) for i in s):
            raise ValueError(f"ray index out of range in cone {cone}")
        maximal_sets.append(s)

    face_sets = set()
    cones = {}
    if explicit_faces is None:
        for s in maximal_sets:
            mat = _ray_matrix(rays, s, ambient_rank)
            basis = _face_basis(mat)
            if basis.cols != len(s):
                raise ValueError(
                    f"maximal cone {s} is not simplicial; supply explicit_faces"
                )
            # All subsets, vertex included; the bounds are checked first.
            if 2 ** len(s) > MAX_FACES:
                raise _too_many_faces(2 ** len(s))
            _check_wedge_rank(ambient_rank, len(s))
            # The basis that ranked the cone is its face's basis.
            cones[s] = Cone(s, _orient_basis(basis, mat), basis.cols)
            for k in range(len(s) + 1):
                for sub in combinations(s, k):
                    face_sets.add(sub)
            if len(face_sets) > MAX_FACES:
                raise _too_many_faces(len(face_sets))
        face_sets.add(())
        for s in face_sets:
            if s not in cones:
                cones[s] = Cone(s, partial(_oriented_basis, rays, s, ambient_rank), len(s))
        # Every face lies in a given maximal cone, so only those can be maximal.
        scan = set(maximal_sets) | {()}
    else:
        face_sets = {tuple(sorted(set(int(i) for i in f))) for f in explicit_faces}
        face_sets.add(())
        if len(face_sets) > MAX_FACES:
            raise _too_many_faces(len(face_sets))
        for s in maximal_sets:
            if s not in face_sets:
                raise ValueError(f"maximal cone {s} missing from explicit face list")
        # Every maximal cone of a fan has the fan's dimension as its rank.
        widest = max(maximal_sets, key=len, default=())
        mat = _ray_matrix(rays, widest, ambient_rank)
        _check_wedge_rank(ambient_rank, rank_over_q(mat))
        for s in face_sets:
            basis = _oriented_basis(rays, s, ambient_rank)
            cones[s] = Cone(s, basis, basis.cols)
        scan = face_sets

    # Deterministic ids: by (dim, ray tuple).
    ordered = sorted(face_sets, key=lambda s: (cones[s].dim, s))
    faces = [cones[s] for s in ordered]
    id_of = {s: i for i, s in enumerate(ordered)}

    # Pure dimensionality of maximal faces. A face lies in a larger one only
    # if that face also has the face's rarest ray, so only those are tested.
    through = {}
    for t in scan:
        for r in t:
            through.setdefault(r, []).append(t)
    maximal = []
    for s in scan:
        larger = through[min(s, key=lambda r: len(through[r]))] if s else scan
        s_rays = set(s)
        if not any(len(t) > len(s) and s_rays <= set(t) for t in larger):
            maximal.append(s)
    dims = {cones[s].dim for s in maximal}
    if len(dims) != 1:
        raise ValueError(f"fan is not pure dimensional: maximal dims {sorted(dims)}")
    d = dims.pop()
    for s in maximal_sets:
        if cones[s].dim != d:
            raise ValueError("maximal cone list contains a non-maximal cone")

    if sum(1 for s in face_sets if cones[s].dim == 0) != 1:
        raise ValueError("fan must have a unique vertex")

    # A simplicial face's facets are its ray tuple with one ray dropped, and
    # the facet without s[j] has sign (-1)^j (see the module docstring).
    # Any other face, which only a face list can give, scans the faces one
    # dimension down for its facets.
    by_dim = {}
    if explicit_faces is not None:
        for t in face_sets:
            by_dim.setdefault(cones[t].dim, []).append((t, set(t)))
    covering = {}
    for s in face_sets:
        sig = cones[s]
        if len(s) == sig.dim:
            for j in range(len(s)):
                t = s[:j] + s[j + 1:]
                if t in cones:
                    covering[(id_of[t], id_of[s])] = -1 if j % 2 else 1
            continue
        s_rays = set(s)
        for t, t_rays in by_dim.get(sig.dim - 1, ()):
            if t_rays <= s_rays:
                covering[(id_of[t], id_of[s])] = _incidence_sign(rays, cones[t], sig)

    if explicit_faces is not None:
        explicit_faces = [sorted({int(i) for i in f}) for f in explicit_faces]
    fan = Fan(ambient_rank, rays, faces, covering, d, explicit_faces)
    # Without a face list both checks hold by construction: a face below a
    # given maximal cone gains a ray of that cone, which is a face, and the
    # signs (-1)^j are the simplicial boundary, whose square is 0.
    if explicit_faces is not None:
        _check_covered(fan)
        _check_boundary_squared(fan)
    return fan


def _check_covered(fan: Fan):
    """Every face below the top dimension lies in a face one dimension up."""
    for fid, cone in enumerate(fan.faces):
        if cone.dim < fan.dim and not fan.covers_of(fid):
            raise ValueError(
                f"face {list(cone.ray_indices)} of dimension {cone.dim} lies in no face of "
                f"dimension {cone.dim + 1}; list every face of the fan"
            )


def _check_boundary_squared(fan: Fan):
    for sid, sigma in enumerate(fan.faces):
        if sigma.dim < 2:
            continue
        taus = fan.facets_of(sid)
        mus = {m for t in taus for m in fan.facets_of(t)}
        for m in mus:
            total = sum(
                fan.covering[(m, t)] * fan.covering[(t, sid)]
                for t in taus
                if (m, t) in fan.covering
            )
            if total != 0:
                raise ValueError(
                    f"incidence signs violate boundary^2 = 0 at chain {m} < ... < {sid}"
                )


def incidence_sign(fan: Fan, tau, sigma):
    return fan.incidence_sign(tau, sigma)


def cone_subfan(fan: Fan, fid) -> ConeView:
    return fan.cone_subfan(fid)
