"""Rational polyhedral fans: faces, posets, incidence signs, stars and cones.

Faces carry an oriented saturated lattice basis. The orientation is the one
induced by the face's ray generators in index order (for rays this is the
outward primitive generator itself), which makes the incidence signs below
reproduce the usual boundary conventions for balanced fans. Incidence between
a facet and a face is the sign of the determinant expressing
[outward-vector | basis(facet)] in basis(face); the square of the resulting
boundary operator vanishes, and construction verifies that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .intmat import IntMatrix, det_int, solve_int
from .exact import RingTag, hnf_basis, rank_over_q, saturate

# The largest face count a fan may have. It admits the Bergman fan of U(5,7)
# (3,151 faces) and bounds the cost of a document before any face is built.
MAX_FACES = 5000


def _coords_det_sign(basis: IntMatrix, mat: IntMatrix) -> int:
    """Sign of det(X) for the square solution X of basis * X = mat.

    The columns of mat lie in the saturated lattice that basis spans, so X
    is integral; basis is a canonical HNF up to the sign of its last column,
    so the solve is forward substitution.
    """
    det = det_int(solve_int(basis, mat))
    return (det > 0) - (det < 0)


def _is_primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g == 1


@dataclass(frozen=True)
class Cone:
    """A face of a fan: its rays and an oriented saturated lattice basis."""

    ray_indices: tuple
    lattice_basis: IntMatrix
    dim: int


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

    def star_view(self, fid):
        if not 0 <= fid < len(self.faces):
            raise ValueError(f"invalid face id {fid}")
        return StarView(self, fid, self.upper_set(fid))

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
        """Weight-independent per-fan memo (homology, kernels, contractions)."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


@dataclass
class StarView:
    """The upper set of a face, with incidence data inherited from the fan.

    Degrees are NOT shifted: a member face keeps its dimension in the ambient
    fan, so chain complexes over the view run from dim(base) up to fan.dim.
    """

    fan: Fan
    base: int
    members: list

    @property
    def base_dim(self):
        return self.fan.faces[self.base].dim

    def members_of_dim(self, k):
        return [f for f in self.members if self.fan.faces[f].dim == k]

    def star_view(self, fid):
        if fid not in self.members:
            raise ValueError(f"face {fid} is not in this star")
        return self.fan.star_view(fid)


@dataclass
class ConeView:
    """The lower set of a face (the face together with all of its subfaces)."""

    fan: Fan
    top: int
    members: list

    def members_of_dim(self, k):
        return [f for f in self.members if self.fan.faces[f].dim == k]


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
    if all(next(x for x in col if x) == 1 for col in h.columns()):
        return h
    return saturate(h)


def _orient_basis(basis: IntMatrix, ray_matrix: IntMatrix) -> IntMatrix:
    """Flip the last basis column if needed so the basis orientation matches
    the orientation of the face's ray generators in index order."""
    k = basis.cols
    if k == 0:
        return basis
    if ray_matrix.cols == k:
        sub = ray_matrix  # k rays spanning rank k are independent
    else:
        # First k independent ray columns, in index order.
        chosen = []
        for j in range(ray_matrix.cols):
            cand = chosen + [j]
            if rank_over_q(ray_matrix.submatrix(range(ray_matrix.rows), cand)) == len(cand):
                chosen = cand
            if len(chosen) == k:
                break
        sub = ray_matrix.submatrix(range(ray_matrix.rows), chosen)
    if _coords_det_sign(basis, sub) < 0:
        flipped = basis.copy()
        for i in range(basis.rows):
            flipped.data[i][k - 1] = -flipped.data[i][k - 1]
        return flipped
    return basis


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


def build_fan(ambient_rank, rays, maximal_cones, explicit_faces=None) -> Fan:
    """Build and validate a fan from rays and maximal cones.

    Without `explicit_faces` every maximal cone must be simplicial and the
    face set is generated by all ray subsets. Non-simplicial fans must supply
    the full face list (as ray-index sets); the pairwise-intersection axiom is
    not re-verified geometrically, but incidence consistency (boundary squared
    = 0) always is, and so is that every face below the top dimension lies in
    a face one dimension up. A fan may have at most MAX_FACES faces.
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
    if explicit_faces is None:
        for s in maximal_sets:
            mat = IntMatrix.from_cols([list(rays[i]) for i in s], rows=ambient_rank)
            if rank_over_q(mat) != len(s):
                raise ValueError(
                    f"maximal cone {s} is not simplicial; supply explicit_faces"
                )
            # All subsets, vertex included; the bound is checked first.
            if 2 ** len(s) > MAX_FACES:
                raise _too_many_faces(2 ** len(s))
            for k in range(len(s) + 1):
                for sub in combinations(s, k):
                    face_sets.add(sub)
            if len(face_sets) > MAX_FACES:
                raise _too_many_faces(len(face_sets))
    else:
        face_sets = {tuple(sorted(set(int(i) for i in f))) for f in explicit_faces}
        face_sets.add(())
        if len(face_sets) > MAX_FACES:
            raise _too_many_faces(len(face_sets))
        for s in maximal_sets:
            if s not in face_sets:
                raise ValueError(f"maximal cone {s} missing from explicit face list")
    face_sets.add(())

    cones = {}
    for s in face_sets:
        mat = IntMatrix.from_cols([list(rays[i]) for i in s], rows=ambient_rank)
        basis = _face_basis(mat)
        basis = _orient_basis(basis, mat)
        cones[s] = Cone(s, basis, basis.cols)

    # Deterministic ids: by (dim, ray tuple).
    ordered = sorted(face_sets, key=lambda s: (cones[s].dim, s))
    faces = [cones[s] for s in ordered]
    id_of = {s: i for i, s in enumerate(ordered)}

    # Pure dimensionality of maximal faces. A face lies in a larger one only
    # if that face also has the face's rarest ray, so only those are tested.
    through = {}
    for t in face_sets:
        for r in t:
            through.setdefault(r, []).append(t)
    maximal = []
    for s in face_sets:
        larger = through[min(s, key=lambda r: len(through[r]))] if s else face_sets
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

    # A facet is one dimension down, so each face scans only that dimension.
    by_dim = {}
    for t in face_sets:
        by_dim.setdefault(cones[t].dim, []).append((t, set(t)))
    covering = {}
    for s in face_sets:
        sig = cones[s]
        s_rays = set(s)
        for t, t_rays in by_dim.get(sig.dim - 1, ()):
            if t_rays <= s_rays:
                covering[(id_of[t], id_of[s])] = _incidence_sign(rays, cones[t], sig)
    covered = {t for t, _ in covering}
    for fid, cone in enumerate(faces):
        if cone.dim < d and fid not in covered:
            raise ValueError(
                f"face {list(cone.ray_indices)} of dimension {cone.dim} lies in no face of "
                f"dimension {cone.dim + 1}; list every face of the fan"
            )

    if explicit_faces is not None:
        explicit_faces = [sorted({int(i) for i in f}) for f in explicit_faces]
    fan = Fan(ambient_rank, rays, faces, covering, d, explicit_faces)
    _check_boundary_squared(fan)
    return fan


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


def star_view(fan_or_view, fid) -> StarView:
    return fan_or_view.star_view(fid)


def cone_subfan(fan: Fan, fid) -> ConeView:
    return fan.cone_subfan(fid)
