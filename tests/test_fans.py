"""Fan construction, incidence signs, stars, cones, and their invariants."""

from itertools import combinations

import pytest

from tropfan.complexes import star_bm_complex
from tropfan.exact import rank_over_q, saturate
from tropfan.fans import build_fan
from tropfan.intmat import IntMatrix
from tropfan.matroids import Matroid, bergman_fan

from helpers import Z, cross_fan, curve_fan, oracle_solve_int


def test_cross_structure():
    fan = cross_fan()
    assert fan.face_count() == 5
    assert fan.dim == 1
    assert len(fan.faces_of_dim(0)) == 1
    assert len(fan.faces_of_dim(1)) == 4
    v = fan.vertex_id
    for tau in fan.faces_of_dim(1):
        assert (v, tau) in fan.covering


def test_single_ray():
    fan = build_fan(1, [(1,)], [[0]])
    assert fan.face_count() == 2


def test_u34_face_count():
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    assert len(fan.rays) == 10
    assert len(fan.faces_of_dim(2)) == 12
    assert fan.face_count() == 23  # vertex + 10 rays + 12 two-faces


def test_incidence_vertex_to_rays_is_plus_one():
    fan = cross_fan()
    v = fan.vertex_id
    assert [fan.incidence_sign(v, t) for t in fan.faces_of_dim(1)] == [1, 1, 1, 1]


def test_incidence_two_cone_cancellation():
    # For any 2-cone with facets t1, t2: O(v,t1)O(t1,s) + O(v,t2)O(t2,s) = 0.
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    v = fan.vertex_id
    for sigma in fan.faces_of_dim(2):
        t1, t2 = fan.facets_of(sigma)
        total = fan.incidence_sign(v, t1) * fan.incidence_sign(t1, sigma)
        total += fan.incidence_sign(v, t2) * fan.incidence_sign(t2, sigma)
        assert total == 0


def test_incidence_full_composition_identity():
    # Exhaustive boundary-squared check over the full sign table.
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    for sigma in range(fan.face_count()):
        if fan.faces[sigma].dim < 2:
            continue
        taus = fan.facets_of(sigma)
        mus = {m for t in taus for m in fan.facets_of(t)}
        for mu in mus:
            s = sum(
                fan.incidence_sign(mu, t) * fan.incidence_sign(t, sigma)
                for t in taus
                if (mu, t) in fan.covering
            )
            assert s == 0


def test_face_bases_saturated_and_contain_rays():
    for fan in (cross_fan(), curve_fan(), bergman_fan(Matroid.uniform(3, 4)).fan):
        for cone in fan.faces:
            if cone.dim == 0:
                continue
            assert saturate(cone.lattice_basis) in (
                cone.lattice_basis,
                _flip_last(cone.lattice_basis),
            )
            for r in cone.ray_indices:
                ray = IntMatrix.from_cols([list(fan.rays[r])], rows=fan.ambient_rank)
                assert cone.lattice_basis * oracle_solve_int(cone.lattice_basis, ray) == ray


def _flip_last(basis):
    out = basis.copy()
    j = basis.cols - 1
    for i in range(basis.rows):
        out.data[i][j] = -out.data[i][j]
    return out


def test_upper_set_of_vertex_is_whole_fan():
    fan = cross_fan()
    assert fan.upper_set(fan.vertex_id) == list(range(fan.face_count()))


def test_upper_set_of_maximal_face_is_itself():
    fan = cross_fan()
    top = fan.faces_of_dim(1)[0]
    assert fan.upper_set(top) == [top]


def test_upper_set_u34_singleton_ray():
    wf = bergman_fan(Matroid.uniform(3, 4))
    fan = wf.fan
    # The ray of the singleton flat {0} sits in three two-cones.
    ray = fan.face_by_rays([0])
    members = fan.upper_set(ray)
    assert len(members) == 4
    assert len([f for f in members if fan.faces[f].dim == 2]) == 3


def test_star_recursion_coherence():
    # The star of a face inside the star of gamma is the face's own star.
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    for gamma in range(fan.face_count()):
        outer = fan.upper_set(gamma)
        for kappa in outer:
            assert [f for f in outer if f in fan.upper_set(kappa)] == fan.upper_set(kappa)


def test_cone_subfan_examples():
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    v = fan.vertex_id
    assert fan.cone_subfan(v).members == [v]
    ray = fan.faces_of_dim(1)[0]
    assert fan.cone_subfan(ray).members == sorted([v, ray])
    two = fan.faces_of_dim(2)[0]
    assert len(fan.cone_subfan(two).members) == 4


def test_invalid_face_id():
    fan = cross_fan()
    with pytest.raises(ValueError):
        star_bm_complex(fan, 99, 0, Z)
    with pytest.raises(ValueError):
        fan.incidence_sign(1, 2)


def test_build_fan_rejects_bad_rays():
    with pytest.raises(ValueError, match="primitive"):
        build_fan(2, [(2, 0)], [[0]])
    with pytest.raises(ValueError, match="zero ray"):
        build_fan(2, [(0, 0)], [[0]])
    with pytest.raises(ValueError, match="duplicate"):
        build_fan(2, [(1, 0), (1, 0)], [[0], [1]])


def test_build_fan_rejects_non_simplicial_without_faces():
    # Cone over a square: four dependent rays in one maximal cone.
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    with pytest.raises(ValueError, match="simplicial"):
        build_fan(3, rays, [[0, 1, 2, 3]])


def test_build_fan_rejects_mixed_maximal_dims():
    with pytest.raises(ValueError, match="pure"):
        build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [2]])


def test_explicit_faces_non_simplicial():
    # Cone over a square, faces listed explicitly; incidence must close.
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    faces = [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [0, 3], [0, 1, 2, 3]]
    fan = build_fan(3, rays, [[0, 1, 2, 3]], explicit_faces=faces)
    assert fan.face_count() == 10
    assert fan.dim == 3
    top = fan.face_by_rays([0, 1, 2, 3])
    assert len(fan.facets_of(top)) == 4


@pytest.mark.parametrize(
    "apex, top_basis",
    [
        ((0, 0, 1, 1), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        ((0, 0, -1, 1), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ],
)
def test_orientation_of_a_face_whose_first_rays_are_dependent(apex, top_basis):
    # The cone over a square pyramid: the four base rays come first and span
    # rank three only, so the orientation is read off rays 0, 1, 2 and the
    # apex. The bases are pinned to those of the ray-by-ray rank search.
    rays = [(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), apex]
    base = [0, 1, 2, 3]
    edges = [[0, 1], [1, 2], [2, 3], [0, 3], [0, 4], [1, 4], [2, 4], [3, 4]]
    sides = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]]
    faces = [[]] + [[i] for i in range(5)] + edges + [base] + sides + [[0, 1, 2, 3, 4]]
    fan = build_fan(4, rays, [[0, 1, 2, 3, 4]], explicit_faces=faces)
    top = fan.faces[fan.face_by_rays([0, 1, 2, 3, 4])]
    assert rank_over_q(IntMatrix.from_cols([list(rays[i]) for i in base], rows=4)) == 3
    assert top.lattice_basis.data == top_basis
    square = fan.faces[fan.face_by_rays(base)]
    assert square.lattice_basis.data == [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]]


def test_bergman_fans_are_balanced_with_unit_weight():
    from tropfan.duality import is_balanced

    for m in (Matroid(3, [[0, 1, 2]]), Matroid.uniform(3, 4), Matroid.uniform(2, 3)):
        wf = bergman_fan(m)
        assert all(w == 1 for w in wf.weights.values())
        assert is_balanced(wf)


def test_face_bound_is_checked_before_the_subsets_are_enumerated(monkeypatch):
    import tropfan.fans as fans

    monkeypatch.setattr(fans, "MAX_FACES", 8)
    unit = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    assert build_fan(6, unit, [[0, 1, 2]]).face_count() == 8
    with pytest.raises(ValueError, match="more than 8 faces \\(16 or more\\)"):
        build_fan(6, unit, [[0, 1, 2, 3]])
    # Two cones of eight faces each share only the vertex: 15 faces.
    with pytest.raises(ValueError, match="more than 8 faces"):
        build_fan(6, unit, [[0, 1, 2], [3, 4, 5]])
    faces = [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [0, 3], [0, 1, 2, 3]]
    with pytest.raises(ValueError, match="more than 8 faces \\(10 or more\\)"):
        build_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [[0, 1, 2, 3]], explicit_faces=faces)


def test_non_simplicial_cone_is_rejected_before_the_face_bound():
    # 13 rays in rank 3 would have 2^13 = 8192 subsets, over MAX_FACES, but
    # the cone is rejected for being non-simplicial first.
    rays = [(1, i, 1) for i in range(13)]
    with pytest.raises(ValueError, match=r"maximal cone \(0, 1, .*, 12\) is not simplicial"):
        build_fan(3, rays, [range(13)])


def test_wedge_rank_bound_is_checked_before_the_faces_are_built():
    wide = [tuple(int(i == j) for j in range(60)) for i in range(6)]
    with pytest.raises(ValueError, match=r"6-dimensional cone in rank 60 needs C\(60, 6\) = 50063860"):
        build_fan(60, wide, [range(6)])
    faces = [list(c) for k in range(7) for c in combinations(range(6), k)]
    with pytest.raises(ValueError, match=r"the limit is 1000"):
        build_fan(60, wide, [range(6)], explicit_faces=faces)
    # A 6-dimensional cone in rank 12 needs C(12, 6) = 924 coordinates, the
    # widest degree of the simplicial cone on 12 unit rays, and is admitted.
    unit = [tuple(int(i == j) for j in range(12)) for i in range(6)]
    assert build_fan(12, unit, [range(6)]).face_count() == 64


def test_explicit_faces_must_include_every_intermediate_face():
    # The cone over a square without its edges: the rays lie in no 2-face.
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    faces = [[], [0], [1], [2], [3], [0, 1, 2, 3]]
    with pytest.raises(ValueError, match=r"face \[0\] of dimension 1 lies in no face of dimension 2"):
        build_fan(3, rays, [[0, 1, 2, 3]], explicit_faces=faces)
