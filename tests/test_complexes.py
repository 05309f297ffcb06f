"""Chain/cochain complexes, homology tables, Euler sums, the star row."""

import pytest

from tropfan import fixtures
from tropfan.complexes import (
    Block,
    ChainComplex,
    bm_chain_complex,
    compact_cochain_complex,
    constant_compact_cochain,
    euler_characteristic,
    plain_cochain_complex,
    star_bm_complex,
    star_row_complex,
)
from tropfan.exact import GroupPresentation
from tropfan.fans import build_fan
from tropfan.intmat import IntMatrix
from tropfan.matroids import Matroid, bergman_fan

from helpers import F2, F3, Q, Z, convention_fans, cross_fan, curve_fan, oracle_star_complex, weighted

ALL_FIXTURES = ["cross", "curve_r3", "surface_r4", "surface_r3", "u34_bergman"]


def test_cross_constant_boundary():
    c = bm_chain_complex(cross_fan(), 0, Z)
    assert c.diffs[1] == IntMatrix.from_rows([[1, 1, 1, 1]])


def test_curve_boundary_columns_are_ray_vectors():
    # The degree-one boundary sends each ray generator to the ray vector,
    # written in the stored vertex basis.
    fan = curve_fan()
    c = bm_chain_complex(fan, 1, Z)
    basis_v = fan.multitangent(1).basis[fan.vertex_id]
    for j, tau in enumerate(fan.faces_of_dim(1)):
        (ray_idx,) = fan.faces[tau].ray_indices
        col = [c.diffs[1].data[i][j] for i in range(basis_v.cols)]
        assert basis_v.mul_vector(col) == list(fan.rays[ray_idx])


def test_single_ray_boundary():
    fan = build_fan(1, [(1,)], [[0]])
    c = bm_chain_complex(fan, 0, Z)
    assert c.diffs[1] == IntMatrix.from_rows([[1]])


def test_compact_cochain_is_transpose_dual():
    for name in ALL_FIXTURES:
        fan = fixtures.load(name).fan
        for p in range(fan.dim + 1):
            bm = bm_chain_complex(fan, p, Z)
            cc = compact_cochain_complex(fan, p, Z)
            for q in bm.degrees:
                if q + 1 in bm.diffs:
                    assert cc.diffs[q] == bm.diffs[q + 1].transpose()


def test_cross_compact_cochain_block_ranks():
    cc = compact_cochain_complex(cross_fan(), 1, Z)
    assert cc.rank(0) == 2
    assert cc.rank(1) == 4  # one rank-one dual module per ray


def test_plain_cochain_concentrated_at_vertex():
    for name in ALL_FIXTURES:
        fan = fixtures.load(name).fan
        for p in range(fan.dim + 1):
            table = plain_cochain_complex(fan, p, Z).homology()
            v_rank = fan.multitangent(p).rank(fan.vertex_id)
            assert table.group(0) == GroupPresentation(v_rank)
            for q in range(1, fan.dim + 1):
                assert table.group(q).is_trivial


def test_plain_chain_concentrated_at_vertex():
    from tropfan.complexes import plain_chain_complex

    fan = fixtures.load("u34_bergman").fan
    for p in range(fan.dim + 1):
        table = plain_chain_complex(fan, p, Z).homology()
        assert table.group(0) == GroupPresentation(fan.multitangent(p).rank(fan.vertex_id))
        assert table.nonzero_degrees() == [0]


def test_cone_subfans_constant_sheaf_acyclic():
    for name in ALL_FIXTURES:
        fan = fixtures.load(name).fan
        for fid in range(fan.face_count()):
            if fid == fan.vertex_id:
                continue
            view = fan.cone_subfan(fid)
            for rank in (1, 2, 3):
                table = constant_compact_cochain(view, rank, Z).homology()
                assert table.nonzero_degrees() == []


def test_star_complex_of_maximal_face():
    fan = cross_fan()
    top = fan.faces_of_dim(1)[0]
    c = star_bm_complex(fan, top, 1, Z)
    assert c.degrees == [1]
    table = c.homology()
    assert table.group(1) == GroupPresentation(1)


def test_star_complex_of_vertex_equals_global():
    fan = curve_fan()
    for p in (0, 1):
        a = bm_chain_complex(fan, p, Z)
        b = star_bm_complex(fan, fan.vertex_id, p, Z)
        assert a.degrees == b.degrees
        assert a.diffs.keys() == b.diffs.keys()
        for q in a.diffs:
            assert a.diffs[q] == b.diffs[q]


def test_star_complexes_are_restrictions_of_the_directly_assembled_ones():
    # Degrees, blocks and every differential, nonzero for nonzero and in
    # the same order, against the assembly over the star's own faces.
    for name, fan in convention_fans():
        for p in range(fan.dim + 1):
            for gamma in range(fan.face_count()):
                got = star_bm_complex(fan, gamma, p, Z)
                expected = oracle_star_complex(fan, gamma, p)
                assert got.degrees == expected.degrees, (name, p, gamma)
                assert got.blocks == expected.blocks, (name, p, gamma)
                assert got.diffs.keys() == expected.diffs.keys(), (name, p, gamma)
                for q, mat in got.diffs.items():
                    other = expected.diffs[q]
                    assert (mat.rows, mat.cols) == (other.rows, other.cols), (name, p, gamma, q)
                    assert [list(e.items()) for e in mat.entries] == [list(e.items()) for e in other.entries]


def test_star_u34_singleton_ray_top_rank_one():
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    ray = fan.face_by_rays([0])
    table = star_bm_complex(fan, ray, 2, Z).homology()
    assert table.group(2) == GroupPresentation(1)
    assert table.group(1).is_trivial


def test_cross_homology_tables():
    fan = cross_fan()
    t0 = bm_chain_complex(fan, 0, Z).homology()
    assert t0.group(1) == GroupPresentation(3)
    assert t0.group(0).is_trivial
    t1 = bm_chain_complex(fan, 1, Z).homology()
    assert t1.group(1) == GroupPresentation(2)
    assert t1.group(0).is_trivial
    # Cycle space: after rescaling into ray-generator coordinates, the cycles
    # are exactly the (a, b, a, b) vectors.
    reps = t1.entries[1].representatives
    eps = []
    f1 = fan.multitangent(1)
    for tau in fan.faces_of_dim(1):
        (ray_idx,) = fan.faces[tau].ray_indices
        stored = f1.basis[tau].column(0)
        ray = list(fan.rays[ray_idx])
        eps.append(1 if stored == ray else -1)
        assert stored == ray or stored == [-x for x in ray]
    rescaled = [[e * x for e, x in zip(eps, r)] for r in reps]
    span = {tuple(v) for v in rescaled}
    for v in rescaled:
        assert v[0] == v[2] and v[1] == v[3]
    assert len(span) == 2


def test_surface_r4_dimension_table():
    wf = fixtures.load("surface_r4")
    fan = wf.fan
    dims = []
    for p in range(3):
        table = bm_chain_complex(fan, p, Q).homology()
        assert table.is_trivial_except([2])
        dims.append(table.group(2).free_rank)
    assert dims == [5, 4, 1]
    assert [fan.multitangent(p).rank(fan.vertex_id) for p in range(3)] == [1, 4, 5]


def test_euler_characteristic_values():
    assert euler_characteristic(bm_chain_complex(cross_fan(), 0, Q)) == 3
    s3 = fixtures.load("surface_r3").fan
    assert euler_characteristic(bm_chain_complex(s3, 2, Q)) == -1
    s4 = fixtures.load("surface_r4").fan
    assert euler_characteristic(bm_chain_complex(s4, 2, Q)) == 1


def test_euler_characteristic_matches_homology_alternation():
    for name in ALL_FIXTURES:
        fan = fixtures.load(name).fan
        d = fan.dim
        for p in range(d + 1):
            c = bm_chain_complex(fan, p, Q)
            table = c.homology()
            alt = sum(
                (-1) ** (d - q) * table.group(q).free_rank for q in table.entries
            )
            assert euler_characteristic(c) == alt


def test_euler_characteristic_needs_field():
    with pytest.raises(ValueError, match="field"):
        euler_characteristic(bm_chain_complex(cross_fan(), 0, Z))


def test_degree_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        bm_chain_complex(cross_fan(), 2, Z)


def test_field_homology_matches_integral_free_rank():
    for name in ALL_FIXTURES:
        fan = fixtures.load(name).fan
        for p in range(fan.dim + 1):
            tz = bm_chain_complex(fan, p, Z).homology()
            tq = bm_chain_complex(fan, p, Q).homology()
            for q in tz.entries:
                assert tq.group(q).free_rank == tz.group(q).free_rank


def test_universal_coefficients_on_fixtures():
    # Q-dimensions of compact-support cohomology match integral Borel-Moore
    # free ranks; integral torsion shifts down by one degree.
    for name in ALL_FIXTURES:
        fan = fixtures.load(name).fan
        for p in range(fan.dim + 1):
            bm_z = bm_chain_complex(fan, p, Z).homology()
            cc_q = compact_cochain_complex(fan, p, Q).homology()
            cc_z = compact_cochain_complex(fan, p, Z).homology()
            for q in range(fan.dim + 1):
                assert cc_q.group(q).free_rank == bm_z.group(q).free_rank
                assert cc_z.group(q).free_rank == bm_z.group(q).free_rank
                expected_torsion = (
                    bm_z.group(q - 1).invariant_factors if q >= 1 else ()
                )
                assert cc_z.group(q).invariant_factors == expected_torsion


def test_star_vs_hand_subdivided_cross():
    # The star of a cross ray is a full line; compare with an honest fan.
    fan = cross_fan()
    tau = fan.face_by_rays([0])
    line = build_fan(2, [(1, 0), (-1, 0)], [[0], [1]])
    for p in (0, 1):
        star_t = star_bm_complex(fan, tau, p, Z).homology()
        line_t = bm_chain_complex(line, p, Z).homology()
        assert star_t.group(1) == line_t.group(1)
        # Degree 0 of the star complex does not exist (base dim is 1).
        assert line_t.group(0).is_trivial


def test_star_vs_hand_subdivided_u34_ray():
    # The star of the singleton-flat ray {0} is a plane bundle over the
    # tropical line: subdividing gives the fan with rays +-p0 and p0j.
    wf = bergman_fan(Matroid.uniform(3, 4))
    fan = wf.fan
    ray = fan.face_by_rays([0])
    rays = [(1, 0, 0), (-1, 0, 0), (1, 1, 0), (1, 0, 1), (0, -1, -1)]
    cones = [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]]
    subdivided = build_fan(3, rays, cones)
    for p in range(3):
        star_t = star_bm_complex(fan, ray, p, Z).homology()
        sub_t = bm_chain_complex(subdivided, p, Z).homology()
        assert star_t.group(2) == sub_t.group(2)
        # Below the top degree both are trivial here.
        assert star_t.group(1).is_trivial == sub_t.group(1).is_trivial


def test_star_row_exactness_u34():
    wf = fixtures.load("u34_bergman")
    for p in range(3):
        table = star_row_complex(wf, p, Z).homology()
        assert table.nonzero_degrees() == [2]


def test_star_row_exactness_complete_plane_fan():
    wf = bergman_fan(Matroid(3, [[0, 1, 2]]))
    table = star_row_complex(wf, 1, Z).homology()
    assert table.nonzero_degrees() == [2]


def test_star_row_builds_when_hypothesis_fails():
    # The obstruction surface violates the star-vanishing hypothesis at the
    # vertex; the row complex still closes under its differential.
    wf = fixtures.load("surface_r3")
    c = star_row_complex(wf, 0, Q)
    assert c.degrees == [0, 1, 2]


def test_star_row_needs_dim_two():
    with pytest.raises(ValueError, match=">= 2"):
        star_row_complex(weighted(cross_fan(), [1, 1, 1, 1]), 0, Z)


def test_star_row_over_prime_field():
    wf = fixtures.load("u34_bergman")
    table = star_row_complex(wf, 1, F2).homology()
    assert table.nonzero_degrees() == [2]


def _three_term_complex(ring):
    """Z -3-> Z -1-> Z: the differentials compose to 3."""
    blocks = {q: [Block(q, 1, 0)] for q in (0, 1, 2)}
    diffs = {1: IntMatrix(1, 1, [[1]]), 2: IntMatrix(1, 1, [[3]])}
    return ChainComplex("homological", ring, [0, 1, 2], blocks, diffs)


def test_homology_rejects_a_non_complex():
    with pytest.raises(ValueError, match="not a complex"):
        _three_term_complex(Z).homology()


def test_composition_checked_modulo_p():
    table = _three_term_complex(F3).homology()
    assert [str(table.group(q)) for q in (0, 1, 2)] == ["0", "0", str(GroupPresentation(1))]
