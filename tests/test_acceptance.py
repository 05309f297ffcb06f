"""Acceptance suite: one test per criterion, each printing a pass line.

All arithmetic is exact, so every comparison below is equality. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
from itertools import product

from tropfan import fixtures
from tropfan.complexes import (
    bm_chain_complex,
    compact_cochain_complex,
    constant_compact_cochain,
    euler_characteristic,
    plain_cochain_complex,
    star_bm_complex,
    star_row_complex,
)
from tropfan.duality import (
    _star_tpd_report,
    cap_q0,
    classify_dim1,
    is_balanced,
    is_local_tpd,
    is_tpd,
    is_uniquely_balanced,
    local_tpd_characterization,
    tpd_from_stars_check,
)
from tropfan.exact import GroupPresentation, kernel_lattice
from tropfan.intmat import IntMatrix, solve_int

from helpers import (
    F2,
    F3,
    Q,
    Z,
    cross_fan,
    oracle_rank_field,
    random_balanced_curve,
    random_surface,
    weighted,
)

ALL_FIXTURES = ["cross", "curve_r3", "surface_r4", "surface_r3", "u34_bergman"]


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_cross_fan():
    fan = cross_fan()
    t0 = bm_chain_complex(fan, 0, Z).homology()
    assert t0.group(1) == GroupPresentation(3)
    assert t0.group(0).is_trivial

    t1 = bm_chain_complex(fan, 1, Z).homology()
    assert t1.group(1) == GroupPresentation(2)
    # Cycle space in ray-generator coordinates is {(a, b, a, b)}.
    f1 = fan.multitangent(1)
    eps = []
    for tau in fan.faces_of_dim(1):
        (ray_idx,) = fan.faces[tau].ray_indices
        eps.append(1 if f1.basis[tau].column(0) == list(fan.rays[ray_idx]) else -1)
    rescaled = [
        [e * x for e, x in zip(eps, rep)] for rep in t1.entries[1].representatives
    ]
    for v in rescaled:
        assert v[0] == v[2] and v[1] == v[3]
    lattice = IntMatrix.from_cols(rescaled, rows=4)
    expected = IntMatrix.from_cols([[1, 0, 1, 0], [0, 1, 0, 1]])
    solve_int(lattice, expected)
    solve_int(expected, lattice)

    # Balanced exactly when opposite weights agree.
    for w in product([1, 2, 3], repeat=4):
        assert is_balanced(weighted(fan, list(w))) == (w[0] == w[2] and w[1] == w[3])

    for ring in (Z, Q, F2):
        assert not is_tpd(weighted(fan, [1, 1, 1, 1], ring)).verdict
    _report(1, "cross fan homology, cycle space, balancing law, TPD failure")


def test_criterion_2_duality_surface_in_rank_four():
    wf = fixtures.load("surface_r4")
    fan = wf.fan
    cohom_dims = [fan.multitangent(p).rank(fan.vertex_id) for p in range(3)]
    assert cohom_dims == [1, 4, 5]
    bm_dims = []
    for p in (2, 1, 0):
        table = bm_chain_complex(fan, p, Q).homology()
        assert table.is_trivial_except([2])
        bm_dims.append(table.group(2).free_rank)
    assert bm_dims == [1, 4, 5]
    assert is_tpd(wf).verdict
    _report(2, "rank-4 surface: dims (1,4,5) on both sides, all else zero, TPD holds")


def test_criterion_3_curve_cap_vectors():
    wf = fixtures.load("curve_r3")
    assert is_balanced(wf)
    assert is_uniquely_balanced(wf)
    fan = wf.fan
    cap = cap_q0(wf, 1)
    stored = fan.multitangent(1).basis[fan.vertex_id]
    nu = IntMatrix.from_cols([[1, 0, 2], [-1, 0, 0], [0, -1, 0]])
    a = solve_int(stored, nu)
    images = IntMatrix.from_cols(cap.ambient_columns, rows=4) * solve_int(
        a, IntMatrix.identity(3)
    ).transpose()
    assert images.columns() == [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
    assert is_tpd(wf).verdict
    _report(3, "rank-3 curve: uniquely Z-balanced, exact cap vectors, TPD over Z")


def test_criterion_4_obstructed_surface_in_rank_three():
    wf = fixtures.load("surface_r3")
    fan = wf.fan
    assert len(fan.rays) == 8
    assert len(fan.faces_of_dim(2)) == 12
    assert euler_characteristic(bm_chain_complex(fan, 2, Q)) == -1
    table = bm_chain_complex(fan, 2, Q).homology()
    assert not table.group(1).is_trivial
    assert not is_tpd(wf).verdict
    for gamma in range(fan.face_count()):
        if gamma == fan.vertex_id:
            continue
        assert _star_tpd_report(wf, gamma).verdict
    _report(4, "rank-3 surface: chi=-1, H_1(F_2)!=0, TPD fails, proper stars pass")


def test_criterion_5_u34_bergman_fan():
    wf = fixtures.load("u34_bergman")
    fan = wf.fan
    assert len(fan.rays) == 10
    assert len(fan.faces_of_dim(2)) == 12
    assert all(w == 1 for w in wf.weights.values())
    assert is_uniquely_balanced(wf)
    assert is_local_tpd(wf).verdict
    for p in range(3):
        table = star_row_complex(wf, p, Z).homology()
        assert table.nonzero_degrees() == [2]
    _report(5, "U(3,4) Bergman fan: counts, unique balancing, local TPD, row exactness")


def test_criterion_6_dimension_one_classification():
    rng = random.Random(20260810)
    checked = 0
    for _ in range(100):
        fan, weights = random_balanced_curve(rng)
        for ring in (Z, Q, F3):
            if ring.kind == "Fp" and any(w % ring.p == 0 for w in weights):
                continue  # the weight list is not a weight function over F3
            wf = weighted(fan, weights, ring)
            assert classify_dim1(wf) == is_tpd(wf).verdict
            checked += 1
    assert checked >= 200
    _report(6, f"dimension-one classification: {checked} comparisons, 0 disagreements")


def test_criterion_7_theorem_cross_checks():
    # The certificate functions raise TheoremViolation on any violation of
    # the stars-imply-global implication, the dimension-two biconditional,
    # the local characterization, or its unit-weight form over Z.
    for name in ("surface_r4", "surface_r3", "u34_bergman"):
        wf = fixtures.load(name)
        tpd_from_stars_check(wf)
        local_tpd_characterization(wf)
        if wf.ring.kind != "Z":
            continue
        for ring in (Q, F2, F3):
            tpd_from_stars_check(wf.with_ring(ring))
            local_tpd_characterization(wf.with_ring(ring))
    rng = random.Random(20260811)
    count = 0
    for _ in range(50):
        wf = random_surface(rng)
        tpd_from_stars_check(wf)
        local_tpd_characterization(wf)
        count += 1
        ring = rng.choice([Q, F2, F3])
        if ring.kind == "Fp" and any(w % ring.p == 0 for w in wf.weights.values()):
            continue
        wf_f = wf.with_ring(ring)
        tpd_from_stars_check(wf_f)
        local_tpd_characterization(wf_f)
    assert count == 50
    _report(7, "theorem cross-checks: fixtures + 50 randomized surfaces, 0 violations")


def test_criterion_8_structural_suites():
    for name in ALL_FIXTURES:
        base = fixtures.load(name)
        fan = base.fan
        d = fan.dim
        for p in range(d + 1):
            # Boundary and coboundary squared vanish on assembly (the
            # constructor checks; verify once more explicitly).
            bm = bm_chain_complex(fan, p, Z)
            cc = compact_cochain_complex(fan, p, Z)
            for q in bm.degrees:
                prod = bm.boundary_out(q) * bm.boundary_in(q)
                assert prod.is_zero()
                prod = cc.boundary_out(q) * cc.boundary_in(q)
                assert prod.is_zero()
            # Cohomology without compact supports is the vertex module.
            plain = plain_cochain_complex(fan, p, Z).homology()
            assert plain.group(0) == GroupPresentation(fan.multitangent(p).rank(fan.vertex_id))
            for q in range(1, d + 1):
                assert plain.group(q).is_trivial
            # Universal coefficients between Q compact cohomology and
            # integral Borel-Moore homology.
            bm_z = bm.homology()
            cc_q = compact_cochain_complex(fan, p, Q).homology()
            cc_z = cc.homology()
            for q in range(d + 1):
                assert cc_q.group(q).free_rank == bm_z.group(q).free_rank
                torsion = bm_z.group(q - 1).invariant_factors if q >= 1 else ()
                assert cc_z.group(q).invariant_factors == torsion
        # Compact-support acyclicity of cone subfans, constant ranks 1..3.
        for fid in range(fan.face_count()):
            if fid == fan.vertex_id:
                continue
            view = fan.cone_subfan(fid)
            for rank in (1, 2, 3):
                assert constant_compact_cochain(view, rank, Z).homology().nonzero_degrees() == []
        # Cap injectivity for every ring where the weights stay nonzero.
        for ring in (Z, Q, F2, F3):
            try:
                wf = base.with_ring(ring)
            except ValueError:
                continue
            for p in range(d + 1):
                cols = cap_q0(wf, p).kernel_columns
                if not cols:
                    continue
                if ring.kind == "Fp":
                    mat = IntMatrix.from_cols(cols, rows=len(cols[0]))
                    assert oracle_rank_field(mat, ring) == len(cols)
                else:
                    from fractions import Fraction

                    denom = 1
                    for col in cols:
                        for x in col:
                            denom *= Fraction(x).denominator
                    mat = IntMatrix.from_cols(
                        [[int(Fraction(x) * denom) for x in col] for col in cols],
                        rows=len(cols[0]),
                    )
                    assert kernel_lattice(mat).cols == 0
    _report(8, "structural suites: d^2=0, vertex-only cohomology, cone acyclicity, torsion bookkeeping, cap injectivity")
