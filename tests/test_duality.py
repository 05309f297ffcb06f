"""Contraction, balancing, cap products, and the duality certificates."""

import random
from dataclasses import replace
from itertools import combinations

import pytest

import tropfan.duality as duality
from tropfan import fixtures
from tropfan.duality import (
    FAILS,
    HOLDS,
    HYPOTHESIS_VIOLATED,
    TheoremViolation,
    balancing_failure,
    cap_chain_general,
    cap_q0,
    cap_star,
    classify_dim1,
    contract,
    euler_criterion,
    fundamental_chain,
    is_balanced,
    is_local_tpd,
    is_tpd,
    is_uniquely_balanced,
    local_tpd_characterization,
    stars_balanced_check,
    tpd_from_stars_check,
)
from tropfan.exact import RingTag, kernel_lattice
from tropfan.fans import WeightedFan, build_fan
from tropfan.intmat import IntMatrix, det_int, solve_int
from tropfan.matroids import Matroid, bergman_fan
from tropfan.sheaves import wedge_basis

from helpers import (
    F2,
    F3,
    Q,
    Z,
    contraction_oracle,
    convention_fans,
    cross_fan,
    curve_fan,
    line_fan,
    oracle_cap_block,
    oracle_cap_change,
    oracle_orientation_coordinate,
    oracle_rank_field,
    oracle_star_complex,
    random_balanced_curve,
    random_surface,
    weighted,
)


# ---------------------------------------------------------------------------
# Contraction


class TestContraction:
    def test_scalar_contraction_is_multiplication(self):
        assert contract([5], [1, 2, 3], 0, 1, 3) == [5, 10, 15]

    def test_rank_two_basics(self):
        assert contract([1, 0], [1], 1, 2, 2) == [0, 1]  # f1 -| e12 = e2
        assert contract([0, 1], [1], 1, 2, 2) == [-1, 0]  # f2 -| e12 = -e1

    def test_pair_13_against_123(self):
        # lex 2-subsets of {0,1,2}: (0,1), (0,2), (1,2); f_{13} is (0,2).
        assert contract([0, 1, 0], [1], 2, 3, 3) == [0, 1, 0]

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            contract([1], [1], 2, 1, 3)

    def test_against_permutation_sum_oracle(self):
        m = 4
        for p1 in range(m + 1):
            for p2 in range(p1, m + 1):
                nk = len(list(combinations(range(m), p1)))
                nj = len(list(combinations(range(m), p2)))
                for ki in range(nk):
                    x = [0] * nk
                    x[ki] = 1
                    for ji in range(nj):
                        y = [0] * nj
                        y[ji] = 1
                        assert contract(x, y, p1, p2, m) == contraction_oracle(
                            x, y, p1, p2, m
                        )

    def test_dual_pairing_at_equal_degree(self):
        # For p1 = p2 the contraction is the dual pairing up to the fixed
        # global sign (-1)^{p(p-1)/2}.
        m = 4
        for p in range(m + 1):
            subs = list(combinations(range(m), p))
            sign = (-1) ** (p * (p - 1) // 2)
            for i, K in enumerate(subs):
                x = [0] * len(subs)
                x[i] = 1
                for j, J in enumerate(subs):
                    y = [0] * len(subs)
                    y[j] = 1
                    out = contract(x, y, p, p, m)
                    assert out == [sign if i == j else 0]


# ---------------------------------------------------------------------------
# Balancing


class TestBalancing:
    def test_cross_balancing_condition(self):
        fan = cross_fan()
        # Top faces are ordered by ray tuple: rays 0..3 = E,N,W,S.
        assert is_balanced(weighted(fan, [1, 1, 1, 1]))
        assert is_balanced(weighted(fan, [2, 5, 2, 5]))
        assert not is_balanced(weighted(fan, [1, 2, 1, 1]))
        assert not is_balanced(weighted(fan, [1, 1, 2, 1]))

    def test_balance_witness_is_the_vertex(self):
        fan = cross_fan()
        beta = balancing_failure(weighted(fan, [1, 2, 1, 1]))
        assert beta == fan.vertex_id

    @pytest.mark.parametrize("name", ["surface_r3", "surface_r4", "u34_bergman"])
    def test_balance_witness_is_the_first_failing_face(self, name):
        # Doubling the weight of the last top face breaks balancing at two
        # codimension-one faces; the witness is the one of least id. Each
        # face is tested on the top boundary of its star, assembled directly.
        wf = fixtures.load(name)
        fan = wf.fan
        d = fan.dim
        last = fan.top_faces()[-1]
        doubled = WeightedFan(fan, wf.ring, {a: w * (2 if a == last else 1) for a, w in wf.weights.items()})
        failing = []
        for beta in fan.faces_of_dim(d - 1):
            cx = oracle_star_complex(fan, beta, d)
            chain = fundamental_chain(doubled).vector(cx.blocks[d])
            if any(sum(x * c for x, c in zip(row, chain)) for row in cx.boundary_out(d).data):
                failing.append(beta)
        assert len(failing) == 2
        assert balancing_failure(doubled) == failing[0]

    def test_curve_unit_weights_balanced(self):
        assert is_balanced(weighted(curve_fan(), [1, 1, 1, 1]))

    def test_single_cone_unbalanced(self):
        fan = build_fan(2, [(1, 0), (0, 1)], [[0, 1]])
        assert not is_balanced(weighted(fan, [1]))

    def test_uniquely_balanced(self):
        assert is_uniquely_balanced(weighted(curve_fan(), [1, 1, 1, 1]))
        assert not is_uniquely_balanced(weighted(cross_fan(), [1, 1, 1, 1]))
        assert is_uniquely_balanced(weighted(line_fan(), [1, 1]))

    def test_uniquely_balanced_needs_generator_over_z(self):
        wf2 = weighted(line_fan(), [2, 2])
        assert is_balanced(wf2)
        assert not is_uniquely_balanced(wf2)
        assert is_uniquely_balanced(weighted(line_fan(), [2, 2], Q))

    def test_unbalanced_input_rejected(self):
        with pytest.raises(ValueError, match="not balanced"):
            is_uniquely_balanced(weighted(cross_fan(), [1, 2, 1, 1]))

    def test_stars_balanced_on_fixtures(self):
        for name in ("cross", "curve_r3", "surface_r4", "surface_r3", "u34_bergman"):
            assert stars_balanced_check(fixtures.load(name))

    def test_fundamental_chain_coordinates(self):
        wf = weighted(cross_fan(), [1, 2, 1, 2])
        ch = fundamental_chain(wf)
        assert sorted(ch.coords.values()) == [1, 1, 2, 2]


# ---------------------------------------------------------------------------
# Cap products


class TestCaps:
    def test_curve_cap_vectors_in_ray_dual_basis(self):
        # Images of the dual basis of the ray generators: the worked values
        # (1,0,0,-1), (0,1,0,-1), (0,0,1,-1).
        wf = weighted(curve_fan(), [1, 1, 1, 1])
        fan = wf.fan
        cap = cap_q0(wf, 1)
        stored = fan.multitangent(1).basis[fan.vertex_id]
        nu = IntMatrix.from_cols([[1, 0, 2], [-1, 0, 0], [0, -1, 0]])
        a = solve_int(stored, nu)  # nu_j in stored coordinates
        m = IntMatrix.from_cols(cap.ambient_columns, rows=4)
        a_inv_t = solve_int(a, IntMatrix.identity(3)).transpose()
        images = m * a_inv_t
        assert images.columns() == [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
        assert cap.is_isomorphism()
        assert abs(det_int(IntMatrix.from_cols(cap.kernel_columns, rows=3))) == 1

    def test_cap_degree_zero_is_fundamental_chain(self):
        for name in ("cross", "curve_r3", "u34_bergman"):
            wf = fixtures.load(name)
            cap = cap_q0(wf, 0)
            assert cap.domain_rank == 1
            ch = fundamental_chain(wf)
            assert cap.ambient_columns[0] == ch.vector(cap.blocks)

    def test_scalar_cap_law(self):
        # Capping a scalar multiplies the fundamental chain by it.
        wf = fixtures.load("u34_bergman")
        cap = cap_q0(wf, 0)
        base = cap.ambient_columns[0]
        for c in (2, -3, 5):
            assert [c * x for x in base] == [
                c * y for y in fundamental_chain(wf).vector(cap.blocks)
            ]

    def test_cap_top_degree_is_weighted_pairing(self):
        # At p = d the cap pairs a dual vector with the weighted generators.
        wf = weighted(curve_fan(), [1, 1, 1, 1])
        fan = wf.fan
        cap = cap_q0(wf, 1)  # d = 1
        f1 = fan.multitangent(1)
        for j in range(cap.domain_rank):
            for b in cap.blocks:
                lam = f1.inclusion(b.face, fan.vertex_id)
                stored_v = f1.basis[fan.vertex_id]
                # Component = u_j^*(w * Lambda_alpha) in vertex coordinates.
                expected = lam.data[j][0] * wf.weight(b.face)
                assert cap.ambient_columns[j][b.offset] == expected

    def test_cap_star_maximal_face_unit_condition(self):
        fan = bergman_fan(Matroid.uniform(3, 4)).fan
        top = fan.top_faces()[0]
        for w, ring, expect in ((1, Z, True), (2, Z, False), (2, Q, True), (2, F3, True)):
            wf = weighted(fan, [w] * 12, ring)
            for p in range(3):
                cap = cap_star(wf, top, p)
                assert cap.is_isomorphism() == expect

    def test_cap_star_at_vertex_equals_cap_q0(self):
        wf = fixtures.load("u34_bergman")
        for p in range(3):
            a = cap_q0(wf, p)
            b = cap_star(wf, wf.fan.vertex_id, p)
            assert a.ambient_columns == b.ambient_columns
            assert a.kernel_columns == b.kernel_columns

    def test_cap_star_u34_singleton_ray(self):
        wf = fixtures.load("u34_bergman")
        ray = wf.fan.face_by_rays([0])
        cap = cap_star(wf, ray, 1)
        assert cap.is_isomorphism()

    def test_cap_injectivity_all_fixtures_all_rings(self):
        for name in ("cross", "curve_r3", "surface_r4", "surface_r3", "u34_bergman"):
            base = fixtures.load(name)
            for ring in (Z, Q, F2, F3):
                try:
                    wf = base.with_ring(ring)
                except ValueError:
                    continue  # a weight reduces to zero over this field
                for p in range(wf.fan.dim + 1):
                    cap = cap_q0(wf, p)
                    cols = cap.kernel_columns
                    if not cols:
                        continue
                    if ring.kind == "Q":
                        num = [[x for x in col] for col in cols]
                        from fractions import Fraction

                        lcm = 1
                        for col in num:
                            for x in col:
                                lcm = lcm * Fraction(x).denominator
                        mat = IntMatrix.from_cols(
                            [[int(x * lcm) for x in col] for col in num],
                            rows=len(cols[0]),
                        )
                        assert kernel_lattice(mat).cols == 0
                    elif ring.kind == "Z":
                        mat = IntMatrix.from_cols(cols, rows=len(cols[0]))
                        assert kernel_lattice(mat).cols == 0
                    else:
                        mat = IntMatrix.from_cols(cols, rows=len(cols[0]))
                        assert oracle_rank_field(mat, ring) == len(cols)

    def test_cap_chain_general_zero_for_positive_q(self):
        wf = fixtures.load("u34_bergman")
        for q in (1, 2):
            blocks, columns = cap_chain_general(wf, 1, q)
            assert columns == []
            assert sum(b.rank for b in blocks) > 0

    def test_cap_chain_general_matches_cap_q0(self):
        for name, weights in (("cross", None), ("u34_bergman", None)):
            wf = fixtures.load(name)
            for p in range(wf.fan.dim + 1):
                blocks, columns = cap_chain_general(wf, p, 0)
                cap = cap_q0(wf, p)
                assert columns == cap.ambient_columns

    def test_cap_chain_general_p0_is_chain(self):
        wf = fixtures.load("cross")
        blocks, columns = cap_chain_general(wf, 0, 0)
        assert columns[0] == fundamental_chain(wf).vector(blocks)

    def test_cap_degree_out_of_range(self):
        wf = fixtures.load("u34_bergman")
        with pytest.raises(ValueError, match="out of range"):
            cap_q0(wf, 5)
        with pytest.raises(ValueError, match="out of range"):
            cap_chain_general(wf, 0, 7)


# ---------------------------------------------------------------------------
# Global and local duality


class TestTpd:
    def test_surface_r4_is_tpd_over_q(self):
        rep = is_tpd(fixtures.load("surface_r4"))
        assert rep.verdict

    def test_cross_fails_tpd_over_all_rings(self):
        fan = cross_fan()
        for ring in (Z, Q, F2):
            rep = is_tpd(weighted(fan, [1, 1, 1, 1], ring))
            assert not rep.verdict
            assert rep.failures()

    def test_surface_r3_fails_tpd(self):
        rep = is_tpd(fixtures.load("surface_r3"))
        assert not rep.verdict
        bad = [e for e in rep.entries if not e.ok]
        assert any(e.kind == "vanishing" for e in bad)

    def test_unbalanced_input_rejected(self):
        with pytest.raises(ValueError, match="not balanced"):
            is_tpd(weighted(cross_fan(), [1, 2, 1, 1]))

    def test_tpd_implies_uniquely_balanced(self):
        for name in ("curve_r3", "surface_r4", "u34_bergman"):
            wf = fixtures.load(name)
            if is_tpd(wf).verdict:
                assert is_uniquely_balanced(wf)

    def test_u34_local_tpd_over_z(self):
        rep = is_local_tpd(fixtures.load("u34_bergman"))
        assert rep.verdict
        assert rep.first_failure() is None

    def test_surface_r3_fails_locally_at_vertex_only(self):
        wf = fixtures.load("surface_r3")
        rep = is_local_tpd(wf)
        assert not rep.verdict
        assert rep.first_failure() == wf.fan.vertex_id
        for fid, sub in rep.per_face.items():
            if fid != wf.fan.vertex_id:
                assert sub.verdict

    def test_dim1_unit_weights_local_tpd(self):
        wf = weighted(curve_fan(), [1, 1, 1, 1])
        assert is_local_tpd(wf).verdict


class TestEulerCriterion:
    def test_surface_r4_all_p_hold(self):
        wf = fixtures.load("surface_r4")
        assert [euler_criterion(wf, p) for p in range(3)] == [HOLDS] * 3

    def test_surface_r3_p0_hypothesis_violated(self):
        # The cap at p = 0 lands in F_2, which has homology below the top
        # degree.
        assert euler_criterion(fixtures.load("surface_r3"), 0) == HYPOTHESIS_VIOLATED

    def test_surface_r3_p2_fails(self):
        # F_0 vanishes below the top degree, but chi(F_0) = 5 while F^2 has
        # rank 3 at the vertex: the cap witness is "rank mismatch 3 vs 5".
        assert euler_criterion(fixtures.load("surface_r3"), 2) == FAILS

    def test_cross_p0_fails(self):
        assert euler_criterion(weighted(cross_fan(), [1, 1, 1, 1], Q), 0) == FAILS

    def test_needs_field(self):
        with pytest.raises(ValueError, match="field"):
            euler_criterion(weighted(cross_fan(), [1, 1, 1, 1]), 0)

    def test_statuses_match_the_tpd_report(self):
        # Over every field the weights allow: the hypothesis is violated iff
        # a vanishing entry of the report for p fails, and the criterion fails
        # iff vanishing holds and the cap for p has a rank mismatch.
        fans = [fixtures.load(name) for name in fixtures.NAMES]
        fans.append(bergman_fan(Matroid.uniform(3, 5)))
        cases = 0
        for base in fans:
            for ring in (Q, F2, F3, RingTag.Fp(5)):
                try:
                    wf = base.with_ring(ring)
                except ValueError:
                    continue  # a weight is a zero-divisor mod p
                report = is_tpd(wf)
                for p in range(wf.fan.dim + 1):
                    status = euler_criterion(wf, p)
                    mine = [e for e in report.entries if e.p == p]
                    vanishing = all(e.ok for e in mine if e.kind == "vanishing")
                    [cap] = [e for e in mine if e.kind == "cap"]
                    assert (status == HYPOTHESIS_VIOLATED) == (not vanishing)
                    assert (status == FAILS) == (vanishing and cap.witness.startswith("rank mismatch"))
                    cases += 1
        assert cases == 61

    def test_biconditional_under_blanket_vanishing(self):
        # When the vanishing hypothesis holds for every p, the criterion for
        # all p is equivalent to the duality verdict.
        for name in ("surface_r4", "u34_bergman"):
            for ring in (Q, F2, F3):
                wf = fixtures.load(name).with_ring(ring)
                statuses = [euler_criterion(wf, p) for p in range(wf.fan.dim + 1)]
                if HYPOTHESIS_VIOLATED in statuses:
                    continue
                assert (statuses == [HOLDS] * len(statuses)) == is_tpd(wf).verdict


class TestClassifyDim1:
    def test_curve_true(self):
        assert classify_dim1(weighted(curve_fan(), [1, 1, 1, 1]))

    def test_line_with_weight_two(self):
        assert not classify_dim1(weighted(line_fan(), [2, 2]))
        assert classify_dim1(weighted(line_fan(), [2, 2], Q))

    def test_cross_false(self):
        assert not classify_dim1(weighted(cross_fan(), [1, 1, 1, 1]))

    def test_dim_restriction(self):
        with pytest.raises(ValueError):
            classify_dim1(fixtures.load("u34_bergman"))

    def test_randomized_agreement_with_is_tpd(self):
        # 100 random balanced curves; the classification must match the full
        # certificate over Z, Q and F3 (skipping F3 when a weight vanishes).
        rng = random.Random(20260810)
        disagreements = 0
        for _ in range(100):
            fan, weights = random_balanced_curve(rng)
            for ring in (Z, Q, F3):
                if ring.kind == "Fp" and any(w % 3 == 0 for w in weights):
                    continue
                wf = weighted(fan, weights, ring)
                if classify_dim1(wf) != is_tpd(wf).verdict:
                    disagreements += 1
        assert disagreements == 0


class TestStarTheorems:
    def test_surface_r4_hypotheses_and_conclusion(self):
        rep = tpd_from_stars_check(fixtures.load("surface_r4"))
        assert rep.global_vanishing and rep.proper_stars_tpd and rep.conclusion
        assert rep.status == HOLDS
        assert rep.ray_stars_tpd

    def test_surface_r3_counterexample_shape(self):
        # Proper stars all pass while global vanishing fails: dropping the
        # hypothesis would break the theorem.
        rep = tpd_from_stars_check(fixtures.load("surface_r3"))
        assert rep.proper_stars_tpd
        assert not rep.global_vanishing
        assert not rep.conclusion
        assert rep.status == HYPOTHESIS_VIOLATED

    def test_complete_plane_fan(self):
        rep = tpd_from_stars_check(bergman_fan(Matroid(3, [[0, 1, 2]])))
        assert rep.status == HOLDS

    def test_dimension_restriction(self):
        with pytest.raises(ValueError, match=">= 2"):
            tpd_from_stars_check(weighted(cross_fan(), [1, 1, 1, 1]))

    def test_characterization_agrees_on_fixtures(self):
        for name in ("surface_r4", "surface_r3", "u34_bergman"):
            wf = fixtures.load(name)
            rep = local_tpd_characterization(wf)
            assert rep.characterization == rep.direct

    def test_characterization_unit_weight_subcheck(self):
        # Over Z a doubled weight breaks the unit-weight requirement.
        fan = bergman_fan(Matroid.uniform(3, 4)).fan
        wf = weighted(fan, [2] * 12, Z)
        rep = local_tpd_characterization(wf)
        assert rep.unit_weights is False
        assert not rep.direct

    def test_randomized_surface_corpus(self):
        # Theorem cross-checks (implication, the dimension-two biconditional,
        # the local characterization and its unit-weight form over Z) raise
        # on violation; drive them over a randomized corpus.
        rng = random.Random(47)
        for i in range(50):
            wf = random_surface(rng)
            tpd_from_stars_check(wf)
            local_tpd_characterization(wf)
            ring = rng.choice([Q, F2, F3])
            if ring.kind == "Fp" and any(
                w % ring.p == 0 for w in wf.weights.values()
            ):
                continue
            wf_f = wf.with_ring(ring)
            tpd_from_stars_check(wf_f)
            local_tpd_characterization(wf_f)


# ---------------------------------------------------------------------------
# One certificate per weighted fan


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(duality, name)

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(duality, name, counted)
    return calls


def _all_four_checks(wf):
    is_tpd(wf)
    is_local_tpd(wf)
    tpd_from_stars_check(wf)
    local_tpd_characterization(wf)


class TestSharedCertificate:
    def test_balancing_checked_once_per_weighted_fan(self, monkeypatch):
        calls = _count_calls(monkeypatch, "balancing_failure")
        for name in ("surface_r4", "surface_r3", "u34_bergman"):
            calls.clear()
            _all_four_checks(fixtures.load(name))
            assert len(calls) == 1

    def test_star_reports_computed_once_per_face(self, monkeypatch):
        calls = _count_calls(monkeypatch, "_star_tpd_report")
        wf = fixtures.load("u34_bergman")
        _all_four_checks(wf)
        assert sorted(calls) == [(g,) for g in range(wf.fan.face_count())]

    @pytest.mark.parametrize("global_first", [True, False])
    def test_global_report_does_not_touch_the_shared_one(self, global_first):
        wf = fixtures.load("surface_r4")
        v = wf.fan.vertex_id
        if global_first:
            assert is_tpd(wf).base is None
        assert is_local_tpd(wf).per_face[v].base == v
        assert is_tpd(wf).base is None
        assert is_local_tpd(wf).per_face[v].base == v

    def test_with_ring_copy_starts_without_reports(self):
        # Weight 2 on the line is a unit over Q but not over Z.
        wf_z = weighted(line_fan(), [2, 2], Z)
        assert not is_tpd(wf_z).verdict
        wf_q = wf_z.with_ring(Q)
        report = is_tpd(wf_q)
        assert report.verdict and report.ring == Q
        assert is_local_tpd(wf_q).verdict and not is_local_tpd(wf_z).verdict
        assert not is_tpd(wf_z).verdict and is_tpd(wf_z).ring == Z

    @pytest.mark.parametrize("check", [tpd_from_stars_check, local_tpd_characterization])
    def test_cross_checks_fire_on_a_failing_vertex_cap(self, monkeypatch, check):
        # u34_bergman is a duality space over Z, so every hypothesis of both
        # theorems holds; breaking only the vertex cap must contradict them.
        original = duality.cap_star

        def failing_at_vertex(wf, gamma, p):
            cap = original(wf, gamma, p)
            if gamma == wf.fan.vertex_id:
                return replace(cap, domain_rank=cap.domain_rank + 1)
            return cap

        monkeypatch.setattr(duality, "cap_star", failing_at_vertex)
        with pytest.raises(TheoremViolation):
            check(fixtures.load("u34_bergman"))

    def test_cap_blocks_match_the_per_face_product(self):
        for name in ("cross", "curve_r3", "surface_r4", "surface_r3", "u34_bergman"):
            fan = fixtures.load(name).fan
            for alpha in fan.top_faces():
                for gamma in fan.lower_set(alpha):
                    for p in range(fan.dim + 1):
                        expected = oracle_cap_block(fan, alpha, gamma, p)
                        assert duality._cap_block_matrix(fan, alpha, gamma, p) == expected


class TestTopFaceConvention:
    """A top face stores its wedge bases, so its orientation coordinate is +1
    and the cap layer's change of coordinates there is the bare contraction.
    The certificates use both facts without solving for them."""

    def test_top_bases_are_wedge_bases_with_unit_orientation(self):
        for name, fan in convention_fans():
            for alpha in fan.top_faces():
                basis = fan.faces[alpha].lattice_basis
                for p in range(fan.dim + 1):
                    assert fan.multitangent(p).basis[alpha] == wedge_basis(basis, p), (name, alpha, p)
                assert oracle_orientation_coordinate(fan, alpha) == 1, (name, alpha)

    def test_cap_change_is_the_bare_contraction(self):
        for name, fan in convention_fans():
            for p in range(fan.dim + 1):
                contr = duality._contraction_against_top(fan.dim, p)
                for alpha in fan.top_faces():
                    assert oracle_cap_change(fan, alpha, p) == contr, (name, alpha, p)

    def test_contraction_pairs_rebuild_the_signed_permutation(self):
        # The cap layer keeps the contraction as (pi(i), s_i) per row i; the
        # pairs must give back the matrix and its determinant.
        for d in range(1, 6):
            fan = build_fan(d, [tuple(int(i == j) for j in range(d)) for i in range(d)], [list(range(d))])
            for p in range(d + 1):
                contr = duality._contraction_against_top(d, p)
                pairs = duality._contraction(fan, p)
                assert duality._contraction(fan, p) is pairs  # kept per fan
                rebuilt = [[s if j == k else 0 for j in range(contr.cols)] for k, s in pairs]
                assert IntMatrix.from_rows(rebuilt) == contr, (d, p)
                assert sorted(k for k, _ in pairs) == list(range(contr.cols))
                assert duality._contraction_det(fan, p) == det_int(contr), (d, p)

    def test_fundamental_chain_is_the_weights(self):
        wf = fixtures.load("surface_r3")
        assert fundamental_chain(wf).coords == wf.weights
