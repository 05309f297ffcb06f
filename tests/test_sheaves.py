"""Multi-tangent modules: wedge bases, ranks, structure maps, duality."""

import gc
import hashlib
import weakref
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import tropfan.sheaves as sheaves
from tropfan.complexes import _star, star_row_complex
from tropfan.duality import _star_report, is_local_tpd, local_tpd_characterization
from tropfan.exact import hnf_basis, kernel_lattice
from tropfan.intmat import IntMatrix, det_int
from tropfan.matroids import Matroid, bergman_fan
from tropfan.sheaves import build_multicotangent, build_multitangent, wedge_basis

from helpers import (
    F3,
    Z,
    construction_fans,
    cross_fan,
    curve_fan,
    oracle_multitangent_bases,
    oracle_solve_int,
    weighted,
)


def test_wedge_basis_degree_zero():
    b = IntMatrix.from_cols([[1, 0, 2], [0, 1, -2]])
    w = wedge_basis(b, 0)
    assert w.data == [[1]]


def test_wedge_basis_top_of_two_columns():
    b = IntMatrix.from_cols([[1, 0, 2], [0, 1, -2]])
    w = wedge_basis(b, 2)
    # Minors against rows (0,1), (0,2), (1,2).
    assert w.columns() == [[1, -2, -2]]


def test_wedge_basis_standard_full():
    b = IntMatrix.identity(4)
    w = wedge_basis(b, 4)
    assert w.rows == 1 and w.cols == 1 and w.data == [[1]]


def test_wedge_basis_minor_oracle():
    # Independent check: each entry is literally a p x p minor.
    b = IntMatrix.from_cols([[1, 2, 0, 3], [0, 1, 1, -1], [2, 0, 1, 1]])
    p = 2
    w = wedge_basis(b, p)
    rows = list(combinations(range(4), p))
    cols = list(combinations(range(3), p))
    for i, rr in enumerate(rows):
        for j, cc in enumerate(cols):
            assert w.data[i][j] == det_int(b.submatrix(rr, cc))


def test_wedge_degree_out_of_range():
    with pytest.raises(ValueError):
        wedge_basis(IntMatrix.identity(2), 3)


def test_cross_multitangent_ranks():
    fan = cross_fan()
    f1 = build_multitangent(fan, 1)
    assert f1.rank(fan.vertex_id) == 2
    for tau in fan.faces_of_dim(1):
        assert f1.rank(tau) == 1
    f0 = build_multitangent(fan, 0)
    assert all(f0.rank(f) == 1 for f in range(fan.face_count()))
    for tau in fan.faces_of_dim(1):
        assert f0.inclusion(tau, fan.vertex_id) == IntMatrix.identity(1)


def test_cross_ray_module_is_ray_lattice():
    fan = cross_fan()
    f1 = build_multitangent(fan, 1)
    tau = fan.face_by_rays([0])
    assert f1.basis[tau].columns() == [[1, 0]]


def test_curve_vertex_sum_not_saturated():
    # The subgroup sum keeps its torsion quotient: the vertex module has
    # index two in the ambient lattice here.
    fan = curve_fan()
    f1 = build_multitangent(fan, 1)
    b = f1.basis[fan.vertex_id]
    assert b.cols == 3
    assert abs(det_int(b)) == 2


def test_rank_monotone_and_inclusions_injective():
    for fan in (cross_fan(), curve_fan(), bergman_fan(Matroid.uniform(3, 4)).fan):
        for p in range(fan.dim + 1):
            mod = fan.multitangent(p)
            for (tau, sigma) in fan.covering:
                assert mod.rank(tau) >= mod.rank(sigma)
                inc = mod.inclusion(sigma, tau)
                assert kernel_lattice(inc).cols == 0


def test_maximal_face_ranks_binomial():
    from math import comb

    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    d = fan.dim
    for p in range(d + 1):
        mod = fan.multitangent(p)
        for alpha in fan.top_faces():
            assert mod.rank(alpha) == comb(d, p)
    assert all(fan.multitangent(d).rank(a) == 1 for a in fan.top_faces())


def test_vertex_basis_order_independent():
    # Summing the maximal wedge lattices in any order canonicalizes equally.
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    p = 1
    mod = fan.multitangent(p)
    mats = [wedge_basis(fan.faces[a].lattice_basis, p) for a in fan.top_faces()]
    expected = mod.basis[fan.vertex_id]
    assert hnf_basis(IntMatrix.from_cols([col for m in mats for col in m.columns()])) == expected
    assert hnf_basis(IntMatrix.from_cols([col for m in reversed(mats) for col in m.columns()])) == expected


def test_cosheaf_functoriality():
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    for p in range(fan.dim + 1):
        mod = fan.multitangent(p)
        v = fan.vertex_id
        for sigma in fan.faces_of_dim(2):
            for tau in fan.facets_of(sigma):
                lhs = mod.inclusion(tau, v) * mod.inclusion(sigma, tau)
                assert lhs == mod.inclusion(sigma, v)


def test_sheaf_is_transpose_and_functorial():
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    for p in range(fan.dim + 1):
        cos = fan.multitangent(p)
        sh = build_multicotangent(fan, p)
        v = fan.vertex_id
        for (tau, sigma) in fan.covering:
            assert sh.restriction(tau, sigma) == cos.inclusion(sigma, tau).transpose()
        for sigma in fan.faces_of_dim(2):
            for tau in fan.facets_of(sigma):
                lhs = sh.restriction(tau, sigma) * sh.restriction(v, tau)
                assert lhs == sh.restriction(v, sigma)


def test_dual_of_identity_inclusion():
    fan = cross_fan()
    sh = build_multicotangent(fan, 0)
    v = fan.vertex_id
    for tau in fan.faces_of_dim(1):
        assert sh.restriction(v, tau) == IntMatrix.identity(1)


def test_fan_and_modules_freed_without_cycle_collector():
    # A fan caches its modules; the modules must not keep the fan alive, or
    # every fan waits for the cyclic collector and peak memory grows.
    gc.disable()
    try:
        fan = bergman_fan(Matroid.uniform(3, 4)).fan
        build_multicotangent(fan, 1)
        assert fan.multitangent(1).fan is fan
        ref = weakref.ref(fan)
        del fan
        assert ref() is None
        # A face below the top computes its basis on its first read; unread,
        # it holds the rays but not the fan.
        fan = bergman_fan(Matroid.uniform(3, 4)).fan
        unread = [c for c in fan.faces if c.dim < fan.dim]
        assert unread and all(callable(c._basis) for c in unread)
        del unread
        ref = weakref.ref(fan)
        del fan
        assert ref() is None
        # The same holds for a weighted fan and its memoized certificates.
        wf = bergman_fan(Matroid.uniform(3, 4))
        local_tpd_characterization(wf)
        refs = [weakref.ref(wf), weakref.ref(wf.fan)]
        del wf
        assert [r() for r in refs] == [None, None]
        # Failing caps leave their witnesses unread in the memo, as callables
        # that hold a cap or the fan but never the weighted fan.
        fan = bergman_fan(Matroid.uniform(3, 4)).fan
        wf = weighted(fan, [2] * len(fan.top_faces()))
        del fan
        local_tpd_characterization(wf)
        unread = [e for g in (wf.fan.vertex_id, wf.fan.top_faces()[0]) for e in _star_report(wf, g).failures()]
        assert unread and all(callable(e._witness) for e in unread)
        del unread
        refs = [weakref.ref(wf), weakref.ref(wf.fan)]
        del wf
        assert [r() for r in refs] == [None, None]
        # Star tables own their kernel bases and must not refer back to the
        # fan: build them through the star row over Z and F_3, and through
        # the witnesses of the failing caps over Z, one per degree, each
        # read so that its star kernel is built. A top face's report is read
        # off in closed form, so the failing caps are taken at a ray of a
        # surface, whose star is not a top face's.
        wf = bergman_fan(Matroid.uniform(3, 4))
        for ring in (Z, F3):
            for p in range(wf.fan.dim + 1):
                star_row_complex(wf, p, ring)
        doubled = weighted(bergman_fan(Matroid.uniform(3, 4)).fan, [2] * len(wf.fan.top_faces()))
        ray = doubled.fan.faces_of_dim(1)[0]
        witnesses = [e.witness for e in is_local_tpd(doubled).per_face[ray].failures()]
        assert witnesses[0] == "determinant 2"
        assert witnesses == ["determinant 2", "determinant -8", "determinant 4"]
        tops = [_star(wf.fan, wf.fan.vertex_id, 1, F3)[0].entries[2]]
        tops += [_star(doubled.fan, ray, q, Z)[0].entries[2] for q in (0, 1, 2)]
        assert all("kernel" in vars(top) for top in tops)
        refs = [weakref.ref(x) for x in (wf, wf.fan, doubled, doubled.fan)]
        del wf, doubled, tops
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_dual_outlives_the_fan():
    cosheaf = build_multitangent(cross_fan(), 1)
    sheaf = cosheaf.dual()
    assert sheaf.variance == "sheaf" and cosheaf.variance == "cosheaf"
    assert sheaf.rank(0) == cosheaf.rank(0) == 2


CONSTRUCTION_FANS = construction_fans()


def test_cover_recursion_matches_the_all_maximal_cofaces_sum():
    # HNF is canonical, so building each face from its covers gives the same
    # bytes as the HNF of all maximal cofaces' wedge powers. The cones that
    # are not unimodular have single-cover faces and maximal faces whose
    # wedge basis is not an HNF.
    for name, fan in CONSTRUCTION_FANS:
        for p in range(fan.dim + 1):
            assert build_multitangent(fan, p).basis == oracle_multitangent_bases(fan, p), (name, p)


def test_module_build_records_exactly_the_cover_maps():
    # One solve per face gives its covers' maps; each equals the map solved
    # on its own, and no pair other than a covering pair is recorded.
    for name, fan in CONSTRUCTION_FANS:
        for p in range(fan.dim + 1):
            mod = build_multitangent(fan, p)
            assert set(mod._structure) == {(s, t) for t, s in fan.covering}, (name, p)
            for (s, t), m in mod._structure.items():
                assert m == oracle_solve_int(mod.basis[t], mod.basis[s]), (name, p, s, t)


def test_every_inclusion_matches_the_oracle_solve(monkeypatch):
    # Every comparable pair, not only the covering ones. Into a full module
    # (basis the identity) the map is the upper face's basis, with no solve.
    solved = []
    real = sheaves.solve_int
    monkeypatch.setattr(sheaves, "solve_int", lambda a, b: solved.append(1) or real(a, b))
    for name, fan in CONSTRUCTION_FANS:
        for p in range(fan.dim + 1):
            mod = build_multitangent(fan, p)
            full = IntMatrix.identity(comb(fan.ambient_rank, p))
            assert mod._full == {f for f, b in mod.basis.items() if b == full}, (name, p)
            solved.clear()
            expected = 0
            for tau in range(fan.face_count()):
                for sigma in fan.upper_set(tau):
                    m = mod.inclusion(sigma, tau)
                    assert m == oracle_solve_int(mod.basis[tau], mod.basis[sigma]), (name, p, sigma, tau)
                    if sigma != tau and (tau, sigma) not in fan.covering and tau not in mod._full:
                        expected += 1
            assert len(solved) == expected, (name, p)


def _module_paths(fan, p, bases):
    """Face id -> the way `build_multitangent` must decide each face below
    the top, classified from the oracle's bases: "inherited" (a cover's
    module is the whole wedge power), "exit" (the face's own module is, but
    no cover's), "contained" (its module is that of its largest inner
    cover) or "hnf"."""
    full = IntMatrix.identity(comb(fan.ambient_rank, p))
    paths = {}
    for fid in range(fan.face_count()):
        covers = fan.covers_of(fid)
        if not covers:
            continue
        inner = [c for c in covers if fan.covers_of(c)]
        first = max(inner, key=lambda c: bases[c].cols) if inner else None
        if any(bases[c] == full for c in covers):
            paths[fid] = "inherited"
        elif bases[fid] == full:
            paths[fid] = "exit"
        elif first is not None and bases[first] == bases[fid]:
            paths[fid] = "contained"
        else:
            paths[fid] = "hnf"
    return paths


def test_module_build_takes_each_path_and_eliminates_only_on_the_last(monkeypatch):
    # On U(4,5) every path occurs. The HNF runs only at "exit" and "hnf"
    # faces. The substitution runs against the largest inner cover's basis
    # at every face that has one, and succeeds exactly at "contained" faces;
    # at "hnf" faces it runs once more, against the face's own basis, and
    # succeeds. Every full face shares one identity matrix.
    hnfs, subs = [], []
    real_hnf, real_sub = sheaves._row_hnf, sheaves._substitute

    def hnf(rows, ncols):
        r = real_hnf(rows, ncols)
        hnfs.append(rows[:r] == [{k: 1} for k in range(ncols)])
        return r

    monkeypatch.setattr(sheaves, "_row_hnf", hnf)
    monkeypatch.setattr(sheaves, "_substitute", lambda e, g: subs.append((len(e), real_sub(e, g))) or subs[-1][1])
    fan = bergman_fan(Matroid.uniform(4, 5)).fan
    counts = Counter()
    for p in range(fan.dim + 1):
        bases = oracle_multitangent_bases(fan, p)
        paths = _module_paths(fan, p, bases)
        counts.update(paths.values())
        hnfs.clear()
        subs.clear()
        mod = build_multitangent(fan, p)
        assert mod.basis == bases, p
        # Faces are built from the top down.
        order = [f for f in reversed(range(fan.face_count())) if f in paths]
        eliminated = [f for f in order if paths[f] in ("exit", "hnf")]
        assert ["exit" if full else "hnf" for full in hnfs] == [paths[f] for f in eliminated], p
        expected = []
        for f in order:
            inner = [c for c in fan.covers_of(f) if fan.covers_of(c)]
            if paths[f] != "inherited" and inner:
                expected.append((max(map(mod.rank, inner)), paths[f] == "contained"))
            if paths[f] == "hnf":
                expected.append((mod.rank(f), True))
        assert [(rank, x is not None) for rank, x in subs] == expected, p
        assert len({id(mod.basis[f]) for f in mod._full}) <= 1, p
        for f in order:
            if paths[f] == "contained":
                first = max((c for c in fan.covers_of(f) if fan.covers_of(c)), key=mod.rank)
                assert mod.basis[f] is mod.basis[first], (p, f)
    assert counts == {"inherited": 123, "exit": 26, "contained": 50, "hnf": 225}


@pytest.mark.parametrize("n", [6, 7])
def test_module_build_on_larger_bergman_fans_matches_the_oracles(n):
    # The two tests above on U(3,n), beyond `convention_fans()`: at the
    # vertex the modules of degree 1 and 2 are the whole wedge power of
    # Z^(n-1), stacked from the modules of all n + C(n, 2) rays, so the HNF
    # takes its full-lattice exit.
    # The bases are the HNF of all maximal cofaces' wedge powers, and
    # exactly the covering pairs' maps are recorded, each equal to its own
    # solve.
    fan = bergman_fan(Matroid.uniform(3, n)).fan
    for p in range(fan.dim + 1):
        mod = build_multitangent(fan, p)
        assert mod.basis == oracle_multitangent_bases(fan, p), p
        assert set(mod._structure) == {(s, t) for t, s in fan.covering}, p
        for (s, t), m in mod._structure.items():
            assert m == oracle_solve_int(mod.basis[t], mod.basis[s]), (p, s, t)


def test_wedge_basis_runs_only_at_faces_without_cover(monkeypatch):
    # The build takes a top face's wedge columns without the dense matrix.
    seen = []
    real = sheaves._wedge_columns
    monkeypatch.setattr(sheaves, "_wedge_columns", lambda basis, p: seen.append(basis) or real(basis, p))
    fan = bergman_fan(Matroid.uniform(3, 5)).fan
    for p in range(fan.dim + 1):
        build_multitangent(fan, p)
    # Once per (top face, p), and never for a face below the top.
    top_bases = [id(fan.faces[a].lattice_basis) for a in fan.top_faces()]
    assert sorted(id(b) for b in seen) == sorted(top_bases * (fan.dim + 1))


def _module_digest(fan):
    """sha256 of every basis, `_full` set and recorded cover map of the
    fan's multi-tangent modules, p = 0..d, in face and key order."""
    h = hashlib.sha256()
    for p in range(fan.dim + 1):
        mod = build_multitangent(fan, p)
        for fid in range(fan.face_count()):
            b = mod.basis[fid]
            h.update(repr((p, fid, b.rows, b.cols, b.data)).encode())
        h.update(repr(sorted(mod._full)).encode())
        for key in sorted(mod._structure):
            m = mod._structure[key]
            h.update(repr((key, m.rows, m.cols, m.data)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n, digest",
    [
        (7, "8f528fe6cf37705e5b3043164925d2fc8b103d78401b8bd5817744ab87399969"),
        (8, "54fb04e9ab7eead6431568e90716ca5f8a4b422aae6948ca3ef060756a634141"),
    ],
    ids=["U(4,7)", "U(4,8)"],
)
def test_module_bytes_are_pinned(n, digest):
    # The construct workload's fans: its goldens check ranks only, so the
    # bases and cover maps themselves are pinned here, byte for byte.
    assert _module_digest(bergman_fan(Matroid.uniform(4, n)).fan) == digest
