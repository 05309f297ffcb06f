"""Fan and module construction by substitution, against the elimination path.

Every basis that construction solves against is a canonical column HNF (up
to the sign of an oriented face's last column), so `solve_int` substitutes
forward instead of eliminating; a face whose rays' HNF has unit pivots skips
saturation; a face with as many rays as its rank orients on all of them and
takes its incidence signs from ray positions; and `wedge_basis` builds its
minors by Laplace expansion. The oracles in helpers.py are the previous
code: the fraction-free Gauss-Jordan solve, saturation of every face,
prefix rank tests, solved incidence signs, one determinant per minor, and
the rank-based matroid closure. Solutions of full-column-rank systems are
unique and HNF is canonical, so the results must agree exactly, errors
included.
"""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropfan.fans as fans
import tropfan.intmat as intmat
from tropfan import fixtures
from tropfan.fans import _face_basis, _orient_basis, build_fan
from tropfan.intmat import IntMatrix, solve_int
from tropfan.matroids import Matroid, bergman_fan
from tropfan.sheaves import wedge_basis

from helpers import (
    BASE_MATROIDS,
    construction_fans,
    graphic_k4,
    oracle_closure,
    oracle_coords_det_sign,
    oracle_face_basis,
    oracle_orient_basis,
    oracle_solve_int,
    oracle_solve_int_elimination,
    oracle_wedge_basis,
    square_cone_fan,
)

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


def _outcome(solve, a, b):
    try:
        return solve(a, b)
    except ValueError as e:
        return (type(e), str(e))


# ---------------------------------------------------------------------------
# solve_int


@st.composite
def echelon_matrices(draw):
    """Column echelon integer matrices: strictly increasing pivot rows with
    pivots of either sign, zeros above them and anything below."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(0, rows))
    pivots = sorted(draw(st.lists(st.integers(0, rows - 1), min_size=cols, max_size=cols, unique=True)))
    data = [[0] * cols for _ in range(rows)]
    for j, r in enumerate(pivots):
        data[r][j] = draw(st.sampled_from([1, -1, 1, -1, 2, -2, 3]))
        for i in range(r + 1, rows):
            data[i][j] = draw(st.integers(-4, 4))
    return IntMatrix(rows, cols, data)


@st.composite
def echelon_systems(draw):
    """a*X = b for echelon a and an integral, non-integral, inconsistent or
    shape-mismatched right-hand side, or for a made non-echelon or
    rank-deficient by a column operation."""
    a = draw(echelon_matrices())
    k = draw(st.integers(0, 3))
    x = IntMatrix(a.cols, k, [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(a.cols)])
    b = a * x
    kind = draw(st.sampled_from(["integral", "perturbed", "scaled", "shape", "mixed", "dependent"]))
    if kind == "perturbed":
        b = b + IntMatrix(b.rows, b.cols, [[draw(st.integers(-1, 1)) for _ in range(b.cols)] for _ in range(b.rows)])
    elif kind == "scaled" and a.cols:
        a = a * draw(st.integers(2, 3))
    elif kind == "shape":
        b = IntMatrix(b.rows + 1, b.cols, b.data + [[1] * b.cols])
    elif kind == "mixed" and a.cols > 1:
        # Adding column 1 to column 0 moves column 0's pivot below column 1's
        # unless the sum cancels, so a is (usually) no longer echelon.
        data = [row[:] for row in a.data]
        for row in data:
            row[0] += row[1]
        a = IntMatrix(a.rows, a.cols, data)
        b = a * x
    elif kind == "dependent" and a.cols:
        # A copy of the last column shares its pivot row.
        a = a.hstack(a.submatrix(range(a.rows), [a.cols - 1]))
        b = a * IntMatrix(a.cols, x.cols, x.data + [[0] * x.cols])
    return a, b


@PROPERTY
@given(echelon_systems())
def test_solve_int_matches_elimination_and_fraction_oracles(system):
    a, b = system
    got = _outcome(solve_int, a, b)
    assert got == _outcome(oracle_solve_int_elimination, a, b)
    assert got == _outcome(oracle_solve_int, a, b)


@PROPERTY
@given(echelon_systems())
def test_substitution_fails_exactly_when_the_oracle_solve_raises(system):
    # Against columns with distinct leads, the sparse forward substitution
    # is None exactly when a*X = b has no integral solution, and otherwise
    # it is that solution; it leaves its arguments as they were.
    a, b = system
    echelon, cols = intmat._columns(a), intmat._columns(b)
    if a.rows != b.rows or not all(echelon) or len({min(e) for e in echelon}) < a.cols:
        return
    before = [dict(col) for col in echelon + cols]
    x = intmat._substitute(echelon, cols)
    expected = _outcome(oracle_solve_int, a, b)
    if x is None:
        assert isinstance(expected, tuple)
    else:
        assert IntMatrix(a.cols, b.cols, x) == expected
    assert echelon + cols == before


def test_echelon_solve_never_eliminates(monkeypatch):
    def refuse(a, b, divide):
        raise AssertionError("eliminated")

    monkeypatch.setattr(intmat, "_solve_hnf", refuse)
    a = IntMatrix.from_rows([[2, 0], [1, -1], [5, 3]])
    x = IntMatrix.from_rows([[3, -1, 0], [-2, 4, 0]])
    assert solve_int(a, a * x) == x
    assert solve_int(a, IntMatrix(3, 0)) == IntMatrix(2, 0)
    assert solve_int(IntMatrix(3, 0), IntMatrix(3, 2)) == IntMatrix(0, 2)


def test_construction_solves_by_substitution_only(monkeypatch):
    # U(4,5) has faces contained in their largest inner cover, whose check
    # is a substitution too.
    calls = []
    real = intmat._solve_hnf
    monkeypatch.setattr(intmat, "_solve_hnf", lambda a, b, divide: calls.append(1) or real(a, b, divide))
    for m in (Matroid.uniform(3, 5), Matroid.uniform(4, 5)):
        fan = bergman_fan(m).fan
        for p in range(fan.dim + 1):
            mod = fan.multitangent(p)
            for fid in range(fan.face_count()):
                for c in fan.covers_of(fid):
                    mod.inclusion(c, fid)
    assert calls == []


# ---------------------------------------------------------------------------
# Face bases, orientations and incidence signs


CONSTRUCTION_FANS = construction_fans()


def _rays_matrix(fan, cone):
    return IntMatrix.from_cols([list(fan.rays[r]) for r in cone.ray_indices], rows=fan.ambient_rank)


def _incidence_matrix(fan, t, s):
    """[u | basis(tau)], u the sum of sigma's rays not in tau."""
    tau, sigma = fan.faces[t], fan.faces[s]
    extra = [r for r in sigma.ray_indices if r not in tau.ray_indices]
    u = [sum(fan.rays[r][i] for r in extra) for i in range(fan.ambient_rank)]
    return IntMatrix.from_cols([u] + tau.lattice_basis.columns(), rows=fan.ambient_rank)


@pytest.mark.parametrize("name,fan", CONSTRUCTION_FANS, ids=[n for n, _ in CONSTRUCTION_FANS])
def test_face_bases_orientations_and_signs_match_oracle(name, fan):
    for cone in fan.faces:
        mat = _rays_matrix(fan, cone)
        assert _face_basis(mat) == oracle_face_basis(mat)
        basis = oracle_face_basis(mat)
        assert _orient_basis(basis, mat) == oracle_orient_basis(basis, mat)
        assert cone.lattice_basis == oracle_orient_basis(basis, mat)
    for (t, s), sign in fan.covering.items():
        sigma = fan.faces[s]
        mat = _incidence_matrix(fan, t, s)
        assert sign == oracle_coords_det_sign(sigma.lattice_basis, mat)
        # Either orientation of the basis: its last column flipped or not.
        flipped = sigma.lattice_basis.copy()
        for row in flipped.data:
            row[-1] = -row[-1]
        for basis in (sigma.lattice_basis, flipped):
            assert fans._coords_det_sign(basis, mat) == oracle_coords_det_sign(basis, mat)


@PROPERTY
@given(echelon_matrices(), st.data())
def test_coords_det_sign_matches_oracle(basis, data):
    # Echelon bases with pivots of either sign, against square systems with
    # any (possibly singular) integral solution.
    k = basis.cols
    x = IntMatrix(k, k, [[data.draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(k)])
    mat = basis * x
    assert fans._coords_det_sign(basis, mat) == oracle_coords_det_sign(basis, mat)


@st.composite
def simplicial_cones(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    rays = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k, unique=True)
    )
    return n, rays


@PROPERTY
@given(simplicial_cones())
def test_random_cone_bases_match_oracle(cone):
    n, rays = cone
    try:
        fan = build_fan(n, rays, [list(range(len(rays)))])
    except ValueError:
        return  # zero, imprimitive or dependent rays
    for c in fan.faces:
        mat = _rays_matrix(fan, c)
        assert c.lattice_basis == oracle_orient_basis(oracle_face_basis(mat), mat)
    # The signs come from ray positions; the oracle solves for them.
    for (t, s), sign in fan.covering.items():
        assert sign == oracle_coords_det_sign(fan.faces[s].lattice_basis, _incidence_matrix(fan, t, s))


def test_incidence_signs_are_solved_only_on_non_simplicial_faces(monkeypatch):
    real = fans._incidence_sign

    def refuse(rays, tau, sigma):
        raise AssertionError("solved a simplicial incidence sign")

    monkeypatch.setattr(fans, "_incidence_sign", refuse)
    for name in fixtures.NAMES:
        fixtures.load(name)
    for m in (Matroid.uniform(3, 5), graphic_k4(), Matroid.uniform(4, 5)):
        bergman_fan(m)
    build_fan(3, [(1, 0, 0), (1, 2, 0), (1, 1, 3)], [[0, 1, 2]])

    solved = []

    def record(rays, tau, sigma):
        solved.append(sigma)
        return real(rays, tau, sigma)

    monkeypatch.setattr(fans, "_incidence_sign", record)
    fan = square_cone_fan()
    # The square is the one non-simplicial face; its four facets are solved.
    assert [c.ray_indices for c in solved] == [(0, 1, 2, 3)] * 4
    assert len(fan.covering) == 16


def test_unit_cone_takes_determinants_only_to_orient(monkeypatch):
    # 12 unit rays, 4,096 faces: one determinant orients each face but the
    # vertex, and the 24,576 incidence signs take none. At build only the
    # maximal cone is oriented; the other faces orient on their first read.
    calls = []
    real = fans.det_int
    monkeypatch.setattr(fans, "det_int", lambda m: calls.append(1) or real(m))
    n = 12
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    fan = build_fan(n, rays, [list(range(n))])
    assert fan.face_count() == 4096 and len(fan.covering) == 24576
    assert len(calls) == 1
    for cone in fan.faces:
        cone.lattice_basis
    assert len(calls) == 4095


def _lazy_basis_builds():
    """The fixtures, the rest of `convention_fans()` and the Bergman fans of
    `BASE_MATROIDS`, each as a function that builds it, so that every build
    is counted on its own."""
    out = {name: (lambda name=name: fixtures.load(name).fan) for name in fixtures.NAMES}
    out["U(3,5)"] = lambda: bergman_fan(Matroid.uniform(3, 5)).fan
    out["M(K4)"] = lambda: bergman_fan(graphic_k4()).fan
    out["U(4,5)"] = lambda: bergman_fan(Matroid.uniform(4, 5)).fan
    out["square_cone"] = square_cone_fan
    for i, m in enumerate(BASE_MATROIDS):
        out[f"base{i}"] = lambda m=m: bergman_fan(m).fan
    return out


LAZY_BASIS_BUILDS = _lazy_basis_builds()


@pytest.mark.parametrize("name", list(LAZY_BASIS_BUILDS))
def test_face_bases_are_taken_at_maximal_cones_and_on_first_read(monkeypatch, name):
    # Without a face list build_fan takes the basis of each maximal cone
    # only; every other face computes its own on its first read, once, and
    # it equals the oracle's. The cone over a square lists its faces, and
    # each of them takes its basis at build.
    calls = []
    real = fans._face_basis
    monkeypatch.setattr(fans, "_face_basis", lambda m: calls.append(m) or real(m))
    fan = LAZY_BASIS_BUILDS[name]()
    assert len(calls) == (fan.face_count() if fan.explicit_faces else len(fan.top_faces()))
    for cone in fan.faces:
        mat = _rays_matrix(fan, cone)
        assert cone.lattice_basis is cone.lattice_basis
        assert cone.lattice_basis == oracle_orient_basis(oracle_face_basis(mat), mat)
    assert len(calls) == fan.face_count()


def _count_saturations(monkeypatch):
    calls = []
    real = fans.saturate
    monkeypatch.setattr(fans, "saturate", lambda b: calls.append(1) or real(b))
    return calls


@pytest.mark.parametrize("rank,size", [(3, 5), (4, 5)])
def test_unimodular_faces_skip_saturation(monkeypatch, rank, size):
    calls = _count_saturations(monkeypatch)
    bergman_fan(Matroid.uniform(rank, size))
    assert calls == []


def test_faces_with_non_unit_pivots_are_saturated(monkeypatch):
    calls = _count_saturations(monkeypatch)
    fan = build_fan(2, [(1, 0), (1, 2)], [[0, 1]])
    assert calls  # the cone's HNF has pivot 2
    assert fan.faces[-1].lattice_basis == IntMatrix.identity(2)
    calls.clear()
    fan = build_fan(2, [(2, 1)], [[0]])
    assert calls  # saturated already, but its HNF pivot is 2
    assert fan.faces[-1].lattice_basis == IntMatrix.from_cols([[2, 1]])


def test_maximal_faces_of_degenerate_lists():
    assert build_fan(2, [], [[]]).face_count() == 1
    with pytest.raises(ValueError, match="non-maximal cone"):
        build_fan(2, [(1, 0)], [[0], []])


# ---------------------------------------------------------------------------
# wedge_basis


@pytest.mark.parametrize("name,fan", CONSTRUCTION_FANS, ids=[n for n, _ in CONSTRUCTION_FANS])
def test_wedge_basis_matches_per_minor_oracle(name, fan):
    for cone in fan.faces:
        for p in range(cone.dim + 1):
            assert wedge_basis(cone.lattice_basis, p) == oracle_wedge_basis(cone.lattice_basis, p)


@st.composite
def wedge_inputs(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    m = IntMatrix(rows, cols, [[draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)])
    return m, draw(st.integers(-1, cols + 1))


@PROPERTY
@given(wedge_inputs())
def test_wedge_basis_of_any_matrix_matches_oracle(case):
    m, p = case
    assert _outcome(wedge_basis, m, p) == _outcome(oracle_wedge_basis, m, p)


# ---------------------------------------------------------------------------
# Matroid closures and flats


def _matroids():
    out = {f"U({r},{n})": Matroid.uniform(r, n) for n in range(9) for r in range(n + 1)}
    out["M(K4)"] = graphic_k4()
    out["loop"] = Matroid(4, [[0, 1], [0, 2], [1, 2]])  # 3 is a loop
    out["parallel"] = Matroid(4, [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])  # 0 and 1
    for i, m in enumerate(BASE_MATROIDS):
        out[f"base{i}"] = m
    return out


MATROIDS = _matroids()


@pytest.mark.parametrize("name", list(MATROIDS))
def test_closures_and_flats_match_rank_oracle(monkeypatch, name):
    m = MATROIDS[name]
    for k in range(m.ground_size + 1):
        for s in combinations(range(m.ground_size), k):
            assert m.closure(s) == oracle_closure(m, s)
    flats = m.flats()
    monkeypatch.setattr(Matroid, "closure", oracle_closure)
    assert flats == m.flats()


def test_large_bergman_fan_is_rejected_quickly():
    # 562 flats, then more than 5,000 maximal chains. The rank-based closure
    # took about 3 s here; two passes over the bases take under 0.5 s.
    m = Matroid.uniform(5, 11)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Bergman fan has more than 5000 faces"):
        bergman_fan(m)
    assert time.perf_counter() - start < 2.5
