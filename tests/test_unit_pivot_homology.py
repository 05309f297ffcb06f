"""Homology groups from unit-pivot reduction, against the kernel-and-SNF path.

`homology_of_pair` decides each group from two ranks and the invariant
factors of the incoming boundary, found by eliminating unit pivots first,
and builds representatives only for a nontrivial group. The oracle is the
previous `homology_of_pair` (`helpers.oracle_homology_of_pair`), which
computed a kernel basis and the SNF of the image in it for every pair;
sympy's SNF and the Fraction rank check the random complexes independently.
"""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import tropfan.complexes as complexes
import tropfan.duality as duality
import tropfan.exact as exact
from tropfan import fixtures
from tropfan.complexes import _star, _star_kernel, bm_chain_complex, star_bm_complex, star_homology_table
from tropfan.exact import GroupPresentation, homology_of_pair
from tropfan.intmat import IntMatrix
from tropfan.matroids import Matroid, bergman_fan

from helpers import (
    F2,
    F3,
    Q,
    Z,
    graphic_k4,
    oracle_homology_of_pair,
    oracle_kernel_field,
    oracle_kernel_lattice,
    oracle_rank_field,
    oracle_smith_normal_form,
    oracle_star_complex,
)

RINGS = [Z, Q, F2, F3]


def _fans():
    fans = {name: fixtures.load(name).fan for name in fixtures.NAMES}
    fans["U(3,5)"] = bergman_fan(Matroid.uniform(3, 5)).fan
    fans["M(K4)"] = bergman_fan(graphic_k4()).fan
    fans["U(4,5)"] = bergman_fan(Matroid.uniform(4, 5)).fan
    return fans


FANS = _fans()


def _complexes(fan, ring):
    """Every global and every star Borel-Moore complex of the fan."""
    for p in range(fan.dim + 1):
        yield bm_chain_complex(fan, p, ring)
        for g in range(fan.face_count()):
            yield star_bm_complex(fan, g, p, ring)


_INTEGER_ORACLE = {}


def _oracle(b_in, b_out, ring):
    """`oracle_homology_of_pair`, with the integer answers kept across test
    cases, one per distinct pair of matrices: of the 1,212 pairs of U(4,5),
    282 are distinct. Z and Q share the oracle's integer path: the Q group
    is the free part of the Z group, and its representatives are the free
    generators."""
    if ring.kind == "Fp":
        return oracle_homology_of_pair(b_in, b_out, ring)
    key = (b_in.rows, b_in.cols, b_out.rows, b_out.cols, tuple(map(tuple, b_in.data)), tuple(map(tuple, b_out.data)))
    if key not in _INTEGER_ORACLE:
        _INTEGER_ORACLE[key] = oracle_homology_of_pair(b_in, b_out, Z)
    group, reps = _INTEGER_ORACLE[key]
    if ring.kind == "Q":
        return GroupPresentation(group.free_rank), reps[len(group.invariant_factors):]
    return group, reps


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name", sorted(FANS))
def test_groups_and_representatives_match_the_kernel_path(name, ring):
    # Global complexes through homology_of_pair, star complexes through the
    # memoized star tables, whose top degree is the star kernel.
    fan = FANS[name]
    for p in range(fan.dim + 1):
        cx = bm_chain_complex(fan, p, ring)
        for q in cx.degrees:
            b_in, b_out = cx.boundary_in(q), cx.boundary_out(q)
            assert homology_of_pair(b_in, b_out, ring) == _oracle(b_in, b_out, ring)
        for gamma in range(fan.face_count()):
            table = star_homology_table(fan, gamma, p, ring)
            cx = oracle_star_complex(fan, gamma, p)
            assert sorted(table.entries) == cx.degrees
            for q in cx.degrees:
                entry = table.entries[q]
                expected = _oracle(cx.boundary_in(q), cx.boundary_out(q), ring)
                assert (entry.group, entry.representatives) == expected


def test_surface_r3_vertex_star_keeps_its_torsion():
    fan = FANS["surface_r3"]
    table = star_homology_table(fan, fan.vertex_id, 1, Z)
    torsion = [q for q, e in table.entries.items() if e.group.invariant_factors]
    assert [str(table.group(q)) for q in torsion] == ["R/4"]
    (q,) = torsion
    cx = bm_chain_complex(fan, 1, Z)
    assert homology_of_pair(cx.boundary_in(q), cx.boundary_out(q), Z) == oracle_homology_of_pair(
        cx.boundary_in(q), cx.boundary_out(q), Z
    )
    assert star_homology_table(fan, fan.vertex_id, 1, Q).group(q).is_trivial


# ---------------------------------------------------------------------------
# Random complexes with planted torsion


def _unimodular(draw, n):
    """A random n x n unimodular matrix: a product of elementary operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if n < 2 or i == j:
            m[i] = [-x for x in m[i]]
            continue
        f = draw(st.integers(-2, 2))
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return IntMatrix(n, n, m)


@st.composite
def planted_complexes(draw):
    """(d_in, d_out) with d_out * d_in = 0. In an adapted basis of the middle
    group Z^n the image of d_in is D Z^a on the first a coordinates, d_out is
    injective up to scaling by E on the next b coordinates and zero on the
    rest; random unimodular changes of basis hide the split."""
    n = draw(st.integers(0, 6))
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n - a))
    k = a + draw(st.integers(0, 2))  # columns of d_in
    m = b + draw(st.integers(0, 2))  # rows of d_out
    diag = st.sampled_from([1, 1, -1, 2, 3, 4, 6, -2])
    d = [draw(diag) for _ in range(a)]
    e = [draw(diag) for _ in range(b)]
    p_mat = _unimodular(draw, n)
    p_inv = exact.solve_int(p_mat, IntMatrix.identity(n)) if n else IntMatrix(0, 0)
    inner_in = IntMatrix(n, k, [[d[i] if i == j and i < a else 0 for j in range(k)] for i in range(n)])
    inner_out = IntMatrix(m, n, [[e[i] if j == a + i and i < b else 0 for j in range(n)] for i in range(m)])
    d_in = p_mat * inner_in * _unimodular(draw, k) if k else IntMatrix(n, 0)
    d_out = _unimodular(draw, m) * inner_out * p_inv if m else IntMatrix(0, n)
    return d_in, d_out


def _sympy_factors(m: IntMatrix):
    if m.rows == 0 or m.cols == 0:
        return []
    s = sympy_snf(sympy.Matrix(m.data), domain=sympy.ZZ)
    return [abs(int(s[i, i])) for i in range(min(m.rows, m.cols)) if s[i, i] != 0]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(planted_complexes())
def test_random_complexes_match_sympy_and_the_field_oracle(pair):
    d_in, d_out = pair
    n = d_out.cols
    assert (d_out * d_in).is_zero()
    factors = _sympy_factors(d_in)
    rank_out = len(_sympy_factors(d_out))
    group, reps = homology_of_pair(d_in, d_out, Z)
    assert group == GroupPresentation(n - rank_out - len(factors), tuple(f for f in factors if f > 1))
    assert (group, reps) == oracle_homology_of_pair(d_in, d_out, Z)
    assert homology_of_pair(d_in, d_out, Q) == oracle_homology_of_pair(d_in, d_out, Q)
    for ring in (F2, F3):
        group, reps = homology_of_pair(d_in, d_out, ring)
        assert group.free_rank == n - oracle_rank_field(d_out, ring) - oracle_rank_field(d_in, ring)
        assert (group, reps) == oracle_homology_of_pair(d_in, d_out, ring)


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return IntMatrix(rows, cols, [[draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_matrices())
def test_oracle_snf_diagonal_is_sympys(m):
    # The homology oracle's own SNF: a diagonal U m V whose nonzero
    # entries, in order, are sympy's invariant factors.
    s, u, v = oracle_smith_normal_form(m)
    assert s == u * m * v
    assert all(x == 0 for i, row in enumerate(s.data) for j, x in enumerate(row) if i != j)
    assert [s.data[i][i] for i in range(min(m.rows, m.cols)) if s.data[i][i]] == _sympy_factors(m)


# ---------------------------------------------------------------------------
# The mechanism


@pytest.mark.parametrize("name", ["U(3,5)", "U(4,5)"])
def test_no_kernel_or_snf_below_the_top_degree(name, monkeypatch):
    fan = FANS[name]
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for fn in ("kernel_lattice", "smith_normal_form", "kernel_field"):
        monkeypatch.setattr(exact, fn, counted(getattr(exact, fn)))
    for ring in (Z, Q, F3):
        for cx in _complexes(fan, ring):
            for q in cx.degrees[:-1]:
                group, reps = exact.homology_of_pair(cx.boundary_in(q), cx.boundary_out(q), ring)
                assert group.is_trivial and reps == []
    assert calls == []
    top = bm_chain_complex(fan, 0, Z)
    exact.homology_of_pair(top.boundary_in(fan.dim), top.boundary_out(fan.dim), Z)
    assert calls == ["kernel_lattice"]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name", ["surface_r3", "U(3,5)"])
def test_star_top_entry_is_the_star_kernel(name, ring):
    # The top degree of the star table, the layout and top differential the
    # caps read, and the kernel basis behind the top entry, against the
    # kernel of the top boundary of the directly assembled star complex.
    fan = FANS[name]
    for gamma in range(fan.face_count()):
        for p in range(fan.dim + 1):
            table, blocks, top = _star(fan, gamma, p, ring)
            assert table is star_homology_table(fan, gamma, p, ring)
            oracle = oracle_star_complex(fan, gamma, p)
            expected_blocks, mat = oracle.blocks[fan.dim], oracle.boundary_out(fan.dim)
            if ring.kind == "Fp":
                expected = oracle_kernel_field(mat, ring)
            else:
                expected = oracle_kernel_lattice(mat).columns()
            entry = table.entries[fan.dim]
            kern = _star_kernel(fan, gamma, p, ring)
            assert entry.group == GroupPresentation(len(expected))
            assert entry.representatives == expected == kern.columns()
            assert kern.rows == mat.cols and blocks == expected_blocks and top == mat


def test_local_tpd_assembles_each_star_once(monkeypatch):
    # One fan complex per degree p, with one differential out of each degree
    # q = 1..d: d (d + 1) = 6 on the surface U(3,5). Every star complex and
    # the balancing check are read off them.
    calls = []
    real = complexes._bm_differential
    monkeypatch.setattr(complexes, "_bm_differential", lambda *a: calls.append(a) or real(*a))
    wf = bergman_fan(Matroid.uniform(3, 5))
    assert duality.is_local_tpd(wf).verdict
    assert len(calls) == 6


@pytest.mark.parametrize(
    "d_in, d_out",
    [
        ([[1]], [[1]]),  # by the rank rule, no room for any group: 1 - 1 - 1 < 0
        ([[1], [0], [0]], [[1, 0, 0]]),  # by the rank rule, a nontrivial group: 3 - 1 - 1
        ([[3], [0]], [[5, 0]]),  # no unit pivot at all
    ],
)
def test_a_pair_that_does_not_compose_is_rejected(d_in, d_out):
    d_in, d_out = IntMatrix.from_rows(d_in), IntMatrix.from_rows(d_out)
    for ring in (Z, Q, F2):
        with pytest.raises(ValueError, match="not a complex"):
            homology_of_pair(d_in, d_out, ring)


# ---------------------------------------------------------------------------
# Satellites: IntMatrix construction and matroid validation


def test_public_constructor_checks_shape_and_converts_entries():
    m = IntMatrix(1, 2, [[True, 3.0]])
    assert m.data == [[1, 3]] and all(type(x) is int for x in m.data[0])
    with pytest.raises(ValueError, match="shape"):
        IntMatrix(2, 1, [[1]])
    with pytest.raises(ValueError, match="shape"):
        IntMatrix(1, 2, [[1]])


@pytest.mark.parametrize("entry", [Fraction(2, 3), 2.7, Fraction(-1, 2)])
def test_public_constructor_rejects_non_integral_entries(entry):
    # int() would truncate these silently.
    with pytest.raises(ValueError, match="non-integral"):
        IntMatrix(1, 2, [[entry, 2]])
    with pytest.raises(ValueError, match="non-integral"):
        IntMatrix.from_cols([[1], [entry]])
    assert IntMatrix(1, 2, [[Fraction(4), -0.0]]).data == [[4, 0]]


def test_internal_constructions_do_not_share_rows():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    derived = [m.submatrix([0, 1], [0, 1]), m.transpose().transpose(), m.hstack(IntMatrix(2, 0))]
    for d in derived:
        assert d == m
        d.data[0][0] = 9
    assert m.data == [[1, 2], [3, 4]]
    assert IntMatrix(0, 3).transpose() == IntMatrix(3, 0)
    assert IntMatrix(3, 0).transpose() == IntMatrix(0, 3)


def test_exchange_check_is_not_cubic():
    # 462 bases; the old check rebuilt the set of bases in its innermost
    # loop and took about 9 s here, against about 1 s now.
    start = time.perf_counter()
    Matroid.uniform(5, 11)
    assert time.perf_counter() - start < 5
