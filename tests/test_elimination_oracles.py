"""The insertion HNF and row-sparse elimination kernels against oracles.

The oracles in helpers.py are the Fraction Gauss-Jordan elimination that the
kernels replaced, and the HNF that carried its transform as a separate
matrix; sympy gives an independent cross-check over Q. Solutions of
full-column-rank systems, reduced row echelon forms and Hermite forms with
their transforms are unique for the pivot rules used, so the kernels must
agree with the oracles exactly, errors included.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropfan.exact as exact
from tropfan import fixtures
from tropfan.complexes import bm_chain_complex, star_bm_complex
from tropfan.duality import cap_star
from tropfan.exact import (
    GroupPresentation,
    hermite_normal_form,
    hnf_basis,
    homology_of_pair,
    kernel_field,
    kernel_lattice,
    rank_over_q,
)
from tropfan.fans import WeightedFan
from tropfan.intmat import IntMatrix, SparseIntMatrix, _pivots_over_q, det_int, solve_exact, solve_int
from tropfan.io import parse_fan
from tropfan.matroids import Matroid, bergman_fan

from helpers import (
    F2,
    F3,
    Q,
    Z,
    graphic_k4,
    oracle_hermite_normal_form,
    oracle_hnf_basis,
    oracle_kernel_field,
    oracle_field_matrix,
    oracle_kernel_lattice,
    oracle_rank_field,
    oracle_row_hnf,
    oracle_rref_p,
    oracle_solve_exact,
    oracle_solve_field,
    oracle_solve_int,
)

F5 = exact.RingTag.Fp(5)
F7 = exact.RingTag.Fp(7)
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def int_matrices(draw, rows=None, cols=None, entries=st.integers(-4, 4)):
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix(rows, cols, data)


@st.composite
def systems(draw):
    """a*X = b with a mix of consistent, inconsistent, rank-deficient and
    non-integral systems: b is a*X plus an optional perturbation, all over
    a scale that may make the solution fractional. b may have no columns,
    which leaves only the rank of a to decide."""
    cols = draw(st.integers(0, 4))
    a = draw(int_matrices(rows=draw(st.integers(max(cols - 1, 0), 6)), cols=cols))
    x = draw(int_matrices(rows=a.cols, cols=draw(st.integers(0, 3))))
    b = a * x
    if draw(st.booleans()):
        b = b + draw(int_matrices(rows=b.rows, cols=b.cols, entries=st.integers(-1, 1)))
    if a.cols and draw(st.booleans()):
        a = a * draw(st.integers(2, 3))
    return a, b


def _outcome(solve, a, b):
    try:
        return solve(a, b)
    except ValueError as e:
        return (type(e), str(e))


@PROPERTY
@given(systems())
def test_solve_exact_matches_oracle(system):
    a, b = system
    assert _outcome(solve_exact, a, b) == _outcome(oracle_solve_exact, a, b)


@PROPERTY
@given(systems())
def test_solve_int_matches_oracle(system):
    a, b = system
    assert _outcome(solve_int, a, b) == _outcome(oracle_solve_int, a, b)


@PROPERTY
@given(int_matrices(), st.sampled_from([F3, F7]))
def test_field_kernel_and_rank_match_oracle(m, ring):
    assert kernel_field(m, ring) == oracle_kernel_field(m, ring)


def _sparse(m: IntMatrix) -> SparseIntMatrix:
    return SparseIntMatrix(m.rows, m.cols, [{j: x for j, x in enumerate(row) if x} for row in m.data])


@PROPERTY
@given(int_matrices(entries=st.integers(-12, 12)), st.sampled_from([2, 3, 5, 7, 11]))
@example(IntMatrix(1, 2, [[2, 1]]), 5)  # the pivot 2 is not its own inverse mod 5
@example(IntMatrix(2, 3, [[1, 1, 1], [1, 0, 1]]), 3)  # column 1 is sparser than column 0
def test_field_kernel_and_pivots_are_sympys(m, p):
    # The kernel basis over GF(p) is the reduced-echelon one, the same for
    # a dense and a sparse argument, and a sparse one is not densified; the
    # pivot columns that choose representatives are those of sympy's rref.
    field = sympy.GF(p)
    dm = DomainMatrix([[field(x) for x in row] for row in m.data], (m.rows, m.cols), field)
    expected = [[int(x) % p for x in row] for row in dm.nullspace(divide_last=True).to_list()]
    ring = exact.RingTag.Fp(p)
    sparse = _sparse(m)
    assert kernel_field(m, ring) == expected
    assert kernel_field(sparse, ring) == expected
    assert sparse._dense is None
    residues = [[x % p for x in row] for row in m.data]
    assert exact._pivot_columns(residues, m.cols, p) == set(dm.rref()[1])


@st.composite
def field_kernel_cases(draw):
    """A matrix over F_2, F_3 or F_5, integer columns that combine its
    kernel basis there with the coefficients x, and one more column v."""
    ring = draw(st.sampled_from([F2, F3, F5]))
    m = draw(int_matrices())
    x = draw(int_matrices(rows=exact._kernel_basis(m, ring).cols, cols=draw(st.integers(0, 3))))
    v = draw(st.lists(st.integers(-6, 6), min_size=m.cols, max_size=m.cols))
    return m, ring, x, v


@PROPERTY
@given(field_kernel_cases())
def test_field_kernel_coordinates_match_the_field_solve(case):
    # The coordinates are read off the free columns of the reduced-echelon
    # basis; the oracle solves the augmented system.
    m, ring, x, _ = case
    kern = exact._kernel_basis(m, ring)
    columns = (kern * x).columns()
    coords = exact._coords_in_kernel(kern, columns, ring)
    assert coords == [[y % ring.p for y in col] for col in x.columns()]
    if kern.cols and columns:
        assert coords == oracle_solve_field(kern.columns(), columns, ring)


@PROPERTY
@given(field_kernel_cases())
@example((IntMatrix.identity(2), F3, IntMatrix(0, 2), [0, 3]))
@example((IntMatrix.identity(2), F3, IntMatrix(0, 0), [1, 0]))
@example((IntMatrix(0, 2), F2, IntMatrix(2, 0), [1, 3]))
def test_columns_outside_the_field_kernel_are_rejected(case):
    # A column has coordinates exactly when m kills it mod p; an empty
    # kernel takes only columns that vanish mod p.
    m, ring, _, v = case
    kern = exact._kernel_basis(m, ring)
    in_kernel = not any(y % ring.p for y in m.mul_vector(v))
    try:
        [coords] = exact._coords_in_kernel(kern, [v], ring)
    except ValueError as e:
        assert str(e) == "image does not lie in the kernel" and not in_kernel
    else:
        assert in_kernel and len(coords) == kern.cols
        assert all((y - z) % ring.p == 0 for y, z in zip(kern.mul_vector(coords), v))


@PROPERTY
@given(int_matrices())
def test_rank_over_q_matches_oracle_and_sympy(m):
    assert rank_over_q(m) == oracle_rank_field(m, Q)
    assert rank_over_q(m) == sympy.Matrix(m.rows, m.cols, [x for row in m.data for x in row]).rank()


@st.composite
def lattice_generators(draw):
    """Integer matrices of any rank: dense ones, and products through an
    inner dimension of at most three, which repeat their lattice."""
    if draw(st.booleans()):
        return draw(int_matrices(entries=st.integers(-6, 6)))
    inner = draw(st.integers(0, 3))
    a = draw(int_matrices(cols=inner))
    return a * draw(int_matrices(rows=inner))


@PROPERTY
@given(st.one_of(int_matrices(), lattice_generators()))
def test_pivots_over_q_are_the_oracle_rref_pivots(m):
    # The lead columns of the row HNF are the first independent columns,
    # which are the pivot columns of the reduced row echelon form over Q.
    assert _pivots_over_q(m) == oracle_rref_p(oracle_field_matrix(m, Q), m.cols)


@PROPERTY
@given(lattice_generators())
def test_hermite_normal_form_matches_the_explicit_transform_oracle(m):
    # H is canonical; U is any unimodular transform with m*U = H.
    h, u = hermite_normal_form(m)
    assert h == oracle_hermite_normal_form(m)[0]
    assert m * u == h
    assert abs(det_int(u)) == 1
    assert hnf_basis(m) == oracle_hnf_basis(m)


@PROPERTY
@given(lattice_generators())
@example(IntMatrix(0, 0))
@example(IntMatrix(0, 3))
@example(IntMatrix(3, 0))
@example(IntMatrix(2, 3))
def test_kernel_lattice_matches_the_hermite_transform_oracle(m):
    kern = kernel_lattice(m)
    assert kern == oracle_kernel_lattice(m)
    assert (m * kern).data == [[0] * kern.cols for _ in range(m.rows)]


@st.composite
def hnf_inputs(draw):
    """Integer matrices up to 40 x 40 for the row HNF: dense ones with
    entries up to +-50, sparse ones, and products through a small inner
    dimension, whose rows repeat their lattice. The entries come from a
    seeded generator, so that a large matrix is one draw."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = draw(st.sampled_from([1, 3, 50]))
    kind = draw(st.sampled_from(["dense", "sparse", "product"]))

    def entries(r, c, density):
        def entry():
            return rng.randint(-bound, bound) if rng.random() < density else 0

        return [[entry() for _ in range(c)] for _ in range(r)]

    if kind == "product":
        inner = rng.randint(0, 4)
        a = IntMatrix(rows, inner, entries(rows, inner, 1.0))
        return a * IntMatrix(inner, cols, entries(inner, cols, 1.0))
    return IntMatrix(rows, cols, entries(rows, cols, 1.0 if kind == "dense" else 0.15))


def _check_row_hnf(m, ride):
    """The insertion HNF of the rows of m as dict rows, with identity
    columns riding along when `ride`, against the Euclidean oracle."""
    h, _ = oracle_row_hnf(m)
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.data]
    if ride:
        for i, row in enumerate(rows):
            row[m.cols + i] = 1
    r = exact._row_hnf(rows, m.cols, ride=ride)
    # Only nonzeros are kept: a stored zero would be taken for a lead.
    assert all(all(row.values()) for row in rows)
    dense = [[row.get(j, 0) for j in range(m.cols + m.rows * ride)] for row in rows]
    assert r == sum(1 for row in h.data if any(row))
    assert [row[: m.cols] for row in dense] == h.data
    if ride:
        u = IntMatrix(m.rows, m.rows, [row[m.cols :] for row in dense])
        assert (u * m).data == h.data
        assert det_int(u) in (1, -1)


@PROPERTY
@given(hnf_inputs(), st.booleans())
@example(IntMatrix(0, 0), False)
@example(IntMatrix(0, 3), False)
@example(IntMatrix(3, 0), False)
@example(IntMatrix(0, 0), True)
@example(IntMatrix(0, 3), True)
@example(IntMatrix(3, 0), True)
def test_row_hnf_matches_the_euclidean_oracle(m, ride):
    # Insertion and Euclid reach the same canonical H: the same rank, the
    # same pivot rows and zero rows below them. With identity columns riding
    # along, the trailing block is a unimodular U with U*m = H.
    _check_row_hnf(m, ride)


@st.composite
def sparse_generators(draw):
    """Stacks of up to 60 generator rows with at most three nonzeros each,
    some of them large, as the module build stacks its covers' bases."""
    rows, cols = draw(st.integers(0, 60)), draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    data = [[0] * cols for _ in range(rows)]
    for row in data:
        for _ in range(rng.randint(0, 3)):
            row[rng.randrange(cols)] = rng.choice([1, -1, 2, -3, rng.randint(-10**6, 10**6)])
    return IntMatrix(rows, cols, data)


@PROPERTY
@given(sparse_generators(), st.booleans())
def test_row_hnf_of_sparse_generators_matches_the_euclidean_oracle(m, ride):
    _check_row_hnf(m, ride)


class _CountedRow(dict):
    """A dict row that counts how often its entries are read."""

    reads = 0

    def _read(name):
        def read(self, *args):
            _CountedRow.reads += 1
            return getattr(dict, name)(self, *args)

        return read

    __getitem__, __iter__, get, items, keys = map(_read, ("__getitem__", "__iter__", "get", "items", "keys"))


@st.composite
def full_lattice_stacks(draw):
    """More than `ncols` generators of Z^ncols: `ncols` unitriangular rows
    in any order among sparse extra rows, and one extra row after them."""
    cols = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def sparse(start):
        return {j: rng.randint(-50, 50) for j in range(start, cols) if rng.random() < 0.3}

    units = [{i: 1, **sparse(i + 1)} for i in range(cols)]
    extra = [sparse(0) for _ in range(draw(st.integers(1, 2 * cols)))]
    rows = units + extra[:-1]
    rng.shuffle(rows)
    return cols, [{j: x for j, x in row.items() if x} for row in rows + extra[-1:]]


@PROPERTY
@given(full_lattice_stacks())
def test_row_hnf_takes_the_full_lattice_exit(stack):
    # Once the unit rows are in, the rows generate Z^ncols: the last row is
    # never read, and the result is still the oracle's, the identity and
    # zero rows.
    cols, rows = stack
    m = IntMatrix(len(rows), cols, [[row.get(j, 0) for j in range(cols)] for row in rows])
    rows[-1] = _CountedRow(rows[-1])
    _CountedRow.reads = 0
    assert exact._row_hnf(rows, cols) == cols
    assert _CountedRow.reads == 0
    h, _ = oracle_row_hnf(m)
    assert [[row.get(j, 0) for j in range(cols)] for row in rows] == h.data
    assert h.data == IntMatrix.identity(cols).data + [[0] * cols for _ in range(m.rows - cols)]


@pytest.mark.parametrize("m", [1, 4, 9])
def test_row_hnf_stops_at_the_full_lattice(m, monkeypatch):
    # m rows with unit pivots generate Z^m, so the rows after them are never
    # read, and the result is still the oracle's: the identity, then zero rows.
    monkeypatch.setattr(_CountedRow, "reads", 0)
    rng = random.Random(m)
    units = [[0] * i + [1] + [rng.randint(-9, 9) for _ in range(m - i - 1)] for i in range(m)]
    rng.shuffle(units)
    rest = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(2 * m)]
    rows = [{j: x for j, x in enumerate(row) if x} for row in units]
    rows += [_CountedRow({j: x for j, x in enumerate(row) if x}) for row in rest]
    assert exact._row_hnf(rows, m) == m
    assert _CountedRow.reads == 0
    h, _ = oracle_row_hnf(IntMatrix(3 * m, m, units + rest))
    assert [[row.get(j, 0) for j in range(m)] for row in rows] == h.data
    assert h.data == IntMatrix.identity(m).data + [[0] * m for _ in range(2 * m)]


@PROPERTY
@given(systems())
def test_solve_exact_matches_sympy(system):
    a, b = system
    if not a.cols or not b.cols:
        return
    outcome = _outcome(solve_exact, a, b)
    sa, sb = sympy.Matrix(a.data), sympy.Matrix(b.data)
    if isinstance(outcome, tuple):
        rank_deficient = sa.rank() < a.cols
        assert outcome[1] == ("matrix does not have full column rank" if rank_deficient else "inconsistent system")
        if not rank_deficient:
            with pytest.raises(ValueError):
                sa.gauss_jordan_solve(sb)
        return
    sol, params = sa.gauss_jordan_solve(sb)
    assert params.shape[0] == 0
    assert outcome == [[sympy.Rational(x) for x in sol.row(i)] for i in range(a.cols)]


def _pairs(wf, ring):
    fan = wf.fan
    for p in range(fan.dim + 1):
        cx = bm_chain_complex(fan, p, ring)
        for q in cx.degrees:
            yield cx.boundary_in(q), cx.boundary_out(q)


FANS = {name: lambda name=name: parse_fan(fixtures.text(name))
        for name in ["cross", "curve_r3", "surface_r4", "surface_r3", "u34_bergman"]}
FANS["u35"] = lambda: bergman_fan(Matroid.uniform(3, 5))
FANS["mk4"] = lambda: bergman_fan(graphic_k4())


@pytest.mark.parametrize("ring", [Z, F3], ids=str)
@pytest.mark.parametrize("name", sorted(FANS))
def test_homology_of_pair_matches_oracle_elimination(name, ring, monkeypatch):
    pairs = list(_pairs(FANS[name](), ring))
    fast = [homology_of_pair(b_in, b_out, ring) for b_in, b_out in pairs]
    monkeypatch.setattr(exact, "solve_int", oracle_solve_int)
    monkeypatch.setattr(exact, "kernel_field", oracle_kernel_field)
    monkeypatch.setattr(exact, "_pivot_columns", oracle_rref_p)
    slow = [homology_of_pair(b_in, b_out, ring) for b_in, b_out in pairs]
    assert [g for g, _ in fast] == [g for g, _ in slow]
    assert [reps for _, reps in fast] == [reps for _, reps in slow]


def _scaled(name, factor):
    """A fixture with every weight multiplied by a rational factor, over Q."""
    wf = parse_fan(fixtures.text(name))
    return WeightedFan(wf.fan, Q, {f: w * factor for f, w in wf.weights.items()})


Q_FANS = dict(FANS)
Q_FANS["surface_r4_2/3"] = lambda: _scaled("surface_r4", Fraction(2, 3))
Q_FANS["surface_r3_2/3"] = lambda: _scaled("surface_r3", Fraction(2, 3))


def _all_pairs(fan):
    """(boundary_in, boundary_out) of every degree of the global complexes
    and of the star complexes of every face, over Q."""
    for p in range(fan.dim + 1):
        for cx in [bm_chain_complex(fan, p, Q)] + [star_bm_complex(fan, g, p, Q) for g in range(fan.face_count())]:
            for q in cx.degrees:
                yield cx.boundary_in(q), cx.boundary_out(q)


@pytest.mark.parametrize("name", sorted(Q_FANS))
def test_q_homology_matches_field_oracle(name):
    # Q rides the integer engine: dimensions, cycles and independence modulo
    # the image are checked against the Fraction elimination.
    for b_in, b_out in _all_pairs(Q_FANS[name]().fan):
        group, reps = homology_of_pair(b_in, b_out, Q)
        rank_in = oracle_rank_field(b_in, Q)
        assert group == GroupPresentation(b_out.cols - oracle_rank_field(b_out, Q) - rank_in)
        assert len(reps) == group.free_rank
        for rep in reps:
            assert all(type(x) is int for x in rep)
            assert not any(b_out.mul_vector(rep))
        if reps:
            stacked = b_in.hstack(IntMatrix.from_cols(reps, rows=b_in.rows))
            assert oracle_rank_field(stacked, Q) == rank_in + len(reps)


def _oracle_cap(cap):
    """Kernel coordinates, verdict and witness of a cap by the Fraction path."""
    kern = cap.kernel_basis
    if cap.domain_rank != kern.cols:
        return None, False, f"rank mismatch {cap.domain_rank} vs {kern.cols}"
    if kern.cols == 0:
        return [[] for _ in cap.ambient_columns], True, None
    coords = oracle_solve_field(kern.columns(), cap.ambient_columns, Q)
    det = sympy.Matrix(coords).det()
    det = Fraction(int(det.p), int(det.q))
    return coords, det != 0, f"determinant {det}"


@pytest.mark.parametrize("name", sorted(Q_FANS))
def test_q_caps_match_field_oracle(name):
    wf = Q_FANS[name]().with_ring(Q)
    for gamma in range(wf.fan.face_count()):
        for p in range(wf.fan.dim + 1):
            cap = cap_star(wf, gamma, p)
            coords, verdict, witness = _oracle_cap(cap)
            assert all(type(x) in (int, Fraction) for col in cap.kernel_columns for x in col)
            if coords is not None:
                assert cap.kernel_columns == coords
            assert cap.is_isomorphism() == verdict
            if not verdict:
                assert cap.failure_witness() == witness
