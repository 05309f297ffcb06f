"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from tropfan.exact import GroupPresentation, RingTag, homology_of_pair
from tropfan.fans import WeightedFan, build_fan
from tropfan.intmat import IntMatrix
from tropfan.matroids import Matroid, bergman_fan

Z = RingTag.Z()
Q = RingTag.Q()
F2 = RingTag.Fp(2)
F3 = RingTag.Fp(3)


def weighted(fan, weights, ring=Z):
    return WeightedFan(fan, ring, dict(zip(fan.top_faces(), weights)))


def cross_fan():
    return build_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0], [1], [2], [3]])


def curve_fan():
    return build_fan(3, [(1, 0, 2), (-1, 0, 0), (0, -1, 0), (0, 1, -2)], [[0], [1], [2], [3]])


def line_fan(rank=1):
    e = tuple([1] + [0] * (rank - 1))
    ne = tuple(-x for x in e)
    return build_fan(rank, [e, ne], [[0], [1]])


def _content(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def random_balanced_curve(rng: random.Random):
    """A random balanced one-dimensional fan: 3-8 rays in rank 2-4 with
    weights from {+-1, +-2, +-3}."""
    while True:
        rank = rng.randint(2, 4)
        m = rng.randint(3, 8)
        rays = []
        weights = []
        ok = True
        for _ in range(m - 1):
            for _attempt in range(50):
                v = tuple(rng.randint(-3, 3) for _ in range(rank))
                c = _content(v)
                if c == 0:
                    continue
                v = tuple(x // c for x in v)
                if v not in rays:
                    rays.append(v)
                    weights.append(rng.choice([1, -1, 2, -2, 3, -3]))
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        s = [sum(w * r[i] for w, r in zip(weights, rays)) for i in range(rank)]
        g = _content(s)
        if g == 0 or g > 3:
            continue
        last = tuple(-x // g for x in s)
        if last in rays:
            continue
        rays.append(last)
        weights.append(g)
        fan = build_fan(rank, rays, [[i] for i in range(len(rays))])
        return fan, weights


def graphic_k4():
    """M(K4): the spanning trees of the complete graph on four vertices."""
    edges = list(combinations(range(4), 2))
    bases = []
    for tree in combinations(range(len(edges)), 3):
        covered = {v for e in tree for v in edges[e]}
        # Three edges form a tree iff they touch all four vertices; the only
        # three-edge cycles are triangles, which touch three.
        if len(covered) == 4:
            bases.append(list(tree))
    return Matroid(len(edges), bases)


BASE_MATROIDS = [
    Matroid(3, [[0, 1, 2]]),  # Boolean on 3 elements
    Matroid.uniform(3, 4),
    Matroid.uniform(3, 5),
]


def stellar_subdivide(wf: WeightedFan, cone_index: int) -> WeightedFan:
    """Subdivide one two-dimensional cone at the primitive sum of its rays."""
    fan = wf.fan
    tops = fan.top_faces()
    fid = tops[cone_index % len(tops)]
    i, j = fan.faces[fid].ray_indices
    rays = [list(r) for r in fan.rays]
    s = [a + b for a, b in zip(rays[i], rays[j])]
    c = _content(s)
    s = [x // c for x in s]
    if tuple(s) in {tuple(r) for r in rays}:
        return wf
    rays.append(s)
    k = len(rays) - 1
    cones = []
    weights = []
    for t in tops:
        w = wf.weight(t)
        if t == fid:
            cones.extend([[i, k], [k, j]])
            weights.extend([w, w])
        else:
            cones.append(list(fan.faces[t].ray_indices))
            weights.append(w)
    new_fan = build_fan(fan.ambient_rank, rays, cones)
    return WeightedFan(new_fan, wf.ring, {new_fan.face_by_rays(c): w for c, w in zip(cones, weights)})


def random_surface(rng: random.Random) -> WeightedFan:
    """A random balanced two-dimensional fan: a Bergman fan with a few
    stellar subdivisions and a global weight scale."""
    wf = bergman_fan(rng.choice(BASE_MATROIDS))
    for _ in range(rng.randint(0, 2)):
        wf = stellar_subdivide(wf, rng.randrange(100))
    scale = rng.choice([1, -1, 2, -2, 3])
    weights = {fid: w * scale for fid, w in wf.weights.items()}
    return WeightedFan(wf.fan, Z, weights)


# ---------------------------------------------------------------------------
# Independent oracles


def contraction_oracle(x, y, p1, p2, m):
    """The permutation-sum definition of the interior product, evaluated
    term by term over shuffles (independent of the lex basis formula)."""
    k_subsets = list(combinations(range(m), p1))
    j_subsets = list(combinations(range(m), p2))
    out_subsets = list(combinations(range(m), p2 - p1))
    out_index = {s: i for i, s in enumerate(out_subsets)}
    out = [0] * len(out_subsets)
    base_sign = (-1) ** (p1 * (p1 - 1) // 2)
    for ki, K in enumerate(k_subsets):
        if x[ki] == 0:
            continue
        for ji, J in enumerate(j_subsets):
            if y[ji] == 0:
                continue
            # Sum over shuffles of positions 0..p2-1.
            for first in combinations(range(p2), p1):
                rest = tuple(t for t in range(p2) if t not in first)
                perm = list(first) + list(rest)
                inv = sum(
                    1
                    for a in range(p2)
                    for b in range(a + 1, p2)
                    if perm[a] > perm[b]
                )
                sign = (-1) ** inv
                # Product of dual pairings f_{K_i}(e_{J_{perm[i]}}).
                prod = 1
                for idx, kk in enumerate(K):
                    if J[perm[idx]] != kk:
                        prod = 0
                        break
                if prod == 0:
                    continue
                tail = tuple(J[t] for t in rest)
                wedge_sign = _sort_sign(tail)
                out[out_index[tuple(sorted(tail))]] += (
                    base_sign * sign * wedge_sign * x[ki] * y[ji]
                )
    return out


def _sort_sign(seq):
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])
    return (-1) ** inv


# ---------------------------------------------------------------------------
# The Fraction elimination that the fraction-free and row-sparse kernels
# replaced, kept verbatim as oracles for them.


def oracle_solve_exact(a: IntMatrix, b: IntMatrix):
    """Solve a*X = b over Q for a with full column rank.

    Returns the unique rational solution as a list-of-lists of Fractions, or
    raises ValueError when the system is inconsistent or a has dependent
    columns. a may be rectangular (rows >= cols).
    """
    rows, cols = a.rows, a.cols
    if b.rows != rows:
        raise ValueError("shape mismatch in solve")
    # Gaussian elimination on the augmented system, over Fractions.
    aug = [[Fraction(a.data[i][j]) for j in range(cols)] + [Fraction(x) for x in b.data[i]]
           for i in range(rows)]
    width = cols + b.cols
    piv_rows = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if p is None:
            raise ValueError("matrix does not have full column rank")
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_rows.append(r)
        r += 1
    # Consistency: rows beyond the pivot rows must be zero on the rhs too.
    for i in range(r, rows):
        if any(aug[i][j] != 0 for j in range(cols, width)):
            raise ValueError("inconsistent system")
    return [[aug[i][cols + j] for j in range(b.cols)] for i in range(cols)]


def oracle_solve_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a*X = b insisting on an integral solution."""
    sol = oracle_solve_exact(a, b)
    out = []
    for row in sol:
        int_row = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("solution is not integral")
            int_row.append(int(x))
        out.append(int_row)
    return IntMatrix(a.cols, b.cols, out)


def _oracle_modulus(ring: RingTag):
    """p over F_p; None over Q, whose entries are Fractions."""
    return ring.p if ring.kind == "Fp" else None


def oracle_rref(a, rows, cols, p=None):
    """Dense column-order Gauss-Jordan elimination of the first `cols`
    columns of the rows `a`, in place: over F_p on ints in [0, p), over Q
    on Fractions when p is None. Each pivot row updates the other rows in
    its nonzero columns. Returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(cols):
        i0 = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if i0 is None:
            continue
        a[r], a[i0] = a[i0], a[r]
        if p is None:
            inv = 1 / a[r][c]
            a[r] = [inv * x for x in a[r]]
        else:
            inv = pow(a[r][c], p - 2, p)
            a[r] = [inv * x % p for x in a[r]]
        prow = a[r]
        support = [j for j, y in enumerate(prow) if y != 0]
        for i in range(rows):
            row = a[i]
            f = row[c]
            if i == r or f == 0:
                continue
            if p is None:
                for j in support:
                    row[j] -= f * prow[j]
            else:
                for j in support:
                    row[j] = (row[j] - f * prow[j]) % p
        pivots.append(c)
        r += 1
    return pivots


def oracle_rref_p(a, cols, p=None):
    """oracle_rref behind the signature of tropfan.exact._pivot_columns."""
    return oracle_rref(a, len(a), cols, p)


def _oracle_entries(rows, p):
    """The rows as residues mod p, or as Fractions when p is None."""
    if p is None:
        return [[Fraction(x) for x in row] for row in rows]
    return [[x % p for x in row] for row in rows]


def oracle_field_matrix(m: IntMatrix, ring: RingTag):
    return _oracle_entries(m.data, _oracle_modulus(ring))


def oracle_rank_field(m: IntMatrix, ring: RingTag) -> int:
    a = oracle_field_matrix(m, ring)
    return len(oracle_rref(a, m.rows, m.cols, _oracle_modulus(ring)))


def oracle_kernel_field(m: IntMatrix, ring: RingTag):
    """Kernel basis over F_p, as a list of coordinate columns."""
    p = ring.p
    a = oracle_field_matrix(m, ring)
    pivots = oracle_rref(a, m.rows, m.cols, p)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for c in free:
        vec = [0] * m.cols
        vec[c] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][c] % p
        basis.append(vec)
    return basis


def oracle_solve_field(a_cols, b_cols, ring: RingTag):
    """The field solve that the integer kernel-coordinate solve replaced over
    Q: A*X = B by Gauss-Jordan elimination on the augmented columns."""
    p = _oracle_modulus(ring)
    n, ca, cb = len(a_cols[0]), len(a_cols), len(b_cols)
    aug = _oracle_entries([[col[i] for col in a_cols + b_cols] for i in range(n)], p)
    pivots = oracle_rref(aug, n, ca + cb, p)
    if any(c >= ca for c in pivots) or len(pivots) != ca:
        raise ValueError("no unique solution over the field")
    return [[aug[r][ca + j] for r in range(ca)] for j in range(cb)]


# ---------------------------------------------------------------------------
# The HNF with an explicit transform, the all-maximal-cofaces module loop and
# the cap-layer solves that the ride-along HNF, the cover recursion and the
# top-face wedge convention replaced, kept as oracles for them.


def oracle_row_hnf(m: IntMatrix):
    """Row-style HNF: returns (H, U) with H = U*m, U unimodular.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows sit at the bottom.
    """
    rows, cols = m.rows, m.cols
    a = [row[:] for row in m.data]
    u = IntMatrix.identity(rows).data
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # Euclidean reduction in column c on rows r..end.
        while True:
            nz = [i for i in range(r, rows) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, rows):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            piv = a[r][c]
            for i in range(r):
                q = a[i][c] // piv
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return IntMatrix(rows, cols, a), IntMatrix(rows, rows, u)


def oracle_hermite_normal_form(m: IntMatrix):
    """Column-style HNF (H, U) with H = m*U, from the row HNF of m^T."""
    ht, ut = oracle_row_hnf(m.transpose())
    return ht.transpose(), ut.transpose()


def oracle_hnf_basis(m: IntMatrix) -> IntMatrix:
    h, _ = oracle_hermite_normal_form(m)
    keep = [j for j in range(h.cols) if any(h.data[i][j] != 0 for i in range(h.rows))]
    return h.submatrix(range(h.rows), keep)


def oracle_kernel_lattice(m: IntMatrix) -> IntMatrix:
    """The saturated kernel basis as `kernel_lattice` built it before: the
    zero columns of the column HNF H = m*U select the kernel columns of U,
    and their HNF basis is the answer."""
    if m.rows == 0:
        return IntMatrix.identity(m.cols)
    h, u = oracle_hermite_normal_form(m)
    zero_cols = [j for j in range(h.cols) if all(h.data[i][j] == 0 for i in range(h.rows))]
    basis = u.submatrix(range(u.rows), zero_cols)
    if basis.cols == 0:
        return basis
    return oracle_hnf_basis(basis)


def oracle_multitangent_bases(fan, p: int):
    """Face id -> basis of F_p: the HNF of the wedge powers of all maximal
    cofaces of the face, a maximal face keeping its own wedge power."""
    basis = {}
    for fid in range(fan.face_count()):
        tops = fan.maximal_cofaces(fid)
        if tops == [fid]:
            basis[fid] = oracle_wedge_basis(fan.faces[fid].lattice_basis, p)
        else:
            mats = [oracle_wedge_basis(fan.faces[a].lattice_basis, p) for a in tops]
            columns = [col for m in mats for col in m.columns()]
            basis[fid] = oracle_hnf_basis(IntMatrix.from_cols(columns, rows=mats[0].rows))
    return basis


def oracle_orientation_coordinate(fan, alpha: int) -> int:
    """Coordinate of the orientation generator of the top wedge module at
    alpha in the stored basis, by an integer solve."""
    lam = oracle_wedge_basis(fan.faces[alpha].lattice_basis, fan.dim)
    eps = oracle_solve_int_elimination(fan.multitangent(fan.dim).basis[alpha], lam)
    if abs(eps.data[0][0]) != 1:
        raise AssertionError("stored top basis is not a generator")
    return eps.data[0][0]


def oracle_cap_change(fan, alpha: int, p: int) -> IntMatrix:
    """Contraction against Lambda_alpha from stored dual degree-p coordinates
    at alpha to the stored degree-(d-p) basis at alpha, by four solves."""
    from tropfan.duality import _contraction_against_top

    d = fan.dim
    basis_alpha = fan.faces[alpha].lattice_basis
    # Dual coordinates: stored basis -> wedge basis of the face basis.
    t_p = oracle_solve_int_elimination(oracle_wedge_basis(basis_alpha, p), fan.multitangent(p).basis[alpha])
    dual_change = oracle_solve_int_elimination(t_p, IntMatrix.identity(t_p.rows)).transpose()
    contr = _contraction_against_top(d, p)
    t_dp = oracle_solve_int_elimination(oracle_wedge_basis(basis_alpha, d - p), fan.multitangent(d - p).basis[alpha])
    back = oracle_solve_int_elimination(t_dp, IntMatrix.identity(t_dp.rows))
    return back * contr * dual_change


def oracle_cap_block(fan, alpha: int, gamma: int, p: int) -> IntMatrix:
    """The cap block as a product of whole matrices: the dual-coordinate
    change of `oracle_cap_change` (its four solves kept per alpha and p
    under the oracle's own memo key) times the transposed inclusion."""
    rho = fan.multitangent(p).inclusion(alpha, gamma).transpose()
    return fan.memo(("oracle_cap_change", alpha, p), lambda: oracle_cap_change(fan, alpha, p)) * rho


def square_cone_fan():
    """The cone over a square: one non-simplicial maximal cone, with its
    faces listed explicitly."""
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    faces = [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [0, 3], [0, 1, 2, 3]]
    return build_fan(3, rays, [[0, 1, 2, 3]], explicit_faces=faces)


def convention_fans():
    """The fans the module and cap conventions are checked on: the five
    fixtures, the Bergman fans of U(3,5), M(K4) and U(4,5), and the cone
    over a square."""
    from tropfan import fixtures

    fans = [(name, fixtures.load(name).fan) for name in fixtures.NAMES]
    fans += [
        ("U(3,5)", bergman_fan(Matroid.uniform(3, 5)).fan),
        ("M(K4)", bergman_fan(graphic_k4()).fan),
        ("U(4,5)", bergman_fan(Matroid.uniform(4, 5)).fan),
        ("square_cone", square_cone_fan()),
    ]
    return fans


def construction_fans():
    """`convention_fans()` and three cones that are not unimodular: an
    unsaturated cone, a primitive ray whose HNF pivot is 2 and a cone of
    index 6. Below each cone every face has a single cover, and a maximal
    face's wedge basis need not be an HNF."""
    return convention_fans() + [
        ("unsaturated cone", build_fan(2, [(1, 0), (1, 2)], [[0, 1]])),
        ("primitive ray (2,1)", build_fan(2, [(2, 1)], [[0]])),
        ("index-6 cone", build_fan(3, [(1, 0, 0), (1, 2, 0), (1, 1, 3)], [[0, 1, 2]])),
    ]


def oracle_homology_of_pair(boundary_in: IntMatrix, boundary_out: IntMatrix, ring: RingTag):
    """ker(boundary_out)/im(boundary_in) over the ring, as `homology_of_pair`
    computed it before unit-pivot reduction decided the group: a kernel
    basis, the image solved into it and its SNF, for every pair.

    boundary_out maps the middle group outward, boundary_in maps into it;
    their composition must vanish. Returns (GroupPresentation, reps) where
    reps is a list of coordinate columns in the middle group: torsion
    generators first (matching invariant factor order), then free generators.

    Z and Q share the integer path. The matrices define free Z-modules, so
    the Q group is the free part of the Z group and its representatives are
    the integer free generators. Only F_p eliminates mod p.
    """
    n = boundary_out.cols
    if boundary_in.rows != n:
        raise ValueError("boundary shapes do not match")
    comp = boundary_out * boundary_in
    comp_zero = (
        all(x % ring.p == 0 for row in comp.data for x in row)
        if ring.kind == "Fp"
        else comp.is_zero()
    )
    if not comp_zero:
        raise ValueError("not a complex: boundary_out * boundary_in != 0")

    if ring.kind == "Fp":
        kb = oracle_kernel_field(boundary_out, ring)
        if not kb:
            return GroupPresentation(0), []
        if boundary_in.cols == 0:
            return GroupPresentation(len(kb)), kb
        img_cols = oracle_field_matrix(boundary_in.transpose(), ring)
        x = oracle_solve_field(kb, img_cols, ring)  # columns in kernel coordinates
        k = len(kb)
        pivot_rows = oracle_rref_p(x, k, ring.p)
        reps = []
        for i in range(k):
            if i not in pivot_rows:
                reps.append(kb[i])
        return GroupPresentation(len(reps)), reps

    # Z and Q: SNF of the image expressed in the kernel lattice basis.
    kmat = oracle_kernel_lattice(boundary_out)
    k = kmat.cols
    if k == 0:
        return GroupPresentation(0), []
    if boundary_in.cols == 0:
        return GroupPresentation(k), kmat.columns()
    x = oracle_solve_int_elimination(kmat, boundary_in)  # integral since im lies in the kernel lattice
    s, u, _ = oracle_smith_normal_form(x)
    u_inv = oracle_solve_int_elimination(u, IntMatrix.identity(u.rows))
    adapted = kmat * u_inv
    diag = [s.data[i][i] for i in range(min(s.rows, s.cols))]
    rank_x = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    reps = [adapted.column(i) for i in range(rank_x) if diag[i] > 1]
    reps += [adapted.column(i) for i in range(rank_x, k)]
    if ring.kind == "Q":
        return GroupPresentation(k - rank_x), reps[len(torsion):]
    return GroupPresentation(k - rank_x, torsion), reps


def oracle_smith_normal_form(m: IntMatrix):
    """Returns (S, U, V) with S = U*m*V diagonal, nonnegative, d_i | d_{i+1}.
    A copy of `exact.smith_normal_form`, kept so that the homology oracle's
    torsion and representatives do not come from the engine it checks."""
    rows, cols = m.rows, m.cols
    s = [row[:] for row in m.data]
    u = IntMatrix.identity(rows).data
    v = IntMatrix.identity(cols).data

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        s[dst] = [x - q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in s:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while True:
        # Locate a pivot of minimal absolute value in the trailing block.
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # Clear column t.
            redo = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    addmul_row(i, t, q)
                    if s[i][t] != 0:
                        swap_rows(i, t)
                        redo = True
            if redo:
                continue
            # Clear row t.
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    addmul_col(j, t, q)
                    if s[t][j] != 0:
                        swap_cols(j, t)
                        redo = True
            if redo:
                continue
            # Enforce divisibility of the trailing block by the pivot.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, -1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t >= min(rows, cols):
            break
    return IntMatrix(rows, cols, s), IntMatrix(rows, rows, u), IntMatrix(cols, cols, v)


# ---------------------------------------------------------------------------
# The fraction-free Gauss-Jordan elimination that every rank and solve over
# Z and Q ran before the insertion HNF took them over, kept verbatim.


def _gauss_jordan_ff(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of the first `ncols` columns.

    `rows` is a list of int lists, reduced in place; row operations act on
    whole rows, so trailing columns (a right-hand side) ride along. Pivots
    are chosen column by column, each from the first remaining row with a
    nonzero entry, exactly as Gaussian elimination over Q would choose them.
    On return rows[k] is a positive integer multiple of the k-th row of the
    reduced row echelon form over Q, so its pivot entry is positive and the
    other pivot columns are zero. Only the nonzero columns of the pivot row
    are updated, and an updated row that had to be scaled is divided by its
    content, which keeps the entries small. Returns the pivot columns.
    """
    pivots = []
    n = len(rows)
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        prow = rows[p]
        rows[p] = rows[r]
        if prow[c] < 0:
            prow = [-x for x in prow]
        rows[r] = prow
        piv = prow[c]
        support = [j for j, x in enumerate(prow) if x]
        for i in range(n):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            g = gcd(piv, f)
            scale, f = piv // g, f // g
            if scale != 1:
                row = [scale * x for x in row]
            for j in support:
                row[j] -= f * prow[j]
            if scale != 1:
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
            rows[i] = row
        pivots.append(c)
        r += 1
    return pivots


def _solve_ff(a: IntMatrix, b: IntMatrix):
    """Solve a*X = b for a with full column rank, without fractions.

    Returns one (pivot, numerators) pair per row of X: that row is the
    numerators divided by the pivot, which is positive. Raises ValueError
    when the shapes differ, when a has dependent columns or when the system
    is inconsistent, checked in that order.
    """
    rows, cols = a.rows, a.cols
    if b.rows != rows:
        raise ValueError("shape mismatch in solve")
    aug = [ra + rb for ra, rb in zip(a.data, b.data)]
    if len(_gauss_jordan_ff(aug, cols)) != cols:
        raise ValueError("matrix does not have full column rank")
    # Consistency: rows beyond the pivot rows must be zero on the rhs too.
    if any(any(row[cols:]) for row in aug[cols:]):
        raise ValueError("inconsistent system")
    return [(row[k], row[cols:]) for k, row in enumerate(aug[:cols])]


# ---------------------------------------------------------------------------
# Fan and module construction as it was before solves against echelon bases
# became forward substitution, kept verbatim as oracles for it.


def oracle_solve_int_elimination(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a*X = b insisting on an integral solution, always through the
    fraction-free elimination."""
    out = []
    for piv, nums in _solve_ff(a, b):
        if piv != 1:
            quotients = [divmod(x, piv) for x in nums]
            if any(rem for _, rem in quotients):
                raise ValueError("solution is not integral")
            nums = [q for q, _ in quotients]
        out.append(nums)
    return IntMatrix(a.cols, b.cols, out)


def oracle_coords_det_sign(basis: IntMatrix, mat: IntMatrix) -> int:
    """Sign of det(X) for the square solution X of basis * X = mat, from the
    numerators of the fraction-free solution."""
    from tropfan.intmat import det_int

    rows = [nums for _, nums in _solve_ff(basis, mat)]
    det = det_int(IntMatrix(len(rows), mat.cols, rows))
    return (det > 0) - (det < 0)


def oracle_face_basis(rays_matrix: IntMatrix) -> IntMatrix:
    """Saturation of the HNF of the rays, for every face."""
    from tropfan.exact import hnf_basis, saturate

    if rays_matrix.cols == 0:
        return rays_matrix
    return saturate(hnf_basis(rays_matrix))


def oracle_orient_basis(basis: IntMatrix, ray_matrix: IntMatrix) -> IntMatrix:
    """Flip the last basis column if needed so the basis orientation matches
    the orientation of the first independent rays in index order, found by
    prefix rank tests."""
    k = basis.cols
    if k == 0:
        return basis
    chosen = []
    for j in range(ray_matrix.cols):
        cand = chosen + [j]
        sub = ray_matrix.submatrix(range(ray_matrix.rows), cand)
        if oracle_rank_field(sub, Q) == len(cand):
            chosen = cand
        if len(chosen) == k:
            break
    sub = ray_matrix.submatrix(range(ray_matrix.rows), chosen)
    if oracle_coords_det_sign(basis, sub) < 0:
        flipped = basis.copy()
        for i in range(basis.rows):
            flipped.data[i][k - 1] = -flipped.data[i][k - 1]
        return flipped
    return basis


def oracle_wedge_basis(basis: IntMatrix, p: int) -> IntMatrix:
    """Wedge powers of the columns of `basis`, one determinant per minor."""
    from tropfan.intmat import det_int

    n, r = basis.rows, basis.cols
    if p < 0 or p > r:
        raise ValueError(f"wedge degree {p} out of range for rank {r}")
    row_subsets = list(combinations(range(n), p))
    col_subsets = list(combinations(range(r), p))
    out = IntMatrix(len(row_subsets), len(col_subsets))
    for j, cols in enumerate(col_subsets):
        for i, rows in enumerate(row_subsets):
            out.data[i][j] = det_int(basis.submatrix(rows, cols))
    return out


def oracle_closure(m: Matroid, subset):
    """Closure of a subset by one rank computation per ground element."""
    s = set(subset)
    r = m.rank_of(s)
    return frozenset(
        x for x in range(m.ground_size) if x in s or m.rank_of(s | {x}) == r
    )


# ---------------------------------------------------------------------------
# The dense Borel-Moore differential, and the caps and unique balancing that
# read a kernel basis of every star's top boundary, as they were before the
# differentials became sparse and the cap verdicts kernel-free; kept as
# oracles for them.


def oracle_bm_differential(fan, module, q, blocks_q, blocks_q1):
    """Block matrix of the Borel-Moore boundary from degree q to q-1."""
    rows = sum(b.rank for b in blocks_q1)
    cols = sum(b.rank for b in blocks_q)
    out = IntMatrix(rows, cols)
    tau_of = {b.face: b for b in blocks_q1}
    for bs in blocks_q:
        for tau in fan.facets_of(bs.face):
            if tau not in tau_of:
                continue
            bt = tau_of[tau]
            sign = fan.incidence_sign(tau, bs.face)
            inc = module.inclusion(bs.face, tau)
            for i in range(inc.rows):
                row = out.data[bt.offset + i]
                for j in range(inc.cols):
                    row[bs.offset + j] += sign * inc.data[i][j]
    return out


_STAR_TOP_KERNELS = {}


def oracle_star_top(fan, gamma: int, p: int, ring: RingTag):
    """The block layout of the top degree of the star of gamma in degree p,
    and the kernel basis of its dense top boundary from the oracle
    eliminations: the integer kernel lattice over Z and Q, the mod-p kernel
    over F_p. The blocks and the boundary are memoized per fan under their
    own key, and so is the kernel, Z and Q sharing one; the kernels are also
    kept across fans and test cases, one per distinct boundary and
    modulus."""
    from tropfan.complexes import _layout

    modulus = ring.p if ring.kind == "Fp" else 0

    def dense():
        module = fan.multitangent(p)
        members = fan.upper_set(gamma)
        tops = [f for f in members if fan.faces[f].dim == fan.dim]
        subs = [f for f in members if fan.faces[f].dim == fan.dim - 1]
        ranks = {f: module.rank(f) for f in tops + subs}
        blocks_top = _layout(tops, ranks)
        return blocks_top, oracle_bm_differential(fan, module, fan.dim, blocks_top, _layout(subs, ranks))

    def compute():
        blocks_top, top = fan.memo(("oracle_star_top_boundary", gamma, p), dense)
        key = (top.rows, top.cols, tuple(map(tuple, top.data)), modulus)
        if key not in _STAR_TOP_KERNELS:
            if modulus:
                cols = oracle_kernel_field(top, ring)
                kern = IntMatrix.from_cols(cols, rows=top.cols) if cols else IntMatrix(top.cols, 0)
            else:
                kern = oracle_kernel_lattice(top)
            _STAR_TOP_KERNELS[key] = kern
        return blocks_top, _STAR_TOP_KERNELS[key]

    return fan.memo(("oracle_star_top", gamma, p, modulus), compute)


def oracle_det(columns, ring: RingTag):
    """The determinant of the square matrix with these columns, by Gaussian
    elimination in Fractions, coerced into the ring (residues over F_p)."""
    rows = [[Fraction(x) for x in row] for row in zip(*columns)]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pivot is None:
            return ring.coerce(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return ring.coerce(det)


def _oracle_kernel_coords(kern: IntMatrix, columns, ring: RingTag):
    """Coordinates of columns (Fractions allowed over Q) in a kernel basis,
    by Gauss-Jordan elimination over Q, or over F_p for F_p."""
    if kern.cols == 0:
        if any(ring.coerce(x) for col in columns for x in col):
            raise ValueError("image does not lie in the kernel")
        return [[] for _ in columns]
    return oracle_solve_field(kern.columns(), columns, ring if ring.kind == "Fp" else Q)


@dataclass
class OracleCapResult:
    """The cap against the weights themselves at a face, in two forms:
    ambient columns (in the stored top-block bases) and coordinates in the
    stored kernel basis of the star's top homology. Over Q the entries are
    Fractions where the weights are."""

    base: int
    p: int
    ring: RingTag
    domain_rank: int
    blocks: list
    ambient_columns: list
    kernel_basis: IntMatrix
    kernel_columns: list

    def is_isomorphism(self) -> bool:
        if self.domain_rank != self.kernel_basis.cols:
            return False
        if self.domain_rank == 0:
            return True
        return self.ring.is_unit(oracle_det(self.kernel_columns, self.ring))

    def failure_witness(self):
        if self.domain_rank != self.kernel_basis.cols:
            return f"rank mismatch {self.domain_rank} vs {self.kernel_basis.cols}"
        return f"determinant {oracle_det(self.kernel_columns, self.ring)}"


def oracle_cap_star(wf: WeightedFan, gamma: int, p: int) -> OracleCapResult:
    """The cap product at a face: dual vectors at the face map to weighted
    contractions over its top cofaces, solved into the star's kernel basis.
    It reads the weights themselves, not the integer fundamental chain, and
    builds each block by products of whole matrices (`oracle_cap_block`)."""
    from tropfan.duality import _require_balanced, _rnorm

    _require_balanced(wf)
    fan = wf.fan
    d = fan.dim
    if not 0 <= p <= d:
        raise ValueError(f"degree {p} out of range")
    fp = fan.multitangent(p)
    ring = wf.ring
    blocks, kern = oracle_star_top(fan, gamma, d - p, ring)
    src_rank = fp.rank(gamma)
    # The blocks depend on neither the weights nor the ring.
    per_alpha = fan.memo(
        ("oracle_cap_blocks", gamma, p), lambda: {b.face: oracle_cap_block(fan, b.face, gamma, p) for b in blocks}
    )
    columns = []
    for j in range(src_rank):
        col = []
        for b in blocks:
            mat = per_alpha[b.face]
            w = wf.weight(b.face)
            for i in range(mat.rows):
                col.append(_rnorm(w * mat.data[i][j], ring))
        columns.append(col)
    kernel_columns = _oracle_kernel_coords(kern, columns, ring)
    return OracleCapResult(gamma, p, ring, src_rank, blocks, columns, kern, kernel_columns)


def oracle_star_uniquely_balanced(wf: WeightedFan, gamma: int) -> bool:
    """Whether the star kernel at gamma has rank one, generated by the
    restricted weights."""
    blocks, kern = oracle_star_top(wf.fan, gamma, wf.fan.dim, wf.ring)
    if kern.cols != 1:
        return False
    [[coord]] = _oracle_kernel_coords(kern, [[wf.weight(b.face) for b in blocks]], wf.ring)
    return wf.ring.is_unit(coord)


def oracle_star_complex(fan, gamma: int, p: int):
    """The Borel-Moore complex of the star of gamma in degree p, assembled
    directly over the star's faces, as it was before star complexes became
    restrictions of the fan's complex: `_bm_differential` over the blocks
    of the upper set of gamma. It has no ring (`ring` is None); callers
    pass one to `homology_of_pair`."""
    from tropfan.complexes import ChainComplex, _bm_differential, _layout

    module = fan.multitangent(p)
    members = fan.upper_set(gamma)
    degrees = list(range(fan.faces[gamma].dim, fan.dim + 1))
    ranks = {fid: module.rank(fid) for fid in members}
    blocks = {q: _layout([f for f in members if fan.faces[f].dim == q], ranks) for q in degrees}
    diffs = {q: _bm_differential(fan, module, q, blocks[q], blocks[q - 1]) for q in degrees[1:]}
    return ChainComplex("homological", None, degrees, blocks, diffs)


def oracle_star_tpd_report(wf: WeightedFan, gamma: int):
    """The star report at gamma with nothing read off: every degree below
    the top of the star complex eliminated by `homology_of_pair`, the lowest
    one included, and a cap built at every face, top faces included. The
    eliminations are memoized per fan and ring under their own key, since
    they do not depend on the weights."""
    from tropfan.complexes import HomologyEntry
    from tropfan.duality import TpdEntry, TpdReport, _vanishing_witness, cap_star

    fan = wf.fan
    d = fan.dim
    lo = fan.faces[gamma].dim
    entries = []
    for dp in range(d + 1):

        def eliminate(dp=dp):
            cx = oracle_star_complex(fan, gamma, dp)
            return {
                q: HomologyEntry(*homology_of_pair(cx.boundary_in(q), cx.boundary_out(q), wf.ring))
                for q in cx.degrees[:-1]
            }

        table = fan.memo(("oracle_star_below_top", gamma, dp, str(wf.ring)), eliminate)
        for qq in range(lo, d):
            e = table[qq]
            entries.append(
                TpdEntry(
                    d - dp,
                    d - qq,
                    "vanishing",
                    e.group.is_trivial,
                    "" if e.group.is_trivial else _vanishing_witness(e.group, e.representatives),
                )
            )
    for p in range(d + 1):
        cap = cap_star(wf, gamma, p)
        ok = cap.is_isomorphism()
        entries.append(TpdEntry(p, 0, "cap", ok, "" if ok else cap.failure_witness()))
    verdict = all(e.ok for e in entries)
    return TpdReport(wf.ring, verdict, entries, base=gamma)
