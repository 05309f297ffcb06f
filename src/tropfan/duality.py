"""Balancing, cap products, and tropical Poincare duality certificates.

The fundamental chain of a weighted fan pairs each top face's weight with the
orientation generator of its top wedge module. Capping against it sends a
dual vector at a face to its weighted contractions over the top cofaces; the
fan (or a star) satisfies duality when homology is concentrated in the top
degree and every such cap is bijective. All certificates work over Z, Q and
prime fields and report exact witnesses on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm, prod

from .complexes import _layout, _star, _star_kernel, star_bm_complex, star_homology_table
from .exact import RingTag, _coords_in_kernel, _rank_and_torsion, _unit_pivot_reduce
from .fans import Fan, WeightedFan
from .intmat import IntMatrix, SparseIntMatrix, det_int


class TheoremViolation(RuntimeError):
    """An internal cross-check of a proved equivalence failed: a bug."""


class UnbalancedFanError(ValueError):
    """A certificate was asked of a weighted fan that is not balanced."""


# ---------------------------------------------------------------------------
# Contraction


def contract(x, y, p1: int, p2: int, m: int):
    """Interior product: contract a degree-p1 dual wedge against a degree-p2
    wedge over a rank-m free module, in lex wedge-monomial coordinates.

    On basis elements: f_K -| e_J = 0 unless K is contained in J, and
    otherwise equals (-1)^(v + p1(p1-1)/2) e_{J\\K} with v the number of pairs
    (l, u) in K x (J\\K) with l > u. Extended bilinearly.
    """
    if not 0 <= p1 <= p2 <= m:
        raise ValueError(f"contraction degrees out of range: {p1}, {p2}, {m}")
    k_subsets = list(combinations(range(m), p1))
    j_subsets = list(combinations(range(m), p2))
    out_subsets = list(combinations(range(m), p2 - p1))
    if len(x) != len(k_subsets) or len(y) != len(j_subsets):
        raise ValueError("coordinate lengths do not match the wedge degrees")
    out_index = {s: i for i, s in enumerate(out_subsets)}
    out = [0] * len(out_subsets)
    base_sign = (-1) ** (p1 * (p1 - 1) // 2)
    for ki, K in enumerate(k_subsets):
        if x[ki] == 0:
            continue
        kset = set(K)
        for ji, J in enumerate(j_subsets):
            if y[ji] == 0 or not kset <= set(J):
                continue
            rest = tuple(j for j in J if j not in kset)
            v = sum(1 for l in K for u in rest if l > u)
            out[out_index[rest]] += ((-1) ** v) * base_sign * x[ki] * y[ji]
    return out


def _contraction_against_top(d: int, p: int) -> IntMatrix:
    """Matrix of (-| e_{0..d-1}) from degree-p dual wedges to degree-(d-p)
    wedges, both in lex coordinates over a rank-d module."""
    n = comb(d, p)
    units = ([int(i == k) for i in range(n)] for k in range(n))
    return IntMatrix.from_cols([contract(u, [1], p, d, d) for u in units], rows=comb(d, d - p))


# ---------------------------------------------------------------------------
# Ring-element vectors


def _rnorm(x, ring: RingTag):
    if ring.kind == "Fp":
        return x % ring.p
    return x


def _int_mat_times_ring_vec(mat: SparseIntMatrix, vec, ring: RingTag):
    return [_rnorm(sum(x * vec[j] for j, x in entry.items()), ring) for entry in mat.entries]


def _det_ring(columns, ring: RingTag):
    n = len(columns)
    if any(len(c) != n for c in columns):
        raise ValueError("determinant of a non-square system")
    return ring.coerce(det_int(IntMatrix.from_cols(columns, rows=n)))


# ---------------------------------------------------------------------------
# Fundamental chain and balancing


@dataclass
class FundamentalChain:
    """The fundamental chain in integer coordinates: each top face's weight
    (the coordinate of the weighted orientation generator, its stored
    top-degree basis) times D, the lcm of the weights' denominators. D is 1
    over Z and F_p, and a unit over Q, where it changes no verdict."""

    wf: WeightedFan
    coords: dict  # top face id -> int, D times its weight

    def vector(self, blocks):
        """The chain written out along a block layout over top faces."""
        vec = []
        for b in blocks:
            if b.rank != 1:
                raise ValueError("top-degree blocks must have rank one")
            vec.append(self.coords[b.face])
        return vec


def fundamental_chain(wf: WeightedFan) -> FundamentalChain:
    """The chain of `wf`, computed once per weighted fan. Its memo keeps the
    coordinates only, which do not refer back to `wf`."""

    def compute():
        scale = lcm(*(w.denominator for w in wf.weights.values()))  # an int's is 1
        return {alpha: int(wf.weight(alpha) * scale) for alpha in wf.fan.top_faces()}

    return FundamentalChain(wf, wf.memo("chain", compute))


def balancing_failure(wf: WeightedFan):
    """None when balanced; otherwise the id of the first codimension-one
    face where the boundary of the fundamental chain is nonzero, read from
    the top differential of the fan's complex of F_d."""
    d = wf.fan.dim
    cx = star_bm_complex(wf.fan, wf.fan.vertex_id, d, wf.ring)
    image = _int_mat_times_ring_vec(cx.boundary_out(d), fundamental_chain(wf).vector(cx.blocks[d]), wf.ring)
    for b in cx.blocks.get(d - 1, ()):
        if any(image[b.offset : b.offset + b.rank]):
            return b.face
    return None


def is_balanced(wf: WeightedFan) -> bool:
    return balancing_failure(wf) is None


def _require_balanced(wf):
    beta = wf.memo("balancing", lambda: balancing_failure(wf))
    if beta is not None:
        raise UnbalancedFanError(f"fan is not balanced (fails at face {beta})")


def is_uniquely_balanced(wf: WeightedFan) -> bool:
    """Whether the fundamental class generates the whole top BM homology."""
    _require_balanced(wf)
    return _star_uniquely_balanced(wf, wf.fan.vertex_id)


def _star_uniquely_balanced(wf: WeightedFan, gamma: int) -> bool:
    """Whether the star's top homology at gamma has rank one, generated by
    the restricted fundamental chain.

    The chain is a cycle, so it is x times a generator k of a rank-one top
    group. Over Z, k is saturated (its entries are coprime), so x is a unit
    exactly when the entries of the chain are coprime. Over a field any
    nonzero x is a unit, and the chain, a nonzero weight on every top face
    of the star, is nonzero."""
    table, blocks, _ = _star(wf.fan, gamma, wf.fan.dim, wf.ring)
    if table.group(wf.fan.dim).free_rank != 1:
        return False
    return wf.ring.is_field or gcd(*fundamental_chain(wf).vector(blocks)) == 1


def stars_balanced_check(wf: WeightedFan) -> bool:
    """The restriction of the fundamental chain to every star is a cycle of
    the star complex; failure would indicate inconsistent incidence data."""
    _require_balanced(wf)
    fan = wf.fan
    d = fan.dim
    ch = fundamental_chain(wf)
    for gamma in range(fan.face_count()):
        cx = star_bm_complex(fan, gamma, d, wf.ring)
        image = _int_mat_times_ring_vec(cx.boundary_out(d), ch.vector(cx.blocks[d]), wf.ring)
        if any(image):
            raise AssertionError(f"star of face {gamma} lost the cycle condition")
    return True


# ---------------------------------------------------------------------------
# Cap products


@dataclass
class CapResult:
    """The cap against the fundamental chain at a face: its ambient columns
    C in the stored top-block bases, and their coordinates X in the kernel
    basis K of the star's top homology, C = K X. The kernel basis and the
    coordinates are computed on first read: the verdict mostly needs neither
    (see `is_isomorphism`), and a report only for a witness that is read.
    Both hold ints: the cap is taken against `fundamental_chain`, so over Q
    they scale by its D, and det X by D^n."""

    base: int
    p: int
    ring: RingTag
    domain_rank: int
    blocks: list
    ambient_columns: list
    top_rank: int  # rank of the star's top homology, the number of columns of K
    fan: Fan

    @cached_property
    def kernel_basis(self) -> IntMatrix:
        return _star_kernel(self.fan, self.base, self.fan.dim - self.p, self.ring)

    @cached_property
    def kernel_columns(self) -> list:
        return _coords_in_kernel(self.kernel_basis, self.ambient_columns, self.ring)

    @cached_property
    def determinant(self):
        """det X, in the ring."""
        return _det_ring(self.kernel_columns, self.ring)

    def is_isomorphism(self) -> bool:
        """Whether the square X is invertible over the ring, read from C.

        K is saturated, so C and X have the same rank and the same invariant
        factors. Over a field X is invertible iff C has full column rank.
        Over Z it is not when the entries of C have a common factor: X = L C
        for an integer left inverse L of K, so that factor divides det X.
        Otherwise it is when each column of C yields a unit pivot under
        unit-pivot reduction, and failing that the determinant of X decides."""
        if self.domain_rank != self.top_rank:
            return False
        if self.domain_rank == 0:
            return True
        rows = [{i: x for i, x in enumerate(col) if x} for col in self.ambient_columns]
        if self.ring.is_field:
            return _rank_and_torsion(rows, self.ring.p)[0] == self.domain_rank
        if gcd(*(x for row in rows for x in row.values())) != 1:
            return False
        pivots = sum(1 for _ in _unit_pivot_reduce(rows))
        return pivots == self.domain_rank or self.ring.is_unit(self.determinant)

    def failure_witness(self):
        if self.domain_rank != self.top_rank:
            return f"rank mismatch {self.domain_rank} vs {self.top_rank}"
        return f"determinant {self.determinant}"


def _cap_block_matrix(fan: Fan, alpha: int, gamma: int, p: int) -> IntMatrix:
    """Integer matrix of u |-> restriction(u to alpha) -| Lambda_alpha, from
    dual coordinates at gamma into the stored degree-(d-p) basis at alpha.
    The stored bases at a top face are its wedge bases, so the contraction
    is one signed permutation per p, shared by every alpha: row i is row
    pi(i) of the transposed inclusion times s_i."""
    inc = fan.multitangent(p).inclusion(alpha, gamma).data
    rows = [[s * row[k] for row in inc] for k, s in _contraction(fan, p)]
    return IntMatrix._adopt(len(rows), len(inc), rows)


def _contraction(fan: Fan, p: int) -> list:
    """`_contraction_against_top` in the fan's dimension, kept per fan as the
    (pi(i), s_i) of its signed permutation: f_K -| e_{0..d-1} = +-e_{complement
    of K}, so row i has the one nonzero s_i, in column pi(i)."""
    return fan.memo(
        ("contr", p),
        lambda: [next((k, x) for k, x in enumerate(r) if x) for r in _contraction_against_top(fan.dim, p).data],
    )


def _contraction_det(fan: Fan, p: int) -> int:
    """det of `_contraction_against_top`: the sign of pi times the s_i."""
    pairs = _contraction(fan, p)
    return (-1) ** sum(a > b for (a, _), (b, _) in combinations(pairs, 2)) * prod(s for _, s in pairs)


def cap_star(wf: WeightedFan, gamma: int, p: int) -> CapResult:
    """The cap product at a face: dual vectors at the face map to weighted
    contractions over its top cofaces, landing in the star's top homology.
    Row i of a top coface alpha's block in column j is read off the signed
    permutation (`_contraction`) as w_alpha s_i inclusion(alpha, gamma)[j][pi(i)]."""
    _require_balanced(wf)
    fan = wf.fan
    d = fan.dim
    if not 0 <= p <= d:
        raise ValueError(f"degree {p} out of range")
    fp = fan.multitangent(p)
    ring = wf.ring
    table, blocks, top = _star(fan, gamma, d - p, ring)
    src_rank = fp.rank(gamma)
    pairs = _contraction(fan, p)
    chain = fundamental_chain(wf).coords
    columns = [[] for _ in range(src_rank)]
    for b in blocks:
        w = chain[b.face]
        for col, row in zip(columns, fp.inclusion(b.face, gamma).data):
            col.extend(_rnorm(w * s * row[k], ring) for k, s in pairs)
    if any(any(_int_mat_times_ring_vec(top, col, ring)) for col in columns):
        raise ValueError("image does not lie in the kernel")
    return CapResult(gamma, p, ring, src_rank, blocks, columns, table.group(d).free_rank, fan)


def cap_q0(wf: WeightedFan, p: int) -> CapResult:
    """The only nonzero cap on a fan: from dual vectors at the vertex into
    the top Borel-Moore homology."""
    return cap_star(wf, wf.fan.vertex_id, p)


def cap_chain_general(wf: WeightedFan, p: int, q: int):
    """The chain-level cap from compactly-indexed q-cochains into the
    (d-q)-chains, evaluated by the literal double-sum formula.

    On a pointed fan the domain vanishes unless q = 0 (only the vertex is
    compact), so positive q returns the empty-domain map. Returns
    (blocks, columns) over the degree-(d-q) chain group.
    """
    fan = wf.fan
    d = fan.dim
    if not (0 <= p <= d and 0 <= q <= d):
        raise ValueError("degrees out of range")
    fdp = fan.multitangent(d - p)
    target_faces = fan.faces_of_dim(d - q)
    blocks = _layout(target_faces, {fid: fdp.rank(fid) for fid in target_faces})
    if q != 0:
        return blocks, []
    fp = fan.multitangent(p)
    gamma = fan.vertex_id
    src_rank = fp.rank(gamma)
    chain = fundamental_chain(wf).coords
    columns = []
    for j in range(src_rank):
        col = [0] * sum(b.rank for b in blocks)
        for b in blocks:
            tau = b.face
            for alpha in fan.maximal_cofaces(tau):
                mat = _cap_block_matrix(fan, alpha, gamma, p)
                inc = fdp.inclusion(alpha, tau)
                moved = inc * mat
                w = chain[alpha]
                for i in range(moved.rows):
                    col[b.offset + i] = _rnorm(col[b.offset + i] + w * moved.data[i][j], wf.ring)
        columns.append(col)
    return blocks, columns


# ---------------------------------------------------------------------------
# Duality certificates


@dataclass(eq=False)
class TpdEntry:
    """One check of a report. `witness` is a str; a failing cap's may be
    given as a zero-argument callable instead, run on the first read of
    `witness`, whose str is then kept in its place. Verdicts never read it."""

    p: int
    q: int
    kind: str  # "cap" | "vanishing"
    ok: bool
    _witness: object = ""

    @property
    def witness(self) -> str:
        if callable(self._witness):
            self._witness = self._witness()
        return self._witness

    def __eq__(self, other):
        key = lambda e: (e.p, e.q, e.kind, e.ok, e.witness)
        return key(self) == key(other) if isinstance(other, TpdEntry) else NotImplemented

    def __repr__(self):
        return f"TpdEntry(p={self.p}, q={self.q}, kind={self.kind!r}, ok={self.ok}, witness={self.witness!r})"


@dataclass
class TpdReport:
    ring: RingTag
    verdict: bool
    entries: list
    base: int | None = None  # face id for star reports

    def failures(self):
        return [e for e in self.entries if not e.ok]

    def to_dict(self):
        return {
            "ring": str(self.ring),
            "verdict": self.verdict,
            "entries": [
                {"p": e.p, "q": e.q, "kind": e.kind, "ok": e.ok, "witness": e.witness}
                for e in self.entries
            ],
        }


def _vanishing_witness(group, reps):
    if group.invariant_factors:
        return f"torsion {group.invariant_factors[0]}"
    if reps:
        return f"class {reps[0]}"
    return str(group)


def _star_report(wf: WeightedFan, gamma: int) -> TpdReport:
    """The star report at gamma, computed once per weighted fan and shared by
    every certificate. Callers must not mutate it."""
    return wf.memo(("star_report", gamma), lambda: _star_tpd_report(wf, gamma))


def _vanishes(report: TpdReport) -> bool:
    """Whether the star's homology is concentrated in the top degree."""
    return all(e.ok for e in report.entries if e.kind == "vanishing")


def _star_tpd_report(wf: WeightedFan, gamma: int) -> TpdReport:
    """Duality report for the star of a face, via the subdivision-free star
    complexes: homology concentrated in the top degree plus bijective caps.

    A top face's star is R^d with the face's chain coordinate w, and its
    report is read off in closed form. Its complex is the top degree alone,
    with a zero differential, so there is nothing to vanish and the kernel
    basis is the identity. The cap in degree p is then w times the
    contraction, a signed permutation (`_contraction`): it is bijective
    exactly when w is a unit, and its determinant is w^comb(d, p) times
    that of the contraction. No star complex, cap or kernel is built.
    Other faces take `cap_star`, and no failing cap's witness is built unread."""
    fan = wf.fan
    d = fan.dim
    lo = fan.faces[gamma].dim
    entries = []
    if lo == d:
        w, ring = fundamental_chain(wf).coords[gamma], wf.ring  # the witnesses must not hold wf
        ok = ring.is_unit(w)
        for p in range(d + 1):
            det = lambda p=p: f"determinant {ring.coerce(w ** comb(d, p) * _contraction_det(fan, p))}"
            entries.append(TpdEntry(p, 0, "cap", ok, "" if ok else det))
        return TpdReport(wf.ring, ok, entries, base=gamma)
    for dp in range(d + 1):
        table = star_homology_table(fan, gamma, dp, wf.ring)
        for qq in range(lo, d):
            e = table.entries[qq]
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
        entries.append(TpdEntry(p, 0, "cap", ok, "" if ok else cap.failure_witness))
    verdict = all(e.ok for e in entries)
    return TpdReport(wf.ring, verdict, entries, base=gamma)


def is_tpd(wf: WeightedFan) -> TpdReport:
    """Global duality certificate: vanishing below the top degree for every
    coefficient degree, plus a bijective cap at the vertex for every p."""
    _require_balanced(wf)
    return replace(_star_report(wf, wf.fan.vertex_id), base=None)


@dataclass
class LocalTpdReport:
    ring: RingTag
    verdict: bool
    per_face: dict  # face id -> TpdReport

    def first_failure(self):
        for fid in sorted(self.per_face):
            if not self.per_face[fid].verdict:
                return fid
        return None

    def to_dict(self):
        return {
            "ring": str(self.ring),
            "verdict": self.verdict,
            "faces": {str(fid): rep.to_dict() for fid, rep in self.per_face.items()},
        }


def is_local_tpd(wf: WeightedFan) -> LocalTpdReport:
    """Duality at every face star, the fan itself included."""
    _require_balanced(wf)
    fan = wf.fan
    face_ids = list(range(fan.face_count()))
    from .pool import run_jobs

    reports = run_jobs([lambda g=g: _star_report(wf, g) for g in face_ids])
    per_face = dict(zip(face_ids, reports))
    verdict = all(r.verdict for r in per_face.values())
    return LocalTpdReport(wf.ring, verdict, per_face)


# ---------------------------------------------------------------------------
# Euler criterion and the dimension-one classification


HOLDS = "holds"
FAILS = "fails"
HYPOTHESIS_VIOLATED = "hypothesis-violated"


def euler_criterion(wf: WeightedFan, p: int) -> str:
    """Field-coefficient duality test in a single degree via dimensions.

    The cap in degree p maps H^0(F^p) into the top Borel-Moore homology of
    the degree-(d-p) cosheaf F_{d-p}. The test checks the vanishing
    hypothesis (homology of F_{d-p} concentrated in the top degree) rather
    than assuming it; when the hypothesis fails the result is the
    distinguished third status. Under it the Euler characteristic of F_{d-p}
    is the dimension of its top group, which must equal the rank of F^p at
    the vertex.
    """
    if not wf.ring.is_field:
        raise ValueError("the Euler criterion works over a field")
    _require_balanced(wf)
    fan = wf.fan
    d = fan.dim
    table = star_homology_table(fan, fan.vertex_id, d - p, wf.ring)
    if not table.is_trivial_except([d]):
        return HYPOTHESIS_VIOLATED
    chi = table.group(d).free_rank
    dual_dim = fan.multitangent(p).rank(fan.vertex_id)
    return HOLDS if chi == dual_dim else FAILS


def classify_dim1(wf: WeightedFan) -> bool:
    """Dimension-one duality classification: uniquely balanced with unit
    weights. Must agree with the full certificate (tested elsewhere)."""
    if wf.fan.dim != 1:
        raise ValueError("classification applies to one-dimensional fans only")
    _require_balanced(wf)
    if not is_uniquely_balanced(wf):
        return False
    return all(wf.ring.is_unit(w) for w in wf.weights.values())


# ---------------------------------------------------------------------------
# Star-based theorems


@dataclass
class StarsTheoremReport:
    """Hypotheses and conclusion of the stars-imply-global duality theorem."""

    ring: RingTag
    global_vanishing: bool
    proper_stars_tpd: bool
    conclusion: bool
    status: str
    ray_stars_tpd: bool | None = None  # populated in dimension two


def tpd_from_stars_check(wf: WeightedFan) -> StarsTheoremReport:
    """Evaluates: global vanishing + duality on all proper stars => global
    duality. The implication is asserted on every run; in dimension two the
    ray-star biconditional (under vanishing) is asserted as well."""
    fan = wf.fan
    d = fan.dim
    if d < 2:
        raise ValueError("the star criterion needs dimension >= 2")
    _require_balanced(wf)
    vanishing = _vanishes(_star_report(wf, fan.vertex_id))
    proper = [g for g in range(fan.face_count()) if fan.faces[g].dim >= 1]
    proper_ok = all(_star_report(wf, g).verdict for g in proper)
    conclusion = is_tpd(wf).verdict
    if vanishing and proper_ok and not conclusion:
        raise TheoremViolation("star hypotheses hold but global duality fails")
    if vanishing and proper_ok:
        status = HOLDS if conclusion else FAILS
    else:
        status = HYPOTHESIS_VIOLATED
    ray_stars = None
    if d == 2 and vanishing:
        rays_ok = all(_star_report(wf, g).verdict for g in fan.faces_of_dim(1))
        ray_stars = rays_ok
        # Ray-star duality forces unit weights, hence duality of the top
        # stars too, so with vanishing it implies global duality over any of
        # our rings; the converse is only guaranteed over a field.
        if rays_ok and not conclusion:
            raise TheoremViolation("dimension-two ray-star criterion failed")
        if wf.ring.is_field and conclusion and not rays_ok:
            raise TheoremViolation("dimension-two ray-star biconditional failed")
    return StarsTheoremReport(wf.ring, vanishing, proper_ok, conclusion, status, ray_stars)


@dataclass
class LocalTpdCharacterization:
    ring: RingTag
    all_star_vanishing: bool
    codim1_stars_tpd: bool
    characterization: bool
    direct: bool
    unit_weights: bool | None = None  # Z only
    codim1_uniquely_balanced: bool | None = None  # Z only

    def to_dict(self):
        return {
            "ring": str(self.ring),
            "all_star_vanishing": self.all_star_vanishing,
            "codim1_stars_tpd": self.codim1_stars_tpd,
            "characterization": self.characterization,
            "direct": self.direct,
            "unit_weights": self.unit_weights,
            "codim1_uniquely_balanced": self.codim1_uniquely_balanced,
        }


def local_tpd_characterization(wf: WeightedFan) -> LocalTpdCharacterization:
    """Local duality iff all stars have top-concentrated homology and every
    codimension-one star is a duality space. Both sides are computed and must
    agree; over Z the unit-weight reformulation is checked as well."""
    _require_balanced(wf)
    fan = wf.fan
    d = fan.dim
    vanishing = all(_vanishes(_star_report(wf, g)) for g in range(fan.face_count()))
    codim1 = fan.faces_of_dim(d - 1)
    codim1_ok = all(_star_report(wf, b).verdict for b in codim1)
    characterization = vanishing and codim1_ok
    direct = is_local_tpd(wf).verdict
    if characterization != direct:
        raise TheoremViolation("local duality characterization disagrees with direct check")
    report = LocalTpdCharacterization(
        wf.ring, vanishing, codim1_ok, characterization, direct
    )
    if wf.ring.kind == "Z":
        units = all(wf.ring.is_unit(w) for w in wf.weights.values())
        unique1 = all(_star_uniquely_balanced(wf, b) for b in codim1)
        report.unit_weights = units
        report.codim1_uniquely_balanced = unique1
        alt = vanishing and units and unique1
        if alt != direct:
            raise TheoremViolation("unit-weight reformulation disagrees over Z")
    return report
