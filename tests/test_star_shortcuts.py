"""Star reports skip what the construction already proves.

The lowest degree of every star is acyclic, so `_star` eliminates only the
degrees strictly between it and the top; a top face's report is read off
in closed form, with no star complex or cap. A failing cap's witness is
built only when it is read. Reports must equal the oracle in helpers.py,
which eliminates every degree below the top, builds a cap at every face and
every witness at once.
"""

import random
from fractions import Fraction

import pytest

import tropfan.complexes as complexes
import tropfan.duality as duality
from tropfan import fixtures
from tropfan.duality import (
    CapResult,
    _star_report,
    is_balanced,
    is_local_tpd,
    local_tpd_characterization,
    tpd_from_stars_check,
)
from tropfan.exact import RingTag
from tropfan.fans import WeightedFan
from tropfan.matroids import Matroid, bergman_fan

from helpers import F2, F3, Q, Z, convention_fans, oracle_star_tpd_report, random_surface

F5 = RingTag.Fp(5)
SCALES = (1, -1, 2, -3, 6)


def _balanced_convention_fans():
    """The fans of `convention_fans` with their balancing weights: a
    fixture's own, 1 on a Bergman fan. The cone over a square is a single
    cone, which no weights balance."""
    out = []
    for name, fan in convention_fans():
        if name in fixtures.NAMES:
            out.append((name, fixtures.load(name)))
        elif name != "square_cone":
            out.append((name, WeightedFan(fan, Z, {a: 1 for a in fan.top_faces()})))
    assert all(is_balanced(wf) for _, wf in out)
    assert {wf.fan.dim for _, wf in out} == {1, 2, 3}
    return out


def _rescaled(wf, ring, scale):
    return WeightedFan(wf.fan, ring, {a: scale * w for a, w in wf.weights.items()})


FANS = _balanced_convention_fans()


@pytest.mark.parametrize("name,wf", FANS, ids=[name for name, _ in FANS])
def test_star_reports_match_the_full_elimination_and_cap_oracle(name, wf):
    # Top faces are compared at every scale. Every p <= d occurs for
    # d = 1, 2, 3, so each sign det(contr_p) of a closed-form witness is
    # checked, and scales that are not units give failing caps. The other
    # faces see the weights only through `cap_star`, which both sides share,
    # so they are compared at one scale that is not a unit in Z.
    fan = wf.fan
    tops = fan.top_faces()
    for ring in (Z, Q, F2, F3, F5):
        scales = [s for s in SCALES if ring.kind != "Fp" or all((s * w) % ring.p for w in wf.weights.values())]
        if ring == Q:
            scales += [Fraction(s, 3) for s in SCALES]
        full = next((s for s in scales if abs(s) != 1), None)  # None when no scale is valid
        for scale in scales:
            scaled = _rescaled(wf, ring, scale)
            for gamma in range(fan.face_count()) if scale == full else tops:
                expected = oracle_star_tpd_report(scaled, gamma)
                assert _star_report(scaled, gamma) == expected, (name, str(ring), scale, gamma)


def test_top_face_reports_build_no_star_complex_or_cap(monkeypatch):
    fan = bergman_fan(Matroid.uniform(3, 5)).fan
    tops = set(fan.top_faces())
    cap_star, star_bm_complex = duality.cap_star, complexes.star_bm_complex

    def guarded_cap_star(wf, gamma, p):
        assert gamma not in tops, "cap built for a top face"
        return cap_star(wf, gamma, p)

    def guarded_star_bm_complex(fan, gamma, p, ring):
        assert gamma not in tops, "star complex of a top face"
        return star_bm_complex(fan, gamma, p, ring)

    monkeypatch.setattr(duality, "cap_star", guarded_cap_star)
    monkeypatch.setattr(complexes, "star_bm_complex", guarded_star_bm_complex)
    for ring in (Z, F3):
        assert is_local_tpd(WeightedFan(fan, ring, {a: 1 for a in tops})).verdict
    # w^comb(2, p) det(contr_p) for w = 2: det(contr_p) is 1, 1, -1.
    doubled = is_local_tpd(WeightedFan(fan, Z, {a: 2 for a in tops}))
    for alpha in tops:
        witnesses = [e.witness for e in doubled.per_face[alpha].failures()]
        assert witnesses == ["determinant 2", "determinant 4", "determinant -2"]


def _theorem_corpus():
    """Weighted surfaces over Z whose caps fail, with determinant and rank
    mismatch witnesses: U(3,4) with weights 2, surface_r3, and random
    surfaces at scales 2, -2 and 3."""
    u34 = bergman_fan(Matroid.uniform(3, 4))
    out = [("U34_x2", _rescaled(u34, Z, 2)), ("surface_r3", fixtures.load("surface_r3"))]
    rng = random.Random(47)
    for i in range(4):
        wf = random_surface(rng)
        out += [(f"random{i}_x{scale}", _rescaled(wf, Z, scale)) for scale in (2, -2, 3)]
    return out


def test_theorem_checks_build_no_witness(monkeypatch):
    def forbidden(self):
        raise AssertionError("a cap witness was built on a verdict path")

    corpus = _theorem_corpus()
    with monkeypatch.context() as patched:
        patched.setattr(CapResult, "kernel_columns", property(forbidden))
        patched.setattr(CapResult, "determinant", property(forbidden))
        for _, wf in corpus:
            tpd_from_stars_check(wf)
            local_tpd_characterization(wf)
    unread = set()
    for name, wf in corpus:
        for gamma in range(wf.fan.face_count()):
            report = _star_report(wf, gamma)
            unread |= {e._witness.__name__ for e in report.entries if callable(e._witness)}
            assert report.to_dict() == oracle_star_tpd_report(wf, gamma).to_dict(), (name, gamma)
            assert not any(callable(e._witness) for e in report.entries)
    assert unread == {"failure_witness", "<lambda>"}  # caps of cap_star and of top faces


def test_a_witness_read_twice_is_computed_once(monkeypatch):
    made = []
    failure_witness, contraction_det = CapResult.failure_witness, duality._contraction_det

    def counted_failure_witness(self):
        made.append(("cap", self.base, self.p))
        return failure_witness(self)

    def counted_contraction_det(fan, p):
        made.append(("top", p))
        return contraction_det(fan, p)

    monkeypatch.setattr(CapResult, "failure_witness", counted_failure_witness)
    monkeypatch.setattr(duality, "_contraction_det", counted_contraction_det)
    wf = _rescaled(bergman_fan(Matroid.uniform(3, 4)), Z, 2)
    report = is_local_tpd(wf)
    assert made == []
    failing = [e for rep in report.per_face.values() for e in rep.failures()]
    first = [e.witness for e in failing]
    assert len(made) == len(failing) and {m[0] for m in made} == {"cap", "top"}
    assert [e.witness for e in failing] == first
    assert report.to_dict() == is_local_tpd(wf).to_dict()
    assert len(made) == len(failing)


def _count_eliminations(monkeypatch):
    calls = []
    original = complexes.homology_of_pair

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(complexes, "homology_of_pair", counted)
    return calls


@pytest.mark.parametrize("name", ["cross", "curve_r3"])
def test_curves_eliminate_nothing(monkeypatch, name):
    calls = _count_eliminations(monkeypatch)
    wf = fixtures.load(name)
    assert wf.fan.dim == 1
    for ring in (Z, Q, F3):
        is_local_tpd(wf.with_ring(ring))
    assert calls == []


@pytest.mark.parametrize(
    "uniform,ring", [((3, 5), Z), ((3, 5), Q), ((3, 5), F2), ((4, 5), F3)], ids=str
)
def test_stars_eliminate_only_the_degrees_between_the_lowest_and_the_top(monkeypatch, uniform, ring):
    calls = _count_eliminations(monkeypatch)
    wf = bergman_fan(Matroid.uniform(*uniform)).with_ring(ring)
    is_local_tpd(wf)
    fan = wf.fan
    d = fan.dim
    below_top = [fan.faces[g].dim for g in range(fan.face_count()) if fan.faces[g].dim < d]
    assert len(calls) == (d + 1) * sum(d - k - 1 for k in below_top)
