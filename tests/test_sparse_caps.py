"""Sparse Borel-Moore differentials and kernel-free cap verdicts.

The oracles in helpers.py are the dense differential, the cap that solved
its columns into a kernel basis of the star's top boundary, and the unique
balancing test that solved the fundamental chain into that basis. Verdicts,
witnesses and differentials must agree with them exactly.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropfan.duality as duality
import tropfan.exact as exact
from tropfan import fixtures
from tropfan.complexes import _star, bm_chain_complex, star_bm_complex, star_homology_table
from tropfan.duality import (
    CapResult,
    UnbalancedFanError,
    _star_uniquely_balanced,
    balancing_failure,
    cap_star,
    fundamental_chain,
    is_tpd,
)
from tropfan.exact import GroupPresentation, RingTag, rank_over_q
from tropfan.fans import WeightedFan
from tropfan.intmat import IntMatrix, SparseIntMatrix
from tropfan.matroids import Matroid, bergman_fan

from helpers import (
    F2,
    F3,
    Q,
    Z,
    OracleCapResult,
    convention_fans,
    oracle_bm_differential,
    oracle_cap_star,
    oracle_rank_field,
    oracle_star_uniquely_balanced,
    random_balanced_curve,
    random_surface,
)

F5 = RingTag.Fp(5)
RINGS = (Z, Q, F2, F3, F5)
SCALES = (1, 2, 3)


def _weighted_convention_fans():
    """The convention fans with their weights: a fixture's own, and 1 on
    every top face of the others."""
    out = []
    for name, fan in convention_fans():
        if name in fixtures.NAMES:
            weights = fixtures.load(name).weights  # the same document, so the same face ids
        else:
            weights = dict.fromkeys(fan.top_faces(), 1)
        out.append((name, fan, weights))
    return out


FANS = _weighted_convention_fans()
IDS = [name for name, _, _ in FANS]
WITNESSES = {"cross": {"determinant", "rank"}, "surface_r3": {"determinant", "rank"}, "square_cone": set()}


def _weightings(fan, weights):
    """The fan over every ring with its weights scaled by 1, 2 and 3, where
    the scaled weights are nonzero in the ring."""
    for ring in RINGS:
        for scale in SCALES:
            try:
                yield WeightedFan(fan, ring, {f: w * scale for f, w in weights.items()})
            except ValueError:
                continue  # a weight vanishes mod p


def _check_caps_and_unique_balancing(wf, witnesses):
    """Caps and unique balancing against the oracle, which reads the weights
    themselves. Over Q with weights of denominator lcm D > 1 the program's
    columns are D times the oracle's; D is a unit, so nothing else moves."""
    fan = wf.fan
    scale = lcm(*(Fraction(w).denominator for w in wf.weights.values()))
    if balancing_failure(wf) is not None:
        for run in (lambda: cap_star(wf, fan.vertex_id, 0), lambda: oracle_cap_star(wf, fan.vertex_id, 0)):
            with pytest.raises(UnbalancedFanError):
                run()
        return
    for gamma in range(fan.face_count()):
        for p in range(fan.dim + 1):
            cap, old = cap_star(wf, gamma, p), oracle_cap_star(wf, gamma, p)
            if scale == 1:
                assert (cap.blocks, cap.ambient_columns) == (old.blocks, old.ambient_columns)
            else:
                assert cap.blocks == old.blocks
                assert cap.ambient_columns == [[scale * x for x in col] for col in old.ambient_columns]
                assert all(type(x) is int for col in cap.ambient_columns for x in col)
            assert cap.domain_rank == old.domain_rank and cap.top_rank == old.kernel_basis.cols
            ok = cap.is_isomorphism()
            assert ok == old.is_isomorphism()
            if not ok:
                witness = cap.failure_witness()
                assert witness == old.failure_witness()
                witnesses.add(witness.split()[0])
                assert cap.kernel_basis == old.kernel_basis
                if scale == 1:
                    assert cap.kernel_columns == old.kernel_columns
                else:
                    assert cap.kernel_columns == [[scale * x for x in col] for col in old.kernel_columns]
        assert _star_uniquely_balanced(wf, gamma) == oracle_star_uniquely_balanced(wf, gamma)


@pytest.mark.parametrize("name, fan, weights", FANS, ids=IDS)
def test_differentials_match_dense_oracle(name, fan, weights):
    for p in range(fan.dim + 1):
        module = fan.multitangent(p)
        for cx in [bm_chain_complex(fan, p, Z)] + [star_bm_complex(fan, g, p, Z) for g in range(fan.face_count())]:
            for q, mat in cx.diffs.items():
                expected = oracle_bm_differential(fan, module, q, cx.blocks[q], cx.blocks[q - 1])
                assert isinstance(mat, SparseIntMatrix)
                assert (mat.rows, mat.cols) == (expected.rows, expected.cols)
                # Nonzeros only, in column order: what scanning the dense rows gave.
                assert mat.entries == [{j: x for j, x in enumerate(row) if x} for row in expected.data]
                assert all(list(e) == sorted(e) for e in mat.entries)
                assert mat.transpose() == expected.transpose()
                assert mat.data == expected.data


@pytest.mark.parametrize("name, fan, weights", FANS, ids=IDS)
def test_caps_and_unique_balancing_match_kernel_oracle(name, fan, weights):
    witnesses = set()
    for wf in _weightings(fan, weights):
        _check_caps_and_unique_balancing(wf, witnesses)
    # Scaled weights fail caps over Z by their determinant; two fixtures
    # also fail by rank, and the square cone is not balanced.
    assert witnesses == WITNESSES.get(name, {"determinant"})


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(RINGS))
def test_caps_on_random_weights_match_kernel_oracle(seed, curve, ring):
    rng = random.Random(seed)
    if curve:
        fan, weights = random_balanced_curve(rng)
        weights = dict(zip(fan.top_faces(), weights))
    else:
        wf = random_surface(rng)
        fan, weights = wf.fan, wf.weights
    try:
        wf = WeightedFan(fan, ring, weights)
    except ValueError:
        return  # a weight vanishes mod p
    _check_caps_and_unique_balancing(wf, set())


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([Fraction(2, 3), Fraction(1, 3), Fraction(-5, 6)]))
def test_caps_on_fractional_q_weights_match_kernel_oracle(seed, curve, scale):
    # Q weights with denominators: the program caps against the integer
    # chain D*w, the oracle against w itself in Fractions.
    rng = random.Random(seed)
    if curve:
        fan, weights = random_balanced_curve(rng)
        weights = dict(zip(fan.top_faces(), weights))
    else:
        wf = random_surface(rng)
        fan, weights = wf.fan, wf.weights
    wf = WeightedFan(fan, Q, {f: w * scale for f, w in weights.items()})
    witnesses = set()
    _check_caps_and_unique_balancing(wf, witnesses)
    assert witnesses <= {"rank", "determinant"}


def test_chain_of_weights_with_two_denominators_is_integral():
    # cross with weights 1/2, 2/3, 1/2, 2/3 is balanced, with D = 6.
    fan = fixtures.load("cross").fan
    wf = WeightedFan(fan, Q, dict(zip(fan.top_faces(), ["1/2", "2/3", "1/2", "2/3"])))
    assert list(fundamental_chain(wf).coords.values()) == [3, 4, 3, 4]
    assert fundamental_chain(wf).coords is fundamental_chain(wf).coords  # kept per weighted fan
    _check_caps_and_unique_balancing(wf, set())
    cap = cap_star(wf, fan.vertex_id, 1)
    assert not cap.is_isomorphism() and cap.failure_witness() == "rank mismatch 2 vs 3"


@pytest.mark.parametrize("name, fan, weights", FANS, ids=IDS)
def test_euler_top_rank_is_the_kernel_rank(name, fan, weights):
    # The top group of every star is read off the Euler characteristic; it
    # must be free of rank N - rank(d_top), N the columns of d_top.
    for ring in RINGS:
        for gamma in range(fan.face_count()):
            for p in range(fan.dim + 1):
                table, _, top = _star(fan, gamma, p, ring)
                rank = oracle_rank_field(top, ring) if ring.kind == "Fp" else rank_over_q(top)
                assert table.group(fan.dim) == GroupPresentation(top.cols - rank)


def test_passing_certificate_builds_no_kernel_and_no_dense_differential(monkeypatch):
    wf = bergman_fan(Matroid.uniform(4, 5))
    kernels, dense = [], []
    real_kernel = exact.kernel_lattice
    monkeypatch.setattr(exact, "kernel_lattice", lambda m: kernels.append(m) or real_kernel(m))
    real_data = SparseIntMatrix.data
    monkeypatch.setattr(SparseIntMatrix, "data", property(lambda m: dense.append(m) or real_data.fget(m)))
    assert is_tpd(wf).verdict
    assert kernels == [] and dense == []
    # The top entry's representatives still come from the kernel basis.
    d, v = wf.fan.dim, wf.fan.vertex_id
    reps = star_homology_table(wf.fan, v, d, Z).entries[d].representatives
    assert len(kernels) == 1 and len(set(map(id, dense))) == 1
    assert len(reps) == star_homology_table(wf.fan, v, d, Z).group(d).free_rank == 1


@pytest.mark.parametrize(
    "columns, ok",
    [
        ([[2, 3], [5, 7]], True),  # determinant -1, and no entry is a unit
        ([[2, 3], [4, 7]], False),  # determinant 2
        ([[1, 0], [0, 2]], False),  # one unit pivot, determinant 2
        ([[1, 1], [1, -1]], False),  # two unit entries, one unit pivot, determinant -2
    ],
)
def test_caps_without_enough_unit_pivots_fall_back_to_the_determinant(columns, ok):
    kernel = IntMatrix.identity(2)
    cap = CapResult(0, 0, Z, 2, [], columns, 2, None)
    cap.kernel_basis = kernel
    old = OracleCapResult(0, 0, Z, 2, [], columns, kernel, columns)
    assert cap.is_isomorphism() == old.is_isomorphism() == ok
    if not ok:
        assert cap.failure_witness() == old.failure_witness()


@pytest.mark.parametrize("columns", [[[2, 4], [6, 2]], [[0, 0], [0, 0]], [[3, 0], [0, 3]]])
def test_caps_with_a_common_factor_fail_before_reduction(monkeypatch, columns):
    def refuse(rows):
        raise AssertionError("reduced a cap whose entries share a factor")

    monkeypatch.setattr(duality, "_unit_pivot_reduce", refuse)
    kernel = IntMatrix.identity(2)
    cap = CapResult(0, 0, Z, 2, [], columns, 2, None)
    cap.kernel_basis = kernel
    old = OracleCapResult(0, 0, Z, 2, [], columns, kernel, columns)
    assert not cap.is_isomorphism() and not old.is_isomorphism()
    assert cap.failure_witness() == old.failure_witness()
