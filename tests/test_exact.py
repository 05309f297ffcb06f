"""Normal forms, kernels, saturation, presentations, rings."""

import random
import time
from fractions import Fraction

import pytest
import sympy

from tropfan import fixtures
from tropfan.complexes import _coords_in_kernel, _star, _star_kernel
from tropfan.duality import fundamental_chain
from tropfan.exact import (
    MAX_MODULUS,
    GroupPresentation,
    RingTag,
    hermite_normal_form,
    hnf_basis,
    homology_of_pair,
    kernel_lattice,
    saturate,
    smith_normal_form,
    _is_prime,
)
from tropfan.intmat import IntMatrix, det_int

from helpers import F3, Q, Z, oracle_solve_int, oracle_star_complex


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return IntMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n):
    """Product of elementary column operations: determinant +-1 by design."""
    u = IntMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for r in range(n):
            u.data[r][j] += c * u.data[r][i]
    if rng.random() < 0.5 and n:
        j = rng.randrange(n)
        for r in range(n):
            u.data[r][j] = -u.data[r][j]
    return u


class TestHermite:
    def test_identity_fixed(self):
        m = IntMatrix.identity(3)
        h, u = hermite_normal_form(m)
        assert h == IntMatrix.identity(3)
        assert u == IntMatrix.identity(3)

    def test_permutation_gives_identity(self):
        m = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        h, _ = hermite_normal_form(m)
        assert h == IntMatrix.identity(3)

    def test_already_reduced_columns(self):
        m = IntMatrix.from_cols([[1, 0, 2], [0, 1, -2]])
        h, u = hermite_normal_form(m)
        assert h == m
        assert m * u == h

    def test_canonical_under_column_operations(self):
        # Oracle: the HNF depends only on the column lattice, so applying any
        # elementary column operations must not change it.
        rng = random.Random(7)
        for _ in range(30):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            m = random_matrix(rng, rows, cols)
            h, u = hermite_normal_form(m)
            assert m * u == h
            assert abs(det_int(u)) == 1
            e = random_unimodular(rng, cols)
            h2, _ = hermite_normal_form(m * e)
            assert h2 == h


class TestSmith:
    def test_gcd_lcm_on_diagonals(self):
        from math import gcd

        rng = random.Random(11)
        for _ in range(25):
            a, b = rng.randint(1, 40), rng.randint(1, 40)
            s, _, _ = smith_normal_form(IntMatrix.from_rows([[a, 0], [0, b]]))
            g = gcd(a, b)
            assert [s.data[0][0], s.data[1][1]] == [g, a * b // g]

    def test_diag_2_3(self):
        s, u, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert s == IntMatrix.from_rows([[1, 0], [0, 6]])

    def test_zero_matrix(self):
        s, u, v = smith_normal_form(IntMatrix(2, 3))
        assert s.is_zero()
        assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1

    def test_2468(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        s, u, v = smith_normal_form(m)
        assert [s.data[0][0], s.data[1][1]] == [2, 4]
        assert s.data[0][0] * s.data[1][1] == abs(det_int(m)) == 8
        assert u * m * v == s

    def test_reconstruction_and_chain_random(self):
        rng = random.Random(13)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            s, u, v = smith_normal_form(m)
            assert u * m * v == s
            assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
            diag = [s.data[i][i] for i in range(min(s.rows, s.cols))]
            for a, b in zip(diag, diag[1:]):
                if a and b:
                    assert b % a == 0
                if a == 0:
                    assert b == 0
            for i in range(s.rows):
                for j in range(s.cols):
                    if i != j:
                        assert s.data[i][j] == 0


class TestKernel:
    def test_all_ones_row(self):
        k = kernel_lattice(IntMatrix.from_rows([[1, 1, 1, 1]]))
        assert k.cols == 3

    def test_curve_boundary_kernel(self):
        m = IntMatrix.from_cols([[1, 0, 2], [-1, 0, 0], [0, -1, 0], [0, 1, -2]])
        k = kernel_lattice(m)
        assert k.cols == 1
        assert [k.data[i][0] for i in range(4)] == [1, 1, 1, 1]

    def test_invertible_matrix(self):
        assert kernel_lattice(IntMatrix.from_rows([[2, 1], [1, 1]])).cols == 0

    def test_kernel_saturated_random(self):
        rng = random.Random(17)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
            k = kernel_lattice(m)
            assert (m * k).is_zero()
            if k.cols:
                assert saturate(k) == k

    def test_star_chain_coordinates_over_q_are_exact(self):
        for name in ["cross", "curve_r3", "surface_r4", "u34_bergman"]:
            wf = fixtures.load(name).with_ring(Q)
            fan = wf.fan
            for gamma in range(fan.face_count()):
                oracle = oracle_star_complex(fan, gamma, fan.dim)
                blocks, mat = oracle.blocks[fan.dim], oracle.boundary_out(fan.dim)
                kern = kernel_lattice(mat)
                assert _star(fan, gamma, fan.dim, Q)[1:] == (blocks, mat)
                assert _star_kernel(fan, gamma, fan.dim, Q) == kern
                chain = fundamental_chain(wf).vector(blocks)
                [coords] = _coords_in_kernel(kern, [chain], Q)
                assert all(isinstance(x, (int, Fraction)) for x in coords)


class TestSaturate:
    def test_single_columns(self):
        assert saturate(IntMatrix.from_cols([[2, 0]])) == IntMatrix.from_cols([[1, 0]])
        assert saturate(IntMatrix.from_cols([[3, 6]])) == IntMatrix.from_cols([[1, 2]])

    def test_already_saturated(self):
        b = IntMatrix.from_cols([[1, 0, 2], [0, 1, -2]])
        assert saturate(b) == b

    def test_dependent_columns_error(self):
        message = "saturate requires linearly independent columns"
        with pytest.raises(ValueError, match=message):
            saturate(IntMatrix.from_cols([[1, 2], [2, 4]]))
        # More columns than rows: never independent.
        with pytest.raises(ValueError, match=message):
            saturate(IntMatrix.from_cols([[1, 0], [0, 1], [1, 1]]))

    def test_same_rational_span_random(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 5)
            cols = rng.randint(1, n)
            b = random_matrix(rng, n, cols)
            from tropfan.exact import rank_over_q

            if rank_over_q(b) != cols:
                continue
            s = saturate(b)
            assert s.cols == cols
            # Every original column is an integer combination of the
            # saturation, and the saturation is idempotent.
            for j in range(cols):
                col = b.submatrix(range(n), [j])
                assert s * oracle_solve_int(s, col) == col
            assert saturate(s) == s


class TestHomologyOfPair:
    def test_free_rank_three(self):
        pres, _ = homology_of_pair(IntMatrix(4, 0), IntMatrix.from_rows([[1, 1, 1, 1]]), Z)
        assert pres == GroupPresentation(3)

    def test_torsion_z2(self):
        pres, _ = homology_of_pair(IntMatrix.from_rows([[2]]), IntMatrix(0, 1), Z)
        assert pres == GroupPresentation(0, (2,))

    def test_both_empty(self):
        pres, _ = homology_of_pair(IntMatrix(5, 0), IntMatrix(0, 5), Z)
        assert pres == GroupPresentation(5)

    def test_not_a_complex(self):
        with pytest.raises(ValueError, match="not a complex"):
            homology_of_pair(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]), Z)

    def test_field_dimension_matches_free_rank_random(self):
        # On torsion-free cycles the Q-dimension equals the Z free rank.
        rng = random.Random(23)
        for _ in range(20):
            out = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
            k = kernel_lattice(out)
            if k.cols == 0:
                continue
            picks = rng.randint(0, k.cols)
            sub = k.submatrix(range(k.rows), range(picks))
            pz, _ = homology_of_pair(sub, out, Z)
            pq, _ = homology_of_pair(sub, out, Q)
            assert pq.free_rank == pz.free_rank

    def test_representatives_are_cycles(self):
        out = IntMatrix.from_rows([[1, 1, 1, 1]])
        inn = IntMatrix.from_cols([[2, -2, 0, 0]])
        pres, reps = homology_of_pair(inn, out, Z)
        assert pres.free_rank == 2 and pres.invariant_factors == (2,)
        assert len(reps) == 3
        for r in reps:
            assert out.mul_vector(r) == [0]


class TestRingTag:
    def test_parse(self):
        assert RingTag.parse("Z") == Z
        assert RingTag.parse("Q") == Q
        assert RingTag.parse("Fp:7").p == 7

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            RingTag.parse("Fp:4")
        with pytest.raises(ValueError, match="not prime"):
            RingTag.Fp(9)

    def test_large_prime_modulus_is_fast(self):
        start = time.perf_counter()
        assert RingTag.Fp(2**61 - 1).p == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    def test_pseudoprimes_rejected(self):
        # 561 is a Carmichael number; 2^61 + 1 is divisible by 3;
        # 3825123056546413051 is a strong pseudoprime to the bases 2..23 and
        # 318665857834031151167461 to the bases 2..37.
        for n in (561, 2**61 + 1, 3825123056546413051, 318665857834031151167461):
            with pytest.raises(ValueError, match="not prime"):
                RingTag.Fp(n)

    def test_primality_matches_sympy(self):
        rng = random.Random(5)
        samples = list(range(-2, 3000)) + [rng.randrange(MAX_MODULUS) for _ in range(300)]
        samples += [MAX_MODULUS - 1, 2**61 - 1, 2**31 - 1, 1000000007]
        for n in samples:
            assert _is_prime(n) == sympy.isprime(n), n

    def test_oversized_modulus_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            RingTag.Fp(MAX_MODULUS)
        with pytest.raises(ValueError, match="too large"):
            RingTag.parse(f"Fp:{10**30}")

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Z.validate_weight(0)
        with pytest.raises(ValueError):
            RingTag.Fp(3).validate_weight(6)
        assert Q.validate_weight("2/3") == Q.coerce("2/3")
        with pytest.raises(ValueError):
            Z.coerce("1/2")

    def test_weight_strings_are_integers_or_ratios_of_digits(self):
        assert Q.coerce("-3/4") == Fraction(-3, 4) and Z.coerce("7") == 7
        for text in ("1e5000", "0.5", "+1", " 1/2", "1/ 2", "1_0", "inf", "", "\u0661"):
            with pytest.raises(ValueError, match="'a/b' string"):
                Q.coerce(text)

    def test_units(self):
        assert Z.is_unit(-1) and not Z.is_unit(2)
        assert Q.is_unit(2) and F3.is_unit(2)
