"""Matroids, their lattices of flats, and Bergman fans.

A matroid is stored by its list of bases. The Bergman fan lives in the
quotient of Z^{ground} by the all-ones vector, realized concretely by
substituting -(e_0 + ... + e_{n-1}) for the last coordinate vector: a
deterministic unimodular choice (homology does not depend on it).
"""

from __future__ import annotations

from itertools import combinations

from .exact import RingTag
from .fans import MAX_FACES, Fan, WeightedFan, build_fan

# The exchange check compares every pair of bases. U(4,13), with 715 bases,
# is the largest uniform matroid of rank 4 whose Bergman fan stays within
# MAX_FACES; U(4,14) has 1,001 bases.
MAX_BASES = 1000


class Matroid:
    def __init__(self, ground_size, bases):
        self.ground_size = int(ground_size)
        bases = [frozenset(int(x) for x in b) for b in bases]
        if not bases:
            raise ValueError("a matroid needs at least one basis")
        sizes = {len(b) for b in bases}
        if len(sizes) != 1:
            raise ValueError("bases must all have the same size")
        for b in bases:
            if any(x < 0 or x >= self.ground_size for x in b):
                raise ValueError("basis element out of range")
        bases = set(bases)
        if len(bases) > MAX_BASES:
            raise ValueError(f"matroid has more than {MAX_BASES} bases")
        self.bases = sorted(bases, key=sorted)
        self._masks = [sum(1 << x for x in b) for b in self.bases]  # bit x for element x
        self.rank = sizes.pop()
        self._check_exchange()

    @classmethod
    def uniform(cls, rank, ground_size):
        return cls(ground_size, [set(c) for c in combinations(range(ground_size), rank)])

    def _check_exchange(self):
        bases = set(self.bases)
        for b1 in self.bases:
            for b2 in self.bases:
                for x in b1 - b2:
                    if not any((b1 - {x}) | {y} in bases for y in b2 - b1):
                        raise ValueError("bases violate the exchange property")

    def rank_of(self, subset):
        s = frozenset(subset)
        return max(len(s & b) for b in self.bases)

    def closure(self, subset):
        """s together with every x for which s + x has the rank of s.

        I = s & b for a basis b meeting s most is a basis of s, and x outside
        s raises the rank exactly when I + x is independent, that is when some
        basis contains I + x. So two passes over the bases decide every x.
        Both run on the bases' bit masks.
        """
        n = self.ground_size
        s = sum(1 << x for x in frozenset(subset) if 0 <= x < n)
        indep = max((s & b for b in self._masks), key=int.bit_count)
        free = 0
        for b in self._masks:
            if indep & b == indep:
                free |= b
        closed = s | ~free
        return frozenset(x for x in range(n) if closed >> x & 1)

    def flats(self):
        """All flats, sorted by (rank, elements); plus the covering relation.

        Returns (flats, covering) with covering pairs (i, j) meaning
        flats[i] is covered by flats[j] in the lattice of flats. The flats
        covering a flat f are the closures of f + x for x outside f. Raises
        ValueError beyond MAX_FACES flats (each proper flat is a ray of the
        Bergman fan).
        """
        by_rank = [{self.closure(())}]
        covers = {}
        count = 1
        for r in range(self.rank):
            nxt = set()
            for f in by_rank[r]:
                covers[f] = {self.closure(f | {x}) for x in range(self.ground_size) if x not in f}
                nxt |= covers[f]
            count += len(nxt)
            if count > MAX_FACES:
                raise ValueError(f"matroid has more than {MAX_FACES} flats")
            by_rank.append(nxt)
        flats = []
        for level in by_rank:
            flats.extend(sorted(level, key=sorted))
        index = {f: i for i, f in enumerate(flats)}
        covering = [
            (index[f], j) for f in flats for j in sorted(index[g] for g in covers.get(f, ()))
        ]
        return flats, covering


def matroid_flats(m: Matroid):
    return m.flats()


def _ray_vector(flat, ground_size):
    n = ground_size - 1  # ambient rank after the quotient
    vec = [0] * n
    for i in flat:
        if i < n:
            vec[i] += 1
        else:
            for j in range(n):
                vec[j] -= 1
    return vec


def bergman_fan(m: Matroid) -> WeightedFan:
    """The Bergman fan of a loopless matroid, with constant weight 1 over Z.

    One ray per proper nonempty flat, one cone per chain of proper flats.
    Raises ValueError beyond MAX_FACES faces, checked while the flats and
    the chains are enumerated.
    """
    # An element in no basis is a loop. Testing that first keeps a huge ground
    # set from reaching the closures, which scan the whole ground set.
    if len(frozenset().union(*m.bases)) < m.ground_size:
        raise ValueError("matroid has loops; its Bergman fan is not defined here")
    flats, covering = m.flats()
    proper = [f for f in flats if 0 < len(f) < m.ground_size]
    proper.sort(key=lambda f: (len(f), sorted(f)))
    ray_index = {f: i for i, f in enumerate(proper)}
    rays = [_ray_vector(f, m.ground_size) for f in proper]

    # Maximal chains of proper flats, built by walking the covering relation.
    up = {}
    for i, j in covering:
        if flats[j] in ray_index:
            up.setdefault(flats[i], []).append(flats[j])
    maximal_chains = []

    def extend(chain, last):
        tight = sorted(up.get(last, ()), key=ray_index.get)
        if not tight:
            if len(maximal_chains) == MAX_FACES:
                raise ValueError(f"Bergman fan has more than {MAX_FACES} faces")
            maximal_chains.append(chain)
            return
        for g in tight:
            extend(chain + [ray_index[g]], g)

    rank1 = [f for f in proper if m.rank_of(f) == 1]
    for f in rank1:
        extend([ray_index[f]], f)

    fan = build_fan(m.ground_size - 1, rays, maximal_chains)
    weights = {fid: 1 for fid in fan.top_faces()}
    return WeightedFan(fan, RingTag.Z(), weights)
