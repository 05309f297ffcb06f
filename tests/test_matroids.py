"""Matroid validation, flats, and Bergman fans."""

import pytest

from tropfan.matroids import Matroid, bergman_fan, matroid_flats


def test_u34_flats():
    flats, covering = matroid_flats(Matroid.uniform(3, 4))
    sizes = sorted(len(f) for f in flats)
    assert sizes == [0] + [1] * 4 + [2] * 6 + [4]
    # Covering pairs: empty < singletons (4), singleton < pair (12), pair < E (6).
    assert len(covering) == 4 + 12 + 6


def test_free_matroid_flats():
    flats, _ = matroid_flats(Matroid(2, [[0, 1]]))
    assert [sorted(f) for f in flats] == [[], [0], [1], [0, 1]]


def test_u12_flats():
    flats, _ = matroid_flats(Matroid.uniform(1, 2))
    assert [sorted(f) for f in flats] == [[], [0, 1]]


def test_exchange_violation():
    with pytest.raises(ValueError, match="exchange"):
        Matroid(4, [[0, 1], [2, 3]])


def test_unequal_basis_sizes():
    with pytest.raises(ValueError, match="same size"):
        Matroid(3, [[0], [1, 2]])


def test_rank_and_closure():
    m = Matroid.uniform(3, 5)
    assert m.rank == 3
    assert m.rank_of([0, 1]) == 2
    assert m.closure([0, 1]) == frozenset({0, 1})
    assert m.closure([0, 1, 2]) == frozenset(range(5))


def test_bergman_u23_tropical_line():
    wf = bergman_fan(Matroid.uniform(2, 3))
    fan = wf.fan
    assert fan.dim == 1
    assert sorted(fan.rays) == sorted([(1, 0), (0, 1), (-1, -1)])
    total = [sum(r[i] for r in fan.rays) for i in range(2)]
    assert total == [0, 0]


def test_bergman_u34_counts():
    fan = bergman_fan(Matroid.uniform(3, 4)).fan
    assert len(fan.rays) == 10
    assert len(fan.faces_of_dim(2)) == 12
    assert fan.dim == 2


def test_bergman_free_matroid_is_line():
    fan = bergman_fan(Matroid(2, [[0, 1]])).fan
    assert fan.ambient_rank == 1
    assert sorted(fan.rays) == [(-1,), (1,)]


def test_bergman_rejects_loops():
    # Element 1 never appears in a basis: it is a loop.
    with pytest.raises(ValueError, match="loops"):
        bergman_fan(Matroid(2, [[0]]))


def test_bergman_rejects_loops_before_any_closure(monkeypatch):
    # A closure scans the whole ground set, here 10^9 elements.
    def no_closure(self, subset):
        raise AssertionError("closure computed before the loop check")

    monkeypatch.setattr(Matroid, "closure", no_closure)
    with pytest.raises(ValueError, match="loops"):
        bergman_fan(Matroid(10**9, [[0, 1], [0, 2], [1, 2]]))
