"""Unit tests for tuple permutations and the two-color ground set helpers."""

import doctest
import random

import pytest

from parkscope import permgroup as pg


def test_identity_and_as_perm():
    assert pg.identity(4) == (0, 1, 2, 3)
    assert pg.as_perm([2, 0, 1]) == (2, 0, 1)
    with pytest.raises(ValueError):
        pg.as_perm([0, 0, 1])
    with pytest.raises(ValueError):
        pg.as_perm([0, 2])
    with pytest.raises(ValueError):
        pg.as_perm([1, 0], n=3)


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)  # 0->1->2->0
    q = (0, 2, 1)  # swaps 1,2
    assert pg.compose(p, q) == tuple(p[q[a]] for a in range(3))
    assert pg.compose(p, q)[1] == p[q[1]] == p[2] == 0


def test_compose_all_last_entry_acts_first():
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert pg.compose_all([p, q], 3) == pg.compose(p, q)
    assert pg.compose_all([], 3) == pg.identity(3)


def test_inverse_and_conjugate():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 8)
        p = tuple(rng.sample(range(n), n))
        s = tuple(rng.sample(range(n), n))
        assert pg.compose(p, pg.inverse(p)) == pg.identity(n)
        assert pg.inverse(pg.inverse(p)) == p
        conj = pg.conjugate(p, s)
        assert conj == pg.compose(pg.compose(s, p), pg.inverse(s))
        assert pg.cycle_type(conj) == pg.cycle_type(p)


def test_from_cycles_and_notation():
    # the cycle (a, b, c) maps a -> b -> c -> a; cycles() reads it back
    p = pg.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p == (1, 2, 0, 4, 3)
    assert pg.cycles(p) == [(0, 1, 2), (3, 4)]
    assert pg.from_cycles(3, []) == pg.identity(3)
    with pytest.raises(ValueError):
        pg.from_cycles(3, [(0, 0)])


def test_is_involution():
    t = pg.from_cycles(4, [(1, 3)])
    assert t == (0, 3, 2, 1)
    assert pg.is_involution(t)
    assert not pg.is_involution((1, 2, 0))


def test_cycles_and_restriction():
    p = (1, 0, 3, 4, 2, 5)
    assert pg.cycles(p) == [(0, 1), (2, 3, 4)]
    assert pg.cycles(p, include_fixed=True) == [(0, 1), (2, 3, 4), (5,)]
    assert pg.cycle_type(p) == (3, 2, 1)
    assert pg._cycles(p, [0, 1], True) == [(0, 1)]


def test_orbits_and_transitivity():
    a = pg.from_cycles(4, [(0, 1)])
    b = pg.from_cycles(4, [(2, 3)])
    assert sorted(tuple(sorted(o)) for o in pg.orbits([a, b], 4)) == [
        (0, 1),
        (2, 3),
    ]
    assert not pg.is_transitive([a, b], 4)
    assert pg.is_transitive([a, b, pg.from_cycles(4, [(1, 2)])], 4)


def test_orbits_reject_generators_of_another_size():
    swap01 = pg.from_cycles(4, [(0, 1)])
    with pytest.raises(ValueError, match=r"^generator acts on 3 elements, expected 4$"):
        pg.orbits([swap01, (0, 1, 2)], 4)


def test_sizes_and_ranges_are_checked():
    with pytest.raises(ValueError, match=r"^negative ground set size: -1$"):
        pg.identity(-1)
    with pytest.raises(ValueError, match=r"^cycle element 3 outside 0\.\.2$"):
        pg.from_cycles(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        pg.compose((1, 0), (0, 1, 2))
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        pg.conjugate((1, 0), (0, 1, 2))
    with pytest.raises(ValueError, match=r"^size mismatch: 3 vs ground set 4$"):
        pg.is_color_preserving((0, 1, 2), 2)
    with pytest.raises(ValueError, match=r"^size mismatch: 3 vs ground set 4$"):
        pg.is_color_swapping((0, 1, 2), 2)


def test_orbits_without_generators_are_singletons():
    assert pg.orbits([], 3) == [(0,), (1,), (2,)]
    assert pg.orbits([], 0) == []


def test_docstring_examples():
    result = doctest.testmod(pg)
    assert result.attempted > 0
    assert result.failed == 0


def test_color_helpers():
    d = 3
    assert list(pg.whites(d)) == [0, 1, 2]
    assert list(pg.blacks(d)) == [3, 4, 5]
    m = pg.mirror_matching(d)
    assert m == (3, 4, 5, 0, 1, 2)
    assert pg.is_matching(m, d)
    assert pg.is_color_swapping(m, d)
    assert not pg.is_color_preserving(m, d)

