"""Unit tests for exact covering counts."""

from fractions import Fraction

import pytest

from parkscope import (
    ResourceLimitError,
    branch_count,
    interleaving_factor,
    monodromy_to_park,
    one_part_oracle,
    park_hurwitz,
    single_hurwitz,
    single_hurwitz_brute,
)
from parkscope import hurwitz
from parkscope.hurwitz import BRANCH_COUNT_BOUND, centralizer_order
from parkscope.park import from_json_dict, to_json_dict

from conftest import realized_reps


def _partitions(total, largest=None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_reference_values():
    cases = [
        (0, (1,), Fraction(1)),
        (0, (2,), Fraction(1, 2)),
        (0, (1, 1), Fraction(1, 2)),
        (0, (3,), Fraction(1)),
        (0, (4,), Fraction(4)),
        (1, (1,), Fraction(0)),
    ]
    for genus, degrees, expected in cases:
        assert single_hurwitz(genus, degrees) == expected
        assert single_hurwitz_brute(genus, degrees) == expected


def test_fast_engine_agrees_with_brute_force():
    for d in range(1, 5):
        for degrees in _partitions(d):
            for genus in (0, 1):
                if branch_count(genus, degrees) > 6:
                    continue
                fast = single_hurwitz(genus, degrees)
                brute = single_hurwitz_brute(genus, degrees)
                assert fast == brute, (genus, degrees)


def test_one_part_oracle():
    for d in range(1, 6):
        assert one_part_oracle(d) == Fraction(d) ** (d - 3)
        assert single_hurwitz(0, (d,)) == one_part_oracle(d)
    with pytest.raises(ValueError):
        one_part_oracle(0)


def test_branch_count_and_centralizer():
    assert branch_count(0, (3,)) == 2
    assert branch_count(0, (1, 1, 1)) == 4
    assert branch_count(1, (1,)) == 2
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3


def test_impossible_signatures_count_zero():
    assert single_hurwitz(1, (1,)) == 0
    assert single_hurwitz(2, (1,)) == 0
    assert single_hurwitz_brute(1, (1,)) == 0


def test_interleaving_factor():
    assert interleaving_factor([]) == 1
    assert interleaving_factor([5]) == 1
    assert interleaving_factor([1, 1]) == 2
    assert interleaving_factor([2, 1]) == 3
    assert interleaving_factor([2, 2]) == 6
    assert interleaving_factor([0, 0]) == 1
    with pytest.raises(ValueError):
        interleaving_factor([-1])


def test_degree_bound_enforced(example_park):
    with pytest.raises(ResourceLimitError):
        single_hurwitz(0, (7,))
    with pytest.raises(ResourceLimitError, match="^degree 7 exceeds the configured bound 6$"):
        single_hurwitz_brute(0, (4, 3))
    assert single_hurwitz(0, (7,), degree_bound=8) == Fraction(7) ** 4
    # park_hurwitz keeps the bound and its text on the signatures it
    # takes unchecked from the park gate
    with pytest.raises(ResourceLimitError, match="^degree 3 exceeds the configured bound 2$"):
        park_hurwitz(example_park, degree_bound=2)


def test_branch_count_bound_enforced():
    # (3,) forces b = 2g + 2 branch points
    last = (BRANCH_COUNT_BOUND - 2) // 2
    assert branch_count(last, (3,)) == BRANCH_COUNT_BOUND
    assert single_hurwitz(last, (3,)) > 0
    with pytest.raises(ResourceLimitError):
        single_hurwitz(last + 1, (3,))


def test_signature_validation():
    with pytest.raises(ValueError):
        single_hurwitz(-1, (2,))
    with pytest.raises(ValueError):
        single_hurwitz(0, ())
    with pytest.raises(ValueError):
        single_hurwitz(0, (0,))


def test_clear_cache_empties_both_memos():
    """``clear_cache`` empties the two memo caches, and a recount after it
    gives the same value."""
    before = single_hurwitz(1, (2, 1))
    assert hurwitz._connected_count.cache_info().currsize
    assert hurwitz._raw_count.cache_info().currsize
    hurwitz.clear_cache()
    assert hurwitz._connected_count.cache_info().currsize == 0
    assert hurwitz._raw_count.cache_info().currsize == 0
    assert single_hurwitz(1, (2, 1)) == before


def test_park_hurwitz_equals_the_checked_product():
    """On every realized park with d <= 3 and t + s <= 5, the unchecked
    core that ``park_hurwitz`` feeds gives what the checked public
    ``single_hurwitz`` gives on each entrance signature."""
    for _, park in realized_reps(3, 5):
        faces = {f.id: f for f in park.all_faces()}
        degrees = {n.id: [] for n in park.nodes}
        for a in park.alleys:
            degrees[a.node_id].append(faces[a.face_id].degree)
        entrances = [
            (n.genus, degrees[n.id])
            for n in sorted(park.nodes, key=lambda n: n.id)
            if n.role == "entrance"
        ]
        expected = Fraction(1)
        for genus, degrees in entrances:
            expected *= single_hurwitz(genus, degrees)
        expected *= interleaving_factor(branch_count(g, ds) for g, ds in entrances)
        assert park_hurwitz(park) == expected, park


def test_park_hurwitz_single_entrance(loop3_park):
    assert park_hurwitz(loop3_park) == single_hurwitz(0, (3,))


def test_park_hurwitz_two_entrances(two_entrance_rep):
    park = monodromy_to_park(two_entrance_rep)
    assert park_hurwitz(park) == Fraction(1, 2)


def test_park_hurwitz_multiplies_entrances_only(example_park):
    expected = (
        interleaving_factor([4, 0])
        * single_hurwitz(0, (1, 1, 1))
        * single_hurwitz(0, (1,))
    )
    assert park_hurwitz(example_park) == expected


def test_park_hurwitz_rejects_invalid(example_park):
    obj = to_json_dict(example_park)
    obj["alleys"] = obj["alleys"][:-1]
    broken = from_json_dict(obj)
    with pytest.raises(ValueError):
        park_hurwitz(broken)
