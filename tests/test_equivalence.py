"""Unit tests for relabeling equivalence, park isomorphism, enumeration."""

import random

import pytest

from parkscope import (
    NonRealizableError,
    ResourceLimitError,
    build,
    canonical_form,
    classify,
    conjugate_rep,
    enumerate_monodromies,
    monodromy_equivalent,
    monodromy_to_park,
    park_isomorphic,
)
from parkscope import monodromy
from parkscope.park import to_json_dict

from conftest import make_loop3_rep


def _random_color_preserving(rng, d):
    sigma_w = rng.sample(range(d), d)
    sigma_b = rng.sample(range(d), d)
    return tuple(sigma_w) + tuple(v + d for v in sigma_b)


def test_self_equivalence(loop3_rep):
    witness = monodromy_equivalent(loop3_rep, loop3_rep)
    assert witness is not None
    assert witness.mapping == tuple(range(6))


def test_conjugate_pair_witness_verifies(loop3_rep, chord_rep):
    rng = random.Random(17)
    for rep in (loop3_rep, chord_rep):
        d = rep.degree
        for _ in range(10):
            relabel = _random_color_preserving(rng, d)
            moved = conjugate_rep(rep, relabel)
            witness = monodromy_equivalent(rep, moved)
            assert witness is not None
            carried = conjugate_rep(rep, witness.mapping)
            assert carried.e == moved.e
            assert carried.c == moved.c
            # the branch generators only need to match as an orbit system
            from parkscope import permgroup as pg

            def orbit_partition(m):
                return sorted(
                    tuple(sorted(o))
                    for o in pg.orbits(list(m.x), m.ground_size)
                )

            assert orbit_partition(carried) == orbit_partition(moved)


def test_mismatched_parameters_rejected(loop3_rep, single_sheet_rep):
    with pytest.raises(ValueError):
        monodromy_equivalent(loop3_rep, single_sheet_rep)


def test_invalid_input_rejected(loop3_rep):
    broken = build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1)])
    with pytest.raises(ValueError):
        monodromy_equivalent(broken, broken)


def test_inequivalent_classes_distinguished():
    classes = enumerate_monodromies(3, 2, 0, dedup="jequiv").classes
    assert len(classes) == 2
    first, second = classes[0].representative, classes[1].representative
    assert monodromy_equivalent(first, second) is None
    assert canonical_form(first) != canonical_form(second)


def test_canonical_form_constant_on_classes():
    for cls in enumerate_monodromies(3, 2, 0, dedup="jequiv").classes:
        forms = {canonical_form(member) for member in cls.members}
        assert len(forms) == 1
        assert canonical_form(cls.representative) in forms


def test_park_isomorphic_reflexive(loop3_park, chord_park, example_park):
    for park in (loop3_park, chord_park, example_park):
        witness = park_isomorphic(park, park)
        assert witness is not None
        assert witness.rotation == 0 and not witness.reflected


def test_park_isomorphic_across_conjugation(chord_rep):
    rng = random.Random(5)
    park = monodromy_to_park(chord_rep)
    for _ in range(5):
        relabel = _random_color_preserving(rng, chord_rep.degree)
        other = monodromy_to_park(conjugate_rep(chord_rep, relabel))
        assert park_isomorphic(park, other) is not None


def test_park_isomorphic_distinguishes():
    classes = enumerate_monodromies(3, 2, 0, dedup="park").classes
    assert len(classes) == 2
    parks = [monodromy_to_park(cls.representative) for cls in classes]
    assert park_isomorphic(parks[0], parks[1]) is None
    assert park_isomorphic(parks[0], parks[1], allow_reflection=True) is None


def test_enumeration_counts():
    assert enumerate_monodromies(2, 1, 1).class_count == 1
    result = enumerate_monodromies(3, 2, 0)
    assert result.raw_count == 9 and result.class_count == 9
    assert enumerate_monodromies(3, 2, 0, dedup="jequiv").class_count == 2
    assert enumerate_monodromies(3, 2, 0, dedup="park").class_count == 2
    assert enumerate_monodromies(3, 1, 2, dedup="jequiv").class_count == 4
    assert enumerate_monodromies(3, 1, 2, dedup="park").class_count == 2
    assert enumerate_monodromies(3, 0, 4, dedup="park").class_count == 2


def test_enumeration_dedup_aliases():
    by_alias = {
        alias: enumerate_monodromies(3, 2, 0, dedup=alias).class_count
        for alias in ("none", "raw", "j_equivalence", "jequiv", "park", "park_isomorphism")
    }
    assert by_alias["none"] == by_alias["raw"] == 9
    assert by_alias["j_equivalence"] == by_alias["jequiv"] == 2
    assert by_alias["park"] == by_alias["park_isomorphism"] == 2
    with pytest.raises(ValueError):
        enumerate_monodromies(2, 1, 0, dedup="bogus")


def test_enumeration_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_monodromies(3, 2, 0, budget=5)


def test_enumerated_members_are_valid():
    result = enumerate_monodromies(2, 2, 0, dedup="jequiv")
    for cls in result.classes:
        for member in cls.members:
            assert monodromy.validate_relations(member).ok
            assert monodromy.validate_genericity(member).ok
        assert cls.size == len(cls.members)


def test_unrealizable_class_kept_separate(unrealizable_rep):
    result = enumerate_monodromies(2, 1, 1, dedup="park")
    assert result.class_count == 1
    with pytest.raises(NonRealizableError):
        monodromy_to_park(result.classes[0].representative)


def test_classify_groups_conjugates():
    rng = random.Random(23)
    base = make_loop3_rep()
    moved = conjugate_rep(base, _random_color_preserving(rng, base.degree))
    other = None
    for cls in enumerate_monodromies(3, 2, 0, dedup="park").classes:
        rep = cls.representative
        if park_isomorphic(
            monodromy_to_park(rep), monodromy_to_park(base)
        ) is None:
            other = rep
            break
    assert other is not None
    table = classify([base, moved, other])
    assert len(table.entries) == 2
    members = sorted(tuple(sorted(e.member_indices)) for e in table.entries)
    assert members == [(0, 1), (2,)]


def test_extracted_parks_serialize_identically():
    for cls in enumerate_monodromies(3, 1, 2, dedup="park").classes:
        try:
            park = monodromy_to_park(cls.representative)
        except NonRealizableError:
            continue
        again = monodromy_to_park(cls.representative)
        assert to_json_dict(park) == to_json_dict(again)
