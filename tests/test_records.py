"""Records against their oracle: every record type of the package behaves as
the stdlib dataclass with its fields, defaults and frozen flag
(``conftest.dataclass_twin``), on the records the library makes."""

from collections import defaultdict

import pytest

from parkscope import (
    enumerate_monodromies,
    find_park_involution,
    monodromy_equivalent,
    park_isomorphic,
    type_summary,
)
from parkscope.errors import _Record, _trusted
from parkscope.park import Alley, Face, GardenVertex, _ParkIndex, from_json_dict, to_json_dict

from conftest import RECORD_TYPES, dataclass_twin, load_example_park, realized_reps, twin_of


def _park_records(park):
    yield park
    yield park.involution
    yield type_summary(park)
    yield from _ParkIndex(park).signatures.values()
    yield from park.nodes
    yield from park.alleys
    for garden in park.gardens:
        yield garden
        yield from garden.faces
        yield from garden.edges
        yield from garden.vertices


@pytest.fixture(scope="module")
def records():
    """An alley and a vertex whose fields are equal, and the records of the
    example park and of a copy of it read back from its JSON, of the parks
    of every enumerated representation with ``d <= 3`` and ``t + s <= 3``,
    of an enumeration and of the witnesses."""
    example = load_example_park()
    parks = [example, from_json_dict(to_json_dict(example))]
    parks += [park for _, park in realized_reps(3, 3)]
    found = [Alley(1, 2, 3), GardenVertex(1, 2, 3)]
    found += [record for park in parks for record in _park_records(park)]
    result = enumerate_monodromies(3, 2, 0, dedup="park")
    found += [result, *result.classes, *result.classes[0].members]
    rep = result.classes[0].representative
    found += [monodromy_equivalent(rep, rep), park_isomorphic(example, example)]
    found.append(find_park_involution(example))
    return found


def _fields(cls):
    return list(cls.__annotations__)


def _outcome(call):
    """The ``repr`` of what ``call`` makes, or the type of what it raises."""
    try:
        return repr(call())
    except (TypeError, ValueError) as exc:
        return type(exc)


def _hash(record):
    try:
        return hash(record)
    except TypeError:
        return TypeError


def test_every_record_type_has_a_twin_and_a_record(records):
    assert set(RECORD_TYPES) == set(_Record.__subclasses__())
    assert set(RECORD_TYPES) == {type(record) for record in records}


def test_records_match_their_twins_in_repr_hash_and_construction(records):
    for record in records:
        cls, twin = type(record), dataclass_twin(type(record))
        names = _fields(cls)
        values = [getattr(record, name) for name in names]
        given = dict(zip(names, values))
        required = {name: given[name] for name in names if name not in vars(cls)}
        assert repr(record) == repr(twin_of(record))
        assert cls.__match_args__ == twin.__match_args__
        assert _hash(record) == _hash(twin_of(record))
        assert cls(*values) == record == cls(**given)
        for args, kwargs in (
            (values, {}),
            ((), given),
            ((), required),
            ((), {}),
            ((), {**given, "no_such_field": 1}),
            ((*values, None), {}),
            (values[:1], given),
        ):
            assert _outcome(lambda: cls(*args, **kwargs)) == _outcome(
                lambda: twin(*args, **kwargs)
            ), (cls, args, kwargs)


def test_records_match_their_twins_in_equality(records):
    by_type = defaultdict(list)
    for record in records:
        by_type[type(record)].append(record)
    sample = [record for group in by_type.values() for record in group[:12]]
    twins = [twin_of(record) for record in sample]
    equal_pairs = 0
    for a, twin_a in zip(sample, twins):
        assert a != twin_a
        for b, twin_b in zip(sample, twins):
            assert (a == b) == (twin_a == twin_b)
            assert (a != b) == (twin_a != twin_b)
            equal_pairs += a == b and a is not b
    # the copy of the example park read back from JSON gives equal records
    # that are not the same objects
    assert equal_pairs


def test_frozen_records_refuse_change_as_their_twins_do(records):
    done = set()
    for record in records:
        cls = type(record)
        if cls in done:
            continue
        done.add(cls)
        twin = twin_of(record)
        for name in _fields(cls):
            value = getattr(record, name)
            for target in (record, twin):
                if RECORD_TYPES[cls]:
                    with pytest.raises(AttributeError):
                        setattr(target, name, value)
                    with pytest.raises(AttributeError):
                        delattr(target, name)
                    with pytest.raises(AttributeError):
                        target.not_a_field = value
                else:
                    setattr(target, name, value)
                    assert getattr(target, name) is value
    assert done == set(RECORD_TYPES)


def test_trusted_needs_every_field():
    assert _trusted(Face, id=1, color="white", degree=3, boundary=(1,)) == Face(1, "white", 3, [1])
    with pytest.raises(KeyError, match="boundary"):
        _trusted(Face, id=1, color="white", degree=3)
