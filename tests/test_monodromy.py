"""Unit tests for representation records, relations and genericity."""

import random

import pytest

from parkscope import (
    MonodromyRep,
    NonRealizableError,
    build,
    canonical_form,
    conjugate_rep,
    genus_from_counts,
    monodromy_to_park,
    validate_genericity,
    validate_relations,
)
from parkscope import monodromy, permgroup as pg

from conftest import make_chord_rep, make_loop3_rep, make_single_sheet_rep


def test_build_derives_closing_permutation(loop3_rep):
    word = pg.compose(
        pg.compose_all(list(loop3_rep.x), loop3_rep.ground_size), loop3_rep.e
    )
    assert word == pg.identity(loop3_rep.ground_size)
    assert loop3_rep.e == (2, 0, 1, 5, 3, 4)


def test_counts_and_accessors(loop3_rep, chord_rep):
    assert loop3_rep.degree == 3
    assert loop3_rep.cone_points == 2
    assert loop3_rep.corner_points == 0
    assert loop3_rep.critical_value_count == 4
    assert chord_rep.cone_points == 1
    assert chord_rep.corner_points == 2
    assert chord_rep.critical_value_count == 4
    assert len(chord_rep.c) == chord_rep.corner_points + 1


def test_valid_reps_pass_validation():
    for rep in (make_loop3_rep(), make_single_sheet_rep(), make_chord_rep()):
        assert validate_relations(rep).ok
        assert validate_genericity(rep).ok


def test_seam_mismatch_reported():
    # branch generator moves whites without the matching black motion
    rep = build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1)])
    report = validate_relations(rep)
    assert not report.ok
    assert any("seam" in label for label, _ in report.failures)


def test_reflection_must_square_to_identity():
    rep = build(
        2, [(1, 0, 3, 2)], [(2, 3, 1, 0)]  # not an involution, not a matching
    )
    report = validate_relations(rep)
    assert not report.ok


def test_strict_mode_flags_black_motion(loop3_rep, chord_rep):
    assert validate_genericity(loop3_rep, mode="geometric").ok
    strict = validate_genericity(loop3_rep, mode="strict")
    assert not strict.ok
    assert any("black" in reason for _, reason in strict.violations)
    # c[k] conjugates the corner element to its inverse, so a corner that
    # moves whites moves blacks too
    assert validate_genericity(chord_rep, mode="geometric").ok
    assert validate_genericity(chord_rep, mode="strict").violations == (
        ("x[1]", "moves a black element"),
        ("corner[1]", "moves a black element"),
        ("corner[2]", "moves a black element"),
    )


def test_branch_generator_shape_checked():
    # white action is a 3-cycle rather than a transposition
    rep = build(3, [(1, 2, 0, 4, 5, 3)], [(3, 4, 5, 0, 1, 2)])
    report = validate_genericity(rep)
    assert not report.ok
    assert any("x[1]" == label for label, _ in report.violations)


def test_genericity_mode_and_degree_are_checked(loop3_rep):
    with pytest.raises(ValueError, match="^unknown genericity mode 'bogus'"):
        validate_genericity(loop3_rep, "bogus")
    for degree in (0, True):
        with pytest.raises(ValueError, match="^degree must be a positive integer"):
            MonodromyRep(degree=degree, x=(), e=None, c=((1, 0),))


@pytest.mark.parametrize("obj", [[], "rep", 3])
def test_from_json_dict_rejects_what_is_not_an_object(obj):
    with pytest.raises(ValueError, match="^expected a JSON object, got "):
        monodromy.from_json_dict(obj)


def test_corner_element_shape_checked(chord_rep):
    assert chord_rep.corner_element(1) == pg.compose(chord_rep.c[0], chord_rep.c[1])
    with pytest.raises(ValueError):
        chord_rep.corner_element(0)
    with pytest.raises(ValueError):
        chord_rep.corner_element(3)
    # corner element acting on whites as a 3-cycle must be rejected
    broken = build(
        3,
        [],
        [
            (3, 4, 5, 0, 1, 2),
            (4, 5, 3, 2, 0, 1),
        ],
    )
    report = validate_genericity(broken)
    assert not report.ok
    assert any(label.startswith("corner") for label, _ in report.violations)


def test_genus_from_counts(loop3_rep, chord_rep, single_sheet_rep):
    assert genus_from_counts(loop3_rep) == 0
    assert genus_from_counts(chord_rep) == 0
    assert genus_from_counts(single_sheet_rep) == 0
    odd = build(2, [(1, 0, 3, 2)], [(2, 3, 0, 1), (3, 2, 1, 0)])
    with pytest.raises(NonRealizableError):
        genus_from_counts(odd)  # 2t+s = 3 is odd
    negative = build(3, [], [(3, 4, 5, 0, 1, 2)])
    with pytest.raises(NonRealizableError):
        genus_from_counts(negative)  # no critical values on three sheets


def test_json_roundtrip(loop3_rep, chord_rep):
    for rep in (loop3_rep, chord_rep):
        obj = monodromy.to_json_dict(rep)
        back = monodromy.from_json_dict(obj)
        assert back == rep
    # e may be omitted and is re-derived
    obj = monodromy.to_json_dict(loop3_rep)
    del obj["e"]
    assert monodromy.from_json_dict(obj) == loop3_rep


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("degree"),
        lambda obj: obj.update(cone_points=5),
        lambda obj: obj.update(corner_points=3),
        lambda obj: obj.update(x=[[0, 1]]),
        lambda obj: obj.update(c="nope"),
        lambda obj: obj.update(x=[[1, 1, 2, 3, 4, 5], [0, 2, 1, 3, 5, 4]]),
    ],
)
def test_from_json_dict_rejects_malformed(loop3_rep, mutate):
    obj = monodromy.to_json_dict(loop3_rep)
    mutate(obj)
    with pytest.raises(ValueError):
        monodromy.from_json_dict(obj)


def test_conjugate_rep_preserves_validity(loop3_rep):
    rng = random.Random(3)
    d = loop3_rep.degree
    for _ in range(25):
        sigma_w = rng.sample(range(d), d)
        sigma_b = rng.sample(range(d), d)
        relabel = tuple(sigma_w) + tuple(v + d for v in sigma_b)
        moved = conjugate_rep(loop3_rep, relabel)
        assert isinstance(moved, MonodromyRep)
        assert validate_relations(moved).ok
        assert validate_genericity(moved).ok
        assert genus_from_counts(moved) == 0
    with pytest.raises(ValueError):
        conjugate_rep(loop3_rep, (0, 1, 2))


def test_build_validates_shapes():
    with pytest.raises(ValueError):
        build(3, [(1, 0, 2, 4, 3, 5)], [])  # at least one reflection needed
    with pytest.raises(ValueError):
        build(3, [(1, 0, 2)], [(3, 4, 5, 0, 1, 2)])  # wrong ground size


def test_public_gates_validate_a_rep_once(monkeypatch):
    """A valid generic rep made by ``build`` is checked by the first public
    gate only, and keeps nothing of that in its fields; an invalid one is
    checked, and refused with the same text, every time."""
    calls = []
    for name in ("validate_relations", "validate_genericity"):
        original = getattr(monodromy, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(monodromy, name, counted)
    rep = make_loop3_rep()
    fields_before = (repr(rep), hash(rep), monodromy.to_json_dict(rep))
    monodromy_to_park(rep)
    canonical_form(rep)
    assert sorted(calls) == ["validate_genericity", "validate_relations"]
    assert (repr(rep), hash(rep), monodromy.to_json_dict(rep)) == fields_before
    assert rep == make_loop3_rep()

    calls.clear()
    broken = build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1)])
    for _ in range(2):
        with pytest.raises(ValueError, match="^monodromy fails relation validation: seam"):
            monodromy_to_park(broken)
    assert calls.count("validate_relations") == 2
