"""Unit tests for representation records, relations and genericity."""

import json
import random
from collections import Counter

import pytest

from parkscope import (
    MonodromyRep,
    NonRealizableError,
    build,
    canonical_form,
    conjugate_rep,
    enumerate_monodromies,
    genus_from_counts,
    monodromy_to_park,
    park_hurwitz,
    park_isomorphic,
    validate_genericity,
    validate_relations,
)
from parkscope import monodromy, permgroup as pg

from conftest import (
    EXAMPLE_REP_PATH,
    check_extraction,
    components,
    enumerated_reps,
    hurwitz_moves,
    make_chord_rep,
    make_loop3_rep,
    make_single_sheet_rep,
    real_hurwitz_brute,
    real_structures,
    real_type,
    sheet_tuples,
    tuple_to_rep,
)


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
    assert any("seam" in label for label, _ in report.violations)


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


#: Count fields that equal their array's length but are not integers, and
#: which fault a file with two names first: each count is checked just
#: before it is compared.
COUNT_CASES = [
    ({"cone_points": 2.0}, "cone_points must be an integer, got 2.0"),
    ({"cone_points": True, "x": [[1, 0, 2, 4, 3, 5]]}, "cone_points must be an integer, got True"),
    ({"corner_points": False}, "corner_points must be an integer, got False"),
    ({"corner_points": "0"}, "corner_points must be an integer, got '0'"),
    ({"cone_points": 2.0, "corner_points": 3}, "cone_points must be an integer, got 2.0"),
    ({"cone_points": 3, "corner_points": 0.0}, "cone_points is 3 but 'x' has 2 entries"),
]


@pytest.mark.parametrize("changes, message", COUNT_CASES)
def test_from_json_dict_requires_integer_counts(changes, message):
    obj = json.loads(EXAMPLE_REP_PATH.read_text())
    obj.update(changes)
    with pytest.raises(ValueError) as err:
        monodromy.from_json_dict(obj)
    assert str(err.value) == message


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


@pytest.mark.parametrize(
    "rep, violations",
    [
        (
            # x[1] swaps the white and the black sheet half of one sheet
            build(1, [(1, 0)], [(1, 0)]),
            [("x[1]", "does not preserve colors")],
        ),
        (
            # c[2] fixes the colors, so both corner elements swap them
            build(2, [], [(2, 3, 0, 1), (1, 0, 3, 2), (2, 3, 0, 1)]),
            [
                ("corner[1]", "corner element does not preserve colors"),
                ("corner[2]", "corner element does not preserve colors"),
                ("c[2]", "is not a product of 2 disjoint white-black transpositions"),
            ],
        ),
    ],
    ids=["x swaps colors", "corner swaps colors and c is no matching"],
)
def test_genericity_rules_on_reps_that_pass_the_relations(rep, violations):
    assert validate_relations(rep)
    report = validate_genericity(rep)
    assert list(report.violations) == violations
    message = "monodromy is not generic: " + "; ".join(
        f"{label}: {detail}" for label, detail in violations
    )
    for gate in (monodromy_to_park, canonical_form):
        with pytest.raises(ValueError) as err:
            gate(rep)
        assert str(err.value) == message


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


def test_real_structures_of_small_reps():
    shipped = monodromy.from_json_dict(json.loads(EXAMPLE_REP_PATH.read_text()))
    assert real_structures(shipped) == [shipped.c[0]]
    # a real structure is data beside the rep, not a function of it
    (only,) = enumerate_monodromies(2, 1, 0).classes
    assert real_structures(only.representative) == [(2, 3, 0, 1), (3, 2, 1, 0)]


def _single_corners(m):
    """True when every corner element moves exactly two whites."""
    return all(
        sum(m.corner_element(k)[a] != a for a in range(m.degree)) == 2
        for k in range(1, m.corner_points + 1)
    )


def test_reps_with_single_corners_and_a_real_structure_are_realized():
    reps = enumerated_reps(3, 5)
    real = [m for m in reps if _single_corners(m) and real_structures(m)]
    assert (len(reps), len(real)) == (1602, 612)
    rejected = []
    for m in real:
        try:
            monodromy_to_park(m)
        except NonRealizableError:
            rejected.append(m)
    assert rejected == []


#: The cells of the tuple-count pin: every d <= 3 cell with t + s <= 5, and
#: every d = 4 cell with t + s <= 5 but the four slowest, (4,2,3), (4,3,2),
#: (4,4,1) and (4,5,0), with their tuple counts.
TUPLE_CELLS = [(d, t, s) for d in (1, 2, 3) for t in range(6) for s in range(6 - t)]
DEGREE_4_TUPLES = {
    (4, t, s): {(1, 4): 384, (2, 2): 288, (3, 0): 384, (4, 0): 3024}.get((t, s), 0)
    for t in range(6)
    for s in range(6 - t)
    if (t, s) not in ((2, 3), (3, 2), (4, 1), (5, 0))
}


def test_sheet_tuples_count_the_single_corner_real_structures():
    """Each labelled d-sheet tuple is one (enumerated rep, real structure)
    pair whose corners are single transpositions: the counts agree on
    every d <= 3 cell with t + s <= 5 and on the 17 cells of
    ``DEGREE_4_TUPLES``.  (4,2,0) and (4,4,0) are two of the cells where
    transitivity on the d sheets alone would overcount (24 and 3,120
    tuples); their extra tuples have a disconnected 2d lift."""
    counts = {}
    for cell in TUPLE_CELLS + list(DEGREE_4_TUPLES):
        pairs = sum(
            len(real_structures(cls.representative))
            for cls in enumerate_monodromies(*cell).classes
            if _single_corners(cls.representative)
        )
        counts[cell] = len(sheet_tuples(*cell))
        assert counts[cell] == pairs, cell
    assert {cell: counts[cell] for cell in DEGREE_4_TUPLES} == DEGREE_4_TUPLES
    assert sum(counts[cell] for cell in TUPLE_CELLS) == 995


def test_single_corners_and_real_structures_against_realization():
    """ROADMAP item 12's table on every d <= 3 cell with t + s <= 5 and on
    (4,2,2), (4,3,0) and (4,4,0): every enumerated rep counted by whether
    its corners are single transpositions, whether it has a real
    structure, and whether it has a park.  No rep with both is rejected,
    and no rep without single corners is realized."""
    rows = Counter()
    for cell in TUPLE_CELLS + [(4, 2, 2), (4, 3, 0), (4, 4, 0)]:
        for cls in enumerate_monodromies(*cell).classes:
            m = cls.representative
            try:
                monodromy_to_park(m)
                realized = True
            except NonRealizableError:
                realized = False
            rows[_single_corners(m), bool(real_structures(m)), realized] += 1
    assert rows == {
        (True, True, True): 2070,
        (True, False, True): 1506,
        (True, False, False): 618,
        (False, True, False): 240,
        (False, False, False): 1332,
    }


def test_real_types_of_small_cells():
    """``real_type`` over every (rep, real structure) pair of a cell: in
    (2,1,0) the two real structures of the one rep give an empty real
    locus and one dividing oval."""
    types = {}
    for cell in ((2, 1, 0), (2, 2, 0), (3, 3, 0)):
        types[cell] = {
            real_type(cls.representative, sigma)
            for cls in enumerate_monodromies(*cell).classes
            for sigma in real_structures(cls.representative)
        }
    assert types == {
        (2, 1, 0): {(0, False), (1, True)},
        (2, 2, 0): {(0, False), (2, True)},
        (3, 3, 0): {(1, False), (2, True)},
    }


def test_real_types_obey_harnack_and_klein():
    """Over the 995 single-corner (rep, real structure) pairs with d <= 3
    and t + s <= 5, with ``g`` the genus the counts force, the real types
    obey three classical facts: Harnack's bound ``k <= g + 1``; Klein's
    congruence ``k = g + 1 (mod 2)`` for a dividing curve; and ``k <= g``
    for a non-dividing one."""
    pairs = 0
    for m in enumerated_reps(3, 5):
        for sigma in real_structures(m) if _single_corners(m) else ():
            g = genus_from_counts(m)
            ovals, dividing = real_type(m, sigma)
            assert ovals <= g + 1, (m, sigma)
            if dividing:
                assert (ovals - g - 1) % 2 == 0, (m, sigma)
            else:
                assert ovals <= g, (m, sigma)
            pairs += 1
    assert pairs == 995


def test_every_sheet_tuple_is_a_realized_generic_rep():
    """Every tuple of every d <= 3 cell with t + s <= 5 and of (4,1,3),
    (4,2,2), (4,3,0) and (4,4,0), encoded with its real structure
    standard: the rep passes the representation gate and has a park.
    These reps carry a ``c[1]`` that is not the standard matching and a
    mark of their own, so they reach extraction off the enumeration path;
    on those of degree 3 or less, every cell of the park is checked
    against one built from scratch."""
    cells = TUPLE_CELLS + [(4, 1, 3), (4, 2, 2), (4, 3, 0), (4, 4, 0)]
    reps = [tuple_to_rep(chi, rho) for cell in cells for chi, rho in sheet_tuples(*cell)]
    for m in reps:
        monodromy.require_generic(m)
        assert m._mark is not None and m._mark.cells is None
        park = monodromy_to_park(m)
        assert m._mark.cells is not None
        if m.degree <= 3:
            assert check_extraction(m) == park
    assert len(reps) == 4691
    assert sum(m.c[0] != pg.mirror_matching(m.degree) for m in reps) == 3065


#: The sorted labelled sizes of the components of every nonempty cell with
#: d <= 4 and t + s <= 5 but (4,5,0), whose 8 components take 3.8 s.
COMPONENT_SIZES = {
    (1, 0, 0): [1],
    (2, 0, 2): [2],
    (2, 0, 4): [2],
    (2, 1, 0): [1, 1],
    (2, 1, 2): [2],
    (2, 1, 4): [2],
    (2, 2, 0): [1, 1],
    (2, 2, 2): [2],
    (2, 3, 0): [1, 1],
    (2, 3, 2): [2],
    (2, 4, 0): [1, 1],
    (2, 5, 0): [1, 1],
    (3, 0, 4): [12],
    (3, 1, 2): [12],
    (3, 1, 4): [24, 24],
    (3, 2, 0): [6, 6],
    (3, 2, 2): [12, 36],
    (3, 3, 0): [24, 24],
    (3, 3, 2): [12, 48, 96],
    (3, 4, 0): [6, 24, 54, 72],
    (3, 5, 0): [240, 240],
    (4, 1, 4): [96, 96, 96, 96],
    (4, 2, 2): [48, 48, 48, 144],
    (4, 3, 0): [96, 96, 96, 96],
    (4, 3, 2): [144, 192, 192, 192, 384, 384, 384, 768],
    (4, 4, 0): [72, 288, 288, 288, 288, 576, 576, 648],
}
COMPONENT_CELLS = [
    (d, t, s) for d in (1, 2, 3, 4) for t in range(6) for s in range(6 - t) if (d, t, s) != (4, 5, 0)
]


def test_components_of_small_cells():
    """ROADMAP item 18's components: 64 on the 26 nonempty cells, with
    these labelled sizes; every other cell has no tuple."""
    sizes = {}
    for cell in COMPONENT_CELLS:
        found = components(*cell)
        if found:
            sizes[cell] = sorted(map(len, found))
    assert sizes == COMPONENT_SIZES
    assert sum(map(len, sizes.values())) == 64


#: Each nonempty cell's count of real functions up to relabeling: the sum
#: of ``real_hurwitz_brute`` over its components.
REAL_HURWITZ = {
    (1, 0, 0): 1,
    (2, 0, 2): 1,
    (2, 0, 4): 1,
    (2, 1, 0): 1,
    (2, 1, 2): 1,
    (2, 1, 4): 1,
    (2, 2, 0): 1,
    (2, 2, 2): 1,
    (2, 3, 0): 1,
    (2, 3, 2): 1,
    (2, 4, 0): 1,
    (2, 5, 0): 1,
    (3, 0, 4): 2,
    (3, 1, 2): 2,
    (3, 1, 4): 8,
    (3, 2, 0): 2,
    (3, 2, 2): 8,
    (3, 3, 0): 8,
    (3, 3, 2): 26,
    (3, 4, 0): 26,
    (3, 5, 0): 80,
    (4, 1, 4): 16,
    (4, 2, 2): 12,
    (4, 3, 0): 16,
    (4, 3, 2): 110,
    (4, 4, 0): 126,
}
#: The components, by index in ``components`` order, whose park's
#: ``park_hurwitz`` equals their ``real_hurwitz_brute``.
PARK_HURWITZ_AGREES = {
    (1, 0, 0): [0],
    (2, 0, 2): [0],
    (2, 0, 4): [0],
    (2, 1, 0): [0, 1],
    (2, 2, 0): [0, 1],
    (2, 3, 0): [0, 1],
    (2, 4, 0): [0, 1],
    (2, 5, 0): [0, 1],
    (3, 2, 0): [1],
    (3, 3, 0): [0, 1],
    (3, 4, 0): [1, 2],
    (3, 5, 0): [0, 1],
    (4, 3, 0): [0, 1, 2, 3],
    (4, 4, 0): [2, 3, 6],
}


def test_park_hurwitz_against_the_count_of_each_component():
    """ROADMAP item 1: each component's Hurwitz number, its labelled tuples
    over ``d!``, sums to ``REAL_HURWITZ`` on each cell, and ``park_hurwitz``
    of the park of the component's first tuple equals it on 27 of the 64
    components: on none of the 28 with both cone and corner points, and on
    25 of the 33 with no corner point."""
    sums: dict[tuple, int] = {}
    agrees: dict[tuple, list[int]] = {}
    for cell in COMPONENT_CELLS:
        for i, comp in enumerate(components(*cell)):
            value = real_hurwitz_brute(comp)
            sums[cell] = sums.get(cell, 0) + value
            if park_hurwitz(monodromy_to_park(tuple_to_rep(*comp[0]))) == value:
                agrees.setdefault(cell, []).append(i)
    assert sums == REAL_HURWITZ
    assert agrees == PARK_HURWITZ_AGREES
    assert sum(map(len, agrees.values())) == 27
    assert sum(len(agrees.get(cell, ())) for cell in COMPONENT_SIZES if cell[2] == 0) == 25


def test_hurwitz_moves_stay_in_the_cell():
    """Every half-twist and click maps each tuple of every cell of
    ``COMPONENT_CELLS`` to a tuple of the cell, and one of the moves from
    that tuple leads back."""
    for cell in COMPONENT_CELLS:
        tuples = sheet_tuples(*cell)
        cell_set = set(tuples)
        for tup in tuples:
            for moved in hurwitz_moves(*tup):
                assert moved in cell_set, (cell, tup, moved)
                assert tup in hurwitz_moves(*moved), (cell, tup, moved)


def test_components_keep_real_type_and_park():
    """On the 995 tuples with d <= 3 and t + s <= 5, with the real
    structure standard: ``real_type`` is constant on each component, and
    ``monodromy_to_park`` gives isomorphic parks within one."""
    seen = 0
    for cell in TUPLE_CELLS:
        sigma = pg.mirror_matching(cell[0])
        for comp in components(*cell):
            reps = [tuple_to_rep(*tup) for tup in comp]
            assert len({real_type(m, sigma) for m in reps}) == 1, cell
            parks = [monodromy_to_park(m) for m in reps]
            assert all(park_isomorphic(parks[0], park) for park in parks), cell
            seen += len(comp)
    assert seen == 995
