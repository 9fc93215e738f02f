"""Unit tests for park extraction from representations."""

import dataclasses
import hashlib
import json
import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from parkscope import (
    InconsistencyError,
    NonRealizableError,
    build,
    enumerate_monodromies,
    find_park_involution,
    genus,
    monodromy_to_park,
    total_degree,
    validate_park,
)
from parkscope import extraction, park as park_module
from parkscope.extraction import _euler_characteristic
from parkscope.monodromy import validate_genericity, validate_relations
from parkscope.park import Alley, euler_characteristic, from_json_dict, to_json_dict
from parkscope.permgroup import compose, from_cycles

from conftest import (
    assemble_park,
    chains_product_brute,
    check_extraction,
    corner_vertices,
    enumerated_reps,
    exits_from_orbits,
    make_unrealizable_rep,
    monodromy_to_park_full,
    nodes_from_weights,
    orbit_weights,
    realized_reps,
)


def _min_rotation(seq):
    seq = tuple(seq)
    if not seq:
        return seq
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def test_loop3_park_shape(loop3_park):
    assert validate_park(loop3_park).ok
    assert total_degree(loop3_park) == 3
    assert genus(loop3_park) == 0
    assert len(loop3_park.gardens) == 1
    garden = loop3_park.gardens[0]
    assert garden.kind == "orientable"
    assert [(f.degree, f.color) for f in garden.faces] == [
        (3, "white"),
        (3, "black"),
    ]
    assert len(garden.edges) == 1
    edge = garden.edges[0]
    assert edge.kind == "loop"
    assert edge.length == 3
    assert garden.vertices == ()


def test_loop3_nodes_and_alleys(loop3_rep, loop3_park):
    entrances = [n for n in loop3_park.nodes if n.role == "entrance"]
    exits = [n for n in loop3_park.nodes if n.role == "exit"]
    assert len(entrances) == 1 and len(exits) == 1
    assert entrances[0].genus == 0 and exits[0].genus == 0
    assert len(loop3_park.alleys) == 2
    # the skeleton memo the extraction filled agrees with the park
    memo = loop3_rep._mark.cells
    assert (memo.faces, memo.mirror) == ([(0, 2, 1)], [0])
    assert (memo.genera, memo.node_of_face, memo.exits) == ([0], [0], [0])
    assert (memo.nodes, memo.alleys) == (loop3_park.nodes, loop3_park.alleys)
    (sig,), _ = nodes_from_weights(orbit_weights(loop3_rep))
    assert (sig.genus, sig.circles, sig.degrees, sig.branch_points) == (0, 1, (3,), 2)


def test_single_sheet_park(single_sheet_rep):
    park = monodromy_to_park(single_sheet_rep)
    assert validate_park(park).ok
    assert total_degree(park) == 1
    assert genus(park) == 0
    assert len(park.gardens) == 1
    garden = park.gardens[0]
    assert [f.degree for f in garden.faces] == [1, 1]
    assert [e.length for e in garden.edges] == [1]
    assert len(park.nodes) == 2


def test_chord_park_shape(chord_park):
    assert validate_park(chord_park).ok
    assert genus(chord_park) == 0
    garden = chord_park.gardens[0]
    assert sorted(v.corner_label for v in garden.vertices) == [1, 2]
    assert sorted(e.kind for e in garden.edges) == ["segment"] * 4
    assert sorted(e.length for e in garden.edges) == [0, 0, 1, 1]
    multisets = sorted(
        tuple(sorted(abs(entry) for entry in f.boundary)) for f in garden.faces
    )
    by_length = sorted(
        tuple(
            sorted(
                next(e.length for e in garden.edges if e.id == abs(entry))
                for entry in f.boundary
            )
        )
        for f in garden.faces
    )
    assert by_length == [(0, 0, 1), (0, 0, 1), (1,), (1,)]
    assert len(multisets) == 4


def test_black_boundaries_mirror_white(chord_park, loop3_park):
    for park in (chord_park, loop3_park):
        faces = {f.id: f for g in park.gardens for f in g.faces}
        for f in faces.values():
            if f.color != "white":
                continue
            mirror = faces[park.involution.faces[f.id]]
            assert mirror.color == "black"
            expected = _min_rotation(
                tuple(-park.involution.edges[abs(entry)] * (1 if entry > 0 else -1)
                      for entry in reversed(f.boundary))
            )
            assert _min_rotation(mirror.boundary) == expected


def test_every_edge_has_one_side_of_each_color(chord_park):
    sides: dict[int, list[str]] = {}
    for g in chord_park.gardens:
        for f in g.faces:
            for entry in f.boundary:
                sides.setdefault(abs(entry), []).append(f.color)
    for colors in sides.values():
        assert sorted(colors) == ["black", "white"]


def test_extracted_involution_is_refound(loop3_park, chord_park, example_park):
    """The search refinds each park's own involution, and the park passes
    ``validate_park`` with it in place: the validator's face-boundary rule
    agrees with the search, which reads boundaries reversed."""
    swept = [park for _, park in realized_reps(3, 5)]
    assert len(swept) == 984
    for park in (loop3_park, chord_park, example_park, *swept):
        found = find_park_involution(park)
        assert found is not None
        assert found.nodes == park.involution.nodes
        assert found.faces == park.involution.faces
        assert found.edges == park.involution.edges
        assert found.vertices == park.involution.vertices
        assert found.gardens == park.involution.gardens
        assert validate_park(dataclasses.replace(park, involution=found)).ok


def _broken(park, breakage):
    first = park.alleys[0]
    if breakage == "duplicate face id":
        garden = park.gardens[0]
        copy = dataclasses.replace(garden, faces=garden.faces + garden.faces[:1])
        return dataclasses.replace(park, gardens=(copy, *park.gardens[1:]))
    if breakage == "alley to an unknown node":
        stray = dataclasses.replace(first, node_id=999)
        return dataclasses.replace(park, alleys=(stray, *park.alleys[1:]))
    if breakage == "face without an alley":
        return dataclasses.replace(park, alleys=park.alleys[1:])
    if breakage == "boundary names an unknown edge":
        garden = park.gardens[0]
        face = garden.faces[0]
        stray = dataclasses.replace(face, boundary=(999, *face.boundary[1:]))
        copy = dataclasses.replace(garden, faces=(stray, *garden.faces[1:]))
        return dataclasses.replace(park, gardens=(copy, *park.gardens[1:]))
    extra = Alley(id=999, face_id=first.face_id, node_id=first.node_id)
    return dataclasses.replace(park, alleys=(*park.alleys, extra))


@pytest.mark.parametrize(
    "breakage",
    [
        "duplicate face id",
        "alley to an unknown node",
        "face without an alley",
        "face with two alleys",
        "boundary names an unknown edge",
    ],
)
def test_involution_search_on_broken_parks_is_none(chord_park, loop3_park, breakage):
    for park in (chord_park, loop3_park):
        assert find_park_involution(_broken(park, breakage)) is None


def test_branchless_two_corner_rep_extracts():
    # no branch points at all: both critical values are boundary corners
    rep = build(2, [], [(2, 3, 0, 1), (3, 2, 1, 0), (2, 3, 0, 1)])
    park = monodromy_to_park(rep)
    assert validate_park(park).ok
    assert genus(park) == 0
    assert total_degree(park) == 2
    # without branch generators every sheet is its own node, carrying b = 0
    entrances = [n for n in park.nodes if n.role == "entrance"]
    assert len(entrances) == 2
    assert park.cone_points == 0 and park.corner_points == 2


def test_rejects_odd_characteristic_rep(unrealizable_rep):
    with pytest.raises(NonRealizableError) as err:
        monodromy_to_park(unrealizable_rep)
    assert "Euler characteristic" in str(err.value)
    chi = err.value.euler_characteristic
    assert str(err.value) == f"no closed orientable surface has Euler characteristic {chi}"
    assert chi % 2 == 1
    assert (err.value.built_genus, err.value.forced_genus) == (None, None)


def _genus_mismatch_rep():
    """A (4,2,2) rep whose real locus closes to a torus, where the count
    forces a sphere."""
    return build(
        4,
        [(0, 1, 3, 2, 4, 5, 6, 7), (0, 1, 3, 2, 4, 5, 6, 7)],
        [(4, 5, 6, 7, 0, 1, 2, 3), (6, 7, 4, 5, 2, 3, 0, 1), (4, 5, 6, 7, 0, 1, 2, 3)],
    )


def test_rejects_genus_mismatch_rep():
    with pytest.raises(NonRealizableError) as err:
        monodromy_to_park(_genus_mismatch_rep())
    assert str(err.value) == (
        "the real-locus structure closes to a surface of genus 1, "
        "but the critical-value count forces genus 0"
    )
    assert (err.value.euler_characteristic, err.value.built_genus, err.value.forced_genus) == (0, 1, 0)


def _outcome(extract, rep):
    try:
        return to_json_dict(extract(rep))
    except (NonRealizableError, InconsistencyError) as exc:
        return (type(exc), str(exc))


def test_genus_check_before_assembly_matches_full_build():
    """Every d <= 3 rep with t + s <= 5 and a seeded sample of d = 4 reps
    from a reject-only cell and the mixed cell (4,2,2): the same park, or
    the same error, as checking the genus on the assembled park."""
    rng = random.Random(10)
    reps = list(enumerated_reps(3, 5))
    for cell in ((4, 0, 3), (4, 2, 2)):
        cell_reps = [cls.representative for cls in enumerate_monodromies(*cell).classes]
        reps += rng.sample(cell_reps, min(300, len(cell_reps)))
    messages = set()
    for rep in reps:
        fast = _outcome(monodromy_to_park, rep)
        assert fast == _outcome(monodromy_to_park_full, rep)
        if isinstance(fast, dict):
            continue
        messages.add(fast[1].split(" ")[1])
        park = assemble_park(rep)
        # the validation the early rejection skips would have passed every
        # rule but surface closure, which fails with the same text
        report = validate_park(park)
        if fast[1].startswith("no closed orientable surface"):
            assert report.violations == (("surface-closure", fast[1]),)
        else:
            assert report.ok
    # odd characteristic, impossible count and genus mismatch all occur
    assert messages == {"closed", "surface", "real-locus"}


def test_cheap_characteristic_invariants():
    """Every d <= 3 rep with t + s <= 5, all of (4,0,3) and a seeded
    sample of (4,2,2), realized or not, fully extracted: the facts the
    characteristic from the counts rests on, and that characteristic,
    ``2d - 2t - s - D``, against the one of the assembled park."""
    rng = random.Random(12)
    reps = list(enumerated_reps(3, 5))
    reps += [cls.representative for cls in enumerate_monodromies(4, 0, 3).classes]
    cell_reps = [cls.representative for cls in enumerate_monodromies(4, 2, 2).classes]
    reps += rng.sample(cell_reps, min(300, len(cell_reps)))
    for rep in reps:
        park = assemble_park(rep)
        # every vertex has four ends and every segment two
        segments = [e for e in park.all_edges() if e.kind == "segment"]
        vertices = set(corner_vertices(rep).values())
        assert len(segments) == 2 * len(list(park.all_vertices())) == 2 * len(vertices)
        # entrances and the exits built from orbits pair off, one to one,
        # with equal signatures
        exits, paired = exits_from_orbits(rep)
        signatures, _ = nodes_from_weights(orbit_weights(rep))
        assert sorted(paired) == list(range(len(exits))) and len(paired) == len(signatures)
        for k, signature in zip(paired, signatures):
            assert exits[k][1] == signature
        d, t, s = rep.degree, rep.cone_points, rep.corner_points
        double = sum(
            sum(u[a] != a for a in range(d)) == 4
            for u in map(rep.corner_element, range(1, s + 1))
        )
        chi = euler_characteristic(park)
        assert _euler_characteristic(rep) == 2 * d - 2 * t - s - double == chi


def test_trusted_extraction_facts_hold():
    """The checks the realized path leaves out, on every d <= 3 rep with
    t + s <= 5, all of (4,0,3), (4,3,0) and (4,4,0), and a seeded sample
    of (4,2,2): black runs match white chains, arcs carry d lifts, no cell
    straddles gardens, exits from orbits equal the mirrored ones, and
    every realized park validates."""
    rng = random.Random(12)
    reps = list(enumerated_reps(3, 5))
    for cell in ((4, 0, 3), (4, 3, 0), (4, 4, 0)):
        reps += [cls.representative for cls in enumerate_monodromies(*cell).classes]
    cell_reps = [cls.representative for cls in enumerate_monodromies(4, 2, 2).classes]
    reps += rng.sample(cell_reps, min(300, len(cell_reps)))
    realized = sum(check_extraction(rep) is not None for rep in reps)
    assert realized > 0


def test_realized_path_calls_no_validator(monkeypatch):
    """Extraction trusts the park it assembles: with ``validate_park``
    raising, every rep of (3,2,2) and (4,3,0) extracts to the same park,
    or the same error."""
    reps = [
        cls.representative
        for cell in ((3, 2, 2), (4, 3, 0))
        for cls in enumerate_monodromies(*cell).classes
    ]
    expected = [_outcome(monodromy_to_park, rep) for rep in reps]
    assert any(isinstance(outcome, dict) for outcome in expected)

    def validator_called(park):
        raise AssertionError("the realized path called validate_park")

    monkeypatch.setattr(extraction, "validate_park", validator_called, raising=False)
    monkeypatch.setattr(park_module, "validate_park", validator_called)
    assert [_outcome(monodromy_to_park, rep) for rep in reps] == expected


def test_rejected_reps_never_reach_the_walk(monkeypatch):
    """A rejected rep raises from its counts alone: with the extraction
    broken, every rep of three reject-only cells, and a genus mismatch,
    raises exactly as before, and the skeleton memo stays empty."""
    reps = [
        cls.representative
        for cell in ((3, 2, 1), (3, 1, 3), (4, 0, 3))
        for cls in enumerate_monodromies(*cell).classes
    ]
    reps.append(_genus_mismatch_rep())

    def rejections():
        out = []
        for rep in reps:
            with pytest.raises(NonRealizableError) as err:
                monodromy_to_park(rep)
            exc = err.value
            out.append((str(exc), exc.euler_characteristic, exc.built_genus, exc.forced_genus))
        return out

    expected = rejections()
    assert all(rep._mark.cells is None for rep in reps)

    def unreachable(m):
        raise AssertionError("a rejected rep reached the extraction")

    monkeypatch.setattr(extraction, "_build_park", unreachable)
    assert rejections() == expected


def test_rejects_invalid_representation():
    broken_seam = build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1)])
    with pytest.raises(ValueError):
        monodromy_to_park(broken_seam)


#: SHA-256 over the per-rep digests of :func:`test_park_bytes_are_pinned`.
GOLDEN_PARK_DIGEST = "82fc38f496ff1a79f489b397321557b6809a5e0011eeea4201ec4b1c05570b49"


def test_park_bytes_are_pinned():
    """Every park byte and every rejection message, pinned: for each rep
    of every d <= 3 cell with t + s <= 5, then (4,3,0) and (4,4,0), in
    enumeration order, the SHA-256 of the park's sorted-key JSON or of the
    ``NonRealizableError`` message, folded into one digest."""
    reps = list(enumerated_reps(3, 5))
    for cell in ((4, 3, 0), (4, 4, 0)):
        reps += [cls.representative for cls in enumerate_monodromies(*cell).classes]
    digest = hashlib.sha256()
    realized = 0
    for rep in reps:
        try:
            text = json.dumps(to_json_dict(monodromy_to_park(rep)), sort_keys=True)
            realized += 1
        except NonRealizableError as exc:
            text = str(exc)
        digest.update(hashlib.sha256(text.encode()).digest())
    assert (len(reps), realized) == (3114, 2496)
    assert digest.hexdigest() == GOLDEN_PARK_DIGEST


def test_assembled_parks_equal_their_json_round_trip():
    """``_build_park`` makes every park record unchecked, through
    ``monodromy._trusted``: each park of the pinned sweep equals the park
    that the checked constructors make from its JSON, so no field holds a
    list, say, where they would make a tuple."""
    parks = [park for _, park in realized_reps(3, 5)]
    for cell in ((4, 3, 0), (4, 4, 0)):
        reps = [cls.representative for cls in enumerate_monodromies(*cell).classes]
        parks += [monodromy_to_park(rep) for rep in reps]
    assert len(parks) == 2496
    for park in parks:
        assert park == from_json_dict(to_json_dict(park))


def test_extraction_is_deterministic(chord_rep):
    first = to_json_dict(monodromy_to_park(chord_rep))
    second = to_json_dict(monodromy_to_park(chord_rep))
    assert first == second


def test_small_sweep_exact_genus_or_rejection():
    checked = rejected = 0
    for t in range(0, 6):
        for s in range(0, 6 - t):
            for cls in enumerate_monodromies(2, t, s).classes:
                rep = cls.representative
                try:
                    park = monodromy_to_park(rep)
                except NonRealizableError:
                    rejected += 1
                    continue
                forced = 2 * t + s - 2 * 2 + 2
                assert forced >= 0 and forced % 2 == 0
                assert genus(park) == forced // 2
                assert validate_park(park).ok
                checked += 1
    assert checked == 11
    assert rejected == 6


def test_mirror_node_signatures_match():
    from parkscope.park import EntranceSignature

    for cls in enumerate_monodromies(3, 1, 2, dedup="jequiv").classes:
        try:
            park = monodromy_to_park(cls.representative)
        except NonRealizableError:
            continue
        faces = {f.id: f for g in park.gardens for f in g.faces}
        nodes = {n.id: n for n in park.nodes}
        degs: dict[int, list[int]] = {n: [] for n in nodes}
        for a in park.alleys:
            degs[a.node_id].append(faces[a.face_id].degree)
        for n in park.nodes:
            partner = nodes[park.involution.nodes[n.id]]
            assert partner.role != n.role
            mine = EntranceSignature.compute(n.genus, degs[n.id])
            theirs = EntranceSignature.compute(partner.genus, degs[partner.id])
            assert (mine.genus, mine.degrees) == (theirs.genus, theirs.degrees)


REALIZABILITY_CELLS = [
    (d, t, s) for d in (1, 2, 3) for t in range(6) for s in range(6 - t)
] + [(4, 2, 2), (4, 3, 0), (4, 4, 0)]


def test_realized_exactly_when_counts_close_and_corners_are_single():
    """A valid generic rep has a park exactly when (a) ``2t + s - 2d + 2``
    is even and at least 0, and (b) every corner element ``c[k] c[k+1]``
    moves exactly two whites: over every enumerated rep of every d <= 3,
    t + s <= 5 cell and of (4,2,2), (4,3,0) and (4,4,0)."""
    outcomes = Counter()
    for d, t, s in REALIZABILITY_CELLS:
        forced = 2 * t + s - 2 * d + 2
        closes = forced >= 0 and forced % 2 == 0
        for cls in enumerate_monodromies(d, t, s).classes:
            rep = cls.representative
            corners = (rep.corner_element(k) for k in range(1, s + 1))
            single = all(sum(u[w] != w for w in range(d)) == 2 for u in corners)
            try:
                monodromy_to_park(rep)
                realized = True
            except NonRealizableError:
                realized = False
            assert realized == (closes and single), (d, t, s, rep)
            outcomes[closes, single] += 1
    # with d <= 3 no corner can move four whites, so (b) fails only in (4,2,2)
    assert outcomes == {(True, True): 3576, (True, False): 1572, (False, True): 618}


def _outcome_figures(rep):
    """The park JSON of ``rep``, or its rejection text with the genus
    figures."""
    try:
        return json.dumps(to_json_dict(monodromy_to_park(rep)), sort_keys=True)
    except NonRealizableError as exc:
        return str(exc), exc.euler_characteristic, exc.built_genus, exc.forced_genus


def test_skeleton_memo_does_not_depend_on_extraction_order():
    """Enumeration gives every rep of one white skeleton one mark, whose
    memo of the faces and entrances the first extraction fills.  Extracted
    in reversed enumeration order, so that another rep fills each memo,
    every rep of every d <= 3, t + s <= 5 cell and of (4,2,2), (4,3,0)
    and (4,4,0) gives the park JSON, or the rejection text and genus
    figures, of its unmarked rebuild, which gets a memo of its own."""
    checked = sharing = 0
    for cell in REALIZABILITY_CELLS:
        reps = [cls.representative for cls in enumerate_monodromies(*cell).classes]
        sharing += len(reps) - len({id(rep._mark) for rep in reps})
        for rep in reversed(reps):
            rebuilt = build(rep.degree, rep.x, rep.c)
            assert rebuilt._mark is None
            assert _outcome_figures(rep) == _outcome_figures(rebuilt), (cell, rep)
            checked += 1
    assert (checked, sharing) == (5766, 3668)


def test_parks_of_one_skeleton_share_no_mutable_state():
    """Two realized reps of one white skeleton share one mark, and so one
    memo: their parks share the immutable node and alley records, but each
    gets five involution maps of its own, all read-only.  Replacing one
    park's involution leaves the other park's JSON, and that of a park
    built again from the memo, as it was, and clearing its maps in place
    raises."""
    by_mark = {}
    for rep, _ in realized_reps(3, 5):
        by_mark.setdefault(id(rep._mark), []).append(rep)
    first, second = next(reps for reps in by_mark.values() if len(reps) > 1)[:2]
    assert first._mark is second._mark and first != second
    # parks of their own: the ones realized_reps holds are shared with other tests
    p1, p2 = monodromy_to_park(first), monodromy_to_park(second)
    assert p1.nodes is p2.nodes and p1.alleys is p2.alleys
    names = ("nodes", "faces", "edges", "vertices", "gardens")
    for name in names:
        assert getattr(p1.involution, name) is not getattr(p2.involution, name), name
    before = to_json_dict(p2)
    replaced = dataclasses.replace(
        p1, involution=dataclasses.replace(p1.involution, faces={}, nodes={})
    )
    assert replaced.involution.faces == {} and to_json_dict(p2) == before
    for name in names:
        with pytest.raises(AttributeError):
            getattr(p1.involution, name).clear()
        with pytest.raises(TypeError):
            getattr(p1.involution, name)[1] = 1
    assert to_json_dict(p2) == before
    assert to_json_dict(monodromy_to_park(second)) == before
    assert monodromy_to_park(first).involution.faces


def _black_halves(d):
    """Every involution of the blacks, whites fixed, built from scratch."""
    return [
        tuple(range(d)) + tuple(d + b for b in images)
        for images in permutations(range(d))
        if all(images[images[i]] == i for i in range(d))
    ]


def _outcome_text(rep):
    try:
        return json.dumps(to_json_dict(monodromy_to_park(rep)), sort_keys=True)
    except NonRealizableError as exc:
        return str(exc)


def test_every_valid_completion_has_the_enumerated_outcome():
    """The park does not depend on the completion of a white skeleton.
    For every d <= 3 cell with t <= 3 and t + s <= 5, every skeleton (a
    chain and one white transposition per ``x``) is completed in every
    way, each ``x`` a white transposition times a black involution.  The
    completions that pass both validators all give the park JSON, or the
    rejection text, of the rep the enumerator emits for that skeleton,
    and a skeleton is emitted exactly when it has such a completion."""
    skeletons = completions = 0
    for d in (1, 2, 3):
        white_moves = [from_cycles(2 * d, [pair]) for pair in combinations(range(d), 2)]
        black_halves = _black_halves(d)
        for t in range(4):
            for s in range(6 - t):
                emitted = {
                    (tuple(x[:d] for x in cls.representative.x), cls.representative.c):
                        _outcome_text(cls.representative)
                    for cls in enumerate_monodromies(d, t, s).classes
                }
                for chain in chains_product_brute(d, s):
                    for white_xs in product(white_moves, repeat=t):
                        found = set()
                        for betas in product(black_halves, repeat=t):
                            xs = [compose(w, b) for w, b in zip(white_xs, betas)]
                            rep = build(d, xs, chain)
                            if validate_relations(rep) and validate_genericity(rep):
                                found.add(_outcome_text(rep))
                                completions += 1
                        key = (tuple(w[:d] for w in white_xs), tuple(chain))
                        assert (key in emitted) == bool(found), (d, t, s, key)
                        if found:
                            assert found == {emitted.pop(key)}, (d, t, s, key)
                            skeletons += 1
                assert not emitted, (d, t, s)
    assert (skeletons, completions) == (1032, 5116)
