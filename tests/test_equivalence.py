"""Unit tests for relabeling equivalence, park isomorphism, enumeration."""

import dataclasses
import hashlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from parkscope import (
    NonRealizableError,
    ResourceLimitError,
    build,
    canonical_form,
    conjugate_rep,
    enumerate_monodromies,
    find_park_involution,
    monodromy_equivalent,
    monodromy_to_park,
    park_isomorphic,
)
from parkscope import cli, equivalence, extraction, monodromy
from parkscope import permgroup as pg
from parkscope.park import _ParkIndex, from_json_dict, to_json_dict, validate_park

from conftest import (
    canonical_form_brute,
    canonical_key_brute,
    canonical_ties_brute,
    chains_product_brute,
    check_park_isomorphism,
    complete_skeleton_validated,
    enumerated_reps,
    first_witness_brute,
    make_chord_rep,
    realized_reps,
    run_cli,
    run_python,
)


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
            def orbit_partition(m):
                return sorted(
                    tuple(sorted(o))
                    for o in pg.orbits(list(m.x), m.ground_size)
                )

            assert orbit_partition(carried) == orbit_partition(moved)


def test_mismatched_parameters_rejected(loop3_rep, single_sheet_rep):
    # valid reps of different (d, t, s) are not equivalent: no witness
    assert monodromy_equivalent(loop3_rep, single_sheet_rep) is None
    assert monodromy_equivalent(single_sheet_rep, loop3_rep) is None


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


def test_relabeling_deciders_agree_on_every_pair():
    """Over every ordered pair of enumerated reps of four degree-3 cells,
    ``monodromy_equivalent`` returns the witness of the plain search over
    all relabelings (``first_witness_brute``), finds one exactly when the
    canonical forms agree, and each witness conjugates ``e`` and every
    ``c`` of the first rep onto the second and carries its ``x`` orbits
    onto the second's."""

    def orbit_system(m):
        return {tuple(sorted(orbit)) for orbit in pg.orbits(list(m.x), m.ground_size)}

    pairs = equivalent = 0
    for cell in ((3, 2, 2), (3, 3, 0), (3, 1, 3), (3, 3, 1)):
        reps = [cls.representative for cls in enumerate_monodromies(*cell).classes]
        forms = [canonical_form(rep) for rep in reps]
        for a, form_a in zip(reps, forms):
            for b, form_b in zip(reps, forms):
                pairs += 1
                witness = monodromy_equivalent(a, b)
                brute = first_witness_brute(a, b)
                assert (None if witness is None else witness.mapping) == brute, (a, b)
                assert (witness is not None) == (form_a == form_b), (a, b)
                if witness is None:
                    continue
                equivalent += 1
                carried = conjugate_rep(a, witness.mapping)
                assert (carried.e, carried.c) == (b.e, b.c), (a, b)
                assert orbit_system(carried) == orbit_system(b), (a, b)
    assert (pairs, equivalent) == (14427, 4779)


def test_canonical_form_constant_on_classes():
    for cls in enumerate_monodromies(3, 2, 0, dedup="jequiv").classes:
        forms = {canonical_form(member) for member in cls.members}
        assert len(forms) == 1
        assert canonical_form(cls.representative) in forms


def test_canonical_form_matches_brute_force():
    for rep in enumerated_reps(3, 5):
        assert canonical_form(rep) == canonical_form_brute(rep)


def _degree_4_sample() -> list:
    """A seeded sample of 300 representations from four degree-4 cells."""
    pool = [
        cls.representative
        for cell in ((4, 1, 4), (4, 2, 2), (4, 1, 3), (4, 3, 1))
        for cls in enumerate_monodromies(*cell).classes
    ]
    return random.Random(41).sample(pool, 300)


def test_canonical_form_matches_brute_force_on_degree_4_sample():
    for rep in _degree_4_sample():
        assert canonical_form(rep) == canonical_form_brute(rep)


def _small_cells():
    """The representations of every cell with d <= 3 and t + s <= 5."""
    for d in (1, 2, 3):
        for t in range(6):
            for s in range(6 - t):
                classes = enumerate_monodromies(d, t, s).classes
                yield (d, t, s), [cls.representative for cls in classes]


def _orbit_system(m) -> tuple:
    return tuple(sorted(tuple(sorted(orbit)) for orbit in pg.orbits(list(m.x), m.ground_size)))


def test_batch_keys_match_brute_force_per_cell():
    for cell, reps in _small_cells():
        keys = list(equivalence._canonical_keys(reps))
        assert keys == [canonical_key_brute(m) for m in reps], cell


def test_batch_keys_match_brute_force_on_degree_4_sample():
    reps = _degree_4_sample()
    assert list(equivalence._canonical_keys(reps)) == [canonical_key_brute(m) for m in reps]
    # the sample holds what a head memo that left out (d, t, s) would merge:
    # equal (c[1], x, e) in different cells
    assert any(
        (a.c[0], a.x, a.e) == (b.c[0], b.x, b.e)
        and (a.degree, a.cone_points, a.corner_points) != (b.degree, b.cone_points, b.corner_points)
        for a, b in combinations(reps, 2)
    )


def test_tie_lists_match_brute_force():
    """The relabelings the key engine returns with each key are exactly
    those that reach the least serialization, in ``permutations`` order."""
    batches = [reps for _, reps in _small_cells()] + [_degree_4_sample()]
    for reps in batches:
        for m, (_, tied) in zip(reps, equivalence._canonical_images(reps)):
            assert [tuple(j) for j in tied] == canonical_ties_brute(m), m


def test_keys_and_ties_do_not_depend_on_batch_order():
    """The reflection stages resume from the path of the last rep of the
    same head, so each rep's key and tie list must not depend on what came
    before it: the sorted enumeration batch, a shuffled batch and one rep
    at a time agree, key for key and tie list for tie list."""

    def images(batch):
        images = equivalence._canonical_images(batch)
        return [(key, [tuple(j) for j in tied]) for key, tied in images]

    rng = random.Random(35)
    extra = [
        (cell, [cls.representative for cls in enumerate_monodromies(*cell).classes])
        for cell in ((4, 0, 4), (4, 2, 1))
    ]
    for cell, reps in list(_small_cells()) + extra:
        in_order = images(reps)
        order = list(range(len(reps)))
        rng.shuffle(order)
        shuffled = [None] * len(reps)
        for image, i in zip(images([reps[i] for i in order]), order):
            shuffled[i] = image
        alone = [images([m])[0] for m in reps]
        assert shuffled == in_order, cell
        assert alone == in_order, cell


def test_reflection_stages_run_once_per_shared_prefix(monkeypatch):
    """On enumeration's order the key engine runs one ``_least`` per
    ``(c[1], orbit system)``, one per head ``(c[1], x, e)`` and one per
    distinct head and reflection prefix ``c_2..c_k``."""
    stages = []
    least = equivalence._least

    def counted(relabelings, image):
        stages.append(image)
        return least(relabelings, image)

    monkeypatch.setattr(equivalence, "_least", counted)
    for cell in ((3, 1, 4), (4, 0, 4), (4, 2, 1)):
        reps = [cls.representative for cls in enumerate_monodromies(*cell).classes]
        stages.clear()
        list(equivalence._canonical_keys(reps))
        heads = {(m.c[0], m.x, m.e) for m in reps}
        prefixes = {(m.c[0], m.x, m.e, m.c[1:k]) for m in reps for k in range(2, len(m.c) + 1)}
        orbit_stages = {(m.c[0], _orbit_system(m)) for m in reps}
        assert len(stages) == len(orbit_stages) + len(heads) + len(prefixes), cell


def _black_relabeling_fixing_x(m):
    """A relabeling that moves blacks only, is not the identity and fixes
    every ``x`` (so also ``e``), or ``None`` when there is none."""
    d = m.degree
    for sigma_b in permutations(range(d, 2 * d)):
        j = tuple(range(d)) + sigma_b
        if j != tuple(range(2 * d)) and all(pg.conjugate(x, j) == x for x in m.x):
            return j
    return None


def test_batch_keys_keep_apart_what_the_head_shares():
    # Each rep with a copy whose first reflection is not standard, in
    # shuffled order.
    rng = random.Random(31)
    batch = []
    for cell in ((3, 2, 3), (3, 1, 3)):
        for cls in enumerate_monodromies(*cell).classes:
            rep = cls.representative
            relabel = _black_relabeling_fixing_x(rep) or _random_color_preserving(rng, 3)
            batch += [rep, conjugate_rep(rep, relabel)]
    rng.shuffle(batch)
    keys = list(equivalence._canonical_keys(batch))
    assert keys == [canonical_key_brute(m) for m in batch]

    # the batch holds what the stage memos must not merge: equal
    # (c[1], x, e) with different keys, equal (x, e) with different c[1],
    # equal c[1] and orbit system with different x, and with different e
    # and keys
    orbit_systems = [_orbit_system(m) for m in batch]
    pairs = list(combinations(range(len(batch)), 2))
    assert any(
        (batch[a].c[0], batch[a].x, batch[a].e) == (batch[b].c[0], batch[b].x, batch[b].e)
        and keys[a] != keys[b]
        for a, b in pairs
    )
    assert any(
        (batch[a].x, batch[a].e) == (batch[b].x, batch[b].e)
        and batch[a].c[0] != batch[b].c[0]
        for a, b in pairs
    )
    assert any(
        (batch[a].c[0], orbit_systems[a]) == (batch[b].c[0], orbit_systems[b])
        and batch[a].x != batch[b].x
        for a, b in pairs
    )
    assert any(
        (batch[a].c[0], orbit_systems[a]) == (batch[b].c[0], orbit_systems[b])
        and batch[a].e != batch[b].e
        and keys[a] != keys[b]
        for a, b in pairs
    )
    assert any(m.c[0] != pg.mirror_matching(3) for m in batch)

    # enumeration's grouping: every rep in one group, one key per group,
    # the groups apart and in the order of their canonical_form strings
    groups = equivalence._key_groups(batch)
    assert sorted(id(m) for group in groups for m in group) == sorted(map(id, batch))
    group_keys = []
    for group in groups:
        keys_here = {canonical_key_brute(m) for m in group}
        assert len(keys_here) == 1
        group_keys += keys_here
    assert len(set(group_keys)) == len(group_keys) == len(set(keys))
    assert [repr(key) for key in group_keys] == sorted(map(repr, group_keys))


@pytest.mark.parametrize("dedup", ["jequiv", "park"])
@pytest.mark.parametrize(
    "cell",
    [(3, 2, 2), (3, 3, 1), (4, 2, 0), (4, 1, 2), (3, 1, 4)],
    ids=lambda c: "%d-%d-%d" % c,
)
def test_dedup_unchanged_under_brute_force_key(monkeypatch, cell, dedup):
    fast = enumerate_monodromies(*cell, dedup=dedup)
    keyed = []

    def brute_keys(reps):
        for m in reps:
            keyed.append(m)
            yield canonical_key_brute(m)

    monkeypatch.setattr(equivalence, "_canonical_keys", brute_keys)
    brute = enumerate_monodromies(*cell, dedup=dedup)
    assert len(keyed) == brute.raw_count
    assert brute.raw_count == fast.raw_count
    assert [cls.size for cls in brute.classes] == [cls.size for cls in fast.classes]
    assert [cls.representative for cls in brute.classes] == [
        cls.representative for cls in fast.classes
    ]
    assert [cls.members for cls in brute.classes] == [cls.members for cls in fast.classes]


@pytest.mark.parametrize(
    "cell",
    [(3, 1, 4), (3, 2, 2), (4, 3, 0), (4, 1, 2), (4, 2, 2)],
    ids=lambda c: "%d-%d-%d" % c,
)
def test_park_merge_signature_buckets_only_what_cannot_match(cell):
    parks = []
    for cls in enumerate_monodromies(*cell, dedup="jequiv").classes:
        try:
            parks.append((cls, monodromy_to_park(cls.representative)))
        except NonRealizableError:
            parks.append((cls, None))
    realized = [park for _, park in parks if park is not None]
    signatures = [equivalence._merge_signature(park) for park in realized]
    for a, b in combinations(range(len(realized)), 2):
        matched = park_isomorphic(realized[a], realized[b]) is not None
        # equal for every match; on these cells also apart for every miss,
        # so the merge runs no search that cannot succeed
        assert (signatures[a] == signatures[b]) == matched, cell
    s = cell[2]
    for park, signature in zip(realized, signatures):
        # the merge matches across global cyclic rotations of the corner
        # labels, so the signature must not change under any of them
        for rotation in range(1, s):
            rotated = _recornered(park, lambda c: (c - 1 + rotation) % s + 1, reverse=False)
            assert park_isomorphic(rotated, park)
            assert equivalence._merge_signature(rotated) == signature
    # oracle: the plain pairwise merge over the same parks
    merged = []
    for cls, park in parks:
        for bucket, other in merged:
            if park is not None and other is not None and park_isomorphic(park, other):
                bucket.append(cls)
                break
        else:
            merged.append(([cls], park))
    result = enumerate_monodromies(*cell, dedup="park")
    assert [cls.representative for cls in result.classes] == [
        bucket[0].representative for bucket, _ in merged
    ]
    assert [cls.members for cls in result.classes] == [
        tuple(m for cls in bucket for m in cls.members) for bucket, _ in merged
    ]


def test_merge_rotation_hint_misses_no_rotation():
    """The merge searches a pair of equal signature only at the rotations
    ``r1 - r2`` (mod ``s``), ``r1`` one of the first park's least rotations
    and ``r2`` any of the other's.  On the cells of
    ``test_park_merge_signature_buckets_only_what_cannot_match``, every
    rotation at which the search finds a map, from a park to itself too,
    lies in that set, whichever ``r1`` is taken."""
    pairs = narrowed = 0
    for cell in ((3, 1, 4), (3, 2, 2), (4, 3, 0), (4, 1, 2), (4, 2, 2)):
        indexes = []
        for cls in enumerate_monodromies(*cell, dedup="jequiv").classes:
            try:
                indexes.append(_ParkIndex(monodromy_to_park(cls.representative)))
            except NonRealizableError:
                pass
        least = [equivalence._least_rotations(index) for index in indexes]
        s = cell[2] or 1
        for a, b in product(range(len(indexes)), repeat=2):
            (signature_a, rotations_a), (signature_b, rotations_b) = least[a], least[b]
            if signature_a != signature_b:
                continue
            pairs += 1
            found = {
                rho
                for rho in range(s)
                if equivalence._isomorphism(indexes[a], indexes[b], [(False, rho)])
            }
            assert found, (cell, a, b)
            for r1 in rotations_a:
                hinted = {(r1 - r2) % s for r2 in rotations_b}
                assert found <= hinted, (cell, a, b)
                narrowed += len(hinted) < s
    # the hint leaves rotations out, so the check is not vacuous
    assert pairs and narrowed


@pytest.mark.parametrize(
    "cell, runs",
    [((3, 1, 4), 30), ((3, 0, 4), 2), ((3, 2, 2), 2)],
    ids=["3-1-4", "3-0-4", "3-2-2"],
)
def test_park_merge_search_runs_are_pinned(monkeypatch, cell, runs):
    """One park-morphism search per merge on these cells: the signature
    buckets keep apart what cannot match, and the rotation hint tries the
    rotation that matches first."""
    started = []
    search = equivalence._park_morphisms

    def counted(*args, **kwargs):
        started.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(equivalence, "_park_morphisms", counted)
    merged = enumerate_monodromies(*cell, dedup="park")
    assert len(started) == runs
    # an unrealizable class stays alone, so each merge is one class fewer
    started.clear()
    unmerged = enumerate_monodromies(*cell, dedup="jequiv")
    assert not started
    assert runs == len(unmerged.classes) - len(merged.classes)


def test_public_entry_points_validate(loop3_park):
    """Every public entry point that takes a rep refuses an invalid or a
    non-generic one with the one gate's text, word for word."""
    broken = build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1)])
    # passes the relations; each x fixes the whites
    non_generic = build(2, [(0, 1, 3, 2)] * 2, [(2, 3, 0, 1)])
    for rep, message in (
        (broken, "monodromy fails relation validation: seam: c[1] differs from e.c[1].e^-1"),
        (
            non_generic,
            "monodromy is not generic: x[1]: white action is not a single transposition; "
            "x[2]: white action is not a single transposition",
        ),
    ):
        for entry in (
            canonical_form,
            monodromy_to_park,
            lambda m: monodromy_equivalent(m, m),
        ):
            with pytest.raises(ValueError) as caught:
                entry(rep)
            assert str(caught.value) == message
    involution = loop3_park.involution
    faces_fixed = dataclasses.replace(involution, faces={f: f for f in involution.faces})
    corrupted = dataclasses.replace(loop3_park, involution=faces_fixed)
    for pair in ((corrupted, loop3_park), (loop3_park, corrupted)):
        with pytest.raises(ValueError):
            park_isomorphic(*pair)


def test_park_isomorphic_reflexive(loop3_park, chord_park, example_park):
    for park in (loop3_park, chord_park, example_park):
        witness = park_isomorphic(park, park)
        assert witness is not None
        assert witness.rotation == 0 and not witness.reflected
        check_park_isomorphism(park, park, witness)


def test_park_search_binds_gardens_no_face_binds(example_park):
    """The search's third phase binds each garden that holds no face: on
    the example park with every boundary empty, plus a faceless pair of
    gardens 98 and 99, each with one loop edge, swapped by the involution."""
    obj = to_json_dict(example_park)
    for garden in obj["gardens"]:
        for face in garden["faces"]:
            face["boundary"] = []
    for gid, partner in ((98, 99), (99, 98)):
        loop = {"id": gid, "length": 1, "kind": "loop", "ends": None}
        garden = {"id": gid, "kind": "separated_pair_member", "partner": partner}
        obj["gardens"].append({**garden, "faces": [], "edges": [loop], "vertices": []})
        obj["involution"]["gardens"][str(gid)] = partner
        obj["involution"]["edges"][str(gid)] = partner
    coarse = from_json_dict(obj)
    assert validate_park(coarse).ok
    witness = park_isomorphic(coarse, coarse)
    assert witness.gardens == {1: 1, 2: 2, 3: 3, 4: 4, 98: 98, 99: 99}
    check_park_isomorphism(coarse, coarse, witness)
    assert find_park_involution(coarse).gardens == {1: 2, 2: 1, 3: 3, 4: 4, 98: 99, 99: 98}


def _garden_chain_park(n):
    """A valid park of ``n`` orientable gardens, garden ``k`` holding one
    loop edge ``k`` between white face ``2k - 1`` and black face ``2k``,
    both of degree 1; every white face on one genus-0 entrance and every
    black face on one genus-0 exit, so ``s = 0`` and ``t = 2n - 2``."""
    gardens, alleys = [], []
    for k in range(1, n + 1):
        white, black = 2 * k - 1, 2 * k
        faces = [
            {"id": white, "color": "white", "degree": 1, "boundary": [k]},
            {"id": black, "color": "black", "degree": 1, "boundary": [-k]},
        ]
        edge = {"id": k, "length": 1, "kind": "loop", "ends": None}
        garden = {"id": k, "kind": "orientable", "partner": None, "faces": faces}
        gardens.append({**garden, "edges": [edge], "vertices": []})
        alleys += [{"id": white, "face": white, "node": 1}, {"id": black, "face": black, "node": 2}]
    faces = {str(f): f + 1 if f % 2 else f - 1 for f in range(1, 2 * n + 1)}
    return {
        "s": 0,
        "t": 2 * n - 2,
        "gardens": gardens,
        "nodes": [{"id": 1, "role": "entrance", "genus": 0}, {"id": 2, "role": "exit", "genus": 0}],
        "alleys": alleys,
        "involution": {
            "nodes": {"1": 2, "2": 1},
            "faces": faces,
            "edges": {str(k): k for k in range(1, n + 1)},
            "vertices": {},
            "gardens": {str(k): k for k in range(1, n + 1)},
        },
    }


def test_park_search_takes_a_park_past_the_recursion_limit(tmp_path, capsys):
    """The search keeps its choice points on a stack of its own: a park of
    2,000 gardens, 4,000 steps deep, is searched by both library calls
    and by ``isomorphic``, where one frame a step ends in ``RecursionError``."""
    obj = _garden_chain_park(2000)
    big = from_json_dict(obj)
    assert validate_park(big).ok
    involution = find_park_involution(big)
    assert (involution.faces[1], involution.faces[4000], involution.gardens[2000]) == (2, 3999, 2000)
    witness = park_isomorphic(big, big)
    assert witness.faces == {f: f for f in range(1, 4001)}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["isomorphic", str(path), str(path)]) == 0
    assert capsys.readouterr().out.startswith("isomorphic\ncorner rotation: 0\ngardens: 1->1 2->2 ")


def test_park_isomorphic_across_conjugation(chord_rep):
    rng = random.Random(5)
    park = monodromy_to_park(chord_rep)
    for _ in range(5):
        relabel = _random_color_preserving(rng, chord_rep.degree)
        other = monodromy_to_park(conjugate_rep(chord_rep, relabel))
        witness = park_isomorphic(park, other)
        assert witness is not None
        check_park_isomorphism(park, other, witness)


def test_park_isomorphic_distinguishes():
    classes = enumerate_monodromies(3, 2, 0, dedup="park").classes
    assert len(classes) == 2
    parks = [monodromy_to_park(cls.representative) for cls in classes]
    assert park_isomorphic(parks[0], parks[1]) is None
    assert park_isomorphic(parks[0], parks[1], allow_reflection=True) is None


def test_relabeling_sweep_witnesses_check_out():
    rng = random.Random(8)
    for rep, park in realized_reps(3, 3):
        moved = monodromy_to_park(
            conjugate_rep(rep, _random_color_preserving(rng, rep.degree))
        )
        for reflection in (False, True):
            witness = park_isomorphic(park, moved, allow_reflection=reflection)
            assert witness is not None
            check_park_isomorphism(park, moved, witness)


def _recornered(park, corner, reverse):
    """``park`` with every corner label sent through ``corner``; with
    ``reverse``, every face boundary is also reversed and negated."""
    gardens = []
    for g in park.gardens:
        faces = g.faces
        if reverse:
            faces = tuple(
                dataclasses.replace(f, boundary=tuple(-x for x in reversed(f.boundary)))
                for f in g.faces
            )
        vertices = tuple(
            dataclasses.replace(v, corner_label=corner(v.corner_label))
            for v in g.vertices
        )
        gardens.append(dataclasses.replace(g, faces=faces, vertices=vertices))
    return dataclasses.replace(park, gardens=tuple(gardens))


def _rotated(park, k):
    s = park.corner_points
    return _recornered(park, lambda c: (c - 1 + k) % s + 1, reverse=False)


def _reflected(park, r):
    s = park.corner_points
    return _recornered(park, lambda c: (r - (c - 1)) % s + 1, reverse=True)


def _corner4_rep():
    """Degree 3, no branch points, four corners (s = 4)."""
    return build(
        3,
        [],
        [
            (3, 4, 5, 0, 1, 2),
            (3, 5, 4, 0, 2, 1),
            (3, 4, 5, 0, 1, 2),
            (4, 3, 5, 1, 0, 2),
            (3, 4, 5, 0, 1, 2),
        ],
    )


#: ``isomorphic --allow-reflection --json`` witnesses from a park to a
#: variant of it, pinned so that any change of search order shows.
PINNED_VARIANT_WITNESSES = {
    "chord:reflected:1": {
        "command": "isomorphic",
        "isomorphic": True,
        "witness": {
            "rotation": 1,
            "reflected": True,
            "gardens": {"1": 1},
            "faces": {"1": 1, "2": 2, "3": 3, "4": 4},
            "edges": {"1": 1, "2": 2, "3": 3, "4": 4},
            "vertices": {"1": 1, "2": 2},
            "nodes": {"1": 1, "2": 2, "3": 3, "4": 4},
        },
    },
    "chord:rotated:1": {
        "command": "isomorphic",
        "isomorphic": True,
        "witness": {
            "rotation": 1,
            "reflected": False,
            "gardens": {"1": 1},
            "faces": {"1": 1, "2": 2, "3": 3, "4": 4},
            "edges": {"1": 1, "2": 2, "3": 3, "4": 4},
            "vertices": {"1": 1, "2": 2},
            "nodes": {"1": 1, "2": 2, "3": 3, "4": 4},
        },
    },
    "corner4:reflected:2": {
        "command": "isomorphic",
        "isomorphic": True,
        "witness": {
            "rotation": 0,
            "reflected": True,
            "gardens": {"1": 1},
            "faces": {"1": 3, "2": 2, "3": 1, "4": 6, "5": 5, "6": 4},
            "edges": {"1": 3, "2": 6, "3": 1, "4": 8, "5": 7, "6": 2, "7": 5, "8": 4},
            "vertices": {"1": 3, "2": 4, "3": 1, "4": 2},
            "nodes": {"1": 3, "2": 2, "3": 1, "4": 6, "5": 5, "6": 4},
        },
    },
    "corner4:rotated:3": {
        "command": "isomorphic",
        "isomorphic": True,
        "witness": {
            "rotation": 1,
            "reflected": False,
            "gardens": {"1": 1},
            "faces": {"1": 3, "2": 2, "3": 1, "4": 6, "5": 5, "6": 4},
            "edges": {"1": 3, "2": 6, "3": 1, "4": 8, "5": 7, "6": 2, "7": 5, "8": 4},
            "vertices": {"1": 3, "2": 4, "3": 1, "4": 2},
            "nodes": {"1": 3, "2": 2, "3": 1, "4": 6, "5": 5, "6": 4},
        },
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_VARIANT_WITNESSES))
def test_variant_witness_pinned(tmp_path, case):
    name, variant, amount = case.split(":")
    rep = {"chord": make_chord_rep, "corner4": _corner4_rep}[name]()
    park = monodromy_to_park(rep)
    assert park.corner_points >= 2
    moved = {"rotated": _rotated, "reflected": _reflected}[variant](park, int(amount))
    paths = []
    for label, item in (("park", park), ("variant", moved)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(to_json_dict(item)), encoding="utf-8")
        paths.append(str(path))
    proc = run_cli(["isomorphic", *paths, "--allow-reflection", "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload == PINNED_VARIANT_WITNESSES[case]
    witness = park_isomorphic(park, moved, allow_reflection=True)
    assert witness.reflected == (variant == "reflected")
    check_park_isomorphism(park, moved, witness)


#: SHA-256 over every search result of :func:`test_park_search_results_are_pinned`.
GOLDEN_SEARCH_DIGEST = "32869c670839a9c6b4a28e3701170ca9cb5297db5d27561fbeae38f1d2ead8fb"
PINNED_CELL_TYPES = ("nodes", "faces", "edges", "vertices", "gardens")


def test_park_search_results_are_pinned():
    """Which witness the park search finds first, pinned.  For every
    realized park ``p`` of a d <= 3 cell with t + s <= 5: ``park_isomorphic``
    with and without reflection against ``q``, the park of a seeded
    color-preserving relabeling of its rep, and against the previous park
    of the same cell (so ``None`` verdicts count too); then
    ``find_park_involution(q)``.  Each result folds in as the ``repr`` of
    its rotation and reflection flag (witnesses only) and the sorted items
    of its five maps."""
    rng = random.Random(0)
    results = []
    previous = {}
    for rep, p in realized_reps(3, 5):
        relabel = _random_color_preserving(rng, rep.degree)
        q = monodromy_to_park(conjugate_rep(rep, relabel))
        cell = (rep.degree, p.cone_points, p.corner_points)
        for other in (q, previous.get(cell)):
            if other is not None:
                results += [park_isomorphic(p, other, flag) for flag in (False, True)]
        results.append(find_park_involution(q))
        previous[cell] = p
    digest = hashlib.sha256()
    for found in results:
        if found is None:
            digest.update(b"None")
            continue
        head = (found.rotation, found.reflected) if hasattr(found, "rotation") else ()
        maps = [sorted(getattr(found, t).items()) for t in PINNED_CELL_TYPES]
        digest.update(repr((head, maps)).encode())
    kinds = Counter(type(found).__name__ for found in results)
    assert kinds == {"ParkIsomorphism": 2900, "Involution": 984, "NoneType": 994}
    assert digest.hexdigest() == GOLDEN_SEARCH_DIGEST


def test_enumeration_counts():
    assert enumerate_monodromies(2, 1, 1).class_count == 1
    result = enumerate_monodromies(3, 2, 0)
    assert result.raw_count == 9 and result.class_count == 9
    assert enumerate_monodromies(3, 2, 0, dedup="jequiv").class_count == 2
    assert enumerate_monodromies(3, 2, 0, dedup="park").class_count == 2
    assert enumerate_monodromies(3, 1, 2, dedup="jequiv").class_count == 4
    assert enumerate_monodromies(3, 1, 2, dedup="park").class_count == 2
    assert enumerate_monodromies(3, 0, 4, dedup="park").class_count == 2


@pytest.mark.parametrize(
    "cell, raw, classes",
    [((4, 1, 4), 15120, 641), ((4, 3, 0), 216, 4), ((4, 2, 1), 300, 9)],
    ids=lambda v: "%d-%d-%d" % v if isinstance(v, tuple) else None,
)
def test_degree_4_park_dedup_counts(cell, raw, classes):
    result = enumerate_monodromies(*cell, dedup="park")
    assert (result.raw_count, result.class_count) == (raw, classes)


#: SHA-256 over ``repr((x, c, e))`` of every rep of
#: :func:`test_enumerated_reps_are_pinned`, in enumeration order.
GOLDEN_REPS_DIGEST = "a1ef9b447deee4854e53c5fa9cec51c77492820cf5550ff990b5448a7d49f398"


def test_enumerated_reps_are_pinned():
    """Every enumerated rep, black halves and ``e`` included, pinned: for
    each rep of every d <= 3 cell with t + s <= 5, then (4,0,4), (4,1,4),
    (4,2,2), (4,3,1) and (4,4,0), in enumeration order.  The ``park``
    dedup mode never reads the black halves, but ``jequiv`` keys on them,
    so this guards which completion each skeleton gets."""
    reps = list(enumerated_reps(3, 5))
    for cell in ((4, 0, 4), (4, 1, 4), (4, 2, 2), (4, 3, 1), (4, 4, 0)):
        reps += [cls.representative for cls in enumerate_monodromies(*cell).classes]
    digest = hashlib.sha256()
    for rep in reps:
        digest.update(repr((rep.x, rep.c, rep.e)).encode())
    assert len(reps) == 22776
    assert digest.hexdigest() == GOLDEN_REPS_DIGEST


#: SHA-256 of :func:`test_dedup_classes_are_pinned`'s class structure.
GOLDEN_CLASSES_DIGEST = "480b039969f74fcce0904df30932553cdd437ed90a218bc0b68109ebc49d6cab"


def test_dedup_classes_are_pinned():
    """The classes of all three dedup levels, in order, pinned: for every
    d <= 3 cell with t + s <= 5, then (4,1,4) and (4,3,0), each level's
    ``dedup`` name, ``raw_count`` and ``class_count``, then per class its
    ``size`` and the ``(x, c, e)`` of each member in order.  Every class
    starts with its representative and counts its members, and each
    ``park`` class joins whole ``jequiv`` classes in ``jequiv`` order."""
    cells = [(d, t, s) for d in (1, 2, 3) for t in range(6) for s in range(6 - t)]
    digest = hashlib.sha256()
    totals = Counter()
    for cell in cells + [(4, 1, 4), (4, 3, 0)]:
        levels = {
            dedup: enumerate_monodromies(*cell, dedup=dedup) for dedup in ("raw", "jequiv", "park")
        }
        for result in levels.values():
            digest.update(repr((result.dedup, result.raw_count, result.class_count)).encode())
            totals[result.dedup] += result.class_count
            for cls in result.classes:
                assert cls.representative is cls.members[0]
                assert cls.size == len(cls.members)
                members = tuple((m.x, m.c, m.e) for m in cls.members)
                digest.update(repr((cls.size, members)).encode())
        jequiv = [[(m.x, m.c, m.e) for m in cls.members] for cls in levels["jequiv"].classes]
        position = {members[0]: i for i, members in enumerate(jequiv)}
        joined = []
        for cls in levels["park"].classes:
            members = [(m.x, m.c, m.e) for m in cls.members]
            parts, start = [], 0
            while start < len(members):
                parts.append(position[members[start]])
                start += len(jequiv[parts[-1]])
            assert parts == sorted(parts)
            assert members == [m for i in parts for m in jequiv[i]]
            joined += parts
        assert sorted(joined) == list(range(len(jequiv)))
    assert totals == {"none": 16938, "j_equivalence": 866, "park_isomorphism": 734}
    assert digest.hexdigest() == GOLDEN_CLASSES_DIGEST


@pytest.mark.parametrize(
    "d, s", [(d, s) for d in (1, 2, 3) for s in range(6)] + [(4, s) for s in range(5)]
)
def test_chains_match_product_order(d, s):
    """Each chain comes with its move sequence, its ``product`` entry."""
    chains = list(equivalence._chains(d, s))
    assert [chain for chain, _ in chains] == chains_product_brute(d, s)
    moves = list(product(equivalence._corner_moves(d), repeat=s))
    assert [path for _, path in chains] == moves


def test_chains_are_yielded_not_held():
    """``_chains`` yields one chain at a time, so a cell of many chains and
    few reps holds only its reps: (4,0,4) walks 6,561 chains to emit 162
    reps, with a traced peak under 0.5 MiB (1.46 MiB when the chains were
    listed, 0.11 MiB yielded; 2 cores, CPython 3.11)."""
    enumerate_monodromies(4, 0, 4)  # load the modules outside the trace
    tracemalloc.start()
    try:
        result = enumerate_monodromies(4, 0, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.raw_count == 162
    assert peak < 2**19


@pytest.mark.parametrize("d", range(1, 6))
def test_every_corner_move_extends_every_chain(d):
    """``_chains`` needs no matching filter: the last reflection times a
    move and its mirror is always a matching, so the chains are exactly
    one per move sequence, which makes the budget's count exact."""
    moves = equivalence._corner_moves(d)
    for s in range(4):
        chains = [chain for chain, _ in equivalence._chains(d, s)]
        assert len(chains) == len(moves) ** s
        assert all(pg.is_matching(c, d) for chain in chains for c in chain)


@pytest.mark.parametrize(
    "cell, size", [((4, 0, 8), 43046721), ((5, 8, 0), 10**8)], ids=["4-0-8", "5-8-0"]
)
def test_enumeration_budget_is_checked_before_building(cell, size):
    """Cells inside ``MAX_GROUND`` and ``MAX_CRITICAL`` whose candidates
    would not fit in memory are refused with their exact count before a
    chain or skeleton is built.  Run in a child capped at 768 MiB, where
    building them first ends in ``MemoryError``."""
    code = (
        "from parkscope import ResourceLimitError, enumerate_monodromies\n"
        "try:\n"
        f"    enumerate_monodromies{cell}\n"
        "except ResourceLimitError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_python(["-c", code], memory_mib=768)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == f"candidate space {size} exceeds budget 5000000"


def test_enumeration_budget_refuses_in_process():
    """The budget check, in this process: (5,0,5) has 25 corner moves,
    so 25**5 candidates, and is refused before anything is built."""
    assert len(equivalence._corner_moves(5)) == 25
    with pytest.raises(
        ResourceLimitError, match="^candidate space 9765625 exceeds budget 5000000$"
    ):
        enumerate_monodromies(5, 0, 5)


@pytest.mark.parametrize("n", range(7))
def test_two_involutions_factor_every_permutation(n):
    """``_two_involutions(p)`` gives involutions ``a``, ``b`` with ``a``
    after ``b`` equal to ``p``, for every permutation of ``range(n)``."""
    for p in permutations(range(n)):
        a, b = equivalence._two_involutions(p)
        assert all(a[a[i]] == i and b[b[i]] == i for i in range(n)), p
        assert tuple(a[b[i]] for i in range(n)) == p, p


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


@pytest.mark.parametrize(
    "cell", [(2.0, 1, 0), (2, "1", 0), (2, 1, None), (True, 0, 0), (2, 1, False)], ids=repr
)
def test_enumeration_parameters_must_be_integers(cell):
    with pytest.raises(ValueError, match=r"^parameters must be integers, got "):
        enumerate_monodromies(*cell)


@pytest.mark.parametrize("cell", [(6, 0, 0), (3, 5, 4)], ids=["ground 12", "critical 9"])
def test_enumeration_hard_ceilings(cell):
    with pytest.raises(
        ResourceLimitError, match=r"^enumeration bounds exceeded: need 2d <= 10 and t \+ s <= 8$"
    ):
        enumerate_monodromies(*cell)


def test_enumerated_members_are_valid():
    result = enumerate_monodromies(2, 2, 0, dedup="jequiv")
    for cls in result.classes:
        for member in cls.members:
            assert monodromy.validate_relations(member).ok
            assert monodromy.validate_genericity(member).ok
        assert cls.size == len(cls.members)


ORACLE_CELLS = [
    (d, t, s) for d in (1, 2, 3) for t in range(6) for s in range(6 - t)
] + [(4, 4, 0), (4, 2, 2), (4, 1, 3), (5, 4, 0)]


def test_enumeration_matches_validated_completion(monkeypatch):
    built = {cell: enumerate_monodromies(*cell) for cell in ORACLE_CELLS}
    monkeypatch.setattr(equivalence, "_complete_skeleton", complete_skeleton_validated)
    for cell in ORACLE_CELLS:
        reps = [cls.representative for cls in built[cell].classes]
        oracle = enumerate_monodromies(*cell)
        assert reps == [cls.representative for cls in oracle.classes], cell
        for rep in reps:
            assert monodromy.validate_relations(rep).ok, (cell, rep)
            assert monodromy.validate_genericity(rep).ok, (cell, rep)


def _refuse_validators(monkeypatch):
    """Make both validators raise wherever the library could call them:
    in ``monodromy``, where the one gate runs them, and in ``equivalence``
    and ``extraction``, which bound them before that gate existed."""

    def refuse(*args, **kwargs):
        raise AssertionError("a validator was called")

    for module in (monodromy, equivalence, extraction):
        for name in ("validate_relations", "validate_genericity"):
            monkeypatch.setattr(module, name, refuse, raising=module is monodromy)


@pytest.mark.parametrize("cell", [(3, 2, 2), (4, 2, 0)], ids=lambda c: "%d-%d-%d" % c)
def test_enumeration_calls_no_validator(monkeypatch, cell):
    expected = enumerate_monodromies(*cell, dedup="park")

    _refuse_validators(monkeypatch)
    result = enumerate_monodromies(*cell, dedup="park")
    assert result.raw_count == expected.raw_count
    assert [cls.representative for cls in result.classes] == [
        cls.representative for cls in expected.classes
    ]
    assert [cls.members for cls in result.classes] == [
        cls.members for cls in expected.classes
    ]


def test_enumerated_reps_pass_public_gates_unchecked(monkeypatch):
    """Enumeration marks what it builds valid and generic: with both
    validators raising, the public ``monodromy_to_park`` and
    ``canonical_form`` give every rep of (3,2,2) and (4,3,0) the park, the
    error or the key they give it with the validators in place."""
    reps = [
        cls.representative
        for cell in ((3, 2, 2), (4, 3, 0))
        for cls in enumerate_monodromies(*cell).classes
    ]

    def outcomes(reps):
        out = []
        for m in reps:
            try:
                out.append(to_json_dict(monodromy_to_park(m)))
            except NonRealizableError as exc:
                out.append(str(exc))
            out.append(canonical_form(m))
        return out

    expected = outcomes([build(m.degree, m.x, m.c) for m in reps])
    assert any(isinstance(outcome, dict) for outcome in expected)
    _refuse_validators(monkeypatch)
    assert outcomes(reps) == expected


def test_enumerated_reps_equal_checked_build():
    """Enumeration builds its reps unchecked, through
    ``monodromy._generic_trusted``: on every cell with d <= 3 and
    t + s <= 5, each one equals what the checked constructor makes of its
    fields, with ``e`` given or derived, hashes alike, and holds tuples of
    ints."""
    for m in enumerated_reps(3, 5):
        rebuilt = build(m.degree, m.x, m.c, m.e)
        assert m == rebuilt == build(m.degree, m.x, m.c)
        assert hash(m) == hash(rebuilt)
        assert type(m.x) is tuple and type(m.c) is tuple
        for p in (*m.x, m.e, *m.c):
            assert type(p) is tuple and all(type(a) is int for a in p)


def test_unrealizable_class_kept_separate(unrealizable_rep):
    result = enumerate_monodromies(2, 1, 1, dedup="park")
    assert result.class_count == 1
    with pytest.raises(NonRealizableError):
        monodromy_to_park(result.classes[0].representative)


def test_extracted_parks_serialize_identically():
    for cls in enumerate_monodromies(3, 1, 2, dedup="park").classes:
        try:
            park = monodromy_to_park(cls.representative)
        except NonRealizableError:
            continue
        again = monodromy_to_park(cls.representative)
        assert to_json_dict(park) == to_json_dict(again)
