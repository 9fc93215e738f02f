"""Unit tests for relabeling equivalence, park isomorphism, enumeration."""

import dataclasses
import json
import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from parkscope import (
    NonRealizableError,
    ResourceLimitError,
    build,
    canonical_form,
    classify,
    conjugate_rep,
    enumerate_monodromies,
    extract_alleys,
    extract_faces,
    extract_gardens,
    extract_nodes,
    monodromy_equivalent,
    monodromy_to_park,
    park_isomorphic,
)
from parkscope import equivalence, extraction, monodromy
from parkscope import permgroup as pg
from parkscope.park import _ParkIndex, to_json_dict

from conftest import (
    canonical_form_brute,
    chains_product_brute,
    check_park_isomorphism,
    complete_skeleton_validated,
    enumerated_reps,
    make_chord_rep,
    make_loop3_rep,
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


def test_batch_keys_match_brute_force_per_cell():
    for d in (1, 2, 3):
        for t in range(6):
            for s in range(6 - t):
                reps = [cls.representative for cls in enumerate_monodromies(d, t, s).classes]
                keys = list(equivalence._canonical_keys(reps))
                assert keys == [canonical_form_brute(m) for m in reps], (d, t, s)


def test_batch_keys_match_brute_force_on_degree_4_sample():
    reps = _degree_4_sample()
    assert list(equivalence._canonical_keys(reps)) == [
        canonical_form_brute(m) for m in reps
    ]


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
    # Unrealizable reps, so that ``classify`` groups them by key: each
    # with a copy whose first reflection is not standard, in shuffled order.
    rng = random.Random(31)
    batch = []
    for cell in ((3, 2, 3), (3, 1, 3)):
        for cls in enumerate_monodromies(*cell).classes:
            rep = cls.representative
            relabel = _black_relabeling_fixing_x(rep) or _random_color_preserving(rng, 3)
            batch += [rep, conjugate_rep(rep, relabel)]
    rng.shuffle(batch)
    keys = list(equivalence._canonical_keys(batch))
    assert keys == [canonical_form_brute(m) for m in batch]

    # the batch holds what the head grouping must not merge: equal
    # (c[1], x, e) with different keys, equal (x, e) with different c[1],
    # and equal c[1] and orbit system with different e and keys
    orbit_systems = [tuple(pg.orbits(list(m.x), m.ground_size)) for m in batch]
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
        and batch[a].e != batch[b].e
        and keys[a] != keys[b]
        for a, b in pairs
    )
    assert any(m.c[0] != pg.mirror_matching(3) for m in batch)

    table = classify(batch)
    assert sorted(i for entry in table.entries for i in entry.member_indices) == list(
        range(len(batch))
    )
    entry_keys = []
    for entry in table.entries:
        assert entry.label.startswith("unrealizable")
        group_keys = {keys[i] for i in entry.member_indices}
        assert len(group_keys) == 1
        entry_keys += group_keys
    assert len(set(entry_keys)) == len(entry_keys) == len(set(keys))


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
            yield canonical_form_brute(m)

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
    indexes = [_ParkIndex(park) for park in realized]
    signatures = [equivalence._merge_signature(index) for index in indexes]
    for a, b in combinations(range(len(realized)), 2):
        matched = equivalence._index_isomorphism(indexes[a], indexes[b]) is not None
        # equal for every match; on these cells also apart for every miss,
        # so the merge runs no search that cannot succeed
        assert (signatures[a] == signatures[b]) == matched, cell
    s = cell[2]
    for park, index, signature in zip(realized, indexes, signatures):
        # the merge matches across global cyclic rotations of the corner
        # labels, so the signature must not change under any of them
        for rotation in range(1, s):
            rotated = _recornered(park, lambda c: (c - 1 + rotation) % s + 1, reverse=False)
            assert equivalence._index_isomorphism(_ParkIndex(rotated), index)
            assert equivalence._merge_signature(_ParkIndex(rotated)) == signature
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


def test_public_entry_points_validate(loop3_park):
    broken = build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1)])
    # passes the relations; each x fixes the whites
    non_generic = build(2, [(0, 1, 3, 2)] * 2, [(2, 3, 0, 1)])
    for rep, reason in ((broken, "fails relation validation"), (non_generic, "is not generic")):
        for entry in (
            canonical_form,
            lambda m: classify([m]),
            monodromy_to_park,
            extract_faces,
            extract_nodes,
            extract_alleys,
            extract_gardens,
        ):
            with pytest.raises(ValueError, match=reason):
                entry(rep)
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


@pytest.mark.parametrize(
    "d, s", [(d, s) for d in (1, 2, 3) for s in range(6)] + [(4, s) for s in range(5)]
)
def test_chains_match_product_order(d, s):
    assert list(equivalence._chains(d, s)) == chains_product_brute(d, s)


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
        chains = list(equivalence._chains(d, s))
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


def test_enumeration_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_monodromies(3, 2, 0, budget=5)


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
] + [(4, 4, 0), (4, 2, 2), (5, 4, 0)]


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


def test_classify_groups_conjugates():
    rng = random.Random(23)
    base = make_loop3_rep()
    moved = conjugate_rep(base, _random_color_preserving(rng, base.degree))
    other = None
    for cls in enumerate_monodromies(3, 2, 0, dedup="park").classes:
        rep = cls.representative
        rep_park, base_park = monodromy_to_park(rep), monodromy_to_park(base)
        witness = park_isomorphic(rep_park, base_park)
        if witness is None:
            other = rep
            break
        check_park_isomorphism(rep_park, base_park, witness)
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
