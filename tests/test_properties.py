"""Property tests drawn by Hypothesis (skipped when it is not installed)."""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest

from parkscope import (
    NonRealizableError,
    build,
    canonical_form,
    conjugate_rep,
    monodromy,
    monodromy_equivalent,
    monodromy_to_park,
    park,
    park_isomorphic,
)
from parkscope.cli import main
from parkscope.equivalence import _merge_signature
from parkscope.permgroup import _cycles, _orbits, cycles, orbits

from conftest import (
    EXAMPLE_PARK_PATH,
    EXAMPLE_REP_PATH,
    all_cells,
    check_park_isomorphism,
    enumerated_reps,
    make_chord_rep,
    make_two_entrance_rep,
    make_unrealizable_rep,
    realized_reps,
    replace,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_relabeled_park_witness_checks_out(data):
    rep, park = data.draw(st.sampled_from(realized_reps(3, 3)))
    d = rep.degree
    white = data.draw(st.permutations(range(d)))
    black = data.draw(st.permutations(range(d)))
    moved = monodromy_to_park(conjugate_rep(rep, tuple(white) + tuple(d + b for b in black)))
    witness = park_isomorphic(park, moved)
    assert witness is not None
    check_park_isomorphism(park, moved, witness)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_canonical_form_invariant_under_relabeling(data):
    rep = data.draw(st.sampled_from(enumerated_reps(3, 5)))
    d = rep.degree
    white = data.draw(st.permutations(range(d)))
    black = data.draw(st.permutations(range(d)))
    moved = conjugate_rep(rep, tuple(white) + tuple(d + b for b in black))
    assert canonical_form(moved) == canonical_form(rep)


def _gate_outcomes(m, partner):
    """What each public gate makes of ``m``: the result, or the error's
    type and text."""
    out = []
    for call in (
        lambda: park.to_json_dict(monodromy_to_park(m)),
        lambda: canonical_form(m),
        lambda: monodromy_equivalent(m, partner),
    ):
        try:
            out.append(call())
        except (ValueError, NonRealizableError) as exc:
            out.append((type(exc), str(exc)))
    return out


def _record(m):
    return m, hash(m), repr(m), monodromy.to_json_dict(m), m._fields


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_valid_mark_is_sound(data):
    """A marked enumerated rep with one generator replaced is an unmarked
    object: every public gate treats it as a fresh ``build`` of the same
    fields.  The mark changes no equality, hash, repr, JSON or field."""
    rep = data.draw(st.sampled_from(enumerated_reps(3, 4)))
    assert rep._mark is not None
    perm = tuple(data.draw(
        st.permutations(range(rep.ground_size)) | st.sampled_from(rep.generators())
    ))
    name = data.draw(st.sampled_from(("e", "x", "c") if rep.x else ("e", "c")))
    if name == "e":
        mutated = replace(rep, e=perm)
    else:
        gens = list(getattr(rep, name))
        gens[data.draw(st.integers(0, len(gens) - 1))] = perm
        mutated = replace(rep, **{name: tuple(gens)})
    fresh = build(mutated.degree, mutated.x, mutated.c, mutated.e)
    before = _record(mutated)
    assert _gate_outcomes(mutated, rep) == _gate_outcomes(fresh, rep)
    assert (mutated._mark is None) == (fresh._mark is None)
    hypothesis.event("refused" if fresh._mark is None else "valid")
    assert _record(mutated) == before == _record(fresh)
    assert _record(rep) == _record(build(rep.degree, rep.x, rep.c, rep.e))


def _renumbered(data, p):
    """``p`` with every cell id sent to a fresh random one and the cells
    of each kind in a random order."""
    ids = {}
    for kind, cells in (
        ("gardens", p.gardens),
        ("faces", p.all_faces()),
        ("edges", all_cells(p, "edges")),
        ("vertices", all_cells(p, "vertices")),
        ("nodes", p.nodes),
        ("alleys", p.alleys),
    ):
        n = len(cells)
        fresh = data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True))
        ids[kind] = dict(zip((cell.id for cell in cells), fresh))

    def new(kind, old):
        return None if old is None else ids[kind][old]

    def shuffled(cells):
        return tuple(data.draw(st.permutations(cells)))

    gardens = [
        replace(
            g,
            id=new("gardens", g.id),
            partner_id=new("gardens", g.partner_id),
            faces=shuffled([
                replace(
                    f,
                    id=new("faces", f.id),
                    boundary=tuple(new("edges", abs(x)) * (1 if x > 0 else -1) for x in f.boundary),
                )
                for f in g.faces
            ]),
            edges=shuffled([
                replace(
                    e,
                    id=new("edges", e.id),
                    ends=None if e.ends is None else tuple(new("vertices", v) for v in e.ends),
                )
                for e in g.edges
            ]),
            vertices=shuffled([
                replace(
                    v, id=new("vertices", v.id), pair_id=new("vertices", v.pair_id)
                )
                for v in g.vertices
            ]),
        )
        for g in p.gardens
    ]
    involution = park.Involution(**{
        kind: {ids[kind][a]: ids[kind][b] for a, b in getattr(p.involution, kind).items()}
        for kind in ("nodes", "faces", "edges", "vertices", "gardens")
    })
    return replace(
        p,
        gardens=shuffled(gardens),
        nodes=shuffled([replace(n, id=new("nodes", n.id)) for n in p.nodes]),
        alleys=shuffled([
            replace(
                a,
                id=new("alleys", a.id),
                face_id=new("faces", a.face_id),
                node_id=new("nodes", a.node_id),
            )
            for a in p.alleys
        ]),
        involution=involution,
    )


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_merge_signature_invariant_under_renumbering(data):
    _, original = data.draw(st.sampled_from(realized_reps(3, 5)))
    moved = _renumbered(data, original)
    assert park.validate_park(moved)
    assert park_isomorphic(original, moved) is not None
    assert _merge_signature(moved) == _merge_signature(original)


def _closure(gens, a):
    """The orbit of ``a``: apply every generator until nothing new appears."""
    orbit = {a}
    while True:
        grown = orbit | {g[b] for g in gens for b in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


def _naive_orbits(gens, domain):
    found = {tuple(sorted(_closure(gens, a))) for a in domain}
    return sorted(found)


def _naive_cycles(p, domain, include_fixed):
    out = []
    for orbit in _naive_orbits([p], domain):
        cyc = [orbit[0]]
        while p[cyc[-1]] != orbit[0]:
            cyc.append(p[cyc[-1]])
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


@hypothesis.settings(deadline=None)
@hypothesis.given(data=st.data())
def test_orbits_and_cycles_match_fixed_point_closure(data):
    n = data.draw(st.integers(0, 8))
    gens = data.draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))
    include_fixed = data.draw(st.booleans())
    domain = range(n)
    assert orbits(gens, n) == _naive_orbits(gens, domain)
    for p in gens:
        assert cycles(p, include_fixed=include_fixed) == _naive_cycles(p, domain, include_fixed)
    # the unchecked cores on a closed domain: a union of orbits
    everything = _naive_orbits(gens, domain)
    chosen = data.draw(st.lists(st.sampled_from(everything), unique=True)) if everything else []
    domain = sorted(a for orbit in chosen for a in orbit)
    assert _orbits(gens, n, domain) == _naive_orbits(gens, domain)
    for p in gens:
        assert _cycles(p, domain, include_fixed) == _naive_cycles(p, domain, include_fixed)


@hypothesis.settings(deadline=None)
@hypothesis.given(data=st.data())
def test_orbit_and_cycle_cores_match_checked_functions(data):
    """The unchecked cores ``_orbits`` and ``_cycles`` give what ``orbits``
    and ``cycles`` give on the whole ground set, and on a closed domain
    the orbits and cycles of theirs that lie in it."""
    n = data.draw(st.integers(0, 8))
    gens = data.draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))
    include_fixed = data.draw(st.booleans())
    everything = orbits(gens, n)
    chosen = data.draw(st.lists(st.sampled_from(everything), unique=True)) if everything else []
    domain = sorted(a for orbit in chosen for a in orbit)
    assert _orbits(gens, n, range(n)) == everything
    assert _orbits(gens, n, domain) == [orbit for orbit in everything if orbit in chosen]
    for p in gens:
        whole = cycles(p, include_fixed=include_fixed)
        assert _cycles(p, range(n), include_fixed) == whole
        assert _cycles(p, domain, include_fixed) == [cyc for cyc in whole if cyc[0] in domain]


_REP_DOCUMENTS = [json.loads(EXAMPLE_REP_PATH.read_text())] + [
    monodromy.to_json_dict(make()) for make in (make_chord_rep, make_unrealizable_rep)
]
_PARK_DOCUMENTS = [json.loads(EXAMPLE_PARK_PATH.read_text())] + [
    park.to_json_dict(monodromy_to_park(make())) for make in (make_chord_rep, make_two_entrance_rep)
]
_REP_COMMANDS = ("validate", "extract", "info", "equivalent")
_PARK_COMMANDS = ("validate-park", "info", "hurwitz", "isomorphic")
_WORDS = ("", "1", "white", "black", "segment", "loop", "entrance", "exit", "orientable")
_KEYS = ("id", "kind", "faces", "edges", "ends", "boundary", "degree", "node", "x", "c", "s")
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([10**9, -(10**9), 2**70]),
    st.floats(-2, 5),
    st.sampled_from(_WORDS),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=2),
    max_leaves=4,
)


def _slots(obj, out):
    """Every (container, key) of a JSON document, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        out.append((obj, key))
        _slots(value, out)
    return out


def _mutate(data, obj):
    container, key = data.draw(st.sampled_from(_slots(obj, [])))
    action = data.draw(st.sampled_from(["replace", "delete", "nudge", "copy"]))
    value = container[key]
    if action == "delete":
        del container[key]
    elif action == "nudge" and isinstance(value, int) and not isinstance(value, bool):
        container[key] = value + data.draw(st.sampled_from([-1, 1, 2]))
    elif action == "copy":
        donor, donor_key = data.draw(st.sampled_from(_slots(obj, [])))
        container[key] = copy.deepcopy(donor[donor_key])
    else:
        container[key] = data.draw(_VALUES)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(data=st.data())
def test_cli_survives_mutated_files(data):
    park_side = data.draw(st.booleans())
    original = data.draw(st.sampled_from(_PARK_DOCUMENTS if park_side else _REP_DOCUMENTS))
    mutated = copy.deepcopy(original)
    for _ in range(data.draw(st.integers(1, 3))):
        if _slots(mutated, []):
            _mutate(data, mutated)
    command = data.draw(st.sampled_from(_PARK_COMMANDS if park_side else _REP_COMMANDS))
    with tempfile.TemporaryDirectory() as work:
        paths = [os.path.join(work, name) for name in ("mutated.json", "original.json")]
        for path, doc in zip(paths, (mutated, original)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        args = [command] + paths[: 2 if command in ("equivalent", "isomorphic") else 1]
        if data.draw(st.booleans()):
            args.append("--json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
    assert code in (0, 1, 2, 3)
