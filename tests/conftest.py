"""Shared fixtures: small hand representations and the shipped park file."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from pathlib import Path

import pytest

from parkscope import (
    NonRealizableError,
    ResourceLimitError,
    build,
    enumerate_monodromies,
    genus_from_counts,
    monodromy_to_park,
    validate_park,
)
from parkscope.equivalence import (
    _beta_candidates,
    _black_involutions,
    _black_product_target,
    _corner_moves,
)
from parkscope.extraction import _build_park, _euler_characteristic
from parkscope.monodromy import require_generic, validate_genericity, validate_relations
from parkscope.park import (
    Alley,
    EntranceSignature,
    Face,
    Park,
    ParkNode,
    _genus_of_characteristic,
    _least_rotation,
    euler_characteristic as park_euler_characteristic,
    from_json_dict,
    genus as park_genus,
    rotations_equal,
)
from parkscope.permgroup import (
    blacks,
    compose,
    compose_all,
    conjugate,
    cycles,
    from_cycles,
    inverse,
    is_matching,
    mirror_matching,
    orbits,
    whites,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_PARK_PATH = REPO_ROOT / "examples" / "example1_park.json"
EXAMPLE_REP_PATH = REPO_ROOT / "examples" / "f3_monodromy.json"


def run_python(args, cwd=REPO_ROOT, env=None, memory_mib=None):
    """A fresh interpreter that imports parkscope from any working directory.

    The timeout makes a computation that never ends fail its test instead
    of hanging the suite; ``memory_mib`` caps the child's address space,
    so that a runaway allocation ends in ``MemoryError`` there.
    """
    env = dict(os.environ if env is None else env)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)

    def cap():
        limit = memory_mib * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        cwd=str(cwd),
        env=env,
        timeout=60,
        preexec_fn=None if memory_mib is None else cap,
    )


def run_cli(args, cwd=REPO_ROOT, env=None, memory_mib=None):
    """The CLI through :func:`run_python`."""
    return run_python(["-m", "parkscope.cli", *args], cwd, env, memory_mib)


def make_loop3_rep():
    """Degree 3, two branch points, no boundary corners; its single real
    cycle closes after three sheets."""
    return build(3, [(1, 0, 2, 4, 3, 5), (0, 2, 1, 3, 5, 4)], [(3, 4, 5, 0, 1, 2)])


def make_single_sheet_rep():
    """Degree 1, no critical values at all."""
    return build(1, [], [(1, 0)])


def make_chord_rep():
    """Degree 3, one branch point and two boundary corners; its garden
    carries two vertices and chords of length 0."""
    return build(
        3,
        [(0, 2, 1, 4, 3, 5)],
        [(3, 4, 5, 0, 1, 2), (3, 5, 4, 0, 2, 1), (4, 5, 3, 2, 0, 1)],
    )


def make_two_entrance_rep():
    """Degree 4, two branch points, two corners; the park has two
    entrances, each of genus 0 with a single degree-2 face."""
    return build(
        4,
        [(0, 1, 3, 2, 5, 4, 7, 6), (1, 0, 2, 3, 4, 5, 6, 7)],
        [
            (4, 5, 6, 7, 0, 1, 2, 3),
            (4, 6, 5, 7, 0, 2, 1, 3),
            (4, 5, 6, 7, 0, 1, 2, 3),
        ],
    )


def make_unrealizable_rep():
    """Valid generic degree-2 data whose critical-value count admits no
    closed orientable surface (odd Euler characteristic)."""
    return build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1), (3, 2, 1, 0)])


@pytest.fixture
def loop3_rep():
    return make_loop3_rep()


@pytest.fixture
def single_sheet_rep():
    return make_single_sheet_rep()


@pytest.fixture
def chord_rep():
    return make_chord_rep()


@pytest.fixture
def two_entrance_rep():
    return make_two_entrance_rep()


@pytest.fixture
def unrealizable_rep():
    return make_unrealizable_rep()


@pytest.fixture
def loop3_park(loop3_rep):
    return monodromy_to_park(loop3_rep)


@pytest.fixture
def chord_park(chord_rep):
    return monodromy_to_park(chord_rep)


def load_example_park() -> Park:
    with open(EXAMPLE_PARK_PATH, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


@pytest.fixture
def example_park() -> Park:
    return load_example_park()


@pytest.fixture
def example_park_dict() -> dict:
    with open(EXAMPLE_PARK_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def enumerated_reps(max_degree: int, max_critical: int) -> tuple:
    """Every enumerated representation with ``d <= max_degree`` and
    ``t + s <= max_critical``, realizable or not."""
    return tuple(
        cls.representative
        for d in range(1, max_degree + 1)
        for t in range(max_critical + 1)
        for s in range(max_critical + 1 - t)
        for cls in enumerate_monodromies(d, t, s).classes
    )


@lru_cache(maxsize=None)
def realized_reps(max_degree: int, max_critical: int) -> tuple:
    """``(rep, park)`` for every enumerated representation with
    ``d <= max_degree`` and ``t + s <= max_critical`` that has a park."""
    found = []
    for rep in enumerated_reps(max_degree, max_critical):
        try:
            found.append((rep, monodromy_to_park(rep)))
        except NonRealizableError:
            pass
    return tuple(found)


def assemble_park(m) -> Park:
    """The full park of a valid generic rep, built whether or not it is
    realizable; the rep is validated, the park is not."""
    require_generic(m)
    return _build_park(m)


class InconsistencyError(Exception):
    """An oracle's cross-check failed: a bug in the library, not bad input."""


def monodromy_to_park_full(m) -> Park:
    """``monodromy_to_park`` with the genus checked on the assembled,
    validated park: the oracle for the check before assembly.  A park that
    breaks only the surface-closure rule goes on to the genus check, which
    raises for it as ``monodromy_to_park`` does."""
    park = assemble_park(m)
    violations = [v for v in validate_park(park).violations if v[0] != "surface-closure"]
    if violations:
        raise InconsistencyError(
            "assembled park fails validation: "
            + "; ".join(f"{code}: {detail}" for code, detail in violations[:3])
        )
    built_genus = park_genus(park)
    forced_genus = genus_from_counts(m)
    if built_genus != forced_genus:
        raise NonRealizableError(
            f"the real-locus structure closes to a surface of genus {built_genus}, "
            f"but the critical-value count forces genus {forced_genus}"
        )
    return park


def orbit_weights(m, reflected=False):
    """For each orbit of the ``x`` on the white half, or with ``reflected``
    of the ``c_1``-conjugated ``x`` on the black half: the orbit, the
    faces (cycles of ``e``, or of ``c_1 e c_1``) inside it, and twice the
    genus its branch count and faces force, ``b + 2 - k - sum(degrees)``.
    Asserts that the half is closed under ``e`` and the ``x``, that each
    ``x`` moves one pair of the half, that no face leaks out of its orbit,
    and that the branch counts sum to ``t``."""
    c1 = m.c[0]
    xs, e, half = list(m.x), m.e, whites(m.degree)
    if reflected:
        xs = [conjugate(x, c1) for x in xs]
        e, half = conjugate(m.e, c1), blacks(m.degree)
    assert all(p[a] in half for p in (e, *xs) for a in half)
    faces = [cyc for cyc in cycles(e, include_fixed=True) if cyc[0] in half]
    pairs = [{a for a in half if x[a] != a} for x in xs]
    assert all(len(pair) == 2 for pair in pairs), pairs
    out, total = [], 0
    for orbit in orbits(xs, m.ground_size):
        if orbit[0] not in half:
            continue
        members = set(orbit)
        inside = [face for face in faces if set(face) & members]
        assert all(set(face) <= members for face in inside), orbit
        branches = sum(1 for pair in pairs if pair <= members)
        total += branches
        out.append((orbit, inside, branches + 2 - len(inside) - sum(map(len, inside))))
    assert total == m.cone_points
    return out


def nodes_from_weights(weights):
    """``(signatures, node_of_face)`` for orbit weights that are all even
    and non-negative: each orbit's signature, and each face's orbit index,
    keyed by the face's cycle."""
    signatures, of_face = [], {}
    for k, (orbit, faces, numerator) in enumerate(weights):
        assert numerator >= 0 and numerator % 2 == 0, orbit
        signatures.append(EntranceSignature.compute(numerator // 2, map(len, faces)))
        of_face.update((face, k) for face in faces)
    return signatures, of_face


def exits_from_orbits(m):
    """The exits of ``m`` built from scratch: the orbits of the
    ``c_1``-conjugated ``x`` on the black half, in orbit order, with their
    signatures from the branch count and the black faces of ``c_1 e c_1``
    inside each.  Returns ``(exits, paired)``: ``(orbit, signature)`` per
    exit, and for each entrance, in orbit order, the index of the exit on
    its reflected orbit: the oracle for the mirrored exits.  Does not
    assume that the signatures of an entrance and its exit agree."""
    c1 = m.c[0]
    weights = orbit_weights(m, reflected=True)
    signatures, _ = nodes_from_weights(weights)
    index = {orbit: k for k, (orbit, _, _) in enumerate(weights)}
    paired = []
    for orbit, _, _ in orbit_weights(m):
        mirrored = tuple(sorted(c1[a] for a in orbit))
        assert mirrored in index, orbit
        paired.append(index[mirrored])
    return [(orbit, sig) for (orbit, _, _), sig in zip(weights, signatures)], paired


def lift(m, i, a):
    """The lift of arc ``i`` through ``a``: the pair ``c_i`` swaps there."""
    b = m.c[i - 1][a]
    return (i, min(a, b), max(a, b))


def corner_vertices(m):
    """Each element of a size-four orbit of ``<c_{k-1}, c_k>``, keyed by
    ``(k, element)``, mapped to its vertex key ``(k, least element)``.
    Asserts that every such orbit has size 2 or 4."""
    out = {}
    for k in range(1, m.corner_points + 1):
        for orbit in orbits([m.c[k - 1], m.c[k]], m.ground_size):
            assert len(orbit) in (2, 4), (k, orbit)
            if len(orbit) == 4:
                out.update(((k, a), (k, orbit[0])) for a in orbit)
    return out


def walk_cycles(m, half):
    """The cycles of the boundary walk of ``m`` through the elements of
    ``half``: at each element the walk crosses arcs ``1..s+1``, then steps
    by ``e``.  Each cycle starts at its first item in (element, arc)
    order."""
    s = m.corner_points
    visited, out = set(), []
    for a0 in half:
        for i0 in range(1, s + 2):
            item, cycle = (i0, a0), []
            while item not in visited:
                visited.add(item)
                cycle.append(item)
                i, a = item
                item = (i + 1, a) if i <= s else (1, m.e[a])
            if cycle:
                out.append(cycle)
    return out


def split_runs(cycle, vertex_of):
    """A walk cycle cut just after each vertex crossing, in walk order
    from the first crossing; a cycle without one is a single loop run,
    rotated to its least item."""
    breaks = [j for j, item in enumerate(cycle) if item in vertex_of]
    if not breaks:
        pivot = cycle.index(min(cycle))
        return [cycle[pivot:] + cycle[:pivot]]
    ordered = cycle[breaks[0] + 1 :] + cycle[: breaks[0] + 1]
    runs, run = [], []
    for item in ordered:
        run.append(item)
        if item in vertex_of:
            runs.append(run)
            run = []
    return runs


def check_extraction(m) -> Park | None:
    """Assert every fact the realized path of extraction builds on without
    checking, and every cell of the park it builds against one built here
    from scratch, for a valid generic ``m``; return its park, or ``None``
    when it has none.

    The skeleton memo holds the white faces, the entrances that
    ``orbit_weights`` finds and the entrance of each face: each white face
    lies inside its entrance's orbit, each ``x`` moves one white pair
    inside one orbit, the branch counts sum to ``t``, and each orbit's
    weight is even and non-negative, twice a genus, as Riemann-Hurwitz
    forces.  ``c_1`` carries each white face onto one black face, each
    black face the image of one white face.  The exits, in the memo's
    order, are the black orbits in orbit order, and the nodes and alleys
    follow.  Every corner orbit has size 2 or 4, and the size-four ones
    are the vertices, numbered by corner, then least element; segments
    number twice the vertices.  The seam relation ``c_1 = e c_{s+1}
    e^-1`` holds at every element.  Each lift of each arc lies on exactly
    one chain, and the chains are numbered by least lift.  Each white walk
    cycle, cut at its vertex crossings, is the chain list of its face: its
    boundary, rotated to its least form, and the reversed, negated
    boundary of its black mirror likewise; each segment starts and ends on
    the vertices it names.  Each walk cycle of the black side sweeps a
    white-side chain: a segment in the same order, a loop up to rotation.
    Every chain crosses arc 1 and arc ``s + 1`` equally often, and its
    length is its least count over arcs ``1..s``.  No face, edge or vertex
    straddles two gardens, and each garden lists the cells that one filter
    per garden finds.  The involution pairs mirrors, and entrances with
    the exits on their reflected orbits.  A realized park equals the one
    built, passes ``validate_park`` and has the Euler characteristic, so
    the genus, that ``_euler_characteristic`` gives; its gardens are all
    orientable, unpartnered and have an edge each, no vertex names a pair,
    and the involution fixes every edge, vertex and garden.
    """
    d, s, c, e = m.degree, m.corner_points, m.c, m.e
    c1 = c[0]
    weights = orbit_weights(m)
    assert all(num >= 0 and num % 2 == 0 for _, _, num in weights), weights
    park = assemble_park(m)
    memo = m._mark.cells
    white = [cyc for cyc in cycles(e, include_fixed=True) if cyc[0] < d]
    black = [cyc for cyc in cycles(conjugate(e, c1), include_fixed=True) if cyc[0] >= d]
    signatures, entrance_of = nodes_from_weights(weights)
    assert memo.faces == white
    assert memo.genera == [sig.genus for sig in signatures]
    assert memo.node_of_face == [entrance_of[face] for face in white]
    assert sorted(memo.mirror) == list(range(len(white)))
    for face, j in zip(white, memo.mirror):
        assert {c1[a] for a in face} == set(black[j]), face
    exits, paired = exits_from_orbits(m)
    for k, sig in zip(paired, signatures):
        assert exits[k][1] == sig, exits[k]
    assert [paired[k] for k in memo.exits] == list(range(len(exits)))
    entrances, faces = len(signatures), {f.id: f for f in park.all_faces()}
    assert park.nodes == tuple(
        ParkNode(k, "entrance", sig.genus) for k, sig in enumerate(signatures, start=1)
    ) + tuple(
        ParkNode(k, "exit", sig.genus) for k, (_, sig) in enumerate(exits, start=entrances + 1)
    )
    _, exit_of = nodes_from_weights(orbit_weights(m, reflected=True))
    node_ids = [entrance_of[f] + 1 for f in white] + [entrances + 1 + exit_of[f] for f in black]
    assert park.alleys == tuple(Alley(f, f, n) for f, n in enumerate(node_ids, start=1))
    vertex_of = corner_vertices(m)
    keys = sorted(set(vertex_of.values()))
    vertex_id = {key: vid for vid, key in enumerate(keys, start=1)}
    vertices = {v.id: v for v in all_cells(park, "vertices")}
    assert sorted(vertices) == list(vertex_id.values())
    assert [vertices[v].corner_label for v in vertex_id.values()] == [k for k, _ in keys]
    edges = {x.id: x for x in all_cells(park, "edges")}
    assert sum(x.kind == "segment" for x in edges.values()) == 2 * len(keys)
    for a in range(m.ground_size):  # the seam relation c_1 = e c_{s+1} e^-1
        assert c1[e[a]] == e[c[s][a]], a
    white_runs = [
        (cycle, split_runs(cycle, vertex_of)) for cycle in walk_cycles(m, whites(d))
    ]
    chains = sorted(
        (tuple(lift(m, i, a) for i, a in run) for _, runs in white_runs for run in runs),
        key=min,
    )
    edge_of = {item: eid for eid, chain in enumerate(chains, start=1) for item in chain}
    assert len(edge_of) == sum(map(len, chains))
    assert set(edge_of) == {lift(m, i, a) for i in range(1, s + 2) for a in whites(d)}
    assert sorted(edges) == list(range(1, len(chains) + 1))
    first = {face[0]: i for i, face in enumerate(white)}
    for cycle, runs in white_runs:
        i = first[cycle[0][1]]
        ids = tuple(edge_of[lift(m, *run[0])] for run in runs)
        image = faces[len(white) + 1 + memo.mirror[i]]
        assert faces[i + 1] == Face(i + 1, "white", len(white[i]), _least_rotation(ids))
        assert image.boundary == _least_rotation(tuple(-eid for eid in reversed(ids)))
        assert (image.color, image.degree) == ("black", len(white[i]))
        for run, eid in zip(runs, ids):
            if run[-1] in vertex_of:
                (i1, a1), last = run[0], run[-1]
                ends = (vertex_id[vertex_of[(i1 - 1, a1)]], vertex_id[vertex_of[last]])
                assert (edges[eid].kind, edges[eid].ends) == ("segment", ends), run
            else:
                assert (edges[eid].kind, edges[eid].ends) == ("loop", None), run
    for cycle in walk_cycles(m, blacks(d)):
        for run in split_runs(cycle, vertex_of):
            lifts = tuple(lift(m, i, a) for i, a in run)
            assert lifts[0] in edge_of, run
            chain = chains[edge_of[lifts[0]] - 1]
            assert sorted(lifts) == sorted(chain), run
            if edges[edge_of[lifts[0]]].kind == "segment":
                assert lifts == chain, run
            else:
                assert rotations_equal(lifts, chain), run
    for eid, chain in enumerate(chains, start=1):
        counts = Counter(i for i, _, _ in chain)
        assert counts[1] == counts[s + 1], chain
        arcs = [counts[i] for i in range(1, s + 1)] or [len(chain)]
        assert edges[eid].length == min(arcs), chain
    components = orbits([e, *c], m.ground_size)
    garden_of = {a: g for g, orbit in enumerate(components) for a in orbit}
    for cyc in white + black:
        assert len({garden_of[a] for a in cyc}) == 1, cyc
    for chain in chains:
        assert len({garden_of[a] for item in chain for a in item[1:]}) == 1, chain
    for key in keys:
        assert len({garden_of[a] for (k, a), v in vertex_of.items() if v == key}) == 1, key
    assert [g.id for g in park.gardens] == list(range(1, len(components) + 1))
    for g_idx, garden in enumerate(park.gardens):  # the one-pass grouping, filtered
        assert [f.id for f in garden.faces] == [
            f for f, cyc in enumerate(white + black, start=1) if garden_of[cyc[0]] == g_idx
        ]
        assert [x.id for x in garden.edges] == [
            eid for eid, chain in enumerate(chains, start=1) if garden_of[chain[0][1]] == g_idx
        ]
        assert [v.id for v in garden.vertices] == [
            vid for (_, a), vid in vertex_id.items() if garden_of[a] == g_idx
        ]
    node_pairs = [(k + 1, entrances + 1 + paired[k]) for k in range(entrances)]
    face_pairs = [(i + 1, len(white) + 1 + j) for i, j in enumerate(memo.mirror)]
    for name, pairs in (("nodes", node_pairs), ("faces", face_pairs)):
        assert getattr(park.involution, name) == {
            **dict(pairs), **{b: a for a, b in pairs}
        }, name
    try:
        realized = monodromy_to_park(m)
    except NonRealizableError:
        return None
    assert realized == park
    report = validate_park(realized)
    assert report, report.violations
    assert park_euler_characteristic(realized) == _euler_characteristic(m)
    assert park_genus(realized) == _genus_of_characteristic(_euler_characteristic(m))
    for garden in realized.gardens:
        assert (garden.kind, garden.partner_id) == ("orientable", None), garden.id
        assert garden.edges, garden.id
    assert all(vertex.pair_id is None for vertex in all_cells(realized, "vertices"))
    for name in ("edges", "vertices", "gardens"):
        assert all(k == v for k, v in getattr(realized.involution, name).items()), name
    return realized


def chains_product_brute(d, s):
    """Every reflection chain rebuilt from ``c_1`` for each move sequence
    in ``product`` order, stopping at the first move that leaves the
    matchings: the oracle for the depth-first ``equivalence._chains``."""
    c1, chains = mirror_matching(d), []
    for moves in product(_corner_moves(d), repeat=s):
        chain = [c1]
        for move in moves:
            nxt = compose(chain[-1], compose(move, conjugate(move, chain[-1])))
            if not is_matching(nxt, d):
                break
            chain.append(nxt)
        else:
            chains.append(chain)
    return chains


def complete_skeleton_validated(d, chain, skeleton, components, completions, involutions):
    """``equivalence._complete_skeleton`` that trusts no construction: the
    first completion candidate passing ``validate_relations`` and
    ``validate_genericity`` in full, or ``None``.  The oracle for the
    enumerator's valid-by-construction path.  It builds through ``build``,
    which derives ``e`` from the ``x`` word, so it ignores the ``e`` that
    ``_black_product_target`` returns, and it drops the skeleton's
    mark: its reps are unmarked.  It ignores the enumerator's tables too:
    the skeleton's white product inverse, the memo of ``completions`` and
    the ``involutions`` list are rebuilt or left unread, and the
    components it was passed must equal those of the white ``x`` halves
    and the corner elements ``c_k c_{k+1}``."""
    white_xs = skeleton[0]
    corners = [compose(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    white_orbits = [orbit for orbit in orbits(list(white_xs) + corners, 2 * d) if orbit[0] < d]
    assert components == white_orbits, chain
    t = len(white_xs)
    if t == 0:
        if chain[-1] != chain[0] or len(components) > 1:
            return None
        m = build(d, [], chain)
        if validate_relations(m) and validate_genericity(m):
            return m
        return None
    e_white = inverse(compose_all(list(white_xs), 2 * d))
    black_target, _ = _black_product_target(d, chain, e_white)
    for betas in _beta_candidates(d, t, black_target, components, _black_involutions(d)):
        xs = [compose(w, beta) for w, beta in zip(white_xs, betas)]
        m = build(d, xs, chain)
        if validate_relations(m) and validate_genericity(m):
            return m
    return None


def _transported(m, sigma_w) -> tuple:
    """Relabel by ``sigma_w`` on whites, transporting blacks so that the
    first reflection becomes the standard matching; return the relabeling
    and the serialized relabeling-equivalence invariants (orbit system, e,
    all c) it carries ``m`` to."""
    d = m.degree
    n = m.ground_size
    std = mirror_matching(d)
    j = [0] * n
    for w in range(d):
        j[w] = sigma_w[w]
    c1 = m.c[0]
    for b in blacks(d):
        j[b] = std[j[c1[b]]]
    jt = tuple(j)
    ji = inverse(jt)
    e_t = compose(compose(jt, m.e), ji)
    c_t = tuple(compose(compose(jt, ck), ji) for ck in m.c)
    orbit_t = tuple(
        sorted(tuple(sorted(jt[a] for a in orb)) for orb in orbits(list(m.x), n))
    )
    return jt, (orbit_t, e_t, c_t)


def _transported_all(m) -> list[tuple]:
    return [_transported(m, sigma_w) for sigma_w in permutations(range(m.degree))]


def canonical_key_brute(m) -> tuple:
    """The canonical key as a plain minimum of the whole serialization over
    all ``d!`` white relabelings: the oracle for the key engine's tuples."""
    best = min(image for _, image in _transported_all(m))
    return (m.degree, m.cone_points, m.corner_points) + best


def canonical_form_brute(m) -> str:
    """The oracle for ``canonical_form``: the key's ``repr``."""
    return repr(canonical_key_brute(m))


def canonical_ties_brute(m) -> list[tuple]:
    """Every relabeling that reaches the least serialization, in
    ``permutations`` order of its white part: the oracle for the tie list
    of the key engine."""
    images = _transported_all(m)
    best = min(image for _, image in images)
    return [j for j, image in images if image == best]


def first_witness_brute(m1, m2) -> tuple | None:
    """The first color-preserving relabeling, in ``permutations`` order of
    its white part, that conjugates ``e`` and every ``c`` of ``m1`` onto
    ``m2``'s and carries ``m1``'s ``x`` orbits onto ``m2``'s, or ``None``:
    a plain search over all ``d!`` relabelings that send ``m1.c[0]`` to
    ``m2.c[0]``, the oracle for ``monodromy_equivalent``."""
    d, n = m1.degree, m1.ground_size
    orbits1 = orbits(list(m1.x), n)
    orbits2 = set(orbits(list(m2.x), n))
    for sigma_w in permutations(range(d)):
        j = list(sigma_w) + [0] * d
        for b in blacks(d):
            j[b] = m2.c[0][j[m1.c[0][b]]]
        jt = tuple(j)
        if conjugate(m1.e, jt) != m2.e:
            continue
        if any(conjugate(ck, jt) != m2.c[k] for k, ck in enumerate(m1.c)):
            continue
        if {tuple(sorted(jt[a] for a in orb)) for orb in orbits1} == orbits2:
            return jt
    return None


def real_structures(m) -> list[tuple]:
    """The real structures of ``m``, in ``permutations`` order of their
    black images: each matching σ that commutes with every reflection
    ``c``, such that ``m`` passes both validators once each ``x``'s black
    half is the σ-mirror of its white transposition (``e`` derived).  A
    real function's complex conjugation acts on the sheet halves as such
    a σ (see :mod:`parkscope.monodromy`)."""
    d, n = m.degree, m.ground_size
    found = []
    for images in permutations(blacks(d)):
        sigma = list(images) + [0] * d
        for w, b in enumerate(images):
            sigma[b] = w
        sigma = tuple(sigma)
        if any(compose(sigma, c) != compose(c, sigma) for c in m.c):
            continue
        xs = [tuple(x[a] if a < d else sigma[x[sigma[a]]] for a in range(n)) for x in m.x]
        real = build(d, xs, m.c)
        if validate_relations(real) and validate_genericity(real):
            found.append(sigma)
    return found


def _lift(d, chi, rho) -> list[tuple]:
    """The generators on the ``2*d`` half-sheets of a d-sheet tuple, with
    the real structure the standard matching: each ``χ`` acts on both
    halves, and each ``ρ`` as the reflection ``w -> d + ρ(w)``,
    ``d + w -> ρ(w)``.  The ``x`` first, then the ``c``."""
    sheets = range(d)
    xs = [tuple(p) + tuple(d + p[a] for a in sheets) for p in chi]
    cs = [tuple(d + r[a] for a in sheets) + tuple(r) for r in rho]
    return xs + cs


def sheet_tuples(d, t, s) -> list[tuple]:
    """Every labelled d-sheet tuple ``(χ, ρ)`` of the cell ``(d, t, s)``,
    the orbifold model of a real function (ROADMAP item 13): transpositions
    ``χ_1..χ_t`` and involutions ``ρ_1..ρ_{s+1}`` of the ``d`` sheets,
    each ``ρ_k ρ_{k+1}`` a transposition, with the seam
    ``ρ_1 = ε ρ_{s+1} ε⁻¹`` for ``ε = (χ_1⋯χ_t)⁻¹``, whose 2d lift is
    transitive: the surface is connected.  In product order of ``χ``, then
    of the ``ρ``."""
    sheets = range(d)
    transpositions = [from_cycles(d, [pair]) for pair in combinations(sheets, 2)]
    involutions = [p for p in permutations(sheets) if all(p[p[a]] == a for a in sheets)]
    chains = [(r,) for r in involutions]
    for _ in range(s):
        chains = [
            chain + (r,)
            for chain in chains
            for r in involutions
            if sum(chain[-1][r[a]] != a for a in sheets) == 2
        ]
    found = []
    for chi in product(transpositions, repeat=t):
        eps = inverse(compose_all(list(chi), d))
        for rho in chains:
            if conjugate(rho[-1], eps) == rho[0] and len(orbits(_lift(d, chi, rho), 2 * d)) == 1:
                found.append((chi, rho))
    return found


def tuple_to_rep(chi, rho):
    """The representation of a d-sheet tuple in the 2d encoding, with the
    real structure the standard matching (see :func:`_lift`); ``e`` is
    derived."""
    d = len(rho[0])
    generators = _lift(d, chi, rho)
    return build(d, generators[: len(chi)], generators[len(chi) :])


def hurwitz_moves(chi, rho):
    """The tuples one move away from the d-sheet tuple ``(χ, ρ)``, in
    ``permgroup``'s convention (``conjugate(p, q) = q p q⁻¹``), with
    ``ε = (χ_1⋯χ_t)⁻¹``: each half-twist
    ``(χ_i, χ_{i+1}) -> (χ_{i+1}, conjugate(χ_i, χ_{i+1}))`` and its inverse
    ``(χ_i, χ_{i+1}) -> (conjugate(χ_{i+1}, χ_i), χ_i)``, which keep ε and
    every ρ; and, for ``s >= 1``, the click
    ``ρ -> ρ[1:] + (conjugate(ρ_2, ε⁻¹),)`` and its inverse
    ``ρ -> (conjugate(ρ_s, ε),) + ρ[:-1]``, which keep χ.  The half-twists
    move two cone points past each other, the click moves every corner
    point one step around the boundary circle."""
    d = len(rho[0])
    for i in range(len(chi) - 1):
        a, b = chi[i], chi[i + 1]
        yield chi[:i] + (b, conjugate(a, b)) + chi[i + 2 :], rho
        yield chi[:i] + (conjugate(b, a), a) + chi[i + 2 :], rho
    if len(rho) > 1:
        eps = inverse(compose_all(list(chi), d))
        yield chi, rho[1:] + (conjugate(rho[1], inverse(eps)),)
        yield chi, (conjugate(rho[-2], eps),) + rho[:-1]


def relabeling_key(chi, rho) -> tuple:
    """The least conjugate of the tuple ``(χ, ρ)`` over ``S_d``: one key per
    relabeling class."""
    d = len(rho[0])
    return min(
        (tuple(conjugate(p, g) for p in chi), tuple(conjugate(r, g) for r in rho))
        for g in permutations(range(d))
    )


def components(d, t, s) -> list[list[tuple]]:
    """The connected components of the space of generic real functions of
    the cell ``(d, t, s)`` (ROADMAP item 18), each as its labelled
    :func:`sheet_tuples`, in the order of their first tuples.

    Fix the critical values.  The t cone points move in the interior of
    the disk ``CP¹/conj`` and the s corner points on its boundary circle,
    so the configuration space's fundamental group is ``B_t × Z`` (``B_t``
    when ``s = 0``), generated by the half-twists of neighbouring cone
    points and by one click of the boundary.  Its action on tuples up to
    relabeling is :func:`hurwitz_moves`, and the functions of one
    component are one orbit.  The moves commute with relabeling, so a
    union-find over the relabeling classes, moving one tuple of each,
    finds the orbits."""
    classes: dict[tuple, list[tuple]] = {}
    for tup in sheet_tuples(d, t, s):
        classes.setdefault(relabeling_key(*tup), []).append(tup)
    root = {key: key for key in classes}

    def find(key):
        while root[key] != key:
            key = root[key]
        return key

    for key, members in classes.items():
        for moved in hurwitz_moves(*members[0]):
            root[find(key)] = find(relabeling_key(*moved))
    found: dict[tuple, list[tuple]] = {}
    for key, members in classes.items():
        found.setdefault(find(key), []).extend(members)
    return list(found.values())


def real_hurwitz_brute(component: list[tuple]) -> Fraction:
    """The Hurwitz number of a component of :func:`components`: its
    labelled d-sheet tuples counted up to relabeling, that is divided by
    ``d!``."""
    _, rho = component[0]
    return Fraction(len(component), factorial(len(rho[0])))


# The Hurwitz oracles share no code with parkscope.hurwitz: the fast engine
# is what they check.

#: Largest covering degree that :func:`single_hurwitz_brute` enumerates.
BRUTE_DEGREE_BOUND = 6


def branch_count(genus: int, degrees) -> int:
    """Simple branch points forced by a boundary signature,
    ``b = 2 genus - 2 + k + sum(degrees)`` with ``k = len(degrees)``."""
    return 2 * genus - 2 + len(degrees) + sum(degrees)


def centralizer_order(degrees) -> int:
    """Order of the centralizer of a permutation of cycle type ``degrees``."""
    order = 1
    for degree, multiplicity in Counter(degrees).items():
        order *= degree**multiplicity * factorial(multiplicity)
    return order


def interleaving_factor(branch_counts) -> int:
    """Multinomial count of interleavings, ``(sum b_i)! / prod(b_i!)``."""
    bs = list(branch_counts)
    for b in bs:
        if not isinstance(b, int) or isinstance(b, bool) or b < 0:
            raise ValueError(f"branch counts must be non-negative integers, got {b!r}")
    out = factorial(sum(bs))
    for b in bs:
        out //= factorial(b)
    return out


def one_part_oracle(d: int) -> Fraction:
    """Closed form for the genus-0 one-part signature: ``d**(d-3)``."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"degree must be a positive integer, got {d!r}")
    return Fraction(d) ** (d - 3)


def single_hurwitz_brute(genus: int, degrees) -> Fraction:
    """Literal enumeration of transposition tuples, with distance pruning.

    Same value as ``single_hurwitz``; exponentially slower, used as the
    independent verification path.  A total degree above
    :data:`BRUTE_DEGREE_BOUND` raises ``ResourceLimitError``.
    """
    degs = tuple(sorted(degrees, reverse=True))
    d = sum(degs)
    if d > BRUTE_DEGREE_BOUND:
        raise ResourceLimitError(f"degree {d} exceeds the configured bound {BRUTE_DEGREE_BOUND}")
    b = branch_count(genus, degs)
    sigma = []
    for part in degs:  # one permutation of cycle type degs
        start = len(sigma)
        sigma += [*range(start + 1, start + part), start]
    sigma = tuple(sigma)
    transpositions = [
        tuple(j if a == i else i if a == j else a for a in range(d))
        for i, j in combinations(range(d), 2)
    ]
    count = 0

    def rec(level: int, product, chosen: list):
        nonlocal count
        # distance pruning: remaining factors must suffice (and have the
        # right parity) to move the partial product onto sigma.
        need = compose(sigma, inverse(product))
        distance = d - len(cycles(need, include_fixed=True))
        remaining = b - level
        if distance > remaining or (remaining - distance) % 2 != 0:
            return
        if level == b:
            if product == sigma and len(orbits(chosen, d)) == 1:
                count += 1
            return
        for tau in transpositions:
            chosen.append(tau)
            rec(level + 1, compose(tau, product), chosen)
            chosen.pop()

    rec(0, tuple(range(d)), [])
    return Fraction(count, centralizer_order(degs))


def real_type(m, sigma) -> tuple[int, bool]:
    """The topological type of the real curve of a rep with single corners
    and its real structure ``sigma`` (one of :func:`real_structures`),
    read off the permutations, with no park (ROADMAP item 16): the number
    of ovals, and whether the curve is dividing.

    ``ρ_i = σ∘c_i`` on the whites; its fixed points are the real sheets
    over arc ``i``.  The ovals are the components of the graph on the
    ``(i, a)`` with ``a`` fixed by ``ρ_i``: a sheet fixed on both sides of
    corner ``k`` continues across it; the corner transposition ``(a b) =
    ρ_k ρ_{k+1}`` commutes with ``ρ_k``, so one side fixes both ``a`` and
    ``b``, and there it joins them; and ``e`` carries ``(s + 1, a)`` to
    ``(1, e(a))``.  The curve is dividing when ``C/σ``, glued from the
    white half-sheets, is orientable: when the sheets 2-color with each
    ``χ``-pair in one color and each ``ρ``-pair in two."""
    d, s = m.degree, m.corner_points
    rho = [tuple(sigma[c[a]] for a in range(d)) for c in m.c]
    root = {(i, a): (i, a) for i in range(s + 1) for a in range(d) if rho[i][a] == a}

    def find(node):
        while root[node] != node:
            node = root[node]
        return node

    def join(p, q):
        root[find(p)] = find(q)

    for k in range(s):
        for a in range(d):
            b = rho[k][rho[k + 1][a]]
            if b == a:
                # ρ_k and ρ_{k+1} agree at a, so both fix it or neither does
                if rho[k][a] == a:
                    join((k, a), (k + 1, a))
            else:
                side = k if rho[k][a] == a else k + 1
                join((side, a), (side, b))
    for a in range(d):
        if rho[s][a] == a:
            join((s, a), (0, m.e[a]))
    ovals = sum(1 for node in root if find(node) == node)

    # parity 0 joins a χ-pair (one color), parity 1 a ρ-pair (two colors)
    links: dict[int, list[tuple[int, int]]] = {a: [] for a in range(d)}
    for x in m.x:
        a = next(a for a in range(d) if x[a] != a)
        links[a].append((x[a], 0))
        links[x[a]].append((a, 0))
    for r in rho:
        for a in range(d):
            if r[a] != a:
                links[a].append((r[a], 1))
    color = {0: 0}
    todo = [0]
    while todo:
        a = todo.pop()
        for b, parity in links[a]:
            if b not in color:
                color[b] = color[a] ^ parity
                todo.append(b)
            elif color[b] != color[a] ^ parity:
                return ovals, False
    return ovals, True


CELL_TYPES = ("gardens", "faces", "edges", "vertices", "nodes")


def all_cells(park: Park, name: str) -> list:
    """Every garden's ``faces``, ``edges`` or ``vertices``, in garden order."""
    return [cell for garden in park.gardens for cell in getattr(garden, name)]


def total_degree(park: Park) -> int:
    """Common sum of white and of black face degrees; raises
    :class:`InconsistencyError` when the two sums differ."""
    white_sum = sum(f.degree for f in park.all_faces() if f.color == "white")
    black_sum = sum(f.degree for f in park.all_faces() if f.color == "black")
    if white_sum != black_sum:
        raise InconsistencyError(
            f"white degrees sum to {white_sum} but black degrees to {black_sum}"
        )
    return white_sum


def _cells(park: Park) -> dict:
    return {
        "gardens": {g.id: g for g in park.gardens},
        "faces": {f.id: f for f in park.all_faces()},
        "edges": {e.id: e for e in all_cells(park, "edges")},
        "vertices": {v.id: v for v in all_cells(park, "vertices")},
        "nodes": {n.id: n for n in park.nodes},
    }


def check_park_isomorphism(p1: Park, p2: Park, witness) -> None:
    """Assert that ``witness`` is a park isomorphism ``p1 -> p2``.

    Checks the definition cell by cell, without the search's own tables:
    bijections, preserved attributes, corner labels through the witness's
    rotation and reflection, alleys, face boundaries, garden membership
    and commuting with both involutions.
    """
    c1, c2 = _cells(p1), _cells(p2)
    maps = {name: getattr(witness, name) for name in CELL_TYPES}
    for name in CELL_TYPES:
        assert sorted(maps[name]) == sorted(c1[name]), f"{name} map is not total"
        assert sorted(maps[name].values()) == sorted(c2[name]), f"{name} map is not onto"
    assert (p1.corner_points, p1.cone_points) == (p2.corner_points, p2.cone_points)
    s = p1.corner_points

    def corner(label: int) -> int:
        if s == 0:
            return label
        if witness.reflected:
            return (witness.rotation - (label - 1)) % s + 1
        return (label - 1 + witness.rotation) % s + 1

    for n, node in c1["nodes"].items():
        image = c2["nodes"][maps["nodes"][n]]
        assert (image.role, image.genus) == (node.role, node.genus), f"node {n}"
    for g, garden in c1["gardens"].items():
        image = c2["gardens"][maps["gardens"][g]]
        assert image.kind == garden.kind, f"garden {g}"
        for name in ("faces", "edges", "vertices"):
            mapped = sorted(maps[name][x.id] for x in getattr(garden, name))
            own = sorted(x.id for x in getattr(image, name))
            assert mapped == own, f"garden {g} {name}"
    for v, vertex in c1["vertices"].items():
        image = c2["vertices"][maps["vertices"][v]]
        assert image.corner_label == corner(vertex.corner_label), f"vertex {v}"
    for e, edge in c1["edges"].items():
        image = c2["edges"][maps["edges"][e]]
        assert (image.kind, image.length) == (edge.kind, edge.length), f"edge {e}"
        if edge.ends is not None:
            ends = sorted(maps["vertices"][v] for v in edge.ends)
            assert ends == sorted(image.ends), f"edge {e} ends"
    for f, face in c1["faces"].items():
        image = c2["faces"][maps["faces"][f]]
        assert (image.color, image.degree) == (face.color, face.degree), f"face {f}"
        if face.boundary and image.boundary:
            mapped = [
                maps["edges"][abs(x)] * (1 if x > 0 else -1) for x in face.boundary
            ]
            if witness.reflected:
                mapped = [-x for x in reversed(mapped)]
            target = list(image.boundary)
            assert any(
                mapped[k:] + mapped[:k] == target for k in range(len(mapped))
            ), f"face {f} boundary"
    alleys = sorted(
        (maps["faces"][a.face_id], maps["nodes"][a.node_id]) for a in p1.alleys
    )
    assert alleys == sorted((a.face_id, a.node_id) for a in p2.alleys)
    for name in CELL_TYPES:
        inv1, inv2 = getattr(p1.involution, name), getattr(p2.involution, name)
        for x in c1[name]:
            assert maps[name][inv1[x]] == inv2[maps[name][x]], f"{name} {x} commute"
