"""Shared fixtures: small hand representations and the shipped park file."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

import pytest

from parkscope import (
    InconsistencyError,
    NonRealizableError,
    build,
    enumerate_monodromies,
    genus_from_counts,
    monodromy_to_park,
    validate_park,
)
from parkscope.equivalence import _beta_candidates, _black_product_target, _corner_moves
from parkscope.extraction import (
    FaceCell,
    NodeCell,
    _assemble,
    _Extraction,
    _require_valid_generic,
)
from parkscope.monodromy import validate_genericity, validate_relations
from parkscope.park import (
    EntranceSignature,
    Park,
    _genus_of_characteristic,
    euler_characteristic as park_euler_characteristic,
    from_json_dict,
    genus as park_genus,
    rotations_equal,
)
from parkscope.permgroup import (
    blacks,
    compose,
    conjugate,
    cycles,
    inverse,
    is_matching,
    mirror_matching,
    orbits,
    whites,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_PARK_PATH = REPO_ROOT / "examples" / "example1_park.json"
EXAMPLE_REP_PATH = REPO_ROOT / "examples" / "f3_monodromy.json"


def run_cli(args, cwd=REPO_ROOT, env=None):
    """The CLI in a fresh interpreter, importable from any working directory.

    The timeout makes a computation that never ends fail its test instead
    of hanging the suite.
    """
    env = dict(os.environ if env is None else env)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return subprocess.run(
        [sys.executable, "-m", "parkscope.cli", *args],
        capture_output=True,
        cwd=str(cwd),
        env=env,
        timeout=60,
    )


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
    """The full park of a valid generic rep, every extraction stage built
    and assembled whether or not it is realizable; the rep is validated,
    the park is not."""
    _require_valid_generic(m)
    return _assemble(_Extraction(m).finish())


def monodromy_to_park_full(m) -> Park:
    """``monodromy_to_park`` with the genus checked on the assembled,
    validated park: the oracle for the check before assembly."""
    park = assemble_park(m)
    report = validate_park(park)
    if not report:
        raise InconsistencyError(
            "assembled park fails validation: "
            + "; ".join(f"{code}: {detail}" for code, detail in report.violations[:3])
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
    Asserts that each ``x`` moves one pair of the half, that no face leaks
    out of its orbit, and that the branch counts sum to ``t``."""
    c1 = m.c[0]
    xs, e, half, color = list(m.x), m.e, whites(m.degree), "white"
    if reflected:
        xs = [conjugate(x, c1) for x in xs]
        e, half, color = conjugate(m.e, c1), blacks(m.degree), "black"
    faces = [FaceCell(color, cyc) for cyc in cycles(e, restrict=half, include_fixed=True)]
    pairs = [{a for a in half if x[a] != a} for x in xs]
    assert all(len(pair) == 2 for pair in pairs), pairs
    out, total = [], 0
    for orbit in orbits(xs, m.ground_size, restrict=half):
        members = set(orbit)
        inside = [face for face in faces if set(face.elements) & members]
        assert all(set(face.elements) <= members for face in inside), orbit
        branches = sum(1 for pair in pairs if pair <= members)
        total += branches
        out.append((orbit, inside, branches + 2 - len(inside) - sum(f.degree for f in inside)))
    assert total == m.cone_points
    return out


def nodes_from_weights(role, weights):
    """``(nodes, node_of_face)`` for orbit weights that are all even and
    non-negative."""
    nodes, of_face = [], {}
    for orbit, faces, numerator in weights:
        assert numerator >= 0 and numerator % 2 == 0, orbit
        signature = EntranceSignature.compute(numerator // 2, [f.degree for f in faces])
        node = NodeCell(role, orbit, signature)
        nodes.append(node)
        of_face.update((face, node) for face in faces)
    return nodes, of_face


def exits_from_orbits(ex):
    """The exits of a finished ``_Extraction`` built from scratch: the
    orbits of the ``c_1``-conjugated ``x`` on the black half, the black
    faces of ``c_1 e c_1`` inside each, their signatures from the branch
    count and face degrees, and each entrance paired with the exit on its
    reflected orbit, of equal signature.  Returns ``(exit_nodes,
    exit_of_cell, exit_paired_with)``, the oracle for the mirrored exits."""
    c1 = ex.c[0]
    nodes, of_cell = nodes_from_weights("exit", orbit_weights(ex.m, reflected=True))
    by_orbit = {node.orbit: node for node in nodes}
    paired = {}
    for node in ex.entrances:
        partner = by_orbit.get(tuple(sorted(c1[a] for a in node.orbit)))
        assert partner is not None and partner.signature == node.signature, node
        paired[node] = partner
    return nodes, of_cell, paired


def lift(ex, i, a):
    """The lift of arc ``i`` through ``a``: the pair ``c_i`` swaps there."""
    b = ex.c[i - 1][a]
    return (i, min(a, b), max(a, b))


def corner_vertices(ex):
    """Each element of a size-four orbit of ``<c_{k-1}, c_k>``, keyed by
    ``(k, element)``, mapped to its vertex key ``(k, least element)``.
    Asserts that every such orbit has size 2 or 4."""
    out = {}
    for k in range(1, ex.s + 1):
        for orbit in orbits([ex.c[k - 1], ex.c[k]], ex.n):
            assert len(orbit) in (2, 4), (k, orbit)
            if len(orbit) == 4:
                out.update(((k, a), (k, orbit[0])) for a in orbit)
    return out


def walk_cycles(ex, half):
    """The cycles of the boundary walk of a finished ``_Extraction`` through
    the elements of ``half``: at each element the walk crosses arcs
    ``1..s+1``, then steps by ``e``.  Each cycle starts at its first item
    in (element, arc) order."""
    visited, out = set(), []
    for a0 in half:
        for i0 in range(1, ex.s + 2):
            item, cycle = (i0, a0), []
            while item not in visited:
                visited.add(item)
                cycle.append(item)
                i, a = item
                item = (i + 1, a) if i <= ex.s else (1, ex.e[a])
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
    checking, for a valid generic ``m``; return its park, or ``None`` when
    it has none.

    The entrances, or the rejection of an impossible node weight, are
    those ``orbit_weights`` finds: each white face lies inside its
    entrance's orbit, each ``x`` moves one white pair inside one orbit,
    and the branch counts sum to ``t``.  ``c_1`` carries each white face
    onto one black face, each black face the image of one white face.
    Every corner orbit has size 2 or 4, and the size-four ones are the
    vertices; segments number twice the vertices.  The seam relation
    ``c_1 = e c_{s+1} e^-1`` holds at every element.  Each lift of each
    arc lies on exactly one chain.  Each white walk cycle, cut at its
    vertex crossings, is the chain list of its face, and each segment
    starts and ends on the vertices it names.  Each walk cycle of the
    black side sweeps a white-side chain: a segment in the same order, a
    loop up to rotation.  Every chain crosses arc 1 and arc ``s + 1``
    equally often, and its length is its least count over arcs ``1..s``.
    No face, edge or vertex straddles two gardens, and each garden lists
    the cells that one filter per garden finds.  The mirrored exits
    equal the exits built from orbits.  A realized park passes
    ``validate_park`` and has the Euler characteristic, so the genus, of
    the cheap cells; its gardens are all orientable, unpartnered and
    have an edge each, no vertex names a pair, and the involution fixes
    every edge, vertex and garden.
    """
    weights = orbit_weights(m)
    impossible = [(orbit, num) for orbit, _, num in weights if num < 0 or num % 2]
    try:
        ex = _Extraction(m).finish()
    except NonRealizableError as exc:
        # an impossible node weight, found with the cheap cells
        assert impossible, exc
        orbit, numerator = impossible[0]
        assert str(exc) == f"entrance orbit {orbit} would need genus {numerator}/2"
        return None
    assert (ex.entrances, ex.entrance_of_cell) == nodes_from_weights("entrance", weights)
    c1 = ex.c[0]
    for cell, image in ex.mirror_cell.items():
        assert {c1[a] for a in cell.elements} == set(image.elements), cell
    assert sorted(ex.mirror_cell, key=lambda cell: cell.key) == ex.white_cells
    assert sorted(ex.mirror_cell.values(), key=lambda cell: cell.key) == ex.black_cells
    vertex_of = corner_vertices(ex)
    assert vertex_of == {
        (vertex.corner, a): vertex.key for vertex in ex.vertices for a in vertex.elements
    }
    assert sum(chain.kind == "segment" for chain in ex.chains) == 2 * len(ex.vertices)
    for a in range(ex.n):  # the seam relation c_1 = e c_{s+1} e^-1
        assert c1[ex.e[a]] == ex.e[ex.c[ex.s][a]], a
    chain_of = {item: chain for chain in ex.chains for item in chain.lifts}
    assert len(chain_of) == sum(len(chain.lifts) for chain in ex.chains)
    assert set(chain_of) == {
        lift(ex, i, a) for i in range(1, ex.s + 2) for a in whites(ex.d)
    }
    faces_by_key = {cell.key: cell for cell in ex.white_cells}
    for cycle in walk_cycles(ex, whites(ex.d)):
        runs = split_runs(cycle, vertex_of)
        chains = [chain_of[lift(ex, *run[0])] for run in runs]
        assert chains == ex.face_chains[faces_by_key[cycle[0][1]]], cycle
        for run, chain in zip(runs, chains):
            if chain.kind == "segment":
                (i1, a1), last = run[0], run[-1]
                assert chain.ends == (vertex_of[(i1 - 1, a1)], vertex_of[last]), run
    for cycle in walk_cycles(ex, blacks(ex.d)):
        for run in split_runs(cycle, vertex_of):
            lifts = tuple(lift(ex, i, a) for i, a in run)
            chain = chain_of.get(lifts[0])
            assert chain is not None and sorted(lifts) == sorted(chain.lifts), run
            if chain.kind == "segment":
                assert lifts == chain.lifts, run
            else:
                assert rotations_equal(lifts, chain.lifts), run
    for chain in ex.chains:
        counts = Counter(i for i, _, _ in chain.lifts)
        assert counts[1] == counts[ex.s + 1], chain
        arcs = [counts[i] for i in range(1, ex.s + 1)] or [len(chain.lifts)]
        assert chain.length == min(arcs), chain
    for cell in ex.white_cells + ex.black_cells:
        assert len({ex.garden_of[a] for a in cell.elements}) == 1, cell
    for chain in ex.chains:
        assert len({ex.garden_of[a] for lift in chain.lifts for a in lift[1:]}) == 1, chain
    for vertex in ex.vertices:
        assert len({ex.garden_of[a] for a in vertex.elements}) == 1, vertex
    faces = ex.white_cells + ex.black_cells
    for g_idx, garden in enumerate(ex.gardens):  # the one-pass grouping, filtered
        assert garden.faces == tuple(
            cell for cell in faces if ex.garden_of[cell.key] == g_idx
        )
        assert garden.edges == tuple(
            chain for chain in ex.chains if ex.garden_of[chain.lifts[0][1]] == g_idx
        )
        assert garden.vertices == tuple(
            vertex for vertex in ex.vertices if ex.garden_of[vertex.elements[0]] == g_idx
        )
    assert exits_from_orbits(ex) == (ex.exit_nodes, ex.exit_of_cell, ex.exit_paired_with)
    try:
        park = monodromy_to_park(m)
    except NonRealizableError:
        return None
    report = validate_park(park)
    assert report, report.violations
    assert park_euler_characteristic(park) == ex.euler_characteristic()
    assert park_genus(park) == _genus_of_characteristic(ex.euler_characteristic())
    for garden in park.gardens:
        assert (garden.kind, garden.partner_id) == ("orientable", None), garden.id
        assert garden.edges, garden.id
    assert all(vertex.pair_id is None for vertex in park.all_vertices())
    for name in ("edges", "vertices", "gardens"):
        assert all(k == v for k, v in getattr(park.involution, name).items()), name
    return park


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


def complete_skeleton_validated(d, chain, white_xs, components):
    """``equivalence._complete_skeleton`` that trusts no construction: the
    first completion candidate passing ``validate_relations`` and
    ``validate_genericity`` in full, or ``None``.  The oracle for the
    enumerator's valid-by-construction path."""
    t = len(white_xs)
    if t == 0:
        if chain[-1] != chain[0] or len(components) > 1:
            return None
        m = build(d, [], chain)
        if validate_relations(m) and validate_genericity(m):
            return m
        return None
    black_target = _black_product_target(d, chain, white_xs)
    for betas in _beta_candidates(d, t, black_target, components):
        xs = [compose(w, beta) for w, beta in zip(white_xs, betas)]
        m = build(d, xs, chain)
        if validate_relations(m) and validate_genericity(m):
            return m
    return None


def _transported(m, sigma_w) -> tuple:
    """Relabel by ``sigma_w`` on whites, transporting blacks so that the
    first reflection becomes the standard matching; serialize the
    relabeling-equivalence invariants (orbit system, e, all c)."""
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
    return (orbit_t, e_t, c_t)


def canonical_form_brute(m) -> str:
    """The canonical key as a plain minimum of the whole serialization over
    all ``d!`` white relabelings: the oracle for ``canonical_form``."""
    best = min(_transported(m, sigma_w) for sigma_w in permutations(range(m.degree)))
    return repr((m.degree, m.cone_points, m.corner_points) + best)


CELL_TYPES = ("gardens", "faces", "edges", "vertices", "nodes")


def _cells(park: Park) -> dict:
    return {
        "gardens": {g.id: g for g in park.gardens},
        "faces": {f.id: f for f in park.all_faces()},
        "edges": {e.id: e for e in park.all_edges()},
        "vertices": {v.id: v for v in park.all_vertices()},
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
