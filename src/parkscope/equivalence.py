"""Equivalence deciders and exhaustive enumeration of monodromies.

* ``park_isomorphic`` searches for a structure-preserving bijection
  between two parks: colors, roles, kinds, degrees, lengths and genus
  weights are preserved, corner labels match up to a cyclic rotation
  (optionally a reflection), fine boundaries correspond, and the map
  commutes with both park involutions.  It takes the first map of the
  park-morphism search ``_park_morphisms`` for each rotation in turn.
* ``find_park_involution`` recovers an involution for a park given
  without one (hand-authored parks): the first map of the same search
  from the park to itself with colors swapped that passes the
  garden-kind rule of ``validate_park``.  Every park-vs-park comparison
  is this one search.
* ``monodromy_equivalent`` decides a sufficient condition for
  topological equivalence of two monodromies: a color-preserving sheet
  relabeling that matches the orbit systems of the ``x`` generators and
  conjugates ``e`` and every reflection ``c_i`` of one representation
  onto the other.  It is decided by the canonical-key engine, whose
  relabelings that reach both canonical images give the witness.
* ``canonical_form`` keys a relabeling-equivalence class by its least
  serialization, taken one component at a time over relabelings that tie.
  The key engine works on a batch and runs each stage once per distinct
  value of what it reads: the relabelings once per ``c[1]``, the
  orbit-system stage once per ``(c[1], orbit system)``, the ``e`` stage
  once per ``(c[1], x, e)``.  The later reflections run one at a time,
  over the relabelings that tie, along a path kept per ``(c[1], x, e)``:
  a representation runs only the reflections after the longest prefix it
  shares with the last representation of its ``(c[1], x, e)``.
* ``enumerate_monodromies`` generates all valid generic representations
  for small parameters, up to color-preserving relabeling of sheets, and
  deduplicates at three levels, each grouping the one below: raw,
  relabeling-equivalence classes, or park-isomorphism classes.

Enumeration builds valid generic data and validates nothing (see
``enumerate_monodromies``): it marks the representations it builds, so
the public ``monodromy_to_park`` it extracts through checks nothing
again, and it keys through the unvalidated core ``_canonical_keys``.
Parks have a gate of their own, ``park._validated_index``, which runs
every rule on every park that ``park_isomorphic`` is given.  The park
merge ``_isomorphism_groups`` takes only parks that ``monodromy_to_park``
built, so it runs no rule: it indexes each park once, with
``park._ParkIndex``, and searches it, through ``_isomorphism``, the core
that ``park_isomorphic`` wraps, only against earlier parks of equal
``_merge_signature``, an invariant of park isomorphism, and only at the
corner rotations that the two parks' least rotations allow; the search
still decides every merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, permutations, product
from math import comb
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import NonRealizableError, ResourceLimitError
from .extraction import monodromy_to_park
from .monodromy import MonodromyRep, _generic_trusted, _Mark, require_generic
from .park import (
    CELL_TYPES,
    Involution,
    Park,
    _carries_boundary,
    _garden_kind_violation,
    _garden_signature,
    _least_rotation,
    _ParkIndex,
    _same,
    _validated_index,
    opposite_color,
)
from .permgroup import (
    Perm,
    _cycles,
    _orbits,
    blacks,
    compose,
    compose_all,
    conjugate,
    from_cycles,
    identity,
    inverse,
    is_involution,
    mirror_matching,
    whites,
)

#: Hard ceilings for enumeration, matching the documented interface.
MAX_GROUND = 10
MAX_CRITICAL = 8
DEFAULT_BUDGET = 5_000_000

_DEDUP_ALIASES = {
    "none": "none",
    "raw": "none",
    "j_equivalence": "j_equivalence",
    "jequiv": "j_equivalence",
    "park_isomorphism": "park_isomorphism",
    "park": "park_isomorphism",
}


# ---------------------------------------------------------------------------
# park isomorphism
# ---------------------------------------------------------------------------


@dataclass
class ParkIsomorphism:
    """Witness for :func:`park_isomorphic`: all cell bijections."""

    rotation: int
    reflected: bool
    gardens: dict[int, int] = field(default_factory=dict)
    faces: dict[int, int] = field(default_factory=dict)
    edges: dict[int, int] = field(default_factory=dict)
    vertices: dict[int, int] = field(default_factory=dict)
    nodes: dict[int, int] = field(default_factory=dict)


#: One id map per cell type.
_CellMaps = dict[str, dict[int, int]]

#: One step of the morphism search: a cell type, a source id and the
#: target ids it may go to.
_Step = tuple[str, int, list[int]]


def _cell_shape(
    index: _ParkIndex,
    cell: str,
    x: int,
    color: Callable[[str], str] = _same,
    label: Callable[[int], int] = _same,
    vertex: Callable[[int], int] = _same,
) -> Any:
    """What a park morphism keeps of cell ``x`` of one type: a node's
    signature; a face's color and degree; a garden's signature; a vertex's
    corner label; an edge's kind, length and ends.  Colors, corner labels
    and end vertices are read through ``color``, ``label`` and ``vertex``."""
    if cell == "nodes":
        return index.signatures[x]
    if cell == "faces":
        face = index.faces[x]
        return color(face.color), face.degree
    if cell == "gardens":
        return _garden_signature(index.gardens[x], color, label)
    if cell == "vertices":
        return label(index.vertices[x].corner_label)
    edge = index.edges[x]
    ends = None if edge.ends is None else sorted(map(vertex, edge.ends))
    return edge.kind, edge.length, ends


def _park_morphisms(
    src: _ParkIndex,
    dst: _ParkIndex,
    *,
    swap: bool,
    label: Callable[[int], int],
    reverse: bool,
    twin: Callable[[str, int, int], tuple[int, int]],
    required: Mapping[str, Mapping[int, int]],
) -> Iterator[_CellMaps]:
    """Every structure-preserving cell map ``src -> dst``, in a fixed order.

    Roles and colors are kept, or swapped when ``swap`` is set; genus
    signatures, degrees, edge kinds and lengths and garden kinds are kept;
    corner labels are sent through ``label``.  Every binding ``a -> b`` of
    one cell type is made together with its twin ``twin(type, a, b)``, and
    a cell listed in ``required`` may only go to its listed image.  Face
    boundaries must correspond up to rotation, read reversed and negated
    when ``reverse`` is set.

    One depth-first loop binds steps ``(cell type, source id, scope)``: the
    source cell ``a`` goes to each unused ``b`` of the scope, in order,
    whose :func:`_cell_shape` is the shape that ``a``'s image needs.  The
    steps come in four phases, each built once the one before is bound:
    entrances by id against target nodes by id; white faces by id against
    the faces of their node's image, in alley order, each binding its
    garden on the way; gardens left unbound by id against gardens by id;
    then, garden pair by garden pair, vertices and edges by id against the
    cells of the image garden.  A step whose cell a twin bound is skipped.
    """
    if any(len(getattr(src, t)) != len(getattr(dst, t)) for t in CELL_TYPES):
        return
    recolor = opposite_color if swap else _same
    target_role = "exit" if swap else "entrance"
    entrances = sorted(n for n, node in src.nodes.items() if node.role == "entrance")
    targets = sorted(n for n, node in dst.nodes.items() if node.role == target_role)
    if len(entrances) != len(targets):
        return
    white_faces = sorted(f for f, face in src.faces.items() if face.color == "white")
    dst_gardens = sorted(dst.gardens)
    maps: _CellMaps = {t: {} for t in CELL_TYPES}
    images: dict[str, set[int]] = {t: set() for t in CELL_TYPES}
    trail: list[tuple[str, int]] = []

    def bind(cell: str, a: int, b: int) -> bool:
        mapping = maps[cell]
        if a in mapping:
            return mapping[a] == b
        if b in images[cell] or required.get(cell, {}).get(a, b) != b:
            return False
        mapping[a] = b
        images[cell].add(b)
        trail.append((cell, a))
        return True

    def bind_twins(cell: str, a: int, b: int) -> bool:
        return bind(cell, a, b) and bind(cell, *twin(cell, a, b))

    def undo(mark: int) -> None:
        while len(trail) > mark:
            cell, a = trail.pop()
            images[cell].discard(maps[cell].pop(a))

    def want(cell: str, a: int) -> Any:
        return _cell_shape(src, cell, a, recolor, label, maps["vertices"].__getitem__)

    def bind_garden(f: int, b: int) -> bool:
        """Bind the gardens of face ``f`` and of its image ``b``."""
        a, image = src.garden_of["face"][f], dst.garden_of["face"][b]
        fits = a in maps["gardens"] or want("gardens", a) == _cell_shape(dst, "gardens", image)
        return fits and bind_twins("gardens", a, image)

    def cells_of(index: _ParkIndex, cell: str, garden: int) -> list[int]:
        return sorted(x.id for x in getattr(index.gardens[garden], cell))

    phases: tuple[Callable[[], list[_Step]], ...] = (
        lambda: [("nodes", a, targets) for a in entrances],
        lambda: [
            ("faces", f, dst.faces_of_node[maps["nodes"][src.node_of_face[f]]])
            for f in white_faces
        ],
        lambda: [
            ("gardens", g, dst_gardens)
            for g in sorted(src.gardens)
            if g not in maps["gardens"]
        ],
        lambda: [
            (cell, x, cells_of(dst, cell, b))
            for a, b in sorted(maps["gardens"].items())
            for cell in ("vertices", "edges")
            for x in cells_of(src, cell, a)
        ],
    )

    def boundaries_correspond() -> bool:
        return all(
            _carries_boundary(maps["edges"], face, dst.faces[maps["faces"][f]], reverse=reverse)
            for f, face in src.faces.items()
        )

    def fitting(cell: str, a: int, scope: list[int]) -> Iterator[int]:
        """The targets in ``scope`` still unbound when tried, of the shape
        that ``a``'s image needs as the maps stand when the step is reached."""
        need = want(cell, a)
        return (b for b in scope if b not in images[cell] and _cell_shape(dst, cell, b) == need)

    def search() -> Iterator[_CellMaps]:
        """The depth-first loop, on an explicit stack of choice points, so
        that a park of any size stays clear of the recursion limit.  A
        frame is a step's index, its untried targets, the trail mark and
        the step count and phase when the step was reached."""
        steps: list[_Step] = []
        stack: list[tuple[int, Iterator[int], int, int, int]] = []
        i = phase = 0
        while True:
            if i < len(steps):
                cell, a, scope = steps[i]
                if a in maps[cell]:
                    i += 1
                    continue
                stack.append((i, fitting(cell, a, scope), len(trail), len(steps), phase))
            elif phase < len(phases):
                steps += phases[phase]()
                phase += 1
                continue
            elif boundaries_correspond():
                yield {t: dict(mapping) for t, mapping in maps.items()}
            # bind the next target of the innermost step that has one left
            while stack:
                i, untried, mark, count, phase = stack[-1]
                undo(mark)
                del steps[count:]
                cell, a, _ = steps[i]
                for b in untried:
                    if bind_twins(cell, a, b) and (cell != "faces" or bind_garden(a, b)):
                        break
                    undo(mark)
                else:
                    stack.pop()
                    continue
                i += 1
                break
            else:
                return

    yield from search()


def _rotated_label(label: int, s: int, rotation: int, reflected: bool) -> int:
    if reflected:
        return ((rotation - (label - 1)) % s) + 1
    return ((label - 1 + rotation) % s) + 1


def park_isomorphic(
    p1: Park, p2: Park, allow_reflection: bool = False
) -> ParkIsomorphism | None:
    """Search for a structure-preserving bijection between two parks.

    Colors, roles, kinds, degrees, lengths and genus weights must be
    preserved; corner labels may shift by one global cyclic rotation
    (plus a reflection when ``allow_reflection`` is set); fine face
    boundaries must correspond; the bijection must commute with both
    park involutions.  Returns the first witness in a fixed search
    order, or ``None``.  Both parks must validate, and each is checked
    through the park gate on every call.
    """
    reflections = (False, True) if allow_reflection else (False,)
    rotations = range(p1.corner_points or 1)
    return _isomorphism(
        _validated_index(p1), _validated_index(p2), product(reflections, rotations)
    )


def _isomorphism(
    src: _ParkIndex, dst: _ParkIndex, tries: Iterable[tuple[bool, int]]
) -> ParkIsomorphism | None:
    """The first map of the park-morphism search from ``src``'s park to
    ``dst``'s for each ``(reflected, rotation)`` of ``tries`` in turn, as a
    witness, or ``None``; the unchecked core of :func:`park_isomorphic`."""
    p1, p2 = src.park, dst.park
    if (p1.corner_points, p1.cone_points) != (p2.corner_points, p2.cone_points):
        return None
    s = p1.corner_points
    inv1, inv2 = p1.involution, p2.involution

    def twin(cell: str, a: int, b: int) -> tuple[int, int]:
        return getattr(inv1, cell)[a], getattr(inv2, cell)[b]

    for reflected, rotation in tries:
        morphisms = _park_morphisms(
            src,
            dst,
            swap=False,
            label=lambda c: _rotated_label(c, s, rotation, reflected),
            reverse=reflected,
            twin=twin,
            required={},
        )
        maps = next(morphisms, None)
        if maps is not None:
            return ParkIsomorphism(rotation=rotation, reflected=reflected, **maps)
    return None


def find_park_involution(park: Park) -> Involution | None:
    """Search for a structure-preserving color-swapping involution.

    This is the park-morphism search from a park to itself with roles
    and colors swapped, corner labels kept and boundaries read reversed:
    entrances are matched with exits of equal signature, white faces
    with black faces of equal degree through compatible gardens, then
    vertices and edges within each garden pairing, each binding made
    together with its mirror.  Declared garden partners and vertex pairs
    are required images, and every garden must pass the garden-kind rule
    of ``validate_park``: only a separated-pair member moves, and only to
    its partner, and a fixed garden must agree with its kind.  Returns
    the first involution in a fixed search order, or ``None`` (also for a
    park whose ids or alleys do not resolve).
    """
    try:
        index = _ParkIndex(park)
        index.check_references()
    except ValueError:
        return None
    if not index.attachments_resolve():
        return None
    required = {
        "gardens": {
            g.id: g.id if g.partner_id is None else g.partner_id
            for g in park.gardens
            if g.partner_id is not None or g.kind != "separated_pair_member"
        },
        "vertices": {
            v.id: v.pair_id for v in index.vertices.values() if v.pair_id is not None
        },
    }

    def kinds_hold(maps: _CellMaps) -> bool:
        edges, vertices = maps["edges"], maps["vertices"]
        return all(
            _garden_kind_violation(index.gardens[g_id], image, edges, vertices) is None
            for g_id, image in maps["gardens"].items()
        )

    morphisms = _park_morphisms(
        index,
        index,
        swap=True,
        label=_same,
        reverse=True,
        twin=lambda cell, a, b: (b, a),
        required=required,
    )
    maps = next(filter(kinds_hold, morphisms), None)
    return None if maps is None else Involution(**maps)


def _merge_signature(park: Park) -> tuple:
    """An invariant that parks isomorphic up to a corner rotation share.

    It is the least, over the ``s`` global rotations of the corner labels,
    of the sorted nodes and the sorted gardens, where

    * an edge is its kind, length and the sorted labels at its ends;
    * a face is its color, degree and boundary, the boundary taken as the
      least cyclic rotation of its (edge, sign) entries;
    * a garden is its kind, sorted faces, sorted edges and sorted labels;
    * a node is its role and genus with its attached faces, each together
      with its garden.

    That is what :func:`park_isomorphic` keeps without a reflection, for
    the fine parks extraction builds, so parks of unequal signature never
    match.  It holds no ids.  :func:`_least_rotations` returns it with the
    rotations that reach it."""
    return _least_rotations(_ParkIndex(park))[0]


def _least_rotations(index: _ParkIndex) -> tuple[tuple, list[int]]:
    """The park's :func:`_merge_signature` and the rotations, in increasing
    order, whose description reaches it.  The description holds no ids, so
    a park that goes onto another with rotation ``rho`` describes at ``r``
    what the other describes at ``r - rho``: ``rho`` is ``r1 - r2`` (mod
    ``s``) for any ``r1`` of the first park's rotations and some ``r2`` of
    the other's."""
    s = index.park.corner_points

    def described(rotation: int) -> tuple:
        labels = {
            v: _rotated_label(vertex.corner_label, s, rotation, False)
            for v, vertex in index.vertices.items()
        }
        edges = {
            e: (edge.kind, edge.length, tuple(sorted(labels[v] for v in edge.ends or ())))
            for e, edge in index.edges.items()
        }
        faces = {}
        for f, face in index.faces.items():
            entries = tuple(edges[abs(x)] + (x > 0,) for x in face.boundary)
            faces[f] = face.color, face.degree, _least_rotation(entries)
        gardens = {
            g: (
                garden.kind,
                tuple(sorted(faces[f.id] for f in garden.faces)),
                tuple(sorted(edges[e.id] for e in garden.edges)),
                tuple(sorted(labels[v.id] for v in garden.vertices)),
            )
            for g, garden in index.gardens.items()
        }
        nodes = sorted(
            (
                node.role,
                node.genus,
                tuple(
                    sorted(
                        (faces[f], gardens[index.garden_of["face"][f]])
                        for f in index.faces_of_node[n]
                    )
                ),
            )
            for n, node in index.nodes.items()
        )
        return tuple(nodes), tuple(sorted(gardens.values()))

    descriptions = [described(rotation) for rotation in range(s or 1)]
    least = min(descriptions)
    return least, [r for r, value in enumerate(descriptions) if value == least]


def _park_or_none(m: MonodromyRep) -> Park | None:
    """The park of a valid generic ``m``, or ``None`` when it has none."""
    try:
        return monodromy_to_park(m)
    except NonRealizableError:
        return None


def _isomorphism_groups(items: Iterable[tuple[object, Park | None]]) -> list[list]:
    """Group the items whose parks are isomorphic, in first-seen order; an
    item without a park stays alone.  Each park is searched, through the
    core :func:`_isomorphism` of :func:`park_isomorphic`, against the first
    park of every earlier group of equal ``_merge_signature`` only, and
    only at the rotations that the two parks' :func:`_least_rotations`
    allow, in increasing order; so the groups are those of a plain
    first-match pairwise merge.  Each park's index is built once, and no
    rule runs: the parks come from ``monodromy_to_park``, whose parks the
    tests pin valid."""
    groups: list[list] = []
    by_signature: dict[tuple, list[tuple[list, _ParkIndex, list[int]]]] = {}
    for item, park in items:
        if park is None:
            groups.append([item])
            continue
        index = _ParkIndex(park)
        signature, rotations = _least_rotations(index)
        s = park.corner_points or 1
        same = by_signature.setdefault(signature, [])
        for group, other, other_rotations in same:
            hinted = sorted({(rotations[0] - r) % s for r in other_rotations})
            if _isomorphism(index, other, ((False, rho) for rho in hinted)):
                group.append(item)
                break
        else:
            groups.append([item])
            same.append((groups[-1], index, rotations))
    return groups


# ---------------------------------------------------------------------------
# monodromy equivalence (sufficient condition)
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceWitness:
    """A color-preserving relabeling certifying topological equivalence."""

    mapping: Perm


def monodromy_equivalent(
    m1: MonodromyRep, m2: MonodromyRep
) -> EquivalenceWitness | None:
    """Sufficient-condition check for topological equivalence.

    A witness is a color-preserving relabeling ``j`` of the ``2d`` sheet
    halves that maps the orbit system of the first representation's ``x``
    generators onto the second's and conjugates ``e`` and every reflection
    ``c_i`` of the first onto the second.  The one returned is the first
    in ``permutations`` order of its white part, which fixes the rest.
    ``None`` means only that this sufficient condition fails; two valid
    representations of different ``(degree, cone, corner)`` parameters
    give ``None``, since their keys begin with those parameters.

    The decision is the key engine's (:func:`_canonical_images`): a
    witness exists exactly when the canonical keys agree, and the
    witnesses are ``j2^-1 . j1`` for every ``j1`` that reaches the first
    representation's canonical image and one ``j2`` that reaches the
    second's, so the first witness is the least of them.
    """
    require_generic(m1)
    require_generic(m2)
    (key1, tied1), (key2, tied2) = _canonical_images((m1, m2))
    if key1 != key2:
        return None
    back = inverse(tied2[0])
    return EquivalenceWitness(mapping=min(compose(back, j) for j in tied1))


def _relabelings(c1: Perm) -> Iterator[list[int]]:
    """Each white permutation, in ``permutations`` order, extended to the
    blacks so that it conjugates the matching ``c1`` onto the standard one."""
    d = len(c1) // 2
    standard = mirror_matching(d)
    for sigma_w in permutations(range(d)):
        j = list(sigma_w) + [0] * d
        for b in blacks(d):
            j[b] = standard[j[c1[b]]]
        yield j


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _least(relabelings: list[list[int]], image) -> tuple:
    """The least ``image(j)`` over ``relabelings``, and the ``j`` reaching it:
    with one relabeling, its image and the same list, at once."""
    if len(relabelings) == 1:
        return image(relabelings[0]), relabelings
    images = [image(j) for j in relabelings]
    best = min(images)
    return best, [j for j, value in zip(relabelings, images) if value == best]


def _canonical_images(
    reps: Iterable[MonodromyRep],
) -> Iterator[tuple[tuple, list[list[int]]]]:
    """The key of each representation, known to be valid, in input order,
    with the relabelings that reach it.  The key is ``(d, t, s)`` and the
    least ``(orbit system, e, (c_1, ..., c_{s+1}))`` image over the
    relabelings making the first reflection standard, taken one component
    at a time over the relabelings that tie so far: tuples compare
    lexicographically, so the least image and its ties, in order, are those
    of the whole image.  :func:`canonical_form` is the key's ``repr``.

    Each stage runs once per distinct value of what it reads: the
    relabelings once per ``c[1]``, the orbit stage once per ``(c[1], orbit
    system)`` and the ``e`` stage once per ``(c[1], x, e)``.  The reflection
    stages run along a path kept for each head ``(c[1], x, e)``: one
    ``(c_k, image of c_k, relabelings tied after k)`` per reflection of the
    head's last representation.  The next representation of that head pops
    the path back to its longest common prefix with its own reflections and
    runs only the stages after it, so a rep that shares ``c_1..c_k`` with
    the last one of its head starts at ``c_{k+1}``.  That holds for any
    input order and pays off on enumeration's, where the reps of one head
    are contiguous and sorted by ``c``.  Every relabeling sends ``c[1]`` to
    the standard matching, so ``c[1]`` is not conjugated.  The tables live
    for the call; keys are yielded one at a time.
    """
    relabelings: dict[Perm, list[list[int]]] = {}
    orbit_stages: dict[tuple, tuple] = {}
    heads: dict[tuple, tuple] = {}
    for m in reps:
        c1 = m.c[0]
        head = (c1, m.x, m.e)
        if head not in heads:
            if c1 not in relabelings:
                relabelings[c1] = list(_relabelings(c1))
            n = m.ground_size
            orbs = tuple(tuple(sorted(orb)) for orb in _orbits(m.x, n, range(n)))
            if (c1, orbs) not in orbit_stages:
                orbit_stages[c1, orbs] = _least(
                    relabelings[c1],
                    lambda j: tuple(sorted(tuple(sorted([j[a] for a in orb])) for orb in orbs)),
                )
            orbit_t, tied = orbit_stages[c1, orbs]
            e_t, tied = _least(tied, partial(conjugate, m.e))
            heads[head] = orbit_t, e_t, [(c1, mirror_matching(m.degree), tied)]
        orbit_t, e_t, path = heads[head]
        k = 1
        while k < len(path) and k < len(m.c) and path[k][0] == m.c[k]:
            k += 1
        del path[k:]
        for ck in m.c[k:]:
            ck_t, tied = _least(path[-1][2], partial(conjugate, ck))
            path.append((ck, ck_t, tied))
        c_t = tuple(image for _, image, _ in path)
        yield (m.degree, m.cone_points, m.corner_points, orbit_t, e_t, c_t), path[-1][2]


def _canonical_keys(reps: Iterable[MonodromyRep]) -> Iterator[tuple]:
    """The keys of :func:`_canonical_images`, one at a time."""
    return (key for key, _ in _canonical_images(reps))


def _key_groups(reps: list[MonodromyRep]) -> list[list[MonodromyRep]]:
    """``reps``, known to be valid, grouped by canonical key, each group in
    input order, the groups in the order of their ``canonical_form``
    strings: one ``repr`` per group."""
    grouped: dict[tuple, list[MonodromyRep]] = {}
    for m, key in zip(reps, _canonical_keys(reps)):
        grouped.setdefault(key, []).append(m)
    # Not the order of the tuples, which the pinned --dedup jequiv output
    # would not keep: the singleton orbit (3,) sorts before (3, 4) as a
    # tuple but after it as text, where a space sorts before ")".
    return [members for _, members in sorted(grouped.items(), key=lambda item: repr(item[0]))]


def canonical_form(m: MonodromyRep) -> str:
    """Canonical key of the relabeling-equivalence class of ``m``.

    The lexicographically smallest serialization of the class invariants
    (orbit system of the ``x`` generators, ``e``, all reflections) over
    all color-preserving relabelings; equal keys certify equivalence.
    It is the ``repr`` of the key tuple of the batch engine that
    enumeration uses (:func:`_canonical_images`), which takes it in
    stages: orbit system, then ``e``, then one reflection at a time.
    ``m`` is validated here, once: a rep that enumeration built, or that
    passed an earlier public gate, is not checked again.
    """
    require_generic(m)
    return repr(next(_canonical_keys((m,))))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _white_transpositions(d: int) -> list[Perm]:
    return [from_cycles(2 * d, [pair]) for pair in combinations(range(d), 2)]


def _corner_moves(d: int) -> list[Perm]:
    """White actions available to a corner: one transposition or two
    disjoint ones."""
    pairs = combinations(combinations(range(d), 2), 2)
    doubles = [from_cycles(2 * d, [p, q]) for p, q in pairs if not set(p) & set(q)]
    return _white_transpositions(d) + doubles


def _two_involutions(p: Perm) -> tuple[Perm, Perm]:
    """Factor a permutation as a product of two involutions, ``a o b = p``."""
    a, b = list(range(len(p))), list(range(len(p)))
    for cycle in _cycles(p, range(len(p)), False):
        length = len(cycle)
        for idx, point in enumerate(cycle):
            b[point] = cycle[(-idx) % length]
            a[point] = cycle[(1 - idx) % length]
    return tuple(a), tuple(b)


def _black_involutions(d: int) -> list[Perm]:
    """All involutions supported on the black half, identity included, in
    increasing order."""
    white = tuple(whites(d))
    return sorted(p for q in permutations(blacks(d)) if is_involution(p := white + q))


def _chains(d: int, s: int) -> Iterator[tuple[list[Perm], tuple[Perm, ...]]]:
    """All reflection chains ``c_1..c_{s+1}`` with standard ``c_1`` and
    generic corner moves, each with its move sequence: each next reflection
    is the last one times the move and its mirror image, so corner ``k``
    acts on the whites as move ``k``.

    Every move extends every chain, so there are
    ``len(_corner_moves(d)) ** s`` chains: with ``c`` the last reflection
    and ``m`` the move (on whites only), the mirror ``m' = c m c`` moves
    blacks only, so ``m`` and ``m'`` commute, and ``c m m' c = m' m``
    makes ``c m m'`` again a color-swapping involution, a matching.

    Chains grow depth first from shared prefixes, trying the moves in
    ``_corner_moves`` order, so they come out in the lexicographic order
    of their move sequences and each prefix is computed once.  They are
    yielded one at a time, so only the current path is held.  A step
    depends only on the last reflection and the move, so ``steps``, a
    table of the call, computes each matching's row of steps once: at
    most ``d!`` rows however many chains."""
    moves = _corner_moves(d)
    steps: dict[Perm, list[Perm]] = {}

    def extend(chain: list[Perm], path: tuple[Perm, ...]) -> Iterator:
        if len(chain) == s + 1:
            yield chain, path
            return
        last = chain[-1]
        if last not in steps:
            steps[last] = [compose(last, compose(m, conjugate(m, last))) for m in moves]
        for move, step in zip(moves, steps[last]):
            yield from extend(chain + [step], path + (move,))

    return extend([mirror_matching(d)], ())


def _black_product_target(d: int, chain: list[Perm], e_white: Perm) -> tuple[Perm, Perm]:
    """Black part (whites fixed) that the product of the ``x`` generators
    must have, as pinned by the white skeleton and the seam relation, and
    the closing permutation ``e`` of every completion that meets it:
    ``e_white``, the inverse of the skeleton's white product, on the
    whites, the seam on the blacks.  Of the chain it reads only the first
    and last reflections."""
    n = 2 * d
    c1, clast = chain[0], chain[-1]
    e_images = list(e_white)
    for b in blacks(d):
        e_images[b] = c1[e_white[clast[b]]]
    e = tuple(e_images)
    target = inverse(e)
    return tuple(target[a] if a >= d else a for a in range(n)), e


def _beta_candidates(
    d: int, t: int, black_target: Perm, components: list[tuple[int, ...]], involutions: list[Perm]
) -> Iterable[tuple[Perm, ...]]:
    """Black actions to try for the ``x`` generators (``t >= 1``) of one
    skeleton: tuples of black involutions whose product is ``black_target``
    (``involutions`` is ``_black_involutions(d)``, built once per cell).

    With the skeleton's white transpositions and its chain, each candidate
    is valid and generic data by construction:

    * ``x`` is an involution: a white transposition times a black
      involution (identities, ``_two_involutions``, ``_black_involutions``,
      path swaps, a ``last`` factor that passed ``is_involution``; the
      forced factor of a connected ``t = 1`` skeleton only when it is one);
    * ``c`` and the corner elements are involutions, since every chain
      ``_chains`` builds is made of matchings and a corner element is a
      move times its mirror;
    * the word holds because the ``x`` product is the white product times
      the black target, the inverse of the ``e`` that
      ``_black_product_target`` returns;
    * the seam holds because the black product is the target of
      ``_black_product_target``;
    * genericity holds through ``_white_transpositions``, ``_corner_moves``
      and the matchings of ``_chains``;
    * transitivity holds for a connected skeleton (``c[1]`` joins each
      black to a white) and for ``t >= 4``, where two free involutions
      wire the black mates of all components into a path.  Disconnected
      skeletons yield nothing for ``t = 1`` and every completion for
      ``t in (2, 3)`` (the last factor is forced); the caller checks
      which of those bridges the components.
    """
    n = 2 * d
    if len(components) == 1:
        if t >= 2:
            first, second = _two_involutions(black_target)
            yield tuple([identity(n)] * (t - 2) + [first, second])
        elif is_involution(black_target):
            yield (black_target,)
    elif t in (2, 3):
        for gammas in product(involutions, repeat=t - 1):
            last = black_target
            for gamma in gammas:
                last = compose(gamma, last)
            if is_involution(last):
                yield gammas + (last,)
    elif t >= 4:
        mates = [d + comp[0] for comp in components]
        path = list(zip(mates, mates[1:]))
        gamma1, gamma2 = from_cycles(n, path[0::2]), from_cycles(n, path[1::2])
        first, second = _two_involutions(compose(gamma2, compose(gamma1, black_target)))
        yield tuple([gamma1, gamma2] + [identity(n)] * (t - 4) + [first, second])


def _complete_skeleton(
    d: int,
    chain: list[Perm],
    skeleton: tuple[tuple[Perm, ...], Perm, _Mark],
    components: list[tuple[int, ...]],
    completions: dict,
    involutions: list[Perm],
) -> MonodromyRep | None:
    """Build one valid representation from a white ``skeleton`` (its white
    ``x`` halves, the inverse of their product, its mark), carrying the
    mark, or ``None`` when no valid completion exists.  Only the
    transitivity of a disconnected skeleton is checked (see
    ``_beta_candidates``); with ``t = 0`` the seam needs the last
    reflection to equal the first, and ``e`` is the identity.

    ``completions``, a table of the enumeration call, keeps a connected
    skeleton's ``(x, e)`` or ``None`` on the skeleton and the last
    reflection.  That is exact: ``_black_product_target`` reads only the
    chain's ends, the first always standard, and ``_beta_candidates``
    reads of one component only that there is one.  A disconnected
    skeleton's transitivity check reads the whole chain, so it is not kept."""
    white_xs, e_white, mark = skeleton
    t = len(white_xs)
    if t == 0:
        if chain[-1] != chain[0] or len(components) > 1:
            return None
        return _generic_trusted(d, (), tuple(chain), identity(2 * d), mark)
    connected = len(components) == 1
    key = (white_xs, chain[-1])
    if connected and key in completions:
        found = completions[key]
    else:
        found = None
        black_target, e = _black_product_target(d, chain, e_white)
        for betas in _beta_candidates(d, t, black_target, components, involutions):
            xs = tuple(compose(w, beta) for w, beta in zip(white_xs, betas))
            if connected or len(_orbits(xs + tuple(chain), 2 * d, range(2 * d))) == 1:
                found = xs, e
                break
        if connected:
            completions[key] = found
    if found is None:
        return None
    return _generic_trusted(d, found[0], tuple(chain), found[1], mark)


@dataclass
class MonodromyClass:
    """One equivalence class from the enumeration: its members in
    enumeration order, their number, and its first member as the
    representative."""

    representative: MonodromyRep
    size: int
    members: tuple[MonodromyRep, ...]


@dataclass
class EnumerationResult:
    degree: int
    cone_points: int
    corner_points: int
    dedup: str
    classes: tuple[MonodromyClass, ...]
    raw_count: int

    @property
    def class_count(self) -> int:
        return len(self.classes)


def enumerate_monodromies(
    d: int,
    t: int,
    s: int,
    dedup: str = "none",
) -> EnumerationResult:
    """All valid generic representations at ``(d, t, s)``, up to sheet
    relabeling.

    The first reflection is fixed to the standard matching (every
    representation can be relabeled into that form) and the black
    actions of the ``x`` generators receive one representative
    completion per white skeleton: canonical when the skeleton already
    connects the sheets, otherwise a bridging completion found by an
    exact search.  A skeleton is emitted if and only if it extends to a
    valid generic representation.  The extracted park does not depend on
    the completion choice (the ``jequiv`` classes do), which
    ``test_every_valid_completion_has_the_enumerated_outcome`` in
    ``tests/test_extraction.py`` checks for every ``d <= 3`` cell with
    ``t <= 3`` and ``t + s <= 5``.  ``dedup`` is ``none``/``raw``,
    ``j_equivalence``/``jequiv``, or ``park_isomorphism``/``park``.

    Nothing here is validated, down to the records: ``x``, ``c`` and the
    corner elements are generic involutions by how ``_chains`` and
    ``_beta_candidates`` make them, the word and the seam because ``e`` and
    the black target both come from ``_black_product_target``, and
    transitivity for connected skeletons and ``t >= 4`` bridging;
    ``_complete_skeleton`` checks it for the rest and builds each
    representation through ``monodromy._generic_trusted``, unchecked and
    marked valid and generic.  Every representation of one white skeleton
    carries the same mark, whose memo of the skeleton's faces and
    entrances the first extraction fills and the others read.  Orbits and
    cycles come from the unchecked ``permgroup`` cores.  The chains grow
    depth first from shared prefixes and are yielded one at a time, so
    memory holds the representations, not the chains.  Three tables live
    for the call only, each keyed on all that its computation reads:
    ``_chains``' steps, on the last reflection and the move (so corner
    ``k`` acts on the whites as move ``k``, read from the move sequence);
    each skeleton's inverse white product, which ``_black_product_target``
    reads; and ``_complete_skeleton``'s connected completions, on the
    skeleton and the last reflection.

    The classes come from one pipeline over the sorted representations,
    each level grouping the groups of the one below, and a class's
    representative is its first member.  ``raw`` makes one class per
    representation.  ``jequiv`` groups them by canonical key, taken in one
    batch through the unvalidated ``_canonical_keys`` (see
    ``_key_groups``), the classes in the order of their ``canonical_form``
    strings.  ``park`` joins, in first-seen order, the ``jequiv`` classes
    whose first members' parks are isomorphic (see
    ``_isomorphism_groups``); the parks come from ``monodromy_to_park``,
    which checks nothing on a marked representation, and the merge indexes
    them without running a park rule.
    """
    mode = _DEDUP_ALIASES.get(dedup)
    if mode is None:
        raise ValueError(f"unknown dedup mode {dedup!r}")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (d, t, s)):
        raise ValueError(f"parameters must be integers, got {(d, t, s)!r}")
    if d < 1 or t < 0 or s < 0:
        raise ValueError("parameters must satisfy d >= 1, t >= 0, s >= 0")
    if 2 * d > MAX_GROUND or t + s > MAX_CRITICAL:
        raise ResourceLimitError(
            f"enumeration bounds exceeded: need 2d <= {MAX_GROUND} and "
            f"t + s <= {MAX_CRITICAL}"
        )
    # Exact before anything is built: every move extends every chain.
    total_candidates = len(_corner_moves(d)) ** s * comb(d, 2) ** t
    if total_candidates > DEFAULT_BUDGET:
        raise ResourceLimitError(
            f"candidate space {total_candidates} exceeds budget {DEFAULT_BUDGET}"
        )
    n = 2 * d
    skeletons = [
        (white_xs, inverse(compose_all(list(white_xs), n)), _Mark())
        for white_xs in product(_white_transpositions(d), repeat=t)
    ]
    completions: dict = {}
    involutions = _black_involutions(d)
    white = whites(d)

    reps = []
    for chain, moves in _chains(d, s):
        if t == 0 and chain[-1] != chain[0]:
            continue  # the seam fails, whatever the components
        for skeleton in skeletons:
            components = _orbits(skeleton[0] + moves, n, white)
            m = _complete_skeleton(d, chain, skeleton, components, completions, involutions)
            if m is not None:
                reps.append(m)

    reps.sort(key=lambda m: (m.x, m.c, m.e))
    groups: Iterable[Sequence[MonodromyRep]] = ((m,) for m in reps)
    if mode != "none":
        groups = _key_groups(reps)
    if mode == "park_isomorphism":
        groups = (
            [m for group in bucket for m in group]
            for bucket in _isomorphism_groups((g, _park_or_none(g[0])) for g in groups)
        )
    classes = tuple(
        MonodromyClass(representative=members[0], size=len(members), members=tuple(members))
        for members in groups
    )
    return EnumerationResult(d, t, s, mode, classes, len(reps))
