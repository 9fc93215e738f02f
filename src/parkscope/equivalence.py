"""Equivalence deciders and exhaustive enumeration of monodromies.

* ``park_isomorphic`` searches for a structure-preserving bijection
  between two parks: colors, roles, kinds, degrees, lengths and genus
  weights are preserved, corner labels match up to a cyclic rotation
  (optionally a reflection), fine boundaries correspond, and the map
  commutes with both park involutions.  It runs the park-morphism
  search ``_park_morphism`` once per rotation.
* ``find_park_involution`` recovers an involution for a park given
  without one (hand-authored parks): the same search from the park to
  itself with colors swapped, under the garden-kind rule of
  ``validate_park``.  Every park-vs-park comparison is this one search.
* ``monodromy_equivalent`` decides a sufficient condition for
  topological equivalence of two monodromies: a color-preserving sheet
  relabeling that matches the orbit systems of the ``x`` generators and
  conjugates ``e`` and every reflection ``c_i`` of one representation
  onto the other.
* ``canonical_form`` keys a relabeling-equivalence class by its least
  serialization, taken one component at a time over relabelings that tie.
  The key engine works on a batch: the relabelings are built once per
  distinct ``c[1]``, the orbit-system and ``e`` stages run once per
  distinct ``(c[1], x, e)``, and each representation runs only the last
  stage (all ``c``) over the relabelings that tie.
* ``enumerate_monodromies`` generates all valid generic representations
  for small parameters, up to color-preserving relabeling of sheets, and
  deduplicates at three levels: raw, relabeling-equivalence classes, or
  park-isomorphism classes.
* ``classify`` partitions an explicit list of representations by
  coarse invariants refined by park isomorphism.

The enumeration fixes the first reflection to the standard color
matching (every representation can be relabeled into this form) and
builds the remaining reflections by composing corner moves, depth first
from shared prefixes; the black
actions of the ``x`` generators, which never influence the extracted
park, are filled with one representative completion per white skeleton
(with a bridging search when needed for transitivity).  Enumeration
validates nothing, because it builds valid generic data: each defining
relation holds by how the chain and the completions are made, and only
the transitivity of a disconnected skeleton is checked; the
representations it builds are marked valid and generic, one mark per
white skeleton, which carries the skeleton's faces and entrances once
extraction has built them.  Input is
validated at the public entry points, once per representation (see
``monodromy._generic_reports``): enumeration and ``classify`` extract
through the public ``monodromy_to_park``, which sees their marks and
checks nothing again, and key and merge through the unvalidated cores
``_canonical_keys`` and ``_index_isomorphism``.
Enumeration and ``classify`` merge parks through one helper,
``_isomorphism_groups``, which searches a park only against earlier parks
of equal ``_merge_signature``: an invariant of park isomorphism built from
the corner labels (least over the global rotations), the labels at the
ends of each edge, each face boundary up to rotation and each node's
faces with their gardens.  The search still decides every merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from math import comb
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import NonRealizableError, ResourceLimitError
from .extraction import monodromy_to_park
from .monodromy import MonodromyRep, _generic_reports, _generic_trusted, _Mark
from .park import (
    FACE_COLORS,
    Garden,
    Involution,
    Park,
    _garden_kind_violation,
    _least_rotation,
    _ParkIndex,
    _validated_index,
    opposite_color,
    rotations_equal,
    type_summary,
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
    is_transitive,
    mirror_matching,
    orbits,
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


#: Cell types in the order the morphism search binds them.
_CELL_TYPES = ("nodes", "faces", "gardens", "vertices", "edges")

#: One id map per cell type.
_CellMaps = dict[str, dict[int, int]]


def _park_morphism(
    src: _ParkIndex,
    dst: _ParkIndex,
    *,
    swap: bool,
    label: Callable[[int], int],
    reverse: bool,
    twin: Callable[[str, int, int], tuple[int, int]],
    required: Mapping[str, Mapping[int, int]],
    accept: Callable[[_CellMaps], bool] | None = None,
) -> _CellMaps | None:
    """The first structure-preserving cell map ``src -> dst``, or ``None``.

    Roles and colors are kept, or swapped when ``swap`` is set; genus
    signatures, degrees, edge kinds and lengths and garden kinds are kept;
    corner labels are sent through ``label``.  Every binding ``a -> b`` of
    one cell type is made together with its twin ``twin(type, a, b)``, and
    a cell listed in ``required`` may only go to its listed image.  Face
    boundaries must correspond up to rotation, read reversed and negated
    when ``reverse`` is set, and the complete maps must pass ``accept``.

    The search order is fixed: entrances by id against target nodes by
    id; white faces by id against the faces of their node's image, in
    alley order, binding the faces' gardens on the way; gardens left
    unbound by id against gardens by id; then, garden pair by garden
    pair, vertices and edges by id against cells of the image garden.
    """
    if any(len(getattr(src, t)) != len(getattr(dst, t)) for t in _CELL_TYPES):
        return None
    recolor = {c: opposite_color(c) if swap else c for c in FACE_COLORS}
    target_role = "exit" if swap else "entrance"
    entrances = sorted(n for n, node in src.nodes.items() if node.role == "entrance")
    targets = sorted(n for n, node in dst.nodes.items() if node.role == target_role)
    if len(entrances) != len(targets):
        return None
    white_faces = sorted(f for f, face in src.faces.items() if face.color == "white")
    maps: _CellMaps = {t: {} for t in _CELL_TYPES}
    images: dict[str, set[int]] = {t: set() for t in _CELL_TYPES}
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

    def garden_key(garden: Garden, mapped: bool) -> tuple:
        colors = recolor if mapped else {c: c for c in FACE_COLORS}
        corners = (v.corner_label for v in garden.vertices)
        return (
            garden.kind,
            sorted((colors[f.color], f.degree) for f in garden.faces),
            sorted((e.kind, e.length) for e in garden.edges),
            sorted(map(label, corners) if mapped else corners),
        )

    src_keys: dict[int, tuple] = {}
    dst_keys: dict[int, tuple] = {}

    def gardens_fit(a: int, b: int) -> bool:
        if a not in src_keys:
            src_keys[a] = garden_key(src.gardens[a], True)
        if b not in dst_keys:
            dst_keys[b] = garden_key(dst.gardens[b], False)
        return src_keys[a] == dst_keys[b]

    def bind_garden(a: int, b: int) -> bool:
        fits = a in maps["gardens"] or gardens_fit(a, b)
        return fits and bind_twins("gardens", a, b)

    def solve_nodes(i: int) -> _CellMaps | None:
        if i == len(entrances):
            return solve_faces(0)
        a = entrances[i]
        mark = len(trail)
        for b in targets:
            if b in images["nodes"] or src.signatures[a] != dst.signatures[b]:
                continue
            if bind_twins("nodes", a, b):
                result = solve_nodes(i + 1)
                if result is not None:
                    return result
            undo(mark)
        return None

    def solve_faces(i: int) -> _CellMaps | None:
        if i == len(white_faces):
            return solve_gardens()
        f = white_faces[i]
        face = src.faces[f]
        color = recolor[face.color]
        mark = len(trail)
        for b in dst.faces_of_node[maps["nodes"][src.node_of_face[f]]]:
            if b in images["faces"]:
                continue
            other = dst.faces[b]
            if other.color != color or other.degree != face.degree:
                continue
            if bind_twins("faces", f, b) and bind_garden(
                src.owner_of_face[f], dst.owner_of_face[b]
            ):
                result = solve_faces(i + 1)
                if result is not None:
                    return result
            undo(mark)
        return None

    def solve_gardens() -> _CellMaps | None:
        unbound = [g for g in sorted(src.gardens) if g not in maps["gardens"]]
        if not unbound:
            steps = [
                (cell, x.id, b)
                for a, b in sorted(maps["gardens"].items())
                for cell in ("vertices", "edges")
                for x in sorted(getattr(src.gardens[a], cell), key=lambda x: x.id)
            ]
            return solve_cells(steps, 0)
        a = unbound[0]
        mark = len(trail)
        for b in sorted(dst.gardens):
            if b in images["gardens"] or not gardens_fit(a, b):
                continue
            if bind_twins("gardens", a, b):
                result = solve_gardens()
                if result is not None:
                    return result
            undo(mark)
        return None

    def wanted_shape(cell: str, a: int) -> Any:
        """The corner label, or kind, length and end images, a's image needs."""
        if cell == "vertices":
            return label(src.vertices[a].corner_label)
        edge, ends = src.edges[a], maps["vertices"]
        if edge.ends is None:
            return edge.kind, edge.length, None
        if any(v not in ends for v in edge.ends):
            return None
        return edge.kind, edge.length, sorted(ends[v] for v in edge.ends)

    def shape(cell: str, b: int) -> Any:
        if cell == "vertices":
            return dst.vertices[b].corner_label
        edge = dst.edges[b]
        return edge.kind, edge.length, None if edge.ends is None else sorted(edge.ends)

    dst_cells: dict[tuple[str, int], list[tuple[int, Any]]] = {}

    def solve_cells(steps: list[tuple[str, int, int]], i: int) -> _CellMaps | None:
        if i == len(steps):
            return finish()
        cell, a, garden = steps[i]
        if a in maps[cell]:
            return solve_cells(steps, i + 1)
        want = wanted_shape(cell, a)
        if (cell, garden) not in dst_cells:
            dst_cells[cell, garden] = [
                (b, shape(cell, b))
                for b in sorted(x.id for x in getattr(dst.gardens[garden], cell))
            ]
        mark = len(trail)
        for b, has in dst_cells[cell, garden]:
            if has != want or b in images[cell]:
                continue
            if bind_twins(cell, a, b):
                result = solve_cells(steps, i + 1)
                if result is not None:
                    return result
            undo(mark)
        return None

    def finish() -> _CellMaps | None:
        edges = maps["edges"]
        for f, face in src.faces.items():
            image = dst.faces[maps["faces"][f]]
            if not face.boundary or not image.boundary:
                continue
            mapped = [edges[x] if x > 0 else -edges[-x] for x in face.boundary]
            if reverse:
                mapped = [-x for x in reversed(mapped)]
            if not rotations_equal(mapped, image.boundary):
                return None
        if accept is not None and not accept(maps):
            return None
        return {t: dict(mapping) for t, mapping in maps.items()}

    return solve_nodes(0)


def _rotated_label(label: int, s: int, rotation: int, reflected: bool) -> int:
    if s == 0:
        return label
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
    order, or ``None``.  Both parks must validate.
    """
    return _index_isomorphism(_validated_index(p1), _validated_index(p2), allow_reflection)


def _index_isomorphism(
    src: _ParkIndex, dst: _ParkIndex, allow_reflection: bool = False
) -> ParkIsomorphism | None:
    """:func:`park_isomorphic` on the indexes of parks known to validate,
    which the park merge builds once per park."""
    p1, p2 = src.park, dst.park
    if (p1.corner_points, p1.cone_points) != (p2.corner_points, p2.cone_points):
        return None
    s = p1.corner_points
    inv1, inv2 = p1.involution, p2.involution

    def twin(cell: str, a: int, b: int) -> tuple[int, int]:
        return getattr(inv1, cell)[a], getattr(inv2, cell)[b]

    rotations = range(s) if s > 0 else range(1)
    reflections = (False, True) if allow_reflection else (False,)
    for reflected in reflections:
        for rotation in rotations:
            maps = _park_morphism(
                src,
                dst,
                swap=False,
                label=lambda c: _rotated_label(c, s, rotation, reflected),
                reverse=reflected,
                twin=twin,
                required={},
            )
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

    maps = _park_morphism(
        index,
        index,
        swap=True,
        label=lambda c: c,
        reverse=True,
        twin=lambda cell, a, b: (b, a),
        required=required,
        accept=kinds_hold,
    )
    return None if maps is None else Involution(**maps)


def _merge_signature(index: _ParkIndex) -> tuple:
    """An invariant that parks isomorphic up to a corner rotation share.

    It is the least, over the ``s`` global rotations of the corner labels,
    of the sorted nodes and the sorted gardens, where

    * an edge is its kind, length and the sorted labels at its ends;
    * a face is its color, degree and boundary, the boundary taken as the
      least cyclic rotation of its (edge, sign) entries;
    * a garden is its kind, sorted faces, sorted edges and sorted labels;
    * a node is its role and genus with its attached faces, each together
      with its garden.

    That is what :func:`_index_isomorphism` keeps without a reflection, for
    the fine parks extraction builds, so parks of unequal signature never
    match.  It holds no ids.  ``index`` is the park's ``_ParkIndex``."""
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
                        (faces[f], gardens[index.owner_of_face[f]])
                        for f in index.faces_of_node[n]
                    )
                ),
            )
            for n, node in index.nodes.items()
        )
        return tuple(nodes), tuple(sorted(gardens.values()))

    return min(described(rotation) for rotation in range(s or 1))


def _park_or_none(m: MonodromyRep) -> Park | None:
    """The park of a valid generic ``m``, or ``None`` when it has none."""
    try:
        return monodromy_to_park(m)
    except NonRealizableError:
        return None


def _isomorphism_groups(items: Iterable[tuple[object, Park | None]]) -> list[list]:
    """Group the items whose parks are isomorphic, in first-seen order; an
    item without a park stays alone.  Each park is searched against the
    first park of every earlier group of equal ``_merge_signature`` only,
    so the groups are those of a plain first-match pairwise merge.  Each
    park is indexed once, for its signature and all of its searches."""
    groups: list[list] = []
    by_signature: dict[tuple, list[tuple[list, _ParkIndex]]] = {}
    for item, park in items:
        if park is None:
            groups.append([item])
            continue
        index = _ParkIndex(park)
        same = by_signature.setdefault(_merge_signature(index), [])
        for group, other in same:
            if _index_isomorphism(index, other):
                group.append(item)
                break
        else:
            groups.append([item])
            same.append((groups[-1], index))
    return groups


# ---------------------------------------------------------------------------
# monodromy equivalence (sufficient condition)
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceWitness:
    """A color-preserving relabeling certifying topological equivalence."""

    mapping: Perm


def _require_generic(m: MonodromyRep) -> None:
    relations, genericity = _generic_reports(m)
    if not relations:
        raise ValueError("representation fails relation validation")
    if not genericity:
        raise ValueError("representation is not generic")


def monodromy_equivalent(
    m1: MonodromyRep, m2: MonodromyRep
) -> EquivalenceWitness | None:
    """Sufficient-condition check for topological equivalence.

    Searches color-preserving relabelings ``j`` of the ``2d`` sheet
    halves such that ``j`` maps the orbit system of the first
    representation's ``x`` generators onto the second's, and conjugates
    ``e`` and every reflection ``c_i`` of the first onto the second.
    ``None`` means only that this sufficient condition fails.  Both
    representations must share ``(degree, cone, corner)`` parameters.
    """
    _require_generic(m1)
    _require_generic(m2)
    params = (m1.degree, m1.cone_points, m1.corner_points)
    if params != (m2.degree, m2.cone_points, m2.corner_points):
        raise ValueError("representations have different (degree, cone, corner) parameters")
    n = m1.ground_size
    orbits1 = orbits(list(m1.x), n)
    orbits2 = {orb for orb in orbits(list(m2.x), n)}
    for j in _relabelings(m1.c[0], m2.c[0]):
        jt = tuple(j)
        if conjugate(m1.e, jt) != m2.e:
            continue
        if any(conjugate(ck, jt) != m2.c[k] for k, ck in enumerate(m1.c)):
            continue
        if {tuple(sorted(jt[a] for a in orb)) for orb in orbits1} != orbits2:
            continue
        return EquivalenceWitness(mapping=jt)
    return None


def _relabelings(c_from: Perm, c_to: Perm) -> Iterator[list[int]]:
    """Each white permutation, in ``permutations`` order, extended to the
    blacks so that it conjugates the matching ``c_from`` onto ``c_to``."""
    d = len(c_from) // 2
    for sigma_w in permutations(range(d)):
        j = list(sigma_w) + [0] * d
        for b in blacks(d):
            j[b] = c_to[j[c_from[b]]]
        yield j


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _least(relabelings: list[list[int]], image) -> tuple:
    """The least ``image(j)`` over ``relabelings``, and the ``j`` reaching it."""
    images = [image(j) for j in relabelings]
    best = min(images)
    return best, [j for j, value in zip(relabelings, images) if value == best]


def _canonical_keys(reps: Iterable[MonodromyRep]) -> Iterator[str]:
    """:func:`canonical_form` of each representation, known to be valid, in
    input order: the least ``(orbit system, e, all c)`` image over the
    relabelings making the first reflection standard, taken one component
    at a time over the relabelings that tie so far (tuples compare
    lexicographically).

    The relabelings depend only on ``c[1]`` and the first two stages only
    on ``(c[1], x, e)``, so those are computed once per distinct value and
    each representation runs only the last stage over the relabelings that
    tie.  Keys are yielded one at a time, never held together.
    """
    relabelings: dict[Perm, list[list[int]]] = {}
    heads: dict[tuple, tuple] = {}
    for m in reps:
        c1 = m.c[0]
        head = (c1, m.x, m.e)
        if head not in heads:
            if c1 not in relabelings:
                relabelings[c1] = list(_relabelings(c1, mirror_matching(m.degree)))
            orbs = orbits(list(m.x), m.ground_size)
            orbit_t, tied = _least(
                relabelings[c1],
                lambda j: tuple(sorted(tuple(sorted([j[a] for a in orb])) for orb in orbs)),
            )
            e_t, tied = _least(tied, lambda j: conjugate(m.e, j))
            heads[head] = orbit_t, e_t, tied
        orbit_t, e_t, tied = heads[head]
        c_t, _ = _least(tied, lambda j: tuple(conjugate(ck, j) for ck in m.c))
        yield repr((m.degree, m.cone_points, m.corner_points, orbit_t, e_t, c_t))


def canonical_form(m: MonodromyRep) -> str:
    """Canonical key of the relabeling-equivalence class of ``m``.

    The lexicographically smallest serialization of the class invariants
    (orbit system of the ``x`` generators, ``e``, all reflections) over
    all color-preserving relabelings; equal keys certify equivalence.
    It is taken in stages (orbit system, then ``e``, then reflections) by
    the batch engine that enumeration and ``classify`` use, which shares
    the first two stages among representations with the same
    ``(c[1], x, e)``.  ``m`` is validated here, once: a rep that
    enumeration built, or that passed an earlier public gate, is not
    checked again.
    """
    _require_generic(m)
    return next(_canonical_keys((m,)))


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
    """All involutions supported on the black half, identity included."""
    n = 2 * d
    out: list[Perm] = []

    def extend(images: list[int], free: list[int]) -> None:
        if not free:
            out.append(tuple(images))
            return
        head, rest = free[0], free[1:]
        extend(images, rest)  # head stays fixed
        for other in rest:
            images[head], images[other] = other, head
            extend(images, [x for x in rest if x != other])
            images[head], images[other] = head, other

    extend(list(range(n)), list(blacks(d)))
    out.sort()
    return out


def _chains(d: int, s: int) -> Iterator[list[Perm]]:
    """All reflection chains ``c_1..c_{s+1}`` with standard ``c_1`` and
    generic corner moves: each next reflection is the last one times the
    move and its mirror image.

    Every move extends every chain, so there are
    ``len(_corner_moves(d)) ** s`` chains: with ``c`` the last reflection
    and ``m`` the move (on whites only), the mirror ``m' = c m c`` moves
    blacks only, so ``m`` and ``m'`` commute, and ``c m m' c = m' m``
    makes ``c m m'`` again a color-swapping involution, a matching.

    Chains grow depth first from shared prefixes, trying the moves in
    ``_corner_moves`` order, so they come out in the lexicographic order
    of their move sequences and each prefix is computed once.  They are
    yielded one at a time, so only the current path is held."""
    moves = _corner_moves(d)

    def extend(chain: list[Perm]) -> Iterator[list[Perm]]:
        if len(chain) == s + 1:
            yield chain
            return
        last = chain[-1]
        for move in moves:
            yield from extend(chain + [compose(last, compose(move, conjugate(move, last)))])

    return extend([mirror_matching(d)])


def _black_product_target(
    d: int, chain: list[Perm], white_xs: tuple[Perm, ...]
) -> tuple[Perm, Perm]:
    """Black part (whites fixed) that the product of the ``x`` generators
    must have, as pinned by the white skeleton and the seam relation, and
    the closing permutation ``e`` of every completion that meets it: the
    inverse of the white product on the whites, the seam on the blacks."""
    n = 2 * d
    c1, clast = chain[0], chain[-1]
    e_white = inverse(compose_all(list(white_xs), n))
    e_images = list(e_white)
    for b in blacks(d):
        e_images[b] = c1[e_white[clast[b]]]
    e = tuple(e_images)
    target = inverse(e)
    return tuple(target[a] if a >= d else a for a in range(n)), e


def _beta_candidates(
    d: int, t: int, black_target: Perm, components: list[tuple[int, ...]]
) -> Iterable[tuple[Perm, ...]]:
    """Black actions to try for the ``x`` generators (``t >= 1``) of one
    skeleton: tuples of black involutions whose product is ``black_target``.

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
        for gammas in product(_black_involutions(d), repeat=t - 1):
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
    white_xs: tuple[Perm, ...],
    components: list[tuple[int, ...]],
    mark: _Mark,
) -> MonodromyRep | None:
    """Build one valid representation from a white skeleton, carrying the
    skeleton's ``mark``, or ``None`` when no valid completion exists.  Only
    the transitivity of a disconnected skeleton is checked (see
    ``_beta_candidates``); with ``t = 0`` the seam needs the last
    reflection to equal the first, and ``e`` is the identity."""
    t = len(white_xs)
    if t == 0:
        if chain[-1] != chain[0] or len(components) > 1:
            return None
        return _generic_trusted(d, (), tuple(chain), identity(2 * d), mark)
    black_target, e = _black_product_target(d, chain, white_xs)
    for betas in _beta_candidates(d, t, black_target, components):
        xs = [compose(w, beta) for w, beta in zip(white_xs, betas)]
        if len(components) == 1 or is_transitive(xs + chain, 2 * d):
            return _generic_trusted(d, tuple(xs), tuple(chain), e, mark)
    return None


@dataclass
class MonodromyClass:
    """One equivalence class from the enumeration."""

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


def _rep_sort_key(m: MonodromyRep) -> tuple:
    return (tuple(m.x), tuple(m.c), m.e)


def enumerate_monodromies(
    d: int,
    t: int,
    s: int,
    dedup: str = "none",
    budget: int = DEFAULT_BUDGET,
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
    cycles come from the unchecked ``permgroup`` cores.  ``dedup`` goes
    through the unvalidated ``_canonical_keys`` and
    ``_index_isomorphism``, and through ``monodromy_to_park``, which checks
    nothing on a marked representation.  The chains grow depth first from
    shared prefixes and are yielded one at a time, so memory holds the
    representations, not the chains.  The keys are taken in one batch, once per distinct
    ``(c[1], x, e)`` for the first two stages; the park merge searches each
    class's park only against earlier parks of equal ``_merge_signature``
    (see ``_isomorphism_groups``), so classes keep their first-seen order.
    """
    mode = _DEDUP_ALIASES.get(dedup)
    if mode is None:
        raise ValueError(f"unknown dedup mode {dedup!r}")
    if d < 1 or t < 0 or s < 0:
        raise ValueError("parameters must satisfy d >= 1, t >= 0, s >= 0")
    if 2 * d > MAX_GROUND or t + s > MAX_CRITICAL:
        raise ResourceLimitError(
            f"enumeration bounds exceeded: need 2d <= {MAX_GROUND} and "
            f"t + s <= {MAX_CRITICAL}"
        )
    # Exact before anything is built: every move extends every chain.
    total_candidates = len(_corner_moves(d)) ** s * comb(d, 2) ** t
    if total_candidates > budget:
        raise ResourceLimitError(
            f"candidate space {total_candidates} exceeds budget {budget}"
        )
    white_options = list(product(_white_transpositions(d), repeat=t))
    marks = [_Mark() for _ in white_options]

    reps = []
    for chain in _chains(d, s):
        corner_moves = [compose(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
        for white_xs, mark in zip(white_options, marks):
            components = _orbits(list(white_xs) + corner_moves, 2 * d, whites(d))
            m = _complete_skeleton(d, chain, white_xs, components, mark)
            if m is not None:
                reps.append(m)

    reps.sort(key=_rep_sort_key)
    raw_count = len(reps)

    if mode == "none":
        classes = tuple(
            MonodromyClass(representative=m, size=1, members=(m,)) for m in reps
        )
        return EnumerationResult(d, t, s, mode, classes, raw_count)

    grouped: dict[str, list[MonodromyRep]] = {}
    for m, key in zip(reps, _canonical_keys(reps)):
        grouped.setdefault(key, []).append(m)
    j_classes = [
        MonodromyClass(
            representative=members[0], size=len(members), members=tuple(members)
        )
        for _, members in sorted(grouped.items())
    ]
    if mode == "j_equivalence":
        return EnumerationResult(d, t, s, mode, tuple(j_classes), raw_count)

    # park_isomorphism: merge relabeling classes whose representative
    # parks are isomorphic; unrealizable classes stay separate.
    merged = _isomorphism_groups(
        (cls, _park_or_none(cls.representative)) for cls in j_classes
    )
    classes = []
    for bucket in merged:
        members = tuple(m for cls in bucket for m in cls.members)
        classes.append(
            MonodromyClass(
                representative=bucket[0].representative,
                size=len(members),
                members=members,
            )
        )
    return EnumerationResult(d, t, s, mode, tuple(classes), raw_count)


# ---------------------------------------------------------------------------
# classification tables
# ---------------------------------------------------------------------------


@dataclass
class ClassificationEntry:
    label: str
    member_indices: tuple[int, ...]
    representative_index: int


@dataclass
class ClassificationTable:
    entries: tuple[ClassificationEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "classes": [
                {
                    "label": entry.label,
                    "members": list(entry.member_indices),
                    "representative": entry.representative_index,
                }
                for entry in self.entries
            ]
        }


def _invariant_label(m: MonodromyRep, park: Park | None) -> str:
    if park is None:
        return f"unrealizable d={m.degree} t={m.cone_points} s={m.corner_points}"
    summary = type_summary(park)
    return (
        f"d={summary.degree} g={summary.genus} n={summary.critical_values} "
        f"t={summary.cone_points} s={summary.corner_points} "
        f"nodes={len(summary.node_signatures)} gardens={len(summary.garden_signatures)}"
    )


def classify(reps: Sequence[MonodromyRep]) -> ClassificationTable:
    """Partition representations by coarse park invariants refined by
    park isomorphism; unrealizable ones group by their relabeling class.
    Groups keep first-seen order; the park merge is the one enumeration
    uses (``_isomorphism_groups``)."""
    for m in reps:
        _require_generic(m)
    parks = [_park_or_none(m) for m in reps]
    buckets: dict[str, list[int]] = {}
    for idx, m in enumerate(reps):
        buckets.setdefault(_invariant_label(m, parks[idx]), []).append(idx)
    entries: list[ClassificationEntry] = []
    for label in sorted(buckets):
        indices = buckets[label]
        if all(parks[i] is None for i in indices):
            by_key: dict[str, list[int]] = {}
            for i, key in zip(indices, _canonical_keys(reps[i] for i in indices)):
                by_key.setdefault(key, []).append(i)
            for suffix, (key, group) in enumerate(sorted(by_key.items())):
                entries.append(
                    ClassificationEntry(
                        label=f"{label} #{suffix + 1}",
                        member_indices=tuple(group),
                        representative_index=group[0],
                    )
                )
            continue
        sub = _isomorphism_groups((i, parks[i]) for i in indices)
        for suffix, group in enumerate(sub):
            entries.append(
                ClassificationEntry(
                    label=f"{label} #{suffix + 1}" if len(sub) > 1 else label,
                    member_indices=tuple(group),
                    representative_index=group[0],
                )
            )
    return ClassificationTable(entries=tuple(entries))
