"""Building a park from a validated monodromy representation.

Every park ingredient is read off the permutation data:

* **faces** -- white faces are the cycles of the closing permutation
  ``e`` on the white half; black faces are their mirror images under the
  first reflection, i.e. the cycles of ``c_1 e c_1`` on the black half;
* **entrances** -- orbits of the white actions of the ``x`` generators,
  with the genus Riemann-Hurwitz gives them; **exits** are their images
  under the first reflection (the orbits of the reflected generators
  ``c_1 x_i c_1`` on the black half), so each exit is built from its
  entrance: the mirrored orbit, the same genus, the mirrored faces;
* **gardens** -- orbits of the group generated by ``e`` and all
  reflections ``c_i``, carrying the fine structure: vertices (size-four
  corner orbits), edges (maximal chains of reflection-arc lifts, read off
  a boundary walk of the white side, which the black side sweeps
  reversed) and integer edge lengths;
* **involution** -- the mirror pairing under ``c_1``: each entrance with
  the exit carrying its reflected orbit, each white face with its
  reflected black face, and the identity on edges, vertices and gardens.
  Every garden therefore has a fixed edge and is ``orientable``, with no
  partner, and no vertex names a pair; the other garden kinds occur only
  in hand-authored parks.

``monodromy_to_park`` rejects before it builds.  Riemann-Hurwitz on each
entrance fixes the Euler characteristic of the closed surface from the
counts alone, ``2d - 2t - s - D`` with ``D`` the corners whose element
moves four whites (see :func:`_euler_characteristic`), so data that
closes to no surface, or to one of another genus than the critical-value
count forces, raises :class:`NonRealizableError` before any cell is
built.  Realizable data is then built in one pass, :func:`_build_park`,
which numbers each cell once and makes the park records directly.  Cells
are plain tuples and list indices: a face is an ``e``-cycle named by its
index, a vertex a corner and a white element, an edge a run of the walk
named by its least arc lift.  What depends only on the white skeleton --
the white halves of the ``x`` generators, with ``c_1`` standard -- is
built once per skeleton by :func:`_skeleton` and kept on the
representation's validity mark: the face cycles, the mirror of each,
the entrance genera, the entrance of each face, the exits in mirrored
orbit order, and the node and alley records these fix.

``monodromy_to_park`` is the one public entry point, and the only path
from a representation to its cells.  It validates its input through
``monodromy.require_generic``, which checks each representation once:
the ones enumeration builds arrive marked valid and generic, and any
other is marked the first time it passes.  Past that gate nothing is
re-checked: the stages use the unchecked ``permgroup`` cores, the park
records are made through ``errors._trusted``, and the park returned
is not checked.  What valid generic input and the construction imply is
pinned by the tests instead: ``c_1`` carries each white face onto one
black face; each white face lies inside one entrance orbit, and the
entrances' branch counts sum to ``t``; corner orbits have size 2 or 4,
and segments number twice the vertices; the seam relation holds at every
element; the walk's runs end on vertices, cross arc 1 and arc ``s + 1``
equally often and hold each arc lift once; the black side of the walk
sweeps the white side's edges; no cell straddles two gardens; and the
park passes ``validate_park``, equals its JSON round trip and has the
Euler characteristic of :func:`_euler_characteristic`, realized or not.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .errors import NonRealizableError, _trusted
from .monodromy import MonodromyRep, genus_from_counts, require_generic
from .park import (
    Alley,
    Face,
    Garden,
    GardenEdge,
    GardenVertex,
    Involution,
    Park,
    ParkNode,
    _genus_of_characteristic,
)
from .permgroup import _cycles, _orbits


class _Skeleton(NamedTuple):
    """What the park of a representation takes from its white skeleton.

    ``faces`` are the white faces, the cycles of ``e`` on the whites in
    order of their least element; ``mirror[i]`` is the index, among the
    black faces in the same order, of the ``c_1``-image of white face
    ``i``.  ``genera`` are the entrance genera in orbit order,
    ``node_of_face[i]`` is the entrance of white face ``i``, and
    ``exits`` lists the entrances in the order of their mirrored orbits,
    the exits' order.  ``nodes`` and ``alleys`` are the park's records,
    which these fix; being immutable, every park of the skeleton shares
    them.
    """

    faces: list[tuple[int, ...]]
    mirror: list[int]
    genera: list[int]
    node_of_face: list[int]
    exits: list[int]
    nodes: tuple[ParkNode, ...]
    alleys: tuple[Alley, ...]


def _skeleton(m: MonodromyRep) -> _Skeleton:
    """The :class:`_Skeleton` of a valid generic ``m``."""
    d = m.degree
    c1 = m.c[0]
    faces = _cycles(m.e, range(d), True)
    # c_1 is a matching, so it carries each cycle of e on the whites onto a
    # cycle of c_1 e c_1 on the blacks, which are ordered by least element.
    least = [min(c1[a] for a in face) for face in faces]
    white_of = sorted(range(len(faces)), key=least.__getitem__)
    mirror = [0] * len(faces)
    for j, i in enumerate(white_of):
        mirror[i] = j
    # e is the inverse of the x word, so each white face lies inside one
    # x-orbit; each x moves one white pair, which lies in one orbit.
    orbits = _orbits(m.x, m.ground_size, range(d))
    orbit_of = [0] * d
    for k, orbit in enumerate(orbits):
        for a in orbit:
            orbit_of[a] = k
    node_of_face = [orbit_of[face[0]] for face in faces]
    # The orbit's b transpositions act transitively on its n whites, and
    # their product has its f faces as cycles, so by Riemann-Hurwitz
    # b + 2 - f - n is twice a genus: even and non-negative.
    twice = [2 - len(orbit) for orbit in orbits]
    for x in m.x:
        twice[orbit_of[next(a for a in range(d) if x[a] != a)]] += 1
    for k in node_of_face:
        twice[k] -= 1
    genera = [value // 2 for value in twice]
    # Disjoint orbits order as their least elements do.
    exits = sorted(range(len(orbits)), key=lambda k: min(c1[a] for a in orbits[k]))
    entrances = len(orbits)
    exit_id = [0] * entrances
    for pos, k in enumerate(exits, start=entrances + 1):
        exit_id[k] = pos
    nodes = tuple(
        _trusted(ParkNode, id=k, role="entrance", genus=genus)
        for k, genus in enumerate(genera, start=1)
    ) + tuple(
        _trusted(ParkNode, id=pos, role="exit", genus=genera[k])
        for pos, k in enumerate(exits, start=entrances + 1)
    )
    # Faces are numbered white then black, one alley each, so alley ids
    # follow; a black face's node is the exit of its white mirror's entrance.
    node_ids = [k + 1 for k in node_of_face] + [exit_id[node_of_face[i]] for i in white_of]
    alleys = tuple(
        _trusted(Alley, id=f, face_id=f, node_id=node)
        for f, node in enumerate(node_ids, start=1)
    )
    return _Skeleton(faces, mirror, genera, node_of_face, exits, nodes, alleys)


def _build_park(m: MonodromyRep) -> Park:
    """The park of a valid generic ``m``, whether or not it is realizable,
    built in one pass with each id assigned once; nothing is checked.

    The skeleton's part comes from the memo on ``m``'s validity mark,
    which the first build of the white skeleton fills.  Ids count from 1:
    white then black faces, each in least-element order; edges by least
    arc lift; vertices by corner, then least element; entrances in orbit
    order, then exits in mirrored orbit order.  A white face's boundary
    is its chains in walk order, a black face's the reversed, negated
    boundary of the white face it mirrors, each rotated to its least
    form.  The involution pairs each white face with its mirror and each
    entrance with its exit, and fixes every edge, vertex and garden, so
    every garden is orientable.
    """
    mark = m._mark
    if mark.cells is None:
        mark.cells = _skeleton(m)
    faces, mirror, _, _, exits, nodes, alleys = mark.cells
    d, s, c = m.degree, m.corner_points, m.c

    # Vertices, as (corner, least element): c_k c_{k+1} is a generic
    # corner move, so the orbits of the two matchings have size 2 or 4, and
    # a size-four orbit holds two whites a and c_k c_{k+1} a.  Walking
    # corners, then whites, upwards meets the vertices in id order; each
    # white lists the arcs at which the walk through it crosses a vertex,
    # in arc order, with the vertex id.
    vertices: list[tuple[int, int]] = []
    crossings: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for k in range(1, s + 1):
        ck, nxt = c[k - 1], c[k]
        for a in range(d):
            if ck[a] != nxt[a]:
                b = ck[nxt[a]]
                if a < b:
                    vertices.append((k, a))
                    crossings[a].append((k - 1, len(vertices)))
                    crossings[b].append((k - 1, len(vertices)))

    # The walk crosses arcs 1..s+1 at each element, then steps by e, so
    # each white face is one walk cycle; position p of a face's walk is
    # arc p % (s + 1) + 1 at its element p // (s + 1).  The walk breaks
    # just past each vertex crossing, and its runs in walk order are the
    # face's chains: its boundary.  The black side sweeps the same edges
    # the other way, so the white side alone gives them.  A chain is
    # (least lift, length, ends, face): its least lift is the least
    # (arc - 1, white) it crosses, which orders the edge ids; its length
    # is its least count over arcs 1..s.
    step = s + 1
    chains: list[tuple[tuple[int, int], int, tuple[int, int] | None, int]] = []
    runs: list[list[int]] = []
    for i, face in enumerate(faces):
        breaks = [
            (idx * step + arc, vid)
            for idx, a in enumerate(face)
            for arc, vid in crossings[a]
        ]
        walked = []
        if not breaks:
            # A closed chain crosses every arc at every element of its face.
            walked.append(len(chains))
            chains.append(((0, face[0]), len(face), None, i))
        size = len(face) * step
        doubled = face + face
        for (p, start), (q, end) in zip(breaks, breaks[1:] + breaks[:1]):
            # The run holds positions p+1 .. p+r and starts at an arc in
            # 2..s+1, so it crosses each arc r // (s + 1) times, one more
            # for some but never for all of arcs 1..s.  Its least lift is
            # at arc 1 on the least element it reaches there, or at its
            # first position if it reaches none.
            r = (q - p) % size or size
            first, last = p // step + 1, (p + r) // step
            if last >= first:
                least = (0, min(doubled[first : last + 1]))
            else:
                least = (p % step + 1, face[p // step])
            walked.append(len(chains))
            chains.append((least, r // step, (start, end), i))
        runs.append(walked)
    # Least lifts are distinct, so the chains order as their least lifts do.
    edge_ids = [0] * len(chains)
    order = sorted(range(len(chains)), key=chains.__getitem__)
    for eid, x in enumerate(order, start=1):
        edge_ids[x] = eid

    # Gardens: every orbit of <e, c> holds a white, since each c swaps the
    # colors, so starting at the whites numbers them by least element.
    components = _orbits([m.e, *c], 2 * d, range(d))
    garden_of = [0] * (2 * d)
    for g, orbit in enumerate(components):
        for a in orbit:
            garden_of[a] = g
    members: list[tuple[list, list, list]] = [([], [], []) for _ in components]
    white_count = len(faces)
    black_faces: list = [None] * white_count
    for i, face in enumerate(faces):
        ids = [edge_ids[x] for x in runs[i]]
        # Each chain lies on one face once, so a boundary's entries are
        # distinct and its least rotation starts at its least entry.
        low = ids.index(min(ids))
        boundary = tuple(ids[low:] + ids[:low])
        mirrored = [-eid for eid in reversed(ids)]
        low = mirrored.index(min(mirrored))
        g = garden_of[face[0]]
        members[g][0].append(
            _trusted(Face, id=i + 1, color="white", degree=len(face), boundary=boundary)
        )
        j = mirror[i]
        black_faces[j] = g, _trusted(
            Face,
            id=white_count + j + 1,
            color="black",
            degree=len(face),
            boundary=tuple(mirrored[low:] + mirrored[:low]),
        )
    for g, record in black_faces:
        members[g][0].append(record)
    for eid, x in enumerate(order, start=1):
        _, length, ends, i = chains[x]
        members[garden_of[faces[i][0]]][1].append(
            _trusted(
                GardenEdge,
                id=eid,
                length=length,
                kind="loop" if ends is None else "segment",
                ends=ends,
            )
        )
    for vid, (k, a) in enumerate(vertices, start=1):
        members[garden_of[a]][2].append(
            _trusted(GardenVertex, id=vid, corner_label=k, pair_id=None)
        )
    gardens = tuple(
        _trusted(
            Garden,
            id=g,
            kind="orientable",
            faces=tuple(in_faces),
            edges=tuple(in_edges),
            vertices=tuple(in_vertices),
            partner_id=None,
        )
        for g, (in_faces, in_edges, in_vertices) in enumerate(members, start=1)
    )

    node_map: dict[int, int] = {}
    for k, pos in sorted((k, pos) for pos, k in enumerate(exits, start=len(exits) + 1)):
        node_map[k + 1], node_map[pos] = pos, k + 1
    face_map: dict[int, int] = {}
    for i, j in enumerate(mirror):
        a, b = i + 1, white_count + j + 1
        face_map[a], face_map[b] = b, a
    return _trusted(
        Park,
        corner_points=s,
        cone_points=m.cone_points,
        gardens=gardens,
        nodes=nodes,
        alleys=alleys,
        involution=_trusted(
            Involution,
            nodes=MappingProxyType(node_map),
            faces=MappingProxyType(face_map),
            edges=MappingProxyType({eid: eid for eid in range(1, len(chains) + 1)}),
            vertices=MappingProxyType({vid: vid for vid in range(1, len(vertices) + 1)}),
            gardens=MappingProxyType({g: g for g in range(1, len(gardens) + 1)}),
        ),
    )


def _euler_characteristic(m: MonodromyRep) -> int:
    """What :func:`parkscope.park.euler_characteristic` gives on the park
    of a valid generic ``m``, assembled whether or not it is realizable,
    from the counts alone: ``2d - 2t - s - D``, with ``D`` the number of
    corners ``k`` whose element ``m.corner_element(k)`` moves four whites.

    On the park it is vertices minus segment edges, plus ``2 - 2g`` per
    node, minus one boundary circle per face (each face is one alley).
    Segments number twice the vertices, exits mirror entrances, and black
    faces mirror white ones, which leaves twice the entrances' ``2 - 2g``,
    minus the vertices, minus twice the white faces.  An entrance orbit
    of ``n`` whites carries ``b`` of the ``x``, each a white
    transposition, and holds ``f`` white faces, so Riemann-Hurwitz gives
    ``2 - 2g = n + f - b``; over all entrances that sums to ``d + F - t``
    with ``F`` the white faces, and the faces cancel: ``2d - 2t - V``.
    The vertices ``V`` are the size-four orbits of ``<c_k, c_{k+1}>``,
    one per white transposition of the corner element, so ``V = s + D``.
    The critical-value count forces ``2d - 2t - s``, so the built genus
    is the forced genus plus ``D / 2``: ``m`` is realized exactly when
    the count closes and no corner moves four whites.
    """
    d, c = m.degree, m.c
    moved = sum(c[k][c[k + 1][a]] != a for k in range(m.corner_points) for a in range(d))
    return 2 * d - 2 * m.cone_points - moved // 2


def monodromy_to_park(m: MonodromyRep) -> Park:
    """Assemble the full park of a valid, generic monodromy.

    The genus check comes first and needs no cell:
    :func:`_euler_characteristic` gives the Euler characteristic from the
    counts, and branching data that closes to no surface, or to one of
    another genus than the critical-value count forces, raises
    :class:`NonRealizableError` with the figures as attributes.  Only
    realizable data is then extracted and assembled.  A park that is
    returned passes :func:`validate_park`; the tests pin that, so it is
    not re-checked here.
    ``m`` is validated here, and each rep is checked once: a rep that
    enumeration built, or that passed an earlier public gate, is not
    checked again.
    """
    require_generic(m)
    chi = _euler_characteristic(m)
    built_genus = _genus_of_characteristic(chi)
    forced_genus = genus_from_counts(m)
    if built_genus != forced_genus:
        raise NonRealizableError(
            f"the real-locus structure closes to a surface of genus {built_genus}, "
            f"but the critical-value count forces genus {forced_genus}",
            euler_characteristic=chi,
            built_genus=built_genus,
            forced_genus=forced_genus,
        )
    return _build_park(m)
