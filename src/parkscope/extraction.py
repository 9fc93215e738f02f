"""Building a park from a validated monodromy representation.

Every park ingredient is read off the permutation data:

* **faces** -- white faces are the cycles of the closing permutation
  ``e`` on the white half; black faces are their mirror images under the
  first reflection, i.e. the cycles of ``c_1 e c_1`` on the black half;
* **entrances** -- orbits of the white actions of the ``x`` generators,
  with their numeric signatures; **exits** are their images under the
  first reflection (the orbits of the reflected generators
  ``c_1 x_i c_1`` on the black half), so each exit is built from its
  entrance: the mirrored orbit, the same signature, the mirrored faces;
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
built.  Realizable data is then extracted in one stage -- faces and
entrances (which depend only on the white skeleton, the white halves of
the ``x`` generators with ``c_1`` standard, so they are built once per
skeleton and kept on the representation's validity mark), vertices,
exits, the boundary walk and the gardens -- and assembled into a park.

``monodromy_to_park`` is the one public entry point, and the only path
from a representation to its cells.  It validates its input through
``monodromy._require_generic``, which checks each representation once:
the ones enumeration builds arrive marked valid and generic, and any
other is marked the first time it passes.  Past that gate nothing is
re-checked: the ``_build_*`` stages use the unchecked ``permgroup``
cores, ``_assemble`` makes the park records through
``monodromy._trusted``, and the park returned is marked valid.
What valid generic input and the construction imply is pinned by the
tests instead: ``c_1`` carries each white face onto one black face; each
white face lies inside one entrance orbit, and the entrances' branch
counts sum to ``t``; corner orbits have size 2 or 4, and segments number
twice the vertices; the seam relation holds at every element; the walk's
runs end on vertices, cross arc 1 and arc ``s + 1`` equally often and
hold each arc lift once; the black side of the walk sweeps the white
side's edges; no cell straddles two gardens; and the park passes
``validate_park``, equals its JSON round trip and has the Euler
characteristic of :func:`_euler_characteristic`, realized or not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import NonRealizableError
from .monodromy import MonodromyRep, _require_generic, _trusted, genus_from_counts
from .park import (
    Alley,
    EntranceSignature,
    Face,
    Garden,
    GardenEdge,
    GardenVertex,
    Involution,
    Park,
    ParkNode,
    _genus_of_characteristic,
    _least_rotation,
)
from .permgroup import _cycles, _orbits, blacks, conjugate, whites

#: An arc lift: (arc index 1..s+1, smaller element, larger element).
Lift = tuple[int, int, int]

#: A walk item: (arc index, flanking ground element).
Item = tuple[int, int]


# ---------------------------------------------------------------------------
# cell records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceCell:
    """A face: one cycle of the closing permutation, in cycle order."""

    color: str
    elements: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.elements)

    @property
    def key(self) -> int:
        return min(self.elements)


@dataclass(frozen=True)
class NodeCell:
    """An entrance or exit: a ground-element orbit plus its signature."""

    role: str
    orbit: tuple[int, ...]
    signature: EntranceSignature


@dataclass(frozen=True)
class VertexCell:
    """A size-four corner orbit: a critical point over a real critical value."""

    corner: int
    elements: tuple[int, ...]

    @property
    def key(self) -> tuple[int, int]:
        return (self.corner, self.elements[0])


@dataclass(frozen=True)
class EdgeChain:
    """An edge of the real-locus preimage as its chain of arc lifts.

    ``lifts`` follow the chain direction of the white-side sweep;
    ``ends`` names the start and end vertex for segments, ``None`` for
    loops.  ``length`` is the minimal lift count over the geometric arcs.
    """

    lifts: tuple[Lift, ...]
    kind: str
    length: int
    ends: tuple[tuple[int, int], tuple[int, int]] | None

    @property
    def key(self) -> Lift:
        return min(self.lifts)


@dataclass(frozen=True)
class GardenCell:
    """One garden component with its faces, edges and vertices."""

    faces: tuple[FaceCell, ...]
    edges: tuple[EdgeChain, ...]
    vertices: tuple[VertexCell, ...]


# ---------------------------------------------------------------------------
# the cells of the white skeleton
# ---------------------------------------------------------------------------


def _skeleton_cells(m: MonodromyRep) -> tuple:
    """The cells that depend only on the white skeleton of ``m``:
    white faces, black faces, ``mirror_cell``, entrances and
    ``entrance_of_cell``."""
    d = m.degree
    c1 = m.c[0]
    white = whites(d)
    white_cells = [FaceCell("white", cyc) for cyc in _cycles(m.e, white, True)]
    black_cells = [FaceCell("black", cyc) for cyc in _cycles(conjugate(m.e, c1), blacks(d), True)]
    # c_1 is a matching, so it carries each cycle of e on the whites onto a
    # cycle of c_1 e c_1 on the blacks: each black face is the reflected
    # image of exactly one white face.
    black_cell_of = {a: cell for cell in black_cells for a in cell.elements}
    mirror_cell = {cell: black_cell_of[c1[cell.elements[0]]] for cell in white_cells}
    # e is the inverse of the x word, so each white face lies inside one
    # x-orbit; each x moves one white pair, which lies in one orbit, so the
    # orbits' branch counts sum to t.
    node_orbits = _orbits(m.x, m.ground_size, white)
    orbit_of = {a: k for k, orbit in enumerate(node_orbits) for a in orbit}
    branches = Counter(orbit_of[next(a for a in white if x[a] != a)] for x in m.x)
    inside: list[list[FaceCell]] = [[] for _ in node_orbits]
    for cell in white_cells:
        inside[orbit_of[cell.key]].append(cell)
    entrances: list[NodeCell] = []
    entrance_of_cell: dict[FaceCell, NodeCell] = {}
    for k, orbit in enumerate(node_orbits):
        # The orbit's b transpositions act transitively on its sum(degrees)
        # whites, and their product has its f = len(degrees) faces as
        # cycles, so by Riemann-Hurwitz b + 2 - f - sum(degrees) is twice
        # a genus: even and non-negative.
        degrees = [cell.degree for cell in inside[k]]
        numerator = branches[k] + 2 - len(degrees) - sum(degrees)
        node = NodeCell("entrance", orbit, EntranceSignature.compute(numerator // 2, degrees))
        entrances.append(node)
        for cell in inside[k]:
            entrance_of_cell[cell] = node
    return white_cells, black_cells, mirror_cell, entrances, entrance_of_cell


# ---------------------------------------------------------------------------
# the extraction engine
# ---------------------------------------------------------------------------


class _Extraction:
    """The park ingredients of a monodromy known to be valid and generic.

    Faces and entrances come from the memo on ``m``'s validity mark,
    which the first extraction of the white skeleton fills through
    :func:`_skeleton_cells`; the corner vertices, exits, boundary walk
    with its edges, and gardens are built here, per representation.  The
    memo is shared with the other representations of the skeleton, so
    nothing here mutates its lists and dicts.
    """

    def __init__(self, m: MonodromyRep):
        self.m = m
        self.d = m.degree
        self.n = m.ground_size
        self.s = m.corner_points
        self.t = m.cone_points
        self.e = m.e
        self.c = list(m.c)
        mark = m._mark
        if mark.cells is None:
            mark.cells = _skeleton_cells(m)
        (
            self.white_cells,
            self.black_cells,
            self.mirror_cell,
            self.entrances,
            self.entrance_of_cell,
        ) = mark.cells
        self._build_corners()
        self._build_exits()
        self._build_walk()
        self._build_gardens()

    # -- exits ---------------------------------------------------------------

    def _build_exits(self) -> None:
        # The reflection c_1 conjugates each x into its reflected action,
        # so the exits are the entrances carried over by c_1: the mirrored
        # orbit, the same signature and the mirror images of its faces.
        c1 = self.c[0]
        self.exit_paired_with: dict[NodeCell, NodeCell] = {
            node: NodeCell("exit", tuple(sorted(c1[a] for a in node.orbit)), node.signature)
            for node in self.entrances
        }
        self.exit_of_cell: dict[FaceCell, NodeCell] = {
            self.mirror_cell[cell]: self.exit_paired_with[node]
            for cell, node in self.entrance_of_cell.items()
        }
        self.exit_nodes = sorted(self.exit_paired_with.values(), key=lambda nd: nd.orbit)

    # -- corners and vertices ----------------------------------------------

    def _build_corners(self) -> None:
        self.vertex_elements: dict[int, dict[int, VertexCell]] = {}
        self.vertices: list[VertexCell] = []
        # c_{k-1} c_k is a generic corner move, so the orbits of the two
        # matchings have size 2 or 4; the size-four ones are the vertices.
        for k in range(1, self.s + 1):
            table: dict[int, VertexCell] = {}
            for orbit in _orbits([self.c[k - 1], self.c[k]], self.n, range(self.n)):
                if len(orbit) == 4:
                    vertex = VertexCell(k, orbit)
                    self.vertices.append(vertex)
                    for a in orbit:
                        table[a] = vertex
            self.vertex_elements[k] = table
        self.vertices.sort(key=lambda v: v.key)

    # -- the boundary walk, runs, edges and face boundaries -----------------

    def _build_walk(self) -> None:
        s = self.s
        # The walk crosses arcs 1..s+1 at each element, then steps by e, so
        # each white face is one walk cycle, and its runs in walk order are
        # its chains: its boundary.  The black side sweeps the same edges
        # the other way, so the white side alone gives them.
        chains: list[EdgeChain] = []
        self.face_chains: dict[FaceCell, list[EdgeChain]] = {}
        for cell in self.white_cells:
            cycle = [(i, a) for a in cell.elements for i in range(1, s + 2)]
            runs, is_loop = self._split_runs(cycle)
            for run in runs:
                # A white element is the smaller end of its lift.
                lifts = tuple((i, a, self.c[i - 1][a]) for i, a in run)
                if is_loop:
                    kind = "loop"
                    ends = None
                else:
                    # A run starts just past a vertex crossing and ends on one.
                    kind = "segment"
                    (i1, a1), (im, am) = run[0], run[-1]
                    ends = (
                        self.vertex_elements[i1 - 1][a1].key,
                        self.vertex_elements[im][am].key,
                    )
                # Arc s+1 is arc 1 across the seam, and every run crosses both
                # equally often, so the length counts over arcs 1..s only.
                counts = Counter(i for i, _, _ in lifts)
                length = min((counts[i] for i in range(1, s + 1)), default=len(lifts))
                chain = EdgeChain(lifts, kind, length, ends)
                chains.append(chain)
                self.face_chains.setdefault(cell, []).append(chain)
        self.chains = sorted(chains, key=lambda chain: chain.key)

    def _split_runs(self, cycle: list[Item]) -> tuple[list[list[Item]], bool]:
        """Cut one walk cycle at its vertex crossings.

        Returns the runs in walk order plus a flag: ``True`` when the
        cycle crosses no vertex at all (a single closed run).  A cycle
        with exactly one crossing still yields a segment run -- one that
        starts and ends at the same vertex.
        """
        breaks = [
            j
            for j, (i, a) in enumerate(cycle)
            if i <= self.s and a in self.vertex_elements[i]
        ]
        if not breaks:
            # Closed chain: rotate to the minimal item for determinism.
            pivot = cycle.index(min(cycle))
            return [cycle[pivot:] + cycle[:pivot]], True
        runs = []
        for idx, j in enumerate(breaks):
            k = breaks[(idx + 1) % len(breaks)]
            if k > j:
                runs.append(cycle[j + 1 : k + 1])
            else:
                runs.append(cycle[j + 1 :] + cycle[: k + 1])
        # Runs are listed in walk order, starting after the first crossing.
        return runs, False

    # -- gardens -----------------------------------------------------------

    def _build_gardens(self) -> None:
        components = _orbits([self.e] + self.c, self.n, range(self.n))
        self.garden_of: dict[int, int] = {}
        for g_idx, orbit in enumerate(components):
            for a in orbit:
                self.garden_of[a] = g_idx
        # One pass puts each face, edge and vertex into its garden, in the
        # order of the extraction's lists, which is the park's id order.
        members: list[tuple[list, list, list]] = [([], [], []) for _ in components]
        for cell in self.white_cells + self.black_cells:
            members[self.garden_of[cell.key]][0].append(cell)
        for chain in self.chains:
            members[self.garden_of[chain.lifts[0][1]]][1].append(chain)
        for vertex in self.vertices:
            members[self.garden_of[vertex.elements[0]]][2].append(vertex)
        self.gardens = [
            GardenCell(tuple(faces), tuple(edges), tuple(vertices))
            for faces, edges, vertices in members
        ]


# ---------------------------------------------------------------------------
# park assembly
# ---------------------------------------------------------------------------


def _assemble(ex: _Extraction) -> Park:
    """The park of an extraction, with its mirror involution.

    Ids count from 1 in the extraction's orders: white then black faces,
    chains, vertices, entrances then exits.  A face's boundary is its
    chains in walk order, a black face's the reversed boundary of the
    white face it mirrors.  The involution pairs each white face with its
    mirror and each entrance with its exit, and fixes every edge, vertex
    and garden, so every garden is orientable.  Records go through ``_trusted``.
    """
    face_ids = {
        cell: idx for idx, cell in enumerate(ex.white_cells + ex.black_cells, start=1)
    }
    edge_ids = {chain.lifts: idx for idx, chain in enumerate(ex.chains, start=1)}
    vertex_ids = {vertex.key: idx for idx, vertex in enumerate(ex.vertices, start=1)}
    node_ids = {node: idx for idx, node in enumerate(ex.entrances, start=1)}
    node_ids.update(
        (node, idx) for idx, node in enumerate(ex.exit_nodes, start=len(ex.entrances) + 1)
    )
    node_map: dict[int, int] = {}
    for entrance in ex.entrances:
        a, b = node_ids[entrance], node_ids[ex.exit_paired_with[entrance]]
        node_map[a], node_map[b] = b, a
    boundaries: dict[FaceCell, tuple[int, ...]] = {}
    face_map: dict[int, int] = {}
    for cell in ex.white_cells:
        ids = tuple(edge_ids[chain.lifts] for chain in ex.face_chains[cell])
        mirror = ex.mirror_cell[cell]
        boundaries[cell] = _least_rotation(ids)
        boundaries[mirror] = _least_rotation(tuple(-eid for eid in reversed(ids)))
        a, b = face_ids[cell], face_ids[mirror]
        face_map[a], face_map[b] = b, a
    gardens = tuple(
        _trusted(
            Garden,
            id=g_id,
            kind="orientable",
            faces=tuple(
                _trusted(
                    Face,
                    id=face_ids[cell],
                    color=cell.color,
                    degree=cell.degree,
                    boundary=boundaries[cell],
                )
                for cell in garden.faces
            ),
            edges=tuple(
                _trusted(
                    GardenEdge,
                    id=edge_ids[chain.lifts],
                    length=chain.length,
                    kind=chain.kind,
                    ends=None
                    if chain.ends is None
                    else (vertex_ids[chain.ends[0]], vertex_ids[chain.ends[1]]),
                )
                for chain in garden.edges
            ),
            vertices=tuple(
                _trusted(
                    GardenVertex,
                    id=vertex_ids[vertex.key],
                    corner_label=vertex.corner,
                    pair_id=None,
                )
                for vertex in garden.vertices
            ),
            partner_id=None,
        )
        for g_id, garden in enumerate(ex.gardens, start=1)
    )
    nodes = tuple(
        _trusted(ParkNode, id=node_ids[node], role=node.role, genus=node.signature.genus)
        for node in ex.entrances + ex.exit_nodes
    )
    # Faces are numbered in list order, one alley each, so alley ids follow.
    node_of_cell = {**ex.entrance_of_cell, **ex.exit_of_cell}
    alleys = tuple(
        _trusted(Alley, id=face_id, face_id=face_id, node_id=node_ids[node_of_cell[cell]])
        for cell, face_id in face_ids.items()
    )
    return _trusted(
        Park,
        corner_points=ex.s,
        cone_points=ex.t,
        gardens=gardens,
        nodes=nodes,
        alleys=alleys,
        involution=_trusted(
            Involution,
            nodes=node_map,
            faces=face_map,
            edges={eid: eid for eid in edge_ids.values()},
            vertices={vid: vid for vid in vertex_ids.values()},
            gardens={g.id: g.id for g in gardens},
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
    not re-checked here but marked valid (see :class:`parkscope.park.Park`).
    ``m`` is validated here, and each rep is checked once: a rep that
    enumeration built, or that passed an earlier public gate, is not
    checked again.
    """
    _require_generic(m)
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
    # Not in _assemble, which tests run on reps closing to no surface.
    park = _assemble(_Extraction(m))
    object.__setattr__(park, "_mark", True)
    return park
