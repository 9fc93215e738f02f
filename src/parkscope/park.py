"""The park data model: a combinatorial encoding of a real branched covering.

A park describes how a covering surface decomposes along the preimage of
the real locus.  Its cells:

* **gardens** -- connected pieces of the neighborhood of the real-locus
  preimage.  Each garden carries a graph (vertices and edges) plus the
  faces glued onto it, and a kind from ``GARDEN_KINDS``: ``orientable``,
  ``non_orientable`` or ``separated_pair_member``.  Extraction yields
  only ``orientable`` gardens; the other two kinds occur only in
  hand-authored parks, such as the separated pair of
  ``examples/example1_park.json``.  Every garden holds at least one
  face, edge or vertex.
* **vertices** -- critical points lying over real critical values.  Each
  carries a ``corner_label`` in ``1..s`` giving which real critical value
  (in cyclic order) it sits over, and is incident to exactly four
  edge-ends.
* **edges** -- arcs of the real-locus preimage between vertices
  (``kind="segment"``, possibly with both ends at the same vertex) or
  closed curves missing all vertices (``kind="loop"``).  Each edge has a
  non-negative integer ``length``: the minimal number of lifts of a
  boundary arc it contains.  Length 0 is allowed.
* **faces** -- disk pieces, colored ``white`` or ``black`` by which side
  of the real locus they cover, each mapping with a positive ``degree``.
  A face may carry its boundary as a cyclic list of signed edge ids
  (positive = forward); parks whose faces all carry boundaries are
  called *fine*, parks without boundary data *coarse*.  Some checks need
  boundary data and run only on fine parks; a park whose faces carry
  boundaries only in part is neither, and fails validation.
* **nodes** -- the off-real-locus pieces of the covering: ``entrance``
  nodes (attached to white faces) and ``exit`` nodes (attached to black
  faces), each a surface of some ``genus`` with one boundary circle per
  attached face.
* **alleys** -- the attachments: each face is connected to exactly one
  node by exactly one alley, color-matched to the node's role.
* **involution** -- the combinatorial shadow of complex conjugation: an
  involution of every cell type that swaps entrance/exit roles and face
  colors while preserving genus, degree, length and corner labels, and
  carries each face boundary, reversed, onto its image face's.  Its five
  maps are read-only, so a park, once built, cannot change.

``validate_park`` checks every axiom and reports violations under stable
rule codes; structurally broken references (ids that do not resolve)
raise ``ValueError`` instead.  The topological invariants
(``euler_characteristic``, ``genus``) assume a validated park; the
canonical ``type_summary`` checks its input through the park gate.
Comparing parks, with each other (``park_isomorphic``) or with their own
mirror (``find_park_involution``), is :mod:`parkscope.equivalence`'s
work.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from .errors import NonRealizableError, Report, _Record, _require_int, _trusted

FACE_COLORS = ("white", "black")
NODE_ROLES = ("entrance", "exit")
EDGE_KINDS = ("segment", "loop")
GARDEN_KINDS = ("orientable", "non_orientable", "separated_pair_member")

#: The five cell types that the involution and every park morphism map,
#: in the order of the involution's JSON and of its checks.
CELL_TYPES = ("nodes", "faces", "edges", "vertices", "gardens")

#: Stable rule codes emitted by :func:`validate_park`.
VALIDATION_RULES = (
    "vertex-edge-ends",
    "edge-length",
    "face-degree",
    "face-color-adjacency",
    "face-boundaries",
    "pair-mirror",
    "garden-cells",
    "node-alley-presence",
    "signature-arithmetic",
    "alley-color",
    "alley-bijection",
    "involution-involutive",
    "involution-role-color",
    "involution-structure",
    "degree-balance",
    "cone-count",
    "corner-count",
    "surface-closure",
)


def opposite_color(color: str) -> str:
    """The other face color."""
    if color not in FACE_COLORS:
        raise ValueError(f"unknown face color {color!r}")
    return "black" if color == "white" else "white"


def opposite_role(role: str) -> str:
    """The other node role."""
    if role not in NODE_ROLES:
        raise ValueError(f"unknown node role {role!r}")
    return "exit" if role == "entrance" else "entrance"


def rotations_equal(a: Iterable[Any], b: Iterable[Any]) -> bool:
    """True when two cyclic sequences are equal up to rotation."""
    return _least_rotation(tuple(a)) == _least_rotation(tuple(b))


def _least_rotation(seq: tuple) -> tuple:
    """The least cyclic rotation of ``seq``; ``()`` for ``()``."""
    return min((seq[k:] + seq[:k] for k in range(len(seq))), default=seq)


def _optional_int(value: Any, what: str) -> int | None:
    if value is None:
        return None
    return _require_int(value, what)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


class GardenVertex(_Record, frozen=True):
    """A critical point over a real critical value.

    ``corner_label`` says which real critical value (1-based position in
    the cyclic order); ``pair_id`` optionally names the vertex exchanged
    with this one by the park involution.
    """

    id: int
    corner_label: int
    pair_id: int | None = None

    def __post_init__(self) -> None:
        _require_int(self.id, "vertex id")
        _require_int(self.corner_label, "vertex corner_label")
        _optional_int(self.pair_id, "vertex pair_id")


class GardenEdge(_Record, frozen=True):
    """An arc or closed curve of the real-locus preimage.

    A ``segment`` joins two (possibly equal) vertices given by ``ends``;
    a ``loop`` is a closed curve avoiding all vertices and has no ends.
    ``length`` counts the minimal number of boundary-arc lifts along the
    edge and may be zero.
    """

    id: int
    length: int
    kind: str
    ends: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        _require_int(self.id, "edge id")
        _require_int(self.length, "edge length")
        if self.kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {self.kind!r}")
        if self.kind == "segment":
            if (
                self.ends is None
                or len(tuple(self.ends)) != 2
                or any(not isinstance(v, int) or isinstance(v, bool) for v in self.ends)
            ):
                raise ValueError(
                    f"segment edge {self.id} needs exactly two end vertex ids"
                )
            object.__setattr__(self, "ends", tuple(self.ends))
        else:
            if self.ends is not None:
                raise ValueError(f"loop edge {self.id} must not have ends")


class Face(_Record, frozen=True):
    """A disk piece of one color mapping with the given degree.

    ``boundary`` is the cyclic sequence of signed edge ids around the
    face (positive = traversed forward); it may be empty when the fine
    structure is not recorded.
    """

    id: int
    color: str
    degree: int
    boundary: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _require_int(self.id, "face id")
        if self.color not in FACE_COLORS:
            raise ValueError(f"unknown face color {self.color!r}")
        _require_int(self.degree, "face degree")
        entries = tuple(self.boundary)
        for entry in entries:
            if not isinstance(entry, int) or isinstance(entry, bool) or entry == 0:
                raise ValueError(
                    f"face {self.id} boundary entries must be nonzero signed edge ids"
                )
        object.__setattr__(self, "boundary", entries)


#: A garden's cell lists, in field and file order: each field, which is also
#: its JSON key, with the record type of an entry and the noun for one.
_GARDEN_CELLS = (
    ("faces", Face, "face"),
    ("edges", GardenEdge, "edge"),
    ("vertices", GardenVertex, "vertex"),
)


def _store_records(record: Any, name: str, cls: type) -> None:
    """Store the list field ``name`` of ``record`` as a tuple of ``cls``."""
    value = getattr(record, name)
    try:
        entries = tuple(value)
    except TypeError:
        raise ValueError(f"{name} must contain {cls.__name__} objects, got {value!r}") from None
    for entry in entries:
        if not isinstance(entry, cls):
            raise ValueError(f"{name} must contain {cls.__name__} objects, got {entry!r}")
    object.__setattr__(record, name, entries)


class Garden(_Record, frozen=True):
    """A connected piece of the real-locus neighborhood with its cells."""

    id: int
    kind: str
    faces: tuple[Face, ...] = ()
    edges: tuple[GardenEdge, ...] = ()
    vertices: tuple[GardenVertex, ...] = ()
    partner_id: int | None = None

    def __post_init__(self) -> None:
        _require_int(self.id, "garden id")
        if self.kind not in GARDEN_KINDS:
            raise ValueError(f"unknown garden kind {self.kind!r}")
        for name, cls, _ in _GARDEN_CELLS:
            _store_records(self, name, cls)
        _optional_int(self.partner_id, "garden partner_id")


class ParkNode(_Record, frozen=True):
    """An off-real-locus piece: a surface of the given genus.

    ``entrance`` nodes sit on the white side, ``exit`` nodes on the black
    side.  The node's boundary circles are enumerated by its alleys.
    """

    id: int
    role: str
    genus: int

    def __post_init__(self) -> None:
        _require_int(self.id, "node id")
        if self.role not in NODE_ROLES:
            raise ValueError(f"unknown node role {self.role!r}")
        _require_int(self.genus, "node genus")


class Alley(_Record, frozen=True):
    """The unique attachment between a face and a node."""

    id: int
    face_id: int
    node_id: int

    def __post_init__(self) -> None:
        _require_int(self.id, "alley id")
        _require_int(self.face_id, "alley face id")
        _require_int(self.node_id, "alley node id")


class Involution(_Record, frozen=True):
    """Cell-type-wise maps of the park involution (all ids, total maps),
    each stored as a read-only copy of the mapping given."""

    nodes: Mapping[int, int] = MappingProxyType({})
    faces: Mapping[int, int] = MappingProxyType({})
    edges: Mapping[int, int] = MappingProxyType({})
    vertices: Mapping[int, int] = MappingProxyType({})
    gardens: Mapping[int, int] = MappingProxyType({})

    def __post_init__(self) -> None:
        for name in CELL_TYPES:
            raw = getattr(self, name)
            if not isinstance(raw, Mapping):
                raise ValueError(f"involution {name} must be a mapping of ids")
            clean: dict[int, int] = {}
            for key, value in raw.items():
                clean[_require_int(key, f"involution {name} key")] = _require_int(
                    value, f"involution {name} value"
                )
            object.__setattr__(self, name, MappingProxyType(clean))


class Park(_Record, frozen=True):
    """A full park: cells, attachments and the involution.

    ``corner_points`` (s) and ``cone_points`` (t) are the declared counts
    of real critical values and of conjugate pairs of non-real ones; the
    validator cross-checks both against the cell data.
    """

    corner_points: int
    cone_points: int
    gardens: tuple[Garden, ...]
    nodes: tuple[ParkNode, ...]
    alleys: tuple[Alley, ...]
    involution: Involution

    def __post_init__(self) -> None:
        if _require_int(self.corner_points, "corner_points") < 0:
            raise ValueError(f"corner_points must be >= 0, got {self.corner_points}")
        if _require_int(self.cone_points, "cone_points") < 0:
            raise ValueError(f"cone_points must be >= 0, got {self.cone_points}")
        for name, cls in (("gardens", Garden), ("nodes", ParkNode), ("alleys", Alley)):
            _store_records(self, name, cls)
        if not isinstance(self.involution, Involution):
            raise ValueError("involution must be an Involution")

    # -- convenience accessors --------------------------------------------

    def all_faces(self) -> list[Face]:
        return [f for g in self.gardens for f in g.faces]

    def is_fine(self) -> bool:
        """True when every face carries boundary data."""
        faces = self.all_faces()
        return all(f.boundary for f in faces)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


class EntranceSignature(_Record, frozen=True):
    """Numeric type of a node: genus, boundary circles, attached degrees.

    ``branch_points`` is the number of simple critical points the node
    surface must carry, ``2*genus - 2 + circles + sum(degrees)``.
    """

    genus: int
    circles: int
    degrees: tuple[int, ...]
    branch_points: int

    @classmethod
    def compute(cls, genus: int, degrees: Iterable[int]) -> "EntranceSignature":
        degs = tuple(sorted(degrees, reverse=True))
        k = len(degs)
        b = 2 * genus - 2 + k + sum(degs)
        return _trusted(cls, genus=genus, circles=k, degrees=degs, branch_points=b)


class _ParkIndex:
    """Resolved id tables for a park; raises ValueError on duplicate ids.

    ``garden_of[noun]`` names the garden of each face, edge or vertex,
    ``faces_of_node`` lists each node's faces in alley order and
    ``node_of_face`` names the node of each face's last alley.
    """

    def __init__(self, park: Park):
        self.park = park
        self.gardens: dict[int, Garden] = {}
        self.faces: dict[int, Face] = {}
        self.edges: dict[int, GardenEdge] = {}
        self.vertices: dict[int, GardenVertex] = {}
        self.nodes: dict[int, ParkNode] = {}
        self.alleys: dict[int, Alley] = {}
        self.garden_of: dict[str, dict[int, int]] = {noun: {} for _, _, noun in _GARDEN_CELLS}
        self.node_of_face: dict[int, int] = {}
        self.faces_of_node: dict[int, list[int]] = {}
        for garden in park.gardens:
            self._add(self.gardens, garden.id, garden, "garden")
            for name, _, noun in _GARDEN_CELLS:
                for cell in getattr(garden, name):
                    self._add(getattr(self, name), cell.id, cell, noun)
                    self.garden_of[noun][cell.id] = garden.id
        for n in park.nodes:
            self._add(self.nodes, n.id, n, "node")
            self.faces_of_node[n.id] = []
        for a in park.alleys:
            self._add(self.alleys, a.id, a, "alley")
            self.node_of_face[a.face_id] = a.node_id
            self.faces_of_node.setdefault(a.node_id, []).append(a.face_id)

    @staticmethod
    def _add(table: dict[int, Any], key: int, value: Any, what: str) -> None:
        if key in table:
            raise ValueError(f"duplicate {what} id {key}")
        table[key] = value

    def check_references(self) -> None:
        """Raise ValueError for any id reference that does not resolve."""
        for e in self.edges.values():
            if e.kind == "segment":
                assert e.ends is not None
                for v in e.ends:
                    if v not in self.vertices:
                        raise ValueError(f"edge {e.id} end references unknown vertex {v}")
                    if self.garden_of["vertex"][v] != self.garden_of["edge"][e.id]:
                        raise ValueError(
                            f"edge {e.id} end vertex {v} lies in a different garden"
                        )
        for f in self.faces.values():
            for entry in f.boundary:
                if abs(entry) not in self.edges:
                    raise ValueError(
                        f"face {f.id} boundary references unknown edge {abs(entry)}"
                    )
                if self.garden_of["edge"][abs(entry)] != self.garden_of["face"][f.id]:
                    raise ValueError(
                        f"face {f.id} boundary edge {abs(entry)} lies in a different garden"
                    )
        for v in self.vertices.values():
            if v.pair_id is not None and v.pair_id not in self.vertices:
                raise ValueError(f"vertex {v.id} pairs with unknown vertex {v.pair_id}")
        for g in self.gardens.values():
            if g.partner_id is not None and g.partner_id not in self.gardens:
                raise ValueError(f"garden {g.id} partners unknown garden {g.partner_id}")
        for a in self.alleys.values():
            if a.face_id not in self.faces:
                raise ValueError(f"alley {a.id} references unknown face {a.face_id}")
            if a.node_id not in self.nodes:
                raise ValueError(f"alley {a.id} references unknown node {a.node_id}")
        for name in CELL_TYPES:
            table = getattr(self, name)
            for key, value in getattr(self.park.involution, name).items():
                if key not in table:
                    raise ValueError(f"involution {name} key {key} is not a known id")
                if value not in table:
                    raise ValueError(f"involution {name} value {value} is not a known id")

    def attachments_resolve(self) -> bool:
        """True when the alleys attach every face exactly once, each to a
        known node, and leave no node without an alley."""
        return (
            sorted(a.face_id for a in self.park.alleys) == sorted(self.faces)
            and self.faces_of_node.keys() == self.nodes.keys()
            and all(self.faces_of_node.values())
        )

    @cached_property
    def signatures(self) -> dict[int, EntranceSignature]:
        """Signature of every node from its genus and attached face degrees."""
        return {
            n: EntranceSignature.compute(
                node.genus, [self.faces[f].degree for f in self.faces_of_node[n]]
            )
            for n, node in self.nodes.items()
        }


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_park(park: Park) -> Report:
    """Check every park axiom; report violations, raise on dangling ids.

    The :class:`~parkscope.errors.Report` pairs one of the stable codes in
    ``VALIDATION_RULES`` with a human-readable detail string per violation.

    Checks that need face boundary data (the four-edge-ends rule and
    opposite-color adjacency) run only when the park is fine, and a park
    whose faces carry boundaries only in part fails ``face-boundaries``,
    which names the faces without one.  Two rules run only when every
    other rule holds, in this order: the involution must carry each face
    boundary, reversed and negated, onto its image face's boundary up to
    rotation; and the Euler characteristic must be even and at most 2, the
    characteristic of a closed orientable surface.  Every rule runs on
    every call, and nothing is recorded on the park.
    """
    return _index_report(_ParkIndex(park))


def _validated_index(park: Park) -> _ParkIndex:
    """The index of a park that passes :func:`validate_park`; raises
    ``ValueError`` naming the first violations otherwise.  The one gate of
    the public functions that take parks (``park_isomorphic``,
    ``park_hurwitz`` and ``type_summary``), which runs every rule on every
    park it is given.  The library's own loops over parks it built index
    them with :class:`_ParkIndex` and run no rule."""
    index = _ParkIndex(park)
    report = _index_report(index)
    if not report:
        raise ValueError("park fails validation: " + report.first_three())
    return index


def _index_report(index: _ParkIndex) -> Report:
    """:func:`validate_park` on a park's index."""
    index.check_references()
    park = index.park
    violations: list[tuple[str, str]] = []

    def flag(code: str, detail: str) -> None:
        violations.append((code, detail))

    # -- per-cell numeric invariants --------------------------------------
    for e in index.edges.values():
        if e.length < 0:
            flag("edge-length", f"edge {e.id} has negative length {e.length}")
    for f in index.faces.values():
        if f.degree < 1:
            flag("face-degree", f"face {f.id} has degree {f.degree} < 1")

    # -- corner labels -----------------------------------------------------
    s = park.corner_points
    labels = {v.corner_label for v in index.vertices.values()}
    for v in index.vertices.values():
        if not 1 <= v.corner_label <= s:
            flag(
                "corner-count",
                f"vertex {v.id} corner label {v.corner_label} outside 1..{s}",
            )
    # s may be far larger than the vertex count: count the corners no
    # vertex sits over from the labels, and list only the first ten.
    absent = s - sum(1 for c in labels if 1 <= c <= s)
    if absent:
        missing = list(islice((c for c in range(1, s + 1) if c not in labels), 10))
        more = f" and {absent - len(missing)} more" if absent > len(missing) else ""
        flag("corner-count", f"no vertex sits over corners {missing}{more}")

    # -- fine-structure checks --------------------------------------------
    if park.is_fine():
        ends_at: dict[int, int] = {v: 0 for v in index.vertices}
        for e in index.edges.values():
            if e.kind == "segment":
                assert e.ends is not None
                for v in e.ends:
                    ends_at[v] += 1
        for v_id, count in ends_at.items():
            if count != 4:
                flag(
                    "vertex-edge-ends",
                    f"vertex {v_id} is incident to {count} edge-ends, expected 4",
                )
        sides: dict[int, list[str]] = {e: [] for e in index.edges}
        for f in index.faces.values():
            for entry in f.boundary:
                sides[abs(entry)].append(f.color)
        for e_id, colors in sides.items():
            if len(colors) != 2:
                flag(
                    "face-color-adjacency",
                    f"edge {e_id} appears {len(colors)} times in face boundaries, expected 2",
                )
            elif colors[0] == colors[1]:
                flag(
                    "face-color-adjacency",
                    f"edge {e_id} has two {colors[0]} sides; adjacent faces must alternate colors",
                )
    elif any(f.boundary for f in index.faces.values()):
        bare = sorted(f.id for f in index.faces.values() if not f.boundary)
        more = f" and {len(bare) - 10} more" if len(bare) > 10 else ""
        flag("face-boundaries", f"faces {bare[:10]}{more} carry no boundary, but other faces do")

    # -- gardens: cells and separated pairs --------------------------------
    for g in index.gardens.values():
        if not (g.faces or g.edges or g.vertices):
            flag("garden-cells", f"garden {g.id} holds no face, edge or vertex")
        if g.kind == "separated_pair_member":
            if g.partner_id is None:
                flag("pair-mirror", f"garden {g.id} is a pair member without a partner")
                continue
            if g.partner_id == g.id:
                flag("pair-mirror", f"garden {g.id} partners itself")
                continue
            partner = index.gardens[g.partner_id]
            if partner.kind != "separated_pair_member":
                flag(
                    "pair-mirror",
                    f"garden {g.id} partners {partner.id} of kind {partner.kind}",
                )
            if partner.partner_id != g.id:
                flag(
                    "pair-mirror",
                    f"gardens {g.id} and {partner.id} do not partner each other",
                )
            mirrored = sorted((opposite_color(f.color), f.degree) for f in g.faces)
            if mirrored != sorted((f.color, f.degree) for f in partner.faces):
                flag(
                    "pair-mirror",
                    f"gardens {g.id} and {partner.id} face degrees are not color-mirrored",
                )
            if sorted(e.length for e in g.edges) != sorted(
                e.length for e in partner.edges
            ):
                flag(
                    "pair-mirror",
                    f"gardens {g.id} and {partner.id} edge lengths differ",
                )
        elif g.partner_id is not None:
            flag(
                "pair-mirror",
                f"garden {g.id} of kind {g.kind} must not declare a partner",
            )

    # -- alleys ------------------------------------------------------------
    alley_count_by_face: dict[int, int] = {f: 0 for f in index.faces}
    for a in park.alleys:
        alley_count_by_face[a.face_id] += 1
        face = index.faces[a.face_id]
        node = index.nodes[a.node_id]
        wants = "white" if node.role == "entrance" else "black"
        if face.color != wants:
            flag(
                "alley-color",
                f"alley {a.id} attaches {face.color} face {face.id} to {node.role} node {node.id}",
            )
    for f_id, count in alley_count_by_face.items():
        if count != 1:
            flag("alley-bijection", f"face {f_id} has {count} alleys, expected exactly 1")

    for n_id, faces in index.faces_of_node.items():
        if not faces:
            flag("node-alley-presence", f"node {n_id} has no alleys")

    # -- node signatures ---------------------------------------------------
    entrance_branch_total = 0
    for n_id, node in index.nodes.items():
        if node.genus < 0:
            flag("signature-arithmetic", f"node {n_id} has negative genus {node.genus}")
            continue
        sig = index.signatures[n_id]
        if sig.branch_points < 0:
            flag(
                "signature-arithmetic",
                f"node {n_id} signature gives negative branch count {sig.branch_points}",
            )
        if node.role == "entrance":
            entrance_branch_total += sig.branch_points

    if entrance_branch_total != park.cone_points:
        flag(
            "cone-count",
            f"entrance branch counts sum to {entrance_branch_total}, "
            f"declared cone_points is {park.cone_points}",
        )

    # -- degree balance ----------------------------------------------------
    white_sum = sum(f.degree for f in index.faces.values() if f.color == "white")
    black_sum = sum(f.degree for f in index.faces.values() if f.color == "black")
    if white_sum != black_sum:
        flag(
            "degree-balance",
            f"white degrees sum to {white_sum}, black degrees to {black_sum}",
        )

    # -- involution --------------------------------------------------------
    inv = park.involution
    total = True

    def keeps_garden(noun: str, cell: int, image: int) -> None:
        garden_of = index.garden_of[noun]
        if inv.gardens[garden_of[cell]] != garden_of[image]:
            flag(
                "involution-structure",
                f"involution maps {noun} {cell} inconsistently with its garden",
            )

    for name in CELL_TYPES:
        mapping: Mapping[int, int] = getattr(inv, name)
        missing = sorted(set(getattr(index, name)) - set(mapping))
        if missing:
            total = False
            flag(
                "involution-involutive",
                f"involution is undefined on {name} {missing}",
            )
            continue
        for key, value in mapping.items():
            if mapping.get(value) != key:
                total = False
                flag(
                    "involution-involutive",
                    f"involution on {name} is not an involution at {key} -> {value}",
                )

    if total:
        for n_id, node in index.nodes.items():
            image = index.nodes[inv.nodes[n_id]]
            if image.role != opposite_role(node.role):
                flag(
                    "involution-role-color",
                    f"involution maps {node.role} node {n_id} to {image.role} node {image.id}",
                )
            if image.genus != node.genus:
                flag(
                    "involution-structure",
                    f"involution changes genus of node {n_id} ({node.genus} -> {image.genus})",
                )
        for f_id, face in index.faces.items():
            image = index.faces[inv.faces[f_id]]
            if image.color != opposite_color(face.color):
                flag(
                    "involution-role-color",
                    f"involution maps {face.color} face {f_id} to {image.color} face {image.id}",
                )
            if image.degree != face.degree:
                flag(
                    "involution-structure",
                    f"involution changes degree of face {f_id} ({face.degree} -> {image.degree})",
                )
            keeps_garden("face", f_id, image.id)
        for e_id, edge in index.edges.items():
            image = index.edges[inv.edges[e_id]]
            if image.length != edge.length or image.kind != edge.kind:
                flag(
                    "involution-structure",
                    f"involution changes length/kind of edge {e_id}",
                )
            keeps_garden("edge", e_id, image.id)
            if edge.kind == "segment" and image.kind == "segment":
                assert edge.ends is not None and image.ends is not None
                if sorted(inv.vertices[v] for v in edge.ends) != sorted(image.ends):
                    flag(
                        "involution-structure",
                        f"involution maps edge {e_id} ends inconsistently",
                    )
        for v_id, vertex in index.vertices.items():
            image = index.vertices[inv.vertices[v_id]]
            if image.corner_label != vertex.corner_label:
                flag(
                    "involution-structure",
                    f"involution changes corner label of vertex {v_id}",
                )
            keeps_garden("vertex", v_id, image.id)
            if vertex.pair_id is not None:
                if vertex.pair_id == v_id or inv.vertices[v_id] != vertex.pair_id:
                    flag(
                        "involution-structure",
                        f"vertex {v_id} declares pair {vertex.pair_id} but the "
                        f"involution sends it to {inv.vertices[v_id]}",
                    )
        alley_lookup = {(a.face_id, a.node_id) for a in park.alleys}
        for a in park.alleys:
            mapped = (inv.faces[a.face_id], inv.nodes[a.node_id])
            if mapped not in alley_lookup:
                flag(
                    "involution-structure",
                    f"alley {a.id} has no mirror alley joining face {mapped[0]} "
                    f"to node {mapped[1]}",
                )
        for g_id, garden in index.gardens.items():
            detail = _garden_kind_violation(garden, inv.gardens[g_id], inv.edges, inv.vertices)
            if detail is not None:
                flag("involution-structure", detail)

    # -- face boundaries under the involution -------------------------------
    # Conjugation reverses orientation: a face's boundary, carried over by
    # the involution, reversed and negated, is its image's boundary.
    if not violations:
        for f_id, face in index.faces.items():
            image = index.faces[inv.faces[f_id]]
            if not _carries_boundary(inv.edges, face, image, reverse=True):
                flag(
                    "involution-structure",
                    f"involution does not carry face {f_id}'s boundary onto face {image.id}'s",
                )

    # -- surface closure ---------------------------------------------------
    if not violations:
        chi = euler_characteristic(park)
        if chi > 2 or chi % 2:
            flag(
                "surface-closure",
                f"no closed orientable surface has Euler characteristic {chi}",
            )

    return Report(violations)


def _garden_kind_violation(
    garden: Garden, image_id: int, edges: Mapping[int, int], vertices: Mapping[int, int]
) -> str | None:
    """How an involution that sends ``garden`` to ``image_id``, with these
    edge and vertex maps, breaks the garden's kind, or ``None``: only a
    separated-pair member moves, and to its partner; an orientable garden
    fixes an edge; a non-orientable one fixes no edge and no vertex."""
    g_id = garden.id
    if image_id != g_id:
        if garden.kind != "separated_pair_member":
            return f"involution swaps garden {g_id} with {image_id} but its kind is {garden.kind}"
        if garden.partner_id != image_id:
            return (
                f"garden {g_id} partners {garden.partner_id} but the "
                f"involution sends it to {image_id}"
            )
        return None
    if garden.kind == "separated_pair_member":
        return f"involution fixes garden {g_id} of kind separated_pair_member"
    fixed_edge = any(edges[e.id] == e.id for e in garden.edges)
    fixed_vertex = any(vertices[v.id] == v.id for v in garden.vertices)
    if garden.kind == "orientable" and not fixed_edge:
        return f"garden {g_id} is marked orientable but the involution fixes none of its edges"
    if garden.kind == "non_orientable" and (fixed_edge or fixed_vertex):
        return f"garden {g_id} is marked non_orientable but the involution fixes one of its cells"
    return None


def _carries_boundary(
    edges: Mapping[int, int], face: Face, image: Face, *, reverse: bool
) -> bool:
    """True when the edge map ``edges`` carries ``face``'s boundary onto
    ``image``'s up to rotation, or when either face has no boundary data.
    With ``reverse`` the carried boundary is read reversed and negated:
    an orientation-reversing map (the involution, a reflected isomorphism)
    walks a face boundary the other way."""
    if not face.boundary or not image.boundary:
        return True
    mapped = [edges[x] if x > 0 else -edges[-x] for x in face.boundary]
    if reverse:
        mapped = [-x for x in reversed(mapped)]
    return rotations_equal(mapped, image.boundary)


# ---------------------------------------------------------------------------
# topological invariants
# ---------------------------------------------------------------------------


def euler_characteristic(park: Park) -> int:
    """Euler characteristic of the closed surface the park assembles.

    Each garden contributes vertices minus segment edges (a loop edge
    carries one phantom vertex and one edge and is neutral); each node of
    genus ``g`` with ``k`` boundary circles contributes ``2 - 2g - k``.
    Assumes a validated park.
    """
    chi = 0
    for g in park.gardens:
        segments = sum(1 for e in g.edges if e.kind == "segment")
        chi += len(g.vertices) - segments
    circles: dict[int, int] = {n.id: 0 for n in park.nodes}
    for a in park.alleys:
        circles[a.node_id] += 1
    for n in park.nodes:
        chi += 2 - 2 * n.genus - circles[n.id]
    return chi


def genus(park: Park) -> int:
    """Genus of the assembled closed surface, ``(2 - chi) / 2``.

    Raises :class:`NonRealizableError` when the characteristic is odd or
    exceeds 2, since no closed orientable surface matches.
    """
    return _genus_of_characteristic(euler_characteristic(park))


def _genus_of_characteristic(chi: int) -> int:
    numerator = 2 - chi
    if numerator < 0 or numerator % 2 != 0:
        raise NonRealizableError(
            f"no closed orientable surface has Euler characteristic {chi}",
            euler_characteristic=chi,
        )
    return numerator // 2


# ---------------------------------------------------------------------------
# canonical summary
# ---------------------------------------------------------------------------


class TopSummary(_Record, frozen=True):
    """Canonical numeric/structural summary of a park.

    ``cone_points`` and ``corner_points`` are the declared counts, which
    the ``cone-count`` and ``corner-count`` rules make the total entrance
    branch count and the number of distinct corner labels;
    ``critical_values`` is ``2t + s``.  Signatures are sorted, making the
    summary invariant under relabeling and under the park involution.
    """

    degree: int
    genus: int
    critical_values: int
    cone_points: int
    corner_points: int
    garden_signatures: tuple[tuple, ...]
    node_signatures: tuple[tuple, ...]


def _same(value: Any) -> Any:
    return value


def _garden_signature(
    garden: Garden,
    color: Callable[[str], str] = _same,
    label: Callable[[int], int] = _same,
) -> tuple:
    """A garden's kind with its sorted face colors and degrees, edge kinds
    and lengths, and corner labels, each color and label read through
    ``color`` and ``label``: what every park morphism keeps of a garden."""
    return (
        garden.kind,
        tuple(sorted((color(f.color), f.degree) for f in garden.faces)),
        tuple(sorted((e.kind, e.length) for e in garden.edges)),
        tuple(sorted(label(v.corner_label) for v in garden.vertices)),
    )


def type_summary(park: Park) -> TopSummary:
    """Compute the canonical :class:`TopSummary` of a park; one that fails
    :func:`validate_park` raises ``ValueError`` through the park gate, and
    nothing is checked again past it: the ``degree-balance`` rule makes the
    white face degrees sum to the degree, the ``surface-closure`` rule
    makes ``(2 - chi) / 2`` the genus, and the counts are read off."""
    index = _validated_index(park)
    node_sigs = sorted(
        (index.nodes[n].role, sig.genus, sig.circles, sig.degrees, sig.branch_points)
        for n, sig in index.signatures.items()
    )
    t, s = park.cone_points, park.corner_points
    return _trusted(
        TopSummary,
        degree=sum(f.degree for f in index.faces.values() if f.color == "white"),
        genus=(2 - euler_characteristic(park)) // 2,
        critical_values=2 * t + s,
        cone_points=t,
        corner_points=s,
        garden_signatures=tuple(sorted(_garden_signature(g) for g in park.gardens)),
        node_signatures=tuple(node_sigs),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


#: The park file format of README's "File formats" section: for each record
#: type, each JSON key in file order with the field it fills.
_RECORD_KEYS: dict[type, dict[str, str]] = {
    Face: {"id": "id", "color": "color", "degree": "degree", "boundary": "boundary"},
    GardenEdge: {"id": "id", "length": "length", "kind": "kind", "ends": "ends"},
    GardenVertex: {"id": "id", "corner": "corner_label", "pair": "pair_id"},
    Garden: {"id": "id", "kind": "kind", "partner": "partner_id"},
    ParkNode: {"id": "id", "role": "role", "genus": "genus"},
    Alley: {"id": "id", "face": "face_id", "node": "node_id"},
}


def to_json_dict(park: Park) -> dict[str, Any]:
    """Plain-dict form of a park in README's park file format."""
    return {
        "s": park.corner_points,
        "t": park.cone_points,
        "gardens": [_write_record(g) for g in park.gardens],
        "nodes": [_write_record(n) for n in park.nodes],
        "alleys": [_write_record(a) for a in park.alleys],
        "involution": {
            name: {str(k): v for k, v in sorted(getattr(park.involution, name).items())}
            for name in CELL_TYPES
        },
    }


def _write_record(record: Any) -> dict[str, Any]:
    """The JSON object of one record: its keys from ``_RECORD_KEYS``, with
    ``boundary`` and ``ends`` as lists, then a garden's cell lists."""
    out = {}
    for key, name in _RECORD_KEYS[type(record)].items():
        value = getattr(record, name)
        out[key] = list(value) if isinstance(value, tuple) else value
    for key, _, _ in _GARDEN_CELLS if type(record) is Garden else ():
        out[key] = [_write_record(cell) for cell in getattr(record, key)]
    return out


def from_json_dict(obj: Any) -> Park:
    """Parse README's park file format into a :class:`Park`.

    Malformed shapes raise ``ValueError``; axiom checking is left to
    :func:`validate_park`.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("s", "t", "gardens", "nodes", "alleys", "involution"):
        if key not in obj:
            raise ValueError(f"missing required key {key!r}")
    gardens = tuple(_read_record(Garden, g, "garden") for g in _list_field(obj, "gardens"))
    if not isinstance(obj["nodes"], list) or not isinstance(obj["alleys"], list):
        raise ValueError("'nodes' and 'alleys' must be lists")
    nodes = tuple(_read_record(ParkNode, n, "node", got=True) for n in obj["nodes"])
    alleys = tuple(_read_record(Alley, a, "alley", got=True) for a in obj["alleys"])
    inv_obj = obj["involution"]
    if not isinstance(inv_obj, dict):
        raise ValueError("'involution' must be an object")
    involution = Involution(
        **{
            name: _parse_int_map(inv_obj.get(name, {}), f"involution {name}")
            for name in CELL_TYPES
        }
    )
    return Park(
        corner_points=obj["s"],
        cone_points=obj["t"],
        gardens=gardens,
        nodes=nodes,
        alleys=alleys,
        involution=involution,
    )


def _read_record(cls: type, raw: Any, noun: str, got: bool = False) -> Any:
    """The ``cls`` record of the JSON object ``raw``: a missing key reads as
    ``null``, a missing list as empty; the record checks the values.  With
    ``got``, the message for a non-object shows it."""
    if not isinstance(raw, dict):
        raise ValueError(f"each {noun} must be an object" + (f", got {raw!r}" if got else ""))
    values = {name: raw.get(key) for key, name in _RECORD_KEYS[cls].items()}
    if cls is Face:
        values["boundary"] = _list_field(raw, "boundary")
    elif cls is GardenEdge and values["ends"] is not None:
        values["ends"] = _list_field(raw, "ends")
    elif cls is Garden:
        for key, cell, cell_noun in _GARDEN_CELLS:
            values[key] = [_read_record(cell, entry, cell_noun) for entry in _list_field(raw, key)]
    return cls(**values)


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list")
    return value


def _parse_int_map(obj: Any, what: str) -> dict[int, Any]:
    """``obj`` with integer keys, each as ``str`` writes it, so that no two
    keys name one id; :class:`Involution` checks the values."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object mapping ids to ids")
    out: dict[int, Any] = {}
    for key, value in obj.items():
        try:
            int_key = int(key)
        except (TypeError, ValueError):
            int_key = None
        if int_key is None or str(int_key) != key:
            raise ValueError(f"{what} key {key!r} is not an integer")
        out[int_key] = value
    return out
