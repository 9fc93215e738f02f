"""Unit tests for the park data model, axiom validation and invariants."""

import copy
import json
from fractions import Fraction
from itertools import combinations

import pytest

from parkscope import (
    NonRealizableError,
    build,
    euler_characteristic,
    find_park_involution,
    genus,
    monodromy_to_park,
    park_hurwitz,
    park_isomorphic,
    type_summary,
    validate_park,
)
from parkscope import enumerate_monodromies, equivalence
from parkscope import park as park_module
from parkscope.cli import main
from parkscope.errors import Report
from parkscope.park import (
    VALIDATION_RULES,
    Alley,
    EntranceSignature,
    Face,
    Garden,
    GardenEdge,
    Involution,
    Park,
    ParkNode,
    from_json_dict,
    opposite_color,
    opposite_role,
    rotations_equal,
    to_json_dict,
)

from conftest import (
    EXAMPLE_PARK_PATH,
    InconsistencyError,
    all_cells,
    load_example_park,
    realized_reps,
    replace,
    run_cli,
    total_degree,
)

PARK_COMMANDS = ("validate-park", "info", "hurwitz", "isomorphic")


def test_report_is_read_only_and_shows_its_violations():
    report = Report([("edge-length", "edge 3 has length -1")])
    with pytest.raises(AttributeError, match="^Report is read-only$"):
        report.violations = ()
    with pytest.raises(AttributeError, match="^Report is read-only$"):
        del report.violations
    assert report.violations == (("edge-length", "edge 3 has length -1"),)
    assert repr(report) == (
        "Report(ok=False, violations=(('edge-length', 'edge 3 has length -1'),))"
    )
    assert repr(Report(iter([]))) == "Report(ok=True, violations=())"


def test_shipped_park_validates(example_park):
    report = validate_park(example_park)
    assert report.ok, report.violations
    assert total_degree(example_park) == 4
    assert euler_characteristic(example_park) == 0
    assert genus(example_park) == 1
    assert example_park.is_fine()


def test_shipped_park_summary(example_park):
    summary = type_summary(example_park)
    assert summary.degree == 4
    assert summary.genus == 1
    assert summary.critical_values == 8
    assert summary.cone_points == 4
    assert summary.corner_points == 0
    roles = [sig[0] for sig in summary.node_signatures]
    assert sorted(roles) == ["entrance", "entrance", "exit", "exit"]
    # one node of each role collects three faces, the other exactly one
    circles = sorted((sig[0], sig[2]) for sig in summary.node_signatures)
    assert circles == [
        ("entrance", 1),
        ("entrance", 3),
        ("exit", 1),
        ("exit", 3),
    ]


def test_rotations_equal():
    assert rotations_equal((1, 2, 3), (2, 3, 1))
    assert not rotations_equal((1, 2, 3), (3, 2, 1))
    assert not rotations_equal((1, 2), (1, 2, 2))
    assert rotations_equal((), ())


def test_entrance_signature_formula():
    sig = EntranceSignature.compute(0, [1, 1, 1])
    assert sig.circles == 3
    assert sig.degrees == (1, 1, 1)
    assert sig.branch_points == 4
    assert EntranceSignature.compute(0, [2]).branch_points == 1
    assert EntranceSignature.compute(2, [3, 1]).branch_points == 2 * 2 - 2 + 2 + 4


def test_serialization_roundtrip(example_park, example_park_dict):
    assert to_json_dict(example_park) == example_park_dict
    back = from_json_dict(example_park_dict)
    assert to_json_dict(back) == example_park_dict


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("gardens"),
        lambda obj: obj.update(gardens="x"),
        lambda obj: obj.update(involution="x"),
        lambda obj: obj["involution"].update(nodes={"a": 1}),
        lambda obj: obj.update(nodes=[17]),
    ],
)
def test_from_json_dict_rejects_malformed(example_park_dict, mutate):
    obj = copy.deepcopy(example_park_dict)
    mutate(obj)
    with pytest.raises(ValueError):
        from_json_dict(obj)


@pytest.mark.parametrize("cells, cell", [("edges", "edge"), ("vertices", "vertex")])
def test_from_json_dict_rejects_a_cell_that_is_not_an_object(example_park_dict, cells, cell):
    obj = copy.deepcopy(example_park_dict)
    obj["gardens"][0][cells] = [7]
    with pytest.raises(ValueError, match=f"^each {cell} must be an object$"):
        from_json_dict(obj)


def test_from_json_dict_reads_absent_optional_keys_as_defaults(example_park_dict):
    """An absent ``partner``, ``ends``, ``boundary`` or cell list reads as
    ``None`` or empty, and a key the format does not list is ignored."""
    obj = copy.deepcopy(example_park_dict)
    obj["note"] = "hand-authored"
    for garden in obj["gardens"]:
        del garden["partner"], garden["vertices"]
        for face in garden["faces"]:
            del face["boundary"]
        for edge in garden["edges"]:
            del edge["ends"]
            edge["note"] = 1
    built = from_json_dict(obj)
    assert all(g.partner_id is None and g.vertices == () for g in built.gardens)
    assert all(f.boundary == () for f in built.all_faces()) and not built.is_fine()
    assert all(e.ends is None for e in all_cells(built, "edges"))


@pytest.mark.parametrize("obj", [[], "park", 3])
def test_from_json_dict_rejects_what_is_not_an_object(obj):
    with pytest.raises(ValueError, match="^expected a JSON object, got "):
        from_json_dict(obj)


def _mutated(example_park_dict, change):
    obj = copy.deepcopy(example_park_dict)
    change(obj)
    return from_json_dict(obj)


def test_validator_flags_negative_edge_length(example_park_dict):
    park = _mutated(
        example_park_dict,
        lambda obj: obj["gardens"][0]["edges"][0].update(length=-2),
    )
    report = validate_park(park)
    assert not report.ok
    assert any(code == "edge-length" for code, _ in report.violations)


def test_validator_flags_low_face_degree(example_park_dict):
    park = _mutated(
        example_park_dict,
        lambda obj: obj["gardens"][0]["faces"][0].update(degree=0),
    )
    report = validate_park(park)
    assert not report.ok
    assert any(code == "face-degree" for code, _ in report.violations)


def test_validator_flags_degree_imbalance(example_park_dict):
    park = _mutated(
        example_park_dict,
        lambda obj: obj["gardens"][0]["faces"][0].update(degree=2),
    )
    report = validate_park(park)
    assert not report.ok
    assert any(code == "degree-balance" for code, _ in report.violations)


def test_validator_flags_corner_label_range(chord_park):
    obj = to_json_dict(chord_park)
    obj["gardens"][0]["vertices"][0]["corner"] = 7
    report = validate_park(from_json_dict(obj))
    assert not report.ok
    assert any(code == "corner-count" for code, _ in report.violations)


def test_validator_flags_missing_corner(chord_park):
    obj = to_json_dict(chord_park)
    for v in obj["gardens"][0]["vertices"]:
        v["corner"] = 1  # corner 2 now has no vertex over it
    report = validate_park(from_json_dict(obj))
    assert not report.ok
    assert any(code == "corner-count" for code, _ in report.violations)


def test_validator_flags_declared_cone_count(example_park_dict):
    park = _mutated(example_park_dict, lambda obj: obj.update(t=3))
    report = validate_park(park)
    assert not report.ok
    assert any(code == "cone-count" for code, _ in report.violations)


def test_validator_flags_pair_partner(example_park_dict):
    park = _mutated(
        example_park_dict,
        lambda obj: obj["gardens"][0].update(partner=None),
    )
    report = validate_park(park)
    assert not report.ok
    assert any(code == "pair-mirror" for code, _ in report.violations)


def _garden(obj, g_id):
    return obj["gardens"][g_id - 1]


def test_find_park_involution_needs_an_exit_per_entrance(example_park_dict):
    """A park whose ids and alleys resolve has no involution when its
    entrances outnumber its exits: the search stops at the role count."""

    def change(obj):
        obj["nodes"][2]["role"] = "entrance"
        obj["involution"] = {cells: {} for cells in obj["involution"]}

    park = _mutated(example_park_dict, change)
    assert sorted(node.role for node in park.nodes) == ["entrance"] * 3 + ["exit"]
    assert find_park_involution(park) is None


@pytest.mark.parametrize(
    "change, kind_messages, has_involution",
    [
        (
            lambda obj: obj["involution"]["gardens"].update({"3": 4, "4": 3}),
            [
                "involution swaps garden 3 with 4 but its kind is orientable",
                "involution swaps garden 4 with 3 but its kind is orientable",
            ],
            True,
        ),
        (
            lambda obj: obj["involution"]["gardens"].update({"1": 1, "2": 2}),
            [
                "involution fixes garden 1 of kind separated_pair_member",
                "involution fixes garden 2 of kind separated_pair_member",
            ],
            True,
        ),
        (
            lambda obj: _garden(obj, 1).update(partner=3),
            ["garden 1 partners 3 but the involution sends it to 2"],
            False,
        ),
        (
            lambda obj: [_garden(obj, g_id).update(partner=None) for g_id in (1, 2)],
            [
                "garden 1 partners None but the involution sends it to 2",
                "garden 2 partners None but the involution sends it to 1",
            ],
            False,
        ),
        (
            lambda obj: _garden(obj, 3).update(kind="non_orientable"),
            ["garden 3 is marked non_orientable but the involution fixes one of its cells"],
            False,
        ),
        (
            lambda obj: obj["involution"]["edges"].update({"3": 4, "4": 3}),
            [
                "garden 3 is marked orientable but the involution fixes none of its edges",
                "garden 4 is marked orientable but the involution fixes none of its edges",
            ],
            True,
        ),
    ],
    ids=[
        "orientable gardens swapped",
        "pair members fixed",
        "pair member sent off its partner",
        "pair members without partners",
        "non-orientable garden with a fixed edge",
        "orientable gardens without a fixed edge",
    ],
)
def test_garden_kind_rule(example_park_dict, change, kind_messages, has_involution):
    """One garden-kind rule behind ``validate_park`` and
    ``find_park_involution``: the validator's last violations are the
    rule's, word for word; the involution search finds an involution only
    when the kinds and partners allow one; and the park functions reject
    the park with the validator's first violations."""
    park = _mutated(example_park_dict, change)
    report = validate_park(park)
    expected = tuple(("involution-structure", message) for message in kind_messages)
    assert report.violations[-len(expected) :] == expected
    found = find_park_involution(park)
    assert (found is not None) == has_involution
    if found is not None:
        assert validate_park(replace(park, involution=found)).ok
    gate = "park fails validation: " + "; ".join(
        f"{code}: {detail}" for code, detail in report.violations[:3]
    )
    shipped = from_json_dict(example_park_dict)
    for call in (
        lambda: park_hurwitz(park),
        lambda: park_isomorphic(park, shipped),
        lambda: park_isomorphic(shipped, park),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == gate


def _edge_swaps(park):
    """``park`` with the involution images of two edges of equal kind,
    length and ends swapped, for each such pair of edges."""
    for a, b in combinations(all_cells(park, "edges"), 2):
        if (a.kind, a.length, a.ends) == (b.kind, b.length, b.ends):
            edges = dict(park.involution.edges)
            edges[a.id], edges[b.id] = edges[b.id], edges[a.id]
            yield replace(
                park, involution=replace(park.involution, edges=edges)
            )


def test_involution_must_carry_face_boundaries():
    """Swapping the images of two edges of equal kind, length and ends
    keeps every rule on single cells, but the involution then no longer
    carries each face boundary, reversed and negated, onto its image
    face's.  The validator flags that for both swaps of the branchless
    (2, 0, 2) rep, and for every such swap in the parks of d <= 3 and
    t + s <= 4: of the 192 swaps, 100 break the boundary rule alone."""
    rep = build(2, [], [(2, 3, 0, 1), (3, 2, 1, 0), (2, 3, 0, 1)])
    expected = tuple(
        ("involution-structure", f"involution does not carry face {a}'s boundary onto face {b}'s")
        for a, b in ((1, 3), (2, 4), (3, 1), (4, 2))
    )
    swaps = list(_edge_swaps(monodromy_to_park(rep)))
    assert [validate_park(swapped).violations for swapped in swaps] == [expected] * 2
    reports = [validate_park(m) for _, park in realized_reps(3, 4) for m in _edge_swaps(park)]
    assert not any(reports)
    boundary_only = [
        report
        for report in reports
        if all(detail.startswith("involution does not carry") for _, detail in report.violations)
    ]
    assert (len(reports), len(boundary_only)) == (192, 100)


def test_validator_raises_on_dangling_reference(example_park_dict):
    park = _mutated(
        example_park_dict,
        lambda obj: obj["alleys"][0].update(face=99),
    )
    with pytest.raises(ValueError):
        validate_park(park)


def test_type_summary_checks_its_park_through_the_gate(report_runs, example_park_dict, loop3_rep):
    """``type_summary`` checks every park through the park gate: a
    dangling alley raises the ``ValueError`` that ``validate_park`` raises,
    a park that breaks a rule the gate's text, and an extracted park runs
    the rules once."""
    dangling = _mutated(example_park_dict, lambda obj: obj["alleys"][0].update(face=99))
    with pytest.raises(ValueError, match="^alley 1 references unknown face 99$"):
        validate_park(dangling)
    with pytest.raises(ValueError, match="^alley 1 references unknown face 99$"):
        type_summary(dangling)
    failing = _mutated(example_park_dict, lambda obj: obj.update(t=5))
    with pytest.raises(ValueError, match="^park fails validation: cone-count: "):
        type_summary(failing)
    assert report_runs == [dangling, dangling, failing]
    park = monodromy_to_park(loop3_rep)
    assert type_summary(park).degree == 3
    assert report_runs == [dangling, dangling, failing, park]


def test_genus_rejects_odd_characteristic():
    # one entrance collecting both faces, one exit collecting one: the
    # node caps sum to an odd Euler characteristic
    park = Park(
        cone_points=0,
        corner_points=0,
        gardens=(
            Garden(
                id=1,
                kind="orientable",
                faces=(
                    Face(id=1, color="white", degree=1, boundary=(1,)),
                    Face(id=2, color="black", degree=1, boundary=(-1,)),
                ),
                edges=(GardenEdge(id=1, length=1, kind="loop", ends=None),),
                vertices=(),
            ),
        ),
        nodes=(
            ParkNode(id=1, role="entrance", genus=0),
            ParkNode(id=2, role="exit", genus=0),
        ),
        alleys=(
            Alley(id=1, face_id=1, node_id=1),
            Alley(id=2, face_id=1, node_id=1),
            Alley(id=3, face_id=2, node_id=2),
        ),
        involution=Involution(
            nodes={1: 2, 2: 1},
            faces={1: 2, 2: 1},
            edges={1: 1},
            vertices={},
            gardens={1: 1},
        ),
    )
    with pytest.raises(NonRealizableError):
        genus(park)


def test_loop_edges_do_not_change_characteristic(loop3_park):
    assert euler_characteristic(loop3_park) == 2
    assert genus(loop3_park) == 0


def test_shipped_file_is_normalized(example_park_dict):
    # the repository copy is exactly the serializer's own output
    with open(EXAMPLE_PARK_PATH, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text == json.dumps(example_park_dict, indent=2) + "\n"


def _park_argv(command, path):
    """``command`` on the park file ``path``; ``isomorphic`` compares it
    with the shipped park."""
    argv = [command, str(path)]
    if command == "isomorphic":
        argv.append(str(EXAMPLE_PARK_PATH))
    return argv


def _write_park(tmp_path, obj):
    path = tmp_path / "park.json"
    path.write_text(json.dumps(obj))
    return path


def _vertex(obj, g_id, v_id, corner=1, pair=None):
    """Add vertex ``v_id`` over ``corner`` to garden ``g_id``, fixed by the
    involution, and raise ``s`` to cover its corner."""
    _garden(obj, g_id)["vertices"].append({"id": v_id, "corner": corner, "pair": pair})
    obj["involution"]["vertices"][str(v_id)] = v_id
    obj["s"] = max(obj["s"], corner)


def _segment(obj, g_id, e_id, ends):
    """Add segment edge ``e_id`` with ``ends`` to garden ``g_id``, fixed by
    the involution."""
    edge = {"id": e_id, "length": 1, "kind": "segment", "ends": list(ends)}
    _garden(obj, g_id)["edges"].append(edge)
    obj["involution"]["edges"][str(e_id)] = e_id


def _swap_vertices(obj):
    obj["involution"]["vertices"].update({"1": 2, "2": 1})


@pytest.mark.parametrize(
    "change, violation",
    [
        (
            lambda obj: _garden(obj, 3)["faces"][0].update(boundary=[3, 3]),
            ("face-color-adjacency", "edge 3 appears 3 times in face boundaries, expected 2"),
        ),
        (
            lambda obj: _garden(obj, 3)["faces"][1].update(color="white"),
            (
                "face-color-adjacency",
                "edge 3 has two white sides; adjacent faces must alternate colors",
            ),
        ),
        (
            lambda obj: _garden(obj, 1).update(partner=1),
            ("pair-mirror", "garden 1 partners itself"),
        ),
        (
            lambda obj: _garden(obj, 3).update(partner=4),
            ("pair-mirror", "garden 3 of kind orientable must not declare a partner"),
        ),
        (
            lambda obj: obj["involution"]["nodes"].pop("1"),
            ("involution-involutive", "involution is undefined on nodes [1]"),
        ),
        (
            lambda obj: obj["involution"]["nodes"].update({"3": 2}),
            ("involution-involutive", "involution on nodes is not an involution at 1 -> 3"),
        ),
        (
            lambda obj: obj["involution"]["nodes"].update({"1": 2, "2": 1, "3": 4, "4": 3}),
            ("involution-role-color", "involution maps entrance node 1 to entrance node 2"),
        ),
        (
            lambda obj: [
                _vertex(obj, 3, 1),
                _vertex(obj, 3, 2),
                _segment(obj, 3, 5, (1, 1)),
                _swap_vertices(obj),
            ],
            ("involution-structure", "involution maps edge 5 ends inconsistently"),
        ),
        (
            lambda obj: [_vertex(obj, 3, 1, 1), _vertex(obj, 3, 2, 2), _swap_vertices(obj)],
            ("involution-structure", "involution changes corner label of vertex 1"),
        ),
        (
            lambda obj: [_vertex(obj, 3, 1), _vertex(obj, 4, 2), _swap_vertices(obj)],
            ("involution-structure", "involution maps vertex 1 inconsistently with its garden"),
        ),
        (
            lambda obj: [_vertex(obj, 3, 1, pair=2), _vertex(obj, 3, 2)],
            (
                "involution-structure",
                "vertex 1 declares pair 2 but the involution sends it to 1",
            ),
        ),
        (
            lambda obj: obj["nodes"][0].update(genus=-1),
            ("signature-arithmetic", "node 1 has negative genus -1"),
        ),
    ],
    ids=[
        "edge in three boundaries",
        "edge with two white sides",
        "garden partners itself",
        "orientable garden with a partner",
        "involution undefined",
        "involution not involutive",
        "entrance sent to an entrance",
        "edge ends mapped apart",
        "corner label changed",
        "vertex leaves its garden's image",
        "vertex pair disagrees",
        "negative genus",
    ],
)
def test_validator_branch(example_park_dict, change, violation):
    report = validate_park(_mutated(example_park_dict, change))
    assert violation in report.violations, report.violations
    assert {code for code, _ in report.violations} <= set(VALIDATION_RULES)


def test_cells_moved_out_of_their_gardens_image_are_each_reported(example_park_dict):
    """An involution that fixes the orientable gardens 3 and 4 but swaps
    their faces, edges and vertices breaks the garden rule once per moved
    cell: faces, then edges, then vertices, each cell's garden message
    after its length or corner label message."""

    def change(obj):
        _vertex(obj, 3, 1, pair=2)
        _vertex(obj, 4, 2, corner=2)
        _garden(obj, 4)["edges"][0]["length"] = 2
        involution = obj["involution"]
        involution["faces"].update({"5": 8, "8": 5, "6": 7, "7": 6})
        involution["edges"].update({"3": 4, "4": 3})
        _swap_vertices(obj)

    structure = [
        "involution maps face 5 inconsistently with its garden",
        "involution maps face 6 inconsistently with its garden",
        "involution maps face 7 inconsistently with its garden",
        "involution maps face 8 inconsistently with its garden",
        "involution changes length/kind of edge 3",
        "involution maps edge 3 inconsistently with its garden",
        "involution changes length/kind of edge 4",
        "involution maps edge 4 inconsistently with its garden",
        "involution changes corner label of vertex 1",
        "involution maps vertex 1 inconsistently with its garden",
        "involution changes corner label of vertex 2",
        "involution maps vertex 2 inconsistently with its garden",
        "garden 3 is marked orientable but the involution fixes none of its edges",
        "garden 4 is marked orientable but the involution fixes none of its edges",
    ]
    assert validate_park(_mutated(example_park_dict, change)).violations == (
        ("vertex-edge-ends", "vertex 1 is incident to 0 edge-ends, expected 4"),
        ("vertex-edge-ends", "vertex 2 is incident to 0 edge-ends, expected 4"),
        *(("involution-structure", detail) for detail in structure),
    )


def test_a_garden_with_no_cells_is_reported(tmp_path, capsys, example_park_dict):
    """A garden needs a face, an edge or a vertex: an empty garden fixed
    by the involution breaks ``garden-cells`` alone, and every park
    command exits 1 on it."""
    example_park_dict["gardens"].append(
        {"id": 9, "kind": "non_orientable", "partner": None, "faces": [], "edges": [], "vertices": []}
    )
    example_park_dict["involution"]["gardens"]["9"] = 9
    park = from_json_dict(example_park_dict)
    assert validate_park(park).violations == (
        ("garden-cells", "garden 9 holds no face, edge or vertex"),
    )
    path = _write_park(tmp_path, example_park_dict)
    for command in PARK_COMMANDS:
        assert main(_park_argv(command, path)) == 1, command
        out, err = capsys.readouterr()
        assert "garden-cells: garden 9 holds no face, edge or vertex" in out + err, command


def test_a_partly_fine_park_is_reported(tmp_path, capsys, chord_park):
    """Boundaries on some faces and not on others break ``face-boundaries``,
    which names the faces without one, so a fault in the boundaries that
    are there cannot hide behind a blank one; a fully coarse park stays
    valid, and every park command exits 1 on a partly fine file."""
    obj = to_json_dict(chord_park)
    faces = {f["id"]: f for f in obj["gardens"][0]["faces"]}
    faces[2]["boundary"], faces[4]["boundary"] = [2, 3, 4, 1], [-1, -4, -3, -2]
    assert validate_park(from_json_dict(obj)).violations == (
        ("face-color-adjacency", "edge 1 appears 4 times in face boundaries, expected 2"),
    )
    faces[1]["boundary"] = []
    message = "faces [1] carry no boundary, but other faces do"
    assert validate_park(from_json_dict(obj)).violations == (("face-boundaries", message),)
    path = _write_park(tmp_path, obj)
    for command in PARK_COMMANDS:
        assert main(_park_argv(command, path)) == 1, command
        out, err = capsys.readouterr()
        assert f"face-boundaries: {message}" in out + err, command
    for face in faces.values():
        face["boundary"] = []
    assert validate_park(from_json_dict(obj))


def test_corner_count_lists_the_first_missing_corners(example_park_dict, chord_park):
    obj = to_json_dict(chord_park)
    for v in obj["gardens"][0]["vertices"]:
        v["corner"] = 1
    few = validate_park(from_json_dict(obj)).violations
    assert ("corner-count", "no vertex sits over corners [2]") in few
    many = validate_park(_mutated(example_park_dict, lambda obj: obj.update(s=25)))
    assert many.violations == (
        ("corner-count", f"no vertex sits over corners {list(range(1, 11))} and 15 more"),
    )


@pytest.mark.parametrize("command", PARK_COMMANDS)
def test_huge_corner_count_is_reported_without_building_it(tmp_path, example_park_dict, command):
    """``s = 10**12`` is one integer in the file: every park command answers
    exit 1 naming ``corner-count`` in a child capped at 768 MiB, where a
    set of all the corners ends in ``MemoryError``."""
    example_park_dict["s"] = 10**12
    path = _write_park(tmp_path, example_park_dict)
    proc = run_cli(_park_argv(command, path), memory_mib=768)
    assert proc.returncode == 1, proc.stderr
    assert b"corner-count: no vertex sits over corners [1, 2, 3" in proc.stdout + proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "change, message",
    [
        (
            lambda obj: [_vertex(obj, 3, 1), _segment(obj, 3, 5, (1, 99))],
            "edge 5 end references unknown vertex 99",
        ),
        (
            lambda obj: [_vertex(obj, 4, 1), _segment(obj, 3, 5, (1, 1))],
            "edge 5 end vertex 1 lies in a different garden",
        ),
        (
            lambda obj: _garden(obj, 3)["faces"][0].update(boundary=[4]),
            "face 5 boundary edge 4 lies in a different garden",
        ),
        (lambda obj: _vertex(obj, 3, 1, pair=99), "vertex 1 pairs with unknown vertex 99"),
        (lambda obj: _garden(obj, 1).update(partner=99), "garden 1 partners unknown garden 99"),
        (
            lambda obj: obj["involution"]["nodes"].update({"9": 1}),
            "involution nodes key 9 is not a known id",
        ),
        (
            lambda obj: obj["involution"]["nodes"].update({"1": 9}),
            "involution nodes value 9 is not a known id",
        ),
    ],
    ids=[
        "edge end unknown",
        "edge end in another garden",
        "boundary edge in another garden",
        "pair unknown",
        "partner unknown",
        "involution key unknown",
        "involution value unknown",
    ],
)
def test_dangling_reference_raises_and_is_exit_2(
    tmp_path, capsys, example_park_dict, change, message
):
    park = _mutated(example_park_dict, change)
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_park(park)
    path = _write_park(tmp_path, to_json_dict(park))
    for command in PARK_COMMANDS:
        assert main(_park_argv(command, path)) == 2
        assert capsys.readouterr().err == f"{path}: {message}\n"


def _park(**fields):
    """A park with no cells; ``fields`` override the defaults."""
    values = dict(
        corner_points=0, cone_points=0, gardens=(), nodes=(), alleys=(), involution=Involution()
    )
    values.update(fields)
    return Park(**values)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _park(corner_points=-1), "corner_points must be >= 0, got -1"),
        (lambda: _park(cone_points=-1), "cone_points must be >= 0, got -1"),
        (lambda: _park(gardens=[1]), "gardens must contain Garden objects, got 1"),
        (lambda: _park(nodes=[1]), "nodes must contain ParkNode objects, got 1"),
        (lambda: _park(alleys=[1]), "alleys must contain Alley objects, got 1"),
        (lambda: _park(involution={}), "involution must be an Involution"),
        (
            lambda: replace(load_example_park().gardens[0], faces=({"id": 1},)),
            "faces must contain Face objects, got {'id': 1}",
        ),
        (
            lambda: Garden(id=1, kind="orientable", faces=5),
            "faces must contain Face objects, got 5",
        ),
        (
            lambda: Park(0, 0, gardens=5, nodes=(), alleys=(), involution=Involution()),
            "gardens must contain Garden objects, got 5",
        ),
        (
            lambda: Garden(id=1, kind="orientable", edges=[1]),
            "edges must contain GardenEdge objects, got 1",
        ),
        (
            lambda: Garden(id=1, kind="orientable", vertices=[1]),
            "vertices must contain GardenVertex objects, got 1",
        ),
        (lambda: GardenEdge(id=1, length=1, kind="arc"), "unknown edge kind 'arc'"),
        (
            lambda: GardenEdge(id=1, length=1, kind="segment"),
            "segment edge 1 needs exactly two end vertex ids",
        ),
        (
            lambda: GardenEdge(id=1, length=1, kind="segment", ends=(1,)),
            "segment edge 1 needs exactly two end vertex ids",
        ),
        (
            lambda: GardenEdge(id=1, length=1, kind="segment", ends=(1, True)),
            "segment edge 1 needs exactly two end vertex ids",
        ),
        (
            lambda: GardenEdge(id=1, length=1, kind="loop", ends=(1, 1)),
            "loop edge 1 must not have ends",
        ),
        (lambda: ParkNode(id=1, role="sideways", genus=0), "unknown node role 'sideways'"),
        (lambda: Involution(nodes=[(1, 2)]), "involution nodes must be a mapping of ids"),
        (
            lambda: Involution(faces={"1": 2}),
            "involution faces key must be an integer, got '1'",
        ),
        (lambda: opposite_color("red"), "unknown face color 'red'"),
        (lambda: opposite_role("sideways"), "unknown node role 'sideways'"),
    ],
)
def test_constructor_checks_raise(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda obj: obj.update(s=-1), "corner_points must be >= 0, got -1"),
        (lambda obj: obj.update(t=-1), "cone_points must be >= 0, got -1"),
        (
            lambda obj: _garden(obj, 3)["edges"][0].update(kind="arc"),
            "unknown edge kind 'arc'",
        ),
        (
            lambda obj: _garden(obj, 3)["edges"][0].update(kind="segment"),
            "segment edge 3 needs exactly two end vertex ids",
        ),
        (
            lambda obj: _garden(obj, 3)["edges"][0].update(ends=[1, 1]),
            "loop edge 3 must not have ends",
        ),
        (lambda obj: obj["nodes"][0].update(role="sideways"), "unknown node role 'sideways'"),
        (lambda obj: obj.update(nodes={}), "'nodes' and 'alleys' must be lists"),
        (lambda obj: obj.update(alleys=None), "'nodes' and 'alleys' must be lists"),
        (
            lambda obj: obj["involution"].update(faces=[[1, 4]]),
            "involution faces must be an object mapping ids to ids",
        ),
        (lambda obj: obj.pop("alleys"), "missing required key 'alleys'"),
        (lambda obj: obj.update(gardens={}), "'gardens' must be a list"),
        (lambda obj: obj["gardens"].append(3), "each garden must be an object"),
        (lambda obj: _garden(obj, 1).update(faces={}), "'faces' must be a list"),
        (lambda obj: _garden(obj, 1).update(edges="x"), "'edges' must be a list"),
        (lambda obj: _garden(obj, 1).update(vertices=None), "'vertices' must be a list"),
        (lambda obj: _garden(obj, 1)["faces"].append([]), "each face must be an object"),
        (lambda obj: _garden(obj, 1)["edges"].append(7), "each edge must be an object"),
        (lambda obj: _garden(obj, 1).update(vertices=[7]), "each vertex must be an object"),
        (
            lambda obj: _garden(obj, 1)["faces"][0].update(boundary=None),
            "'boundary' must be a list",
        ),
        (
            lambda obj: _garden(obj, 1)["faces"][0].update(boundary="x"),
            "'boundary' must be a list",
        ),
        (lambda obj: _garden(obj, 1)["edges"][0].update(ends="x"), "'ends' must be a list"),
        (lambda obj: obj["nodes"].append(17), "each node must be an object, got 17"),
        (lambda obj: obj["alleys"].append("x"), "each alley must be an object, got 'x'"),
        (lambda obj: obj.update(involution=[]), "'involution' must be an object"),
        (
            lambda obj: obj["involution"]["nodes"].update(a=1),
            "involution nodes key 'a' is not an integer",
        ),
        (
            lambda obj: obj["involution"]["edges"].update({"9": "x"}),
            "involution edges value must be an integer, got 'x'",
        ),
        # A key must be an id as str writes it, so no two keys name one id:
        # with "01" beside "1", the later key won silently.
        (
            lambda obj: obj["involution"]["nodes"].update({"01": 99}),
            "involution nodes key '01' is not an integer",
        ),
        (
            lambda obj: obj["involution"]["faces"].update({" 2": 3}),
            "involution faces key ' 2' is not an integer",
        ),
        (
            lambda obj: obj["involution"]["edges"].update({"1_0": 1}),
            "involution edges key '1_0' is not an integer",
        ),
        (
            lambda obj: obj["involution"]["gardens"].update({"+1": 2}),
            "involution gardens key '+1' is not an integer",
        ),
        (
            lambda obj: obj["involution"]["vertices"].update({"\u0661": 1}),
            "involution vertices key '\u0661' is not an integer",
        ),
        (
            lambda obj: obj["involution"]["nodes"].update({"-0": 1}),
            "involution nodes key '-0' is not an integer",
        ),
        # A file with several faults names the first one read: a garden's
        # faces before its edges and its own fields, every garden before
        # the nodes, the involution's keys before its values and the
        # park's counts last.
        (
            lambda obj: (
                _garden(obj, 1).update(id="x", edges=7),
                _garden(obj, 1)["faces"][1].update(id="y", boundary=None),
            ),
            "'boundary' must be a list",
        ),
        (
            lambda obj: _garden(obj, 1).update(id="x", edges=7),
            "'edges' must be a list",
        ),
        (
            lambda obj: (_garden(obj, 4).update(kind="flat"), obj.update(nodes={})),
            "unknown garden kind 'flat'",
        ),
        (
            lambda obj: (
                obj.update(s=-1),
                obj["involution"]["nodes"].update({"1": None}),
                obj["involution"]["gardens"].update(b=1),
            ),
            "involution gardens key 'b' is not an integer",
        ),
        (
            lambda obj: (obj.update(s=-1), obj["involution"]["nodes"].update({"1": None})),
            "involution nodes value must be an integer, got None",
        ),
    ],
    ids=[
        "s",
        "t",
        "edge kind",
        "segment ends",
        "loop ends",
        "node role",
        "nodes not a list",
        "alleys not a list",
        "involution map not an object",
        "missing key",
        "gardens not a list",
        "garden not an object",
        "faces not a list",
        "edges not a list",
        "vertices not a list",
        "face not an object",
        "edge not an object",
        "vertex not an object",
        "null boundary",
        "string boundary",
        "string ends",
        "node not an object",
        "alley not an object",
        "involution not an object",
        "involution key",
        "involution value",
        "involution key with a leading zero",
        "involution key with a space",
        "involution key with an underscore",
        "involution key with a plus sign",
        "involution key in Arabic-Indic digits",
        "involution key minus zero",
        "boundary before edges and garden fields",
        "edges before garden fields",
        "gardens before nodes",
        "involution keys before values and counts",
        "involution values before counts",
    ],
)
def test_constructor_checks_on_file_input_are_exit_2(
    tmp_path, capsys, example_park_dict, change, message
):
    change(example_park_dict)
    path = _write_park(tmp_path, example_park_dict)
    for command in PARK_COMMANDS:
        assert main(_park_argv(command, path)) == 2
        assert capsys.readouterr().err == f"{path}: {message}\n"


@pytest.fixture
def report_runs(monkeypatch):
    """The parks that the validator's rules ran on, in order: every run of
    ``validate_park`` and of the park gate goes through ``_index_report``."""
    runs = []
    report = park_module._index_report

    def counted(index):
        runs.append(index.park)
        return report(index)

    monkeypatch.setattr(park_module, "_index_report", counted)
    return runs


def test_the_park_merge_runs_no_rule(report_runs, example_park, monkeypatch):
    """The public functions check every park they are given; the merge,
    alone and in ``enumerate_monodromies(..., dedup="park")``, indexes the
    parks that ``monodromy_to_park`` built and runs no rule."""
    built = [monodromy_to_park(rep) for rep, _ in realized_reps(3, 4)[::25]]
    assert report_runs == []
    assert validate_park(example_park)
    assert report_runs == [example_park]
    for park in built + [example_park]:
        park_hurwitz(park)
        assert park_isomorphic(park, park, allow_reflection=True) is not None
    assert report_runs == [example_park] + [p for p in built + [example_park] for _ in range(3)]
    report_runs.clear()
    searched = []
    search = equivalence._isomorphism

    def counted(src, dst, tries):
        searched.append((src.park, dst.park))
        return search(src, dst, tries)

    # the merge searches through the core that park_isomorphic wraps
    monkeypatch.setattr(equivalence, "_isomorphism", counted)
    merged = equivalence._isomorphism_groups(enumerate(built))
    assert sorted(i for group in merged for i in group) == list(range(len(built)))
    assert searched
    searched.clear()
    result = enumerate_monodromies(3, 2, 2, dedup="park")
    assert (len(result.classes), len(searched)) == (6, 2)
    assert report_runs == []


def test_nothing_past_the_park_gate_checks_again(monkeypatch):
    """Past the gate, ``type_summary`` reads the degree and genus off the
    gate's index and ``park_hurwitz`` multiplies through the unchecked
    core: neither calls the checked ``genus``, whose raise the rules
    already exclude.  The library has no checked degree sum or
    interleaving factor left to call."""
    corners = next(
        park
        for rep, park in realized_reps(3, 4)
        if (rep.degree, rep.cone_points, rep.corner_points) == (3, 2, 2)
        and sum(node.role == "entrance" for node in park.nodes) == 2
    )
    parks = [load_example_park(), corners]
    expected = [(type_summary(park), park_hurwitz(park)) for park in parks]
    assert [(s.degree, s.genus, h) for s, h in expected] == [(4, 1, 4), (3, 1, Fraction(1, 2))]

    def refuse(*args):
        raise AssertionError("checked again past the gate")

    monkeypatch.setattr(park_module, "genus", refuse)
    # the example park is loaded again, so the gate runs every rule on it
    parks[0] = load_example_park()
    assert [(type_summary(park), park_hurwitz(park)) for park in parks] == expected


def test_validate_park_runs_every_rule_on_every_call(report_runs, loop3_rep):
    park = monodromy_to_park(loop3_rep)
    assert validate_park(park) and validate_park(park)
    assert report_runs == [park, park]
    # A park cannot be changed in place; a changed copy is a new park, and
    # validate_park finds what broke.
    with pytest.raises(AttributeError):
        park.involution.faces.clear()
    with pytest.raises(TypeError):
        park.involution.faces[1] = 1
    park_hurwitz(park)
    broken = replace(
        park, involution=replace(park.involution, faces={})
    )
    report = validate_park(broken)
    assert not report
    assert report.violations[0][0] == "involution-involutive"
    assert report_runs == [park, park, park, broken]


def test_involution_maps_reject_change_in_place(chord_rep, example_park):
    """Every way to get an involution gives five read-only maps: item
    assignment raises ``TypeError``, and ``clear`` and ``update`` are not
    there.  So a park cannot lose its face map once built, and
    a changed copy is a new park that the gate checks."""
    chord = monodromy_to_park(chord_rep)
    involutions = (
        chord.involution,
        from_json_dict(to_json_dict(chord)).involution,
        example_park.involution,
        Involution(nodes={1: 2, 2: 1}, faces={1: 1}),
        find_park_involution(example_park),
    )
    for involution in involutions:
        for name in ("nodes", "faces", "edges", "vertices", "gardens"):
            mapping = getattr(involution, name)
            before = dict(mapping)
            with pytest.raises(TypeError):
                mapping[1] = 1
            for method, args in (("clear", ()), ("update", ({1: 1},))):
                with pytest.raises(AttributeError):
                    getattr(mapping, method)(*args)
            assert mapping == before
    source = {1: 2, 2: 1}
    involution = Involution(nodes=source)
    source[1] = 1
    assert involution.nodes == {1: 2, 2: 1}
    assert park_isomorphic(chord, chord) is not None
    replaced = replace(
        chord, involution=replace(chord.involution, faces={})
    )
    with pytest.raises(ValueError, match="^park fails validation: involution-involutive"):
        park_isomorphic(replaced, chord)


def test_a_park_that_fails_is_checked_on_every_call(report_runs, example_park_dict):
    bad = _mutated(example_park_dict, lambda obj: obj.update(t=5))
    expected = (
        "park fails validation: cone-count: entrance branch counts sum to 4, "
        "declared cone_points is 5"
    )
    calls = (
        lambda: park_hurwitz(bad),
        lambda: park_isomorphic(bad, bad),
        lambda: park_hurwitz(bad),
    )
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == expected
    assert not validate_park(bad)
    assert report_runs == [bad] * 4


def test_public_park_functions_check_every_park_and_change_none(
    report_runs, chord_rep, example_park
):
    """``validate_park``, ``park_hurwitz``, ``park_isomorphic`` and
    ``type_summary`` run the rules once on each park they are given, on
    every call, and leave the park as it was: a park carries no record of
    a check, whether it was extracted or read."""
    calls = (
        (validate_park, 1),
        (park_hurwitz, 1),
        (lambda park: park_isomorphic(park, park), 2),
        (type_summary, 1),
    )
    for park in (monodromy_to_park(chord_rep), example_park):
        before = dict(vars(park))
        for call, runs in calls * 2:
            report_runs.clear()
            call(park)
            assert report_runs == [park] * runs
            assert vars(park) == before


def test_total_degree_raises_on_unbalanced_degrees(example_park_dict):
    park = _mutated(
        example_park_dict,
        lambda obj: obj["gardens"][0]["faces"][0].update(degree=2),
    )
    with pytest.raises(InconsistencyError, match="white degrees sum to 5 but black degrees to 4"):
        total_degree(park)
    assert ("degree-balance", "white degrees sum to 5, black degrees to 4") in (
        validate_park(park).violations
    )
