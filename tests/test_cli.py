"""Unit tests for the command-line front end: exit codes and output routing."""

import ast
import json
import os

import pytest

from parkscope import build, cli, enumerate_monodromies, monodromy, monodromy_to_park, park
from parkscope.cli import main

from conftest import (
    EXAMPLE_PARK_PATH,
    EXAMPLE_REP_PATH,
    make_chord_rep,
    make_loop3_rep,
    make_unrealizable_rep,
    realized_reps,
    run_cli,
)


def _write_rep(path, rep):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(monodromy.to_json_dict(rep), fh)
    return str(path)


@pytest.fixture
def loop3_file(tmp_path):
    return _write_rep(tmp_path / "loop3.json", make_loop3_rep())


@pytest.fixture
def unrealizable_file(tmp_path):
    return _write_rep(tmp_path / "odd.json", make_unrealizable_rep())


#: What every public gate says of ``broken_file``'s rep.
SEAM_FAILURE = "monodromy fails relation validation: seam: c[1] differs from e.c[1].e^-1"


@pytest.fixture
def broken_file(tmp_path):
    """A rep that parses but fails the relations: ``x`` moves no black."""
    return _write_rep(tmp_path / "bad.json", build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1)]))


#: What every park check says of ``failing_park_file``'s park.
PARK_FAILURE = (
    "park fails validation: cone-count: entrance branch counts sum to 4, declared cone_points is 5"
)


@pytest.fixture
def failing_park_file(tmp_path):
    """The example park, which parses, declaring one cone point too many."""
    obj = json.loads(EXAMPLE_PARK_PATH.read_text())
    obj["t"] = 5
    path = tmp_path / "failing_park.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_validate_ok(loop3_file, capsys):
    assert main(["validate", loop3_file]) == 0
    out = capsys.readouterr().out
    assert "relations: ok" in out
    assert "genericity (geometric): ok" in out


def test_validate_strict_negative(loop3_file, capsys):
    assert main(["validate", loop3_file, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out


def test_validate_json_payload(loop3_file, capsys):
    assert main(["validate", loop3_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["relations"]["ok"] is True
    assert payload["genericity"]["problems"] == []


def test_validate_rejects_broken_relations(broken_file, capsys):
    assert main(["validate", broken_file]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_extract_roundtrip(loop3_file, tmp_path, capsys):
    out_path = tmp_path / "park.json"
    assert main(["extract", loop3_file, "-o", str(out_path)]) == 0
    assert main(["validate-park", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["info", str(out_path)]) == 0
    assert "d=3 g=0 n=4" in capsys.readouterr().out


def test_extract_to_stdout(loop3_file, capsys):
    assert main(["extract", loop3_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "gardens" in payload and payload["t"] == 2


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_extract_to_unwritable_path_is_malformed(loop3_file, tmp_path, capsys, target):
    path = tmp_path / "missing" / "park.json" if target == "missing-directory" else tmp_path
    assert main(["extract", loop3_file, "-o", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {path}: ")


def test_module_run_writes_nothing_to_stderr():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: ")
    assert proc.stderr == b""


def test_extract_unrealizable(unrealizable_file, capsys):
    assert main(["extract", unrealizable_file]) == 1
    err = capsys.readouterr().err
    assert "Euler characteristic" in err


def test_extract_invalid_rep(broken_file, capsys):
    message = f"{broken_file}: {SEAM_FAILURE}"
    assert main(["extract", broken_file]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
    assert main(["extract", broken_file, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert json.loads(captured.out) == {"command": "extract", "ok": False, "error": message}


def test_info_monodromy(loop3_file, capsys):
    assert main(["info", loop3_file]) == 0
    assert "d=3 g=0 n=4 t=2 s=0" in capsys.readouterr().out


def test_info_monodromy_without_genus(tmp_path, capsys):
    # degree 2 with three critical values: the counts force no genus
    (rep,) = (cls.representative for cls in enumerate_monodromies(2, 1, 1).classes)
    path = _write_rep(tmp_path / "odd.json", rep)
    assert main(["info", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "monodromy: d=2 g=- n=3 t=1 s=1"
    assert main(["info", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["genus"] is None
    assert payload["relations_ok"] is payload["genericity_ok"] is True


def test_info_park_example(capsys):
    assert main(["info", str(EXAMPLE_PARK_PATH)]) == 0
    assert "d=4 g=1 n=8" in capsys.readouterr().out


def test_info_json_fields(capsys):
    assert main(["info", str(EXAMPLE_PARK_PATH), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "park"
    assert (payload["degree"], payload["genus"]) == (4, 1)
    assert payload["critical_values"] == 8
    assert len(payload["node_signatures"]) == 4


def test_info_park_closing_to_no_surface(tmp_path, capsys):
    """A coarse park that passes every other rule but whose Euler
    characteristic, 3, no closed orientable surface has: it fails
    validation, and ``info``, ``hurwitz`` and ``isomorphic`` answer no,
    never a traceback and never a Hurwitz number."""
    built = next(
        found
        for rep, found in realized_reps(3, 3)
        if (rep.degree, rep.cone_points, rep.corner_points) == (3, 1, 2)
    )
    obj = park.to_json_dict(built)
    for garden in obj["gardens"]:
        for face in garden["faces"]:
            face["boundary"] = []
    obj["gardens"][0]["vertices"].append({"id": 99, "corner": 1, "pair": None})
    obj["involution"]["vertices"]["99"] = 99
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(obj))
    closure = "surface-closure: no closed orientable surface has Euler characteristic 3"
    assert main(["validate-park", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == ["park: INVALID", f"  {closure}"]
    assert main(["info", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    message = f"{path}: park fails validation: {closure}"
    assert json.loads(captured.out) == {
        "command": "info", "schema": "park", "ok": False, "error": message
    }
    assert captured.err.strip() == message
    for argv in (["hurwitz", str(path)], ["isomorphic", str(path), str(path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "1/2" not in captured.out
        assert closure in captured.err


def test_info_unknown_schema(tmp_path, capsys):
    path = tmp_path / "what.json"
    path.write_text('{"foo": 3}')
    assert main(["info", str(path)]) == 2


def test_malformed_json_exit(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2
    assert main(["info", str(path)]) == 2
    assert main(["validate-park", str(path)]) == 2


def test_missing_file_exit():
    assert main(["validate", "/nonexistent/zz.json"]) == 2


def test_hurwitz_command(loop3_file, tmp_path, capsys):
    park_path = tmp_path / "park.json"
    assert main(["extract", loop3_file, "-o", str(park_path)]) == 0
    capsys.readouterr()
    assert main(["hurwitz", str(park_path)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["hurwitz", str(park_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "1"
    assert (payload["numerator"], payload["denominator"]) == (1, 1)


def test_single_hurwitz_values(capsys):
    assert main(["single-hurwitz", "0", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["single-hurwitz", "0", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"
    assert main(["single-hurwitz", "0", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"
    assert main(["single-hurwitz", "0", "4"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_single_hurwitz_malformed(capsys):
    assert main(["single-hurwitz", "0", "x"]) == 2
    assert main(["single-hurwitz", "-1", "2"]) == 2
    assert main(["single-hurwitz", "0", "0"]) == 2


def test_resource_limits(capsys):
    assert main(["single-hurwitz", "0", "7"]) == 3
    assert main(["single-hurwitz", "0", "7", "--max-degree", "8"]) == 0
    assert capsys.readouterr().out.strip() == "2401"
    assert main(["enumerate", "--degree", "6", "--cone", "1", "--corner", "0"]) == 3
    assert (
        main(["validate", str(EXAMPLE_REP_PATH), "--max-sheets", "4"]) == 3
    )


@pytest.mark.parametrize("genus,degrees", [("5000", "6"), ("99999999", "2")])
def test_single_hurwitz_large_genus_is_a_resource_limit(genus, degrees):
    proc = run_cli(["single-hurwitz", genus, degrees])
    assert proc.returncode == 3, proc.stderr
    assert b"branch count" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_enumerate_over_budget_in_process_is_exit_3(capsys):
    assert main(["enumerate", "--degree", "5", "--cone", "0", "--corner", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "candidate space 9765625 exceeds budget 5000000" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cell", [("4", "0", "8"), ("5", "8", "0")], ids=["4-0-8", "5-8-0"])
def test_enumerate_over_budget_is_a_resource_limit(cell):
    """Refused before the candidates are built: exit 3 in a child capped
    at 768 MiB, where building them first ends in a traceback."""
    degree, cone, corner = cell
    proc = run_cli(
        ["enumerate", "--degree", degree, "--cone", cone, "--corner", corner],
        memory_mib=768,
    )
    assert proc.returncode == 3, proc.stderr
    assert b"exceeds budget 5000000" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_cli_writes_nothing_to_disk(tmp_path):
    home, work = tmp_path / "home", tmp_path / "work"
    home.mkdir()
    work.mkdir()
    park_path = work / "park.json"
    built = monodromy_to_park(make_loop3_rep())
    park_path.write_text(json.dumps(park.to_json_dict(built)))
    # no parkscope setting from the caller may redirect a write
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARKSCOPE")}
    env["HOME"] = str(home)
    for args in (["single-hurwitz", "0", "4"], ["hurwitz", str(park_path)]):
        proc = run_cli(args, cwd=work, env=env)
        assert proc.returncode == 0, proc.stderr
    assert sorted(tmp_path.rglob("*")) == [home, work, park_path]


def test_isomorphic_self(capsys):
    assert (
        main(["isomorphic", str(EXAMPLE_PARK_PATH), str(EXAMPLE_PARK_PATH)]) == 0
    )
    out = capsys.readouterr().out
    assert "isomorphic" in out


def test_isomorphic_chord_park_lists_its_vertices(tmp_path, capsys):
    """The chord park has two vertices, so ``isomorphic`` of it with
    itself ends with a ``vertices:`` line."""
    park_path = tmp_path / "chord.json"
    park_path.write_text(json.dumps(park.to_json_dict(monodromy_to_park(make_chord_rep()))))
    assert main(["isomorphic", str(park_path), str(park_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "isomorphic",
        "corner rotation: 0",
        "gardens: 1->1",
        "faces:   1->1 2->2 3->3 4->4",
        "edges:   1->1 2->2 3->3 4->4",
        "nodes:   1->1 2->2 3->3 4->4",
        "vertices: 1->1 2->2",
    ]


def test_isomorphic_negative(loop3_file, tmp_path, capsys):
    park_path = tmp_path / "park.json"
    main(["extract", loop3_file, "-o", str(park_path)])
    capsys.readouterr()
    assert (
        main(["isomorphic", str(park_path), str(EXAMPLE_PARK_PATH)]) == 1
    )
    assert "not isomorphic" in capsys.readouterr().err


def test_isomorphic_json_witness(capsys):
    assert (
        main(
            [
                "isomorphic",
                str(EXAMPLE_PARK_PATH),
                str(EXAMPLE_PARK_PATH),
                "--json",
                "--allow-reflection",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["isomorphic"] is True
    assert payload["witness"]["nodes"]["1"] == 1


def test_equivalent_commands(loop3_file, tmp_path, capsys):
    assert main(["equivalent", loop3_file, loop3_file]) == 0
    out = capsys.readouterr().out
    assert "relabeling:" in out
    other = _write_rep(tmp_path / "single.json", make_loop3_rep())
    assert main(["equivalent", loop3_file, other]) == 0


def test_equivalent_negative(tmp_path, capsys):
    classes = enumerate_monodromies(3, 2, 0, dedup="jequiv").classes
    a = _write_rep(tmp_path / "a.json", classes[0].representative)
    b = _write_rep(tmp_path / "b.json", classes[1].representative)
    assert main(["equivalent", a, b]) == 1
    assert "no intertwining relabeling" in capsys.readouterr().err


def test_equivalent_different_parameters(tmp_path, capsys):
    """Two valid reps of different (d, t, s) are not equivalent, for that
    reason; they are not invalid input."""
    a = _write_rep(tmp_path / "a.json", enumerate_monodromies(3, 2, 0).classes[0].representative)
    b = _write_rep(tmp_path / "b.json", enumerate_monodromies(3, 2, 1).classes[0].representative)
    assert main(["equivalent", a, b, "--json"]) == 1
    captured = capsys.readouterr()
    message = "not equivalent: (degree, cone, corner) parameters differ: (3, 2, 0) against (3, 2, 1)"
    assert captured.err == message + "\n"
    assert json.loads(captured.out) == {
        "command": "equivalent",
        "equivalent": False,
        "error": message,
    }


def test_equivalent_invalid_rep(loop3_file, broken_file, capsys):
    assert main(["equivalent", broken_file, loop3_file, "--json"]) == 1
    captured = capsys.readouterr()
    message = f"{broken_file}: {SEAM_FAILURE}"
    assert captured.err == message + "\n"
    assert json.loads(captured.out) == {"command": "equivalent", "ok": False, "error": message}


@pytest.mark.parametrize(
    "command, schema, position",
    [
        ("info", "park", 0),
        ("hurwitz", "park", 0),
        ("extract", "rep", 0),
        ("isomorphic", "park", 0),
        ("isomorphic", "park", 1),
        ("equivalent", "rep", 0),
        ("equivalent", "rep", 1),
    ],
)
def test_a_refusal_names_its_file(
    broken_file, failing_park_file, capsys, command, schema, position
):
    """Every command that needs valid input refuses an invalid file one
    way: exit 1, ``<path>: <reason>`` on stderr, and with ``--json`` the
    command's payload, whichever argument the file is."""
    if schema == "park":
        failing, reason, valid = failing_park_file, PARK_FAILURE, str(EXAMPLE_PARK_PATH)
    else:
        failing, reason, valid = broken_file, SEAM_FAILURE, str(EXAMPLE_REP_PATH)
    files = [valid, valid] if command in ("isomorphic", "equivalent") else [valid]
    files[position] = failing
    message = f"{failing}: {reason}"
    payload = {"command": command, "ok": False, "error": message}
    if command == "info":
        payload["schema"] = "park"
    assert main([command, *files]) == 1
    assert capsys.readouterr() == ("", message + "\n")
    assert main([command, *files, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert json.loads(captured.out) == payload


@pytest.mark.parametrize("command", ["isomorphic", "equivalent"])
def test_every_file_loads_before_any_is_checked(
    tmp_path, broken_file, failing_park_file, capsys, command
):
    """An invalid first file and a malformed second one: exit 2 for the
    second, since every file loads before any is checked.  Two invalid
    files: the first is named."""
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{nope")
    failing = failing_park_file if command == "isomorphic" else broken_file
    assert main([command, failing, str(malformed)]) == 2
    assert capsys.readouterr().err.startswith(f"{malformed} is not valid JSON: ")
    also_failing = tmp_path / "also_failing.json"
    also_failing.write_text(open(failing, encoding="utf-8").read())
    assert main([command, failing, str(also_failing)]) == 1
    assert capsys.readouterr().err.startswith(f"{failing}: ")


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"degree": 3}', b"[" * 200000 + b"]" * 200000, b'{"degree": ' + b"7" * 5000 + b"}"],
    ids=["not-utf-8", "nested-too-deep", "integer-past-digit-limit"],
)
def test_a_file_that_does_not_decode_is_exit_2(tmp_path, capsys, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    assert main(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"{path} is not valid JSON: ")
    message = captured.err.rstrip("\n")
    assert main(["info", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and "Traceback" not in message
    assert json.loads(captured.out) == {"error": message}


def test_enumerate_output(capsys):
    assert (
        main(
            [
                "enumerate",
                "--degree",
                "3",
                "--cone",
                "2",
                "--corner",
                "0",
                "--dedup",
                "jequiv",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "9 representations, 2 classes" in out


def test_enumerate_json(capsys):
    args = [
        "enumerate",
        "--degree",
        "2",
        "--cone",
        "1",
        "--corner",
        "1",
        "--json",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["raw_count"] == 1
    assert payload["class_count"] == 1
    rep = payload["classes"][0]["representative"]
    assert rep["degree"] == 2 and len(rep["c"]) == 2


@pytest.mark.parametrize(
    "option,value", [("--degree", "0"), ("--cone", "-1"), ("--corner", "-1")]
)
def test_enumerate_out_of_range_counts_are_malformed(option, value, capsys):
    counts = {"--degree": "3", "--cone": "1", "--corner": "0", option: value}
    argv = ["enumerate"] + [item for pair in counts.items() for item in pair]
    assert main(argv) == 2
    assert "d >= 1, t >= 0, s >= 0" in capsys.readouterr().err


def test_json_error_payload(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert "error" in payload
    assert captured.err.strip() != ""


def _dangling_node(obj):
    obj["alleys"][0]["node"] = 99


def _duplicate_face_id(obj):
    obj["gardens"][1]["faces"][0]["id"] = obj["gardens"][0]["faces"][0]["id"]


def _edges_not_a_list(obj):
    obj["gardens"][0]["edges"] = False


@pytest.mark.parametrize(
    "mutate", [_dangling_node, _duplicate_face_id, _edges_not_a_list], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("command", ["validate-park", "info", "hurwitz", "isomorphic"])
def test_malformed_park_is_exit_2(tmp_path, capsys, command, mutate):
    obj = json.loads(EXAMPLE_PARK_PATH.read_text())
    mutate(obj)
    path = tmp_path / "park.json"
    path.write_text(json.dumps(obj))
    args = [command, str(path)]
    if command == "isomorphic":
        args.append(str(EXAMPLE_PARK_PATH))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: ") and "Traceback" not in err


def test_enumerate_over_the_critical_ceiling_is_exit_3(capsys):
    assert main(["enumerate", "--degree", "3", "--cone", "5", "--corner", "4"]) == 3
    assert "enumeration bounds exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "info", "extract", "equivalent"])
def test_huge_degree_is_exit_2_before_any_allocation(tmp_path, command):
    """A degree no generator matches fails on the first reflection's
    size, before ``e`` is derived on a ground set of that size."""
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {"degree": 10**8, "cone_points": 0, "corner_points": 0, "x": [], "c": [[1, 0]]}
        )
    )
    argv = [command, str(path)]
    if command == "equivalent":
        argv.append(str(path))
    proc = run_cli(argv, memory_mib=768)
    assert proc.returncode == 2, proc.stderr
    assert b"expected a permutation of 200000000 elements, got 2" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["validate", "info", "extract", "equivalent"])
def test_rep_whose_e_is_not_a_list_is_exit_2(tmp_path, capsys, command):
    obj = monodromy.to_json_dict(make_loop3_rep())
    obj["e"] = 5
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    argv = [command, str(path)]
    if command == "equivalent":
        argv.append(str(path))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{path}: 'e' must be an image array when present\n"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"cone_points": 2.0}, "cone_points must be an integer, got 2.0"),
        ({"corner_points": False}, "corner_points must be an integer, got False"),
    ],
)
def test_rep_whose_count_is_not_an_integer_is_exit_2(tmp_path, capsys, changes, message):
    obj = json.loads(EXAMPLE_REP_PATH.read_text())
    obj.update(changes)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    for json_flag in ([], ["--json"]):
        assert main(["validate", str(path), *json_flag]) == 2
        assert capsys.readouterr().err == f"{path}: {message}\n"


@pytest.mark.parametrize(
    "command", ["validate", "extract", "equivalent", "validate-park", "hurwitz", "isomorphic"]
)
def test_json_that_is_not_an_object_is_exit_2(tmp_path, capsys, command):
    """Both schemas refuse a document that is not an object."""
    path = tmp_path / "list.json"
    path.write_text("[]")
    argv = [command, str(path)]
    if command in ("equivalent", "isomorphic"):
        argv.append(str(path))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{path}: expected a JSON object, got list\n"


#: Arguments with which each subcommand exits 0.
COMMAND_ARGS = {
    "validate": [str(EXAMPLE_REP_PATH)],
    "extract": [str(EXAMPLE_REP_PATH)],
    "validate-park": [str(EXAMPLE_PARK_PATH)],
    "info": [str(EXAMPLE_REP_PATH)],
    "hurwitz": [str(EXAMPLE_PARK_PATH)],
    "single-hurwitz": ["0", "3"],
    "isomorphic": [str(EXAMPLE_PARK_PATH), str(EXAMPLE_PARK_PATH)],
    "equivalent": [str(EXAMPLE_REP_PATH), str(EXAMPLE_REP_PATH)],
    "enumerate": ["--degree", "2", "--cone", "1", "--corner", "1"],
}

#: The cap each subcommand reads besides ``--json``, if any.
COMMAND_CAP = {
    "validate": "--max-sheets",
    "extract": "--max-sheets",
    "info": "--max-sheets",
    "equivalent": "--max-sheets",
    "enumerate": "--max-sheets",
    "hurwitz": "--max-degree",
    "single-hurwitz": "--max-degree",
}

KEPT_OPTIONS = [(c, "--json") for c in COMMAND_ARGS] + list(COMMAND_CAP.items())
REMOVED_OPTIONS = [
    (c, o) for c in COMMAND_ARGS for o in ("--max-degree", "--max-sheets") if COMMAND_CAP.get(c) != o
]


@pytest.mark.parametrize("command, option", KEPT_OPTIONS)
def test_each_kept_option_is_read(command, option, capsys):
    """``--json`` gives one JSON document; a cap of zero, still a valid
    cap, is exceeded by every input, so the command read it."""
    if option == "--json":
        assert main([command, *COMMAND_ARGS[command], option]) == 0
        json.loads(capsys.readouterr().out)
    else:
        assert main([command, *COMMAND_ARGS[command], option, "0"]) == 3
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, option", REMOVED_OPTIONS)
def test_an_option_the_command_does_not_read_is_malformed(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *COMMAND_ARGS[command], option, "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: parkscope {command} [-h] [--json]")
    assert err.endswith(f"\nparkscope {command}: error: unrecognized arguments: {option} 3\n")


@pytest.mark.parametrize("command, option", list(COMMAND_CAP.items()))
def test_negative_cap_is_malformed(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *COMMAND_ARGS[command], option, "-1"])
    assert exc.value.code == 2
    assert f"argument {option}: must not be negative, got -1" in capsys.readouterr().err


def test_cli_reads_no_private_library_name():
    layers = {"monodromy", "park", "extraction", "equivalence", "hurwitz"}
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in layers
        and node.attr.startswith("_")
    ]
    private += [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("command, option", [("validate", "--max-sheets"), ("hurwitz", "--max-degree")])
def test_non_integer_cap_is_malformed(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *COMMAND_ARGS[command], option, "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: parkscope {command} [-h] [--json] [{option} ")
    assert err.endswith(f"\nparkscope {command}: error: argument {option}: invalid int value: 'x'\n")


def test_commands_return_their_answers_and_main_alone_prints():
    """Each handler takes the parsed arguments (and ``info``'s helpers the
    parsed document) and returns its exit code, payload and lines; no
    function but ``main`` reads ``sys.stdout`` or ``sys.stderr``."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    streams = {
        func.name
        for func in functions
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
        and node.attr in ("stdout", "stderr")
    }
    assert streams == {"main"}
    handlers = {
        func.name: [arg.arg for arg in func.args.args]
        for func in functions
        if func.name.startswith(("_cmd_", "_info_"))
    }
    assert len(handlers) == 11
    for name, params in handlers.items():
        assert params == (["args", "obj"] if name.startswith("_info_") else ["args"]), name


def test_a_handler_prints_nothing(capsys):
    args = cli._build_parser().parse_args(["single-hurwitz", "0", "4"])
    payload = {
        "command": "single-hurwitz",
        "genus": 0,
        "degrees": (4,),
        "value": "4",
        "numerator": 4,
        "denominator": 1,
    }
    assert args.handler(args) == (0, payload, ["4"])
    assert capsys.readouterr() == ("", "")
