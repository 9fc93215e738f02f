"""The import contract: ``import parkscope`` registers every submodule but
runs none, and each CLI command loads only the submodules it uses."""

import ast
import json
import re

import pytest

import parkscope

from conftest import EXAMPLE_PARK_PATH, EXAMPLE_REP_PATH, REPO_ROOT, run_python

LAYERS = ("cli", "equivalence", "extraction", "hurwitz", "monodromy", "park", "permgroup")

# A submodule whose body has run is a plain module; one still waiting for
# its first attribute access is not.  Reading an attribute would load it.
_PRELUDE = (
    "import json, sys, types\n"
    f"LAYERS = {LAYERS!r}\n"
    "def loaded():\n"
    "    return [n for n in LAYERS if type(sys.modules['parkscope.' + n]) is types.ModuleType]\n"
)


def _child(body):
    """Run ``body`` in a fresh interpreter; its last stdout line is JSON."""
    proc = run_python(["-c", _PRELUDE + body])
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_import_registers_every_layer_and_runs_none():
    # perfbench's tracer reads sys.modules["parkscope.<layer>"] for every
    # layer right after ``import parkscope``: all of them must be there.
    registered, ran = _child(
        "import parkscope\n"
        "print(json.dumps([[n for n in LAYERS if 'parkscope.' + n in sys.modules], loaded()]))\n"
    )
    assert registered == list(LAYERS)
    assert ran == []


def test_star_import_gives_each_name_its_home_object():
    mismatched = _child(
        "namespace = {}\n"
        "exec('from parkscope import *', namespace)\n"
        "import parkscope\n"
        "def home(name, obj):\n"
        "    if name in LAYERS:\n"
        "        return sys.modules['parkscope.' + name]\n"
        "    return getattr(sys.modules[obj.__module__], name)\n"
        "print(json.dumps([\n"
        "    n for n in parkscope.__all__\n"
        "    if not (namespace[n] is getattr(parkscope, n) is home(n, namespace[n]))\n"
        "]))\n"
    )
    assert mismatched == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        parkscope.no_such_name
    with pytest.raises(ImportError):
        from parkscope import no_such_name  # noqa: F401
    assert set(parkscope.__all__) <= set(dir(parkscope))


def _names_read(path):
    """Every name that ``path`` reads, as a variable or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _public_definitions(path):
    """The public names that the module ``path`` defines at its top level:
    its functions, its classes and the names it assigns."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_reader_outside_the_tests():
    """A name that ``parkscope`` exports, other than a layer module, and a
    public name that a layer module or ``errors`` defines at its top level,
    is read by a library module besides the package's own ``__init__``, or
    by the benchmark, or is named in README's "What's inside" table: a
    name that only tests read belongs in the tests."""
    package = REPO_ROOT / "src" / "parkscope"
    sources = [path for path in package.rglob("*.py") if path != package / "__init__.py"]
    sources += (REPO_ROOT / "perfbench").glob("*.py")
    read = set().union(*map(_names_read, sources))
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    inside = readme.split("## What's inside\n", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in inside.splitlines() if line.startswith("|"))
    named = set(re.findall(r"`(\w+)`", table))
    public = [("parkscope", n) for n in parkscope.__all__ if n not in LAYERS]
    for module in (*LAYERS, "errors"):
        path = package / f"{module}.py"
        if not path.exists():
            path = package / module / "__init__.py"
        public += [(module, n) for n in _public_definitions(path)]
    unread = [f"{module}.{n}" for module, n in public if n not in read | named]
    assert unread == []


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["--help"], LAYERS[1:]),
        (["validate", str(EXAMPLE_REP_PATH)], ("park", "extraction", "equivalence", "hurwitz")),
        (["info", str(EXAMPLE_REP_PATH)], ("park", "extraction", "equivalence", "hurwitz")),
        (["validate-park", str(EXAMPLE_PARK_PATH)], ("extraction", "equivalence", "hurwitz")),
        (["single-hurwitz", "0", "3"], ("park",)),
        (["extract", str(EXAMPLE_REP_PATH)], ("equivalence", "hurwitz")),
        (["info", str(EXAMPLE_PARK_PATH)], ("extraction", "equivalence", "hurwitz")),
        (["hurwitz", str(EXAMPLE_PARK_PATH)], ("extraction", "equivalence")),
        (["isomorphic", str(EXAMPLE_PARK_PATH), str(EXAMPLE_PARK_PATH)], ("hurwitz",)),
        (["equivalent", str(EXAMPLE_REP_PATH), str(EXAMPLE_REP_PATH)], ("hurwitz",)),
        (["enumerate", "--degree", "3", "--cone", "2", "--corner", "0"], ("hurwitz",)),
    ],
    ids=[
        "help",
        "validate",
        "info-rep",
        "validate-park",
        "single-hurwitz",
        "extract",
        "info-park",
        "hurwitz",
        "isomorphic",
        "equivalent",
        "enumerate",
    ],
)
def test_cli_command_loads_only_what_it_uses(argv, unloaded):
    code, ran, stdlib_loaded = _child(
        "import runpy\n"
        f"sys.argv = ['parkscope', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('parkscope.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "heavy = [n for n in ('dataclasses', 'inspect') if n in sys.modules]\n"
        "print(json.dumps([code, loaded(), heavy]))\n"
    )
    assert code == 0
    assert not set(ran) & set(unloaded), ran
    # records are built on errors._Record, so no command pays for
    # dataclasses or the inspect module it imports
    assert stdlib_loaded == []
