"""The README's code examples run as written."""

import re
import shlex

from parkscope import park

from conftest import REPO_ROOT, run_cli

CLI = "python3 -m parkscope.cli "


def test_readme_python_blocks_run():
    """Every ``python`` block of the README executes, its asserts included
    (also under ``python -O``)."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec", optimize=0), {})


def test_readme_shell_examples_run(tmp_path):
    """Every CLI command of the README's ``sh`` blocks exits 0, with
    ``/tmp/park.json`` moved into a temporary directory, and prints the
    ``# ...`` lines below it; a last line ending in ``...`` is a prefix of
    the rest of the output."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL):
        for line in block.splitlines():
            if line.startswith(CLI):
                examples.append((line, []))
            elif line.startswith("# ") and examples:
                examples[-1][1].append(line[2:])
    assert len(examples) == 7
    park_path = str(tmp_path / "park.json")
    for command, expected in examples:
        args = shlex.split(command.replace("/tmp/park.json", park_path))[3:]
        result = run_cli(args)
        assert result.returncode == 0, (command, result.stderr)
        out = result.stdout.decode()
        if not expected:
            continue
        wanted = "\n".join(expected)
        if wanted.endswith("..."):
            assert out.startswith(wanted[:-3].rstrip()), (command, out)
        else:
            assert out == wanted + "\n", (command, out)


def test_readme_lists_the_park_key_table():
    """README's park record table gives each record type's JSON keys, in
    file order, with the field each fills, as the park reader and writer
    use them."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    listed, cells = {}, None
    for name, keys in re.findall(r"^\| \w+ \| `(\w+)`: (.*) \|$", text, flags=re.MULTILINE):
        keys, _, lists = keys.partition(", then the lists ")
        if lists:
            cells = re.findall(r"`(\w+)`", lists)
        pairs = [re.findall(r"`(\w+)`", item) for item in keys.split(", ")]
        listed[name] = [(pair[0], pair[-1]) for pair in pairs]
    assert listed == {cls.__name__: list(keys.items()) for cls, keys in park._RECORD_KEYS.items()}
    assert cells == [key for key, _, _ in park._GARDEN_CELLS]
