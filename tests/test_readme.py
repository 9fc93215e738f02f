"""The README's code examples run as written."""

import re

from conftest import REPO_ROOT


def test_readme_python_blocks_run():
    """Every ``python`` block of the README executes, its asserts included
    (also under ``python -O``)."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec", optimize=0), {})
