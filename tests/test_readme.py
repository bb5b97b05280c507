"""README's Library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """The bodies of the ```python blocks of a Markdown text, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_python_blocks_run_in_order():
    # each block may use the names that the blocks before it define
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 4
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
