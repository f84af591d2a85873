"""README's python blocks run in order in one namespace, as a reader
would paste them."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
