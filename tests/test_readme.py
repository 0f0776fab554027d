"""The README's Python examples run against the package as it is, so they
cannot drift from its public names."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no fenced python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
