"""The package and its scripts parse as Python 3.10, the floor ``pyproject.toml``
declares (``requires-python = ">=3.10"``).

``ast.parse(..., feature_version=(3, 10))`` refuses grammar added after 3.10,
such as ``except*``.  It does not catch library calls added after 3.10
(``datetime.UTC`` or ``tomllib``, say): those parse, and fail only when run.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "pmlkit").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_newer_grammar_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
