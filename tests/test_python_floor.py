"""Every module parses under the grammar of the declared Python floor.

pyproject.toml declares requires-python >= 3.10, while the suite runs on a
newer Python. ast.parse with feature_version checks the grammar only, and
on a best-effort basis: a construct such as `except*` is refused, but a
standard-library API newer than the floor (a new function or module) is
not seen. That needs a run on the floor interpreter itself, with numpy.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "merminsim"
FLOOR = (3, 10)


def test_floor_is_the_declared_one():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert tuple(map(int, declared.groups())) == FLOOR


def test_a_newer_construct_is_refused():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
