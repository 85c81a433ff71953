"""The code parses under the oldest grammar that ``pyproject.toml`` declares.

``requires-python`` says 3.10, while the suite may run on a later Python.
This check parses every ``.py`` file under ``src/``, ``tests/`` and
``tools/`` with the 3.10 grammar, so syntax such as ``except*`` fails here.
It checks grammar only: it does not catch a call to a library function,
module or argument that exists only in Python 3.11 or later.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_floor_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    assert tuple(map(int, declared.groups())) == FLOOR


def test_floor_grammar_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


def test_sources_parse_at_the_floor():
    paths = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
