"""Per-family knowledge stays in ``families._FAMILIES``: no other module of
the package names a ``Family`` member or branches on ``family is``.  Row
blocks have one size and one helper: ``families._BLOCK_ROWS`` is the only
block-row constant, and rows are stepped by ``families._row_blocks``, not
by a hand-written ``for ... in range(0, n, ROWS)`` loop.  No module has a
``while`` loop: truncation windows are sized, not grown."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "askeychain"
PER_FAMILY = re.compile(r"\bFamily\.[A-Z_]+|\bfamily is\b")
ROWS_CONSTANT = re.compile(r"^_?[A-Z_]*ROWS\s*[:=]")
HAND_ROW_LOOP = re.compile(r"^\s*for\b.*\brange\(\s*0\s*,.*ROWS\b")
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "families.py"]


def _hits(name: str, pattern: re.Pattern = PER_FAMILY) -> list[str]:
    lines = (SRC / name).read_text().splitlines()
    return [f"{name}:{i}: {line.strip()}" for i, line in enumerate(lines, 1)
            if pattern.search(line)]


def test_pattern_finds_the_table():
    assert MODULES
    assert _hits("families.py")


def test_block_patterns_find_what_they_look_for():
    assert ROWS_CONSTANT.search("_CHECK_ROWS = 32")
    assert HAND_ROW_LOOP.search("    for lo in range(0, len(phi), _CHECK_ROWS):")


@pytest.mark.parametrize("name", MODULES)
def test_no_family_member_outside_families(name):
    assert _hits(name) == []


def test_one_block_row_constant():
    assert [name for name in ALL_MODULES if _hits(name, ROWS_CONSTANT)] == ["families.py"]
    names = [hit.split(": ", 1)[1].split()[0] for hit in _hits("families.py", ROWS_CONSTANT)]
    assert names == ["_BLOCK_ROWS"]


@pytest.mark.parametrize("name", ALL_MODULES)
def test_rows_are_stepped_by_the_helper(name):
    assert _hits(name, HAND_ROW_LOOP) == []


@pytest.mark.parametrize("name", ALL_MODULES)
def test_no_while_loop(name):
    tree = ast.parse((SRC / name).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.While)] == []
