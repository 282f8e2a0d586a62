"""Per-family knowledge stays in ``families._FAMILIES``: no other module of
the package names a ``Family`` member or branches on ``family is``."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "askeychain"
PER_FAMILY = re.compile(r"\bFamily\.[A-Z_]+|\bfamily is\b")
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "families.py")


def _hits(name: str) -> list[str]:
    lines = (SRC / name).read_text().splitlines()
    return [f"{name}:{i}: {line.strip()}" for i, line in enumerate(lines, 1)
            if PER_FAMILY.search(line)]


def test_pattern_finds_the_table():
    assert MODULES
    assert _hits("families.py")


@pytest.mark.parametrize("name", MODULES)
def test_no_family_member_outside_families(name):
    assert _hits(name) == []
