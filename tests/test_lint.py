"""Per-family knowledge stays in ``families._FAMILIES``: no other module of
the package names a ``Family`` member or branches on ``family is``.  Row
blocks have one size and one helper: ``families._BLOCK_ROWS`` is the only
block-row constant, and rows are stepped by ``families._row_blocks``, not
by a hand-written ``for ... in range(0, n, ROWS)`` loop.  No module has a
``while`` loop: truncation windows are sized, not grown.  Importing the
CLI does not import ``concurrent.futures``: the entropy sweep's thread
pool imports it on first use.  The package holds no state of process
lifetime: no module registers an ``os.register_at_fork`` hook or decorates
a function with ``functools.lru_cache`` or ``functools.cache``, and the
sweep's pool lives for one profile, so a process that has run one is
back to its main thread."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "askeychain"
PER_FAMILY = re.compile(r"\bFamily\.[A-Z_]+|\bfamily is\b")
ROWS_CONSTANT = re.compile(r"^_?[A-Z_]*ROWS\s*[:=]")
HAND_ROW_LOOP = re.compile(r"^\s*for\b.*\brange\(\s*0\s*,.*ROWS\b")
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "families.py"]
PROCESS_CACHES = {"lru_cache", "cache"}


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


def test_cli_import_leaves_out_the_pool_module():
    code = "import sys, askeychain.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False"]


def _process_wide_state(tree: ast.AST) -> list[int]:
    """Lines that call ``register_at_fork`` or decorate a function with
    ``lru_cache`` or ``cache``, bare or as an attribute."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node) == "register_at_fork":
            lines.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [d.lineno for d in node.decorator_list if name(d) in PROCESS_CACHES]
    return lines


def test_no_fork_hook_or_function_cache():
    sample = ("@functools.lru_cache(maxsize=64)\ndef f(x): pass\n@cache\ndef g(): pass\n"
              "@functools.cached_property\ndef h(self): pass\n"
              "os.register_at_fork(after_in_child=f)\n")
    assert _process_wide_state(ast.parse(sample)) == [1, 3, 7]
    hits = {name: _process_wide_state(ast.parse((SRC / name).read_text())) for name in ALL_MODULES}
    assert {name: lines for name, lines in hits.items() if lines} == {}


def test_pooled_profile_leaves_only_the_main_thread():
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the sweep starts no pool")
    # a quarter filling of 201 sites: 50 Gram matrices, in stacks of 11
    code = (
        "import sys, threading\n"
        "from askeychain import *\n"
        "s = analytic_eigensystem(*parse_recipe('hahn type=i a=1 b=2 c=3 N=200'))\n"
        "model = FreeFermionModel(s, filled_modes=frozenset(range(50)))\n"
        "entropy_profile(correlation_matrix(model))\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["True", "1"]
