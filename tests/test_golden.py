"""The golden contract: exit code and sha256 of every output of a fixed set
of CLI calls, run in process through ``cli.main``.

The set is the ``verify`` and export calls the benchmark can make, built
here from the ``conftest`` grids, plus an ``entropy`` profile and a
``--block`` entropy per export recipe.  Each export recipe also gets a
``correlation``, an ``entropy`` profile and a ``--block`` entropy with
``--filled`` set to a quarter of its modes by largest kappa, and again by
smallest kappa: at mu = 0 three of the four fill nothing.
``tests/golden.json`` holds one ``{"exit", "sha256"}`` entry per call,
keyed ``command|format|recipe`` (with ``|--block start:stop`` appended for
a block, and ``|--filled largest-kappa/4`` or ``smallest-kappa/4`` before
the block for a filling, in place of its mode list).  The calls run in
one child interpreter with one BLAS thread, as the benchmark runs them: a
threaded matrix product sums in another order and moves bits.

A change that keeps every byte leaves the manifest as it is; a change that
moves output on purpose rewrites it with

    PYTHONPATH=src python tests/test_golden.py --record

which prints each moved key, with its old and new exit code and digest,
on stderr, for the list of changed outputs.  The key set only grows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import FINITE_GRID, TRUNCATED_GRID

import numpy as np

from askeychain import cli
from askeychain import families as F
from askeychain.families import ConvolutionRecipe, ConvType, Family
from askeychain.spectral import _reliable_modes, analytic_eigensystem

MANIFEST = Path(__file__).with_name("golden.json")
BLAS_ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")

VERIFY_N = 200
#: the verify calls the benchmark runs besides its grids: one defect (exit
#: 1), an N = 800 pass, two refusals (exit 2: an underflowed pi, and a
#: Meixner recipe that no window certifies) and the largest window
VERIFY_FIXED = [
    (Family.KRAWTCHOUK, ConvType.I, (0.3, 0.5), 800),
    (Family.HAHN, ConvType.II, (1.0, 0.5, 1.0), 800),
    (Family.Q_HAHN, ConvType.I, (0.3, 0.5, 0.4, 0.5), 400),
    (Family.MEIXNER, ConvType.I, (1.0, 1.0, 0.2), None),
    (Family.CHARLIER, ConvType.I, (0.9, 20.0), None),
]
EXPORT_RECIPES = [
    (Family.KRAWTCHOUK, ConvType.II, (0.2, 0.6), 400),
    (Family.HAHN, ConvType.III, (1.0, 2.0, 1.0), 400),
    (Family.Q_HAHN, ConvType.I, (0.3, 0.5, 0.4, 0.5), 200),
    (Family.MEIXNER, ConvType.III, (6.0, 0.2, 1.0), None),
]
EXPORT_COMMANDS = [("kernel", "csv"), ("kernel", "json"), ("hamiltonian", "json"),
                   ("eigvecs", "csv"), ("correlation", "csv"), ("spectrum", "csv")]
#: the N = 800 kernel in both formats (exit 1: column sums 1.78e-12)
EXPORT_LARGE = (Family.HAHN, ConvType.III, (1.0, 2.0, 1.0), 800)
#: a block inside every export recipe's lattice
ENTROPY_BLOCK = "40:120"
#: the fermion commands run with --filled on each export recipe
FILLED_COMMANDS = [("correlation", ()), ("entropy", ()), ("entropy", ("--block", ENTROPY_BLOCK))]


def recipe_text(family: Family, conv_type: ConvType, params: tuple, N: int | None) -> str:
    """The recipe as the benchmark writes it: the type as given (Meixner ii
    is not canonicalized), every parameter by its repr."""
    names = F._FAMILIES[family].recipe_names
    parts = [family.value, f"type={conv_type.value}"]
    parts += [f"{name}={value!r}" for name, value in zip(names, params)]
    return " ".join(parts + ([f"N={N}"] if N is not None else []))


def quarter_fillings(family: Family, conv_type: ConvType, params: tuple,
                     N: int | None) -> dict[str, str]:
    """Label -> ``--filled`` value: the quarter of the modes with the
    largest kappa, and the quarter with the smallest.  On a truncated window
    both are drawn from its reliable modes (norm defect <= 1e-10) only: the
    others spill past the window."""
    system = analytic_eigensystem(ConvolutionRecipe(family, conv_type, params), N=N)
    pool = _reliable_modes(system)
    order = pool[np.argsort(system.kappas[pool], kind="stable")]
    quarter = len(order) // 4
    sets = {"largest-kappa/4": order[len(order) - quarter:], "smallest-kappa/4": order[:quarter]}
    return {label: ",".join(str(n) for n in sorted(modes)) for label, modes in sets.items()}


def golden_calls() -> dict[str, list[str]]:
    """Manifest key -> ``cli.main`` arguments, ``--out`` left off."""
    calls = {}

    def add(command, fmt, spec, *extra, filled=None):
        recipe = recipe_text(*spec)
        tail = [] if filled is None else [f"--filled {filled[0]}"]
        tail += [" ".join(extra)] if extra else []
        argv = [] if filled is None else ["--filled", filled[1]]
        calls["|".join([command, fmt, recipe, *tail])] = [
            command, "--recipe", recipe, "--format", fmt, *argv, *extra]

    for grid, N in ((FINITE_GRID, VERIFY_N), (TRUNCATED_GRID, None)):
        for (family, conv_type), tuples in grid.items():
            for params in tuples:
                add("verify", "csv", (family, conv_type, params, N))
    for spec in VERIFY_FIXED:
        add("verify", "csv", spec)
    for spec in EXPORT_RECIPES:
        for command, fmt in EXPORT_COMMANDS:
            add(command, fmt, spec)
        add("entropy", "csv", spec)
        add("entropy", "csv", spec, "--block", ENTROPY_BLOCK)
        for filled in quarter_fillings(*spec).items():
            for command, extra in FILLED_COMMANDS:
                add(command, "csv", spec, *extra, filled=filled)
    for fmt in ("csv", "json"):
        add("kernel", fmt, EXPORT_LARGE)
    return calls


def run_call(argv: list[str], out: Path) -> dict:
    """Exit code and sha256 of the text one call writes (empty when it
    writes none), as ``{"exit", "sha256"}``."""
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}


def child_digests() -> dict[str, dict]:
    """Every call's digest, from this file run as a child with one BLAS thread."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_golden_output_keeps_its_bytes():
    manifest = json.loads(MANIFEST.read_text())["outputs"]
    assert sorted(manifest) == sorted(golden_calls())
    got = child_digests()
    changed = [f"{key}: {manifest[key]} -> {d}" for key, d in got.items() if d != manifest[key]]
    assert not changed, "golden outputs changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        outputs = child_digests()
        old = json.loads(MANIFEST.read_text())["outputs"] if MANIFEST.exists() else {}
        for key, d in sorted(outputs.items()):
            was = old.get(key, {"exit": None, "sha256": None})
            if d != was:
                print(f"{key}: exit {was['exit']} -> {d['exit']}, "
                      f"sha256 {was['sha256']} -> {d['sha256']}", file=sys.stderr)
        MANIFEST.write_text(json.dumps({"outputs": outputs}, indent=1, sort_keys=True) + "\n")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            json.dump({key: run_call(argv, out) for key, argv in golden_calls().items()}, sys.stdout)
