"""Workload definitions: the pinned parameter grids and the seeded op lists.

An op is a plain dict (JSON-serialisable, so it can be recorded in the
result and sent to a worker process).  The library only ever sees the
recipe strings built here; the seed chooses the op order, the tuple each
finite (family, type) combination uses, and the entropy filling fractions.

Truncated combinations run every pinned tuple rather than a seed-chosen
one: their certified windows differ in size between tuples (Charlier i: 21
to 73 points, Meixner iii: 246 to 510), and the O(n^3)..O(n^4) work on them
would otherwise make a run's throughput depend on the seed far more than
on the code.
"""

from __future__ import annotations

import random

# Copied from tests/conftest.py (FINITE_GRID, TRUNCATED_GRID); 13 (family,
# type) combinations, Meixner ii being the alias of Meixner i.
PARAM_NAMES = {
    "krawtchouk": ("a", "b"),
    "charlier": ("a", "b"),
    "hahn": ("a", "b", "c"),
    "meixner": ("a", "b", "c"),
    "qhahn": ("a", "b", "c", "q"),
}

FINITE_GRID = {
    ("krawtchouk", "i"): [(0.3, 0.5), (0.5, 0.5), (0.7, 0.2)],
    ("krawtchouk", "ii"): [(0.2, 0.6), (0.5, 0.5), (0.6, 0.3)],
    ("krawtchouk", "iii"): [(0.4, 0.5), (0.3, 0.7), (0.8, 0.2)],
    ("hahn", "i"): [(1.0, 2.0, 3.0), (0.5, 0.5, 0.5), (2.0, 1.0, 0.7)],
    ("hahn", "ii"): [(1.0, 0.5, 1.0), (2.0, 0.3, 1.5), (0.7, 1.0, 0.4)],
    ("hahn", "iii"): [(1.0, 2.0, 1.0), (0.5, 1.0, 2.0), (2.0, 0.4, 0.6)],
    ("qhahn", "i"): [(0.3, 0.5, 0.4, 0.5), (0.5, 0.3, 0.6, 0.7), (0.2, 0.6, -0.3, 0.6)],
    ("qhahn", "iii"): [(0.3, 0.5, 0.4, 0.5), (0.6, 0.2, 0.3, 0.7), (0.4, -0.5, 0.5, 0.6)],
}

TRUNCATED_GRID = {
    ("charlier", "i"): [(0.4, 0.8), (0.2, 0.5), (0.6, 1.2)],
    ("charlier", "iii"): [(1.0, 0.4), (0.5, 0.5), (2.0, 0.3)],
    ("meixner", "i"): [(1.0, 6.0, 0.2), (0.5, 7.0, 0.25), (2.0, 7.0, 0.25)],
    ("meixner", "ii"): [(1.0, 6.0, 0.2), (0.5, 7.0, 0.25), (2.0, 7.0, 0.25)],
    ("meixner", "iii"): [(6.0, 0.2, 1.0), (7.0, 0.25, 0.5), (6.0, 0.25, 2.0)],
}

VERIFY_N = 200
ENTROPY_N = 400

# Fixed verify cases; the first four are ROADMAP defects or tolerance misses
# and stay in the workload as failures.
VERIFY_FIXED = [
    ("krawtchouk", "i", (0.3, 0.5), 800),     # defect 1, exit 1
    ("hahn", "ii", (1.0, 0.5, 1.0), 800),     # column sums 1.62e-12, exit 1
    ("qhahn", "i", (0.3, 0.5, 0.4, 0.5), 400),  # defect 2, exit 2
    ("meixner", "i", (1.0, 1.0, 0.2), None),  # defect 3, exit 1
    ("charlier", "i", (0.9, 20.0), None),     # window grows through 6 builds
]

EXPORT_RECIPES = [
    ("krawtchouk", "ii", (0.2, 0.6), 400),
    ("hahn", "iii", (1.0, 2.0, 1.0), 400),
    ("qhahn", "i", (0.3, 0.5, 0.4, 0.5), 200),
    ("meixner", "iii", (6.0, 0.2, 1.0), None),
]
EXPORT_COMMANDS = [
    ("kernel", "csv"),
    ("kernel", "json"),
    ("hamiltonian", "json"),
    ("eigvecs", "csv"),
    ("correlation", "csv"),
    ("spectrum", "csv"),
]
# 14-17 MB of output; column sums 1.78e-12, exit 1
EXPORT_LARGE = [("hahn", "iii", (1.0, 2.0, 1.0), 800, "kernel", fmt) for fmt in ("csv", "json")]

ENTROPY_FILLINGS = (4, 2)  # fill 1/4 or 1/2 of the modes, by lowest kappa

WORKLOADS = ("verify", "export", "entropy")


def recipe_text(family: str, conv_type: str, params: tuple, N: int | None) -> str:
    parts = [family, f"type={conv_type}"]
    parts += [f"{name}={value!r}" for name, value in zip(PARAM_NAMES[family], params)]
    if N is not None:
        parts.append(f"N={N}")
    return " ".join(parts)


def _grid_recipes(rng: random.Random, finite_N: int) -> list[tuple]:
    """One seed-chosen tuple per finite combination, every tuple of the
    truncated ones."""
    out = []
    for (family, conv_type), tuples in FINITE_GRID.items():
        out.append((family, conv_type, rng.choice(tuples), finite_N))
    for (family, conv_type), tuples in TRUNCATED_GRID.items():
        out += [(family, conv_type, params, None) for params in tuples]
    return out


def _cli_op(command: str, fmt: str, family, conv_type, params, N) -> dict:
    recipe = recipe_text(family, conv_type, params, N)
    argv = [command, "--recipe", recipe]
    if command != "verify":
        argv += ["--format", fmt]
    return {
        "kind": "cli",
        "command": command,
        "format": fmt,
        "recipe": recipe,
        "argv": argv,
        "spec": [family, conv_type, list(params), N],
        "key": f"{command}|{fmt}|{recipe}",
    }


def _entropy_op(family, conv_type, params, N, fill_div: int) -> dict:
    recipe = recipe_text(family, conv_type, params, N)
    return {
        "kind": "lib",
        "command": "entropy",
        "recipe": recipe,
        "fill_div": fill_div,
        "spec": [family, conv_type, list(params), N],
        "key": f"entropy|1/{fill_div}|{recipe}",
    }


def build_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one run: the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        specs = _grid_recipes(rng, VERIFY_N) + VERIFY_FIXED
        ops = [_cli_op("verify", "csv", *spec) for spec in specs]
    elif workload == "export":
        ops = [
            _cli_op(command, fmt, *spec)
            for spec in EXPORT_RECIPES
            for command, fmt in EXPORT_COMMANDS
        ]
        ops += [_cli_op(command, fmt, f, t, p, N) for f, t, p, N, command, fmt in EXPORT_LARGE]
    elif workload == "entropy":
        ops = [
            _entropy_op(*spec, rng.choice(ENTROPY_FILLINGS))
            for spec in _grid_recipes(rng, ENTROPY_N)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def golden_ops() -> list[dict]:
    """Every CLI op any seed can produce (the golden manifest's key set)."""
    specs = [
        (f, t, p, VERIFY_N) for (f, t), tuples in FINITE_GRID.items() for p in tuples
    ] + [(f, t, p, None) for (f, t), tuples in TRUNCATED_GRID.items() for p in tuples]
    ops = [_cli_op("verify", "csv", *spec) for spec in specs + VERIFY_FIXED]
    return ops + build_ops("export", 0)
