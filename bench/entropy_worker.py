"""Worker process of the ``entropy`` workload: imports the library once and
runs the entropy op list in a closed loop, checking each op's output after
its timed region.

    python3 bench/entropy_worker.py OPS_JSON SECONDS OUT_JSON
"""

from __future__ import annotations

import json
import sys

import checks
import ops as ops_mod
from run import run_passes


def main(argv: list[str]) -> int:
    ops_path, seconds, out_path = argv
    ops = json.loads(open(ops_path).read())
    sys.path.insert(0, str(ops_mod.SRC))
    import askeychain  # noqa: F401  (import paid once, before the first op)

    records: list[dict] = []

    def run_op(p: int, i: int) -> float:
        op = ops[i]
        wall, out, error = ops_mod.run_entropy_op(op)
        failure, wrong = checks.check_entropy(op, out, error)
        records.append({"key": op["key"], "pass": p, "wall": wall, "failure": failure, "wrong": wrong})
        return wall

    passes = run_passes(len(ops), float(seconds), run_op, lambda p: None)
    with open(out_path, "w") as fh:
        json.dump({"records": records, "passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
