"""Record the golden manifest: exit code and sha256 of every CLI output any
seed of the ``verify`` and ``export`` workloads can produce.

    python3 bench/record_golden.py

Run it only when a change is meant to alter CLI output; a run reports the
outputs that differ from the manifest as ``golden_mismatches``.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import ops as ops_mod
from workloads import golden_ops


def main() -> int:
    ops_mod.set_blas_threads()
    scratch = ops_mod.OUT_DIR / "scratch-golden"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    outputs = {}
    try:
        for i, op in enumerate(golden_ops()):
            out_path = scratch / f"op{i}.{op['format']}" if op["command"] != "verify" else None
            res = ops_mod.run_cli_subprocess(op, out_path, scratch)
            data = res["stdout"] if out_path is None else out_path.read_bytes()
            outputs[op["key"]] = checks.output_digest(res["exit"], data)
            print(f"{res['exit']} {op['key']}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checks.GOLDEN_PATH.write_text(json.dumps({"outputs": outputs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
