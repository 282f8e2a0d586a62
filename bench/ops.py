"""Running one op: a CLI call as a subprocess or in-process, or an entropy
library op.  Timing covers the op only; output checks happen elsewhere.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: every process the benchmark starts runs single-threaded BLAS: one op is
#: in flight at a time on a 2-core machine, and the harness process must
#: not contend with it
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def set_blas_threads() -> None:
    """Pin BLAS threads of this process; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> dict:
    """Run one process to completion; wall time and peak RSS from wait4."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=bench_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "exit": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def cli_argv(op: dict, out_path: Path | None) -> list[str]:
    argv = list(op["argv"])
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return argv


def run_cli_subprocess(op: dict, out_path: Path | None, scratch: Path) -> dict:
    """One CLI op as a whole subprocess (interpreter start included)."""
    stdout_path, stderr_path = scratch / "stdout", scratch / "stderr"
    argv = [sys.executable, "-m", "askeychain.cli", *cli_argv(op, out_path)]
    res = spawn(argv, stdout_path, stderr_path)
    res["stdout"] = stdout_path.read_bytes()
    res["stderr"] = stderr_path.read_text(errors="replace")
    return res


def run_cli_inprocess(op: dict, out_path: Path | None) -> dict:
    """One CLI op through ``askeychain.cli.main`` in this process."""
    from askeychain import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(cli_argv(op, out_path))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    wall = time.perf_counter() - t0
    return {"wall": wall, "exit": code, "stdout": out.getvalue().encode(), "stderr": err.getvalue()}


def run_entropy_op(op: dict) -> tuple[float, dict | None, str | None]:
    """Time one entropy op; returns (wall, outputs, error).

    Library functions are looked up on the package at call time, so the
    traced run's wrappers see them.
    """
    import numpy as np
    import askeychain as ak

    family, conv_type, params, N = op["spec"]
    recipe = ak.ConvolutionRecipe(ak.Family(family), ak.ConvType(conv_type), tuple(params))
    t0 = time.perf_counter()
    try:
        system = ak.analytic_eigensystem(recipe, N=N)
        n = system.size
        order = np.argsort(system.kappas, kind="stable")
        filled = frozenset(int(i) for i in order[: n // op["fill_div"]])
        corr = ak.correlation_matrix(ak.FreeFermionModel(system, filled_modes=filled))
        profile = ak.entropy_profile(corr)
        mid = ak.block_entropy(corr, (n // 4, n - n // 4))
    except Exception as exc:  # an op that raises is a failed op
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, {"corr": corr, "profile": profile, "mid": mid}, None
