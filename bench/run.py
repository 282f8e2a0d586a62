"""askeychain benchmark entry point.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs one workload's seeded op list in a closed loop (one client, one op in
flight) for whole passes within ``--seconds``, checks every output, prints a
human-readable report and, as the last line, one JSON object with the
metrics named in BENCHMARK.json: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  Details of each run (environment,
every op's recipe and argv, per-op results) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import ops as ops_mod
from ops import OUT_DIR, ROOT, SRC
from workloads import WORKLOADS, build_ops

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
ENTRY_POINT = {"verify": "askeychain.cli", "export": "askeychain.cli", "entropy": "askeychain"}


def run_passes(n_ops: int, seconds: float, run_op, after_pass) -> int:
    """Whole passes over the op list; another pass starts only if it is
    expected to end within ``seconds`` of op time.  Returns the pass count."""
    timed, passes = 0.0, 0
    while True:
        for i in range(n_ops):
            timed += run_op(passes, i)
        after_pass(passes)
        passes += 1
        if timed * (passes + 1) / passes > seconds:
            return passes


# ---------------------------------------------------------------------------
# end-to-end (untraced) runs
# ---------------------------------------------------------------------------


def measure_setup(workload: str, scratch: Path) -> list[float]:
    argv = [sys.executable, "-c", f"import {ENTRY_POINT[workload]}"]
    ops_mod.spawn(argv, scratch / "stdout", scratch / "stderr")  # fills the bytecode cache
    walls = []
    for _ in range(SETUP_REPEATS):
        res = ops_mod.spawn(argv, scratch / "stdout", scratch / "stderr")
        if res["exit"] != 0:
            raise RuntimeError(f"import failed: {(scratch / 'stderr').read_text()}")
        walls.append(res["wall"])
    return walls


def run_cli_workload(ops: list[dict], seconds: float, scratch: Path, golden_digests: dict):
    import checks

    refs = checks.References()
    records: list[dict] = []
    pending: list[tuple[dict, dict, Path | None]] = []

    def run_op(p: int, i: int) -> float:
        op = ops[i]
        out_path = scratch / f"op{i}.{op['format']}" if op["command"] != "verify" else None
        res = ops_mod.run_cli_subprocess(op, out_path, scratch)
        pending.append((op, res, out_path))
        return res["wall"]

    def after_pass(p: int) -> None:
        for op, res, out_path in pending:
            records.append(check_cli_result(op, res, out_path, refs, golden_digests, p))
        pending.clear()

    passes = run_passes(len(ops), seconds, run_op, after_pass)
    return records, passes


def check_cli_result(op, res, out_path, refs, golden_digests, pass_no) -> dict:
    import checks

    if op["command"] == "verify":
        failure, wrong = checks.check_verify(res["exit"], res["stdout"], res["stderr"])
        data = res["stdout"]
    else:
        failure, wrong = checks.check_export(op, res["exit"], out_path, res["stderr"], refs)
        data = out_path.read_bytes() if out_path.exists() else b""
        if out_path.exists():
            out_path.unlink()
    golden_digests[op["key"]] = checks.output_digest(res["exit"], data)
    return {
        "key": op["key"],
        "pass": pass_no,
        "wall": res["wall"],
        "exit": res["exit"],
        "maxrss_kb": res.get("maxrss_kb"),
        "failure": failure,
        "wrong": wrong,
    }


def run_entropy_workload(ops: list[dict], seconds: float, scratch: Path):
    ops_path, out_path = scratch / "entropy_ops.json", scratch / "entropy_out.json"
    ops_path.write_text(json.dumps(ops))
    worker = Path(__file__).resolve().parent / "entropy_worker.py"
    argv = [sys.executable, str(worker), str(ops_path), str(seconds), str(out_path)]
    res = ops_mod.spawn(argv, scratch / "worker_stdout", scratch / "worker_stderr")
    if res["exit"] != 0:
        raise RuntimeError(f"entropy worker failed: {(scratch / 'worker_stderr').read_text()}")
    out = json.loads(out_path.read_text())
    for rec in out["records"]:
        rec["maxrss_kb"] = res["maxrss_kb"]
    return out["records"], out["passes"]


def end_to_end(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    import checks

    ops = build_ops(workload, seed)
    setup = measure_setup(workload, scratch)
    digests: dict[str, dict] = {}
    if workload == "entropy":
        records, passes = run_entropy_workload(ops, seconds, scratch)
    else:
        records, passes = run_cli_workload(ops, seconds, scratch, digests)
    walls = [r["wall"] for r in records]
    failed = sum(1 for r in records if r["failure"])
    mismatched, missing = checks.golden_mismatches(digests, checks.load_golden())
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(records) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
        "passed_share": (len(records) - failed) / len(records),
    }
    samples = {
        "setup_s": f"median of {len(setup)} fresh imports of {ENTRY_POINT[workload]}",
        "ops_per_s": f"{len(records)} ops in {sum(walls):.3f} s of op time, {passes} pass(es)",
        "op_p50_s": f"median of {len(records)} op times",
        "peak_rss_mb": "max over "
        + (f"{len(records)} CLI processes" if workload != "entropy" else "the worker process"),
        "passed_share": f"{failed} of {len(records)} attempted ops failed "
        f"(failed_share {failed / len(records):.4f})",
    }
    return {
        "ops": ops,
        "records": records,
        "passes": passes,
        "setup_walls": setup,
        "metrics": metrics,
        "samples": samples,
        "golden": {"mismatches": mismatched, "missing": missing, "checked": len(digests)},
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def startup_profile(workload: str, scratch: Path) -> dict[str, float]:
    from spans import parse_importtime

    argv = [sys.executable, "-X", "importtime", "-c", f"import {ENTRY_POINT[workload]}"]
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        ops_mod.spawn(argv, scratch / "stdout", scratch / "stderr")
        runs.append(parse_importtime((scratch / "stderr").read_text()))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def run_inprocess(op: dict, i: int, scratch: Path, tracer=None) -> dict:
    if tracer is not None:
        tracer.enabled = True
    try:
        if op["kind"] == "lib":
            wall, out, error = ops_mod.run_entropy_op(op)
            return {"wall": wall, "out": out, "error": error}
        out_path = scratch / f"op{i}.{op['format']}" if op["command"] != "verify" else None
        res = ops_mod.run_cli_inprocess(op, out_path)
        res["out_path"] = out_path
        return res
    finally:
        if tracer is not None:
            tracer.enabled = False


def traced(workload: str, seed: int, scratch: Path) -> dict:
    import checks
    from spans import Tracer, layer_totals

    ops = build_ops(workload, seed)
    startup = startup_profile(workload, scratch)
    import askeychain  # noqa: F401  (import paid once, outside the timed ops)
    import askeychain.cli  # noqa: F401

    untraced_s = sum(run_inprocess(op, i, scratch)["wall"] for i, op in enumerate(ops))
    tracer = Tracer()
    tracer.install()
    try:
        results = [run_inprocess(op, i, scratch, tracer) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    traced_s = sum(r["wall"] for r in results)

    refs = checks.References()
    records, digests = [], {}
    for op, res in zip(ops, results):
        if op["kind"] == "lib":
            failure, wrong = checks.check_entropy(op, res["out"], res["error"])
            records.append({"key": op["key"], "wall": res["wall"], "failure": failure, "wrong": wrong})
        else:
            records.append(check_cli_result(op, res, res["out_path"], refs, digests, 0))
    mismatched, missing = checks.golden_mismatches(digests, checks.load_golden())

    metrics = dict(layer_totals(tracer.spans))
    metrics.update(tracer.counters)
    metrics.update(startup)
    metrics["cli.golden_mismatches"] = len(mismatched)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    (OUT_DIR / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    return {
        "ops": ops,
        "records": records,
        "metrics": metrics,
        "samples": {
            "trace.overhead_share": f"in-process op time {traced_s:.3f} s traced "
            f"against {untraced_s:.3f} s untraced",
            "startup": f"median of {IMPORTTIME_REPEATS} runs of python -X importtime",
            "spans": f"{len(tracer.spans)} spans",
        },
        "golden": {"mismatches": mismatched, "missing": missing, "checked": len(digests)},
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": ops_mod.BLAS_THREADS,
        "seed": seed,
        "machine": platform.machine(),
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(workload: str, args, run: dict) -> dict:
    records = run["records"]
    failed = [r for r in records if r["failure"]]
    wrong = [r for r in records if r["wrong"]]
    env = environment(args.seed)
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  ops {len(records)}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas {env['blas']}  nproc {env['nproc']}  blas_threads {env['blas_threads']}")
    metrics = {}
    for m in declared_metrics(bool(args.trace)):
        value = float(run["metrics"].get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = run["samples"].get(m["name"], "")
        print(f"  {m['name']:34s} {value:14.6g} {m['unit']:6s} {note}")
    for name, note in run["samples"].items():
        if name not in metrics:
            print(f"  ({name}: {note})")
    g = run["golden"]
    print(f"  golden_mismatches {len(g['mismatches'])} of {g['checked']} CLI outputs"
          f" ({len(g['missing'])} not in the manifest)")
    print(f"  failed {len(failed)} of {len(records)} attempted; wrong outputs {len(wrong)}")
    for r in failed:
        print(f"    FAILED {r['key']}: {r['failure']}")
    detail = {**run, "workload": workload, "environment": env, "metrics": metrics,
              "ops": [{"key": o["key"], "recipe": o["recipe"], "argv": o.get("argv")}
                      for o in run["ops"]]}
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1, default=str))
    return {"correct": not wrong, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "askeychain" / "__init__.py").is_file():
        print(f"error: no askeychain sources under {SRC}", file=sys.stderr)
        return 2
    ops_mod.set_blas_threads()
    sys.path.insert(0, str(SRC))
    scratch = OUT_DIR / f"scratch-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            run = traced(args.workload, args.seed, scratch)
        else:
            run = end_to_end(args.workload, args.seed, args.seconds, scratch)
        result = report(args.workload, args, run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
