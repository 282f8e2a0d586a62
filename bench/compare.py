"""Compare benchmark results of a parent commit against a change.

    python3 bench/compare.py PARENT/.bench_out CHANGE/.bench_out

Reads the ``result-<workload>-seed<n>-trace0.json`` files both sides wrote,
pairs runs by workload and seed, and prints per workload and end-to-end
metric each side's median and quartiles, how many pairs the change won, and
a verdict: ``gain`` when the change wins at least 9 of 10 pairs and the
medians differ by more than the parent's interquartile distance,
``regression`` when the change's median is worse than the parent's by more
than the bound in BENCHMARK.json, ``unresolved`` when the parent's own
spread is wider than the bound, and ``same`` otherwise.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result-(?P<workload>[\w.-]+)-seed(?P<seed>\d+)-trace0\.json$")


def load(directory: Path) -> dict[tuple[str, int], dict]:
    out = {}
    for path in directory.iterdir():
        m = RESULT.match(path.name)
        if m:
            metrics = json.loads(path.read_text())["metrics"]
            out[(m["workload"], int(m["seed"]))] = {k: v["value"] for k, v in metrics.items()}
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, med, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, int]:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = spread(parent)
    _, cm, _ = spread(change)
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1:
        return "gain", wins
    if worse > metric["bound"]:
        return "regression", wins
    if pm and (p3 - p1) / abs(pm) > metric["bound"]:
        return "unresolved", wins
    return "same", wins


def main(argv: list[str]) -> int:
    parent_dir, change_dir = (Path(a) for a in argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load(parent_dir), load(change_dir)
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        print(f"{workload}: {len(seeds)} paired seeds")
        for m in metrics:
            name = m["name"]
            p = [parent[(workload, s)][name] for s in seeds]
            c = [change[(workload, s)][name] for s in seeds]
            result, wins = verdict(m, p, c)
            (p1, pm, p3), (c1, cm, c3) = spread(p), spread(c)
            print(f"  {name:14s} parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  change {cm:.5g} "
                  f"[{c1:.5g}, {c3:.5g}] {m['unit']:6s} change won {wins}/{len(seeds)}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
